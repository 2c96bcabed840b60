package rerun

import (
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/codec"
	"repro/internal/mh"
	"repro/internal/replay"
	"repro/internal/state"
	"repro/internal/telemetry/trace"
)

// doubler is a pipeline-stage module: read an integer, write its double.
func doubler(rt *mh.Runtime) {
	rt.Init()
	for {
		var n int
		rt.Read("in", &n)
		rt.Write("out", n*2)
	}
}

// encodeInt packs an integer the way a live module's Write would.
func encodeInt(t *testing.T, v int) []byte {
	t.Helper()
	data, err := codec.Default().EncodeValue(state.IntValue(int64(v)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// window builds the recorded inputs of instance "stage": vals delivered in
// order to stage.in from up.out.
func window(t *testing.T, vals ...int) []replay.Record {
	t.Helper()
	recs := make([]replay.Record, 0, len(vals))
	for i, v := range vals {
		recs = append(recs, replay.Record{
			Seq: uint64(i + 1), QSeq: uint64(i + 1),
			From: "up.out", To: "stage.in",
			Trace: trace.Context{TraceID: 5, SpanID: uint64(100 + i)},
			Data:  encodeInt(t, v),
		})
	}
	return recs
}

func TestRunReplaysWindow(t *testing.T) {
	recs := window(t, 3, 5, 8)
	res, err := Run("stage", recs, Module{Name: "doubler", Body: doubler}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != "" {
		t.Fatalf("termination: %s", res.Err)
	}
	if res.Window != 3 || res.Consumed != 3 {
		t.Errorf("window=%d consumed=%d, want 3/3", res.Window, res.Consumed)
	}
	if len(res.Outputs) != 3 {
		t.Fatalf("outputs = %d, want 3", len(res.Outputs))
	}
	for i, v := range []int{6, 10, 16} {
		want := encodeInt(t, v)
		if res.Outputs[i].Iface != "out" || string(res.Outputs[i].Data) != string(want) {
			t.Errorf("output %d = %+v, want %x on out", i, res.Outputs[i], want)
		}
	}
	// Two runs over the same window are byte-identical — the property the
	// preflight gate's old-vs-candidate comparison rests on.
	res2, err := Run("stage", recs, Module{Name: "doubler", Body: doubler}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if div := replay.DiffOutputs(res.Outputs, res2.Outputs); div != nil {
		t.Errorf("re-run diverged: %v", div)
	}
}

func TestRunDetectsDivergentCandidate(t *testing.T) {
	recs := window(t, 3, 5, 8)
	good, err := Run("stage", recs, Module{Name: "doubler", Body: doubler}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	offByOne := func(rt *mh.Runtime) {
		rt.Init()
		for {
			var n int
			rt.Read("in", &n)
			rt.Write("out", n*2+1)
		}
	}
	bad, err := Run("stage", recs, Module{Name: "offbyone", Body: offByOne}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	div := replay.DiffOutputs(good.Outputs, bad.Outputs)
	if div == nil || div.Index != 0 || div.Kind != "payload" {
		t.Errorf("divergence = %+v, want payload mismatch at 0", div)
	}
}

func TestRunEmptyWindowTerminates(t *testing.T) {
	start := time.Now()
	res, err := Run("stage", nil, Module{Name: "doubler", Body: doubler}, Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != "" || res.Consumed != 0 || len(res.Outputs) != 0 {
		t.Errorf("empty window result = %+v", res)
	}
	// The first blocked read ends the body; no timeout is burned.
	if time.Since(start) > 2*time.Second {
		t.Error("empty window waited for the timeout")
	}
}

func TestRunSleepExitsAtWindowBoundary(t *testing.T) {
	// A module that polls with QueryIfMsgs and sleeps in between must exit
	// at input exhaustion via the virtual port's Done, not hang.
	poller := func(rt *mh.Runtime) {
		rt.Init()
		for {
			if rt.QueryIfMsgs("in") {
				var n int
				rt.Read("in", &n)
				rt.Write("out", n+1)
			} else {
				rt.Sleep(1)
			}
		}
	}
	res, err := Run("stage", window(t, 9), Module{Name: "poller", Body: poller}, Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != "" || res.Consumed != 1 || len(res.Outputs) != 1 {
		t.Errorf("poller result = %+v", res)
	}
}

// TestRunModuleWithSnapshot: a module that registers an abstract-state
// snapshot (a native module, as the self-healing workers are) replays like
// any other; the sandbox takes no checkpoints of it.
func TestRunModuleWithSnapshot(t *testing.T) {
	counter := func(rt *mh.Runtime) {
		rt.Init()
		processed := 0
		rt.RegisterSnapshot(func() (*state.State, error) {
			st := state.New(rt.Name())
			st.PushFrame(state.Frame{Func: "main", Location: 1,
				Vars: []state.Var{{Name: "processed", Value: state.IntValue(int64(processed))}}})
			return st, nil
		})
		for {
			var n int
			rt.Read("in", &n)
			processed++
			rt.Write("out", n)
		}
	}
	res, err := Run("stage", window(t, 1, 2, 3, 4), Module{Name: "counter", Body: counter}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != "" {
		t.Fatalf("termination: %s", res.Err)
	}
	if res.Consumed != 4 || len(res.Outputs) != 4 {
		t.Errorf("consumed %d, %d outputs, want 4 and 4", res.Consumed, len(res.Outputs))
	}
}

func TestRunRejectsBodylessModule(t *testing.T) {
	if _, err := Run("stage", nil, Module{Name: "ghost"}, Options{}); err == nil ||
		!strings.Contains(err.Error(), "no body") {
		t.Errorf("bodyless module: %v", err)
	}
}

func TestRunTimeoutCutsOffStuckBody(t *testing.T) {
	stuck := func(rt *mh.Runtime) {
		rt.Init()
		var n int
		rt.Read("in", &n)
		// Block on something that is not the exhausted input: sleep until
		// the sandbox is cut off (one of two readings is left unread).
		for {
			rt.Sleep(1)
		}
	}
	clk := clock.NewVirtual(time.Unix(1000, 0))
	type result struct {
		res *Result
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := Run("stage", window(t, 1, 2), Module{Name: "stuck", Body: stuck},
			Options{Timeout: 200 * time.Millisecond, Clock: clk.Clock()})
		done <- result{res, err}
	}()
	clk.BlockUntil(1) // the run's timeout is armed
	clk.Advance(200 * time.Millisecond)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !strings.Contains(r.res.Err, "timeout") {
		t.Errorf("stuck body err = %q, want timeout", r.res.Err)
	}
}
