// Pipeline: replay-gated hot swap of a streaming stage under load.
//
// A four-stage streaming pipeline — source -> filter -> worker pool
// (replicas 2) -> sink — processes a numeric stream under credit-based
// backpressure (the sink grants one credit per processed item; the source
// keeps at most `window` items in flight). Every delivered message is
// recorded into the bus's record ring (Config.RecordBuffer), and
// replacements run with the replay gate on (Config.PreflightReplay):
// before a candidate module may commit, its outputs over the old
// instance's recorded input window are compared byte-for-byte against the
// old module's.
//
// The run demonstrates both verdicts while the stream keeps flowing:
//
//  1. filter -> filterV2: a reimplementation computing the same function,
//     so the gate passes and the hot swap commits mid-stream.
//  2. filter2 -> filterBad: an off-by-one "optimization", so the gate
//     vetoes the cutover, the transaction rolls back (the clone is deleted),
//     and the old stage keeps serving — not one message is lost or
//     miscomputed either way.
//
// The record/replay surfaces are exercised over the operator plane
// (Client.Call: the ops behind GET /record, GET /replay/{inst} and
// reconfigctl's `record` and `replay` commands).
//
//	go run ./examples/pipeline
package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/mh"
	"repro/internal/reconfig"
	"repro/internal/state"
)

const spec = `
module source {
  source = "./source" ::
  define interface out pattern = {integer} ::
  use interface credit pattern = {^integer} ::
}

module filter {
  source = "./filter" ::
  use interface in pattern = {^integer} ::
  define interface out pattern = {integer} ::
  reconfiguration point = {R} ::
}

module filterV2 {
  source = "./filterV2" ::
  use interface in pattern = {^integer} ::
  define interface out pattern = {integer} ::
  reconfiguration point = {R} ::
}

module filterBad {
  source = "./filterBad" ::
  use interface in pattern = {^integer} ::
  define interface out pattern = {integer} ::
  reconfiguration point = {R} ::
}

module worker {
  source = "./worker" ::
  use interface in pattern = {^integer} ::
  define interface out pattern = {integer} ::
}

module sink {
  source = "./sink" ::
  use interface in pattern = {^integer} ::
  define interface credit pattern = {integer} ::
}

module pipeline {
  instance source on "machineA"
  instance filter on "machineA"
  instance worker as pool replicas 2 policy roundrobin
  instance sink on "machineB"
  bind "source out" "filter in"
  bind "filter out" "pool in"
  bind "pool out" "sink in"
  bind "sink credit" "source credit"
}
`

// filterSrc maps x to 3x+1. filterV2Src computes the same function a
// different way — the replay gate must find their output sequences
// byte-identical. filterBadSrc drops the +1: a behavioral change the gate
// must catch before cutover.
const filterSrc = `package filter

func main() {
	var x int
	mh.Init()
	for {
		mh.ReconfigPoint("R")
		mh.Read("in", &x)
		mh.Write("out", x*3+1)
	}
}
`

const filterV2Src = `package filterV2

func main() {
	var x int
	mh.Init()
	for {
		mh.ReconfigPoint("R")
		mh.Read("in", &x)
		mh.Write("out", x+x+x+1)
	}
}
`

const filterBadSrc = `package filterBad

func main() {
	var x int
	mh.Init()
	for {
		mh.ReconfigPoint("R")
		mh.Read("in", &x)
		mh.Write("out", x*3)
	}
}
`

const (
	items  = 60 // stream length
	window = 16 // credit window: max items in flight
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pipeline:", err)
		os.Exit(1)
	}
}

func run() error {
	// The sink hands items to this channel unbuffered, so the consumer
	// goroutine below paces the whole pipeline through backpressure: when
	// it stops taking items, credits stop, the source stalls, and the
	// stream freezes with at most `window`+1 items in flight.
	received := make(chan int)

	app, err := reconf.Load(reconf.Config{
		SpecText: spec,
		Sources: map[string]reconf.ModuleSource{
			"filter":    {Files: map[string]string{"filter.go": filterSrc}},
			"filterV2":  {Files: map[string]string{"filter.go": filterV2Src}},
			"filterBad": {Files: map[string]string{"filter.go": filterBadSrc}},
		},
		Native: map[string]reconf.NativeModule{
			// source: emit 1..items, never more than `window` unacknowledged.
			"source": func(rt *mh.Runtime) {
				rt.Init()
				credits := window
				for i := 1; i <= items; i++ {
					if credits == 0 {
						var c int
						rt.Read("credit", &c)
						credits += c
					}
					rt.Write("out", i)
					credits--
				}
			},
			// worker: a pass-through pool stage with a checkpointable
			// processed counter, standing in for a fan-out compute tier.
			"worker": func(rt *mh.Runtime) {
				rt.Init()
				processed := 0
				rt.RegisterSnapshot(func() (*state.State, error) {
					st := state.New(rt.Name())
					st.PushFrame(state.Frame{Func: "main", Location: 1,
						Vars: []state.Var{{Name: "processed", Value: state.IntValue(int64(processed))}}})
					return st, nil
				})
				for {
					if rt.QueryIfMsgs("in") {
						var n int
						rt.Read("in", &n)
						processed++
						rt.Write("out", n)
					} else {
						rt.Sleep(1)
					}
				}
			},
			// sink: acknowledge each item with one credit.
			"sink": func(rt *mh.Runtime) {
				rt.Init()
				for {
					var v int
					rt.Read("in", &v)
					rt.Write("credit", 1)
					received <- v
				}
			},
		},
		SleepUnit:       time.Millisecond,
		Timeouts:        reconfig.Timeouts{StateMove: 10 * time.Second},
		RecordBuffer:    4096,
		PreflightReplay: true,
	})
	if err != nil {
		return err
	}
	if err := app.Start(); err != nil {
		return err
	}
	defer app.Stop()
	fmt.Println("pipeline: source -> filter -> pool (replicas 2) -> sink")
	fmt.Printf("recording: ring capacity %d, preflight replay on, credit window %d\n",
		app.Recorder().Cap(), window)

	// The operator plane (the one curl and reconfigctl would hit on a real
	// deployment).
	ctlL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctl := app.Serve(ctlL)
	defer ctl.Close()
	c := reconf.NewClient(ctl.Addr().String(), 2*time.Second)
	callJSON := func(v any, op string, args ...string) error {
		doc, err := c.Call(op, args...)
		if err != nil {
			return err
		}
		return json.Unmarshal([]byte(doc), v)
	}

	// Collect the stream in three token-gated phases, hot-swapping between
	// them: each grant() releases a batch, so a swap issued right after a
	// grant runs under live traffic, and the stream can never race to
	// completion before the next swap. The pool replicas may reorder
	// items, so correctness is per-value shape plus a final
	// count-and-sum check.
	tokens := make(chan struct{}, items)
	grant := func(n int) {
		for i := 0; i < n; i++ {
			tokens <- struct{}{}
		}
	}
	var got, sum atomic.Int64
	consumed := make(chan error, 1)
	go func() { //archlint:spawn stream consumer; paces the pipeline, joined via `consumed`

		for i := 0; i < items; i++ {
			<-tokens
			v := <-received
			if (v-1)%3 != 0 || v < 4 || v > items*3+1 {
				consumed <- fmt.Errorf("sink received %d, not of the form 3x+1", v)
				return
			}
			sum.Add(int64(v))
			got.Add(1)
			time.Sleep(2 * time.Millisecond)
		}
		consumed <- nil
	}()
	waitFor := func(n int) error {
		deadline := time.Now().Add(15 * time.Second)
		for got.Load() < int64(n) {
			if time.Now().After(deadline) {
				return fmt.Errorf("stream stalled at item %d of %d", got.Load(), n)
			}
			time.Sleep(2 * time.Millisecond)
		}
		return nil
	}

	grant(items / 3)
	if err := waitFor(items / 3); err != nil {
		return err
	}
	var recStatus reconf.RecordStatus
	if err := callJSON(&recStatus, "record"); err != nil {
		return err
	}
	fmt.Printf("\nfirst %d items flowed; GET /record: enabled=%v recorded=%d queues=%d\n",
		got.Load(), recStatus.Enabled, recStatus.Recorded, len(recStatus.Queues))

	// Replay the filter's recorded window — the same reproduction
	// check `reconfigctl replay filter` runs. (The check targets the
	// original filter: its whole life is recorded, whereas a swapped-in
	// instance inherits its predecessor's queue backlog through unrecorded
	// queue transfers.)
	// The stream runs a credit window ahead of the sink, so the ring may be
	// snapshotted with a filter output still in flight to the pool — recorded
	// only when consumed. That is not a divergence: let it land and re-check.
	var rep reconf.ReplayReport
	for settle := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		rep = reconf.ReplayReport{}
		if err := callJSON(&rep, "replay", "filter"); err != nil {
			return err
		}
		if rep.Match || time.Now().After(settle) {
			break
		}
	}
	if !rep.Match {
		return fmt.Errorf("replay of filter diverged: %+v", rep)
	}
	fmt.Printf("replay reproduced the recorded window for filter (%d inputs, %d outputs)\n",
		rep.Window, rep.Replayed)

	// Swap 1: behavior-identical reimplementation. The gate replays the
	// filter's recorded inputs against both modules and finds the output
	// sequences byte-identical, so the cutover commits under load.
	fmt.Println("\n== hot swap: filter -> filterV2 (replay gate on) ==")
	grant(items / 3) // keep traffic flowing through the swap
	start := time.Now()
	if err := app.Update("filter", "filter2", "filterV2"); err != nil {
		return err
	}
	fmt.Printf("hot-swapped filter -> filter2 (replay gate passed) in %v\n",
		time.Since(start).Round(time.Millisecond))

	if err := waitFor(2 * items / 3); err != nil {
		return err
	}

	// Swap 2: a divergent candidate. The gate catches the off-by-one on
	// the recorded window and the transaction rolls back before commit —
	// the stream never sees a wrong value.
	fmt.Println("\n== hot swap attempt: filter2 -> filterBad ==")
	grant(items - 2*(items/3)) // the final batch rides through the veto
	res, err := app.ReplaceTx("filter2", reconfig.ReplaceOptions{NewName: "filter3", Module: "filterBad"})
	if err == nil {
		return fmt.Errorf("divergent candidate committed")
	}
	fmt.Printf("replay gate rejected filterBad: %v\n", firstLine(err.Error()))
	if res == nil || !res.RolledBack {
		return fmt.Errorf("no rollback after veto: %+v", res)
	}
	fmt.Println("rolled back before commit; filter2 keeps serving")

	if err := waitFor(items); err != nil {
		return err
	}
	if err := <-consumed; err != nil {
		return err
	}
	wantSum := int64(0)
	for i := 1; i <= items; i++ {
		wantSum += int64(i*3 + 1)
	}
	if sum.Load() != wantSum {
		return fmt.Errorf("stream sum = %d, want %d (values corrupted?)", sum.Load(), wantSum)
	}
	fmt.Printf("\nall %d values correct through the hot swap and the vetoed swap\n", items)

	// Control-plane finale: stop recording via the same op `reconfigctl
	// record off` sends.
	if err := callJSON(&recStatus, "record", "off"); err != nil {
		return err
	}
	if recStatus.Enabled {
		return fmt.Errorf("record off did not disable: %+v", recStatus)
	}
	fmt.Println("recording disabled via control plane")
	fmt.Println("\nfinal topology:")
	fmt.Println(app.Topology())
	return nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
