package mh

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/codec"
	"repro/internal/state"
)

// newMonitorBus builds the Figure 1 topology: display and sensor driven by
// the test, compute under test.
func newMonitorBus(t *testing.T) *bus.Bus {
	t.Helper()
	b := bus.New()
	add := func(spec bus.InstanceSpec) {
		t.Helper()
		if err := b.AddInstance(spec); err != nil {
			t.Fatal(err)
		}
	}
	add(bus.InstanceSpec{Name: "display", Module: "display", Machine: "m1",
		Interfaces: []bus.IfaceSpec{{Name: "temper", Dir: bus.InOut}}})
	add(bus.InstanceSpec{Name: "sensor", Module: "sensor", Machine: "m1",
		Interfaces: []bus.IfaceSpec{{Name: "out", Dir: bus.Out}}})
	add(computeSpec("compute", "m1", bus.StatusAdd))
	bind := func(a, c bus.Endpoint) {
		t.Helper()
		if err := b.AddBinding(a, c); err != nil {
			t.Fatal(err)
		}
	}
	bind(bus.Endpoint{Instance: "display", Interface: "temper"}, bus.Endpoint{Instance: "compute", Interface: "display"})
	bind(bus.Endpoint{Instance: "sensor", Interface: "out"}, bus.Endpoint{Instance: "compute", Interface: "sensor"})
	return b
}

func computeSpec(name, machine, status string) bus.InstanceSpec {
	return bus.InstanceSpec{
		Name: name, Module: "compute", Machine: machine, Status: status,
		Interfaces: []bus.IfaceSpec{
			{Name: "display", Dir: bus.InOut},
			{Name: "sensor", Dir: bus.In},
		},
	}
}

func attachRT(t *testing.T, b *bus.Bus, name string, opts ...Option) *Runtime {
	t.Helper()
	port, err := b.Attach(name)
	if err != nil {
		t.Fatal(err)
	}
	return New(port, opts...)
}

// computeModule is the hand-instrumented compute module of Figure 4,
// written in the flattened goto form the source transformation emits. It is
// the executable specification for internal/transform's output.
type computeModule struct{ mh *Runtime }

func (m *computeModule) main() {
	mh := m.mh
	var n int
	var response float64
	var mhLoc int
	mh.Init()
	// ---- begin restore ----
	if mh.Status() == bus.StatusClone {
		mh.Decode()
	}
	if mh.Restoring() {
		mh.Restore("main", "iiF", &mhLoc, &n, &response)
		if mhLoc == 1 {
			goto L1
		}
		if mhLoc == 2 {
			goto L2
		}
	}
	// ---- end restore ----
loop:
	if !mh.QueryIfMsgs("display") {
		goto afterRequests
	}
	mh.Read("display", &n)
L1:
	m.compute(n, n, &response)
	// ---- begin capture (edge 1) ----
	if mh.CaptureStack() {
		mh.Capture("main", "llF", 1, n, response)
		mh.Encode()
		return
	}
	// ---- end capture ----
	mh.Write("display", response)
	goto loop
afterRequests:
	if !mh.QueryIfMsgs("sensor") {
		goto idle
	}
L2:
	m.compute(1, 1, &response)
	// ---- begin capture (edge 2) ----
	if mh.CaptureStack() {
		mh.Capture("main", "llF", 2, n, response)
		mh.Encode()
		return
	}
	// ---- end capture ----
idle:
	mh.Sleep(1)
	goto loop
}

func (m *computeModule) compute(num, n int, rp *float64) {
	mh := m.mh
	var temper int
	var mhLoc int
	// ---- begin restore ----
	if mh.Restoring() {
		mh.Restore("compute", "iiiF", &mhLoc, &num, &n, rp)
		if mhLoc == 3 {
			goto L3
		}
		if mhLoc == 4 {
			mh.SetRestoring(false)
			mh.InstallSignalHandler()
			goto R
		}
	}
	// ---- end restore ----
	if n <= 0 {
		*rp = 0.0
		return
	}
L3:
	m.compute(num, n-1, rp)
	// ---- begin capture (edge 3) ----
	if mh.CaptureStack() {
		mh.Capture("compute", "lllF", 3, num, n, *rp)
		return
	}
	// ---- end capture ----
	// ---- begin capture (reconfiguration edge 4) ----
	if mh.Reconfig() {
		mh.ClearReconfig()
		mh.SetCaptureStack(true)
		mh.Capture("compute", "lllF", 4, num, n, *rp)
		return
	}
	// ---- end capture ----
R:
	mh.Read("sensor", &temper)
	*rp = *rp + float64(temper)/float64(num)
}

// TestMoveDuringRecursion is the paper's Section 2 demonstration at the
// runtime level (experiment E1): the compute module is moved to machineB
// while several recursive activation records are live, and the displayed
// average is identical to an unreconfigured run.
func TestMoveDuringRecursion(t *testing.T) {
	b := newMonitorBus(t)
	rt := attachRT(t, b, "compute", WithSleepUnit(time.Microsecond))
	mod := &computeModule{mh: rt}

	moduleDone := make(chan *Termination, 1)
	go func() { moduleDone <- Run(mod.main) }()

	dispPort, err := b.Attach("display")
	if err != nil {
		t.Fatal(err)
	}
	sensPort, err := b.Attach("sensor")
	if err != nil {
		t.Fatal(err)
	}
	c := codec.Default()
	writeInt := func(p bus.Port, iface string, v int) {
		t.Helper()
		data, err := c.EncodeValue(state.IntValue(int64(v)))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(iface, data); err != nil {
			t.Fatal(err)
		}
	}

	// Request an average of 3 temperatures. compute recurses to depth 3
	// and blocks reading the (empty) sensor queue at the innermost level.
	writeInt(dispPort, "temper", 3)
	time.Sleep(50 * time.Millisecond)
	// Request the reconfiguration while the module is blocked mid-read,
	// then feed one temperature. The innermost level completes its read,
	// and the next level up polls the flag at its reconfiguration point —
	// so the capture happens with two compute frames still live.
	if err := b.SignalReconfig("compute"); err != nil {
		t.Fatal(err)
	}
	writeInt(sensPort, "out", 60)

	// The module unwinds: captures compute@4, compute@3, main@1, encodes,
	// divulges, and its main returns.
	divulged, err := b.AwaitDivulged("compute", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case term := <-moduleDone:
		if term != nil {
			t.Fatalf("module terminated abnormally: %v", term)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("module did not exit after divulging")
	}
	if rt.Err() != nil {
		t.Fatalf("runtime error: %v", rt.Err())
	}

	// Inspect the divulged abstract state.
	st, err := c.DecodeState(divulged)
	if err != nil {
		t.Fatal(err)
	}
	if st.Module != "compute" || st.Machine != "m1" {
		t.Errorf("state origin = %s/%s", st.Module, st.Machine)
	}
	if st.Depth() != 3 {
		t.Fatalf("captured %d frames, want 3 (main + 2 compute)\n%s", st.Depth(), st)
	}
	if st.Frames[0].Func != "main" || st.Frames[0].Location != 1 {
		t.Errorf("bottom frame = %+v", st.Frames[0])
	}
	if st.Frames[1].Func != "compute" || st.Frames[1].Location != 3 {
		t.Errorf("middle frame = %+v", st.Frames[1])
	}
	if st.Frames[2].Func != "compute" || st.Frames[2].Location != 4 {
		t.Errorf("top frame = %+v", st.Frames[2])
	}

	// Create the clone on machineB, rebind, install state, run it.
	if err := b.AddInstance(computeSpec("compute2", "machineB", bus.StatusClone)); err != nil {
		t.Fatal(err)
	}
	err = b.Rebind([]bus.BindEdit{
		{Op: "del", From: bus.Endpoint{Instance: "display", Interface: "temper"}, To: bus.Endpoint{Instance: "compute", Interface: "display"}},
		{Op: "add", From: bus.Endpoint{Instance: "display", Interface: "temper"}, To: bus.Endpoint{Instance: "compute2", Interface: "display"}},
		{Op: "del", From: bus.Endpoint{Instance: "sensor", Interface: "out"}, To: bus.Endpoint{Instance: "compute", Interface: "sensor"}},
		{Op: "add", From: bus.Endpoint{Instance: "sensor", Interface: "out"}, To: bus.Endpoint{Instance: "compute2", Interface: "sensor"}},
		{Op: "cq", From: bus.Endpoint{Instance: "compute", Interface: "display"}, To: bus.Endpoint{Instance: "compute2", Interface: "display"}},
		{Op: "cq", From: bus.Endpoint{Instance: "compute", Interface: "sensor"}, To: bus.Endpoint{Instance: "compute2", Interface: "sensor"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.InstallState("compute2", divulged); err != nil {
		t.Fatal(err)
	}
	if err := b.DeleteInstance("compute"); err != nil {
		t.Fatal(err)
	}

	rt2 := attachRT(t, b, "compute2", WithSleepUnit(time.Microsecond))
	mod2 := &computeModule{mh: rt2}
	clone2Done := make(chan *Termination, 1)
	go func() { clone2Done <- Run(mod2.main) }()

	// Feed the two remaining temperatures; the restored module finishes
	// the computation and replies.
	writeInt(sensPort, "out", 70)
	writeInt(sensPort, "out", 80)

	m, err := dispPort.Read("temper")
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.DecodeValue(m.Data)
	if err != nil {
		t.Fatal(err)
	}
	want := 60.0/3 + 70.0/3 + 80.0/3
	if v.Kind != state.KindFloat || v.Float() != want {
		t.Errorf("moved computation answered %v, want %g", v, want)
	}
	if m.From != (bus.Endpoint{Instance: "compute2", Interface: "display"}) {
		t.Errorf("reply came from %v", m.From)
	}
	if rt2.Err() != nil {
		t.Errorf("clone runtime error: %v", rt2.Err())
	}

	// The clone keeps serving: a fresh request must work end to end.
	writeInt(dispPort, "temper", 2)
	writeInt(sensPort, "out", 10)
	writeInt(sensPort, "out", 20)
	m, err = dispPort.Read("temper")
	if err != nil {
		t.Fatal(err)
	}
	v, err = c.DecodeValue(m.Data)
	if err != nil {
		t.Fatal(err)
	}
	if v.Float() != 15 {
		t.Errorf("post-move request answered %v, want 15", v)
	}

	// Shut the clone down.
	if err := b.DeleteInstance("compute2"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-clone2Done:
	case <-time.After(5 * time.Second):
		t.Fatal("clone did not stop after delete")
	}
}

// TestUnreconfiguredRunMatches computes the same workload with no
// reconfiguration, pinning down the expected answer used above.
func TestUnreconfiguredRunMatches(t *testing.T) {
	b := newMonitorBus(t)
	rt := attachRT(t, b, "compute", WithSleepUnit(time.Microsecond))
	mod := &computeModule{mh: rt}
	go Run(mod.main)

	dispPort, err := b.Attach("display")
	if err != nil {
		t.Fatal(err)
	}
	sensPort, err := b.Attach("sensor")
	if err != nil {
		t.Fatal(err)
	}
	c := codec.Default()
	writeInt := func(p bus.Port, iface string, v int) {
		t.Helper()
		data, _ := c.EncodeValue(state.IntValue(int64(v)))
		if err := p.Write(iface, data); err != nil {
			t.Fatal(err)
		}
	}
	writeInt(dispPort, "temper", 3)
	writeInt(sensPort, "out", 60)
	writeInt(sensPort, "out", 70)
	writeInt(sensPort, "out", 80)
	m, err := dispPort.Read("temper")
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.DecodeValue(m.Data)
	if err != nil {
		t.Fatal(err)
	}
	want := 60.0/3 + 70.0/3 + 80.0/3
	if v.Float() != want {
		t.Errorf("answer = %v, want %g", v, want)
	}
	if err := b.DeleteInstance("compute"); err != nil {
		t.Fatal(err)
	}
}

func TestReadWriteTuples(t *testing.T) {
	b := bus.New()
	for _, spec := range []bus.InstanceSpec{
		{Name: "a", Interfaces: []bus.IfaceSpec{{Name: "o", Dir: bus.Out}}},
		{Name: "z", Interfaces: []bus.IfaceSpec{{Name: "i", Dir: bus.In}}},
	} {
		if err := b.AddInstance(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddBinding(bus.Endpoint{Instance: "a", Interface: "o"}, bus.Endpoint{Instance: "z", Interface: "i"}); err != nil {
		t.Fatal(err)
	}
	ra := attachRT(t, b, "a")
	rz := attachRT(t, b, "z")
	ra.Init()
	rz.Init()

	ra.Write("o", 42, 2.5, "hello", true)
	var (
		i  int
		f  float64
		s  string
		ok bool
	)
	rz.Read("i", &i, &f, &s, &ok)
	if err := rz.Err(); err != nil {
		t.Fatal(err)
	}
	if i != 42 || f != 2.5 || s != "hello" || !ok {
		t.Errorf("tuple = %v %v %q %v", i, f, s, ok)
	}

	// Arity mismatch is recorded, not fatal.
	ra.Write("o", 1, 2)
	var only int
	var extra int
	rz.Read("i", &only, &extra, &extra)
	if rz.Err() == nil {
		t.Error("arity mismatch unreported")
	}
}

func TestQueryIfMsgs(t *testing.T) {
	b := newMonitorBus(t)
	rt := attachRT(t, b, "compute")
	rt.Init()
	if rt.QueryIfMsgs("display") {
		t.Error("empty queue reported messages")
	}
	disp, err := b.Attach("display")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := codec.Default().EncodeValue(state.IntValue(1))
	if err := disp.Write("temper", data); err != nil {
		t.Fatal(err)
	}
	if !rt.QueryIfMsgs("display") {
		t.Error("queued message not reported")
	}
	if rt.QueryIfMsgs("nope") {
		t.Error("unknown interface reported messages")
	}
	if rt.Err() == nil {
		t.Error("unknown interface query unreported")
	}
}

func TestSignalSetsFlagOnlyAfterInit(t *testing.T) {
	b := newMonitorBus(t)
	rt := attachRT(t, b, "compute")
	if err := b.SignalReconfig("compute"); err != nil {
		t.Fatal(err)
	}
	// Handler not installed: the flag stays clear.
	if rt.Reconfig() {
		t.Error("reconfig flag set before Init")
	}
	rt.Init()
	if err := b.SignalReconfig("compute"); err != nil {
		t.Fatal(err)
	}
	waitFlag(t, rt)
	rt.ClearReconfig()
	if rt.Reconfig() {
		t.Error("flag survived ClearReconfig")
	}
	if rt.FlagChecks < 3 {
		t.Errorf("FlagChecks = %d", rt.FlagChecks)
	}
}

func waitFlag(t *testing.T, rt *Runtime) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !rt.Reconfig() {
		if time.Now().After(deadline) {
			t.Fatal("reconfig flag never set")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCaptureValidation(t *testing.T) {
	b := newMonitorBus(t)
	rt := attachRT(t, b, "compute")
	rt.Init()

	rt.Capture("f", "l")
	if rt.Err() == nil {
		t.Error("capture without location accepted")
	}

	rt2 := attachRT(t, b, "display")
	rt2.Capture("f", "l", "notint")
	if rt2.Err() == nil {
		t.Error("non-int location accepted")
	}

	b2 := newMonitorBus(t)
	rt3 := attachRT(t, b2, "compute")
	rt3.Capture("f", "lF", 1, 2) // format says float, value is int
	if rt3.Err() == nil {
		t.Error("format mismatch accepted")
	}

	b3 := newMonitorBus(t)
	rt4 := attachRT(t, b3, "compute")
	rt4.Capture("f", "ll", 1, make(chan int))
	if rt4.Err() == nil {
		t.Error("unencodable value accepted")
	}
}

func TestEncodeWithoutCapture(t *testing.T) {
	b := newMonitorBus(t)
	rt := attachRT(t, b, "compute")
	rt.Encode()
	if rt.Err() == nil {
		t.Error("encode with no frames accepted")
	}
}

func TestCaptureEncodeDecodeRestoreCycle(t *testing.T) {
	b := newMonitorBus(t)
	rt := attachRT(t, b, "compute")
	rt.Init()
	rt.SetMeta("reason", "test")

	// Innermost-first capture, as the unwinding blocks do.
	rt.Capture("inner", "lli", 7, 10, 20)
	rt.Capture("main", "ls", 2, "hi")
	if rt.CapturedDepth() != 2 {
		t.Errorf("CapturedDepth = %d", rt.CapturedDepth())
	}
	rt.Encode()
	if err := rt.Err(); err != nil {
		t.Fatal(err)
	}

	divulged, err := b.AwaitDivulged("compute", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	st, err := codec.Default().DecodeState(divulged)
	if err != nil {
		t.Fatal(err)
	}
	if st.Meta["reason"] != "test" {
		t.Errorf("meta = %v", st.Meta)
	}
	if st.Frames[0].Func != "main" {
		t.Error("frames not reversed to stack order")
	}

	// Clone restores.
	if err := b.AddInstance(computeSpec("clone", "m2", bus.StatusClone)); err != nil {
		t.Fatal(err)
	}
	if err := b.InstallState("clone", divulged); err != nil {
		t.Fatal(err)
	}
	crt := attachRT(t, b, "clone")
	crt.Init()
	if crt.Restoring() {
		t.Error("restoring before Decode")
	}
	crt.Decode()
	if !crt.Restoring() {
		t.Fatal("not restoring after Decode")
	}
	if crt.RemainingFrames() != 2 {
		t.Errorf("RemainingFrames = %d", crt.RemainingFrames())
	}

	var loc int
	var s string
	crt.Restore("main", "ls", &loc, &s)
	if err := crt.Err(); err != nil {
		t.Fatal(err)
	}
	if loc != 2 || s != "hi" {
		t.Errorf("main frame = %d %q", loc, s)
	}
	var x, y int
	crt.Restore("inner", "lli", &loc, &x, &y)
	if loc != 7 || x != 10 || y != 20 {
		t.Errorf("inner frame = %d %d %d", loc, x, y)
	}
	crt.FinishRestore()
	if crt.Restoring() {
		t.Error("still restoring after FinishRestore")
	}
	if err := crt.Err(); err != nil {
		t.Fatal(err)
	}
	// Signals are live again after FinishRestore.
	if err := b.SignalReconfig("clone"); err != nil {
		t.Fatal(err)
	}
	waitFlag(t, crt)
}

func asTermination(t *testing.T, fn func()) Termination {
	t.Helper()
	term := Run(fn)
	if term == nil {
		t.Fatal("expected Termination")
	}
	return *term
}

func TestRestoreMismatchesAreFatal(t *testing.T) {
	b := newMonitorBus(t)
	rt := attachRT(t, b, "compute")
	rt.Init()
	rt.Capture("main", "l", 1)
	rt.Encode()
	divulged, err := b.AwaitDivulged("compute", time.Second)
	if err != nil {
		t.Fatal(err)
	}

	mkClone := func(name string) *Runtime {
		t.Helper()
		if err := b.AddInstance(computeSpec(name, "m2", bus.StatusClone)); err != nil {
			t.Fatal(err)
		}
		if err := b.InstallState(name, divulged); err != nil {
			t.Fatal(err)
		}
		crt := attachRT(t, b, name)
		crt.Decode()
		return crt
	}

	var loc int
	crt := mkClone("c1")
	term := asTermination(t, func() { crt.Restore("wrongname", "l", &loc) })
	if !strings.Contains(term.Reason, "frame") {
		t.Errorf("reason = %q", term.Reason)
	}

	crt2 := mkClone("c2")
	asTermination(t, func() { crt2.Restore("main", "li", &loc, &loc) }) // too many ptrs

	crt3 := mkClone("c3")
	asTermination(t, func() { crt3.Restore("main", "l", "notptr") })

	crt4 := mkClone("c4")
	crt4.Restore("main", "l", &loc)
	asTermination(t, func() { crt4.Restore("main", "l", &loc) }) // beyond frames

	crt5 := mkClone("c5")
	asTermination(t, crt5.FinishRestore) // frames left unrestored

	crt6 := mkClone("c6")
	asTermination(t, func() { crt6.Restore("main", "", nil) }) // no location ptr... nil slice
}

func TestDecodeTimeoutIsFatal(t *testing.T) {
	b := newMonitorBus(t)
	rt := attachRT(t, b, "compute", WithStateTimeout(20*time.Millisecond))
	term := asTermination(t, rt.Decode)
	if !strings.Contains(term.Reason, "timed out") {
		t.Errorf("reason = %q", term.Reason)
	}
}

func TestDecodeCorruptStateIsFatal(t *testing.T) {
	b := newMonitorBus(t)
	if err := b.InstallState("compute", []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	rt := attachRT(t, b, "compute")
	asTermination(t, rt.Decode)
}

// TestExitOfRelaunchedOriginalIsNotARestoreFailure: a rollback resets a
// divulged original's instance to relaunch it as a clone of itself, and the
// original's goroutine can reach its exit report only after that. The
// report must not land as the next incarnation's restoration failing.
func TestExitOfRelaunchedOriginalIsNotARestoreFailure(t *testing.T) {
	b := newMonitorBus(t)
	rt := attachRT(t, b, "compute")
	rt.Init()
	if err := b.ResetForRelaunch("compute"); err != nil {
		t.Fatal(err)
	}
	if got := rt.Status(); got != bus.StatusAdd {
		t.Errorf("status of the original after the reset = %q, want %q", got, bus.StatusAdd)
	}
	rt.ConfirmRestoreOutcome(nil)
	if err := b.AwaitRestored("compute", 20*time.Millisecond); !errors.Is(err, bus.ErrTimeout) {
		t.Fatalf("AwaitRestored = %v, want a timeout: nothing has restored yet", err)
	}
}

func TestHeapTravelsWithState(t *testing.T) {
	b := newMonitorBus(t)
	rt := attachRT(t, b, "compute")
	rt.Init()
	window := []int{5, 6, 7}
	if err := rt.Heap().Register("window",
		func() (state.Value, error) { return state.FromGo(window) },
		nil,
	); err != nil {
		t.Fatal(err)
	}
	rt.Capture("main", "l", 1)
	rt.Encode()
	divulged, err := b.AwaitDivulged("compute", time.Second)
	if err != nil {
		t.Fatal(err)
	}

	if err := b.AddInstance(computeSpec("clone", "m2", bus.StatusClone)); err != nil {
		t.Fatal(err)
	}
	if err := b.InstallState("clone", divulged); err != nil {
		t.Fatal(err)
	}
	crt := attachRT(t, b, "clone")
	var restored []int
	if err := crt.Heap().Register("window",
		func() (state.Value, error) { return state.FromGo(restored) },
		func(v state.Value) error { return state.ToGo(v, &restored) },
	); err != nil {
		t.Fatal(err)
	}
	crt.Decode()
	if crt.Err() != nil {
		t.Fatal(crt.Err())
	}
	if len(restored) != 3 || restored[0] != 5 || restored[2] != 7 {
		t.Errorf("restored heap = %v", restored)
	}
}

func TestHeapCaptureFailureIsFatal(t *testing.T) {
	b := newMonitorBus(t)
	rt := attachRT(t, b, "compute")
	if err := rt.Heap().Register("bad",
		func() (state.Value, error) { return state.Value{}, errors.New("boom") },
		nil,
	); err != nil {
		t.Fatal(err)
	}
	rt.Capture("main", "l", 1)
	asTermination(t, rt.Encode)
}

func TestStopSignalTerminates(t *testing.T) {
	b := newMonitorBus(t)
	rt := attachRT(t, b, "compute")
	rt.Init()
	if err := b.Signal("compute", bus.Signal{Kind: bus.SignalStop}); err != nil {
		t.Fatal(err)
	}
	// Give the (asynchronous) signal time to arrive.
	time.Sleep(20 * time.Millisecond)
	asTermination(t, func() {
		for i := 0; i < 1000; i++ {
			rt.Reconfig()
			time.Sleep(time.Millisecond)
		}
	})
}

func TestSleepWakesOnDelete(t *testing.T) {
	b := newMonitorBus(t)
	rt := attachRT(t, b, "compute", WithSleepUnit(time.Hour))
	done := make(chan *Termination, 1)
	go func() { done <- Run(func() { rt.Sleep(1) }) }()
	time.Sleep(20 * time.Millisecond)
	if err := b.DeleteInstance("compute"); err != nil {
		t.Fatal(err)
	}
	select {
	case term := <-done:
		if term == nil {
			t.Error("sleep returned normally after delete")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sleep did not wake on delete")
	}
	if !rt.Stopped() {
		t.Error("Stopped() = false after delete")
	}
}

func TestReadOnDeletedInstanceTerminates(t *testing.T) {
	b := newMonitorBus(t)
	rt := attachRT(t, b, "compute")
	rt.Init()
	done := make(chan *Termination, 1)
	go func() {
		done <- Run(func() {
			var n int
			rt.Read("display", &n)
		})
	}()
	time.Sleep(20 * time.Millisecond)
	if err := b.DeleteInstance("compute"); err != nil {
		t.Fatal(err)
	}
	select {
	case term := <-done:
		if term == nil {
			t.Error("read returned normally after delete")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read did not wake on delete")
	}
}

func TestRunPassesThroughForeignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("foreign panic swallowed")
		}
	}()
	Run(func() { panic("not a termination") })
}

func TestCaptureNamed(t *testing.T) {
	b := newMonitorBus(t)
	rt := attachRT(t, b, "compute")
	rt.CaptureNamed("main", 1, []string{"n", "resp"}, 5, 2.5)
	rt.Encode()
	divulged, err := b.AwaitDivulged("compute", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	st, err := codec.Default().DecodeState(divulged)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := st.Frames[0].Var("resp")
	if !ok || v.Float() != 2.5 {
		t.Errorf("named var = %v %t", v, ok)
	}

	rt2 := attachRT(t, b, "display")
	rt2.CaptureNamed("f", 1, []string{"a"}, 1, 2)
	if rt2.Err() == nil {
		t.Error("name/value arity mismatch accepted")
	}
}

// TestRuntimeCarriesTraceContext pins the runtime half of causal tracing:
// the context of the last message read becomes the causal parent of the
// module's next write, with no module-code involvement — the same
// runtime-does-the-bookkeeping division as the transformation itself.
func TestRuntimeCarriesTraceContext(t *testing.T) {
	b := newMonitorBus(t)
	rt := attachRT(t, b, "compute")
	rt.Init()
	disp, err := b.Attach("display")
	if err != nil {
		t.Fatal(err)
	}

	if rt.TraceContext().Valid() {
		t.Error("runtime carries a context before any read")
	}
	data, _ := codec.Default().EncodeValue(state.IntValue(2))
	if err := disp.Write("temper", data); err != nil {
		t.Fatal(err)
	}
	var n int
	rt.Read("display", &n)
	if err := rt.Err(); err != nil {
		t.Fatal(err)
	}
	parent := rt.TraceContext()
	if !parent.Valid() {
		t.Fatal("read did not capture the message's trace context")
	}

	rt.Write("display", n*2)
	if err := rt.Err(); err != nil {
		t.Fatal(err)
	}
	m, err := disp.Read("temper")
	if err != nil {
		t.Fatal(err)
	}
	if m.Trace.TraceID != parent.TraceID {
		t.Errorf("write opened trace %d instead of continuing %d", m.Trace.TraceID, parent.TraceID)
	}
	if m.Trace.Parent != parent.SpanID || m.Trace.Hops != parent.Hops+1 {
		t.Errorf("write context %+v is not a child of %+v", m.Trace, parent)
	}
}
