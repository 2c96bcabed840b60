package interp

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/codec"
	"repro/internal/lang"
	"repro/internal/mh"
	"repro/internal/state"
)

func loadProgram(t *testing.T, src string) (*lang.Program, *lang.Info) {
	t.Helper()
	prog, err := lang.ParseFiles(map[string]string{"mod.go": src})
	if err != nil {
		t.Fatal(err)
	}
	info, err := lang.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	return prog, info
}

func pureInterp(t *testing.T, src string) *Interp {
	t.Helper()
	prog, info := loadProgram(t, src)
	return New(prog, info, nil, WithMaxSteps(1_000_000))
}

func callOne(t *testing.T, in *Interp, fn string, args ...any) any {
	t.Helper()
	res, err := in.Call(fn, args...)
	if err != nil {
		t.Fatalf("Call(%s): %v", fn, err)
	}
	if len(res) != 1 {
		t.Fatalf("Call(%s) returned %d values", fn, len(res))
	}
	return res[0]
}

func TestPureFunctions(t *testing.T) {
	in := pureInterp(t, `package p

func main() {}

func fib(n int) int {
	if n < 2 {
		return n
	}
	return fib(n-1) + fib(n-2)
}

func sumTo(n int) int {
	total := 0
	for i := 1; i <= n; i++ {
		total += i
	}
	return total
}

func classify(n int) string {
	switch {
	case n < 0:
		return "neg"
	case n == 0:
		return "zero"
	}
	switch n % 2 {
	case 0:
		return "even"
	default:
		return "odd"
	}
}

func gcd(a int, b int) int {
loop:
	if b == 0 {
		return a
	}
	a, b = b, a%b
	goto loop
}

func join(parts []string, sep string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += sep
		}
		out += p
	}
	return out
}

func divmod(a int, b int) (int, int) {
	return a / b, a % b
}

func useDivmod(a int, b int) int {
	q, r := divmod(a, b)
	return q*1000 + r
}

func swap(p *int, q *int) {
	tmp := *p
	*p = *q
	*q = tmp
}

func swapped(a int, b int) int {
	swap(&a, &b)
	return a*10 + b
}

func nested(n int) int {
	count := 0
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j > i {
				continue outer
			}
			if count > 100 {
				break outer
			}
			count++
		}
	}
	return count
}

func mkslice(n int) int {
	s := make([]int, 0, n)
	for i := 0; i < n; i++ {
		s = append(s, i*i)
	}
	total := 0
	for _, v := range s {
		total += v
	}
	return total + len(s) + cap(s)
}

func floats(x float64) float64 {
	y := x / 4
	return float64(int(y)) + 0.5
}
`)
	tests := []struct {
		fn   string
		args []any
		want any
	}{
		{"fib", []any{10}, 55},
		{"sumTo", []any{100}, 5050},
		{"classify", []any{-3}, "neg"},
		{"classify", []any{0}, "zero"},
		{"classify", []any{4}, "even"},
		{"classify", []any{7}, "odd"},
		{"gcd", []any{48, 36}, 12},
		{"join", []any{[]any{"a", "b", "c"}, "-"}, "a-b-c"},
		{"useDivmod", []any{17, 5}, 3002},
		{"swapped", []any{3, 7}, 73},
		{"nested", []any{5}, 15},
		{"mkslice", []any{4}, 14 + 4 + 4},
		{"floats", []any{10.0}, 2.5},
	}
	for _, tt := range tests {
		got := callOne(t, in, tt.fn, tt.args...)
		if got != tt.want {
			t.Errorf("%s(%v) = %v, want %v", tt.fn, tt.args, got, tt.want)
		}
	}
}

func TestStructSemantics(t *testing.T) {
	in := pureInterp(t, `package p

type Point struct {
	X int
	Y int
}

type Box struct {
	P Point
	N int
}

func main() {}

func valueCopy() int {
	a := Point{X: 1, Y: 2}
	b := a
	b.X = 100
	return a.X*1000 + b.X
}

func fieldPointer() int {
	a := Point{X: 1, Y: 2}
	bump(&a)
	return a.X
}

func bump(p *Point) {
	p.X = p.X + 10
}

func nestedMutate() int {
	b := Box{P: Point{X: 5, Y: 6}, N: 7}
	b.P.X = 50
	return b.P.X + b.N
}

func sliceOfStructs() int {
	var pts []Point
	pts = append(pts, Point{1, 2}, Point{3, 4})
	pts[1].Y = 40
	q := pts[0]
	q.X = 99
	return pts[0].X*100 + pts[1].Y
}

func passByValue(p Point) int {
	p.X = 42
	return p.X
}

func caller() int {
	a := Point{X: 7}
	r := passByValue(a)
	return a.X*100 + r
}
`)
	tests := []struct {
		fn   string
		want int
	}{
		{"valueCopy", 1100},
		{"fieldPointer", 11},
		{"nestedMutate", 57},
		{"sliceOfStructs", 140},
		{"caller", 742},
	}
	for _, tt := range tests {
		if got := callOne(t, in, tt.fn); got != tt.want {
			t.Errorf("%s() = %v, want %d", tt.fn, got, tt.want)
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	in := pureInterp(t, `package p
func main() {}
func div(a int, b int) int { return a / b }
func mod(a int, b int) int { return a % b }
func idx(s []int, i int) int { return s[i] }
func deref() int {
	var p *int
	return *p
}
func spin() int {
	for {
	}
}
func shift(n int) int { return 1 << n }
`)
	cases := []struct {
		fn   string
		args []any
		want string
	}{
		{"div", []any{1, 0}, "division by zero"},
		{"mod", []any{1, 0}, "modulo by zero"},
		{"idx", []any{[]any{1, 2}, 5}, "out of range"},
		{"deref", nil, "nil"},
		{"spin", nil, "step limit"},
		{"shift", []any{200}, "shift count"},
	}
	for _, tt := range cases {
		_, err := in.Call(tt.fn, tt.args...)
		if err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("%s: error = %v, want mention of %q", tt.fn, err, tt.want)
		}
	}
}

func TestMHWithoutRuntime(t *testing.T) {
	in := pureInterp(t, `package p
func main() { mh.Init() }
`)
	_, err := in.Run()
	if err == nil || !strings.Contains(err.Error(), "no runtime") {
		t.Errorf("err = %v", err)
	}
}

// ---- bus-attached module tests ----

// originalComputeSrc is Figure 3 verbatim in the module language.
const originalComputeSrc = `package compute

func main() {
	var n int
	var response float64
	mh.Init()
	for {
		for mh.QueryIfMsgs("display") {
			mh.Read("display", &n)
			compute(n, n, &response)
			mh.Write("display", response)
		}
		if mh.QueryIfMsgs("sensor") {
			compute(1, 1, &response)
		}
		mh.Sleep(2)
	}
}

func compute(num int, n int, rp *float64) {
	var temper int
	if n <= 0 {
		*rp = 0.0
		return
	}
	compute(num, n-1, rp)
	mh.ReconfigPoint("R")
	mh.Read("sensor", &temper)
	*rp = *rp + float64(temper)/float64(num)
}
`

// instrumentedComputeSrc is Figure 4 in the module language: the flattened,
// capture/restore-woven form that internal/transform generates. Kept
// literal here as the executable specification of the transform's output.
const instrumentedComputeSrc = `package compute

func main() {
	var n int
	var response float64
	var mhLoc int
	mh.Init()
	if mh.Status() == "clone" {
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
loop:
	if !mh.QueryIfMsgs("display") {
		goto afterRequests
	}
	mh.Read("display", &n)
L1:
	compute(n, n, &response)
	if mh.CaptureStack() {
		mh.Capture("main", "llF", 1, n, response)
		mh.Encode()
		return
	}
	mh.Write("display", response)
	goto loop
afterRequests:
	if !mh.QueryIfMsgs("sensor") {
		goto idle
	}
L2:
	compute(1, 1, &response)
	if mh.CaptureStack() {
		mh.Capture("main", "llF", 2, n, response)
		mh.Encode()
		return
	}
idle:
	mh.Sleep(1)
	goto loop
}

func compute(num int, n int, rp *float64) {
	var temper int
	var mhLoc int
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
	if n <= 0 {
		*rp = 0.0
		return
	}
L3:
	compute(num, n-1, rp)
	if mh.CaptureStack() {
		mh.Capture("compute", "lllF", 3, num, n, *rp)
		return
	}
	if mh.Reconfig() {
		mh.ClearReconfig()
		mh.SetCaptureStack(true)
		mh.Capture("compute", "lllF", 4, num, n, *rp)
		return
	}
R:
	mh.Read("sensor", &temper)
	*rp = *rp + float64(temper)/float64(num)
}
`

func computeSpec(name, machine, status string) bus.InstanceSpec {
	return bus.InstanceSpec{
		Name: name, Module: "compute", Machine: machine, Status: status,
		Interfaces: []bus.IfaceSpec{
			{Name: "display", Dir: bus.InOut},
			{Name: "sensor", Dir: bus.In},
		},
	}
}

type monitorHarness struct {
	t    *testing.T
	b    *bus.Bus
	disp bus.Port
	sens bus.Port
	c    codec.Codec
}

func newMonitorHarness(t *testing.T) *monitorHarness {
	t.Helper()
	b := bus.New()
	for _, spec := range []bus.InstanceSpec{
		{Name: "display", Module: "display", Machine: "m1",
			Interfaces: []bus.IfaceSpec{{Name: "temper", Dir: bus.InOut}}},
		{Name: "sensor", Module: "sensor", Machine: "m1",
			Interfaces: []bus.IfaceSpec{{Name: "out", Dir: bus.Out}}},
		computeSpec("compute", "machineA", bus.StatusAdd),
	} {
		if err := b.AddInstance(spec); err != nil {
			t.Fatal(err)
		}
	}
	binds := [][2]bus.Endpoint{
		{{Instance: "display", Interface: "temper"}, {Instance: "compute", Interface: "display"}},
		{{Instance: "sensor", Interface: "out"}, {Instance: "compute", Interface: "sensor"}},
	}
	for _, bd := range binds {
		if err := b.AddBinding(bd[0], bd[1]); err != nil {
			t.Fatal(err)
		}
	}
	disp, err := b.Attach("display")
	if err != nil {
		t.Fatal(err)
	}
	sens, err := b.Attach("sensor")
	if err != nil {
		t.Fatal(err)
	}
	return &monitorHarness{t: t, b: b, disp: disp, sens: sens, c: codec.Default()}
}

func (h *monitorHarness) startModule(src, instance string) (*mh.Runtime, chan runResult) {
	h.t.Helper()
	prog, info := loadProgram(h.t, src)
	port, err := h.b.Attach(instance)
	if err != nil {
		h.t.Fatal(err)
	}
	rt := mh.New(port, mh.WithSleepUnit(time.Microsecond))
	in := New(prog, info, rt)
	done := make(chan runResult, 1)
	go func() {
		term, err := in.Run()
		done <- runResult{term: term, err: err}
	}()
	return rt, done
}

type runResult struct {
	term *mh.Termination
	err  error
}

func (h *monitorHarness) sendInt(p bus.Port, iface string, v int) {
	h.t.Helper()
	data, err := h.c.EncodeValue(state.IntValue(int64(v)))
	if err != nil {
		h.t.Fatal(err)
	}
	if err := p.Write(iface, data); err != nil {
		h.t.Fatal(err)
	}
}

// requestTaken sends a request for the average of n readings and returns
// once inst has read it. Figure 3's compute drains a sensor reading whenever
// it polls and finds no request pending, so a reading written straight
// after the request can be the one drained, and the request then waits for
// good: feed the sensor only after this returns.
func (h *monitorHarness) requestTaken(inst string, n int) {
	h.t.Helper()
	h.sendInt(h.disp, "temper", n)
	h.waitInfo(inst, "consumed the request", func(info bus.InstanceInfo) bool { return info.Pending["display"] == 0 })
}

// waitInfo polls inst's bus view until cond holds, failing the test after
// 10s: how these tests wait for a module to reach a state (a request taken,
// a read parked) rather than guessing how long it takes.
func (h *monitorHarness) waitInfo(inst, what string, cond func(bus.InstanceInfo) bool) {
	h.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		info, err := h.b.Info(inst)
		if err != nil {
			h.t.Fatal(err)
		}
		if cond(info) {
			return
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("%s never %s", inst, what)
		}
	}
}

// descended returns once inst has recursed to its innermost level and is
// blocked reading the empty sensor queue there.
func (h *monitorHarness) descended(inst string) {
	h.t.Helper()
	h.waitInfo(inst, "descended to the innermost read", func(info bus.InstanceInfo) bool {
		return info.Parked["sensor"] && info.Pending["sensor"] == 0
	})
}

// readWithin is p.Read(iface) that gives up after d: a lost message fails
// the test instead of hanging it.
func readWithin(p bus.Port, iface string, d time.Duration) (bus.Message, error) {
	type read struct {
		m   bus.Message
		err error
	}
	ch := make(chan read, 1)
	go func() {
		m, err := p.Read(iface)
		ch <- read{m, err}
	}()
	select {
	case r := <-ch:
		return r.m, r.err
	case <-time.After(d):
		return bus.Message{}, fmt.Errorf("no message on %s.%s within %v", p.Name(), iface, d)
	}
}

// readFloat reads the next reply on display.temper, failing the test when
// none arrives within 10 s.
func (h *monitorHarness) readFloat() float64 {
	h.t.Helper()
	m, err := readWithin(h.disp, "temper", 10*time.Second)
	if err != nil {
		h.t.Fatal(err)
	}
	v, err := h.c.DecodeValue(m.Data)
	if err != nil {
		h.t.Fatal(err)
	}
	if v.Kind != state.KindFloat {
		h.t.Fatalf("reply kind = %v", v.Kind)
	}
	return v.Float()
}

// TestMonitorComputeRuns (experiment F3): the original Figure 3 module
// serves averaging requests through the interpreter.
func TestMonitorComputeRuns(t *testing.T) {
	h := newMonitorHarness(t)
	_, done := h.startModule(originalComputeSrc, "compute")

	h.requestTaken("compute", 3)
	h.sendInt(h.sens, "out", 60)
	h.sendInt(h.sens, "out", 70)
	h.sendInt(h.sens, "out", 80)
	want := 60.0/3 + 70.0/3 + 80.0/3
	if got := h.readFloat(); got != want {
		t.Errorf("average = %g, want %g", got, want)
	}

	// An untransformed module ignores reconfiguration signals (module-
	// level atomicity: it cannot participate).
	if err := h.b.SignalReconfig("compute"); err != nil {
		t.Fatal(err)
	}
	h.requestTaken("compute", 1)
	h.sendInt(h.sens, "out", 50)
	if got := h.readFloat(); got != 50 {
		t.Errorf("post-signal average = %g, want 50", got)
	}

	if err := h.b.DeleteInstance("compute"); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-done:
		if res.err != nil {
			t.Errorf("module error: %v", res.err)
		}
		if res.term == nil {
			t.Error("expected termination after delete")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("module did not stop")
	}
}

// TestMoveDuringRecursionInterpreted (experiment E1): the full Section 2
// scenario executed from program text — the instrumented module is moved to
// machineB mid-recursion and the displayed average is exact.
func TestMoveDuringRecursionInterpreted(t *testing.T) {
	h := newMonitorHarness(t)
	rt, done := h.startModule(instrumentedComputeSrc, "compute")

	// Request an average of 3; the module recurses and blocks reading the
	// empty sensor queue at the innermost level.
	h.requestTaken("compute", 3)
	h.descended("compute")
	if err := h.b.SignalReconfig("compute"); err != nil {
		t.Fatal(err)
	}
	h.sendInt(h.sens, "out", 60)

	divulged, err := h.b.AwaitDivulged("compute", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatalf("module failed: %v", res.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("module did not exit after divulging")
	}
	if rt.Err() != nil {
		t.Fatal(rt.Err())
	}

	st, err := h.c.DecodeState(divulged)
	if err != nil {
		t.Fatal(err)
	}
	if st.Depth() != 3 {
		t.Fatalf("captured %d frames, want 3:\n%s", st.Depth(), st)
	}
	if st.Machine != "machineA" {
		t.Errorf("state machine = %s", st.Machine)
	}

	// Clone on machineB; atomic rebind with queue transfer; install; run.
	if err := h.b.AddInstance(computeSpec("compute2", "machineB", bus.StatusClone)); err != nil {
		t.Fatal(err)
	}
	err = h.b.Rebind([]bus.BindEdit{
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
	if err := h.b.InstallState("compute2", divulged); err != nil {
		t.Fatal(err)
	}
	if err := h.b.DeleteInstance("compute"); err != nil {
		t.Fatal(err)
	}

	rt2, done2 := h.startModule(instrumentedComputeSrc, "compute2")
	h.sendInt(h.sens, "out", 70)
	h.sendInt(h.sens, "out", 80)
	want := 60.0/3 + 70.0/3 + 80.0/3
	if got := h.readFloat(); got != want {
		t.Errorf("moved computation = %g, want %g", got, want)
	}

	// The clone serves fresh requests and reacts to a second
	// reconfiguration request (its handler was reinstalled on restore).
	h.requestTaken("compute2", 2)
	h.sendInt(h.sens, "out", 10)
	h.sendInt(h.sens, "out", 30)
	if got := h.readFloat(); got != 20 {
		t.Errorf("fresh request = %g, want 20", got)
	}

	h.requestTaken("compute2", 1)
	if err := h.b.SignalReconfig("compute2"); err != nil {
		t.Fatal(err)
	}
	// The clone captures at its reconfiguration point: at once, if it
	// tests the flag before it blocks on the sensor; otherwise the pending
	// request completes with the next sensor value and the flag is tested
	// the next time the point executes, which the second value triggers
	// via the keep-sensor-clear path.
	h.sendInt(h.sens, "out", 5)
	h.sendInt(h.sens, "out", 99)
	if _, err := h.b.AwaitDivulged("compute2", 5*time.Second); err != nil {
		t.Fatalf("second divulge: %v", err)
	}
	select {
	case res := <-done2:
		if res.err != nil {
			t.Fatalf("clone failed: %v", res.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("clone did not exit after second divulge")
	}
	if rt2.Err() != nil {
		t.Fatal(rt2.Err())
	}
}

// TestInstrumentedIdlePath: a reconfiguration requested while the module is
// idling (no request in flight) captures at reconfiguration point reached
// through the keep-sensor-clear path (edge 2).
func TestInstrumentedIdlePath(t *testing.T) {
	h := newMonitorHarness(t)
	rt, done := h.startModule(instrumentedComputeSrc, "compute")

	// The signal waits in the attachment until the module's Init enables
	// polling, so it may come before the module has started.
	if err := h.b.SignalReconfig("compute"); err != nil {
		t.Fatal(err)
	}
	// The idle loop only reaches R via the sensor-clearing branch, which
	// needs a pending sensor value.
	h.sendInt(h.sens, "out", 42)

	divulged, err := h.b.AwaitDivulged("compute", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	st, err := h.c.DecodeState(divulged)
	if err != nil {
		t.Fatal(err)
	}
	// Stack: main@2 + compute@4 (depth 1 recursion for the single value).
	if st.Depth() != 2 {
		t.Errorf("depth = %d:\n%s", st.Depth(), st)
	}
	if st.Frames[0].Location != 2 {
		t.Errorf("main resumed at %d, want edge 2", st.Frames[0].Location)
	}
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("module did not exit")
	}
	_ = rt
}
