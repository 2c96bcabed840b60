package transform

import (
	"errors"
	"fmt"
	"go/scanner"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/codec"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/mh"
	"repro/internal/state"
)

// computeSrc is Figure 3 in the module language.
const computeSrc = `package compute

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

func prepare(t *testing.T, src string, opts Options) *Output {
	t.Helper()
	out, err := Prepare(map[string]string{"mod.go": src}, opts)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	return out
}

// TestInstrumentMonitorCompute reproduces experiment F4: the instrumented
// compute module has the Figure 4 structure.
func TestInstrumentMonitorCompute(t *testing.T) {
	out := prepare(t, computeSrc, Options{})
	src, err := out.Source()
	if err != nil {
		t.Fatal(err)
	}

	// Figure 4's structural landmarks, in the generated Go dialect.
	landmarks := []string{
		`if mh.Status() == "clone"`, // clone check in main
		"mh.Decode()",
		`mh.Restore("main", "liF", &mhLoc, &n, &response)`,
		"if mhLoc == 1 {",
		"goto L1",
		"if mhLoc == 2 {",
		"goto L2",
		`mh.Capture("main", "liF", 1, n, response)`,
		`mh.Capture("main", "liF", 2, n, response)`,
		"mh.Encode()", // main's capture blocks divulge
		`mh.Restore("compute", "liiFi", &mhLoc, &num, &n, rp, &temper)`,
		"goto L3",
		"mh.SetRestoring(false)",
		"mh.InstallSignalHandler()",
		"goto R",
		`mh.Capture("compute", "liiFi", 3, num, n, *rp, temper)`,
		"mh.ClearReconfig()",
		"mh.SetCaptureStack(true)",
		`mh.Capture("compute", "liiFi", 4, num, n, *rp, temper)`,
	}
	for _, want := range landmarks {
		if !strings.Contains(src, want) {
			t.Errorf("instrumented source missing %q:\n%s", want, src)
		}
	}
	// The marker is gone; the R label remains.
	if strings.Contains(src, "ReconfigPoint") {
		t.Error("marker call survived instrumentation")
	}
	if !strings.Contains(src, "R:") {
		t.Error("reconfiguration label missing")
	}
	// compute's capture blocks do not encode (only main's do).
	computePart := src[strings.Index(src, "func compute"):]
	if strings.Contains(computePart, "mh.Encode") {
		t.Error("non-main procedure calls mh.Encode")
	}

	// Report: edges 1,2 belong to main; 3,4 to compute — the integers of
	// Figure 4.
	if got := out.Funcs["main"].Edges; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("main edges = %v", got)
	}
	if got := out.Funcs["compute"].Edges; len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("compute edges = %v", got)
	}
	if !strings.Contains(out.ReconfigDOT(), `"compute" -> "reconfig"`) {
		t.Error("reconfiguration DOT missing point edge")
	}
}

// TestCaptureBlockShape reproduces experiment F7: both capture block forms.
func TestCaptureBlockShape(t *testing.T) {
	out := prepare(t, computeSrc, Options{})
	src, _ := out.Source()

	// Call-edge capture block: triggered by CaptureStack, returns after
	// capturing.
	callBlock := "if mh.CaptureStack() {\n\t\tmh.Capture(\"compute\", \"liiFi\", 3, num, n, *rp, temper)\n\t\treturn\n\t}"
	if !strings.Contains(src, callBlock) {
		t.Errorf("call-edge capture block malformed; want\n%s\nin\n%s", callBlock, src)
	}
	// Reconfiguration-edge capture block: triggered by Reconfig, clears
	// it, raises CaptureStack, captures, returns.
	reconfBlock := "if mh.Reconfig() {\n\t\tmh.ClearReconfig()\n\t\tmh.SetCaptureStack(true)\n\t\tmh.Capture(\"compute\", \"liiFi\", 4, num, n, *rp, temper)\n\t\treturn\n\t}"
	if !strings.Contains(src, reconfBlock) {
		t.Errorf("reconfiguration capture block malformed; want\n%s\nin\n%s", reconfBlock, src)
	}
}

// TestRestoreBlockShape reproduces experiment F8: the restore block with
// per-edge dispatch, including the reconfiguration-edge variant.
func TestRestoreBlockShape(t *testing.T) {
	out := prepare(t, computeSrc, Options{})
	src, _ := out.Source()
	restore := "if mh.Restoring() {\n\t\tmh.Restore(\"compute\", \"liiFi\", &mhLoc, &num, &n, rp, &temper)\n\t\tif mhLoc == 3 {\n\t\t\tgoto L3\n\t\t}\n\t\tif mhLoc == 4 {\n\t\t\tmh.SetRestoring(false)\n\t\t\tmh.InstallSignalHandler()\n\t\t\tgoto R\n\t\t}\n\t}"
	if !strings.Contains(src, restore) {
		t.Errorf("restore block malformed; want\n%s\nin\n%s", restore, src)
	}
}

func TestCaptureModes(t *testing.T) {
	// All (default): every local, including the dead temper.
	all := prepare(t, computeSrc, Options{Mode: CaptureAll})
	if got := names(all.Funcs["compute"].Captured); !eq(got, []string{"num", "n", "rp", "temper"}) {
		t.Errorf("all-mode capture = %v", got)
	}

	// Live: n is dead after the recursive call (only used on the entry
	// path), and the mh.Read after R refills temper; in main, the mh.Read
	// at the top of the loop refills n.
	live := prepare(t, computeSrc, Options{Mode: CaptureLive})
	if got := names(live.Funcs["compute"].Captured); !eq(got, []string{"num", "rp"}) {
		t.Errorf("live-mode capture = %v", got)
	}
	if got := names(live.Funcs["main"].Captured); !eq(got, []string{"response"}) {
		t.Errorf("live-mode main capture = %v", got)
	}
	// The data-flow answer agrees with the programmer's: what live mode
	// captures is within Figure 2's list, and is what the report calls live.
	for _, v := range names(live.Funcs["compute"].Captured) {
		if !slices.Contains([]string{"num", "n", "rp"}, v) {
			t.Errorf("live mode captures %s, which Figure 2's state list {num, n, rp} omits", v)
		}
	}
	if got := live.Funcs["compute"].Live; !eq(got, []string{"num", "rp"}) {
		t.Errorf("compute's Live = %v, want [num rp]", got)
	}
	// At R the capture reads num and rp; before the recursive call, n too.
	if got := live.Funcs["compute"].Read; !eq(got, []string{"n", "num", "rp"}) {
		t.Errorf("compute's Read = %v, want [n num rp]", got)
	}

	// Spec: exactly the Figure 2 list for compute (which contains R);
	// main falls back to all locals.
	spec := prepare(t, computeSrc, Options{
		Mode:      CaptureSpec,
		PointVars: map[string][]string{"R": {"num", "n", "rp"}},
	})
	if got := names(spec.Funcs["compute"].Captured); !eq(got, []string{"num", "n", "rp"}) {
		t.Errorf("spec-mode capture = %v", got)
	}
	if spec.Funcs["compute"].Format != "liiF" {
		t.Errorf("spec-mode format = %s", spec.Funcs["compute"].Format)
	}
	// The zero mode is spec mode when the specification lists variables,
	// all-locals when it lists none.
	dflt := prepare(t, computeSrc, Options{PointVars: map[string][]string{"R": {"num", "n", "rp"}}})
	if got := names(dflt.Funcs["compute"].Captured); !eq(got, []string{"num", "n", "rp"}) {
		t.Errorf("zero-mode capture with state lists = %v, want spec mode's", got)
	}
	if ResolveMode(0, nil) != CaptureAll || ResolveMode(CaptureLive, map[string][]string{"R": {"n"}}) != CaptureLive {
		t.Error("ResolveMode: without state lists the zero mode is not CaptureAll, or a set mode was overridden")
	}

	// Spec with an unknown variable errors.
	if _, err := Prepare(map[string]string{"mod.go": computeSrc}, Options{
		Mode:      CaptureSpec,
		PointVars: map[string][]string{"R": {"ghost"}},
	}); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("unknown spec var: %v", err)
	}

	if CaptureAll.String() != "all" || CaptureLive.String() != "live" ||
		CaptureSpec.String() != "spec" || CaptureMode(9).String() != "mode(9)" {
		t.Error("mode names wrong")
	}
}

func names(cvs []CapturedVar) []string {
	out := make([]string, len(cvs))
	for i, cv := range cvs {
		out[i] = cv.Name
	}
	return out
}

func eq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPrepareErrors: every refusal is one scanner.ErrorList entry at the
// source position it names, and its text names the package once.
func TestPrepareErrors(t *testing.T) {
	cases := []struct {
		name, src, at, want string
	}{
		{"no points", `package p
func main() { mh.Init() }`, "mod.go:2:1", "no reconfiguration points"},
		{"unreachable point", `package p
func main() {}
func f() { mh.ReconfigPoint("R") }`, "mod.go:3:12", "unreachable"},
		{"nested instrumented call", `package p
func main() {
	use(f(1))
	mh.Write("out", 0)
}
func f(x int) int {
	mh.ReconfigPoint("R")
	return x
}
func use(x int) {}`, "mod.go:3:6", "must be a whole statement"},
		// A hoisting error cites the file as the user wrote it, not the
		// flattened intermediate text (where the call stood on line 19).
		{"hoist error position", `package p
func main() {
	var a int
	var b int
	for a < 3 {
		a = a + 1
	}
	b = a +
		f(a)
	mh.Write("out", b)
}
func f(x int) int {
	mh.ReconfigPoint("R")
	return x
}`, "mod.go:9:3", "transform: mod.go:9:3: call to instrumented procedure f must be a whole statement"},
		{"pointer local live at edge", `package p
func main() {
	x := 1
	p := &x
	f()
	mh.Write("out", *p)
}
func f() { mh.ReconfigPoint("R") }`, "mod.go:4:2", "pointer-typed local"},
		{"label collision", `package p
func main() { f() }
func f() {
	x := 0
	goto R
R:
	x++
	mh.ReconfigPoint("R")
	mh.Write("out", x)
}`, "mod.go:8:2", "collides"},
		{"bad subset", `package p
func main() { go f() }
func f() { mh.ReconfigPoint("R") }`, "mod.go:2:15", "not in the module subset"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Prepare(map[string]string{"mod.go": tt.src}, Options{})
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error = %v, want mention of %q", err, tt.want)
			}
			var list scanner.ErrorList
			if !errors.As(err, &list) || len(list) != 1 || list[0].Pos.String() != tt.at {
				t.Errorf("error %#v is not one scanner.Error at %s", err, tt.at)
			}
			if want := "transform: " + tt.at + ": "; !strings.HasPrefix(err.Error(), want) || strings.Count(err.Error(), "transform") != 1 {
				t.Errorf("error %q does not read %q once", err, want)
			}
		})
	}
}

func TestDeadPointerLocalOmitted(t *testing.T) {
	// A pointer local that is dead at every edge is silently dropped from
	// the capture set rather than rejected.
	out := prepare(t, `package p
func main() {
	x := 1
	p := &x
	*p = 2
	f()
	mh.Write("out", x)
}
func f() { mh.ReconfigPoint("R") }
`, Options{})
	for _, cv := range out.Funcs["main"].Captured {
		if cv.Name == "p" {
			t.Error("dead pointer local captured")
		}
	}
}

// ---- end-to-end: the transformed module migrates mid-recursion ----

// newBus returns an empty bus the test's cleanup closes.
func newBus(t testing.TB) *bus.Bus {
	b := bus.New()
	t.Cleanup(b.Close)
	return b
}

// runModule runs in on its own goroutine and returns the channel its result
// arrives on. The test's cleanup closes b, which wakes a module still
// blocked on the bus with ErrStopped, and waits for the goroutine to
// return: no module outlives its test to run, and allocate, during the
// next (TestMain fails the package if one does).
func runModule(t testing.TB, b *bus.Bus, in *interp.Interp) chan error {
	done := make(chan error, 1)
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		_, err := in.Run()
		done <- err
	}()
	t.Cleanup(func() {
		b.Close()
		<-exited
	})
	return done
}

type harness struct {
	t    *testing.T
	b    *bus.Bus
	disp bus.Port
	sens bus.Port
	c    codec.Codec
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

func newHarness(t *testing.T) *harness {
	t.Helper()
	b := newBus(t)
	for _, spec := range []bus.InstanceSpec{
		{Name: "display", Interfaces: []bus.IfaceSpec{{Name: "temper", Dir: bus.InOut}}},
		{Name: "sensor", Interfaces: []bus.IfaceSpec{{Name: "out", Dir: bus.Out}}},
		computeSpec("compute", "machineA", bus.StatusAdd),
	} {
		if err := b.AddInstance(spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, bd := range [][2]bus.Endpoint{
		{{Instance: "display", Interface: "temper"}, {Instance: "compute", Interface: "display"}},
		{{Instance: "sensor", Interface: "out"}, {Instance: "compute", Interface: "sensor"}},
	} {
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
	return &harness{t: t, b: b, disp: disp, sens: sens, c: codec.Default()}
}

func (h *harness) start(out *Output, instance string) (*mh.Runtime, chan error) {
	h.t.Helper()
	port, err := h.b.Attach(instance)
	if err != nil {
		h.t.Fatal(err)
	}
	rt := mh.New(port, mh.WithSleepUnit(time.Microsecond))
	return rt, runModule(h.t, h.b, interp.New(out.Prog, out.Info, rt))
}

func (h *harness) sendInt(p bus.Port, iface string, v int) {
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
func (h *harness) requestTaken(inst string, n int) {
	h.t.Helper()
	h.sendInt(h.disp, "temper", n)
	waitInfo(h.t, h.b, inst, "consumed the request", func(info bus.InstanceInfo) bool { return info.Pending["display"] == 0 })
}

// waitInfo polls inst's bus view until cond holds, failing the test after
// 10s: how these tests wait for a module to reach a state (a request taken,
// a read parked) rather than guessing how long it takes.
func waitInfo(t testing.TB, b *bus.Bus, inst, what string, cond func(bus.InstanceInfo) bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		info, err := b.Info(inst)
		if err != nil {
			t.Fatal(err)
		}
		if cond(info) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never %s", inst, what)
		}
	}
}

// waitBlocked returns once inst has taken everything queued on iface and
// its reader is parked waiting for more: the module is blocked mid-call on
// that read.
func waitBlocked(t testing.TB, b *bus.Bus, inst, iface string) {
	t.Helper()
	waitInfo(t, b, inst, "blocked reading "+iface, func(info bus.InstanceInfo) bool {
		return info.Parked[iface] && info.Pending[iface] == 0
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
func (h *harness) readFloat() float64 {
	h.t.Helper()
	m, err := readWithin(h.disp, "temper", 10*time.Second)
	if err != nil {
		h.t.Fatal(err)
	}
	v, err := h.c.DecodeValue(m.Data)
	if err != nil {
		h.t.Fatal(err)
	}
	return v.Float()
}

func (h *harness) migrate(divulged []byte) {
	h.t.Helper()
	if err := h.b.AddInstance(computeSpec("compute2", "machineB", bus.StatusClone)); err != nil {
		h.t.Fatal(err)
	}
	err := h.b.Rebind([]bus.BindEdit{
		{Op: "del", From: bus.Endpoint{Instance: "display", Interface: "temper"}, To: bus.Endpoint{Instance: "compute", Interface: "display"}},
		{Op: "add", From: bus.Endpoint{Instance: "display", Interface: "temper"}, To: bus.Endpoint{Instance: "compute2", Interface: "display"}},
		{Op: "del", From: bus.Endpoint{Instance: "sensor", Interface: "out"}, To: bus.Endpoint{Instance: "compute", Interface: "sensor"}},
		{Op: "add", From: bus.Endpoint{Instance: "sensor", Interface: "out"}, To: bus.Endpoint{Instance: "compute2", Interface: "sensor"}},
		{Op: "cq", From: bus.Endpoint{Instance: "compute", Interface: "display"}, To: bus.Endpoint{Instance: "compute2", Interface: "display"}},
		{Op: "cq", From: bus.Endpoint{Instance: "compute", Interface: "sensor"}, To: bus.Endpoint{Instance: "compute2", Interface: "sensor"}},
	})
	if err != nil {
		h.t.Fatal(err)
	}
	if err := h.b.InstallState("compute2", divulged); err != nil {
		h.t.Fatal(err)
	}
	if err := h.b.DeleteInstance("compute"); err != nil {
		h.t.Fatal(err)
	}
}

func testMigration(t *testing.T, opts Options) {
	out := prepare(t, computeSrc, opts)
	h := newHarness(t)
	rt, done := h.start(out, "compute")

	h.requestTaken("compute", 3)
	waitBlocked(t, h.b, "compute", "sensor") // the descent to the innermost read
	if err := h.b.SignalReconfig("compute"); err != nil {
		t.Fatal(err)
	}
	h.sendInt(h.sens, "out", 60)

	divulged, err := h.b.AwaitDivulged("compute", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("module failed: %v", err)
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

	h.migrate(divulged)
	rt2, done2 := h.start(out, "compute2")
	h.sendInt(h.sens, "out", 70)
	h.sendInt(h.sens, "out", 80)
	want := 60.0/3 + 70.0/3 + 80.0/3
	if got := h.readFloat(); got != want {
		t.Errorf("moved computation = %g, want %g", got, want)
	}

	// Still serving.
	h.requestTaken("compute2", 2)
	h.sendInt(h.sens, "out", 10)
	h.sendInt(h.sens, "out", 30)
	if got := h.readFloat(); got != 20 {
		t.Errorf("fresh request = %g, want 20", got)
	}

	if err := h.b.DeleteInstance("compute2"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done2:
	case <-time.After(5 * time.Second):
		t.Fatal("clone did not stop")
	}
	_ = rt2
}

// TestMoveDuringRecursionTransformed (experiment E1, automatic pipeline):
// the module prepared by the transform — not hand-instrumented — migrates
// mid-recursion with an exact answer, under each capture mode.
func TestMoveDuringRecursionTransformed(t *testing.T) {
	t.Run("all", func(t *testing.T) { testMigration(t, Options{Mode: CaptureAll}) })
	t.Run("live", func(t *testing.T) { testMigration(t, Options{Mode: CaptureLive}) })
	t.Run("spec", func(t *testing.T) {
		testMigration(t, Options{
			Mode:      CaptureSpec,
			PointVars: map[string][]string{"R": {"num", "n", "rp"}},
		})
	})
}

// TestTransformedBehaviorUnchanged: with no reconfiguration request, the
// instrumented module computes exactly what the original computes.
func TestTransformedBehaviorUnchanged(t *testing.T) {
	out := prepare(t, computeSrc, Options{})
	h := newHarness(t)
	_, done := h.start(out, "compute")
	h.requestTaken("compute", 4)
	for _, v := range []int{10, 20, 30, 40} {
		h.sendInt(h.sens, "out", v)
	}
	want := 10.0/4 + 20.0/4 + 30.0/4 + 40.0/4
	if got := h.readFloat(); got != want {
		t.Errorf("average = %g, want %g", got, want)
	}
	if err := h.b.DeleteInstance("compute"); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestHoistedArgumentsMigration: a call whose argument expression could
// fault on re-evaluation (division by a variable) is hoisted into a
// captured temporary; migration across that call is exact.
func TestHoistedArgumentsMigration(t *testing.T) {
	src := `package worker

func main() {
	var total int
	var count int
	mh.Init()
	for {
		if mh.QueryIfMsgs("job") {
			mh.Read("job", &total, &count)
			r := step(total / count)
			count = 0
			mh.Write("job", r)
		}
		mh.Sleep(1)
	}
}

func step(avg int) int {
	var adjust int
	mh.ReconfigPoint("P")
	mh.Read("adjust", &adjust)
	return avg + adjust
}
`
	out := prepare(t, src, Options{})
	gen, _ := out.Source()
	if !strings.Contains(gen, "mhArg1 = total / count") {
		t.Errorf("unsafe argument not hoisted:\n%s", gen)
	}

	// Note count is zeroed AFTER the call: re-evaluating total/count
	// during restoration would divide by zero. The hoisted temp makes the
	// re-issued call safe.
	b := newBus(t)
	spec := bus.InstanceSpec{
		Name: "w", Module: "worker",
		Interfaces: []bus.IfaceSpec{
			{Name: "job", Dir: bus.InOut},
			{Name: "adjust", Dir: bus.In},
		},
	}
	if err := b.AddInstance(spec); err != nil {
		t.Fatal(err)
	}
	if err := b.AddInstance(bus.InstanceSpec{
		Name: "driver",
		Interfaces: []bus.IfaceSpec{
			{Name: "jobs", Dir: bus.InOut},
			{Name: "adj", Dir: bus.Out},
		},
	}); err != nil {
		t.Fatal(err)
	}
	for _, bd := range [][2]bus.Endpoint{
		{{Instance: "driver", Interface: "jobs"}, {Instance: "w", Interface: "job"}},
		{{Instance: "driver", Interface: "adj"}, {Instance: "w", Interface: "adjust"}},
	} {
		if err := b.AddBinding(bd[0], bd[1]); err != nil {
			t.Fatal(err)
		}
	}
	driver, err := b.Attach("driver")
	if err != nil {
		t.Fatal(err)
	}
	c := codec.Default()

	port, err := b.Attach("w")
	if err != nil {
		t.Fatal(err)
	}
	rt := mh.New(port, mh.WithSleepUnit(time.Microsecond))
	done := runModule(t, b, interp.New(out.Prog, out.Info, rt))

	// Send the job (total=84, count=2 -> avg 42), let the module block on
	// the adjust read, then reconfigure.
	tuple := state.Value{Kind: state.KindList, List: []state.Value{
		state.IntValue(84), state.IntValue(2),
	}}
	data, err := c.EncodeValue(tuple)
	if err != nil {
		t.Fatal(err)
	}
	if err := driver.Write("jobs", data); err != nil {
		t.Fatal(err)
	}
	waitBlocked(t, b, "w", "adjust")
	if err := b.SignalReconfig("w"); err != nil {
		t.Fatal(err)
	}
	adjData, _ := c.EncodeValue(state.IntValue(1))
	if err := driver.Write("adj", adjData); err != nil {
		t.Fatal(err)
	}
	// The module wakes, applies adjust=1... no: the signal is polled at P
	// only when step executes again. Drive one more job so the point runs.
	// Actually: the read returns, step returns 43, the loop writes it.
	m, err := driver.Read("jobs")
	if err != nil {
		t.Fatal(err)
	}
	v, _ := c.DecodeValue(m.Data)
	if v.Int != 43 {
		t.Fatalf("first job = %v, want 43", v)
	}

	// Second job: the pending reconfig flag is tested at P, capture
	// happens mid-call with count already zeroed.
	tuple.List = []state.Value{state.IntValue(100), state.IntValue(4)}
	data, _ = c.EncodeValue(tuple)
	if err := driver.Write("jobs", data); err != nil {
		t.Fatal(err)
	}
	divulged, err := b.AwaitDivulged("w", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("module failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("module did not exit")
	}

	// Clone, rebind, restore: the re-issued call uses the captured
	// mhArg1 = 25, not total/count = 100/0.
	if err := b.AddInstance(bus.InstanceSpec{
		Name: "w2", Module: "worker", Status: bus.StatusClone,
		Interfaces: spec.Interfaces,
	}); err != nil {
		t.Fatal(err)
	}
	err = b.Rebind([]bus.BindEdit{
		{Op: "del", From: bus.Endpoint{Instance: "driver", Interface: "jobs"}, To: bus.Endpoint{Instance: "w", Interface: "job"}},
		{Op: "add", From: bus.Endpoint{Instance: "driver", Interface: "jobs"}, To: bus.Endpoint{Instance: "w2", Interface: "job"}},
		{Op: "del", From: bus.Endpoint{Instance: "driver", Interface: "adj"}, To: bus.Endpoint{Instance: "w", Interface: "adjust"}},
		{Op: "add", From: bus.Endpoint{Instance: "driver", Interface: "adj"}, To: bus.Endpoint{Instance: "w2", Interface: "adjust"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.InstallState("w2", divulged); err != nil {
		t.Fatal(err)
	}
	if err := b.DeleteInstance("w"); err != nil {
		t.Fatal(err)
	}
	port2, err := b.Attach("w2")
	if err != nil {
		t.Fatal(err)
	}
	rt2 := mh.New(port2, mh.WithSleepUnit(time.Microsecond))
	done2 := runModule(t, b, interp.New(out.Prog, out.Info, rt2))

	if err := driver.Write("adj", adjData); err != nil {
		t.Fatal(err)
	}
	m, err = driver.Read("jobs")
	if err != nil {
		t.Fatal(err)
	}
	v, _ = c.DecodeValue(m.Data)
	if v.Int != 26 { // 100/4 + 1
		t.Errorf("restored job = %v, want 26", v)
	}
	if err := b.DeleteInstance("w2"); err != nil {
		t.Fatal(err)
	}
	<-done2
}

// TestMultiHopCallChain: a reconfiguration point three calls deep; every
// procedure on the chain is instrumented and the stack rebuilds across all
// of them.
func TestMultiHopCallChain(t *testing.T) {
	src := `package chain

func main() {
	var x int
	mh.Init()
	for {
		if mh.QueryIfMsgs("in") {
			mh.Read("in", &x)
			r := a(x)
			mh.Write("in", r)
		}
		mh.Sleep(1)
	}
}

func a(x int) int {
	y := b(x + 1)
	return y * 2
}

func b(x int) int {
	z := c(x * 3)
	return z + 5
}

func c(x int) int {
	var delta int
	mh.ReconfigPoint("R")
	mh.Read("delta", &delta)
	return x + delta
}

func helperNotOnPath(q int) int {
	return q * q
}
`
	out := prepare(t, src, Options{})
	// helperNotOnPath is not instrumented.
	if _, ok := out.Funcs["helperNotOnPath"]; ok {
		t.Error("off-path procedure instrumented")
	}
	for _, fn := range []string{"main", "a", "b", "c"} {
		if _, ok := out.Funcs[fn]; !ok {
			t.Errorf("%s not instrumented", fn)
		}
	}

	b2 := newBus(t)
	spec := bus.InstanceSpec{
		Name: "m", Module: "chain",
		Interfaces: []bus.IfaceSpec{{Name: "in", Dir: bus.InOut}, {Name: "delta", Dir: bus.In}},
	}
	if err := b2.AddInstance(spec); err != nil {
		t.Fatal(err)
	}
	if err := b2.AddInstance(bus.InstanceSpec{
		Name:       "drv",
		Interfaces: []bus.IfaceSpec{{Name: "io", Dir: bus.InOut}, {Name: "d", Dir: bus.Out}},
	}); err != nil {
		t.Fatal(err)
	}
	for _, bd := range [][2]bus.Endpoint{
		{{Instance: "drv", Interface: "io"}, {Instance: "m", Interface: "in"}},
		{{Instance: "drv", Interface: "d"}, {Instance: "m", Interface: "delta"}},
	} {
		if err := b2.AddBinding(bd[0], bd[1]); err != nil {
			t.Fatal(err)
		}
	}
	drv, err := b2.Attach("drv")
	if err != nil {
		t.Fatal(err)
	}
	c := codec.Default()

	port, err := b2.Attach("m")
	if err != nil {
		t.Fatal(err)
	}
	rt := mh.New(port, mh.WithSleepUnit(time.Microsecond))
	runModule(t, b2, interp.New(out.Prog, out.Info, rt))

	// x=7: a(7) -> b(8) -> c(24) blocks on delta.
	data, _ := c.EncodeValue(state.IntValue(7))
	if err := drv.Write("io", data); err != nil {
		t.Fatal(err)
	}
	waitBlocked(t, b2, "m", "delta")
	if err := b2.SignalReconfig("m"); err != nil {
		t.Fatal(err)
	}
	// Unblock c; the NEXT execution of R sees the flag... c runs once per
	// request, so complete this request and send another.
	dd, _ := c.EncodeValue(state.IntValue(100))
	if err := drv.Write("d", dd); err != nil {
		t.Fatal(err)
	}
	m, err := drv.Read("io")
	if err != nil {
		t.Fatal(err)
	}
	v, _ := c.DecodeValue(m.Data)
	if v.Int != ((24+100)+5)*2 {
		t.Fatalf("first answer = %v", v)
	}

	// Second request: captured at R with 4 frames (main, a, b, c).
	data, _ = c.EncodeValue(state.IntValue(2))
	if err := drv.Write("io", data); err != nil {
		t.Fatal(err)
	}
	divulged, err := b2.AwaitDivulged("m", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.DecodeState(divulged)
	if err != nil {
		t.Fatal(err)
	}
	if st.Depth() != 4 {
		t.Fatalf("depth = %d, want 4:\n%s", st.Depth(), st)
	}

	// Restore into a clone and finish: a(2) -> b(3) -> c(9)+delta.
	if err := b2.AddInstance(bus.InstanceSpec{
		Name: "m2", Module: "chain", Status: bus.StatusClone, Interfaces: spec.Interfaces,
	}); err != nil {
		t.Fatal(err)
	}
	err = b2.Rebind([]bus.BindEdit{
		{Op: "del", From: bus.Endpoint{Instance: "drv", Interface: "io"}, To: bus.Endpoint{Instance: "m", Interface: "in"}},
		{Op: "add", From: bus.Endpoint{Instance: "drv", Interface: "io"}, To: bus.Endpoint{Instance: "m2", Interface: "in"}},
		{Op: "del", From: bus.Endpoint{Instance: "drv", Interface: "d"}, To: bus.Endpoint{Instance: "m", Interface: "delta"}},
		{Op: "add", From: bus.Endpoint{Instance: "drv", Interface: "d"}, To: bus.Endpoint{Instance: "m2", Interface: "delta"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.InstallState("m2", divulged); err != nil {
		t.Fatal(err)
	}
	if err := b2.DeleteInstance("m"); err != nil {
		t.Fatal(err)
	}
	port2, err := b2.Attach("m2")
	if err != nil {
		t.Fatal(err)
	}
	rt2 := mh.New(port2, mh.WithSleepUnit(time.Microsecond))
	runModule(t, b2, interp.New(out.Prog, out.Info, rt2))

	if err := drv.Write("d", dd); err != nil {
		t.Fatal(err)
	}
	m, err = drv.Read("io")
	if err != nil {
		t.Fatal(err)
	}
	v, _ = c.DecodeValue(m.Data)
	if v.Int != ((9+100)+5)*2 {
		t.Errorf("restored answer = %v, want %d", v, ((9+100)+5)*2)
	}
	b2.DeleteInstance("m2")
}

// TestStructStateMigration: struct-typed and slice-typed locals cross the
// migration intact.
func TestStructStateMigration(t *testing.T) {
	src := `package stats

type Window struct {
	Count int
	Sum   float64
}

func main() {
	var w Window
	var history []float64
	var x float64
	mh.Init()
	for {
		if mh.QueryIfMsgs("in") {
			mh.Read("in", &x)
			w.Count++
			w.Sum += x
			history = append(history, x)
			process(&w)
			mh.Write("in", w.Sum+float64(len(history)))
		}
		mh.Sleep(1)
	}
}

func process(w *Window) {
	mh.ReconfigPoint("R")
	if w.Count > 100 {
		w.Count = 0
	}
}
`
	out := prepare(t, src, Options{})
	b := newBus(t)
	spec := bus.InstanceSpec{
		Name: "s", Module: "stats",
		Interfaces: []bus.IfaceSpec{{Name: "in", Dir: bus.InOut}},
	}
	if err := b.AddInstance(spec); err != nil {
		t.Fatal(err)
	}
	if err := b.AddInstance(bus.InstanceSpec{
		Name: "drv", Interfaces: []bus.IfaceSpec{{Name: "io", Dir: bus.InOut}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddBinding(bus.Endpoint{Instance: "drv", Interface: "io"}, bus.Endpoint{Instance: "s", Interface: "in"}); err != nil {
		t.Fatal(err)
	}
	drv, err := b.Attach("drv")
	if err != nil {
		t.Fatal(err)
	}
	c := codec.Default()
	send := func(f float64) {
		data, _ := c.EncodeValue(state.FloatValue(f))
		if err := drv.Write("io", data); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() float64 {
		m, err := drv.Read("io")
		if err != nil {
			t.Fatal(err)
		}
		v, _ := c.DecodeValue(m.Data)
		return v.Float()
	}

	port, err := b.Attach("s")
	if err != nil {
		t.Fatal(err)
	}
	rt := mh.New(port, mh.WithSleepUnit(time.Microsecond))
	runModule(t, b, interp.New(out.Prog, out.Info, rt))

	send(1.5)
	if got := recv(); got != 1.5+1 {
		t.Fatalf("first = %g", got)
	}
	send(2.5)
	if got := recv(); got != 4.0+2 {
		t.Fatalf("second = %g", got)
	}

	// Reconfigure: flag tested at R during the next request.
	if err := b.SignalReconfig("s"); err != nil { // queued for the module before it returns
		t.Fatal(err)
	}
	send(3.0)
	divulged, err := b.AwaitDivulged("s", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	if err := b.AddInstance(bus.InstanceSpec{
		Name: "s2", Module: "stats", Status: bus.StatusClone, Interfaces: spec.Interfaces,
	}); err != nil {
		t.Fatal(err)
	}
	err = b.Rebind([]bus.BindEdit{
		{Op: "del", From: bus.Endpoint{Instance: "drv", Interface: "io"}, To: bus.Endpoint{Instance: "s", Interface: "in"}},
		{Op: "add", From: bus.Endpoint{Instance: "drv", Interface: "io"}, To: bus.Endpoint{Instance: "s2", Interface: "in"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.InstallState("s2", divulged); err != nil {
		t.Fatal(err)
	}
	if err := b.DeleteInstance("s"); err != nil {
		t.Fatal(err)
	}
	port2, err := b.Attach("s2")
	if err != nil {
		t.Fatal(err)
	}
	rt2 := mh.New(port2, mh.WithSleepUnit(time.Microsecond))
	runModule(t, b, interp.New(out.Prog, out.Info, rt2))

	// The interrupted request completes on the clone with full state:
	// w = {3, 7.0}, history len 3.
	if got := recv(); got != 7.0+3 {
		t.Errorf("restored = %g, want 10", got)
	}
	// Continuity.
	send(1.0)
	if got := recv(); got != 8.0+4 {
		t.Errorf("continued = %g, want 12", got)
	}
	b.DeleteInstance("s2")
}

// TestOutputIsValidSubset: the instrumented program re-parses, re-checks
// and rebuilds a call graph — i.e. Prepare's output is a module program.
func TestOutputIsValidSubset(t *testing.T) {
	out := prepare(t, computeSrc, Options{})
	if out.Prog == nil || out.Info == nil {
		t.Fatal("no reloaded program")
	}
	src, err := out.Source()
	if err != nil {
		t.Fatal(err)
	}
	prog2, err := lang.ParseFiles(map[string]string{"gen.go": src})
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if _, err := lang.Check(prog2); err != nil {
		t.Fatalf("recheck: %v", err)
	}
	if out.ReportString() == "" {
		t.Error("empty report")
	}
}
