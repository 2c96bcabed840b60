package reconfig

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/codec"
	"repro/internal/interp"
	"repro/internal/mh"
	"repro/internal/state"
	"repro/internal/telemetry/evlog"
	"repro/internal/transform"
)

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

// monitorWorld is the full Figure 1 application with an interpreter-backed
// compute module and a launcher that can start clones of it.
type monitorWorld struct {
	t    *testing.T
	b    *bus.Bus
	p    *Primitives
	out  *transform.Output
	disp bus.Port
	sens bus.Port
	c    codec.Codec
	done map[string]chan error
}

func newMonitorWorld(t *testing.T) *monitorWorld {
	t.Helper()
	out, err := transform.Prepare(map[string]string{"compute.go": computeSrc}, transform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := bus.New()
	w := &monitorWorld{t: t, b: b, p: NewPrimitives(b, evlog.NewLog(0, b.Clock())), out: out, c: codec.Default(), done: map[string]chan error{}}
	for _, spec := range []bus.InstanceSpec{
		{Name: "display", Module: "display", Machine: "machineA",
			Interfaces: []bus.IfaceSpec{{Name: "temper", Dir: bus.InOut}}},
		{Name: "sensor", Module: "sensor", Machine: "machineA",
			Interfaces: []bus.IfaceSpec{{Name: "out", Dir: bus.Out}}},
		{Name: "compute", Module: "compute", Machine: "machineA",
			Interfaces: []bus.IfaceSpec{{Name: "display", Dir: bus.InOut}, {Name: "sensor", Dir: bus.In}}},
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
	if w.disp, err = b.Attach("display"); err != nil {
		t.Fatal(err)
	}
	if w.sens, err = b.Attach("sensor"); err != nil {
		t.Fatal(err)
	}
	return w
}

// Launch implements Launcher by running the instrumented compute module in
// an interpreter goroutine.
func (w *monitorWorld) Launch(instance string) error {
	port, err := w.b.Attach(instance)
	if err != nil {
		return err
	}
	rt := mh.New(port, mh.WithSleepUnit(time.Microsecond))
	in := interp.New(w.out.Prog, w.out.Info, rt)
	done := make(chan error, 1)
	w.done[instance] = done
	go func() {
		_, err := in.Run()
		done <- err
	}()
	return nil
}

func (w *monitorWorld) sendInt(p bus.Port, iface string, v int) {
	w.t.Helper()
	data, err := w.c.EncodeValue(state.IntValue(int64(v)))
	if err != nil {
		w.t.Fatal(err)
	}
	if err := p.Write(iface, data); err != nil {
		w.t.Fatal(err)
	}
}

func (w *monitorWorld) readFloat() float64 {
	w.t.Helper()
	m, err := w.disp.Read("temper")
	if err != nil {
		w.t.Fatal(err)
	}
	v, err := w.c.DecodeValue(m.Data)
	if err != nil {
		w.t.Fatal(err)
	}
	return v.Float()
}

// topology renders the instance/binding view (experiment F1's golden).
func (w *monitorWorld) topology() string {
	var lines []string
	for _, name := range w.b.Instances() {
		info, err := w.b.Info(name)
		if err != nil {
			continue
		}
		lines = append(lines, fmt.Sprintf("instance %s (module %s) on %s", name, info.Module, info.Machine))
	}
	for _, bd := range w.b.Bindings() {
		lines = append(lines, fmt.Sprintf("bind %s <-> %s", bd.A, bd.B))
	}
	return strings.Join(lines, "\n")
}

// startMidRecursion launches compute and has it take an n-reading request,
// so real partial state is in flight when a script begins (Section 2). The
// returned feed delivers one reading once the next script has signalled:
// the module, blocked on the sensor, then reaches its reconfiguration point
// with the flag set.
func startMidRecursion(t *testing.T, n int) (*monitorWorld, func(reading int)) {
	t.Helper()
	w := newMonitorWorld(t)
	if err := w.Launch("compute"); err != nil {
		t.Fatal(err)
	}
	w.sendInt(w.disp, "temper", n)
	waitUntil(t, "compute took the request", func() bool { return w.pending("compute", "display") == 0 })
	return w, func(reading int) {
		// The bus logs a signal before the module can take it.
		log := w.b.Events()
		after := log.Cursor()
		go func() {
			for {
				recs := log.Wait(after, 10*time.Second)
				if recs == nil {
					return
				}
				for _, r := range recs {
					after = r.Seq
					if r.Kind == "signal" && r.Instance == "compute" && r.Detail == "reconfig" {
						// The record precedes the send by a few
						// instructions; blocked, compute cannot take it first.
						for w.pendingSignals() == 0 {
							runtime.Gosched()
						}
						w.sendInt(w.sens, "out", reading)
						return
					}
				}
			}
		}()
	}
}

// waitUntil polls cond until it holds, failing the test after 10s: how
// these tests wait for a state the system reaches on its own.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

func (w *monitorWorld) pendingSignals() int {
	info, err := w.b.Info("compute")
	if err != nil {
		return -1
	}
	return info.Signals
}

func (w *monitorWorld) pending(inst, iface string) int {
	w.t.Helper()
	info, err := w.b.Info(inst)
	if err != nil {
		w.t.Fatal(err)
	}
	return info.Pending[iface]
}

// move is the Section 2 reconfiguration: Replace with only the machine
// changed.
func (w *monitorWorld) move(inst, newName, machine string) (*TxResult, error) {
	return ReplaceTx(w.p, w, inst, ReplaceOptions{NewName: newName, Machine: machine, Timeouts: Timeouts{StateMove: 10 * time.Second}})
}

// TestMonitorTopologyBeforeAfter + TestReplaceScriptPrimitiveTrace +
// the end-to-end move: experiments F1, F5 and E1 at the script level.
func TestMoveModuleScript(t *testing.T) {
	w, feed := startMidRecursion(t, 3)

	before := w.topology()
	wantBefore := strings.Join([]string{
		"instance compute (module compute) on machineA",
		"instance display (module display) on machineA",
		"instance sensor (module sensor) on machineA",
		"bind display.temper <-> compute.display",
		"bind sensor.out <-> compute.sensor",
	}, "\n")
	if before != wantBefore {
		t.Errorf("topology before:\n%s\nwant:\n%s", before, wantBefore)
	}

	feed(60)
	res, err := w.move("compute", "compute2", "machineB")
	if err != nil {
		t.Fatalf("Move: %v", err)
	}

	// The old module exited cleanly.
	select {
	case err := <-w.done["compute"]:
		if err != nil {
			t.Fatalf("old module failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("old module did not exit")
	}

	after := w.topology()
	wantAfter := strings.Join([]string{
		"instance compute2 (module compute) on machineB",
		"instance display (module display) on machineA",
		"instance sensor (module sensor) on machineA",
		"bind compute2.display <-> display.temper",
		"bind sensor.out <-> compute2.sensor",
	}, "\n")
	if after != wantAfter {
		t.Errorf("topology after:\n%s\nwant:\n%s", after, wantAfter)
	}

	// The interrupted computation completes exactly on machineB.
	w.sendInt(w.sens, "out", 70)
	w.sendInt(w.sens, "out", 80)
	want := 60.0/3 + 70.0/3 + 80.0/3
	if got := w.readFloat(); got != want {
		t.Errorf("moved computation = %g, want %g", got, want)
	}

	// Figure 5's primitive sequence (trace golden), in its transactional
	// form: objstate_move is decomposed into signal/await/install so the
	// request has its own inverse; the queue drops ("rmq", now
	// drain_queue) are deferred past the commit point (await_restored).
	// The display binding is bidirectional; it surfaces under both ifdest
	// and ifsources and is rebound once.
	trace := res.Steps
	wantTrace := []string{
		"obj_cap compute",
		"add_obj compute2 (module compute, machine machineB, status clone)",
		"bind_cap",
		"struct_ifdest compute.display -> 1",
		"edit_bind del compute.display display.temper",
		"edit_bind add compute2.display display.temper",
		"struct_ifsources compute.display -> 1",
		"edit_bind cq compute.display compute2.display",
		"struct_ifsources compute.sensor -> 1",
		"edit_bind del sensor.out compute.sensor",
		"edit_bind add sensor.out compute2.sensor",
		"edit_bind cq compute.sensor compute2.sensor",
		"signal_reconfig compute",
		"await_divulged compute",
		"install_state compute2",
		"rebind (6 edits)",
		"chg_obj compute2 add",
		"await_restored compute2",
		"drain_queue compute.display",
		"drain_queue compute.sensor",
		"chg_obj compute del",
	}
	if !reflect.DeepEqual(trace, wantTrace) {
		t.Errorf("primitive trace:\n%s\nwant:\n%s",
			strings.Join(trace, "\n"), strings.Join(wantTrace, "\n"))
	}
}

// TestQueueMoveNoLoss (experiment A3): requests queued at the old instance
// during reconfiguration are served by the replacement.
func TestQueueMoveNoLoss(t *testing.T) {
	// One in-flight request (depth 2) plus two queued requests that the
	// old module will never see.
	w, feed := startMidRecursion(t, 2)
	w.sendInt(w.disp, "temper", 1)
	w.sendInt(w.disp, "temper", 1)

	feed(10)
	if _, err := w.move("compute", "compute2", "machineB"); err != nil {
		t.Fatal(err)
	}

	// Finish the interrupted request, then the two queued ones.
	w.sendInt(w.sens, "out", 30)
	if got := w.readFloat(); got != 10.0/2+30.0/2 {
		t.Errorf("interrupted request = %g", got)
	}
	w.sendInt(w.sens, "out", 50)
	if got := w.readFloat(); got != 50 {
		t.Errorf("queued request 1 = %g", got)
	}
	w.sendInt(w.sens, "out", 70)
	if got := w.readFloat(); got != 70 {
		t.Errorf("queued request 2 = %g", got)
	}
}

// TestUpdateScript: software maintenance — v2 replaces v1 mid-computation
// and inherits its state (experiment for the Update script).
func TestUpdateScript(t *testing.T) {
	w, feed := startMidRecursion(t, 2)
	feed(40)
	if _, err := ReplaceTx(w.p, w, "compute", ReplaceOptions{NewName: "computeV2", Module: "compute"}); err != nil {
		t.Fatal(err)
	}
	info, err := w.b.Info("computeV2")
	if err != nil || info.Module != "compute" {
		t.Fatalf("v2 info = %+v, %v", info, err)
	}
	w.sendInt(w.sens, "out", 60)
	if got := w.readFloat(); got != 40.0/2+60.0/2 {
		t.Errorf("updated module answered %g", got)
	}
}

// TestReplicateScript: a stateless replica joins the application and both
// instances receive fanned-out traffic.
func TestReplicateScript(t *testing.T) {
	w := newMonitorWorld(t)
	if err := w.Launch("compute"); err != nil {
		t.Fatal(err)
	}
	if _, err := Replicate(w.p, w, "compute", "computeB", "machineB"); err != nil {
		t.Fatal(err)
	}
	info, err := w.b.Info("computeB")
	if err != nil || info.Machine != "machineB" || info.Status != bus.StatusAdd {
		t.Fatalf("replica info = %+v, %v", info, err)
	}
	// A display request now reaches both instances (fan-out), so two
	// responses come back for one request.
	w.sendInt(w.disp, "temper", 1)
	w.sendInt(w.sens, "out", 42) // each replica gets a copy? no: sensor fan-out duplicates too
	w.sendInt(w.sens, "out", 42)
	got1 := w.readFloat()
	got2 := w.readFloat()
	if got1 != 42 || got2 != 42 {
		t.Errorf("replicated answers = %g, %g", got1, got2)
	}
	if _, err := Remove(w.p, "computeB"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.b.Info("computeB"); err == nil {
		t.Error("replica still present after Remove")
	}
}

func TestReplaceValidation(t *testing.T) {
	w := newMonitorWorld(t)
	for _, tc := range []struct {
		why, old string
		opts     ReplaceOptions
	}{
		{"missing NewName", "compute", ReplaceOptions{}},
		{"NewName equal to the old name", "compute", ReplaceOptions{NewName: "compute"}},
		{"unknown instance", "ghost", ReplaceOptions{NewName: "g2"}},
		{"duplicate new name", "compute", ReplaceOptions{NewName: "display", Timeouts: Timeouts{StateMove: time.Second}}},
	} {
		if res, err := ReplaceTx(w.p, w, tc.old, tc.opts); err == nil || res.Committed {
			t.Errorf("%s accepted: %+v, %v", tc.why, res, err)
		}
		if _, err := PlanReplace(w.p, tc.old, tc.opts); (err == nil) != (tc.why == "duplicate new name") {
			t.Errorf("plan with %s: %v (only a name the bus would refuse gets past the dry run)", tc.why, err)
		}
	}
}

func TestReplaceTimesOutWithoutParticipation(t *testing.T) {
	// The compute module is registered but never launched: it cannot
	// reach a reconfiguration point, so the state move times out and the
	// script fails (module-level atomicity would be needed instead).
	w := newMonitorWorld(t)
	_, err := ReplaceTx(w.p, w, "compute", ReplaceOptions{NewName: "c2", Timeouts: Timeouts{StateMove: 50 * time.Millisecond}})
	if err == nil || !errors.Is(err, bus.ErrTimeout) {
		t.Errorf("err = %v, want timeout", err)
	}
}

// failingLauncher is a Launcher whose every launch fails.
type failingLauncher struct{}

func (failingLauncher) Launch(string) error { return errors.New("boom") }

// TestChgObjValidation: "chg_obj <name> add" refuses a script that has no
// launcher and reports a launcher's failure, and either way the script rolls
// its registration and bindings back.
func TestChgObjValidation(t *testing.T) {
	w := newMonitorWorld(t)
	before := w.topology()
	for _, tc := range []struct {
		l    Launcher
		want string
	}{{nil, "chg_obj computeB add: no launcher"}, {failingLauncher{}, "chg_obj computeB add: boom"}} {
		res, err := Replicate(w.p, tc.l, "compute", "computeB", "")
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("launcher %v: err = %v, want %q", tc.l, err, tc.want)
		}
		if want := []RollbackStep{{Action: "inverse_rebind"}, {Action: "delete_clone"}}; !reflect.DeepEqual(res.Rollback, want) {
			t.Errorf("launcher %v: rollback = %+v, want %+v", tc.l, res.Rollback, want)
		}
		if after := w.topology(); after != before {
			t.Errorf("launcher %v: topology after the failed script:\n%s\nwant:\n%s", tc.l, after, before)
		}
	}
}

// TestPrimitiveErrors: a primitive that fails names itself in the error,
// whichever script ran it, and nothing it did not do is listed as done.
func TestPrimitiveErrors(t *testing.T) {
	b := bus.New()
	p := NewPrimitives(b, evlog.NewLog(0, b.Clock()))
	for what, run := range map[string]func() (*TxResult, error){
		"obj_cap ghost":   func() (*TxResult, error) { return ReplaceTx(p, nil, "ghost", ReplaceOptions{NewName: "g2"}) },
		"obj_cap phantom": func() (*TxResult, error) { return Replicate(p, nil, "phantom", "p2", "") },
		"obj_cap corpse": func() (*TxResult, error) {
			return ReplaceFromCheckpointTx(p, nil, "g", "corpse", "g.1", []byte{1}, Timeouts{})
		},
		"chg_obj wraith del": func() (*TxResult, error) { return Remove(p, "wraith") },
	} {
		res, err := run()
		if err == nil || !errors.Is(err, bus.ErrNoInstance) || !strings.Contains(err.Error(), "reconfig: "+what+": ") {
			t.Errorf("%s: err = %v, want it to name the primitive and wrap ErrNoInstance", what, err)
		}
		if res == nil || res.Committed || len(res.Steps) != 0 || len(res.Rollback) != 0 || res.TxID == "" {
			t.Errorf("%s: result = %+v, want a traced transaction that did nothing", what, res)
		}
	}
	if trail, _ := p.Tracer().Trail(); len(trail) != 0 {
		t.Errorf("trail after four refused scripts = %v, want empty", trail)
	}
}
