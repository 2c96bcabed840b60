package reconfig

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/codec"
	"repro/internal/interp"
	"repro/internal/mh"
	"repro/internal/state"
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
	out, err := transform.PrepareSource("compute.go", computeSrc, transform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := bus.New()
	w := &monitorWorld{t: t, b: b, p: NewPrimitives(b), out: out, c: codec.Default(), done: map[string]chan error{}}
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

// TestMonitorTopologyBeforeAfter + TestReplaceScriptPrimitiveTrace +
// the end-to-end move: experiments F1, F5 and E1 at the script level.
func TestMoveModuleScript(t *testing.T) {
	w := newMonitorWorld(t)
	if err := w.Launch("compute"); err != nil {
		t.Fatal(err)
	}

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

	// Put the module mid-recursion, as in Section 2.
	w.sendInt(w.disp, "temper", 3)
	time.Sleep(50 * time.Millisecond)

	// The script itself signals via ObjStateMove; feed the sensor so the
	// module reaches the reconfiguration point after the signal. Feed it
	// slightly after the script starts.
	go func() {
		time.Sleep(30 * time.Millisecond)
		w.sendInt(w.sens, "out", 60)
	}()
	w.p.ResetTrace()
	if err := Move(w.p, w, "compute", "compute2", "machineB", 10*time.Second); err != nil {
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
	// form: objstate_move is decomposed into signal/await/install so each
	// third can journal its compensation; the queue drops ("rmq", now
	// drain_queue) are deferred past the commit point (await_restored).
	// The display binding is bidirectional; it surfaces under both ifdest
	// and ifsources and is rebound once.
	trace := w.p.Trace()
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
	w := newMonitorWorld(t)
	if err := w.Launch("compute"); err != nil {
		t.Fatal(err)
	}

	// One in-flight request (depth 2) plus two queued requests that the
	// old module will never see.
	w.sendInt(w.disp, "temper", 2)
	time.Sleep(50 * time.Millisecond)
	w.sendInt(w.disp, "temper", 1)
	w.sendInt(w.disp, "temper", 1)

	go func() {
		time.Sleep(30 * time.Millisecond)
		w.sendInt(w.sens, "out", 10)
	}()
	if err := Move(w.p, w, "compute", "compute2", "machineB", 10*time.Second); err != nil {
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
	w := newMonitorWorld(t)
	if err := w.Launch("compute"); err != nil {
		t.Fatal(err)
	}
	w.sendInt(w.disp, "temper", 2)
	time.Sleep(50 * time.Millisecond)
	go func() {
		time.Sleep(30 * time.Millisecond)
		w.sendInt(w.sens, "out", 40)
	}()
	if err := Update(w.p, w, "compute", "computeV2", "compute", 10*time.Second); err != nil {
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
	if err := Replicate(w.p, w, "compute", "computeB", "machineB"); err != nil {
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
	if err := Remove(w.p, "computeB"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.b.Info("computeB"); err == nil {
		t.Error("replica still present after Remove")
	}
}

func TestReplaceValidation(t *testing.T) {
	w := newMonitorWorld(t)
	if err := Replace(w.p, w, "compute", ReplaceOptions{}); err == nil {
		t.Error("missing NewName accepted")
	}
	if err := Replace(w.p, w, "ghost", ReplaceOptions{NewName: "g2"}); err == nil {
		t.Error("unknown instance accepted")
	}
	// Duplicate new name.
	if err := Replace(w.p, w, "compute", ReplaceOptions{NewName: "display", Timeouts: Timeouts{StateMove: time.Second}}); err == nil {
		t.Error("duplicate new name accepted")
	}
}

func TestReplaceTimesOutWithoutParticipation(t *testing.T) {
	// The compute module is registered but never launched: it cannot
	// reach a reconfiguration point, so the state move times out and the
	// script fails (module-level atomicity would be needed instead).
	w := newMonitorWorld(t)
	err := Replace(w.p, w, "compute", ReplaceOptions{NewName: "c2", Timeouts: Timeouts{StateMove: 50 * time.Millisecond}})
	if err == nil || !errors.Is(err, bus.ErrTimeout) {
		t.Errorf("err = %v, want timeout", err)
	}
}

func TestChgObjValidation(t *testing.T) {
	w := newMonitorWorld(t)
	if err := w.p.ChgObj(nil, "compute", "add"); err == nil {
		t.Error("add without launcher accepted")
	}
	if err := w.p.ChgObj(nil, "compute", "frobnicate"); err == nil {
		t.Error("unknown op accepted")
	}
	bad := LauncherFunc(func(string) error { return errors.New("boom") })
	if err := w.p.ChgObj(bad, "compute", "add"); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("launcher failure: %v", err)
	}
}

func TestPrimitiveErrors(t *testing.T) {
	b := bus.New()
	p := NewPrimitives(b)
	if _, err := p.ObjCap("ghost"); err == nil {
		t.Error("obj_cap ghost accepted")
	}
	if _, err := p.StructIfDest(bus.Endpoint{Instance: "ghost", Interface: "x"}); err == nil {
		t.Error("ifdest ghost accepted")
	}
	if _, err := p.StructIfSources(bus.Endpoint{Instance: "ghost", Interface: "x"}); err == nil {
		t.Error("ifsources ghost accepted")
	}
	if err := p.AddObj(bus.InstanceSpec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if err := p.ObjStateMove("ghost", "e", "x", "d", time.Millisecond); err == nil {
		t.Error("state move from ghost accepted")
	}
	batch := p.BindCap()
	p.EditBind(batch, "add", bus.Endpoint{Instance: "a", Interface: "b"}, bus.Endpoint{Instance: "c", Interface: "d"})
	if err := p.Rebind(batch); err == nil {
		t.Error("rebind with unknown endpoints accepted")
	}
	if p.Bus() != b {
		t.Error("Bus() identity")
	}
	if len(p.StructObjNames()) != 0 {
		t.Error("expected no instances")
	}
	if len(p.Trace()) == 0 {
		t.Error("trace empty despite operations")
	}
}
