package reconf

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/clock"
	"repro/internal/codec"
	"repro/internal/fixtures"
	"repro/internal/mh"
	"repro/internal/reconfig"
	"repro/internal/state"
	"repro/internal/transform"
)

// loadMonitor loads the Figure 2 application with the Figure 3 compute
// source and test-driven display/sensor endpoints (driven directly so the
// tests control timing).
func loadMonitor(t *testing.T, mode transform.CaptureMode) *App {
	t.Helper()
	app, err := Load(Config{
		SpecText: fixtures.MonitorSpec,
		Sources: map[string]ModuleSource{
			"compute": {Files: map[string]string{"compute.go": fixtures.ComputeSource}},
		},
		Native: map[string]NativeModule{
			// Present but unlaunched: the tests drive these instances.
			"display": func(rt *mh.Runtime) {},
			"sensor":  func(rt *mh.Runtime) {},
		},
		Mode:      mode,
		SleepUnit: time.Microsecond,
		Timeouts:  reconfig.Timeouts{StateMove: 10 * time.Second},
		// A test that starts the roller sees windows close in milliseconds.
		TimeseriesWindow: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

type driver struct {
	t    testing.TB
	c    codec.Codec
	bus  *bus.Bus
	disp bus.Port
	sens bus.Port
}

func newDriver(t testing.TB, app *App) *driver {
	t.Helper()
	disp, err := app.AttachDriver("display")
	if err != nil {
		t.Fatal(err)
	}
	sens, err := app.AttachDriver("sensor")
	if err != nil {
		t.Fatal(err)
	}
	return &driver{t: t, c: codec.Default(), bus: app.Bus(), disp: disp, sens: sens}
}

func (d *driver) request(n int) {
	d.t.Helper()
	data, err := d.c.EncodeValue(state.IntValue(int64(n)))
	if err != nil {
		d.t.Fatal(err)
	}
	if err := d.disp.Write("temper", data); err != nil {
		d.t.Fatal(err)
	}
}

// requestTaken sends a request and returns once inst, the instance serving
// display.temper, has read it. Figure 3's compute drains a sensor reading
// whenever it polls and finds no request pending, so a reading written
// straight after the request can be the one drained, and the request then
// waits for good: feed the sensor only after this returns.
func (d *driver) requestTaken(inst string, n int) {
	d.t.Helper()
	d.request(n)
	waitUntil(d.t, inst+" consumed the request", func() bool {
		info, err := d.bus.Info(inst)
		if err != nil {
			d.t.Fatal(err)
		}
		return info.Pending["display"] == 0
	})
}

// waitUntil polls cond until it holds, failing the test after 10s: the
// one way these tests wait for a state the system reaches on its own.
func waitUntil(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

func (d *driver) temperature(v int) {
	d.t.Helper()
	data, err := d.c.EncodeValue(state.IntValue(int64(v)))
	if err != nil {
		d.t.Fatal(err)
	}
	if err := d.sens.Write("out", data); err != nil {
		d.t.Fatal(err)
	}
}

// response reads the next reply on display.temper, failing the test when
// none arrives within 10 s.
func (d *driver) response() float64 {
	d.t.Helper()
	type read struct {
		m   bus.Message
		err error
	}
	ch := make(chan read, 1)
	go func() {
		m, err := d.disp.Read("temper")
		ch <- read{m, err}
	}()
	var r read
	select {
	case r = <-ch:
	case <-time.After(10 * time.Second):
		d.t.Fatal("no reply on display.temper within 10s")
	}
	m, err := r.m, r.err
	if err != nil {
		d.t.Fatal(err)
	}
	v, err := d.c.DecodeValue(m.Data)
	if err != nil {
		d.t.Fatal(err)
	}
	return v.Float()
}

func TestLoadValidation(t *testing.T) {
	base := Config{
		SpecText: fixtures.MonitorSpec,
		Sources: map[string]ModuleSource{
			"compute": {Files: map[string]string{"compute.go": fixtures.ComputeSource}},
		},
		Native: map[string]NativeModule{
			"display": func(rt *mh.Runtime) {},
			"sensor":  func(rt *mh.Runtime) {},
		},
	}
	if _, err := Load(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}

	bad := base
	bad.SpecText = "module broken {"
	if _, err := Load(bad); err == nil {
		t.Error("broken spec accepted")
	}

	bad = base
	bad.Application = "nope"
	if _, err := Load(bad); err == nil {
		t.Error("unknown application accepted")
	}

	bad = base
	bad.Native = map[string]NativeModule{"display": func(rt *mh.Runtime) {}}
	if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), "sensor") {
		t.Errorf("missing implementation: %v", err)
	}

	bad = base
	bad.Native = map[string]NativeModule{
		"display": func(rt *mh.Runtime) {},
		"sensor":  func(rt *mh.Runtime) {},
		"compute": func(rt *mh.Runtime) {},
	}
	if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), "both source and native") {
		t.Errorf("double implementation: %v", err)
	}

	// A native module may not declare points.
	bad = base
	bad.Sources = nil
	bad.Native["compute"] = func(rt *mh.Runtime) {}
	if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), "native") {
		t.Errorf("native with points: %v", err)
	}
	delete(bad.Native, "compute")

	// Declared point missing from source.
	noPoint := strings.Replace(fixtures.ComputeSource, `mh.ReconfigPoint("R")`, "", 1)
	bad = base
	bad.Sources = map[string]ModuleSource{
		"compute": {Files: map[string]string{"compute.go": noPoint}},
	}
	if _, err := Load(bad); err == nil {
		t.Error("missing point accepted")
	}
}

func TestModulePreparation(t *testing.T) {
	app := loadMonitor(t, 0)
	comp := app.Module("compute")
	if comp == nil || !comp.Instrumented() {
		t.Fatal("compute not instrumented")
	}
	// Spec mode selected automatically: the Figure 2 state list governs.
	if got := comp.Output.Funcs["compute"].Format; got != "liiF" {
		t.Errorf("compute format = %s (spec mode not applied?)", got)
	}
	if app.Module("display").Instrumented() {
		t.Error("display should not be instrumented")
	}
	if app.Module("ghost") != nil {
		t.Error("ghost module found")
	}
}

// TestMonitorTopologyBeforeAfter is experiment F1 at the facade level.
func TestMonitorTopologyBeforeAfter(t *testing.T) {
	app := loadMonitor(t, 0)
	d := newDriver(t, app)
	if err := app.Launch("compute"); err != nil {
		t.Fatal(err)
	}

	before := app.Topology()
	wantBefore := strings.Join([]string{
		"instance compute (module compute) on machineA",
		"instance display (module display) on machineA",
		"instance sensor (module sensor) on machineA",
		"bind display.temper <-> compute.display",
		"bind sensor.out <-> compute.sensor",
	}, "\n")
	if before != wantBefore {
		t.Errorf("before:\n%s\nwant:\n%s", before, wantBefore)
	}

	// Put compute mid-recursion and move it (Figure 1 right).
	d.requestTaken("compute", 3)
	settle := afterSignal(app, "compute", func() { d.temperature(60) })
	if err := app.Move("compute", "compute2", "machineB"); err != nil {
		t.Fatal(err)
	}
	settle()
	if err := app.Wait("compute", 5*time.Second); err != nil {
		t.Fatalf("old instance: %v", err)
	}

	after := app.Topology()
	if !strings.Contains(after, "instance compute2 (module compute) on machineB") {
		t.Errorf("after:\n%s", after)
	}
	if strings.Contains(after, "instance compute (") {
		t.Errorf("old instance still present:\n%s", after)
	}

	// The interrupted computation completes exactly.
	d.temperature(70)
	d.temperature(80)
	want := 60.0/3 + 70.0/3 + 80.0/3
	if got := d.response(); got != want {
		t.Errorf("moved computation = %g, want %g", got, want)
	}

	if len(app.Trace()) == 0 {
		t.Error("no primitive trace recorded")
	}
	if rt := app.Runtime("compute2"); rt == nil {
		t.Error("no runtime for clone")
	}
	app.Stop()
}

// TestFullNativePipeline: sensor and display run as native modules; the
// whole application runs hands-off and a move happens under load. Because
// compute discards sensor values between requests (the keep-the-buffer-
// clear path of Figure 3), exact consumption offsets are timing-dependent;
// the invariants are (a) every response is the average of a contiguous
// window of the sensor ramp — so migration never tore a request — and
// (b) all requests are answered, in order.
func TestFullNativePipeline(t *testing.T) {
	const requests = 4
	results := make(chan fixtures.DisplayRequest, requests)
	app, err := Load(Config{
		SpecText: fixtures.MonitorSpec,
		Sources: map[string]ModuleSource{
			"compute": {Files: map[string]string{"compute.go": fixtures.ComputeSource}},
		},
		Native: map[string]NativeModule{
			// The default ramp 50, 51, 52, ... means the average of any
			// contiguous window of 4 is its start value + 1.5.
			"sensor":  fixtures.Sensor(fixtures.SensorConfig{Interval: 1}),
			"display": fixtures.Display(4, requests, 1, results),
		},
		SleepUnit: 100 * time.Microsecond,
		Timeouts:  reconfig.Timeouts{StateMove: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	defer app.Stop()

	check := func(r fixtures.DisplayRequest, prev float64) float64 {
		t.Helper()
		start := r.Response - 1.5
		if start < 50 || start != float64(int(start)) {
			t.Errorf("response %v is not a contiguous ramp window average", r.Response)
		}
		if r.Response <= prev {
			t.Errorf("response %v not after %v (reordered or duplicated window)", r.Response, prev)
		}
		return r.Response
	}

	var prev float64
	select {
	case r := <-results:
		prev = check(r, prev)
	case <-time.After(10 * time.Second):
		t.Fatal("first response never arrived")
	}
	if err := app.Move("compute", "compute2", "machineB"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < requests; i++ {
		select {
		case r := <-results:
			prev = check(r, prev)
		case <-time.After(10 * time.Second):
			t.Fatalf("response %d never arrived", i)
		}
	}
}

func TestStopIdempotentAndWaitErrors(t *testing.T) {
	app := loadMonitor(t, 0)
	if err := app.Wait("compute", time.Millisecond); err == nil {
		t.Error("wait for unlaunched instance succeeded")
	}
	if err := app.Launch("compute"); err != nil {
		t.Fatal(err)
	}
	if err := app.Launch("compute"); err == nil {
		t.Error("double launch accepted")
	}
	if app.Runtime("ghost") != nil {
		t.Error("runtime for ghost")
	}
	app.Stop()
	app.Stop() // idempotent
	if err := app.Wait("compute", time.Second); err != nil {
		t.Errorf("post-stop wait: %v", err)
	}
}

func TestLaunchUnknownInstance(t *testing.T) {
	app := loadMonitor(t, 0)
	if err := app.Launch("ghost"); err == nil {
		t.Error("launch ghost accepted")
	}
}

func TestCaptureModesThroughFacade(t *testing.T) {
	for _, mode := range []transform.CaptureMode{CaptureAll, CaptureLive, CaptureSpec} {
		app := loadMonitor(t, mode)
		if got := app.Module("compute").Output; got == nil {
			t.Fatalf("mode %v: not instrumented", mode)
		}
	}
}

func TestInterfacesOf(t *testing.T) {
	spec, err := Load(Config{
		SpecText: fixtures.MonitorSpec,
		Sources: map[string]ModuleSource{
			"compute": {Files: map[string]string{"compute.go": fixtures.ComputeSource}},
		},
		Native: map[string]NativeModule{
			"display": func(rt *mh.Runtime) {},
			"sensor":  func(rt *mh.Runtime) {},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ifaces := InterfacesOf(spec.Spec.Module("compute"))
	if len(ifaces) != 2 || ifaces[0].Dir != bus.InOut || ifaces[1].Dir != bus.In {
		t.Errorf("compute interfaces = %+v", ifaces)
	}
	ifaces = InterfacesOf(spec.Spec.Module("sensor"))
	if len(ifaces) != 1 || ifaces[0].Dir != bus.Out {
		t.Errorf("sensor interfaces = %+v", ifaces)
	}
}

// TestConfigClockDrivesTheApp: Config.Clock is the application's one time
// source. The bus's event times, the rollup windows and the transaction
// timelines all read a virtual clock handed in at Load, and move only when
// it does.
func TestConfigClockDrivesTheApp(t *testing.T) {
	start := time.Unix(5000, 0)
	clk := clock.NewVirtual(start)
	app, err := Load(Config{
		SpecText: fixtures.MonitorSpec,
		Sources: map[string]ModuleSource{
			"compute": {Files: map[string]string{"compute.go": fixtures.ComputeSource}},
		},
		Native: map[string]NativeModule{
			"display": func(rt *mh.Runtime) {},
			"sensor":  func(rt *mh.Runtime) {},
		},
		TimeseriesWindow: time.Second,
		Clock:            clk.Clock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Stop)
	for _, r := range app.Events().Since(0) {
		if r.TimeNs != start.UnixNano() {
			t.Fatalf("event %s stamped %d, want the virtual %d", r.Kind, r.TimeNs, start.UnixNano())
		}
	}
	app.Timeseries().Start()
	clk.BlockUntil(1)
	clk.Advance(999 * time.Millisecond)
	if n := app.Timeseries().Rolled(); n != 0 {
		t.Fatalf("rolled %d windows before the first second passed", n)
	}
	clk.Advance(time.Millisecond)
	clk.BlockUntil(1) // the roller rolled and waits for the next window
	if n := app.Timeseries().Rolled(); n != 1 {
		t.Fatalf("rolled %d windows in one virtual second, want 1", n)
	}
	tx := app.Primitives().Tracer().Begin("probe")
	tx.Finish("committed", nil)
	tr, ok := app.Primitives().Tracer().Get(tx.ID())
	if !ok {
		t.Fatalf("no trace %s", tx.ID())
	}
	if !tr.Begin.Equal(start.Add(time.Second)) {
		t.Errorf("transaction began at %v, want the virtual %v", tr.Begin, start.Add(time.Second))
	}
}
