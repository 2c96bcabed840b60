package mh

import (
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// TestRuntimeTelemetry runs the Figure 4 capture/restore round trip with a
// registry attached and checks the published metrics: flag-check counts
// match the in-struct FlagChecks counter, and the capture and restore
// timers recorded exactly one observation each.
func TestRuntimeTelemetry(t *testing.T) {
	b := newMonitorBus(t)
	reg := telemetry.NewRegistry()
	rt := attachRT(t, b, "compute", WithTelemetry(reg))
	if rt.Telemetry() != reg {
		t.Fatal("Telemetry() accessor mismatch")
	}
	mod := &computeModule{mh: rt}

	// Drive one depth-1 request, then a reconfiguration capture: the module
	// unwinds with two frames (main@1, compute@4).
	writeOn(t, b, "display", "temper", 1)
	if err := b.SignalReconfig("compute"); err != nil {
		t.Fatal(err)
	}
	if term := Run(mod.main); term != nil {
		t.Fatalf("module terminated abnormally: %v", term)
	}
	if err := rt.Err(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["mh.compute.flag_checks"]; got != rt.FlagChecks {
		t.Errorf("flag_checks counter = %d, FlagChecks field = %d", got, rt.FlagChecks)
	}
	if got := snap.Counters["mh.compute.flag_checks"]; got == 0 {
		t.Error("flag_checks counter never incremented")
	}
	cap := snap.Histograms["mh.compute.capture_ns"]
	if cap.Count != 1 {
		t.Errorf("capture_ns count = %d, want 1", cap.Count)
	}

	// Restore into a clone with its own registry.
	divulged, err := b.AwaitDivulged("compute", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddInstance(computeSpec("compute2", "m1", bus.StatusClone)); err != nil {
		t.Fatal(err)
	}
	if err := b.InstallState("compute2", divulged); err != nil {
		t.Fatal(err)
	}
	reg2 := telemetry.NewRegistry()
	rt2 := attachRT(t, b, "compute2", WithTelemetry(reg2))
	rt2.Decode()
	var loc, n, num, n2 int
	var response, rp float64
	rt2.Restore("main", "iiF", &loc, &n, &response)
	rt2.Restore("compute", "iiiF", &loc, &num, &n2, &rp)
	rt2.FinishRestore()
	if err := rt2.Err(); err != nil {
		t.Fatal(err)
	}
	res := reg2.Snapshot().Histograms["mh.compute2.restore_ns"]
	if res.Count != 1 {
		t.Errorf("restore_ns count = %d, want 1", res.Count)
	}
	if res.MaxNs <= 0 {
		t.Errorf("restore_ns max = %d, want > 0", res.MaxNs)
	}
}

// TestFlagCheckZeroAlloc asserts the tentpole's fast-path guarantee at the
// mh layer: a reconfiguration-point flag test allocates nothing, with
// telemetry attached or absent.
func TestFlagCheckZeroAlloc(t *testing.T) {
	b := newMonitorBus(t)
	reg := telemetry.NewRegistry()
	rt := attachRT(t, b, "compute", WithTelemetry(reg))
	rt.Init()
	if n := testing.AllocsPerRun(1000, func() {
		rt.Reconfig()
		rt.CaptureStack()
		rt.Restoring()
	}); n != 0 {
		t.Errorf("instrumented flag checks allocate %v/op", n)
	}
}

// writeOn pushes one encoded value from a driver instance's interface.
func writeOn(t *testing.T, b *bus.Bus, inst, iface string, val any) {
	t.Helper()
	port, err := b.Attach(inst)
	if err != nil {
		t.Fatal(err)
	}
	v, err := state.FromGo(val)
	if err != nil {
		t.Fatal(err)
	}
	data, err := New(port).codec.EncodeValue(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := port.Write(iface, data); err != nil {
		t.Fatal(err)
	}
}
