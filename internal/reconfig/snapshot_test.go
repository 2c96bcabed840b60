package reconfig

import (
	"reflect"
	"testing"

	"repro/internal/bus"
)

// TestRebindSnapshotEpochs pins the reconfiguration layer's contract with
// the bus's routing snapshots: every applied batch publishes exactly one
// successor epoch, a rejected batch publishes nothing, and the rebind step's
// inverse batch restores the pre-transaction topology under a *fresh*
// epoch — rollback installs a prior snapshot, it does not rewind the
// version counter.
func TestRebindSnapshotEpochs(t *testing.T) {
	w := newMonitorWorld(t)
	ep := func(inst, iface string) bus.Endpoint { return bus.Endpoint{Instance: inst, Interface: iface} }
	if err := w.b.AddInstance(bus.InstanceSpec{
		Name: "compute2", Module: "compute", Machine: "machineB", Status: bus.StatusClone,
		Interfaces: []bus.IfaceSpec{{Name: "display", Dir: bus.InOut}, {Name: "sensor", Dir: bus.In}},
	}); err != nil {
		t.Fatal(err)
	}

	preBindings := w.b.Bindings()
	preVersion := w.b.Routing().Version()

	// The Figure 5 rebind of a replacement: move both bindings and carry
	// the queued messages over.
	batch := []bus.BindEdit{
		{Op: "del", From: ep("display", "temper"), To: ep("compute", "display")},
		{Op: "add", From: ep("display", "temper"), To: ep("compute2", "display")},
		{Op: "del", From: ep("sensor", "out"), To: ep("compute", "sensor")},
		{Op: "add", From: ep("sensor", "out"), To: ep("compute2", "sensor")},
		{Op: "cq", From: ep("compute", "display"), To: ep("compute2", "display")},
	}
	if err := w.b.Rebind(batch); err != nil {
		t.Fatal(err)
	}
	mid := w.b.Routing().Version()
	if mid != preVersion+1 {
		t.Fatalf("rebind published %d epochs, want exactly 1 (version %d -> %d)", mid-preVersion, preVersion, mid)
	}

	// A batch that fails validation must leave both the topology and the
	// epoch untouched — no phantom snapshot for a rejected transaction.
	bad := []bus.BindEdit{
		{Op: "del", From: ep("display", "temper"), To: ep("compute2", "display")},
		{Op: "add", From: ep("display", "temper"), To: ep("nosuch", "in")},
	}
	if err := w.b.Rebind(bad); err == nil {
		t.Fatal("rebind with unknown target succeeded")
	}
	if v := w.b.Routing().Version(); v != mid {
		t.Fatalf("failed rebind moved the epoch: %d -> %d", mid, v)
	}

	// The abort path: applying the rebind step's inverse batch restores the
	// pre-transaction bindings exactly, on a newer snapshot.
	if err := w.b.Rebind(inverseEdits(batch)); err != nil {
		t.Fatal(err)
	}
	if got := w.b.Bindings(); !reflect.DeepEqual(got, preBindings) {
		t.Fatalf("inverse rebind did not restore bindings:\n got %v\nwant %v", got, preBindings)
	}
	if v := w.b.Routing().Version(); v != mid+1 {
		t.Fatalf("inverse rebind version = %d, want %d", v, mid+1)
	}
}
