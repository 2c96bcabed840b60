package bus

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

func testBus(t *testing.T, opts ...BusOption) *Bus {
	t.Helper()
	b := New(opts...)
	mustAdd := func(spec InstanceSpec) {
		t.Helper()
		if err := b.AddInstance(spec); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(InstanceSpec{
		Name: "display", Module: "display", Machine: "m1",
		Interfaces: []IfaceSpec{{Name: "temper", Dir: InOut}},
	})
	mustAdd(InstanceSpec{
		Name: "compute", Module: "compute", Machine: "m1",
		Interfaces: []IfaceSpec{{Name: "display", Dir: InOut}, {Name: "sensor", Dir: In}},
	})
	mustAdd(InstanceSpec{
		Name: "sensor", Module: "sensor", Machine: "m1",
		Interfaces: []IfaceSpec{{Name: "out", Dir: Out}},
	})
	mustBind := func(a, c Endpoint) {
		t.Helper()
		if err := b.AddBinding(a, c); err != nil {
			t.Fatal(err)
		}
	}
	mustBind(Endpoint{"display", "temper"}, Endpoint{"compute", "display"})
	mustBind(Endpoint{"sensor", "out"}, Endpoint{"compute", "sensor"})
	return b
}

func attach(t *testing.T, b *Bus, name string) *Attachment {
	t.Helper()
	a, err := b.Attach(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestDirectionSemantics(t *testing.T) {
	if !In.Receives() || In.Sends() {
		t.Error("In direction wrong")
	}
	if Out.Receives() || !Out.Sends() {
		t.Error("Out direction wrong")
	}
	if !InOut.Receives() || !InOut.Sends() {
		t.Error("InOut direction wrong")
	}
	names := map[Direction]string{In: "in", Out: "out", InOut: "inout", Direction(9): "direction(9)"}
	for d, want := range names {
		if d.String() != want {
			t.Errorf("%d.String() = %s", int(d), d)
		}
	}
}

func TestAddInstanceValidation(t *testing.T) {
	b := New()
	if err := b.AddInstance(InstanceSpec{}); err == nil {
		t.Error("empty name accepted")
	}
	spec := InstanceSpec{Name: "x", Interfaces: []IfaceSpec{{Name: "a", Dir: In}}}
	if err := b.AddInstance(spec); err != nil {
		t.Fatal(err)
	}
	if err := b.AddInstance(spec); !errors.Is(err, ErrDupInstance) {
		t.Errorf("dup instance: %v", err)
	}
	if err := b.AddInstance(InstanceSpec{Name: "y", Interfaces: []IfaceSpec{{Dir: In}}}); err == nil {
		t.Error("unnamed interface accepted")
	}
	if err := b.AddInstance(InstanceSpec{
		Name:       "z",
		Interfaces: []IfaceSpec{{Name: "a", Dir: In}, {Name: "a", Dir: Out}},
	}); err == nil {
		t.Error("duplicate interface accepted")
	}
	// Default status is "add".
	info, err := b.Info("x")
	if err != nil || info.Status != StatusAdd {
		t.Errorf("Info = %+v, %v", info, err)
	}
}

func TestMessageRouting(t *testing.T) {
	b := testBus(t)
	disp := attach(t, b, "display")
	comp := attach(t, b, "compute")
	sens := attach(t, b, "sensor")

	// display requests a computation; compute receives it on its
	// "display" interface.
	if err := disp.Write("temper", []byte("req:5")); err != nil {
		t.Fatal(err)
	}
	n, err := comp.Pending("display")
	if err != nil || n != 1 {
		t.Fatalf("Pending = %d, %v", n, err)
	}
	m, err := comp.Read("display")
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Data) != "req:5" || m.From != (Endpoint{"display", "temper"}) {
		t.Errorf("message = %+v", m)
	}

	// compute replies on the same binding; display receives.
	if err := comp.Write("display", []byte("resp:68.5")); err != nil {
		t.Fatal(err)
	}
	m, err = disp.Read("temper")
	if err != nil || string(m.Data) != "resp:68.5" {
		t.Fatalf("reply = %+v, %v", m, err)
	}

	// sensor publishes; compute consumes.
	if err := sens.Write("out", []byte("t:70")); err != nil {
		t.Fatal(err)
	}
	m, ok, err := comp.TryRead("sensor")
	if err != nil || !ok || string(m.Data) != "t:70" {
		t.Fatalf("TryRead = %+v, %t, %v", m, ok, err)
	}
	if _, ok, _ := comp.TryRead("sensor"); ok {
		t.Error("TryRead on empty queue returned a message")
	}
}

func TestWriteErrors(t *testing.T) {
	b := testBus(t)
	comp := attach(t, b, "compute")
	sens := attach(t, b, "sensor")

	// compute.sensor is In: cannot write.
	if err := comp.Write("sensor", nil); !errors.Is(err, ErrDirection) {
		t.Errorf("write on In iface: %v", err)
	}
	// sensor.out cannot read.
	if _, err := sens.Read("out"); !errors.Is(err, ErrDirection) {
		t.Errorf("read on Out iface: %v", err)
	}
	if _, _, err := sens.TryRead("out"); !errors.Is(err, ErrDirection) {
		t.Errorf("tryread on Out iface: %v", err)
	}
	if _, err := sens.Pending("out"); !errors.Is(err, ErrDirection) {
		t.Errorf("pending on Out iface: %v", err)
	}
	// Unknown interface.
	if err := comp.Write("nope", nil); !errors.Is(err, ErrNoInterface) {
		t.Errorf("write on unknown iface: %v", err)
	}
	// Unbound write.
	if err := b.AddInstance(InstanceSpec{Name: "lonely", Interfaces: []IfaceSpec{{Name: "o", Dir: Out}}}); err != nil {
		t.Fatal(err)
	}
	lone := attach(t, b, "lonely")
	if err := lone.Write("o", nil); !errors.Is(err, ErrUnbound) {
		t.Errorf("unbound write: %v", err)
	}
	if b.Stats().Dropped != 1 {
		t.Errorf("Dropped = %d", b.Stats().Dropped)
	}
}

func TestBindingValidation(t *testing.T) {
	b := testBus(t)
	// Unknown endpoints.
	if err := b.AddBinding(Endpoint{"ghost", "x"}, Endpoint{"compute", "display"}); !errors.Is(err, ErrNoInstance) {
		t.Errorf("unknown instance: %v", err)
	}
	if err := b.AddBinding(Endpoint{"compute", "ghost"}, Endpoint{"display", "temper"}); !errors.Is(err, ErrNoInterface) {
		t.Errorf("unknown interface: %v", err)
	}
	// In <-> In cannot exchange.
	if err := b.AddInstance(InstanceSpec{Name: "i2", Interfaces: []IfaceSpec{{Name: "in", Dir: In}}}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddBinding(Endpoint{"i2", "in"}, Endpoint{"compute", "sensor"}); !errors.Is(err, ErrDirection) {
		t.Errorf("in<->in: %v", err)
	}
	// Duplicate binding (either orientation).
	if err := b.AddBinding(Endpoint{"compute", "display"}, Endpoint{"display", "temper"}); err == nil {
		t.Error("duplicate binding accepted")
	}
	// Delete nonexistent.
	if err := b.DeleteBinding(Endpoint{"sensor", "out"}, Endpoint{"display", "temper"}); !errors.Is(err, ErrNoBinding) {
		t.Errorf("delete missing binding: %v", err)
	}
	// Delete existing, reversed orientation.
	if err := b.DeleteBinding(Endpoint{"compute", "display"}, Endpoint{"display", "temper"}); err != nil {
		t.Errorf("delete reversed: %v", err)
	}
	if got := len(b.Bindings()); got != 1 {
		t.Errorf("bindings = %d, want 1", got)
	}
}

func TestFanOutDelivery(t *testing.T) {
	// One sender bound to two receivers: both get a copy.
	b := New()
	for _, spec := range []InstanceSpec{
		{Name: "pub", Interfaces: []IfaceSpec{{Name: "out", Dir: Out}}},
		{Name: "sub1", Interfaces: []IfaceSpec{{Name: "in", Dir: In}}},
		{Name: "sub2", Interfaces: []IfaceSpec{{Name: "in", Dir: In}}},
	} {
		if err := b.AddInstance(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddBinding(Endpoint{"pub", "out"}, Endpoint{"sub1", "in"}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddBinding(Endpoint{"pub", "out"}, Endpoint{"sub2", "in"}); err != nil {
		t.Fatal(err)
	}
	pub := attach(t, b, "pub")
	if err := pub.Write("out", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sub1", "sub2"} {
		sub := attach(t, b, name)
		if m, err := sub.Read("in"); err != nil || string(m.Data) != "x" {
			t.Errorf("%s read = %v, %v", name, m, err)
		}
	}
	if b.Stats().Delivered != 2 {
		t.Errorf("Delivered = %d", b.Stats().Delivered)
	}
}

func TestAttachSemantics(t *testing.T) {
	b := testBus(t)
	if _, err := b.Attach("ghost"); !errors.Is(err, ErrNoInstance) {
		t.Errorf("attach ghost: %v", err)
	}
	a := attach(t, b, "compute")
	if _, err := b.Attach("compute"); !errors.Is(err, ErrAlreadyAttached) {
		t.Errorf("double attach: %v", err)
	}
	if a.Name() != "compute" || a.Machine() != "m1" || a.Status() != StatusAdd {
		t.Errorf("attachment identity: %s %s %s", a.Name(), a.Machine(), a.Status())
	}
	info, err := b.Info("compute")
	if err != nil || info.Phase != PhaseRunning {
		t.Errorf("phase = %v, %v", info.Phase, err)
	}
}

func TestDeleteInstanceWakesReaders(t *testing.T) {
	b := testBus(t)
	comp := attach(t, b, "compute")
	errCh := make(chan error, 1)
	go func() {
		_, err := comp.Read("display")
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := b.DeleteInstance("compute"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrStopped) {
			t.Errorf("blocked read returned %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked read never woke")
	}
	if !comp.Done() {
		t.Error("attachment not Done after delete")
	}
	// Bindings referencing compute are gone.
	for _, bd := range b.Bindings() {
		if bd.A.Instance == "compute" || bd.B.Instance == "compute" {
			t.Errorf("stale binding %v", bd)
		}
	}
	if err := b.DeleteInstance("compute"); !errors.Is(err, ErrNoInstance) {
		t.Errorf("double delete: %v", err)
	}
}

func TestSignalDeliveryAndCoalescing(t *testing.T) {
	b := testBus(t)
	comp := attach(t, b, "compute")
	if err := b.SignalReconfig("compute"); err != nil {
		t.Fatal(err)
	}
	s, ok := comp.TakeSignal()
	if !ok || s.Kind != SignalReconfig {
		t.Fatalf("TakeSignal = %+v, %t", s, ok)
	}
	if _, ok := comp.TakeSignal(); ok {
		t.Error("spurious signal")
	}
	// Flooding does not block: extra signals coalesce.
	for i := 0; i < 100; i++ {
		if err := b.SignalReconfig("compute"); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SignalReconfig("ghost"); !errors.Is(err, ErrNoInstance) {
		t.Errorf("signal ghost: %v", err)
	}
	if b.Stats().Signals != 101 {
		t.Errorf("Signals = %d", b.Stats().Signals)
	}
}

func TestDivulgeInstallMoveState(t *testing.T) {
	b := testBus(t)
	comp := attach(t, b, "compute")

	// Register the clone.
	if err := b.AddInstance(InstanceSpec{
		Name: "compute2", Module: "compute", Machine: "m2", Status: StatusClone,
		Interfaces: []IfaceSpec{{Name: "display", Dir: InOut}, {Name: "sensor", Dir: In}},
	}); err != nil {
		t.Fatal(err)
	}
	clone := attach(t, b, "compute2")
	if clone.Status() != StatusClone {
		t.Errorf("clone status = %s", clone.Status())
	}

	// The module reacts to the reconfig signal by divulging.
	go func() {
		for {
			if s, ok := comp.TakeSignal(); ok && s.Kind == SignalReconfig {
				_ = comp.Divulge([]byte("the-state"))
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// mh_objstate_move, in the three thirds the replacement script runs.
	if err := b.SignalReconfig("compute"); err != nil {
		t.Fatal(err)
	}
	divulged, err := b.AwaitDivulged("compute", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.InstallState("compute2", divulged); err != nil {
		t.Fatal(err)
	}
	data, err := clone.AwaitState(2 * time.Second)
	if err != nil || string(data) != "the-state" {
		t.Fatalf("AwaitState = %q, %v", data, err)
	}

	info, err := b.Info("compute")
	if err != nil || info.Phase != PhaseDivulged {
		t.Errorf("old phase = %v, %v", info.Phase, err)
	}
}

func TestAwaitTimeouts(t *testing.T) {
	b := testBus(t)
	attach(t, b, "compute")
	if _, err := b.AwaitDivulged("compute", 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("AwaitDivulged: %v", err)
	}
	if _, err := b.AwaitDivulged("ghost", time.Millisecond); !errors.Is(err, ErrNoInstance) {
		t.Errorf("AwaitDivulged ghost: %v", err)
	}
	if err := b.InstallState("ghost", nil); !errors.Is(err, ErrNoInstance) {
		t.Errorf("InstallState ghost: %v", err)
	}
	if err := b.SignalReconfig("ghost"); !errors.Is(err, ErrNoInstance) {
		t.Errorf("SignalReconfig ghost: %v", err)
	}
}

func TestAwaitStateStopped(t *testing.T) {
	b := testBus(t)
	comp := attach(t, b, "compute")
	errCh := make(chan error, 1)
	go func() {
		_, err := comp.AwaitState(5 * time.Second)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := b.DeleteInstance("compute"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrStopped) {
			t.Errorf("AwaitState after delete: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("AwaitState never woke")
	}
}

func TestDoubleDivulgeRejected(t *testing.T) {
	b := testBus(t)
	comp := attach(t, b, "compute")
	if err := comp.Divulge([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := comp.Divulge([]byte("b")); err == nil {
		t.Error("second divulge accepted before collection")
	}
}

func TestMoveQueueAndDrain(t *testing.T) {
	b := testBus(t)
	disp := attach(t, b, "display")
	// Three requests pile up at compute while it is "busy".
	for i := 0; i < 3; i++ {
		if err := disp.Write("temper", []byte{byte('0' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddInstance(InstanceSpec{
		Name: "compute2", Module: "compute", Status: StatusClone,
		Interfaces: []IfaceSpec{{Name: "display", Dir: InOut}, {Name: "sensor", Dir: In}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Rebind([]BindEdit{{Op: "cq", From: Endpoint{"compute", "display"}, To: Endpoint{"compute2", "display"}}}); err != nil {
		t.Fatal(err)
	}
	clone := attach(t, b, "compute2")
	for i := 0; i < 3; i++ {
		m, err := clone.Read("display")
		if err != nil || m.Data[0] != byte('0'+i) {
			t.Fatalf("moved message %d = %+v, %v (order lost?)", i, m, err)
		}
	}
	if n, _ := attach(t, b, "compute").Pending("display"); n != 0 {
		t.Errorf("source queue still has %d", n)
	}
	if b.Stats().Moves != 3 {
		t.Errorf("Moves = %d", b.Stats().Moves)
	}

	// Drain.
	if err := disp.Write("temper", []byte("x")); err == nil {
		// write went to compute2 or compute depending on bindings; just
		// exercise DrainQueue on both.
		if _, err := b.DrainQueue(Endpoint{"compute", "display"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.DrainQueue(Endpoint{"sensor", "out"}); !errors.Is(err, ErrDirection) {
		t.Errorf("drain on Out iface: %v", err)
	}
	if err := b.Rebind([]BindEdit{{Op: "cq", From: Endpoint{"sensor", "out"}, To: Endpoint{"compute", "display"}}}); !errors.Is(err, ErrDirection) {
		t.Errorf("move from Out iface: %v", err)
	}
	if err := b.Rebind([]BindEdit{{Op: "cq", From: Endpoint{"ghost", "x"}, To: Endpoint{"compute", "display"}}}); !errors.Is(err, ErrNoInstance) {
		t.Errorf("move from ghost: %v", err)
	}
}

func TestRebindAtomicity(t *testing.T) {
	b := testBus(t)
	if err := b.AddInstance(InstanceSpec{
		Name: "compute2", Module: "compute", Status: StatusClone,
		Interfaces: []IfaceSpec{{Name: "display", Dir: InOut}, {Name: "sensor", Dir: In}},
	}); err != nil {
		t.Fatal(err)
	}

	// A batch whose last edit fails must leave bindings untouched.
	before := b.Bindings()
	err := b.Rebind([]BindEdit{
		{Op: "del", From: Endpoint{"display", "temper"}, To: Endpoint{"compute", "display"}},
		{Op: "add", From: Endpoint{"display", "temper"}, To: Endpoint{"compute2", "display"}},
		{Op: "del", From: Endpoint{"ghost", "x"}, To: Endpoint{"ghost", "y"}},
	})
	if err == nil {
		t.Fatal("failing batch succeeded")
	}
	if !reflect.DeepEqual(before, b.Bindings()) {
		t.Errorf("failed rebind mutated bindings:\nbefore %v\nafter  %v", before, b.Bindings())
	}

	// The full replacement batch, as Figure 5 issues it.
	err = b.Rebind([]BindEdit{
		{Op: "del", From: Endpoint{"display", "temper"}, To: Endpoint{"compute", "display"}},
		{Op: "add", From: Endpoint{"display", "temper"}, To: Endpoint{"compute2", "display"}},
		{Op: "del", From: Endpoint{"sensor", "out"}, To: Endpoint{"compute", "sensor"}},
		{Op: "add", From: Endpoint{"sensor", "out"}, To: Endpoint{"compute2", "sensor"}},
		{Op: "cq", From: Endpoint{"compute", "display"}, To: Endpoint{"compute2", "display"}},
		{Op: "rmq", From: Endpoint{"compute", "sensor"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	dest, err := b.IfDest(Endpoint{"display", "temper"})
	if err != nil {
		t.Fatal(err)
	}
	if len(dest) != 1 || dest[0] != (Endpoint{"compute2", "display"}) {
		t.Errorf("after rebind, display.temper routes to %v", dest)
	}
	if b.Stats().Rebinds != 1 {
		t.Errorf("Rebinds = %d", b.Stats().Rebinds)
	}

	// Unknown op and invalid cq/rmq targets are rejected up front.
	if err := b.Rebind([]BindEdit{{Op: "frob"}}); err == nil {
		t.Error("unknown op accepted")
	}
	if err := b.Rebind([]BindEdit{{Op: "cq", From: Endpoint{"ghost", "x"}, To: Endpoint{"compute", "display"}}}); err == nil {
		t.Error("cq from ghost accepted")
	}
	if err := b.Rebind([]BindEdit{{Op: "rmq", From: Endpoint{"sensor", "out"}}}); err == nil {
		t.Error("rmq on Out iface accepted")
	}
}

func TestIntrospection(t *testing.T) {
	b := testBus(t)
	names := b.Instances()
	if !reflect.DeepEqual(names, []string{"compute", "display", "sensor"}) {
		t.Errorf("Instances = %v", names)
	}

	info, err := b.Info("compute")
	if err != nil {
		t.Fatal(err)
	}
	if info.Module != "compute" || info.Machine != "m1" || info.Phase != PhaseAdded {
		t.Errorf("Info = %+v", info)
	}
	wantIfaces := []IfaceSpec{{Name: "display", Dir: InOut}, {Name: "sensor", Dir: In}}
	if !reflect.DeepEqual(info.Interfaces, wantIfaces) {
		t.Errorf("Interfaces = %v", info.Interfaces)
	}
	if _, err := b.Info("ghost"); !errors.Is(err, ErrNoInstance) {
		t.Errorf("Info ghost: %v", err)
	}

	dest, err := b.IfDest(Endpoint{"display", "temper"})
	if err != nil || !reflect.DeepEqual(dest, []Endpoint{{"compute", "display"}}) {
		t.Errorf("IfDest = %v, %v", dest, err)
	}
	src, err := b.IfSources(Endpoint{"compute", "sensor"})
	if err != nil || !reflect.DeepEqual(src, []Endpoint{{"sensor", "out"}}) {
		t.Errorf("IfSources = %v, %v", src, err)
	}
	// sensor.out receives nothing.
	src, err = b.IfSources(Endpoint{"sensor", "out"})
	if err != nil || src != nil {
		t.Errorf("IfSources(out) = %v, %v", src, err)
	}
	if _, err := b.IfDest(Endpoint{"ghost", "x"}); !errors.Is(err, ErrNoInstance) {
		t.Errorf("IfDest ghost: %v", err)
	}
	if _, err := b.IfSources(Endpoint{"ghost", "x"}); !errors.Is(err, ErrNoInstance) {
		t.Errorf("IfSources ghost: %v", err)
	}
}

func TestAttrsCopied(t *testing.T) {
	b := New()
	attrs := map[string]string{"k": "v"}
	if err := b.AddInstance(InstanceSpec{Name: "x", Attrs: attrs}); err != nil {
		t.Fatal(err)
	}
	info, err := b.Info("x")
	if err != nil {
		t.Fatal(err)
	}
	info.Attrs["k"] = "mutated"
	info2, _ := b.Info("x")
	if info2.Attrs["k"] != "v" {
		t.Error("Info exposes internal attr map")
	}
}

func TestEventsRecorded(t *testing.T) {
	b := New()
	rec := NewRecorder()
	b.Observe(rec.Record)
	if err := b.AddInstance(InstanceSpec{Name: "a", Machine: "m9", Interfaces: []IfaceSpec{{Name: "o", Dir: Out}}}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddInstance(InstanceSpec{Name: "b", Interfaces: []IfaceSpec{{Name: "i", Dir: In}}}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddBinding(Endpoint{"a", "o"}, Endpoint{"b", "i"}); err != nil {
		t.Fatal(err)
	}
	if err := b.DeleteInstance("b"); err != nil {
		t.Fatal(err)
	}
	b.SyncObservers() // dispatch is async; wait for delivery
	got := rec.Strings()
	want := []string{
		"add-instance a m9",
		"add-instance b",
		"add-binding a.o <-> b.i",
		"delete-instance b",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("events = %v, want %v", got, want)
	}
	for _, e := range rec.Events() {
		if e.Time.IsZero() {
			t.Error("event with zero time")
		}
	}
	rec.Reset()
	if len(rec.Events()) != 0 {
		t.Error("Reset did not clear")
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{
		EventAddInstance, EventDeleteInstance, EventAddBinding, EventDeleteBinding,
		EventRebind, EventMoveQueue, EventDrainQueue, EventSignal, EventDivulge,
		EventInstallState,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad name %q", int(k), s)
		}
		seen[s] = true
	}
	if EventKind(99).String() != "event(99)" {
		t.Error("unknown kind name")
	}
	if Phase(99).String() != "phase(99)" {
		t.Error("unknown phase name")
	}
	if SignalKind(99).String() != "signal(99)" {
		t.Error("unknown signal name")
	}
	if SignalStop.String() != "stop" {
		t.Error("stop signal name")
	}
}

func TestConcurrentTraffic(t *testing.T) {
	// Many writers and one reader per queue; no message may be lost or
	// duplicated.
	b := New()
	const writers = 8
	const perWriter = 200
	if err := b.AddInstance(InstanceSpec{Name: "sink", Interfaces: []IfaceSpec{{Name: "in", Dir: In}}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < writers; i++ {
		name := fmt.Sprintf("w%d", i)
		if err := b.AddInstance(InstanceSpec{Name: name, Interfaces: []IfaceSpec{{Name: "out", Dir: Out}}}); err != nil {
			t.Fatal(err)
		}
		if err := b.AddBinding(Endpoint{name, "out"}, Endpoint{"sink", "in"}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		a := attach(t, b, fmt.Sprintf("w%d", i))
		wg.Add(1)
		go func(a *Attachment, id int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				if err := a.Write("out", []byte{byte(id)}); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(a, i)
	}
	sink := attach(t, b, "sink")
	counts := make([]int, writers)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < writers*perWriter; i++ {
			m, err := sink.Read("in")
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			counts[m.Data[0]]++
		}
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("reader did not drain all messages")
	}
	for i, c := range counts {
		if c != perWriter {
			t.Errorf("writer %d delivered %d, want %d", i, c, perWriter)
		}
	}
	if got := b.Stats().Delivered; got != writers*perWriter {
		t.Errorf("Delivered = %d", got)
	}
}

func TestWriteToDeletedReceiverDropsQuietly(t *testing.T) {
	b := testBus(t)
	disp := attach(t, b, "display")
	// Delete compute after binding lookup would target it: simulate the
	// race by deleting, then writing; the binding is already gone so the
	// write errors as unbound, which is the visible behavior.
	if err := b.DeleteInstance("compute"); err != nil {
		t.Fatal(err)
	}
	if err := disp.Write("temper", []byte("x")); !errors.Is(err, ErrUnbound) {
		t.Errorf("write after receiver delete: %v", err)
	}
}
