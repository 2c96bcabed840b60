package bus

import (
	"strings"
	"testing"
)

func twoNodeBus(t *testing.T, opts ...BusOption) *Bus {
	t.Helper()
	b := New(opts...)
	if err := b.AddInstance(InstanceSpec{Name: "src", Interfaces: []IfaceSpec{{Name: "out", Dir: Out}}}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddInstance(InstanceSpec{Name: "dst", Interfaces: []IfaceSpec{{Name: "in", Dir: In}}}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddBinding(Endpoint{"src", "out"}, Endpoint{"dst", "in"}); err != nil {
		t.Fatal(err)
	}
	return b
}

// writerFor hands out the write side of an instance without claiming its
// runtime slot, for tests that only need traffic on the bus.
func writerFor(b *Bus, instance string) *Attachment {
	return newAttachment(b, b.routing.Load().instances[instance])
}

func TestBusTelemetryCounters(t *testing.T) {
	b := twoNodeBus(t)
	src := writerFor(b, "src")
	for i := 0; i < 7; i++ {
		if err := src.Write("out", []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	snap := b.Telemetry().Snapshot()
	if got := snap.Counters["bus.iface.src.out.sent"]; got != 7 {
		t.Errorf("sent = %d, want 7", got)
	}
	if got := snap.Counters["bus.iface.dst.in.delivered"]; got != 7 {
		t.Errorf("delivered = %d, want 7", got)
	}
	if got := snap.Gauges["bus.iface.dst.in.queue_depth"]; got != 7 {
		t.Errorf("queue_depth = %d, want 7", got)
	}

	// Draining the queue moves the computed gauge, with no hot-path work.
	if _, err := b.DrainQueue(Endpoint{"dst", "in"}); err != nil {
		t.Fatal(err)
	}
	if got := b.Telemetry().Snapshot().Gauges["bus.iface.dst.in.queue_depth"]; got != 0 {
		t.Errorf("queue_depth after drain = %d, want 0", got)
	}

	// Deleting the instance unregisters its metrics.
	if err := b.DeleteInstance("dst"); err != nil {
		t.Fatal(err)
	}
	for _, name := range b.Telemetry().Names() {
		if strings.HasPrefix(name, "bus.iface.dst.") {
			t.Errorf("metric %q survived DeleteInstance", name)
		}
	}
}

func TestBusTelemetryDisabled(t *testing.T) {
	b := twoNodeBus(t, WithTelemetry(nil))
	if b.Telemetry() != nil {
		t.Fatal("WithTelemetry(nil) did not disable telemetry")
	}
	src := writerFor(b, "src")
	for i := 0; i < 3; i++ {
		if err := src.Write("out", []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	if b.Stats().Delivered != 3 {
		t.Fatalf("plain stats broken with telemetry off: %+v", b.Stats())
	}
	// And deletion still works with no registry to unregister from.
	if err := b.DeleteInstance("dst"); err != nil {
		t.Fatal(err)
	}
}

// TestWriteTelemetryAddsNoAllocs compares the allocation count of the write
// path with telemetry on vs. off: the instrumentation must add zero
// allocations per message.
func TestWriteTelemetryAddsNoAllocs(t *testing.T) {
	measure := func(b *Bus) float64 {
		t.Helper()
		src := writerFor(b, "src")
		sink := Endpoint{"dst", "in"}
		payload := []byte("m")
		// AllocsPerRun counts process-global mallocs, so a straggling
		// goroutine from an earlier test can inflate one sample; take the
		// minimum of three — a real per-message allocation shows up in all.
		best := -1.0
		for i := 0; i < 3; i++ {
			n := testing.AllocsPerRun(200, func() {
				if err := src.Write("out", payload); err != nil {
					t.Fatal(err)
				}
				if _, err := b.DrainQueue(sink); err != nil {
					t.Fatal(err)
				}
			})
			if best < 0 || n < best {
				best = n
			}
		}
		return best
	}
	off := measure(twoNodeBus(t, WithTelemetry(nil)))
	on := measure(twoNodeBus(t))
	if on > off {
		t.Errorf("telemetry adds allocations on the write path: %v with vs %v without", on, off)
	}
}
