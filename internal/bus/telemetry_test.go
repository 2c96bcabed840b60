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
	if err := b.AddBinding(Endpoint{Instance: "src", Interface: "out"}, Endpoint{Instance: "dst", Interface: "in"}); err != nil {
		t.Fatal(err)
	}
	return b
}

// writerFor hands out the write side of an instance without claiming its
// runtime slot, for tests that only need traffic on the bus.
func writerFor(b *Bus, instance string) *Attachment {
	in, _ := b.instance(instance)
	return newAttachment(b, in)
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
	if _, err := b.DrainQueue(Endpoint{Instance: "dst", Interface: "in"}); err != nil {
		t.Fatal(err)
	}
	if got := b.Telemetry().Snapshot().Gauges["bus.iface.dst.in.queue_depth"]; got != 0 {
		t.Errorf("queue_depth after drain = %d, want 0", got)
	}

	// Deleting the instance unregisters its metrics.
	if err := b.DeleteInstance("dst"); err != nil {
		t.Fatal(err)
	}
	snap = b.Telemetry().Snapshot()
	var names []string
	for name := range snap.Counters {
		names = append(names, name)
	}
	for name := range snap.Gauges {
		names = append(names, name)
	}
	for name := range snap.Histograms {
		names = append(names, name)
	}
	for _, name := range names {
		if strings.HasPrefix(name, "bus.iface.dst.") {
			t.Errorf("metric %q survived DeleteInstance", name)
		}
	}
}

// TestDeleteInstanceKeepsDottedNeighbour: instance names may contain dots,
// so deleting "filter" must not take the metrics of "filter.v2" — the
// replacement a Move("filter", "filter.v2", ...) leaves live — with it.
func TestDeleteInstanceKeepsDottedNeighbour(t *testing.T) {
	b := New()
	for _, name := range []string{"filter", "filter.v2"} {
		if err := b.AddInstance(InstanceSpec{Name: name, Interfaces: []IfaceSpec{{Name: "in", Dir: InOut}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.DeleteInstance("filter"); err != nil {
		t.Fatal(err)
	}
	snap := b.Telemetry().Snapshot()
	_, sent := snap.Counters["bus.iface.filter.v2.in.sent"]
	_, delivered := snap.Counters["bus.iface.filter.v2.in.delivered"]
	_, depth := snap.Gauges["bus.iface.filter.v2.in.queue_depth"]
	_, latency := snap.Histograms["bus.iface.filter.v2.in.delivery_latency_ns"]
	if !sent || !delivered || !depth || !latency {
		t.Errorf("filter.v2 lost metrics with filter: sent %v delivered %v queue_depth %v latency %v", sent, delivered, depth, latency)
	}
	if _, ok := snap.Counters["bus.iface.filter.in.sent"]; ok {
		t.Error("filter's own metrics survived its deletion")
	}
}

// TestWriteTelemetryAddsNoAllocs holds a Write and a DrainQueue, with the
// write path's sent and delivered counters, latency histogram and
// queue-depth gauge all live, to the 19 allocations the pair cost on a bus
// built without a registry (the last one that could be): the
// instrumentation must add none per message.
func TestWriteTelemetryAddsNoAllocs(t *testing.T) {
	const uninstrumented = 19
	b := twoNodeBus(t)
	src := writerFor(b, "src")
	sink := Endpoint{Instance: "dst", Interface: "in"}
	payload := []byte("m")
	// AllocsPerRun counts process-global mallocs, so a straggling goroutine
	// from an earlier test can inflate one sample; take the minimum of
	// three — a real per-message allocation shows up in all.
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
	if best > uninstrumented {
		t.Errorf("telemetry adds allocations on the write path: %v per write and drain, %v uninstrumented", best, uninstrumented)
	}
}
