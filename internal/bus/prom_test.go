package bus

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestPromLabeledExposition registers through the bus itself: the members
// of a replica group carry dotted names, and each renders as one labeled
// series per (instance, interface), not a flat mangled name.
func TestPromLabeledExposition(t *testing.T) {
	b, _ := addGroupFixture(t, PolicyRoundRobin)
	feeder, err := b.Attach("feeder")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := feeder.Write("out", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}

	var w strings.Builder
	telemetry.WritePrometheus(&w, b.Telemetry())
	out := w.String()
	for _, want := range []string{
		"# TYPE bus_iface_delivered counter\n",
		`bus_iface_delivered{instance="pool.1",interface="in"} 2`,
		`bus_iface_delivered{instance="pool.2",interface="in"} 2`,
		`bus_iface_delivered{instance="pool.3",interface="in"} 1`,
		`bus_iface_queue_depth{instance="pool.1",interface="in"} 2`,
		`bus_iface_sent{instance="feeder",interface="out"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE bus_iface_delivered") != 1 {
		t.Errorf("family TYPE line repeated:\n%s", out)
	}
}
