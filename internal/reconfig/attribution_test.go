package reconfig

import (
	"net"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/telemetry"
)

// TestMetricAttribution registers every kind of metric through its real
// site — the bus's per-interface metrics of a replica group with dotted
// member names, mh.New's per-instance metrics, NewSupervisor's per-group
// gauges, a recovery and a TCP server's flat counters — and checks the
// family and labels each renders with in the Prometheus exposition, and
// that its dotted name is still its snapshot key.
func TestMetricAttribution(t *testing.T) {
	w := newReplicaWorld(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := bus.NewServer(w.b, ln)
	t.Cleanup(func() { srv.Close() })
	for i := 1; i <= 6; i++ {
		w.send(i)
	}
	w.awaitSink(6)
	w.setFlag(w.killed, "pool.2", true)
	w.waitFor("recovery", func() bool { return w.sup.Stats().Recovered == 1 })

	cases := []struct {
		name, kind string
		family     string // "" renders flat under the sanitized name
		labels     string
	}{
		{"bus.iface.snk.in.delivered", "counter", "bus_iface_delivered", `instance="snk",interface="in"`},
		{"bus.iface.src.out.sent", "counter", "bus_iface_sent", `instance="src",interface="out"`},
		{"bus.iface.pool.3.in.queue_depth", "gauge", "bus_iface_queue_depth", `instance="pool.3",interface="in"`},
		{"bus.iface.pool.3.in.delivery_latency_ns", "histogram", "bus_iface_delivery_latency_ns", `instance="pool.3",interface="in"`},
		{"mh.pool.3.errors", "counter", "mh_errors", `instance="pool.3"`},
		{"mh.pool.1.flag_checks", "counter", "mh_flag_checks", `instance="pool.1"`},
		{"mh.pool.1.capture_ns", "histogram", "mh_capture_ns", `instance="pool.1"`},
		{"selfheal.pool.members", "gauge", "selfheal_members", `group="pool"`},
		{"selfheal.pool.pending", "gauge", "selfheal_pending", `group="pool"`},
		// Metrics their sites register without labels render flat.
		{"selfheal.recovery_ns", "histogram", "", ""},
		{"bus.rpc.write", "counter", "", ""},
	}

	reg := w.b.Telemetry()
	var b strings.Builder
	telemetry.WritePrometheus(&b, reg)
	out := b.String()
	snap := reg.Snapshot()
	for _, tc := range cases {
		family, sample := tc.family, tc.family+"{"+tc.labels+"}"
		if family == "" {
			family = strings.NewReplacer(".", "_").Replace(tc.name)
			sample = family
		}
		if tc.kind == "histogram" {
			sample = strings.Replace(sample, family, family+"_count", 1)
		}
		if !strings.Contains(out, "# TYPE "+family+" "+tc.kind+"\n") {
			t.Errorf("%s: no %s family %s in the exposition", tc.name, tc.kind, family)
		}
		if !strings.Contains(out, "\n"+sample+" ") {
			t.Errorf("%s: no sample %s in the exposition", tc.name, sample)
		}
		var found bool
		switch tc.kind {
		case "counter":
			_, found = snap.Counters[tc.name]
		case "gauge":
			_, found = snap.Gauges[tc.name]
		case "histogram":
			_, found = snap.Histograms[tc.name]
		}
		if !found {
			t.Errorf("%s: not a %s key of the snapshot", tc.name, tc.kind)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", out)
	}
}
