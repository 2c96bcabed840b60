package telemetry

import (
	"strings"
	"testing"
)

// labelEveryDotted is a test rule: "lbl.<instance>.<metric>" becomes
// "test_<metric>{instance=...}", with the instance allowed to contain any
// bytes a spec file could smuggle in.
func labelEveryDotted(name string) (string, []Label) {
	if !strings.HasPrefix(name, "lbl.") {
		return "", nil
	}
	rest := strings.TrimPrefix(name, "lbl.")
	i := strings.LastIndexByte(rest, '.')
	if i <= 0 {
		return "", nil
	}
	return "test_" + rest[i+1:], []Label{{Name: "instance", Value: rest[:i]}}
}

// TestWritePrometheusLabelGolden pins the exact exposition output for
// labeled rendering: family grouping with a single TYPE line, flat metrics
// first, label values escaped per the Prometheus text format (backslash,
// double quote and newline escaped; other UTF-8 passes through).
func TestWritePrometheusLabelGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("plain.count").Add(3)
	r.Counter("lbl.display.sent").Add(7)
	r.Counter(`lbl.quo"te.sent`).Add(1)
	r.Counter(`lbl.back\slash.sent`).Add(2)
	r.Counter("lbl.new\nline.sent").Add(4)
	r.Counter("lbl.жмых.sent").Add(5)
	r.GaugeFunc("lbl.display.depth", func() int64 { return 9 })

	var b strings.Builder
	WritePrometheus(&b, r, labelEveryDotted)

	const want = `# TYPE plain_count counter
plain_count 3
# TYPE test_depth gauge
test_depth{instance="display"} 9
# TYPE test_sent counter
test_sent{instance="back\\slash"} 2
test_sent{instance="display"} 7
test_sent{instance="new\nline"} 4
test_sent{instance="quo\"te"} 1
test_sent{instance="жмых"} 5
`
	if got := b.String(); got != want {
		t.Fatalf("labeled exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWritePrometheusLabeledHistogram pins the labeled histogram shape:
// per-series buckets carry the rule labels merged with le, and _sum/_count
// carry the labels alone.
func TestWritePrometheusLabeledHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lbl.worker.latency")
	h.ObserveNs(1) // bucket 1 (le="1")
	h.ObserveNs(3) // bucket 2 (le="3")

	var b strings.Builder
	WritePrometheus(&b, r, labelEveryDotted)

	const want = `# TYPE test_latency histogram
test_latency_bucket{instance="worker",le="0"} 0
test_latency_bucket{instance="worker",le="1"} 1
test_latency_bucket{instance="worker",le="3"} 2
test_latency_bucket{instance="worker",le="+Inf"} 2
test_latency_sum{instance="worker"} 4
test_latency_count{instance="worker"} 2
`
	if got := b.String(); got != want {
		t.Fatalf("labeled histogram mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWritePrometheusNoRules keeps the legacy flat rendering byte-stable
// when no rules are passed.
func TestWritePrometheusNoRules(t *testing.T) {
	r := NewRegistry()
	r.Counter("bus.iface.a.req.sent").Add(2)
	r.GaugeFunc("g", func() int64 { return 1 })

	var b strings.Builder
	WritePrometheus(&b, r)

	const want = `# TYPE bus_iface_a_req_sent counter
bus_iface_a_req_sent 2
# TYPE g gauge
g 1
`
	if got := b.String(); got != want {
		t.Fatalf("flat exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
