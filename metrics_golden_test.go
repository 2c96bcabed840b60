package reconf

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/codec"
	"repro/internal/mh"
	"repro/internal/state"
)

var updateMetrics = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current output")

// goldenSpec is a feeder fanning in to a two-member replica group (dotted
// member names) that feeds a collector: every kind of labeled family the
// repository registers — per-interface bus metrics, per-instance mh
// metrics, per-group supervisor gauges — with fixed values.
const goldenSpec = `
module feeder {
  source = "./feeder" ::
  define interface out pattern = {integer} ::
}

module worker {
  source = "./worker" ::
  use interface in pattern = {integer} ::
  define interface out pattern = {integer} ::
}

module collector {
  source = "./collector" ::
  use interface in pattern = {integer} ::
}

module golden {
  instance feeder
  instance worker as pool replicas 2 policy roundrobin
  instance collector
  bind "feeder out" "pool in"
  bind "pool out" "collector in"
}
`

// TestMetricsExpositionGolden pins the bytes /metrics renders for a fixed
// application: each member reports one error and then idles, three
// messages queue round-robin at the members, and two histograms hold one
// fixed observation each. Nothing here depends on timing, so any change in
// family grouping, label attribution or ordering is a diff against
// testdata/metrics.golden (-update rewrites it).
func TestMetricsExpositionGolden(t *testing.T) {
	reported := make(chan struct{}, 2)
	stop := make(chan struct{})
	worker := func(rt *mh.Runtime) {
		rt.ReportError()
		reported <- struct{}{}
		<-stop
	}
	app, err := Load(Config{
		SpecText: goldenSpec,
		Native: map[string]NativeModule{
			"worker":    worker,
			"feeder":    func(rt *mh.Runtime) {},
			"collector": func(rt *mh.Runtime) {},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Stop)
	t.Cleanup(func() { close(stop) })
	for _, m := range []string{"pool.1", "pool.2"} {
		if err := app.Launch(m); err != nil {
			t.Fatal(err)
		}
		<-reported
	}
	feeder, err := app.AttachDriver("feeder")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		data, err := codec.Default().EncodeValue(state.IntValue(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := feeder.Write("out", data); err != nil {
			t.Fatal(err)
		}
	}
	h := app.Telemetry().Handles()
	h.Histograms["bus.iface.pool.1.in.delivery_latency_ns"].ObserveNs(5)
	h.Histograms["mh.pool.2.capture_ns"].ObserveNs(40)

	doc, err := opMetrics(app, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := string(doc.(rawText))
	path := filepath.Join("testdata", "metrics.golden")
	if *updateMetrics {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("/metrics differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
