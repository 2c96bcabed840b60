package analyze

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fixtures"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// brokenMonitor is the Monitor configuration sabotaged to trip one
// diagnostic of each spec-vs-source class: an undeclared source marker
// (MH004), a spec point with no marker (MH003), an unknown state variable
// (MH005), a dropped live variable (MH006), and a dead captured one
// (MH007).
func brokenMonitor(t testing.TB) Config {
	t.Helper()
	src := strings.Replace(fixtures.ComputeSource,
		"mh.Read(\"sensor\", &temper)",
		"mh.ReconfigPoint(\"S\")\n\tmh.Read(\"sensor\", &temper)", 1)
	spec := strings.Replace(fixtures.MonitorSpec,
		"reconfiguration point = {R} ::",
		"reconfiguration point = {R, Q} ::", 1)
	spec = strings.Replace(spec,
		"state R = {num, n, rp} ::",
		"state R = {n, rp, temper, ghost} ::", 1)
	return Config{
		Sources:  map[string]string{"compute.go": src},
		Spec:     parseSpec(t, spec),
		SpecFile: "app.mil",
		Module:   "compute",
	}
}

func TestGoldenBrokenMonitorText(t *testing.T) {
	r := runOn(t, brokenMonitor(t))
	for _, c := range []string{CodePointNoMarker, CodeMarkerNotInSpec,
		CodeUnknownStateVar, CodeCaptureMissing, CodeCaptureDead} {
		if !hasCode(r, c) {
			t.Errorf("missing %s in %v", c, codes(r))
		}
	}
	checkGolden(t, "broken_monitor.txt", r.Text())
}

func TestGoldenBrokenMonitorJSON(t *testing.T) {
	r := runOn(t, brokenMonitor(t))
	checkGolden(t, "broken_monitor.json", r.JSON())
}

func TestGoldenCleanMonitor(t *testing.T) {
	r := runOn(t, Config{
		Sources:  map[string]string{"compute.go": fixtures.ComputeSource},
		Spec:     parseSpec(t, fixtures.MonitorSpec),
		SpecFile: "app.mil",
		Module:   "compute",
	})
	checkGolden(t, "clean_monitor.txt", r.Text())
	checkGolden(t, "clean_monitor.json", r.JSON())
}
