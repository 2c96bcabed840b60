package fixtures

import (
	"strings"
	"testing"
	"time"

	"repro/internal/lang"
	"repro/internal/mil"
)

func TestMonitorSpecParses(t *testing.T) {
	spec, err := mil.ParseAndValidate(MonitorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Module("compute") == nil || spec.Application("monitor") == nil {
		t.Error("spec incomplete")
	}
}

func TestModuleSourcesCheck(t *testing.T) {
	for name, src := range map[string]string{
		"compute": ComputeSource,
		"sensor":  SensorSource,
		"display": DisplaySource,
	} {
		prog, err := lang.ParseFiles(map[string]string{name + ".go": src})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := lang.Check(prog); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestExpectedAverage(t *testing.T) {
	// Explicit values, repeating the last after exhaustion.
	vals := []int{10, 20}
	if got := ExpectedAverage(vals, 0, 2); got != 15 {
		t.Errorf("avg = %v", got)
	}
	if got := ExpectedAverage(vals, 1, 2); got != 20 {
		t.Errorf("avg with repeat = %v", got)
	}
	// Default ramp 50+i: window of 4 starting at consumed c averages
	// 50+c+1.5.
	if got := ExpectedAverage(nil, 3, 4); got != 54.5 {
		t.Errorf("ramp avg = %v", got)
	}
}

func TestDescribe(t *testing.T) {
	r := DisplayRequest{N: 4, Response: 51.5, Elapsed: 2500 * time.Microsecond}
	if s := r.Describe(); !strings.Contains(s, "avg(4) = 51.500") || !strings.Contains(s, "2.5ms") {
		t.Errorf("Describe = %q", s)
	}
}
