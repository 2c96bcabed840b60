package main

import (
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchMetric `json:"end_to_end"`
	PerLayer   []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func metricNames(ms []benchMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func emittedNames(r result) []string {
	var out []string
	for name := range r.Metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness emits %d\nwant %v\ngot  %v", what, len(want), len(got), want, got)
		return
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s: metric %d is %q in BENCHMARK.json and %q in the harness", what, i, want[i], got[i])
		}
	}
}

// TestBenchmarkFileMatchesHarness pins BENCHMARK.json to the harness's own
// tables: same workloads, same metrics, valid names, units and directions.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(what string, file []benchMetric, defs []metricDef, bounded bool) {
		if len(file) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", what, len(file), len(defs))
		}
		for i, d := range defs {
			m := file[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness %+v", what, i, m, d)
			}
			if !nameRE.MatchString(m.Name) {
				t.Errorf("%s: name %q is not [A-Za-z0-9_.-]+", what, m.Name)
			}
			if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s: %q needs a unit and a direction", what, m.Name)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s: %q bound present = %v, want %v", what, m.Name, m.Bound != nil, bounded)
			}
			const limit = 0.25 // the most the contract allows
			if bounded && m.Bound != nil && (*m.Bound <= 0 || *m.Bound > limit) {
				t.Errorf("%s: %q bound %v outside (0, %v]", what, m.Name, *m.Bound, limit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEndMetrics, true)
	check("per_layer", f.PerLayer, perLayerMetrics, false)
}

// TestEveryWorkloadEmitsItsMetrics runs every workload for one 100 ms trial,
// untraced and traced, and checks that exactly the metrics of BENCHMARK.json
// come out, each with its unit, and that the oracle is satisfied. It checks
// no performance number.
func TestEveryWorkloadEmitsItsMetrics(t *testing.T) {
	f := loadBenchmarkFile(t)
	units := map[string]string{}
	for _, m := range append(append([]benchMetric{}, f.EndToEnd...), f.PerLayer...) {
		units[m.Name] = m.Unit
	}
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := run(w, 1, 100*time.Millisecond, 1, traced, out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			want := metricNames(f.EndToEnd)
			if traced {
				want = metricNames(f.PerLayer)
			}
			sameNames(t, w.name, want, emittedNames(r))
			for name, m := range r.Metrics {
				if m.Unit == "" || m.Unit != units[name] {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.name, name, m.Unit, units[name])
				}
			}
			// No operation fails where no Replace runs; a traced run's
			// losses under Replace are in e2e.lost_msgs, not in failed.
			if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, r.Correct, r.Attempted, r.Failed)
			}
			if traced {
				if _, err := os.Stat(out + "/trace-" + w.name + ".json"); err != nil {
					t.Errorf("%s: span file: %v", w.name, err)
				}
			}
		}
	}
}

// lossyLink loses every message: send succeeds and recv blocks until teardown.
type lossyLink struct{ closed chan struct{} }

func (k lossyLink) send(int, int64, int, bool) error { return nil }

func (k lossyLink) recv() (delivery, error) {
	<-k.closed
	return delivery{}, errors.New("closed")
}

// TestLostWindowDoesNotHang loses the whole window of a phase: the sender is
// left waiting for credit nothing will return. The phase must still end, with
// the message counted lost by the read deadline.
func TestLostWindowDoesNotHang(t *testing.T) {
	l := newLoop(1, nil, nil, nil, 0)
	k := lossyLink{make(chan struct{})}
	l.link = k
	go l.sink()
	done := make(chan error, 1)
	go func() {
		_, err := l.runPhase("ping", phasePing, 1, 1, 1, 0, func() { l.sleepUntil(time.Now().Add(50 * time.Millisecond)) })
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * stallAfter):
		t.Fatal("the phase hangs when every outstanding message is lost")
	}
	if sent, lost := l.totalSent(), l.lost.Load(); sent != 1 || lost != 1 {
		t.Errorf("sent %d lost %d, want 1 and 1", sent, lost)
	}
	close(k.closed)
	<-l.sinkDone
}

// TestHungTrialIsAbandoned makes the first attempt at a trial block for good:
// the run must go on with a fresh attempt and count the abandoned one as a
// failed operation.
func TestHungTrialIsAbandoned(t *testing.T) {
	ts := newTrials(workloads[0], 1, plan{})
	ts.limit = 50 * time.Millisecond
	block := make(chan struct{})
	defer close(block)
	var attempts atomic.Int32
	ts.trial = func(int, plan, bool, *buffers, *tracer) (trialResult, error) {
		if attempts.Add(1) == 1 {
			<-block
		}
		return trialResult{sent: 5}, nil
	}
	r, err := ts.run(0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if attempted, failed := counts([]trialResult{r}, ts.hung); ts.hung != 1 || attempted != 6 || failed != 1 {
		t.Errorf("hung %d attempted %d failed %d, want 1, 6 and 1", ts.hung, attempted, failed)
	}
}

// TestLongestGap pins the replace-gap estimator on a hand-made timeline.
func TestLongestGap(t *testing.T) {
	deliv := []int64{10, 20, 30, 100, 110, 300, 310}
	for _, c := range []struct{ start, end, want int64 }{
		{40, 90, 70},   // inside one pause
		{25, 105, 70},  // overlaps the pause and its neighbours
		{95, 120, 190}, // the gap that begins before `end` counts
		{0, 5, 0},      // before the first delivery
		{305, 400, 10}, // after the last one only the closed gap counts
	} {
		if got := longestGap(deliv, c.start, c.end); got != c.want {
			t.Errorf("longestGap(%d, %d) = %d, want %d", c.start, c.end, got, c.want)
		}
	}
}
