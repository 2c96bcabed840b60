package health

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
	"repro/internal/telemetry/timeseries"
)

type fixture struct {
	reg    *telemetry.Registry
	roller *timeseries.Roller
	clk    *clock.Virtual
}

// newFixture runs a roller with 1s windows on a virtual clock.
func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{reg: telemetry.NewRegistry(), clk: clock.NewVirtual(time.Unix(1, 0))}
	f.roller = timeseries.New(f.reg, f.clk.Clock(), time.Second)
	f.roller.Start()
	t.Cleanup(f.roller.Stop)
	f.clk.BlockUntil(1)
	return f
}

// roll closes one window: the clock advances a window, and roll returns
// once the roller's loop has rolled it and waits for the next.
func (f *fixture) roll() {
	f.clk.Advance(time.Second)
	f.clk.BlockUntil(1)
}

// owner labels a metric of instance inst's receiving interface "req" as the
// bus and the mh runtime label theirs.
func owner(family, inst string) telemetry.Labels {
	return telemetry.Labels{Family: family, Instance: inst, Interface: "req"}
}

// traffic records one window of activity for an instance: messages
// delivered to its interface "req", errors, and a latency population.
func (f *fixture) traffic(inst string, delivered, errors int64, latNs int64, latN int) {
	f.reg.Counter("bus.iface."+inst+".req.delivered", owner(telemetry.FamilyDelivered, inst)).Add(delivered)
	if errors > 0 {
		f.reg.Counter("mh."+inst+".errors", telemetry.Labels{Family: telemetry.FamilyErrors, Instance: inst}).Add(errors)
	}
	h := f.reg.Histogram("bus.iface."+inst+".req.delivery_latency_ns", owner(telemetry.FamilyDeliveryLatency, inst))
	for i := 0; i < latN; i++ {
		h.ObserveNs(latNs)
	}
}

// queue sets the depth of inst's "req" queue the next roll samples.
func (f *fixture) queue(inst string, depth int64) {
	f.reg.GaugeFunc("bus.iface."+inst+".req.queue_depth", owner(telemetry.FamilyQueueDepth, inst),
		func() int64 { return depth })
}

func TestHealthyInstance(t *testing.T) {
	f := newFixture(t)
	c := NewChecker(f.roller)
	for i := 0; i < 6; i++ {
		f.traffic("worker.1", 50, 0, 1000, 50)
		f.roll()
	}
	v := c.Check("worker.1", nil)
	if v.Level != Healthy {
		t.Fatalf("level = %s, want healthy: %s", v.Level, v.Summary())
	}
	if len(v.Evidence) == 0 {
		t.Error("healthy verdict carries no evidence windows")
	}
}

func TestInsufficientDataStaysHealthy(t *testing.T) {
	f := newFixture(t)
	c := NewChecker(f.roller)
	// Terrible error rate, but only one window and 4 samples.
	f.traffic("cand", 2, 2, 0, 0)
	f.roll()
	v := c.Check("cand", nil)
	if v.Level != Healthy {
		t.Fatalf("level = %s, want healthy while under min data", v.Level)
	}
	if len(v.Reasons) == 0 || !strings.Contains(v.Reasons[0], "insufficient data") {
		t.Errorf("reasons = %v, want insufficient-data", v.Reasons)
	}
}

func TestDegradedOnErrorRate(t *testing.T) {
	f := newFixture(t)
	c := NewChecker(f.roller)
	for i := 0; i < 8; i++ {
		f.traffic("cand", 100, 10, 0, 0) // 9% error rate, below the 25% burn
		f.roll()
	}
	v := c.Check("cand", nil)
	if v.Level != Degraded {
		t.Fatalf("level = %s, want degraded: %s", v.Level, v.Summary())
	}
	if v.ErrorRate < 0.05 {
		t.Errorf("error rate = %.3f, want >= 0.05", v.ErrorRate)
	}
}

func TestCriticalOnErrorBurn(t *testing.T) {
	f := newFixture(t)
	c := NewChecker(f.roller)
	// Clean history, then three windows burning at 50%.
	for i := 0; i < 5; i++ {
		f.traffic("cand", 100, 0, 0, 0)
		f.roll()
	}
	for i := 0; i < 3; i++ {
		f.traffic("cand", 100, 50, 0, 0)
		f.roll()
	}
	v := c.Check("cand", nil)
	if v.Level != Critical {
		t.Fatalf("level = %s, want critical: %s", v.Level, v.Summary())
	}
	if v.ShortErrorRate < 0.25 {
		t.Errorf("short rate = %.3f, want >= 0.25", v.ShortErrorRate)
	}
}

func TestSingleBadWindowDoesNotEscalate(t *testing.T) {
	f := newFixture(t)
	c := NewChecker(f.roller)
	for i := 0; i < 7; i++ {
		f.traffic("cand", 100, 0, 0, 0)
		f.roll()
	}
	// One bad window: 30% errors. The long span dilutes it well below 5%.
	f.traffic("cand", 100, 30, 0, 0)
	f.roll()
	v := c.Check("cand", nil)
	if v.Level != Healthy {
		t.Fatalf("level = %s after one bad window, want healthy: %s", v.Level, v.Summary())
	}
}

func TestLatencyVsBaseline(t *testing.T) {
	f := newFixture(t)
	c := NewChecker(f.roller)
	for i := 0; i < 6; i++ {
		f.traffic("incumbent", 100, 0, 10_000, 100) // ~10us baseline
		f.traffic("cand", 100, 0, 1_000_000, 100)   // ~1ms sustained
		f.roll()
	}
	v := c.Check("cand", []string{"incumbent"})
	if v.Level != Critical {
		t.Fatalf("level = %s, want critical on 100x sustained p99: %s", v.Level, v.Summary())
	}
	if v.BaselineP99Ns == 0 {
		t.Error("baseline p99 not recorded in verdict")
	}
	// The incumbent itself stays healthy against the candidate-free check.
	if got := c.Check("incumbent", nil); got.Level != Healthy {
		t.Errorf("incumbent level = %s, want healthy", got.Level)
	}
}

func TestLatencySkippedWithoutBaseline(t *testing.T) {
	f := newFixture(t)
	c := NewChecker(f.roller)
	for i := 0; i < 6; i++ {
		f.traffic("cand", 100, 0, 5_000_000, 100)
		f.roll()
	}
	v := c.Check("cand", nil)
	if v.Level != Healthy {
		t.Fatalf("level = %s, want healthy with no baseline to compare against", v.Level)
	}
}

func TestDottedInstanceNamesDoNotCrossMatch(t *testing.T) {
	f := newFixture(t)
	c := NewChecker(f.roller)
	for i := 0; i < 6; i++ {
		f.traffic("pool.1", 100, 50, 0, 0) // erroring replica
		f.traffic("pool", 100, 0, 0, 0)    // distinct healthy instance
		f.roll()
	}
	if v := c.Check("pool.1", nil); v.Level == Healthy {
		t.Errorf("pool.1 = healthy, want degraded/critical: %s", v.Summary())
	}
	if v := c.Check("pool", nil); v.Level != Healthy {
		t.Errorf("pool = %s, its replica's errors leaked across the name boundary: %s", v.Level, v.Summary())
	}
	// "pool.1"'s windows must not include "pool"'s deliveries.
	wins := InstanceWindows(f.roller, "pool.1", 0)
	for _, w := range wins {
		if w.Delivered > 100 {
			t.Fatalf("window delivered = %d, cross-instance aggregation", w.Delivered)
		}
	}
}

// TestStallRule drives the stall rule window by window: the judged member
// pool.3 and its one peer pool.1 are each delivered some messages, and
// pool.3's queue is sampled at every window's end.
func TestStallRule(t *testing.T) {
	type win struct{ delivered, queued, peerDelivered int64 }
	healthy := []win{{10, 0, 10}, {10, 0, 10}, {10, 0, 10}}
	cat := func(parts ...[]win) []win { return slices.Concat(parts...) }
	cases := []struct {
		name   string
		wins   []win
		noPeer bool
		want   Level
	}{
		// Least-queue routing stops delivering to a wedged member.
		{name: "wedged", wins: cat(healthy, []win{{0, 4, 10}, {0, 4, 10}, {0, 4, 10}}), want: Critical},
		// Round-robin keeps delivering; the queue grows by all of it.
		{name: "wedged under round-robin", wins: cat(healthy, []win{{3, 3, 6}, {3, 6, 6}, {3, 9, 6}}), want: Critical},
		{name: "wedged from birth", wins: []win{{0, 4, 10}, {0, 4, 10}, {0, 4, 10}}, want: Critical},
		{name: "inside the window", wins: cat(healthy, []win{{0, 4, 10}, {0, 4, 10}}), want: Healthy},
		// Backlogged but consuming: each window takes 3, consumes 2.
		{name: "slow", wins: cat(healthy, []win{{3, 1, 6}, {3, 2, 6}, {3, 3, 6}}), want: Healthy},
		{name: "idle", wins: cat(healthy, []win{{0, 0, 10}, {0, 0, 10}, {0, 0, 10}}), want: Healthy},
		{name: "starved host", wins: cat(healthy, []win{{0, 4, 0}, {0, 4, 0}, {0, 4, 0}}), want: Healthy},
		{name: "no peers", wins: cat(healthy, []win{{0, 4, 10}, {0, 4, 10}, {0, 4, 10}}), noPeer: true, want: Healthy},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			c := NewChecker(f.roller)
			for _, w := range tc.wins {
				f.traffic("pool.3", w.delivered, 0, 0, 0)
				f.queue("pool.3", w.queued)
				f.traffic("pool.1", w.peerDelivered, 0, 0, 0)
				f.roll()
			}
			peers := []string{"pool.1"}
			if tc.noPeer {
				peers = nil
			}
			v := c.Check("pool.3", peers)
			if v.Level != tc.want {
				t.Fatalf("level = %s, want %s: %s", v.Level, tc.want, v.Summary())
			}
			stalled := len(v.Reasons) > 0 && strings.HasPrefix(v.Reasons[0], "stall:")
			if stalled != (tc.want == Critical) {
				t.Errorf("reasons = %q, want a stall: reason only with a Critical verdict", v.Reasons)
			}
			if last := v.Evidence[len(v.Evidence)-1]; last.Queued != tc.wins[len(tc.wins)-1].queued {
				t.Errorf("last evidence window queued = %d, want %d", last.Queued, tc.wins[len(tc.wins)-1].queued)
			}
		})
	}
}

func TestVerdictJSONLevel(t *testing.T) {
	b, err := Critical.MarshalJSON()
	if err != nil || string(b) != `"critical"` {
		t.Fatalf("MarshalJSON = %s, %v", b, err)
	}
}
