package timeseries

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// fakeClock is a manually advanced clock for deterministic window edges.
type fakeClock struct{ ns int64 }

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.ns) }
func (c *fakeClock) advance(d time.Duration) { c.ns += int64(d) }

func newTestRoller(windows int) (*Roller, *telemetry.Registry, *fakeClock) {
	reg := telemetry.NewRegistry()
	clk := &fakeClock{ns: 1_000_000_000}
	r := New(reg, Config{Window: time.Second, Windows: windows, Now: clk.now})
	return r, reg, clk
}

func TestCounterDeltas(t *testing.T) {
	r, reg, clk := newTestRoller(8)
	c := reg.Counter("app.requests")
	c.Add(10)
	clk.advance(time.Second)
	r.Roll()
	c.Add(5)
	clk.advance(time.Second)
	r.Roll()
	clk.advance(time.Second)
	r.Roll() // idle window

	s, ok := r.Query("app.requests", 0)
	if !ok {
		t.Fatal("series not found")
	}
	if s.Kind != KindCounter {
		t.Fatalf("kind = %s, want counter", s.Kind)
	}
	want := []int64{10, 5, 0}
	if len(s.Points) != len(want) {
		t.Fatalf("got %d points, want %d", len(s.Points), len(want))
	}
	for i, w := range want {
		if s.Points[i].Value != w {
			t.Errorf("window %d delta = %d, want %d", i, s.Points[i].Value, w)
		}
	}
	// Window edges are contiguous.
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].StartNs != s.Points[i-1].EndNs {
			t.Errorf("window %d start %d != previous end %d", i, s.Points[i].StartNs, s.Points[i-1].EndNs)
		}
	}
}

func TestGaugeSamplesAndGaugeFunc(t *testing.T) {
	r, reg, clk := newTestRoller(8)
	var g atomic.Int64
	reg.GaugeFunc("app.depth", g.Load)
	depth := int64(7)
	reg.GaugeFunc("app.computed", func() int64 { return depth })

	g.Store(3)
	clk.advance(time.Second)
	r.Roll()
	g.Store(9)
	depth = 11
	clk.advance(time.Second)
	r.Roll()

	s, _ := r.Query("app.depth", 0)
	if s.Points[0].Value != 3 || s.Points[1].Value != 9 {
		t.Errorf("gauge samples = %d,%d want 3,9", s.Points[0].Value, s.Points[1].Value)
	}
	s, _ = r.Query("app.computed", 0)
	if s.Points[0].Value != 7 || s.Points[1].Value != 11 {
		t.Errorf("gauge-func samples = %d,%d want 7,11", s.Points[0].Value, s.Points[1].Value)
	}
}

func TestHistogramWindows(t *testing.T) {
	r, reg, clk := newTestRoller(8)
	h := reg.Histogram("app.latency_ns")
	for i := 0; i < 100; i++ {
		h.ObserveNs(1000)
	}
	clk.advance(time.Second)
	r.Roll()
	for i := 0; i < 100; i++ {
		h.ObserveNs(1_000_000)
	}
	clk.advance(time.Second)
	r.Roll()

	s, ok := r.Query("app.latency_ns", 0)
	if !ok || s.Kind != KindHistogram {
		t.Fatalf("missing histogram series (ok=%v kind=%s)", ok, s.Kind)
	}
	w0, w1 := s.Points[0].Hist, s.Points[1].Hist
	if w0.Count != 100 || w1.Count != 100 {
		t.Fatalf("window counts = %d,%d want 100,100", w0.Count, w1.Count)
	}
	// The second window's quantiles must reflect only the second window's
	// population: 1ms-scale, not 1us-scale.
	if w1.P99Ns < 500_000 {
		t.Errorf("second window p99 = %dns, want ~1ms (windowing leaked the first window in)", w1.P99Ns)
	}
	if w0.P99Ns > 10_000 {
		t.Errorf("first window p99 = %dns, want ~1us", w0.P99Ns)
	}
	if w1.SumNs != 100*1_000_000 {
		t.Errorf("second window sum = %d, want %d", w1.SumNs, 100*1_000_000)
	}
}

func TestRingBound(t *testing.T) {
	r, reg, clk := newTestRoller(4)
	c := reg.Counter("app.requests")
	for i := 1; i <= 10; i++ {
		c.Add(int64(i))
		clk.advance(time.Second)
		r.Roll()
	}
	s, _ := r.Query("app.requests", 0)
	if len(s.Points) != 4 {
		t.Fatalf("retained %d windows, want ring depth 4", len(s.Points))
	}
	// The last four deltas are 7, 8, 9, 10.
	for i, want := range []int64{7, 8, 9, 10} {
		if s.Points[i].Value != want {
			t.Errorf("point %d = %d, want %d", i, s.Points[i].Value, want)
		}
	}
	// Query with k smaller than retention trims from the oldest side.
	s, _ = r.Query("app.requests", 2)
	if len(s.Points) != 2 || s.Points[0].Value != 9 || s.Points[1].Value != 10 {
		t.Errorf("Query(2) = %+v, want deltas 9,10", s.Points)
	}
}

func TestUnregisterDropsSeries(t *testing.T) {
	r, reg, clk := newTestRoller(4)
	reg.Counter("bus.iface.x.req.delivered").Add(3)
	clk.advance(time.Second)
	r.Roll()
	if _, ok := r.Query("bus.iface.x.req.delivered", 0); !ok {
		t.Fatal("series missing before unregister")
	}
	reg.Unregister("bus.iface.x.")
	clk.advance(time.Second)
	r.Roll()
	if _, ok := r.Query("bus.iface.x.req.delivered", 0); ok {
		t.Error("series survived unregister + roll")
	}
	// Re-registering the same name starts a fresh series with reset deltas.
	reg.Counter("bus.iface.x.req.delivered").Add(2)
	clk.advance(time.Second)
	r.Roll()
	s, ok := r.Query("bus.iface.x.req.delivered", 0)
	if !ok || len(s.Points) != 1 || s.Points[0].Value != 2 {
		t.Errorf("re-registered series = %+v, want single window delta 2", s.Points)
	}
}

func TestMemoryBoundFixed(t *testing.T) {
	r, reg, clk := newTestRoller(16)
	for i := 0; i < 10; i++ {
		reg.Counter("c" + string(rune('a'+i))).Inc()
	}
	reg.Histogram("h").ObserveNs(1)
	clk.advance(time.Second)
	r.Roll()
	bound := r.MemoryBound()
	if bound <= 0 {
		t.Fatal("zero memory bound")
	}
	// Rolling more windows must not grow the bound: it is population-, not
	// time-proportional.
	for i := 0; i < 100; i++ {
		clk.advance(time.Second)
		r.Roll()
	}
	if got := r.MemoryBound(); got != bound {
		t.Errorf("memory bound grew with time: %d -> %d", bound, got)
	}
}

func TestStartStop(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("c").Inc()
	r := New(reg, Config{Window: time.Millisecond, Windows: 8})
	r.Start()
	defer r.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for r.Rolled() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("background roller made no progress")
		}
		time.Sleep(time.Millisecond)
	}
	r.Stop()
	at := r.Rolled()
	time.Sleep(5 * time.Millisecond)
	if r.Rolled() != at {
		t.Error("roller still rolling after Stop")
	}
}
