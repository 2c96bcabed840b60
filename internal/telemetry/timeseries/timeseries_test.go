package timeseries

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
)

// newTestRoller starts a roller with 1s windows on a virtual clock. tick
// closes one window: it advances the clock a window and returns once the
// background loop has rolled and re-armed its timer, so window edges are
// exact and no roll is in flight when the test reads.
func newTestRoller(t *testing.T) (r *Roller, reg *telemetry.Registry, tick func()) {
	reg = telemetry.NewRegistry()
	v := clock.NewVirtual(time.Unix(1, 0))
	r = New(reg, v.Clock(), time.Second)
	r.Start()
	t.Cleanup(r.Stop)
	v.BlockUntil(1)
	return r, reg, func() {
		v.Advance(time.Second)
		v.BlockUntil(1)
	}
}

func TestCounterDeltas(t *testing.T) {
	r, reg, tick := newTestRoller(t)
	c := reg.Counter("app.requests", telemetry.Labels{})
	c.Add(10)
	tick()
	c.Add(5)
	tick()
	tick() // idle window

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
	r, reg, tick := newTestRoller(t)
	var g atomic.Int64
	reg.GaugeFunc("app.depth", telemetry.Labels{}, g.Load)
	depth := int64(7)
	reg.GaugeFunc("app.computed", telemetry.Labels{}, func() int64 { return depth })

	g.Store(3)
	tick()
	g.Store(9)
	depth = 11
	tick()

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
	r, reg, tick := newTestRoller(t)
	h := reg.Histogram("app.latency_ns", telemetry.Labels{})
	for i := 0; i < 100; i++ {
		h.ObserveNs(1000)
	}
	tick()
	for i := 0; i < 100; i++ {
		h.ObserveNs(1_000_000)
	}
	tick()

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
	r, reg, tick := newTestRoller(t)
	c := reg.Counter("app.requests", telemetry.Labels{})
	const rolls = Windows + 6
	for i := 1; i <= rolls; i++ {
		c.Add(int64(i))
		tick()
	}
	s, _ := r.Query("app.requests", 0)
	if len(s.Points) != Windows {
		t.Fatalf("retained %d windows, want ring depth %d", len(s.Points), Windows)
	}
	// The retained deltas are the last Windows ones: 7 through rolls.
	for i, p := range s.Points {
		if want := int64(7 + i); p.Value != want {
			t.Errorf("point %d = %d, want %d", i, p.Value, want)
		}
	}
	// Query with k smaller than retention trims from the oldest side.
	s, _ = r.Query("app.requests", 2)
	if len(s.Points) != 2 || s.Points[0].Value != rolls-1 || s.Points[1].Value != rolls {
		t.Errorf("Query(2) = %+v, want deltas %d,%d", s.Points, rolls-1, rolls)
	}
}

func TestUnregisterDropsSeries(t *testing.T) {
	r, reg, tick := newTestRoller(t)
	reg.Counter("bus.iface.x.req.delivered", telemetry.Labels{}).Add(3)
	tick()
	if _, ok := r.Query("bus.iface.x.req.delivered", 0); !ok {
		t.Fatal("series missing before unregister")
	}
	reg.Unregister("bus.iface.x.req.delivered")
	tick()
	if _, ok := r.Query("bus.iface.x.req.delivered", 0); ok {
		t.Error("series survived unregister + roll")
	}
	// Re-registering the same name starts a fresh series with reset deltas.
	reg.Counter("bus.iface.x.req.delivered", telemetry.Labels{}).Add(2)
	tick()
	s, ok := r.Query("bus.iface.x.req.delivered", 0)
	if !ok || len(s.Points) != 1 || s.Points[0].Value != 2 {
		t.Errorf("re-registered series = %+v, want single window delta 2", s.Points)
	}
}

func TestMemoryBoundFixed(t *testing.T) {
	r, reg, tick := newTestRoller(t)
	for i := 0; i < 10; i++ {
		reg.Counter("c"+string(rune('a'+i)), telemetry.Labels{}).Inc()
	}
	reg.Histogram("h", telemetry.Labels{}).ObserveNs(1)
	tick()
	bound := r.MemoryBound()
	if bound <= 0 {
		t.Fatal("zero memory bound")
	}
	// Rolling more windows, round the ring and past it, must not grow the
	// bound: it is population-, not time-proportional.
	for i := 0; i < Windows+10; i++ {
		tick()
	}
	if got := r.MemoryBound(); got != bound {
		t.Errorf("memory bound grew with time: %d -> %d", bound, got)
	}
}

func TestStartStop(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("c", telemetry.Labels{}).Inc()
	v := clock.NewVirtual(time.Unix(1, 0))
	r := New(reg, v.Clock(), time.Millisecond)
	r.Start()
	for i := 0; i < 3; i++ {
		v.BlockUntil(1)
		v.Advance(time.Millisecond)
	}
	v.BlockUntil(1)
	if r.Rolled() != 3 {
		t.Fatalf("rolled %d windows in three, want 3", r.Rolled())
	}
	r.Stop() // returns once the loop has exited: nothing rolls after it
	v.Advance(time.Second)
	if r.Rolled() != 3 {
		t.Error("roller still rolling after Stop")
	}
}

// TestNextClosesOnRoll pins the roll signal: the channel Next returns
// closes with the roll after it, each roll hands out a fresh one, and a nil
// roller's never closes.
func TestNextClosesOnRoll(t *testing.T) {
	r, _, tick := newTestRoller(t)
	next := r.Next()
	select {
	case <-next:
		t.Fatal("Next closed before any roll")
	default:
	}
	tick()
	select {
	case <-next:
	default:
		t.Fatal("Next still open after a roll")
	}
	if again := r.Next(); again == next {
		t.Error("the roll did not replace the channel it closed")
	}
}
