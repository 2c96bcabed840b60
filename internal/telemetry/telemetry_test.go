package telemetry

import (
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	if c := r.Counter("x"); c != nil {
		t.Fatalf("nil registry returned non-nil counter")
	}
	if h := r.Histogram("x"); h != nil {
		t.Fatalf("nil registry returned non-nil histogram")
	}
	r.GaugeFunc("x", func() int64 { return 1 })
	if n := r.Unregister("x"); n != 0 {
		t.Fatalf("nil registry Unregister = %d, want 0", n)
	}
	if names := r.Names(); names != nil {
		t.Fatalf("nil registry Names = %v, want nil", names)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}

	// Nil metric handles are no-ops, the contract instrumented code relies on.
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Fatalf("nil counter Load != 0")
	}
	var h *Histogram
	h.Observe(time.Millisecond)
	h.ObserveNs(42)
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("nil histogram not empty")
	}
	if (h.Stats() != HistogramStats{}) {
		t.Fatalf("nil histogram stats not zero")
	}

	var tr *Tracer
	b := tr.Begin("noop")
	if b != nil {
		t.Fatalf("nil tracer Begin returned non-nil builder")
	}
	b.StartSpan("x")
	b.EndSpan()
	b.Finish("committed", nil)
	if b.ID() != "" {
		t.Fatalf("nil TxTrace ID = %q, want empty", b.ID())
	}
	if _, ok := tr.Get("tx-0001"); ok {
		t.Fatalf("nil tracer Get returned ok")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a.b")
	c2 := r.Counter("a.b")
	if c1 != c2 {
		t.Fatalf("Counter not idempotent")
	}
	c1.Add(7)
	if got := r.Counter("a.b").Load(); got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
	r.GaugeFunc("g", func() int64 { return -3 })
	r.GaugeFunc("fn", func() int64 { return 11 })
	r.Histogram("h").ObserveNs(100)

	snap := r.Snapshot()
	if snap.Counters["a.b"] != 7 || snap.Gauges["g"] != -3 || snap.Gauges["fn"] != 11 {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}
	if snap.Histograms["h"].Count != 1 {
		t.Fatalf("histogram snapshot mismatch: %+v", snap.Histograms["h"])
	}
	want := []string{"a.b", "fn", "g", "h"}
	got := r.Names()
	if len(got) != len(want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names = %v, want %v", got, want)
		}
	}

	// Snapshot must be JSON-marshalable: it is the control plane's payload.
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot marshal: %v", err)
	}
}

func TestUnregisterPrefix(t *testing.T) {
	r := NewRegistry()
	r.Counter("bus.iface.comp.in.delivered").Inc()
	r.Counter("bus.iface.comp.out.sent").Inc()
	r.GaugeFunc("bus.iface.comp.in.queue_depth", func() int64 { return 0 })
	r.Histogram("mh.comp.capture_ns").ObserveNs(5)
	r.Counter("bus.iface.other.in.delivered").Inc()

	if n := r.Unregister("bus.iface.comp."); n != 3 {
		t.Fatalf("Unregister removed %d, want 3", n)
	}
	names := r.Names()
	for _, name := range names {
		if strings.HasPrefix(name, "bus.iface.comp.") {
			t.Fatalf("name %q survived Unregister", name)
		}
	}
	if len(names) != 2 {
		t.Fatalf("Names after Unregister = %v, want 2 entries", names)
	}
}

// TestSnapshotConcurrent drives writers on all metric kinds while snapshots
// are taken; run under -race this is the data-race proof for the registry.
func TestSnapshotConcurrent(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	stop := make(chan struct{})
	var g atomic.Int64 // what the computed gauge reads
	r.GaugeFunc("g", g.Load)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := r.Counter("c")
			h := r.Histogram("h")
			for n := int64(1); ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Store(n)
				h.ObserveNs(n%1000 + 1)
				// Concurrent get-or-create churn on distinct names too.
				r.Counter("churn").Inc()
			}
		}(i)
	}
	for r.Counter("c").Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	var last Snapshot
	for i := 0; i < 50; i++ {
		last = r.Snapshot()
	}
	close(stop)
	wg.Wait()
	final := r.Snapshot()
	if final.Counters["c"] < last.Counters["c"] {
		t.Fatalf("counter went backwards: %d then %d", last.Counters["c"], final.Counters["c"])
	}
	if final.Counters["c"] == 0 {
		t.Fatalf("no counter progress under concurrency")
	}
	h := final.Histograms["h"]
	if h.Count == 0 || h.MinNs < 1 || h.MaxNs > 1024 {
		t.Fatalf("histogram stats out of range: %+v", h)
	}
	if h.P50Ns < h.MinNs || h.P99Ns > 2*h.MaxNs {
		t.Fatalf("percentiles inconsistent: %+v", h)
	}
}

// TestHistogramPercentiles checks the percentile estimates against known
// distributions. Buckets are powers of two, so estimates carry at most the
// containing bucket's width of error; assert relative tolerance 2x.
func TestHistogramPercentiles(t *testing.T) {
	within2x := func(got, want int64) bool {
		if want == 0 {
			return got == 0
		}
		return got >= want/2 && got <= want*2
	}

	t.Run("uniform", func(t *testing.T) {
		h := &Histogram{}
		// 1..10000 uniformly: true p50=5000, p95=9500, p99=9900.
		for i := int64(1); i <= 10000; i++ {
			h.ObserveNs(i)
		}
		if h.Count() != 10000 {
			t.Fatalf("count = %d", h.Count())
		}
		for _, tc := range []struct {
			q    float64
			want int64
		}{{0.50, 5000}, {0.95, 9500}, {0.99, 9900}} {
			got := h.Quantile(tc.q)
			if !within2x(got, tc.want) {
				t.Errorf("q%.2f = %d, want within 2x of %d", tc.q, got, tc.want)
			}
		}
		st := h.Stats()
		if st.MinNs != 1 || st.MaxNs != 10000 {
			t.Errorf("min/max = %d/%d, want 1/10000", st.MinNs, st.MaxNs)
		}
		if st.SumNs != 10000*10001/2 {
			t.Errorf("sum = %d, want %d", st.SumNs, int64(10000*10001/2))
		}
	})

	t.Run("bimodal", func(t *testing.T) {
		h := &Histogram{}
		// 95% fast (~100ns), 5% slow (~1ms): p50 in the fast mode, p99 in
		// the slow mode — the shape that matters for a latency histogram.
		for i := 0; i < 950; i++ {
			h.ObserveNs(100)
		}
		for i := 0; i < 50; i++ {
			h.ObserveNs(1_000_000)
		}
		if got := h.Quantile(0.50); !within2x(got, 100) {
			t.Errorf("p50 = %d, want ~100", got)
		}
		if got := h.Quantile(0.99); !within2x(got, 1_000_000) {
			t.Errorf("p99 = %d, want ~1ms", got)
		}
	})

	t.Run("exponential", func(t *testing.T) {
		h := &Histogram{}
		rng := rand.New(rand.NewSource(1))
		// Exponential with mean 10µs: true p50 = mean*ln2 ≈ 6931ns,
		// p95 ≈ 29957ns, p99 ≈ 46052ns.
		for i := 0; i < 100000; i++ {
			h.ObserveNs(int64(rng.ExpFloat64() * 10000))
		}
		for _, tc := range []struct {
			q    float64
			want int64
		}{{0.50, 6931}, {0.95, 29957}, {0.99, 46052}} {
			got := h.Quantile(tc.q)
			if !within2x(got, tc.want) {
				t.Errorf("q%.2f = %d, want within 2x of %d", tc.q, got, tc.want)
			}
		}
	})

	t.Run("edge cases", func(t *testing.T) {
		h := &Histogram{}
		if h.Quantile(0.5) != 0 {
			t.Errorf("empty histogram quantile != 0")
		}
		h.ObserveNs(0) // lands in bucket 0
		if got := h.Quantile(0.5); got != 0 {
			t.Errorf("all-zero quantile = %d", got)
		}
		h2 := &Histogram{}
		h2.ObserveNs(777)
		for _, q := range []float64{-1, 0, 0.5, 1, 2} {
			if got := h2.Quantile(q); !within2x(got, 777) {
				t.Errorf("single-sample q%v = %d, want ~777", q, got)
			}
		}
	})
}

// TestFastPathZeroAlloc is the tentpole's zero-allocation guarantee:
// Counter.Inc and Histogram.Observe must not allocate, including
// through nil receivers (telemetry disabled).
func TestFastPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h")
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.ObserveNs(12345) }); n != 0 {
		t.Errorf("Histogram.ObserveNs allocates %v/op", n)
	}
	var nc *Counter
	var nh *Histogram
	if n := testing.AllocsPerRun(1000, func() { nc.Inc(); nh.ObserveNs(1) }); n != 0 {
		t.Errorf("nil fast path allocates %v/op", n)
	}
}

func TestTracerTimeline(t *testing.T) {
	tr := NewTracer(8)
	now := time.Unix(100, 0)
	tr.SetClock(func() time.Time {
		now = now.Add(5 * time.Millisecond)
		return now
	})

	b := tr.Begin("replace compute -> compute2")
	if b.ID() != "tx-0001" {
		t.Fatalf("ID = %q, want tx-0001", b.ID())
	}
	b.StartSpan("quiesce_wait")
	b.StartSpan("divulge_wait") // implicitly ends quiesce_wait
	b.EndSpan()
	b.StartSpan("rebind")
	b.Finish("committed", []string{"obj_cap compute", "rebind 4 edits"})

	got, ok := tr.Get("tx-0001")
	if !ok {
		t.Fatalf("Get missed tx-0001")
	}
	if got.Outcome != "committed" {
		t.Fatalf("outcome = %q", got.Outcome)
	}
	if len(got.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(got.Spans))
	}
	for i, s := range got.Spans {
		if s.End.IsZero() || !s.End.After(s.Start) {
			t.Fatalf("span %d not closed: %+v", i, s)
		}
	}
	if len(got.Steps) != 2 {
		t.Fatalf("steps = %v", got.Steps)
	}

	lines := got.Timeline()
	if len(lines) != 1+3+1+2 {
		t.Fatalf("timeline lines = %d:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	head := lines[0]
	for _, want := range []string{"tx-0001", "replace compute -> compute2", "committed", "total"} {
		if !strings.Contains(head, want) {
			t.Errorf("header %q missing %q", head, want)
		}
	}
	for _, want := range []string{"quiesce_wait", "divulge_wait", "rebind"} {
		if !strings.Contains(strings.Join(lines, "\n"), want) {
			t.Errorf("timeline missing span %q", want)
		}
	}
	if !strings.Contains(lines[4], "steps:") || !strings.Contains(lines[5], "obj_cap compute") {
		t.Errorf("steps section malformed:\n%s", strings.Join(lines, "\n"))
	}

	// The copy from Get is detached from later tracer writes.
	got.Steps[0] = "mutated"
	again, _ := tr.Get("tx-0001")
	if again.Steps[0] != "obj_cap compute" {
		t.Fatalf("Get returned aliased trace")
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.Begin("op").Finish("committed", nil)
	}
	ids := tr.IDs()
	if len(ids) != 3 {
		t.Fatalf("IDs = %v, want 3 entries", ids)
	}
	if ids[0] != "tx-0003" || ids[2] != "tx-0005" {
		t.Fatalf("IDs = %v, want tx-0003..tx-0005", ids)
	}
	if _, ok := tr.Get("tx-0001"); ok {
		t.Fatalf("evicted trace still retrievable")
	}
	if _, ok := tr.Get("tx-0005"); !ok {
		t.Fatalf("latest trace missing")
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(16)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				b := tr.Begin("op")
				b.StartSpan("s")
				b.Finish("committed", []string{"step"})
				tr.IDs()
				if id := b.ID(); id != "" {
					tr.Get(id)
				}
			}
		}()
	}
	wg.Wait()
	if len(tr.IDs()) != 16 {
		t.Fatalf("retained %d traces, want 16", len(tr.IDs()))
	}
}
