// Package timeseries turns the registry's cumulative atomics into bounded
// windowed history: a background roller samples every counter, gauge and
// histogram once per window (default 1s) and stores per-window deltas —
// counter increments, gauge samples, and windowed histogram quantiles
// computed from bucket-count differences — in a fixed ring of windows
// (default 120, so two minutes of 1s history).
//
// The design constraint is the same one the paper applies to the
// reconfiguration flag test: the steady state must not pay for the
// capability. The roller reads the registry's existing atomics off the hot
// path; send/deliver code is untouched and stays zero allocations per
// message (the rollups-on arm of internal/bus's TestObservedPathAllocs).
// Readers (the /timeseries endpoint, the health checker, reconfigctl
// watch) take the roller's mutex, which no message path ever touches.
package timeseries

import (
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Kind names the metric kind of a series.
type Kind string

// Series kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// HistWindow summarizes one window of histogram observations: the delta of
// the cumulative bucket counts across the window, reduced to count, sum and
// interpolated quantiles.
type HistWindow struct {
	Count int64 `json:"count"`
	SumNs int64 `json:"sum_ns"`
	P50Ns int64 `json:"p50_ns"`
	P95Ns int64 `json:"p95_ns"`
	P99Ns int64 `json:"p99_ns"`
}

// Point is one window of one series. Value carries the counter delta or
// gauge sample; Hist is set for histogram series instead.
type Point struct {
	StartNs int64       `json:"start_ns"`
	EndNs   int64       `json:"end_ns"`
	Value   int64       `json:"value,omitempty"`
	Hist    *HistWindow `json:"hist,omitempty"`
}

// Series is the windowed history of one metric, oldest window first.
type Series struct {
	Metric   string  `json:"metric"`
	Kind     Kind    `json:"kind"`
	WindowNs int64   `json:"window_ns"`
	Points   []Point `json:"points"`
}

// Config parameterizes a Roller.
type Config struct {
	// Window is the rollup period (default 1s).
	Window time.Duration
	// Windows is the ring depth in windows (default 120, minimum 2).
	Windows int
	// Now supplies the clock (default time.Now); tests inject a fake.
	Now func() time.Time
}

// series is one metric's ring state. A series exists for exactly the
// contiguous run of rolls [first..last]; a metric absent from the registry
// at a roll (Unregister) is dropped and re-registers as a fresh series.
type series struct {
	kind  Kind
	first uint64 // roll number (1-based) of the first recorded window
	vals  []int64
	hist  []HistWindow

	// Cumulative state for delta computation (counters and histograms).
	cum        int64
	cumSum     int64
	cumBuckets [telemetry.NumBuckets]int64
}

// Roller owns the window ring. Roll (called by the background loop, or
// directly by fake-clock tests) closes the current window for every
// registered metric; Query serves bounded history per metric.
type Roller struct {
	reg    *telemetry.Registry
	window time.Duration
	n      int
	now    func() time.Time

	mu     sync.Mutex
	rolled uint64 // completed windows; window j lives at ring index (j-1)%n
	starts []int64
	ends   []int64
	series map[string]*series
	lastNs int64 // start of the currently open window

	stop chan struct{}
	done chan struct{}
}

// New builds a roller over reg. The first window opens at construction
// time; nothing is recorded until the first Roll.
func New(reg *telemetry.Registry, cfg Config) *Roller {
	if cfg.Window <= 0 {
		cfg.Window = time.Second
	}
	if cfg.Windows <= 0 {
		cfg.Windows = 120
	}
	if cfg.Windows < 2 {
		cfg.Windows = 2
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Roller{
		reg:    reg,
		window: cfg.Window,
		n:      cfg.Windows,
		now:    cfg.Now,
		starts: make([]int64, cfg.Windows),
		ends:   make([]int64, cfg.Windows),
		series: map[string]*series{},
		lastNs: cfg.Now().UnixNano(),
	}
}

// Window returns the rollup period.
func (r *Roller) Window() time.Duration {
	if r == nil {
		return 0
	}
	return r.window
}

// Depth returns the ring depth in windows.
func (r *Roller) Depth() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Roll closes the current window: every registered metric gets one point
// (counter delta, gauge sample, or windowed histogram stats). Metrics that
// left the registry since the last roll are dropped. Safe on nil.
func (r *Roller) Roll() {
	if r == nil {
		return
	}
	nowNs := r.now().UnixNano()

	// Read every metric before taking r.mu: gauge functions may take other
	// locks (the bus's, for queue depths), and none of this touches a hot
	// path — it is one pass per window.
	h := r.reg.Handles()
	cvals := make(map[string]int64, len(h.Counters))
	for name, c := range h.Counters {
		cvals[name] = c.Load()
	}
	gvals := make(map[string]int64, len(h.GaugeFns))
	for name, fn := range h.GaugeFns {
		gvals[name] = fn()
	}
	type histSnap struct {
		buckets [telemetry.NumBuckets]int64
		sum     int64
	}
	hvals := make(map[string]histSnap, len(h.Histograms))
	for name, hist := range h.Histograms {
		hvals[name] = histSnap{buckets: hist.Buckets(), sum: hist.Sum()}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.rolled++
	idx := int((r.rolled - 1) % uint64(r.n))
	r.starts[idx] = r.lastNs
	r.ends[idx] = nowNs
	r.lastNs = nowNs

	for name, val := range cvals {
		s := r.ensureLocked(name, KindCounter)
		delta := val - s.cum
		if delta < 0 {
			// The counter was re-registered under the same name mid-window;
			// treat the new cumulative value as the window's delta.
			delta = val
		}
		s.cum = val
		s.vals[idx] = delta
	}
	for name, val := range gvals {
		s := r.ensureLocked(name, KindGauge)
		s.vals[idx] = val
	}
	for name, snap := range hvals {
		s := r.ensureLocked(name, KindHistogram)
		var delta [telemetry.NumBuckets]int64
		var count int64
		reset := false
		for i := range snap.buckets {
			d := snap.buckets[i] - s.cumBuckets[i]
			if d < 0 {
				reset = true
				break
			}
			delta[i] = d
			count += d
		}
		sum := snap.sum - s.cumSum
		if reset || sum < 0 {
			delta = snap.buckets
			count = 0
			for _, d := range delta {
				count += d
			}
			sum = snap.sum
		}
		s.cumBuckets = snap.buckets
		s.cumSum = snap.sum
		s.hist[idx] = HistWindow{
			Count: count,
			SumNs: sum,
			P50Ns: telemetry.BucketQuantile(&delta, count, 0.50),
			P95Ns: telemetry.BucketQuantile(&delta, count, 0.95),
			P99Ns: telemetry.BucketQuantile(&delta, count, 0.99),
		}
	}

	// Drop series for metrics gone from the registry, keeping every live
	// series contiguous through the current roll (the query path relies on
	// [first..rolled] being fully recorded).
	for name, s := range r.series {
		switch s.kind {
		case KindCounter:
			if _, ok := cvals[name]; ok {
				continue
			}
		case KindGauge:
			if _, ok := gvals[name]; ok {
				continue
			}
		case KindHistogram:
			if _, ok := hvals[name]; ok {
				continue
			}
		}
		delete(r.series, name)
	}
}

// ensureLocked returns the live series for name, creating (or re-typing, if
// a name changed kind across an unregister) as needed.
func (r *Roller) ensureLocked(name string, kind Kind) *series {
	s := r.series[name]
	if s == nil || s.kind != kind {
		s = &series{kind: kind, first: r.rolled}
		if kind == KindHistogram {
			s.hist = make([]HistWindow, r.n)
		} else {
			s.vals = make([]int64, r.n)
		}
		r.series[name] = s
	}
	return s
}

// Query returns the last k windows of one metric, oldest first (all
// retained windows when k <= 0). The second result is false for unknown
// metrics. Safe on nil.
func (r *Roller) Query(metric string, k int) (Series, bool) {
	if r == nil {
		return Series{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[metric]
	if !ok {
		return Series{}, false
	}
	out := Series{Metric: metric, Kind: s.kind, WindowNs: int64(r.window)}
	lo := s.first
	if r.rolled >= uint64(r.n) && lo <= r.rolled-uint64(r.n) {
		lo = r.rolled - uint64(r.n) + 1
	}
	if k > 0 && r.rolled >= uint64(k) && lo <= r.rolled-uint64(k) {
		lo = r.rolled - uint64(k) + 1
	}
	for j := lo; j <= r.rolled; j++ {
		idx := int((j - 1) % uint64(r.n))
		p := Point{StartNs: r.starts[idx], EndNs: r.ends[idx]}
		if s.kind == KindHistogram {
			hw := s.hist[idx]
			p.Hist = &hw
		} else {
			p.Value = s.vals[idx]
		}
		out.Points = append(out.Points, p)
	}
	return out, true
}

// Names returns the sorted names of every live series.
func (r *Roller) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.series))
	for name := range r.series {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Rolled returns the number of completed windows.
func (r *Roller) Rolled() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rolled
}

// MemoryBound returns the ring's current retained memory in bytes: the
// window timestamp rings plus every series' value or histogram ring. It
// grows only with the metric population, never with time — the per-metric
// cost is fixed at Windows entries.
func (r *Roller) MemoryBound() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	const histWindowBytes = 5 * 8
	total := 2 * r.n * 8
	for _, s := range r.series {
		if s.kind == KindHistogram {
			total += r.n * histWindowBytes
		} else {
			total += r.n * 8
		}
	}
	return total
}

// Start launches the background roller goroutine. Stop halts it.
func (r *Roller) Start() {
	if r == nil || r.stop != nil {
		return
	}
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	go r.loop() //archlint:spawn timeseries roller; exits when Stop closes the stop channel
}

func (r *Roller) loop() {
	defer close(r.done)
	t := time.NewTicker(r.window)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.Roll()
		}
	}
}

// Stop halts the background roller and waits for it to exit. A no-op if
// Start was never called. Safe on nil.
func (r *Roller) Stop() {
	if r == nil || r.stop == nil {
		return
	}
	close(r.stop)
	<-r.done
	r.stop = nil
}
