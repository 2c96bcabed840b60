// Package timeseries turns the registry's cumulative atomics into bounded
// windowed history: a background roller samples every counter, gauge and
// histogram once per window (default 1s) and stores per-window deltas —
// counter increments, gauge samples, and windowed histogram quantiles
// computed from bucket-count differences — in a fixed ring of Windows
// windows (two minutes of 1s history).
//
// The design constraint is the same one the paper applies to the
// reconfiguration flag test: the steady state must not pay for the
// capability. The roller reads the registry's existing atomics off the hot
// path; send/deliver code is untouched and stays zero allocations per
// message (the rollups-on arm of internal/bus's TestObservedPathAllocs).
// Readers (the /timeseries endpoint, the health checker, reconfigctl
// watch) take the roller's mutex, which no message path ever touches.
//
// Windows are measured on the clock.Clock of whoever builds the roller (the
// application's): under a virtual clock a window closes when the test
// advances the clock past it, and only the background loop ever rolls.
//
// A series keeps the labels its metric was registered with, copied once
// when the series is created, so a reader selects an instance's series by
// owner (InstanceSeries) and never by parsing the dotted name.
package timeseries

import (
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
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
// Labels are the metric's registered labels (not part of the JSON
// document, whose metric names are the dotted keys).
type Series struct {
	Metric   string           `json:"metric"`
	Kind     Kind             `json:"kind"`
	WindowNs int64            `json:"window_ns"`
	Points   []Point          `json:"points"`
	Labels   telemetry.Labels `json:"-"`
}

// Windows is the ring depth: how many closed windows a series retains.
const Windows = 120

// series is one metric's ring state. A series exists for exactly the
// contiguous run of rolls [first..last]; a metric absent from the registry
// at a roll (Unregister) is dropped and re-registers as a fresh series.
type series struct {
	kind   Kind
	labels telemetry.Labels
	first  uint64 // roll number (1-based) of the first recorded window
	vals   []int64
	hist   []HistWindow

	// Cumulative state for delta computation (counters and histograms).
	cum        int64
	cumSum     int64
	cumBuckets [telemetry.NumBuckets]int64
}

// Roller owns the window ring. roll (called by the background loop once a
// window) closes the current window for every registered metric; Query
// serves bounded history per metric.
type Roller struct {
	reg    *telemetry.Registry
	window time.Duration
	clk    clock.Clock

	mu     sync.Mutex
	rolled uint64 // completed windows; window j lives at ring index (j-1)%n
	starts []int64
	ends   []int64
	series map[string]*series
	lastNs int64         // start of the currently open window
	next   chan struct{} // closed and replaced by each roll

	stop chan struct{}
	done chan struct{}
}

// New builds a roller over reg that closes a window every window (1s when
// window <= 0), measured on clk. The first window opens at construction
// time; nothing is recorded until the first roll.
func New(reg *telemetry.Registry, clk clock.Clock, window time.Duration) *Roller {
	if window <= 0 {
		window = time.Second
	}
	return &Roller{
		reg:    reg,
		window: window,
		clk:    clk,
		starts: make([]int64, Windows),
		ends:   make([]int64, Windows),
		series: map[string]*series{},
		lastNs: clk.Now().UnixNano(),
		next:   make(chan struct{}),
	}
}

// Window returns the rollup period.
func (r *Roller) Window() time.Duration { return r.window }

// roll closes the current window: every registered metric gets one point
// (counter delta, gauge sample, or windowed histogram stats). Metrics that
// left the registry since the last roll are dropped.
func (r *Roller) roll() {
	nowNs := r.clk.Now().UnixNano()

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
	idx := int((r.rolled - 1) % Windows)
	r.starts[idx] = r.lastNs
	r.ends[idx] = nowNs
	r.lastNs = nowNs

	for name, val := range cvals {
		s := r.ensureLocked(name, KindCounter, h.Labels)
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
		s := r.ensureLocked(name, KindGauge, h.Labels)
		s.vals[idx] = val
	}
	for name, snap := range hvals {
		s := r.ensureLocked(name, KindHistogram, h.Labels)
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
	close(r.next)
	r.next = make(chan struct{})
}

// Next returns a channel the next roll closes. A waiter takes it before
// reading what the roller stored, so a roll that lands after the read still
// wakes it.
func (r *Roller) Next() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// ensureLocked returns the live series for name, creating (or re-typing, if
// a name changed kind across an unregister) as needed. A new series takes
// its metric's labels from labels.
func (r *Roller) ensureLocked(name string, kind Kind, labels map[string]telemetry.Labels) *series {
	s := r.series[name]
	if s == nil || s.kind != kind {
		s = &series{kind: kind, labels: labels[name], first: r.rolled}
		if kind == KindHistogram {
			s.hist = make([]HistWindow, Windows)
		} else {
			s.vals = make([]int64, Windows)
		}
		r.series[name] = s
	}
	return s
}

// Query returns the last k windows of one metric, oldest first (all
// retained windows when k <= 0). The second result is false for unknown
// metrics.
func (r *Roller) Query(metric string, k int) (Series, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[metric]
	if !ok {
		return Series{}, false
	}
	return r.queryLocked(metric, s, k), true
}

// InstanceSeries returns the last k windows of every series registered
// with instance label inst, in no particular order.
func (r *Roller) InstanceSeries(inst string, k int) []Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Series
	for name, s := range r.series {
		if s.labels.Instance == inst {
			out = append(out, r.queryLocked(name, s, k))
		}
	}
	return out
}

// queryLocked renders the last k windows of one series (all retained
// windows when k <= 0), oldest first.
func (r *Roller) queryLocked(metric string, s *series, k int) Series {
	out := Series{Metric: metric, Kind: s.kind, WindowNs: int64(r.window), Labels: s.labels}
	lo := s.first
	if r.rolled >= Windows && lo <= r.rolled-Windows {
		lo = r.rolled - Windows + 1
	}
	if k > 0 && r.rolled >= uint64(k) && lo <= r.rolled-uint64(k) {
		lo = r.rolled - uint64(k) + 1
	}
	for j := lo; j <= r.rolled; j++ {
		idx := int((j - 1) % Windows)
		p := Point{StartNs: r.starts[idx], EndNs: r.ends[idx]}
		if s.kind == KindHistogram {
			hw := s.hist[idx]
			p.Hist = &hw
		} else {
			p.Value = s.vals[idx]
		}
		out.Points = append(out.Points, p)
	}
	return out
}

// Names returns the sorted names of every live series.
func (r *Roller) Names() []string {
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
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rolled
}

// MemoryBound returns the ring's current retained memory in bytes: the
// window timestamp rings plus every series' value or histogram ring. It
// grows only with the metric population, never with time — the per-metric
// cost is fixed at Windows entries.
func (r *Roller) MemoryBound() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	const histWindowBytes = 5 * 8
	total := 2 * Windows * 8
	for _, s := range r.series {
		if s.kind == KindHistogram {
			total += Windows * histWindowBytes
		} else {
			total += Windows * 8
		}
	}
	return total
}

// Start launches the background roller goroutine. Stop halts it.
func (r *Roller) Start() {
	if r.stop != nil {
		return
	}
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	go r.loop() //archlint:spawn timeseries roller; exits when Stop closes the stop channel
}

// loop rolls once a window. It arms one timer per window rather than a
// ticker, so under a virtual clock the loop is back waiting (a waiter
// BlockUntil counts) exactly when the previous window's roll is done.
func (r *Roller) loop() {
	defer close(r.done)
	for {
		t := r.clk.NewTimer(r.window)
		select {
		case <-r.stop:
			t.Stop()
			return
		case <-t.C:
			r.roll()
		}
	}
}

// Stop halts the background roller and waits for it to exit. A no-op if
// Start was never called.
func (r *Roller) Stop() {
	if r.stop == nil {
		return
	}
	close(r.stop)
	<-r.done
	r.stop = nil
}
