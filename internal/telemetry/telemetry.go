// Package telemetry is the reproduction's observability substrate: a
// dependency-free metrics registry (atomic counters, computed gauges, fixed-bucket
// latency histograms) and a reconfiguration tracer that turns each
// transactional script run into a span timeline keyed by transaction ID.
//
// The paper's Discussion section argues costs qualitatively — the
// per-reconfiguration-point flag test is "negligible", state capture costs
// nothing until a reconfiguration happens. This package is what lets the
// repository *measure* those claims on live traffic (EXPERIMENTS.md
// "Discussion claims, measured"; TestWriteTelemetryAddsNoAllocs and
// TestFlagCheckZeroAlloc hold the instruments themselves to zero
// allocations) and what an operator reads through `reconfigctl stats` and
// `reconfigctl trace <txid>`.
//
// Fast-path discipline: Counter.Inc and Histogram.Observe are
// single atomic operations with no allocation, and every method is safe on
// a nil receiver (a no-op), so instrumented code never branches on "is
// telemetry enabled" — it holds possibly-nil metric pointers resolved once,
// off the hot path.
package telemetry

import (
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; all methods are safe on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
//
//archlint:hotpath
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
//
//archlint:hotpath
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Load returns the current count (0 on a nil receiver).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Registry holds named metrics. Names are flat dotted paths
// ("bus.iface.compute.request.delivered"); the registry get-or-creates on
// lookup so instrumentation sites need no registration ceremony. Lookup
// takes a mutex and may allocate — resolve metric pointers once, at
// instance-construction time, never per message. All methods are safe on a
// nil receiver: a nil *Registry hands out nil metrics, which are no-ops,
// so "telemetry disabled" is just a nil registry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gaugeFns map[string]func() int64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gaugeFns: map[string]func() int64{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// GaugeFunc registers a computed gauge: fn is evaluated at snapshot time.
// Use it for values that already live elsewhere (queue depths), so the hot
// path pays nothing. Re-registering a name replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = fn
}

// Histogram returns the named latency histogram, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Unregister removes every metric whose name starts with prefix and returns
// how many were removed. The bus uses it to drop per-interface metrics when
// an instance is deleted. Code still holding a removed counter may keep
// incrementing it harmlessly; it just no longer appears in snapshots.
func (r *Registry) Unregister(prefix string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for name := range r.counters {
		if strings.HasPrefix(name, prefix) {
			delete(r.counters, name)
			n++
		}
	}
	for name := range r.gaugeFns {
		if strings.HasPrefix(name, prefix) {
			delete(r.gaugeFns, name)
			n++
		}
	}
	for name := range r.hists {
		if strings.HasPrefix(name, prefix) {
			delete(r.hists, name)
			n++
		}
	}
	return n
}

// Snapshot is a point-in-time, JSON-marshalable view of a registry. Under
// concurrent writers the snapshot is internally consistent per metric (each
// value is one atomic load) but not across metrics — standard for a live
// metrics endpoint.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]int64          `json:"gauges,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// Snapshot captures every registered metric. Computed gauges are evaluated
// here, outside any hot path. A nil registry yields an empty Snapshot.
func (r *Registry) Snapshot() Snapshot {
	// Evaluate outside the registry lock: gauge functions may take other
	// locks (the bus's, for queue depths).
	h := r.Handles()
	s := Snapshot{
		Counters:   make(map[string]int64, len(h.Counters)),
		Gauges:     make(map[string]int64, len(h.GaugeFns)),
		Histograms: make(map[string]HistogramStats, len(h.Histograms)),
	}
	for k, c := range h.Counters {
		s.Counters[k] = c.Load()
	}
	for k, fn := range h.GaugeFns {
		s.Gauges[k] = fn()
	}
	for k, hist := range h.Histograms {
		s.Histograms[k] = hist.Stats()
	}
	return s
}

// Handles is a live view of a registry's metric handles by name. The maps
// are fresh copies (safe to iterate without the registry lock) but the
// handles are the live metrics: loading through them reads the same atomics
// the hot paths write. Every reader of the whole registry — Snapshot, the
// Prometheus exposition, the time-series roller once per window — starts
// from it, off every message path.
type Handles struct {
	Counters   map[string]*Counter
	GaugeFns   map[string]func() int64
	Histograms map[string]*Histogram
}

// Handles returns the current metric handles. Returns zero-value Handles on
// a nil registry.
func (r *Registry) Handles() Handles {
	if r == nil {
		return Handles{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Handles{
		Counters:   maps.Clone(r.counters),
		GaugeFns:   maps.Clone(r.gaugeFns),
		Histograms: maps.Clone(r.hists),
	}
}

// Names returns the sorted names of all registered metrics (tests and the
// operator surface use it).
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gaugeFns)+len(r.hists))
	for k := range r.counters {
		names = append(names, k)
	}
	for k := range r.gaugeFns {
		names = append(names, k)
	}
	for k := range r.hists {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
