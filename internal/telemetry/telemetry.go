// Package telemetry is the reproduction's observability substrate: a
// dependency-free metrics registry (atomic counters, gauges, fixed-bucket
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
// Fast-path discipline: Counter.Inc, Gauge.Set and Histogram.Observe are
// single atomic operations with no allocation, and every method is safe on
// a nil receiver (a no-op), so instrumented code never branches on "is
// telemetry enabled" — it holds possibly-nil metric pointers resolved once,
// off the hot path.
package telemetry

import (
	"sort"
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

// Gauge is an instantaneous atomic value. The zero value is ready to use;
// all methods are safe on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
//
//archlint:hotpath
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by delta (negative to decrease).
//
//archlint:hotpath
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Load returns the current value (0 on a nil receiver).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
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
	gauges   map[string]*Gauge
	gaugeFns map[string]func() int64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
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

// Gauge returns the named gauge, creating it on first use. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
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
		if hasPrefix(name, prefix) {
			delete(r.counters, name)
			n++
		}
	}
	for name := range r.gauges {
		if hasPrefix(name, prefix) {
			delete(r.gauges, name)
			n++
		}
	}
	for name := range r.gaugeFns {
		if hasPrefix(name, prefix) {
			delete(r.gaugeFns, name)
			n++
		}
	}
	for name := range r.hists {
		if hasPrefix(name, prefix) {
			delete(r.hists, name)
			n++
		}
	}
	return n
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
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
// here, outside any hot path. Returns a zero Snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	gaugeFns := make(map[string]func() int64, len(r.gaugeFns))
	for k, v := range r.gaugeFns {
		gaugeFns[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	// Evaluate outside the registry lock: gauge functions may take other
	// locks (the bus's, for queue depths).
	s := Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)+len(gaugeFns)),
		Histograms: make(map[string]HistogramStats, len(hists)),
	}
	for k, c := range counters {
		s.Counters[k] = c.Load()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Load()
	}
	for k, fn := range gaugeFns {
		s.Gauges[k] = fn()
	}
	for k, h := range hists {
		s.Histograms[k] = h.Stats()
	}
	return s
}

// Handles is a live view of a registry's metric handles by name. The maps
// are fresh copies (safe to iterate without the registry lock) but the
// handles are the live metrics: loading through them reads the same atomics
// the hot paths write. The time-series roller re-fetches this once per
// window, off every message path.
type Handles struct {
	Counters   map[string]*Counter
	Gauges     map[string]*Gauge
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
	h := Handles{
		Counters:   make(map[string]*Counter, len(r.counters)),
		Gauges:     make(map[string]*Gauge, len(r.gauges)),
		GaugeFns:   make(map[string]func() int64, len(r.gaugeFns)),
		Histograms: make(map[string]*Histogram, len(r.hists)),
	}
	for k, v := range r.counters {
		h.Counters[k] = v
	}
	for k, v := range r.gauges {
		h.Gauges[k] = v
	}
	for k, v := range r.gaugeFns {
		h.GaugeFns[k] = v
	}
	for k, v := range r.hists {
		h.Histograms[k] = v
	}
	return h
}

// Names returns the sorted names of all registered metrics (tests and the
// operator surface use it).
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.gaugeFns)+len(r.hists))
	for k := range r.counters {
		names = append(names, k)
	}
	for k := range r.gauges {
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
