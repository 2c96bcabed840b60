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
// Every metric is registered with the Labels its registration site knows —
// the Prometheus family and the instance, interface or group that owns it —
// so the exposition (expo.go) groups families and the health checker finds
// an instance's series without parsing a dotted name.
//
// Fast-path discipline: Counter.Inc and Histogram.Observe are
// single atomic operations with no allocation, on metric pointers resolved
// once, off the hot path. There is no "telemetry disabled" mode: whoever
// builds a bus, a module runtime or an application builds its registry, so
// every handle is live.
package telemetry

import (
	"maps"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
//
//archlint:hotpath
func (c *Counter) Inc() {
	c.v.Add(1)
}

// Add adds n.
//
//archlint:hotpath
func (c *Counter) Add(n int64) {
	c.v.Add(n)
}

// Load returns the current count.
func (c *Counter) Load() int64 {
	return c.v.Load()
}

// Labels is what the site that registers a metric knows about it: the
// Prometheus family it renders in and the owner it is attributed to. The
// zero Labels renders the metric flat under its sanitized dotted name.
// Empty owner fields are omitted; the rest render in field order.
type Labels struct {
	Family    string
	Instance  string
	Interface string
	Group     string
}

// The families a reader outside the registering package selects by: the
// health checker judges an instance on the bus's per-receiving-interface
// metrics and the mh runtime's error count.
const (
	FamilyDelivered       = "bus_iface_delivered"
	FamilyDeliveryLatency = "bus_iface_delivery_latency_ns"
	FamilyQueueDepth      = "bus_iface_queue_depth"
	FamilyErrors          = "mh_errors"
)

// Registry holds named metrics. Names are flat dotted paths
// ("bus.iface.compute.request.delivered") and stay the keys of every
// reader; the Labels a metric was registered with say who owns it, so no
// reader parses a name. The registry get-or-creates on lookup so
// instrumentation sites need no registration ceremony. Lookup takes a mutex
// and may allocate — resolve metric pointers once, at instance-construction
// time, never per message.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gaugeFns map[string]func() int64
	hists    map[string]*Histogram
	labels   map[string]Labels // non-zero labels only
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gaugeFns: map[string]func() int64{},
		hists:    map[string]*Histogram{},
		labels:   map[string]Labels{},
	}
}

// labelLocked records a metric's labels when it is created.
func (r *Registry) labelLocked(name string, l Labels) {
	if l == (Labels{}) {
		delete(r.labels, name)
		return
	}
	r.labels[name] = l
}

// Counter returns the named counter, creating it with labels l on first
// use (a later lookup's labels are ignored).
func (r *Registry) Counter(name string, l Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.labelLocked(name, l)
	}
	return c
}

// GaugeFunc registers a computed gauge: fn is evaluated at snapshot time.
// Use it for values that already live elsewhere (queue depths), so the hot
// path pays nothing. Re-registering a name replaces the function and its
// labels.
func (r *Registry) GaugeFunc(name string, l Labels, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = fn
	r.labelLocked(name, l)
}

// Histogram returns the named latency histogram, creating it with labels l
// on first use.
func (r *Registry) Histogram(name string, l Labels) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
		r.labelLocked(name, l)
	}
	return h
}

// Unregister removes the named metrics, whatever their kind, and returns
// how many it found. The bus uses it to drop an instance's per-interface
// metrics when the instance is deleted — by name, never by prefix, since
// instance names may contain dots. Code still holding a removed counter may
// keep incrementing it harmlessly; it just no longer appears in snapshots.
func (r *Registry) Unregister(names ...string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.counters) + len(r.gaugeFns) + len(r.hists)
	for _, name := range names {
		delete(r.counters, name)
		delete(r.gaugeFns, name)
		delete(r.hists, name)
		delete(r.labels, name)
	}
	return n - len(r.counters) - len(r.gaugeFns) - len(r.hists)
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
// here, outside any hot path.
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
// from it, off every message path. Labels holds the registered labels of
// every labeled metric; a name absent from it is flat.
type Handles struct {
	Counters   map[string]*Counter
	GaugeFns   map[string]func() int64
	Histograms map[string]*Histogram
	Labels     map[string]Labels
}

// Handles returns the current metric handles.
func (r *Registry) Handles() Handles {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Handles{
		Counters:   maps.Clone(r.counters),
		GaugeFns:   maps.Clone(r.gaugeFns),
		Histograms: maps.Clone(r.hists),
		Labels:     maps.Clone(r.labels),
	}
}
