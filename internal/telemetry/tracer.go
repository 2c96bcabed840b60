package telemetry

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
)

// Span is one timed phase of a reconfiguration transaction (quiesce wait,
// divulge wait, state move, rebind, restore ack, commit or rollback).
// Notes carry span-scoped annotations — e.g. the trace IDs and ages of the
// messages a quiesce wait found queued toward its target.
type Span struct {
	Name  string
	Start time.Time
	End   time.Time
	Notes []string
}

// Duration returns the span's length (0 while it is still open).
func (s Span) Duration() time.Duration {
	if s.End.IsZero() {
		return 0
	}
	return s.End.Sub(s.Start)
}

// Trace is the span timeline of one transactional reconfiguration,
// correlated by transaction ID with the transaction's completed steps.
type Trace struct {
	ID      string
	Op      string // e.g. "replace compute -> compute2"
	Begin   time.Time
	End     time.Time // zero while running
	Outcome string    // "committed", "rolled-back", or "running"
	Spans   []Span
	// Steps is the primitive audit trail of the same transaction (the
	// TxResult step trace), attached at Finish so one artifact carries both
	// the when (spans) and the what (primitives).
	Steps []string
}

// Timeline renders the trace for operator display: a header, one line per
// span with offset and duration, then the correlated primitive steps.
func (t *Trace) Timeline() []string {
	end := t.End
	if end.IsZero() && len(t.Spans) > 0 {
		end = t.Spans[len(t.Spans)-1].End
	}
	total := "running"
	if !end.IsZero() {
		total = fmt.Sprintf("total %.3fms", float64(end.Sub(t.Begin).Microseconds())/1000.0)
	}
	lines := []string{fmt.Sprintf("%s %s: %s (%s)", t.ID, t.Op, t.Outcome, total)}
	for _, s := range t.Spans {
		off := float64(s.Start.Sub(t.Begin).Microseconds()) / 1000.0
		if s.End.IsZero() {
			lines = append(lines, fmt.Sprintf("  +%9.3fms  %-14s (open)", off, s.Name))
		} else {
			dur := float64(s.Duration().Microseconds()) / 1000.0
			lines = append(lines, fmt.Sprintf("  +%9.3fms  %-14s %9.3fms", off, s.Name, dur))
		}
		for _, note := range s.Notes {
			lines = append(lines, "      - "+note)
		}
	}
	if len(t.Steps) > 0 {
		lines = append(lines, "  steps:")
		for _, step := range t.Steps {
			lines = append(lines, "    "+step)
		}
	}
	return lines
}

// RetainedTraces is how many of the most recent traces a Tracer keeps.
const RetainedTraces = 64

// Tracer assigns transaction IDs and retains the RetainedTraces most recent
// traces in a bounded ring. All methods are safe for concurrent use.
type Tracer struct {
	mu     sync.Mutex
	nextID int64
	order  []string // oldest first
	traces map[string]*Trace
	clk    clock.Clock
	reg    *Registry
}

// NewTracer returns a tracer timing spans on clk. Each Finish observes
// every closed span's duration into reg's "reconfig.span.<name>_ns"
// histogram and the whole transaction into "reconfig.tx_total_ns", so the
// latency distribution of reconfigurations is available as aggregate
// buckets (the /metrics endpoint) alongside the per-transaction timelines.
func NewTracer(clk clock.Clock, reg *Registry) *Tracer {
	return &Tracer{traces: map[string]*Trace{}, clk: clk, reg: reg}
}

// Begin opens a new trace for one transaction and returns its builder.
func (t *Tracer) Begin(op string) *TxTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	id := fmt.Sprintf("tx-%04d", t.nextID)
	tr := &Trace{ID: id, Op: op, Begin: t.clk.Now(), Outcome: "running"}
	t.traces[id] = tr
	t.order = append(t.order, id)
	for len(t.order) > RetainedTraces {
		delete(t.traces, t.order[0])
		t.order = t.order[1:]
	}
	return &TxTrace{tracer: t, trace: tr}
}

// Get returns a copy of the trace with the given transaction ID.
func (t *Tracer) Get(id string) (*Trace, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.traces[id]
	if !ok {
		return nil, false
	}
	cp := *tr
	cp.Spans = append([]Span(nil), tr.Spans...)
	for i := range cp.Spans {
		cp.Spans[i].Notes = append([]string(nil), cp.Spans[i].Notes...)
	}
	cp.Steps = append([]string(nil), tr.Steps...)
	return &cp, true
}

// IDs returns the retained transaction IDs, oldest first.
func (t *Tracer) IDs() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.order...)
}

// Trail returns the steps of every retained transaction, oldest first — the
// audit trail of the reconfigurations this tracer still remembers — and
// whether older transactions have already been dropped from it.
func (t *Tracer) Trail() (steps []string, truncated bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range t.order {
		steps = append(steps, t.traces[id].Steps...)
	}
	return steps, t.nextID > int64(len(t.order))
}

// TxTrace builds one transaction's trace. It is owned by the single
// goroutine running the transaction (the paper's model has one
// reconfiguration authority).
type TxTrace struct {
	tracer *Tracer
	trace  *Trace
	open   bool // a span is in progress
}

// ID returns the transaction ID.
func (b *TxTrace) ID() string {
	return b.trace.ID
}

// StartSpan closes any open span and opens a new one.
func (b *TxTrace) StartSpan(name string) {
	b.tracer.mu.Lock()
	defer b.tracer.mu.Unlock()
	now := b.tracer.clk.Now()
	b.endOpenLocked(now)
	b.trace.Spans = append(b.trace.Spans, Span{Name: name, Start: now})
	b.open = true
}

func (b *TxTrace) endOpenLocked(now time.Time) {
	if !b.open {
		return
	}
	b.trace.Spans[len(b.trace.Spans)-1].End = now
	b.open = false
}

// Annotate appends a note to the currently open span (a no-op between
// spans). The quiesce wait uses it to
// record which queued messages — trace IDs and ages — it is waiting on.
func (b *TxTrace) Annotate(note string) {
	b.tracer.mu.Lock()
	defer b.tracer.mu.Unlock()
	if !b.open {
		return
	}
	s := &b.trace.Spans[len(b.trace.Spans)-1]
	s.Notes = append(s.Notes, note)
}

// Finish closes the trace with its outcome ("committed" or "rolled-back")
// and attaches the correlated primitive step trace.
func (b *TxTrace) Finish(outcome string, steps []string) {
	b.tracer.mu.Lock()
	defer b.tracer.mu.Unlock()
	now := b.tracer.clk.Now()
	b.endOpenLocked(now)
	b.trace.End = now
	b.trace.Outcome = outcome
	b.trace.Steps = append([]string(nil), steps...)
	reg := b.tracer.reg
	for _, s := range b.trace.Spans {
		if !s.End.IsZero() {
			reg.Histogram("reconfig.span."+s.Name+"_ns", Labels{}).Observe(s.Duration())
		}
	}
	reg.Histogram("reconfig.tx_total_ns", Labels{}).Observe(now.Sub(b.trace.Begin))
}
