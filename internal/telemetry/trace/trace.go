// Package trace is the message-level causal-tracing layer of the
// reproduction: Dapper-style trace contexts stamped onto bus messages and a
// fixed-size lock-free flight recorder for completed delivery spans.
//
// The paper's Discussion section argues the transformation's steady-state
// cost is "a test of a flag", and that reconfiguration delay is dominated
// by waiting for the module to reach a reconfiguration point. Per-process
// aggregates (the telemetry registry) can quantify the first claim but not
// explain the second: they cannot show *which in-flight messages* a quiesce
// is waiting on, nor follow one request across bindings and machines. A
// trace context that the bus mints on first send and the module runtime
// carries across receive→send makes the causal chain observable end to end
// — with the same division of labour as the paper's transformation: the
// runtime does the bookkeeping, module code is untouched.
//
// Cost discipline mirrors the flag test. With sampling off the tracer
// stamps contexts (two atomic adds, no clock read) and records nothing:
// zero allocations on the message hot path. Only a sampled trace (head
// sampling, decided at mint and propagated in the flags) pays for a clock
// read at the send and another at the delivery, and for its span record —
// which the flight recorder hands out from a block of 64, so a sampled
// delivery costs 1/64 of an allocation and builds no strings.
package trace

import (
	"sync/atomic"
	"time"
)

// The trace clock is wall time captured once, when the process starts, plus
// the monotonic time elapsed since: half the price of time.Now, which reads
// both clocks, and a wall-clock step cannot make a span (or a
// delivery_latency_ns sum) negative. One process-local base is sound
// because SentNs is always stamped by the bus process that queues the
// message — the wire carries only the parent context — so a span's two
// ends are read off the same base.
var (
	clockBase   = time.Now()
	clockBaseNs = clockBase.UnixNano()
)

// Now returns the trace clock in Unix nanoseconds: the one clock behind
// Context.SentNs and SpanRecord.StartNs/EndNs.
//
//archlint:hotpath
func Now() int64 { return clockBaseNs + int64(time.Since(clockBase)) }

// FlagSampled marks a context whose delivery spans are recorded. The
// decision is made head-based at mint time and propagates with the context,
// so one causal chain is either recorded whole or not at all.
const FlagSampled uint32 = 1

// Context is the causal identity a message carries: which trace it belongs
// to, which span the carrying send is, which span caused it, and how many
// hops it has taken. The zero value means "untraced".
type Context struct {
	// TraceID identifies the causal chain; every message derived from the
	// same root request shares it. 0 means no context.
	TraceID uint64
	// SpanID identifies this message's send.
	SpanID uint64
	// Parent is the span this send was caused by (0 for a root send).
	Parent uint64
	// Hops counts receive→send handoffs since the root send.
	Hops uint32
	// Flags carries the sampling decision (FlagSampled).
	Flags uint32
	// SentNs is the send's timestamp on the trace clock (Now), in Unix
	// nanoseconds; delivery spans and quiesce-age snapshots derive from it.
	// It is stamped only on sampled contexts — the clock read is the single
	// largest cost of a stamp, so unsampled traffic skips it (SentNs stays 0
	// and consumers degrade: quiesce age reports -1, delivery spans are
	// never recorded for unsampled contexts anyway).
	SentNs int64
}

// Valid reports whether the context carries a trace.
func (c Context) Valid() bool { return c.TraceID != 0 }

// Sampled reports whether delivery spans of this trace are recorded.
func (c Context) Sampled() bool { return c.Flags&FlagSampled != 0 }

// Tracer mints and extends trace contexts and owns the flight recorder.
// All methods are safe for concurrent use and on a nil receiver (tracing
// disabled: StampBatch returns the zero Context).
type Tracer struct {
	nextTrace atomic.Uint64
	nextSpan  atomic.Uint64

	// sampleEvery is the head-sampling rate: every sampleEvery-th minted
	// trace is sampled (1 = all, 0 = none). Immutable after construction.
	sampleEvery uint64

	rec *Recorder
}

// NewTracer returns a tracer sampling every sampleEvery-th new trace into
// rec (sampleEvery <= 0 or rec == nil disables recording; contexts are
// still minted and propagated).
func NewTracer(sampleEvery int, rec *Recorder) *Tracer {
	t := &Tracer{rec: rec}
	if sampleEvery > 0 && rec != nil {
		t.sampleEvery = uint64(sampleEvery)
	}
	return t
}

// Recorder returns the tracer's flight recorder (nil when sampling is
// disabled or on a nil tracer).
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// MintTrace opens a new causal chain: a fresh trace ID, a root span, and
// the head-based sampling decision. Only the bus/transport layer may call
// it (pinned by a lint test) — module code never mints trace IDs.
//
//archlint:hotpath
func (t *Tracer) MintTrace() Context {
	if t == nil {
		return Context{}
	}
	id := t.nextTrace.Add(1)
	c := Context{
		TraceID: id,
		SpanID:  t.nextSpan.Add(1),
	}
	if t.sampleEvery != 0 && id%t.sampleEvery == 0 {
		c.Flags = FlagSampled
		c.SentNs = Now()
	}
	return c
}

// ChildSpan extends an existing chain across one receive→send handoff: the
// trace ID and sampling decision are inherited, the sending span becomes
// the parent, and the hop count increments.
//
//archlint:hotpath
func (t *Tracer) ChildSpan(parent Context) Context {
	if t == nil {
		return Context{}
	}
	c := Context{
		TraceID: parent.TraceID,
		SpanID:  t.nextSpan.Add(1),
		Parent:  parent.SpanID,
		Hops:    parent.Hops + 1,
		Flags:   parent.Flags,
	}
	if c.Flags&FlagSampled != 0 {
		c.SentNs = Now()
	}
	return c
}

// StampBatch stamps a batch of n sends with one span-counter reservation:
// a single atomic add claims n consecutive span ids, so the per-message
// cost of a batched send is plain arithmetic. It returns the context of
// the batch's FIRST message; message i of the batch carries the same
// context with SpanID+uint64(i). Span ids stay globally unique and mint
// order still agrees with emission order, which is what replay's
// OutputsOf sorts by.
//
// With a valid parent every message is a sibling child span of that
// parent (one receive→send hop fanning out n sends). Without a parent the
// batch opens one causal chain — one trace id, n root sibling spans — so
// the burst is sampled (or not) as a unit.
//
//archlint:hotpath
func (t *Tracer) StampBatch(parent Context, n int) Context {
	if t == nil {
		return Context{}
	}
	if n < 1 {
		n = 1
	}
	last := t.nextSpan.Add(uint64(n))
	c := Context{SpanID: last - uint64(n) + 1}
	if parent.Valid() {
		c.TraceID = parent.TraceID
		c.Parent = parent.SpanID
		c.Hops = parent.Hops + 1
		c.Flags = parent.Flags
	} else {
		id := t.nextTrace.Add(1)
		c.TraceID = id
		if t.sampleEvery != 0 && id%t.sampleEvery == 0 {
			c.Flags = FlagSampled
		}
	}
	if c.Flags&FlagSampled != 0 {
		c.SentNs = Now()
	}
	return c
}

// RecordDelivery records one completed delivery span — a message stamped
// with ctx, sent by from, consumed by to now — into the flight recorder and
// returns the span's end on the trace clock. It returns 0, before reading
// the clock, unless the context is sampled and a recorder is attached, and
// is safe on a nil tracer (a sampled context can arrive over TCP at a bus
// whose own tracing is off). from and to are retained, not copied: the bus
// passes the names it interned at AddInstance.
//
//archlint:hotpath
func (t *Tracer) RecordDelivery(ctx Context, from, to string) (endNs int64) {
	if t == nil || t.rec == nil || !ctx.Sampled() {
		return 0
	}
	endNs = Now()
	t.rec.Record(SpanRecord{
		TraceID: ctx.TraceID,
		SpanID:  ctx.SpanID,
		Parent:  ctx.Parent,
		Hops:    ctx.Hops,
		From:    from,
		To:      to,
		StartNs: ctx.SentNs,
		EndNs:   endNs,
	})
	return endNs
}
