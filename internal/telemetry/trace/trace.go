// Package trace is the message-level causal-tracing layer of the
// reproduction: Dapper-style trace contexts stamped onto bus messages. The
// flight recorder of completed delivery spans is not here: a sampled
// delivery is one record of the bus's delivery log (internal/replay), and
// the log's span view reads it back.
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
// stamps contexts (two atomic adds, no clock read) and nothing is written:
// zero allocations on the message hot path. Only a sampled trace (head
// sampling, decided at mint and propagated in the flags) pays for a clock
// read at the send and another at the delivery, and for its record in the
// delivery log — which the log hands out from a block of 64, so a sampled
// delivery costs 1/64 of an allocation and builds no strings; a delivery
// that is also recorded shares that one record. The tracer reads no clock
// itself: the bus stamps a sampled send, and the delivery log a sampled
// delivery's end, off the bus's clock.Clock (Nanos).
package trace

import "sync/atomic"

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
	TraceID uint64 `json:"trace_id"`
	// SpanID identifies this message's send.
	SpanID uint64 `json:"span_id"`
	// Parent is the span this send was caused by (0 for a root send).
	Parent uint64 `json:"parent,omitempty"`
	// Hops counts receive→send handoffs since the root send.
	Hops uint32 `json:"hops"`
	// Flags carries the sampling decision (FlagSampled).
	Flags uint32 `json:"flags,omitempty"`
	// SentNs is the send's timestamp on the bus's clock (clock.Clock.Nanos),
	// in Unix nanoseconds; delivery spans and quiesce-age snapshots derive
	// from it. One process-local base is sound because SentNs is always
	// stamped by the bus process that queues the message — the wire carries
	// only the parent context — so a span's two ends are read off one clock.
	// It is stamped only on sampled contexts — the clock read is the single
	// largest cost of a stamp, so unsampled traffic skips it (SentNs stays 0
	// and consumers degrade: quiesce age reports -1, delivery spans are
	// never recorded for unsampled contexts anyway).
	SentNs int64 `json:"sent_ns,omitempty"`
}

// Valid reports whether the context carries a trace.
func (c Context) Valid() bool { return c.TraceID != 0 }

// Sampled reports whether delivery spans of this trace are recorded.
func (c Context) Sampled() bool { return c.Flags&FlagSampled != 0 }

// Tracer mints and extends trace contexts. All methods are safe for
// concurrent use and on a nil receiver (tracing disabled: StampBatch returns
// the zero Context).
type Tracer struct {
	nextTrace atomic.Uint64
	nextSpan  atomic.Uint64

	// sampleEvery is the head-sampling rate: every sampleEvery-th minted
	// trace is sampled (1 = all, 0 = none). Immutable after construction.
	sampleEvery uint64
}

// NewTracer returns a tracer sampling every sampleEvery-th new trace
// (sampleEvery <= 0 samples none; contexts are still minted and
// propagated).
func NewTracer(sampleEvery int) *Tracer {
	return &Tracer{sampleEvery: uint64(max(sampleEvery, 0))}
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
	return Context{
		TraceID: parent.TraceID,
		SpanID:  t.nextSpan.Add(1),
		Parent:  parent.SpanID,
		Hops:    parent.Hops + 1,
		Flags:   parent.Flags,
	}
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
	return c
}
