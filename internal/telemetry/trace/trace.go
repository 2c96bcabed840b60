// Package trace is the message-level causal-tracing layer of the
// reproduction: Dapper-style trace contexts stamped onto bus messages. The
// bus mints and extends them (its stamper, which no other package can
// reach); everything else carries them opaquely. The flight recorder of
// completed delivery spans is not here either: a sampled delivery is one
// record of the bus's delivery log (internal/replay), and the log's span
// view reads it back.
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
// Cost discipline mirrors the flag test. With sampling off the bus stamps
// contexts (two atomic adds, no clock read) and nothing is written: zero
// allocations on the message hot path. Only a sampled trace (head
// sampling, decided at mint and propagated in the flags) pays for a clock
// read at the send and another at the delivery, and for its record in the
// delivery log — written in place once the log has gone round, so a
// sampled delivery builds no strings; a delivery that is also recorded
// shares that one record. Both clock reads are the bus's clock.Clock
// (Nanos): the bus stamps a sampled send, and the delivery log a sampled
// delivery's end.
package trace

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
