// Package replay is the delivery log: one bounded ring of the messages the
// bus delivers, written once per delivery at consumption, and its two
// readers. The replay view (Log: Snapshot, QueueSeqs, the spill stream of
// spill.go) sees the deliveries made while recording is enabled; the span
// view (Spans, the flight recorder behind the traces and trace ops) sees
// the deliveries whose trace context is sampled. A delivery that is both is
// one record in both views. Each record carries the sending and receiving
// endpoints, the routing epoch the delivery was resolved under and the
// causal trace context stamped by the bus; a recorded delivery adds the
// payload bytes exactly as encoded by the module's codec and a
// per-destination-queue sequence (QSeq, assigned under the destination
// queue's lock, so it is the queue's total delivery order), a sampled one
// the instant it was consumed (EndNs). Every record has a global ring
// sequence (Seq, assigned by one atomic increment).
//
// Ordering guarantees. Per-queue total order is exact: appends for one
// QueueLog happen under that queue's mutex, in push order. Cross-queue
// order is causally consistent: a module reads its input (recorded at
// delivery i) before it writes the downstream message (recorded at
// delivery j), so i's global Seq precedes j's, and the trace context
// (trace/span/parent/hops) ties the two records to one causal chain.
// What is NOT deterministic across runs is the global interleaving of
// unrelated queues and the trace identifiers and timestamps themselves —
// Canonical excludes them, which is why two recordings of the same seeded
// run render identically.
package replay

import (
	"bytes"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/ring"
	"repro/internal/telemetry/trace"
)

// Record is one delivered message.
type Record struct {
	// Seq is the log's global sequence, assigned at append; snapshots are
	// in its order, oldest first. It is causally consistent: a record that
	// happened-before another (same queue, or linked by a trace hop) has
	// the smaller Seq.
	Seq uint64 `json:"seq"`
	// QSeq is the destination queue's own delivery sequence, gapless and
	// monotonic per To endpoint for the lifetime of the log; 0 on a
	// delivery made while recording was off (a span only).
	QSeq uint64 `json:"qseq,omitempty"`
	// Epoch is the version of the routing snapshot the delivery was
	// resolved under (the slow path records the version it re-resolved
	// against while holding the writer lock).
	Epoch uint64 `json:"epoch"`
	// From and To are "instance.interface" endpoints.
	From string `json:"from"`
	To   string `json:"to"`
	// Trace is the causal context the bus stamped on the message; its
	// SentNs is a span's start.
	Trace trace.Context `json:"trace"`
	// Data is a private copy of the payload bytes as encoded by the
	// sender's codec (recorded deliveries only).
	Data []byte `json:"data,omitempty"`
	// EndNs is when the message was consumed, on the trace clock: the end
	// of its delivery span. Nonzero exactly on sampled deliveries.
	EndNs int64 `json:"end_ns,omitempty"`
}

// endpointInstance returns the instance part of an "instance.interface"
// endpoint.
func endpointInstance(ep string) string {
	if i := strings.LastIndexByte(ep, '.'); i >= 0 {
		return ep[:i]
	}
	return ep
}

// EndpointIface returns the interface part of an "instance.interface"
// endpoint, as a Record's From and To spell it.
func EndpointIface(ep string) string {
	if i := strings.LastIndexByte(ep, '.'); i >= 0 {
		return ep[i+1:]
	}
	return ""
}

// Log is the delivery log: the most recent deliveries in an internal/ring,
// written in place, plus what each view adds to it — recording's on switch,
// per-queue sequences and the spill stream. Recording starts disabled and
// spans are written only by a log built for them; the bus hook checks one
// atomic bool and one flag, and a delivery that is neither recorded nor
// sampled allocates nothing. An append overwrites the record its slot held
// and copies the payload into storage the slot keeps, so once the ring has
// gone round it allocates nothing (a payload over maxCarved excepted). The
// views' counts are read off the slots (census), not kept on the way.
type Log struct {
	recs  *ring.Ring[entry]
	on    atomic.Bool
	spans bool // sampled deliveries are written as spans; fixed by NewLog

	// chunk is the allocation slots carve payload storage from, so the first
	// lap pays a share of one; nil until the first, replaced (never
	// refilled) when used up. chunks counts those ever installed.
	chunk  atomic.Pointer[chunk]
	chunks atomic.Int64

	// queues interns one QueueLog per destination endpoint so a queue's
	// delivery sequence survives instance re-registration (a clone reusing
	// a name after rollback continues the same sequence).
	qmu    sync.Mutex
	queues map[string]*QueueLog

	// spill, when set, receives every recorded delivery as one frame, built
	// in spillBuf and serialized by spillMu. The first write error sticks
	// and stops further spilling. spilling mirrors spill != nil, so an
	// append with no spill stream skips the mutex.
	spilling atomic.Bool
	spillMu  sync.Mutex
	spill    io.Writer
	spillBuf []byte
	spillErr error
}

// entry is one slot of the log's ring: the record it holds now, the payload
// storage it reuses, and what was ever written to it.
type entry struct {
	Record
	// store is the slot's payload storage, carved from the log's chunk: a
	// payload of at most maxCarved bytes is copied into it, and Data is its
	// prefix. A payload it cannot hold gets a new carve, at least twice as
	// large; a larger payload an allocation of its own as Data, which goes
	// when the record is overwritten.
	store []byte
	// recs and spans count the recorded deliveries and the spans written
	// to this slot, a lapped writer's dropped record included.
	recs, spans uint64
}

// NewLog returns a log retaining the capacity most recent deliveries
// (minimum 16, default 4096 when capacity <= 0), and its append half.
// Recording starts disabled; call Enable. With spans, every delivery of a
// sampled trace is written too, as a span, whether or not recording is on.
// The Writer is handed out here only: whoever builds a log decides who
// appends to it, and a holder of the *Log alone reads and switches it.
func NewLog(capacity int, spans bool) (*Log, Writer) {
	l := &Log{
		recs:   ring.New[entry](capacity, 4096),
		spans:  spans,
		queues: map[string]*QueueLog{},
	}
	return l, Writer{l}
}

func (l *Log) buf() *ring.Ring[entry] {
	if l == nil {
		return nil
	}
	return l.recs
}

// Enable turns recording on (nil-safe no-op).
func (l *Log) Enable() {
	if l != nil {
		l.on.Store(true)
	}
}

// Disable turns recording off (nil-safe no-op). Already-recorded entries
// stay readable.
func (l *Log) Disable() {
	if l != nil {
		l.on.Store(false)
	}
}

// Enabled reports whether recording is on (false on nil).
func (l *Log) Enabled() bool { return l != nil && l.on.Load() }

// Cap returns the ring's fixed capacity, shared by both views (0 on nil).
func (l *Log) Cap() int { return l.buf().Cap() }

// Appended returns how many records the ring has ever published, both
// views together: one per delivery that was recorded, sampled or both.
func (l *Log) Appended() uint64 { return l.buf().Cursor() }

// Recorded returns the total number of deliveries ever recorded (0 on
// nil); it can exceed Cap once the ring wraps.
func (l *Log) Recorded() uint64 { return l.census().recs }

// census is what one walk over the slots finds: the records and spans ever
// written to them, those they still hold, and the bytes of the payloads
// too large to carve among those.
type census struct {
	recs, spans         uint64
	heldRecs, heldSpans uint64
	large               int
}

func (l *Log) census() (c census) {
	l.buf().Each(func(e *entry) {
		c.recs += e.recs
		c.spans += e.spans
		if e.QSeq != 0 {
			c.heldRecs++
		}
		if e.EndNs != 0 {
			c.heldSpans++
		}
		if len(e.Data) > maxCarved {
			c.large += cap(e.Data)
		}
	})
	return c
}

// Len returns the number of recorded deliveries currently retained (0 on
// nil).
func (l *Log) Len() int { return int(l.census().heldRecs) }

// Overwritten returns how many recorded deliveries the ring no longer
// holds: nonzero means a Snapshot is not the whole recording.
func (l *Log) Overwritten() uint64 {
	c := l.census()
	return c.recs - c.heldRecs
}

// MemoryBound returns a bound on the log's retained memory in bytes: the
// ring's own (its segment table and the segments allocated, see
// ring.MemoryBound), every payload chunk ever installed, whole, and each
// retained payload over maxCarved. A slot carves only for a payload its
// storage cannot hold, so the sum stops growing with the first lap while
// payload sizes hold steady. Not counted: From and To, the bus's interned
// interface names.
func (l *Log) MemoryBound() int {
	if l == nil {
		return 0
	}
	return l.recs.MemoryBound() + int(l.chunks.Load())*chunkBytes + l.census().large
}

// Writer is a log's append half, as NewLog hands it out. The zero Writer
// belongs to no log: its handles are nil.
type Writer struct{ l *Log }

// Queue interns and returns the append handle for one destination endpoint,
// named "instance.interface", so a queue's delivery sequence survives
// instance re-registration: a clone reusing a name after rollback continues
// the same sequence. A zero Writer returns a nil handle, whose Append is a
// no-op, so the bus resolves handles unconditionally at AddInstance: a log
// is off by default (no recording, no sampling), and the off mode is the
// one production runs.
func (w Writer) Queue(ep string) *QueueLog {
	l := w.l
	if l == nil {
		return nil
	}
	l.qmu.Lock()
	defer l.qmu.Unlock()
	q, ok := l.queues[ep]
	if !ok {
		q = &QueueLog{log: l, to: ep}
		l.queues[ep] = q
	}
	return q
}

// copies returns the retained records keep accepts, oldest first, each the
// reader's own: its payload is copied, so no later write to the slot
// reaches it.
func (l *Log) copies(keep func(*Record) bool) (out []Record) {
	l.buf().Since(0, func(e *entry) {
		if keep(&e.Record) {
			r := e.Record
			r.Data = bytes.Clone(r.Data)
			out = append(out, r)
		}
	})
	return out
}

// Snapshot returns copies of the retained recorded deliveries in
// global-sequence order, oldest first (nil on nil or empty).
func (l *Log) Snapshot() []Record {
	return l.copies(func(r *Record) bool { return r.QSeq != 0 })
}

// QueueSeqs returns the per-destination delivery sequence high-water
// marks, sorted by endpoint.
func (l *Log) QueueSeqs() []QueueSeq {
	if l == nil {
		return nil
	}
	l.qmu.Lock()
	out := make([]QueueSeq, 0, len(l.queues))
	for ep, q := range l.queues {
		out = append(out, QueueSeq{Endpoint: ep, Seq: q.seq.Load()})
	}
	l.qmu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}

// QueueSeq is one destination queue's delivery high-water mark.
type QueueSeq struct {
	Endpoint string `json:"endpoint"`
	Seq      uint64 `json:"seq"`
}

// Spans is the log's span view, the flight recorder: the retained
// deliveries of sampled traces, each a span from its send (Trace.SentNs) to
// its consumption (EndNs). Under concurrent writers a snapshot is a
// consistent set of recently published records, not an atomic cut —
// standard for a flight recorder. All methods are safe on a nil receiver:
// tracing off is a nil *Spans.
type Spans Log

// Spans returns the span view, nil unless the log was built with spans.
func (l *Log) Spans() *Spans {
	if l == nil || !l.spans {
		return nil
	}
	return (*Spans)(l)
}

// Recorded returns the total number of spans ever written.
func (s *Spans) Recorded() int64 { return int64((*Log)(s).census().spans) }

// Overwritten returns how many written spans the ring no longer holds.
func (s *Spans) Overwritten() uint64 {
	c := (*Log)(s).census()
	return c.spans - c.heldSpans
}

// Snapshot returns copies of the retained spans, oldest first.
func (s *Spans) Snapshot() []Record {
	return (*Log)(s).copies(func(r *Record) bool { return r.EndNs != 0 })
}

// ByTrace returns copies of the retained spans of one trace, oldest first.
func (s *Spans) ByTrace(traceID uint64) []Record {
	return (*Log)(s).copies(func(r *Record) bool { return r.EndNs != 0 && r.Trace.TraceID == traceID })
}

// QueueLog is the per-destination-queue append handle: the bus resolves it
// from its log's Writer at AddInstance and hands it to the receiving queue,
// which invokes it under its consumer lock — that lock is what makes QSeq
// the queue's true delivery order. A nil handle is a no-op; an unsampled
// delivery to a log that is not recording costs one atomic load and one
// flag test.
type QueueLog struct {
	log *Log
	to  string
	seq atomic.Uint64
}

// A slot's payload storage of at most maxCarved bytes is carved from a
// chunkBytes allocation shared by consecutive slots; a larger payload gets
// an allocation of its own.
const (
	chunkBytes = 4096
	maxCarved  = 1024
)

// chunk is one shared payload allocation, handed out left to right by a
// bump offset and never reused.
type chunk struct {
	off atomic.Uint32 // bytes handed out (may overshoot chunkBytes)
	buf [chunkBytes]byte
}

// Append writes one delivery to this queue as one record: recorded (a
// payload copy and the next QSeq) while recording is on, a span (EndNs,
// read off clk, the clock tc.SentNs was stamped on) when the log writes
// spans and tc is sampled, and not at all when it is neither. It returns
// the span's end, 0 for no span. from is the sending endpoint's
// "instance.interface" name, retained as passed (the bus passes the name it
// interned at AddInstance). data is copied into the slot's storage; the
// caller's buffer is never retained. QSeq is the queue's delivery order
// only when the caller holds the destination queue's lock (the handle's
// holder, the bus's queue, appends as it removes a message); the sequence
// itself is an atomic add, because a re-registered endpoint
// shares this handle with its predecessor's draining queue. A recorded
// delivery pays four atomic read-modify-writes: that sequence, the ring's
// cursor, and the slot's lock and unlock; a span alone pays the last three.
//
//archlint:hotpath
func (q *QueueLog) Append(from string, data []byte, tc trace.Context, epoch uint64, clk clock.Clock) (endNs int64) {
	if q == nil {
		return 0
	}
	l := q.log
	recording, span := l.on.Load(), l.spans && tc.Sampled()
	if !recording && !span {
		return 0
	}
	var qseq uint64
	if recording {
		qseq = q.seq.Add(1)
	}
	if span {
		endNs = clk.Nanos()
	}
	seq, e, fresh := l.recs.Claim()
	if fresh {
		// Every field of the record, overwritten in place.
		e.Seq, e.QSeq, e.Epoch, e.From, e.To, e.Trace, e.EndNs = seq, qseq, epoch, from, q.to, tc, endNs
		e.Data = nil
		if recording {
			e.Data = l.keep(e, data)
		}
	}
	if recording {
		e.recs++
		if l.spilling.Load() { // from the arguments: a lapped writer's record is in no slot
			spilled := Record{Seq: seq, QSeq: qseq, Epoch: epoch, From: from, To: q.to, Trace: tc, Data: data}
			l.spillRecord(&spilled)
		}
	}
	if span {
		e.spans++
	}
	l.recs.Publish(e)
	return endNs
}

// keep copies data into e's storage and returns the copy (nil for none).
//
//archlint:hotpath
func (l *Log) keep(e *entry, data []byte) []byte {
	n := len(data)
	switch {
	case n == 0:
		return nil
	case n > maxCarved:
		return bytes.Clone(data)
	case n > cap(e.store):
		l.restock(e, n)
	}
	return e.store[:copy(e.store[:n], data)]
}

// restock carves e storage for an n-byte payload from the log's chunk: n
// bytes for a slot's first, at least twice its last after that. The cold
// half of keep.
func (l *Log) restock(e *entry, n int) {
	size := uint32(min(max(n, 2*cap(e.store)), maxCarved))
	for {
		c := l.chunk.Load()
		if c != nil {
			if end := c.off.Add(size); end <= chunkBytes {
				e.store = c.buf[end-size : end : end]
				return
			}
		}
		if l.chunk.CompareAndSwap(c, new(chunk)) {
			l.chunks.Add(1)
		}
	}
}
