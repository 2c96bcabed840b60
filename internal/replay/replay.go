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
	"io"
	"slices"
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

// endpointIface returns the interface part of an "instance.interface"
// endpoint.
func endpointIface(ep string) string {
	if i := strings.LastIndexByte(ep, '.'); i >= 0 {
		return ep[i+1:]
	}
	return ""
}

// Log is the delivery log: the most recent deliveries in an internal/ring
// (lock-free appends, readers never block writers) plus what each view
// adds to it — recording's on switch, per-queue sequences, payload
// accounting and the spill stream, and the span count. Recording starts
// disabled and spans are written only by a log built for them; the bus
// hook checks one atomic bool and one flag, and a delivery that is neither
// recorded nor sampled allocates nothing. An append takes its record from
// the ring's current block and a payload copy from the queue's current
// chunk, so it allocates only when one of them is used up.
type Log struct {
	recs  *ring.Ring[Record]
	on    atomic.Bool
	spans bool // sampled deliveries are written as spans; fixed by NewLog

	// sampled counts the spans ever written; lostRecords and lostSpans the
	// recorded deliveries and the spans the ring has overwritten, so each
	// view says when it is truncated.
	sampled     atomic.Int64
	lostRecords atomic.Uint64
	lostSpans   atomic.Uint64

	// retained tracks payload bytes currently held by ring slots, so
	// MemoryBound reflects actual payload retention (payload size is not
	// bounded by the slot count alone).
	retained atomic.Int64

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

// NewLog returns a log retaining the capacity most recent deliveries
// (minimum 16, default 4096 when capacity <= 0). Recording starts
// disabled; call Enable. With spans, every delivery of a sampled trace is
// written too, as a span, whether or not recording is on.
func NewLog(capacity int, spans bool) *Log {
	return &Log{
		recs:   ring.New(capacity, 4096, func(r *Record) *uint64 { return &r.Seq }),
		spans:  spans,
		queues: map[string]*QueueLog{},
	}
}

func (l *Log) buf() *ring.Ring[Record] {
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
func (l *Log) Recorded() uint64 {
	var n uint64
	for _, q := range l.QueueSeqs() {
		n += q.Seq
	}
	return n
}

// Len returns the number of recorded deliveries currently retained (0 on
// nil).
func (l *Log) Len() int {
	lost := l.Overwritten() // read first: a lost record was counted in Recorded before it was lost
	return int(l.Recorded() - lost)
}

// Overwritten returns how many recorded deliveries the ring no longer
// holds: nonzero means a Snapshot is not the whole recording.
func (l *Log) Overwritten() uint64 {
	if l == nil {
		return 0
	}
	return l.lostRecords.Load()
}

// MemoryBound returns the ring's current retained memory in bytes: the
// ring's own fixed bound (Cap 8-byte slots plus Cap/64 + 1 blocks of 64
// Records, see ring.MemoryBound), the payload bytes the retained records
// hold, and two payload chunks per queue that has recorded a small payload.
// The payloads dominate, so that part is tracked live rather than derived
// from the capacity. The chunk term is what carving
// can pin beyond the live bytes: a chunk lives until the last payload carved
// from it is overwritten, so a queue holds the dead head of its oldest chunk
// and the unused tail of its current one, under one chunk each. Not counted:
// the up to maxCarved-1 bytes at a chunk's end that the next payload did not
// fit in. From and To are the bus's interned interface names and excluded.
func (l *Log) MemoryBound() int {
	if l == nil {
		return 0
	}
	carving := 0
	l.qmu.Lock()
	for _, q := range l.queues {
		if q.chunk.Load() != nil {
			carving++
		}
	}
	l.qmu.Unlock()
	return l.recs.MemoryBound() + int(l.retained.Load()) + 2*chunkBytes*carving
}

// Queue interns and returns the append handle for one destination endpoint,
// named "instance.interface". Nil-safe: a nil log returns a nil handle,
// whose Append is a no-op — the same nil-receiver discipline as the
// telemetry counters, so the bus resolves handles unconditionally at
// AddInstance.
func (l *Log) Queue(ep string) *QueueLog {
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

// Snapshot returns the retained recorded deliveries in global-sequence
// order, oldest first (nil on nil or empty).
func (l *Log) Snapshot() []Record {
	var out []Record
	for _, p := range l.buf().Since(0) {
		if p.QSeq != 0 {
			out = append(out, *p)
		}
	}
	return out
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
func (s *Spans) Recorded() int64 {
	if s == nil {
		return 0
	}
	return s.sampled.Load()
}

// Overwritten returns how many written spans the ring no longer holds.
func (s *Spans) Overwritten() uint64 {
	if s == nil {
		return 0
	}
	return s.lostSpans.Load()
}

// Snapshot returns the retained spans oldest first.
func (s *Spans) Snapshot() []*Record {
	return slices.DeleteFunc((*Log)(s).buf().Since(0), func(r *Record) bool { return r.EndNs == 0 })
}

// ByTrace returns the retained spans of one trace, oldest first.
func (s *Spans) ByTrace(traceID uint64) []*Record {
	return slices.DeleteFunc(s.Snapshot(), func(r *Record) bool { return r.Trace.TraceID != traceID })
}

// QueueLog is the per-destination-queue append handle the bus resolves at
// AddInstance and invokes under the destination queue's mutex — that lock
// is what makes QSeq the queue's true delivery order. A nil handle is a
// no-op; an unsampled delivery to a log that is not recording costs one
// atomic load and one flag test.
type QueueLog struct {
	log *Log
	to  string
	seq atomic.Uint64

	// chunk is the allocation small payload copies are currently carved
	// from; nil until the first, replaced (never refilled) when used up.
	chunk atomic.Pointer[chunk]
}

// Payload copies of at most maxCarved bytes are carved from a chunkBytes
// allocation shared by one queue's consecutive records; a larger payload
// gets an allocation of its own.
const (
	chunkBytes = 4096
	maxCarved  = 1024
)

// chunk is one shared payload allocation, handed out left to right by a
// bump offset and never reused, like the ring's record blocks.
type chunk struct {
	off atomic.Uint32 // bytes handed out (may overshoot chunkBytes)
	buf [chunkBytes]byte
}

// Append writes one delivery to this queue as one record: recorded (a
// payload copy and the next QSeq) while recording is on, a span (EndNs,
// read off clk, the clock tc.SentNs was stamped on) when the log writes
// spans and tc is sampled,
// and not at all when it is neither. It returns the span's end, 0 for no
// span. from is the sending endpoint's "instance.interface" name, retained
// as passed (the bus passes the name it interned at AddInstance). data is
// copied; the caller's buffer is never retained, and the copy is private to
// the record — carved from the queue's chunk with its capacity clipped, so
// no other record's bytes are reachable from it. QSeq is the queue's
// delivery order only when the caller holds the destination queue's lock
// (the bus queueing layer is the only legal caller — archlint AL012 pins it
// there); the carving itself is lock-free, because a re-registered endpoint
// shares this handle with its predecessor's draining queue.
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
	r := l.recs.Alloc()
	r.Epoch = epoch
	r.From = from
	r.To = q.to
	r.Trace = tc
	if recording {
		r.QSeq = q.seq.Add(1)
		r.Data = q.copyPayload(data)
	}
	if span {
		endNs = clk.Nanos()
		r.EndNs = endNs
		l.sampled.Add(1)
	}
	delta := int64(len(r.Data))
	if _, old := l.recs.Put(r); old != nil {
		delta -= l.lost(old)
	}
	if delta != 0 {
		l.retained.Add(delta)
	}
	if recording && l.spilling.Load() {
		l.spillRecord(r)
	}
	return endNs
}

// lost counts a record the ring overwrote in the views it was in and
// returns the payload bytes it held.
func (l *Log) lost(old *Record) (freed int64) {
	if old.QSeq != 0 {
		l.lostRecords.Add(1)
	}
	if old.EndNs != 0 {
		l.lostSpans.Add(1)
	}
	return int64(len(old.Data))
}

// copyPayload returns the record's private copy of data (nil for none).
//
//archlint:hotpath
func (q *QueueLog) copyPayload(data []byte) []byte {
	if len(data) == 0 {
		return nil
	}
	if len(data) > maxCarved {
		return copyLarge(data)
	}
	n := uint32(len(data))
	for {
		c := q.chunk.Load()
		if c != nil {
			if end := c.off.Add(n); end <= chunkBytes {
				p := c.buf[end-n : end : end]
				copy(p, data)
				return p
			}
		}
		q.refill(c)
	}
}

// refill replaces the used-up chunk. The cold half of copyPayload: a loser
// of the race drops its chunk untouched.
func (q *QueueLog) refill(used *chunk) {
	q.chunk.CompareAndSwap(used, new(chunk))
}

// copyLarge gives a payload too big to carve its own allocation.
func copyLarge(data []byte) []byte { return append([]byte(nil), data...) }
