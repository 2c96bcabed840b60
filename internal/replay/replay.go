// Package replay implements the deterministic record half of the
// record/replay subsystem: a bounded in-memory ring of every message the
// bus delivers while recording is enabled, with an optional file spill
// (one length-prefixed frame per record, spill.go). Each record carries the sending and receiving endpoints, the
// routing epoch the delivery was resolved under, the causal trace context
// stamped by the bus, the payload bytes exactly as encoded by the module's
// codec, and two sequence numbers: a per-destination-queue sequence (QSeq,
// assigned under the destination queue's lock, so it is the queue's total
// delivery order) and a global ring sequence (Seq, assigned by one atomic
// increment).
//
// Ordering guarantees. Per-queue total order is exact: appends for one
// QueueLog happen under that queue's mutex, in push order. Cross-queue
// order is causally consistent: a module reads its input (recorded at
// delivery i) before it writes the downstream message (recorded at
// delivery j), so i's global Seq precedes j's, and the trace context
// (trace/span/parent/hops, PR 5) ties the two records to one causal chain.
// What is NOT deterministic across runs is the global interleaving of
// unrelated queues and the trace identifiers and timestamps themselves —
// Canonical excludes them, which is why two recordings of the same seeded
// run render identically.
package replay

import (
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

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
	// monotonic per To endpoint for the lifetime of the log.
	QSeq uint64 `json:"qseq"`
	// Epoch is the version of the routing snapshot the delivery was
	// resolved under (the slow path records the version it re-resolved
	// against while holding the writer lock).
	Epoch uint64 `json:"epoch"`
	// From and To are "instance.interface" endpoints.
	From string `json:"from"`
	To   string `json:"to"`
	// Trace is the causal context the bus stamped on the message.
	Trace trace.Context `json:"trace"`
	// Data is a private copy of the payload bytes as encoded by the
	// sender's codec.
	Data []byte `json:"data"`
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

// Log is the record ring: the most recent deliveries in an internal/ring
// (lock-free appends, readers never block writers) plus what recording
// adds to it — the on switch, per-queue sequences, payload accounting and
// the spill stream. Recording starts disabled — the bus hook checks one
// atomic bool and the disabled path allocates nothing; enabled, an append
// takes its record from the ring's current block and its payload copy from
// the queue's current chunk, so it allocates only when one of them is used
// up.
type Log struct {
	recs *ring.Ring[Record]
	on   atomic.Bool

	// retained tracks payload bytes currently held by ring slots, so
	// MemoryBound reflects actual payload retention (payload size is not
	// bounded by the slot count alone).
	retained atomic.Int64

	// queues interns one QueueLog per destination endpoint so a queue's
	// delivery sequence survives instance re-registration (a clone reusing
	// a name after rollback continues the same sequence).
	qmu    sync.Mutex
	queues map[string]*QueueLog

	// spill, when set, receives every record as one frame, built in
	// spillBuf and serialized by spillMu. The first write error sticks and
	// stops further spilling. spilling mirrors spill != nil, so an append
	// with no spill stream skips the mutex.
	spilling atomic.Bool
	spillMu  sync.Mutex
	spill    io.Writer
	spillBuf []byte
	spillErr error
}

// NewLog returns a log retaining the capacity most recent deliveries
// (minimum 16, default 4096 when capacity <= 0). Recording starts
// disabled; call Enable.
func NewLog(capacity int) *Log {
	return &Log{
		recs:   ring.New(capacity, 4096, func(r *Record) *uint64 { return &r.Seq }),
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

// Cap returns the ring's fixed capacity (0 on nil).
func (l *Log) Cap() int { return l.buf().Cap() }

// Recorded returns the total number of deliveries ever appended (0 on
// nil); it can exceed Cap once the ring wraps.
func (l *Log) Recorded() uint64 { return l.buf().Cursor() }

// Len returns the number of records currently retained (0 on nil).
func (l *Log) Len() int { return l.buf().Len() }

// Overwritten returns how many recorded deliveries the ring no longer
// holds: nonzero means a Snapshot is not the whole recording.
func (l *Log) Overwritten() uint64 { return l.buf().Overwritten() }

// MemoryBound returns the ring's current retained memory in bytes: the
// ring's own fixed bound (Cap 8-byte slots plus Cap/64 + 1 blocks of 64
// Records, see ring.MemoryBound), the payload bytes the retained records
// hold, and two payload chunks per queue that has recorded a small payload.
// Unlike the trace recorder the payloads dominate, so that part is tracked
// live rather than derived from the capacity. The chunk term is what carving
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

// Snapshot returns the retained records in global-sequence order, oldest
// first (nil on nil or empty).
func (l *Log) Snapshot() []Record {
	ps := l.buf().Since(0)
	if len(ps) == 0 {
		return nil
	}
	out := make([]Record, len(ps))
	for i, p := range ps {
		out[i] = *p
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

// QueueLog is the per-destination-queue append handle the bus resolves at
// AddInstance and invokes under the destination queue's mutex — that lock
// is what makes QSeq the queue's true delivery order. A nil handle is a
// no-op; a disabled log costs one atomic load.
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

// Append records one delivery to this queue: from is the sending endpoint's
// "instance.interface" name, retained as passed (the bus passes the name it
// interned at AddInstance). data is copied; the caller's buffer is never
// retained, and the copy is private to the record — carved from the queue's
// chunk with its capacity clipped, so no other record's bytes are reachable
// from it. QSeq is the queue's delivery order only when the caller holds the
// destination queue's lock (the bus queueing layer is the only legal caller —
// archlint AL012 pins it there); the carving itself is lock-free, because a
// re-registered endpoint shares this handle with its predecessor's draining
// queue.
//
//archlint:hotpath
func (q *QueueLog) Append(from string, data []byte, tc trace.Context, epoch uint64) {
	if q == nil || !q.log.on.Load() {
		return
	}
	l := q.log
	r := l.recs.Alloc()
	r.QSeq = q.seq.Add(1)
	r.Epoch = epoch
	r.From = from
	r.To = q.to
	r.Trace = tc
	r.Data = q.copyPayload(data)
	delta := int64(len(data))
	if _, old := l.recs.Put(r); old != nil {
		delta -= int64(len(old.Data))
	}
	l.retained.Add(delta)
	if l.spilling.Load() {
		l.spillRecord(r)
	}
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
