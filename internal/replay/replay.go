// Package replay implements the deterministic record half of the
// record/replay subsystem: a bounded in-memory ring of every message the
// bus delivers while recording is enabled, with an optional gob-framed
// file spill. Each record carries the sending and receiving endpoints, the
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
	"encoding/gob"
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
// atomic bool and the disabled path allocates nothing.
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

	// spill, when set, receives every record as a gob frame, serialized by
	// spillMu. The first write error sticks and stops further spilling.
	spillMu  sync.Mutex
	spill    *gob.Encoder
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
// slot array, one Record per slot, and the payload bytes the retained
// records hold. Unlike the trace recorder the payloads dominate, so that
// part is tracked live rather than derived from the capacity.
func (l *Log) MemoryBound() int {
	if l == nil {
		return 0
	}
	return l.recs.MemoryBound() + int(l.retained.Load())
}

// Queue interns and returns the append handle for one destination
// endpoint. Nil-safe: a nil log returns a nil handle, whose Append is a
// no-op — the same nil-receiver discipline as the telemetry counters, so
// the bus resolves handles unconditionally at AddInstance.
func (l *Log) Queue(instance, iface string) *QueueLog {
	if l == nil {
		return nil
	}
	ep := instance + "." + iface
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
}

// Append records one delivery to this queue. data is copied; the caller's
// buffer is never retained. Must be called with the destination queue's
// lock held (the bus queueing layer is the only legal caller — archlint
// AL012 pins it there).
func (q *QueueLog) Append(fromInst, fromIface string, data []byte, tc trace.Context, epoch uint64) {
	if q == nil || !q.log.on.Load() {
		return
	}
	l := q.log
	r := &Record{
		QSeq:  q.seq.Add(1),
		Epoch: epoch,
		From:  fromInst + "." + fromIface,
		To:    q.to,
		Trace: tc,
		Data:  append([]byte(nil), data...),
	}
	delta := int64(len(r.Data))
	if _, old := l.recs.Put(r); old != nil {
		delta -= int64(len(old.Data))
	}
	l.retained.Add(delta)
	l.spillMu.Lock()
	if l.spill != nil && l.spillErr == nil {
		l.spillErr = l.spill.Encode(r)
	}
	l.spillMu.Unlock()
}
