package trace

import (
	"slices"

	"repro/internal/ring"
)

// SpanRecord is one completed delivery span: a message's life from the
// send that stamped it to the read that consumed it.
type SpanRecord struct {
	// Seq is the recorder's global sequence number, assigned at Record;
	// snapshots are in its order, oldest first.
	Seq     uint64 `json:"seq"`
	TraceID uint64 `json:"trace_id"`
	SpanID  uint64 `json:"span_id"`
	Parent  uint64 `json:"parent,omitempty"`
	Hops    uint32 `json:"hops"`
	From    string `json:"from"`
	To      string `json:"to"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Recorder is the flight recorder: the ring of the most recent sampled
// delivery spans (internal/ring — lock-free writers, memory bound fixed at
// construction, old spans overwritten) under the recorder's own method set.
// All methods are safe on a nil receiver: tracing off is a nil *Recorder.
type Recorder ring.Ring[SpanRecord]

// NewRecorder returns a recorder retaining the capacity most recent spans
// (minimum 16, default 4096 when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	return (*Recorder)(ring.New(capacity, 4096, func(s *SpanRecord) *uint64 { return &s.Seq }))
}

func (r *Recorder) buf() *ring.Ring[SpanRecord] { return (*ring.Ring[SpanRecord])(r) }

// Len returns the number of spans currently retained.
func (r *Recorder) Len() int { return r.buf().Len() }

// Recorded returns the total number of spans ever recorded.
func (r *Recorder) Recorded() int64 { return int64(r.buf().Cursor()) }

// Overwritten returns how many recorded spans the ring no longer holds.
func (r *Recorder) Overwritten() uint64 { return r.buf().Overwritten() }

// MemoryBound returns the recorder's worst-case retained memory in bytes,
// fixed at construction: Cap 8-byte slots plus Cap/64 + 1 blocks of 64
// SpanRecords (the records are carved from blocks, and the retained spans
// can pin one block more than they fill — see ring.MemoryBound). The From
// and To strings are excluded: the bus interns one name per interface at
// AddInstance and every span of that interface shares it.
func (r *Recorder) MemoryBound() int { return r.buf().MemoryBound() }

// Record stores one span, overwriting the oldest when the ring is full.
// Safe for concurrent use and a no-op on a nil recorder.
//
//archlint:hotpath
func (r *Recorder) Record(s SpanRecord) {
	if p := r.buf().Alloc(); p != nil {
		*p = s
		r.buf().Put(p)
	}
}

// Snapshot returns the retained spans oldest first. Under concurrent
// writers it is a consistent set of recently published records, not an
// atomic cut — standard for a flight recorder.
func (r *Recorder) Snapshot() []*SpanRecord { return r.buf().Since(0) }

// ByTrace returns the retained spans of one trace, oldest first.
func (r *Recorder) ByTrace(traceID uint64) []*SpanRecord {
	return slices.DeleteFunc(r.Snapshot(), func(s *SpanRecord) bool { return s.TraceID != traceID })
}
