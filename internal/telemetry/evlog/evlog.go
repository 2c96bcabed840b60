// Package evlog is the structured event log: a bounded lock-free ring of
// topology, transaction, supervisor and self-heal events with monotonic
// cursors. Producers (the app's bus-observer bridge, the supervisor, the
// reconfiguration transaction) append from their existing asynchronous
// paths — the bus already fans events out through per-observer mailboxes,
// so no message hot path ever touches the log. Consumers read by cursor
// (`GET /events?since=N` long-polls via Wait), so an operator tailing the
// log sees each event exactly once even across reconnects, and a slow
// reader loses old events rather than stalling writers.
//
// The ring itself is internal/ring, shared with the trace flight recorder
// and the record log; what this package adds is the event vocabulary and
// the timestamp.
package evlog

import (
	"time"

	"repro/internal/ring"
)

// Record is one event. Seq is assigned by Append and is strictly
// monotonic; it doubles as the consumer cursor.
type Record struct {
	Seq      uint64   `json:"seq"`
	TimeNs   int64    `json:"time_ns"`
	Source   string   `json:"source"`             // "bus", "supervisor", "tx"
	Kind     string   `json:"kind"`               // e.g. "add_instance", "health_degraded"
	Instance string   `json:"instance,omitempty"` // subject instance or group
	Detail   string   `json:"detail,omitempty"`
	TraceIDs []uint64 `json:"trace_ids,omitempty"`
}

// Log is the bounded event ring under the log's own method set. All
// methods are safe on a nil receiver, so "event log disabled" is just a nil
// *Log.
type Log ring.Ring[Record]

// NewLog returns a log retaining the last capacity events (default 1024,
// minimum 16).
func NewLog(capacity int) *Log {
	return (*Log)(ring.New(capacity, 1024, func(r *Record) *uint64 { return &r.Seq }))
}

func (l *Log) buf() *ring.Ring[Record] { return (*ring.Ring[Record])(l) }

// Append records one event, assigning its sequence number and stamping
// TimeNs if unset.
func (l *Log) Append(rec Record) uint64 {
	if rec.TimeNs == 0 {
		rec.TimeNs = time.Now().UnixNano()
	}
	seq, _ := l.buf().Put(&rec)
	return seq
}

// Since returns every retained record with Seq > after, oldest first.
func (l *Log) Since(after uint64) []*Record { return l.buf().Since(after) }

// Wait blocks until at least one record with Seq > after exists (returning
// all of them) or timeout elapses (returning nil): the long-poll primitive.
func (l *Log) Wait(after uint64, timeout time.Duration) []*Record {
	return l.buf().Wait(after, timeout)
}

// Cursor returns the sequence number of the newest event (0 when empty).
func (l *Log) Cursor() uint64 { return l.buf().Cursor() }

// Overwritten returns how many events the ring no longer holds: a read
// from a cursor below it has lost records.
func (l *Log) Overwritten() uint64 { return l.buf().Overwritten() }
