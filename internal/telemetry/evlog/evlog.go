// Package evlog is the structured event log: a bounded ring of
// topology, transaction, supervisor and self-heal events with monotonic
// cursors. The *Log is the writer: whoever builds one hands it to the
// writers it chooses — the application hands it to the bus, which appends
// each change synchronously, in the order it commits them, from its control
// plane only (no message hot path touches the log), and to the supervisor
// and the reconfiguration transaction. Everyone else gets a View, which
// reads and cannot append. Consumers read by cursor (`GET /events?since=N`
// long-polls via Wait), so an operator tailing the log sees each event
// exactly once even across reconnects, and a slow reader loses old events
// rather than stalling writers.
//
// The ring itself is internal/ring, shared with the delivery log; what
// this package adds is the event vocabulary and the timestamp, read off the
// clock of whoever builds the log (the bus's).
package evlog

import (
	"time"

	"repro/internal/clock"
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

// Log is the bounded event ring and the clock its records are stamped on.
type Log struct {
	ring *ring.Ring[Record]
	clk  clock.Clock
}

// NewLog returns a log retaining the last capacity events (default 1024,
// minimum 16), stamping and waiting on clk.
func NewLog(capacity int, clk clock.Clock) *Log {
	return &Log{ring: ring.New[Record](capacity, 1024), clk: clk}
}

// Append records one event, assigning its sequence number and stamping
// TimeNs if unset.
func (l *Log) Append(rec Record) uint64 {
	if rec.TimeNs == 0 {
		rec.TimeNs = l.clk.Now().UnixNano()
	}
	seq, slot, fresh := l.ring.Claim()
	if fresh {
		rec.Seq = seq
		*slot = rec
	}
	l.ring.Publish(slot)
	return seq
}

// View is a log's read-only half.
type View struct{ l *Log }

// View returns the log's read-only half.
func (l *Log) View() View { return View{l} }

// Since returns a copy of every retained record with Seq > after, oldest
// first.
func (v View) Since(after uint64) (out []Record) {
	v.l.ring.Since(after, func(r *Record) { out = append(out, *r) })
	return out
}

// Wait blocks until at least one record with Seq > after exists (returning
// copies of all of them) or timeout elapses (returning nil): the long-poll
// primitive.
func (v View) Wait(after uint64, timeout time.Duration) (out []Record) {
	v.l.ring.Wait(v.l.clk, after, timeout, func(r *Record) { out = append(out, *r) })
	return out
}

// Cursor returns the sequence number of the newest event (0 when empty).
func (v View) Cursor() uint64 { return v.l.ring.Cursor() }

// Overwritten returns how many events the ring no longer holds: a read
// from a cursor below it has lost records.
func (v View) Overwritten() uint64 { return v.l.ring.Overwritten() }
