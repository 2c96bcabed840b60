package bus

import "repro/internal/telemetry/evlog"

// Kinds of the records the bus appends to its event log for its hand-offs,
// spelled as /events renders them. A topology change's records carry the
// kinds package routing stages them with.
const (
	kindSignal       = "signal"
	kindDivulge      = "divulge"
	kindInstallState = "install-state"
	kindRestoreAck   = "restore-ack"
	kindRelaunch     = "relaunch"
	// kindConnClosed: the TCP server ended a connection for a reason other
	// than the peer hanging up — no hello within the deadline, a malformed or
	// oversized frame, a socket error. Detail carries the peer address and
	// the reason; Instance is the attached instance, if it got that far.
	kindConnClosed = "conn-closed"
)

// Events returns a read-only view of the bus's event log: every topology
// change, signal, state hand-off and restore acknowledgement, appended by
// the call that made it. The log's builder hands the log itself to its other
// writers (the supervisor's records, a transaction's outcome; WithEvents),
// so one cursor reads one ordered trace.
func (b *Bus) Events() evlog.View { return b.events.View() }

// emit appends one record to the event log before the call that caused it
// returns — the bus's only write to the log. Topology
// changes emit from the commit's callback, under the routing writer lock, so
// their records are in commit order; a hand-off (signal, divulge, install-state, restore-ack) emits
// before its counterpart can observe it.
func (b *Bus) emit(rec evlog.Record) {
	rec.Source = "bus"
	b.events.Append(rec)
}
