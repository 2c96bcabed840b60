package reconfig

// The reconfiguration journal gives scripts transactional behavior without
// a persistent log: as each forward primitive succeeds, the script records
// the compensating action that undoes it. On a step failure the journal is
// replayed in reverse order, returning the application to its
// pre-transaction configuration; on commit it is discarded. Destructive
// steps (deleting the old module, dropping its remaining queue) are
// sequenced after the commit point, so no compensation ever needs to
// recreate lost state.

// RollbackStep records one compensating action replayed during an abort.
type RollbackStep struct {
	// Action names the compensation ("inverse_rebind", "release_old",
	// "delete_clone", "release_guard").
	Action string `json:"action"`
	// Err is the compensation's own failure, empty when it succeeded.
	// A failed compensation does not stop the replay: the remaining
	// inverses still run, and every failure is reported.
	Err string `json:"err,omitempty"`
}

// TxResult is the outcome of one transactional reconfiguration script.
type TxResult struct {
	// TxID is the transaction's identifier in the reconfiguration tracer
	// ("tx-0001"); reconfigctl trace <txid> renders the matching span
	// timeline. Empty when the primitive set has no tracer.
	TxID string
	// Steps is the primitive audit trace of the forward path, in order —
	// including any steps performed before the failing one.
	Steps []string
	// Committed reports that the transaction passed its commit point: the
	// replacement is live and the old configuration will not return.
	Committed bool
	// RolledBack reports that compensations were replayed.
	RolledBack bool
	// Rollback lists the compensations replayed on abort, in execution
	// order. Empty for a clean commit.
	Rollback []RollbackStep
	// Err is the step failure that triggered the abort, or — for a
	// committed transaction — a non-fatal failure in the destructive
	// tail. Nil for a fully clean commit.
	Err error
}

// Failed reports whether the transaction aborted.
func (r *TxResult) Failed() bool { return r != nil && !r.Committed && r.Err != nil }

type journalEntry struct {
	action string
	undo   func() error
}

// journal accumulates compensating actions as the forward path of a
// transaction progresses.
type journal struct {
	entries []journalEntry
}

// record notes the compensation for a forward step that just succeeded.
func (j *journal) record(action string, undo func() error) {
	j.entries = append(j.entries, journalEntry{action: action, undo: undo})
}

// rollback replays the recorded compensations in reverse order. Replay is
// best-effort: a failing compensation is reported in its step and the rest
// still run, maximizing how much of the old configuration is recovered.
func (j *journal) rollback() []RollbackStep {
	steps := make([]RollbackStep, 0, len(j.entries))
	for i := len(j.entries) - 1; i >= 0; i-- {
		e := j.entries[i]
		step := RollbackStep{Action: e.action}
		if err := e.undo(); err != nil {
			step.Err = err.Error()
		}
		steps = append(steps, step)
	}
	j.entries = nil
	return steps
}

// discard forgets the journal at the commit point.
func (j *journal) discard() { j.entries = nil }
