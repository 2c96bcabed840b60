package reconfig

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// ErrReconfigBusy reports that another transactional reconfiguration is in
// progress on the same primitive set. Scripts fail fast rather than
// interleave: the paper's model has a single reconfiguration authority.
var ErrReconfigBusy = errors.New("reconfig: another reconfiguration is in progress")

// Timeouts bounds every wait a transactional script performs. The zero
// value of any field means its default (30s, the classic mh timeout).
type Timeouts struct {
	// StateMove bounds the wait for the old module to reach a
	// reconfiguration point and divulge its state.
	StateMove time.Duration
	// RestoreAck bounds the wait for the launched clone to confirm its
	// restoration — the transaction's commit gate.
	RestoreAck time.Duration
	// Rollback bounds each waiting compensation during an abort (chiefly
	// the resurrected module's restore confirmation).
	Rollback time.Duration
	// Quiesce bounds quiescence waits in the no-participation baseline.
	Quiesce time.Duration
}

// DefaultTimeouts returns the standard bounds.
func DefaultTimeouts() Timeouts {
	const d = 30 * time.Second
	return Timeouts{StateMove: d, RestoreAck: d, Rollback: d, Quiesce: d}
}

// WithDefaults fills zero fields from DefaultTimeouts.
func (t Timeouts) WithDefaults() Timeouts { return t.Or(DefaultTimeouts()) }

// Or fills t's zero fields from d: what a caller set wins.
func (t Timeouts) Or(d Timeouts) Timeouts {
	if t.StateMove <= 0 {
		t.StateMove = d.StateMove
	}
	if t.RestoreAck <= 0 {
		t.RestoreAck = d.RestoreAck
	}
	if t.Rollback <= 0 {
		t.Rollback = d.Rollback
	}
	if t.Quiesce <= 0 {
		t.Quiesce = d.Quiesce
	}
	return t
}

// RollbackStep records one compensating action replayed during an abort.
type RollbackStep struct {
	// Action names the compensation ("inverse_rebind", "release_old",
	// "delete_clone").
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
	// timeline.
	TxID string
	// Steps names the steps that completed, in order: a prefix of the
	// script's table (the failing step is named by Err, not listed).
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

// step is one line of a reconfiguration script: a primitive of Figure 5's
// vocabulary, what performs it and what compensates for it.
type step struct {
	// name is the line the step leaves in the trail and in the dry-run plan.
	// Its first word is the primitive, which also names the failpoint runTx
	// fires before the step: "reconfig.<primitive>".
	name string
	// span, when set, is the tracer span opened before the step; "" stays
	// in the span already open. The tail runs under "commit_tail".
	span string
	// do performs the step. nil: a read the table's builder has already
	// evaluated (obj_cap, struct_ifdest, edit_bind, ...), listed because
	// the script is the paper's, line for line.
	do func() error
	// undo, when set, compensates for a completed do; an abort that replays
	// it reports it as action.
	action string
	undo   func() error
}

// script is a step table and its commit point. steps[:commit] is the
// forward path: it completes, or what completed of it is compensated in
// reverse. steps[commit:] is the destructive tail (dropping the old module's
// residual queue, deleting it): it runs only after the forward path, runs to
// its end whatever fails, and is never compensated — no inverse ever has to
// recreate lost state.
type script struct {
	steps  []step
	commit int
}

// add appends a step under the given span ("" continues the open one).
func (s *script) add(span string, st step) {
	st.span = span
	s.steps = append(s.steps, st)
}

// note appends a step the builder has already evaluated.
func (s *script) note(span, name string) { s.add(span, step{name: name}) }

// plan lists the table's step names with "commit" at the commit point: what
// runTx would run, in order, without running any of it.
func (s *script) plan() []string {
	names := make([]string, len(s.steps))
	for i, st := range s.steps {
		names[i] = st.name
	}
	return slices.Insert(names, s.commit, "commit")
}

// runTx runs one script as a transaction. It serializes on txMu (a second
// transaction is refused with ErrReconfigBusy, not interleaved), opens the
// span timeline, has build compute the table from the live configuration
// under the "plan" span, and walks it: the step's failpoint fires, the step
// runs, its name joins Steps. A failure on the forward path replays the
// completed steps' inverses in reverse, every one, each outcome in Rollback;
// a failure in the tail is kept while the tail runs on, and the first is
// reported as the cleanup error of a committed transaction.
func runTx(p *Primitives, op string, build func(tx *telemetry.TxTrace) (*script, error)) (*TxResult, error) {
	res := &TxResult{}
	if !p.txMu.TryLock() {
		res.Err = fmt.Errorf("reconfig: %s: %w", op, ErrReconfigBusy)
		return res, res.Err
	}
	defer p.txMu.Unlock()
	p.active.Store(true)
	defer p.active.Store(false)

	tx := p.tracer.Begin(op)
	res.TxID = tx.ID()
	tx.StartSpan("plan")
	s, stepErr := build(tx)
	if stepErr != nil {
		s, stepErr = &script{}, fmt.Errorf("reconfig: %w", stepErr)
	}
	faults := p.bus.Faults()
	res.Steps = make([]string, 0, len(s.steps))
	var tailErr error
	for i := 0; i < len(s.steps) && stepErr == nil; i++ {
		st := &s.steps[i]
		if i == s.commit {
			tx.StartSpan("commit_tail")
		} else if st.span != "" {
			tx.StartSpan(st.span)
		}
		primitive, _, _ := strings.Cut(st.name, " ")
		err := faults.Fire("reconfig." + primitive)
		if err == nil && st.do != nil {
			err = st.do()
		}
		switch {
		case err == nil:
			res.Steps = append(res.Steps, st.name)
		case i < s.commit:
			stepErr = fmt.Errorf("reconfig: %s: %w", st.name, err)
		case tailErr == nil:
			tailErr = fmt.Errorf("reconfig: %s: %w", st.name, err)
		}
	}
	if stepErr != nil {
		tx.StartSpan("rollback")
		res.Err, res.RolledBack = stepErr, true
		for i := len(res.Steps) - 1; i >= 0; i-- {
			if st := &s.steps[i]; st.undo != nil {
				rb := RollbackStep{Action: st.action}
				if err := st.undo(); err != nil {
					rb.Err = err.Error()
				}
				res.Rollback = append(res.Rollback, rb)
			}
		}
		tx.Finish("rolled-back", res.Steps)
		return res, fmt.Errorf("reconfig: %s rolled back: %w", op, stepErr)
	}
	res.Committed = true
	tx.Finish("committed", res.Steps)
	if tailErr != nil {
		res.Err = fmt.Errorf("reconfig: %s committed, cleanup failed: %w", op, tailErr)
	}
	return res, res.Err
}
