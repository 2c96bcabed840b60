package reconfig

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bus"
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

// divulgeGrace is how long an aborting transaction waits for a divulge that
// may already be in flight before concluding the old module never captured.
// A module signaled just before the abort may be past its flag check; its
// state then arrives within the grace window and the abort resurrects it
// instead of cancelling.
const divulgeGrace = 250 * time.Millisecond

// replacePlan is the precomputed forward path of one replacement: the clone
// specification, the atomic rebinding batch (queue moves included, queue
// drops excluded — those are destructive and run after the commit point),
// the old module's receiving interfaces, and the audit-trace lines the
// batch construction corresponds to.
type replacePlan struct {
	spec  bus.InstanceSpec
	edits []bus.BindEdit
	recv  []string
	lines []string
}

// buildReplacePlan computes the plan from the live configuration without
// mutating anything. Both the transaction and the dry-run use it.
func buildReplacePlan(b *bus.Bus, info bus.InstanceInfo, old string, opts ReplaceOptions) (*replacePlan, error) {
	plan := &replacePlan{}
	plan.spec = bus.InstanceSpec{
		Name:       opts.NewName,
		Module:     info.Module,
		Machine:    info.Machine,
		Status:     bus.StatusClone,
		Interfaces: info.Interfaces,
		Attrs:      map[string]string{},
	}
	for k, v := range info.Attrs {
		plan.spec.Attrs[k] = v
	}
	for k, v := range opts.Attrs {
		plan.spec.Attrs[k] = v
	}
	if opts.Machine != "" {
		plan.spec.Machine = opts.Machine
	}
	if opts.Module != "" {
		plan.spec.Module = opts.Module
	}

	// For every interface, replace bindings to the old instance with
	// bindings to the new one and move the old instance's queued messages
	// across ("cq"). Bindings on bidirectional interfaces surface both as
	// a destination and as a source; each is rebound once.
	plan.lines = append(plan.lines, "bind_cap")
	rebound := map[string]bool{}
	bindKey := func(a, b bus.Endpoint) string {
		if b.String() < a.String() {
			a, b = b, a
		}
		return a.String() + "|" + b.String()
	}
	edit := func(op string, from, to bus.Endpoint) {
		plan.edits = append(plan.edits, bus.BindEdit{Op: op, From: from, To: to})
		plan.lines = append(plan.lines, fmt.Sprintf("edit_bind %s %s %s", op, from, to))
	}
	for _, ifc := range info.Interfaces {
		oldEp := bus.Endpoint{Instance: old, Interface: ifc.Name}
		newEp := bus.Endpoint{Instance: opts.NewName, Interface: ifc.Name}
		if ifc.Dir.Sends() {
			dests, err := b.IfDest(oldEp)
			if err != nil {
				return nil, fmt.Errorf("reconfig: struct_ifdest %s: %w", oldEp, err)
			}
			plan.lines = append(plan.lines, fmt.Sprintf("struct_ifdest %s -> %d", oldEp, len(dests)))
			for _, d := range dests {
				if rebound[bindKey(oldEp, d)] {
					continue
				}
				rebound[bindKey(oldEp, d)] = true
				edit("del", oldEp, d)
				edit("add", newEp, d)
			}
		}
		if ifc.Dir.Receives() {
			sources, err := b.IfSources(oldEp)
			if err != nil {
				return nil, fmt.Errorf("reconfig: struct_ifsources %s: %w", oldEp, err)
			}
			plan.lines = append(plan.lines, fmt.Sprintf("struct_ifsources %s -> %d", oldEp, len(sources)))
			for _, s := range sources {
				if rebound[bindKey(s, oldEp)] {
					continue
				}
				rebound[bindKey(s, oldEp)] = true
				edit("del", s, oldEp)
				edit("add", s, newEp)
			}
			edit("cq", oldEp, newEp)
			plan.recv = append(plan.recv, ifc.Name)
		}
	}
	return plan, nil
}

// inverseEdits returns the batch that undoes edits: reverse order, add and
// del swapped, queue moves reversed. Queue drops never appear in a
// transactional batch (they are post-commit), so every edit has an inverse.
func inverseEdits(edits []bus.BindEdit) []bus.BindEdit {
	inv := make([]bus.BindEdit, 0, len(edits))
	for i := len(edits) - 1; i >= 0; i-- {
		e := edits[i]
		switch e.Op {
		case "add":
			inv = append(inv, bus.BindEdit{Op: "del", From: e.From, To: e.To})
		case "del":
			inv = append(inv, bus.BindEdit{Op: "add", From: e.From, To: e.To})
		case "cq":
			inv = append(inv, bus.BindEdit{Op: "cq", From: e.To, To: e.From})
		}
	}
	return inv
}

// oldRelease carries what the abort path knows about the old module: whether
// it already divulged (in which case it has exited and must be
// resurrected), its encoded state, and its pre-transaction status.
type oldRelease struct {
	divulged   bool
	state      []byte
	origStatus string
}

// releaseOld returns the old module to service during an abort.
//
// If the module never divulged, the reconfiguration request is retracted
// (SignalCancel) and the module, which never left its main loop, resumes
// untouched. A module signaled just before the abort may already be
// capturing, so a short grace wait for its state precedes the decision;
// a divulge that lands after the grace window is an inherent race — the
// cancel arrives at a module that has already exited and is lost.
//
// If the module did divulge, it has exited: it is resurrected as a clone of
// itself — the instance is reset, its own divulged state is reinstalled,
// and the module is relaunched to restore itself and resume at the
// reconfiguration point where it stopped. Its status then returns to the
// pre-transaction value.
func releaseOld(p *Primitives, launcher Launcher, old string, st *oldRelease, t Timeouts) error {
	if !st.divulged {
		if owner, err := p.bus.AwaitDivulged(old, divulgeGrace); err == nil {
			st.divulged = true
			st.state = owner.Data()
		}
	}
	if !st.divulged {
		return p.bus.CancelReconfig(old)
	}
	if launcher == nil {
		return fmt.Errorf("reconfig: release %s: module divulged but no launcher to resurrect it", old)
	}
	if err := p.bus.ResetForRelaunch(old); err != nil {
		return err
	}
	if err := p.bus.InstallState(old, st.state); err != nil {
		return err
	}
	if err := launcher.Launch(old); err != nil {
		return err
	}
	if err := p.bus.AwaitRestored(old, t.Rollback); err != nil {
		return err
	}
	return p.bus.SetStatus(old, st.origStatus)
}

// ReplaceTx performs the Figure 5 replacement script as a transaction.
//
// Each forward primitive journals its compensating inverse; any step
// failure replays the journal in reverse — restore the bindings and return
// the moved queue contents (inverse rebind), release the old module (cancel
// the request, or resurrect it from its divulged state), delete the clone —
// leaving the application answering traffic through the original module
// with the pre-transaction configuration.
//
// The commit point is the clone's restore confirmation: only a replacement
// that demonstrably answers for its state runs the destructive tail
// (dropping the old module's residual queue and deleting it). Destructive
// steps are thereby never journaled and never need compensation.
func ReplaceTx(p *Primitives, launcher Launcher, old string, opts ReplaceOptions) (*TxResult, error) {
	res := &TxResult{}
	fail := func(err error) (*TxResult, error) {
		res.Err = err
		return res, err
	}
	if opts.NewName == "" {
		return fail(fmt.Errorf("reconfig: replace %s: NewName required", old))
	}
	if opts.NewName == old {
		return fail(fmt.Errorf("reconfig: replace %s: NewName must differ", old))
	}
	t := opts.Timeouts.WithDefaults()
	if !p.txMu.TryLock() {
		return fail(fmt.Errorf("reconfig: replace %s: %w", old, ErrReconfigBusy))
	}
	defer p.txMu.Unlock()
	p.active.Store(true)
	defer p.active.Store(false)

	// Open the span timeline for this transaction. With no tracer attached
	// every tx call below is a no-op and TxID stays empty.
	tx := p.tracer.Begin(fmt.Sprintf("replace %s -> %s", old, opts.NewName))
	res.TxID = tx.ID()

	mark := p.traceMark()
	j := &journal{}
	abort := func(stepErr error) (*TxResult, error) {
		tx.StartSpan("rollback")
		res.Steps = p.traceSince(mark)
		res.Err = stepErr
		res.RolledBack = true
		res.Rollback = j.rollback()
		// A failed script must never leave a module frozen: release any
		// quiescence guard the caller holds around the reconfiguration.
		for _, g := range opts.Guards {
			if g != nil && g.Holding() {
				g.Release()
				res.Rollback = append(res.Rollback, RollbackStep{Action: "release_guard"})
			}
		}
		tx.Finish("rolled-back", res.Steps)
		return res, fmt.Errorf("reconfig: replace %s rolled back: %w", old, stepErr)
	}

	// Access the old module's current specification and precompute the
	// whole forward path from it.
	tx.StartSpan("plan")
	info, err := p.ObjCap(old)
	if err != nil {
		return abort(err)
	}
	plan, err := buildReplacePlan(p.bus, info, old, opts)
	if err != nil {
		return abort(err)
	}

	// Register the clone.
	tx.StartSpan("add_clone")
	if err := p.AddObj(plan.spec); err != nil {
		return abort(err)
	}
	j.record("delete_clone", func() error { return p.bus.DeleteInstance(opts.NewName) })
	for _, line := range plan.lines {
		p.log("%s", line)
	}

	// Pre-flight gate: substitutability is decided before the substitute
	// serves. The candidate is vetted (against recorded traffic, or whatever
	// the caller supplied) before the old module hears of the replacement: a
	// veto has only the clone's registration to undo, and however long the
	// check runs, it runs outside the window in which the stage is stopped.
	if opts.Preflight != nil {
		tx.StartSpan("preflight_replay")
		err := p.bus.Faults().Fire("reconfig.preflight")
		if err == nil {
			err = opts.Preflight(old, opts.NewName)
		}
		if err != nil {
			return abort(fmt.Errorf("preflight %s -> %s: %w", old, opts.NewName, err))
		}
	}

	// Ask the old module to divulge at its next reconfiguration point and
	// wait for its state. The quiesce_wait span is the paper's interruption
	// latency: the old module runs until its next reconfiguration point.
	st := &oldRelease{origStatus: info.Status}
	tx.StartSpan("quiesce_wait")
	if err := p.SignalReconfig(old); err != nil {
		return abort(err)
	}
	j.record("release_old", func() error { return releaseOld(p, launcher, old, st, t) })
	// Snapshot what the quiesce is waiting on: the messages still queued
	// toward the old module, with their trace IDs and in-flight ages, so
	// `trace <txid>` can explain a long quiesce_wait span.
	if qm, err := p.bus.QueuedMessages(old); err == nil {
		const maxNotes = 16
		for i, m := range qm {
			if i == maxNotes {
				tx.Annotate(fmt.Sprintf("... and %d more queued messages", len(qm)-maxNotes))
				break
			}
			if m.Trace.Valid() {
				tx.Annotate(fmt.Sprintf("queued %s trace=0x%x age=%.3fms", m.Endpoint, m.Trace.TraceID, float64(m.AgeNs)/1e6))
			} else {
				tx.Annotate(fmt.Sprintf("queued %s (untraced)", m.Endpoint))
			}
		}
	}
	data, err := p.AwaitDivulged(old, t.StateMove)
	if err != nil {
		return abort(err)
	}
	st.divulged, st.state = true, data
	tx.StartSpan("state_move")
	if err := p.InstallState(opts.NewName, data); err != nil {
		return abort(err)
	}

	// Apply the rebinding commands all at once, then start the clone.
	tx.StartSpan("rebind")
	batch := &BindBatch{edits: plan.edits}
	if err := p.Rebind(batch); err != nil {
		return abort(err)
	}
	j.record("inverse_rebind", func() error { return p.bus.Rebind(inverseEdits(plan.edits)) })
	tx.StartSpan("launch")
	if err := p.ChgObj(launcher, opts.NewName, "add"); err != nil {
		return abort(err)
	}

	// Commit gate: the clone must confirm it rebuilt the divulged state
	// and resumed before the old configuration is destroyed.
	tx.StartSpan("restore_wait")
	if err := p.AwaitRestored(opts.NewName, t.RestoreAck); err != nil {
		return abort(err)
	}

	// Health note: record the windowed candidate-vs-incumbent verdict in
	// the transaction trace while both instances still exist. This is the
	// paper's "operator observes the replacement" step landing in the
	// span timeline rather than on a terminal.
	if opts.HealthNote != nil {
		tx.StartSpan("health_check")
		tx.Annotate("health_check " + opts.HealthNote(old, opts.NewName))
	}

	j.discard()
	res.Committed = true
	tx.StartSpan("commit_tail")

	// Destructive tail: drop what remains in the old module's queues and
	// delete it. Failures here cannot (and must not) roll the replacement
	// back; they are reported for operator cleanup.
	var tailErr error
	for _, name := range plan.recv {
		if _, err := p.DrainQueue(bus.Endpoint{Instance: old, Interface: name}); err != nil && tailErr == nil {
			tailErr = err
		}
	}
	if err := p.ChgObj(nil, old, "del"); err != nil && tailErr == nil {
		tailErr = err
	}
	res.Steps = p.traceSince(mark)
	tx.Finish("committed", res.Steps)
	if tailErr != nil {
		res.Err = fmt.Errorf("reconfig: replace %s committed, cleanup failed: %w", old, tailErr)
		return res, res.Err
	}
	return res, nil
}

// PlanReplace returns the forward step sequence ReplaceTx would perform,
// without executing any of it — the dry-run behind reconfigctl's -dry-run.
// The "commit" line marks the commit point: a failure above it rolls back;
// the destructive steps below it only run after the clone confirms.
func PlanReplace(p *Primitives, old string, opts ReplaceOptions) ([]string, error) {
	if opts.NewName == "" {
		return nil, fmt.Errorf("reconfig: plan replace %s: NewName required", old)
	}
	if opts.NewName == old {
		return nil, fmt.Errorf("reconfig: plan replace %s: NewName must differ", old)
	}
	info, err := p.bus.Info(old)
	if err != nil {
		return nil, fmt.Errorf("reconfig: plan replace %s: %w", old, err)
	}
	plan, err := buildReplacePlan(p.bus, info, old, opts)
	if err != nil {
		return nil, err
	}
	steps := []string{
		fmt.Sprintf("obj_cap %s", old),
		fmt.Sprintf("add_obj %s (module %s, machine %s, status %s)",
			plan.spec.Name, plan.spec.Module, plan.spec.Machine, plan.spec.Status),
	}
	steps = append(steps, plan.lines...)
	if opts.Preflight != nil {
		steps = append(steps, fmt.Sprintf("preflight %s -> %s", old, opts.NewName))
	}
	steps = append(steps,
		fmt.Sprintf("signal_reconfig %s", old),
		fmt.Sprintf("await_divulged %s", old),
		fmt.Sprintf("install_state %s", opts.NewName),
		fmt.Sprintf("rebind (%d edits)", len(plan.edits)),
		fmt.Sprintf("chg_obj %s add", opts.NewName),
		fmt.Sprintf("await_restored %s", opts.NewName),
		"commit",
	)
	for _, name := range plan.recv {
		steps = append(steps, fmt.Sprintf("drain_queue %s", bus.Endpoint{Instance: old, Interface: name}))
	}
	steps = append(steps, fmt.Sprintf("chg_obj %s del", old))
	return steps, nil
}
