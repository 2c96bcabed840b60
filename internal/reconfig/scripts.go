package reconfig

import (
	"errors"
	"fmt"
	"maps"
	"time"

	"repro/internal/bus"
	"repro/internal/telemetry"
)

// ReplaceOptions parameterizes the replacement script. The paper: "This
// reconfiguration script is easily parameterized to accept a module name
// and attributes. The parameterized reconfiguration script could be used to
// replace a module in any application, provided the module had been
// prepared to participate during reconfiguration."
type ReplaceOptions struct {
	// NewName names the replacement instance (required: instance names
	// are unique while both exist).
	NewName string
	// Machine places the replacement; empty keeps the old placement —
	// i.e. in-place replacement for maintenance; a different machine is
	// the paper's migration.
	Machine string
	// Module optionally substitutes a different module implementation
	// (software maintenance: v2 replacing v1). Empty keeps the module.
	Module string
	// Timeouts bounds every wait of the transaction; zero fields take
	// DefaultTimeouts.
	Timeouts Timeouts
	// Attrs optionally extends the new instance's attributes.
	Attrs map[string]string
	// Preflight, when set, runs once the clone is registered and before
	// the old module is signalled, so its run time stays out of the window
	// in which the stage is stopped. A non-nil error vetoes the
	// replacement: the transaction aborts and the old module, never
	// disturbed, keeps running. The record/replay subsystem wires its
	// replay-the-recorded-tail gate here (Config.PreflightReplay).
	Preflight func(old, new string) error
	// HealthNote, when set, is evaluated once the clone has confirmed its
	// restore, and its result recorded as a health_check span note in the
	// transaction trace — the candidate-vs-incumbent verdict an operator
	// reads from `reconfigctl trace <txid>`. Purely observational: it
	// never vetoes (use Preflight for that).
	HealthNote func(old, new string) string
}

// ---- the steps several scripts share ----

// cloneOf starts the specification of a new instance from a live one's.
func cloneOf(info bus.InstanceInfo, name, status string) bus.InstanceSpec {
	spec := bus.InstanceSpec{
		Name:       name,
		Module:     info.Module,
		Machine:    info.Machine,
		Status:     status,
		Interfaces: info.Interfaces,
		Attrs:      map[string]string{},
	}
	maps.Copy(spec.Attrs, info.Attrs)
	return spec
}

// addObj registers an instance without starting it; undone by deleting it.
func addObj(b *bus.Bus, spec bus.InstanceSpec) step {
	return step{
		name:   fmt.Sprintf("add_obj %s (module %s, machine %s, status %s)", spec.Name, spec.Module, spec.Machine, spec.Status),
		do:     func() error { return b.AddInstance(spec) },
		action: "delete_clone",
		undo:   func() error { return b.DeleteInstance(spec.Name) },
	}
}

// rebind applies the accumulated binding edits as one atomic batch
// (mh_rebind); undone by the inverse batch, which also returns the moved
// queue contents.
func rebind(b *bus.Bus, edits []bus.BindEdit) step {
	return step{
		name:   fmt.Sprintf("rebind (%d edits)", len(edits)),
		do:     func() error { return b.Rebind(edits) },
		action: "inverse_rebind",
		undo:   func() error { return b.Rebind(inverseEdits(edits)) },
	}
}

// launch starts a registered instance's module (mh_chg_obj "add"). The
// launcher has its own failpoint, as the bus operations have theirs.
func launch(b *bus.Bus, l Launcher, name string) step {
	return step{name: "chg_obj " + name + " add", do: func() error {
		if l == nil {
			return errors.New("no launcher")
		}
		if err := b.Faults().Fire("reconfig.launch"); err != nil {
			return err
		}
		return l.Launch(name)
	}}
}

// delObj removes an instance and its bindings (mh_chg_obj "del").
func delObj(b *bus.Bus, name string) step {
	return step{name: "chg_obj " + name + " del", do: func() error { return b.DeleteInstance(name) }}
}

// walkBindings reads inst's bindings interface by interface, listing each
// read (struct_ifdest, struct_ifsources) in the table. bound is called once
// per binding with inst's end first — a bidirectional interface surfaces
// its binding both as a destination and as a source, and it is visited
// once; received is called after the sources of each receiving interface.
func (s *script) walkBindings(b *bus.Bus, inst string, ifaces []bus.IfaceSpec, bound func(own, peer bus.Endpoint, sends bool), received func(own bus.Endpoint)) error {
	seen := map[[2]bus.Endpoint]bool{}
	visit := func(own bus.Endpoint, peers []bus.Endpoint, sends bool) {
		for _, peer := range peers {
			key := [2]bus.Endpoint{own, peer}
			if peer.String() < own.String() {
				key = [2]bus.Endpoint{peer, own}
			}
			if !seen[key] {
				seen[key] = true
				bound(own, peer, sends)
			}
		}
	}
	for _, ifc := range ifaces {
		own := bus.Endpoint{Instance: inst, Interface: ifc.Name}
		if ifc.Dir.Sends() {
			dests, err := b.IfDest(own)
			if err != nil {
				return fmt.Errorf("struct_ifdest %s: %w", own, err)
			}
			s.note("", fmt.Sprintf("struct_ifdest %s -> %d", own, len(dests)))
			visit(own, dests, true)
		}
		if ifc.Dir.Receives() {
			sources, err := b.IfSources(own)
			if err != nil {
				return fmt.Errorf("struct_ifsources %s: %w", own, err)
			}
			s.note("", fmt.Sprintf("struct_ifsources %s -> %d", own, len(sources)))
			visit(own, sources, false)
			received(own)
		}
	}
	return nil
}

// inverseEdits returns the batch that undoes edits: reverse order, add and
// del swapped, queue moves reversed. Queue drops never appear in a forward
// path (they are post-commit), so every edit has an inverse.
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

// ---- Replace (Figure 5) ----

// ReplaceTx performs the Figure 5 replacement script as a transaction:
// replace instance old with a new instance carrying the old one's state,
// rebinding all its interfaces and preserving queued messages. A different
// Machine makes it the paper's migration, a different Module software
// maintenance.
//
// Any failure on the forward path replays the completed steps' inverses —
// restore the bindings and return the moved queue contents (inverse
// rebind), release the old module (cancel the request, or resurrect it from
// its divulged state), delete the clone — leaving the application answering
// traffic through the original module with the pre-transaction
// configuration.
//
// The commit point is the clone's restore confirmation: only a replacement
// that demonstrably answers for its state runs the destructive tail
// (dropping the old module's residual queue and deleting it).
func ReplaceTx(p *Primitives, launcher Launcher, old string, opts ReplaceOptions) (*TxResult, error) {
	return runTx(p, fmt.Sprintf("replace %s -> %s", old, opts.NewName), func(tx *telemetry.TxTrace) (*script, error) {
		return replaceScript(p.bus, launcher, old, opts, tx)
	})
}

// PlanReplace returns the steps ReplaceTx would perform, without executing
// any of them — the dry-run behind reconfigctl's -dry-run. It is the names
// of the very table ReplaceTx runs. The "commit" line marks the commit
// point: a failure above it rolls back; the destructive steps below it only
// run after the clone confirms.
func PlanReplace(p *Primitives, old string, opts ReplaceOptions) ([]string, error) {
	s, err := replaceScript(p.bus, nil, old, opts, nil)
	if err != nil {
		return nil, fmt.Errorf("reconfig: plan: %w", err)
	}
	return s.plan(), nil
}

// replaceScript builds the replacement's table from the live configuration
// without mutating anything.
func replaceScript(b *bus.Bus, launcher Launcher, old string, opts ReplaceOptions, tx *telemetry.TxTrace) (*script, error) {
	neu, t := opts.NewName, opts.Timeouts.WithDefaults()
	if neu == "" {
		return nil, fmt.Errorf("replace %s: NewName required", old)
	}
	if neu == old {
		return nil, fmt.Errorf("replace %s: NewName must differ", old)
	}
	// Access the old module's current specification (it may have changed
	// dynamically since the application was described).
	info, err := b.Info(old)
	if err != nil {
		return nil, fmt.Errorf("obj_cap %s: %w", old, err)
	}
	spec := cloneOf(info, neu, bus.StatusClone)
	maps.Copy(spec.Attrs, opts.Attrs)
	if opts.Machine != "" {
		spec.Machine = opts.Machine
	}
	if opts.Module != "" {
		spec.Module = opts.Module
	}

	s := &script{}
	s.note("plan", "obj_cap "+old)
	s.add("add_clone", addObj(b, spec))

	// For every interface, replace bindings to the old instance with
	// bindings to the new one and move the old instance's queued messages
	// across ("cq"). Queue drops are destructive: they wait for the tail.
	var edits []bus.BindEdit
	var recv []bus.Endpoint
	edit := func(op string, from, to bus.Endpoint) {
		edits = append(edits, bus.BindEdit{Op: op, From: from, To: to})
		s.note("", fmt.Sprintf("edit_bind %s %s %s", op, from, to))
	}
	s.note("", "bind_cap")
	err = s.walkBindings(b, old, info.Interfaces, func(own, peer bus.Endpoint, sends bool) {
		clone := bus.Endpoint{Instance: neu, Interface: own.Interface}
		if sends {
			edit("del", own, peer)
			edit("add", clone, peer)
		} else {
			edit("del", peer, own)
			edit("add", peer, clone)
		}
	}, func(own bus.Endpoint) {
		edit("cq", own, bus.Endpoint{Instance: neu, Interface: own.Interface})
		recv = append(recv, own)
	})
	if err != nil {
		return nil, err
	}

	// Pre-flight gate: substitutability is decided before the substitute
	// serves. The candidate is vetted (against recorded traffic, or whatever
	// the caller supplied) before the old module hears of the replacement: a
	// veto has only the clone's registration to undo, and however long the
	// check runs, it runs outside the window in which the stage is stopped.
	if opts.Preflight != nil {
		s.add("preflight_replay", step{
			name: fmt.Sprintf("preflight %s -> %s", old, neu),
			do:   func() error { return opts.Preflight(old, neu) },
		})
	}

	// Ask the old module to divulge at its next reconfiguration point and
	// wait for its state (mh_objstate_move in three thirds, so the request
	// has its own inverse). The quiesce_wait span is the paper's
	// interruption latency.
	st := &oldRelease{origStatus: info.Status}
	s.add("quiesce_wait", step{
		name:   "signal_reconfig " + old,
		do:     func() error { return b.SignalReconfig(old) },
		action: "release_old",
		undo:   func() error { return releaseOld(b, launcher, old, st, t) },
	})
	s.add("", step{name: "await_divulged " + old, do: func() (err error) {
		noteQueued(tx, b, old)
		st.state, err = b.AwaitDivulged(old, t.StateMove)
		st.divulged = err == nil
		return err
	}})
	s.add("state_move", step{name: "install_state " + neu, do: func() error { return b.InstallState(neu, st.state) }})

	// Apply the rebinding commands all at once, then start the clone.
	s.add("rebind", rebind(b, edits))
	s.add("launch", launch(b, launcher, neu))

	// Commit gate: the clone must confirm it rebuilt the divulged state and
	// resumed before the old configuration is destroyed. The health note
	// (the paper's "operator observes the replacement", landing in the span
	// timeline rather than on a terminal) is taken while both still exist.
	s.add("restore_wait", step{name: "await_restored " + neu, do: func() error {
		if err := b.AwaitRestored(neu, t.RestoreAck); err != nil {
			return err
		}
		if opts.HealthNote != nil {
			tx.StartSpan("health_check")
			tx.Annotate("health_check " + opts.HealthNote(old, neu))
		}
		return nil
	}})
	s.commit = len(s.steps)

	// Destructive tail: drop what remains in the old module's queues and
	// delete it.
	for _, ep := range recv {
		s.add("", step{name: "drain_queue " + ep.String(), do: func() error {
			_, err := b.DrainQueue(ep)
			return err
		}})
	}
	s.add("", delObj(b, old))
	return s, nil
}

// noteQueued annotates the open span with what the quiesce is waiting on:
// the messages still queued toward inst, with their trace IDs and in-flight
// ages, so `trace <txid>` can explain a long quiesce_wait.
func noteQueued(tx *telemetry.TxTrace, b *bus.Bus, inst string) {
	qm, err := b.QueuedMessages(inst)
	if err != nil {
		return
	}
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

// divulgeGrace is how long an aborting transaction waits for a divulge that
// may already be in flight before concluding the old module never captured.
// A module signaled just before the abort may be past its flag check; its
// state then arrives within the grace window and the abort resurrects it
// instead of cancelling.
const divulgeGrace = 250 * time.Millisecond

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
func releaseOld(b *bus.Bus, launcher Launcher, old string, st *oldRelease, t Timeouts) error {
	if !st.divulged {
		if data, err := b.AwaitDivulged(old, divulgeGrace); err == nil {
			st.divulged, st.state = true, data
		}
	}
	if !st.divulged {
		return b.CancelReconfig(old)
	}
	if launcher == nil {
		return fmt.Errorf("reconfig: release %s: module divulged but no launcher to resurrect it", old)
	}
	if err := b.ResetForRelaunch(old); err != nil {
		return err
	}
	if err := b.InstallState(old, st.state); err != nil {
		return err
	}
	if err := launcher.Launch(old); err != nil {
		return err
	}
	if err := b.AwaitRestored(old, t.Rollback); err != nil {
		return err
	}
	return b.SetStatus(old, st.origStatus)
}

// ---- Replicate and Remove ----

// Replicate adds a fresh (stateless) second instance of the same module and
// binds it to the same peers, fanning incoming traffic out to both — the
// replication activity of the SURGEON work the paper builds on. No module
// participation is required: the replica starts from scratch. The script
// commits once the replica is launched; a failure before that unbinds and
// deletes it.
func Replicate(p *Primitives, launcher Launcher, inst, replicaName, machine string) (*TxResult, error) {
	return runTx(p, fmt.Sprintf("replicate %s -> %s", inst, replicaName), func(*telemetry.TxTrace) (*script, error) {
		return replicateScript(p.bus, launcher, inst, replicaName, machine)
	})
}

func replicateScript(b *bus.Bus, launcher Launcher, inst, replicaName, machine string) (*script, error) {
	info, err := b.Info(inst)
	if err != nil {
		return nil, fmt.Errorf("obj_cap %s: %w", inst, err)
	}
	spec := cloneOf(info, replicaName, bus.StatusAdd)
	if machine != "" {
		spec.Machine = machine
	}
	s := &script{}
	s.note("plan", "obj_cap "+inst)
	s.add("add_clone", addObj(b, spec))
	var edits []bus.BindEdit
	s.note("", "bind_cap")
	err = s.walkBindings(b, inst, info.Interfaces, func(own, peer bus.Endpoint, sends bool) {
		from, to := bus.Endpoint{Instance: replicaName, Interface: own.Interface}, peer
		if !sends {
			from, to = to, from
		}
		edits = append(edits, bus.BindEdit{Op: "add", From: from, To: to})
		s.note("", fmt.Sprintf("edit_bind add %s %s", from, to))
	}, func(bus.Endpoint) {})
	if err != nil {
		return nil, err
	}
	s.add("rebind", rebind(b, edits))
	s.add("launch", launch(b, launcher, replicaName))
	s.commit = len(s.steps)
	return s, nil
}

// Remove deletes an instance and its bindings (the delete activity).
func Remove(p *Primitives, inst string) (*TxResult, error) {
	return runTx(p, "remove "+inst, func(*telemetry.TxTrace) (*script, error) {
		s := &script{commit: 1}
		s.add("delete", delObj(p.bus, inst))
		return s, nil
	})
}
