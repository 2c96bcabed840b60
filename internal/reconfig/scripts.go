package reconfig

import (
	"time"

	"repro/internal/bus"
	"repro/internal/quiesce"
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
	// Guards lists quiescence guards the caller holds around the
	// reconfiguration. An aborting transaction releases any still held,
	// so a failed script never leaves a module frozen.
	Guards []*quiesce.Guard
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

// Replace performs the Figure 5 reconfiguration script: replace instance
// old with a new instance carrying the old one's state, rebinding all its
// interfaces and preserving queued messages. It runs as a transaction (see
// ReplaceTx); on any step failure the original configuration is restored
// and the old module keeps running.
func Replace(p *Primitives, launcher Launcher, old string, opts ReplaceOptions) error {
	_, err := ReplaceTx(p, launcher, old, opts)
	return err
}

// Move relocates an instance to another machine — the Section 2
// reconfiguration ("the compute module has been relocated to another
// machine"). It is Replace with only the MACHINE attribute changed.
func Move(p *Primitives, launcher Launcher, inst, newName, machine string, timeout time.Duration) error {
	return Replace(p, launcher, inst, ReplaceOptions{
		NewName:  newName,
		Machine:  machine,
		Timeouts: Timeouts{StateMove: timeout},
	})
}

// Update replaces an instance's implementation with a new module version
// (software maintenance), carrying the state across. The new module must
// accept the old module's abstract state (same procedures and capture
// sets at the reconfiguration points).
func Update(p *Primitives, launcher Launcher, inst, newName, newModule string, timeout time.Duration) error {
	return Replace(p, launcher, inst, ReplaceOptions{
		NewName:  newName,
		Module:   newModule,
		Timeouts: Timeouts{StateMove: timeout},
	})
}

// Replicate adds a fresh (stateless) second instance of the same module and
// binds it to the same peers, fanning incoming traffic out to both — the
// replication activity of the SURGEON work the paper builds on. No module
// participation is required: the replica starts from scratch.
func Replicate(p *Primitives, launcher Launcher, inst, replicaName, machine string) error {
	info, err := p.ObjCap(inst)
	if err != nil {
		return err
	}
	spec := bus.InstanceSpec{
		Name:       replicaName,
		Module:     info.Module,
		Machine:    info.Machine,
		Status:     bus.StatusAdd,
		Interfaces: info.Interfaces,
	}
	if machine != "" {
		spec.Machine = machine
	}
	if err := p.AddObj(spec); err != nil {
		return err
	}
	batch := p.BindCap()
	added := map[string]bool{}
	for _, ifc := range info.Interfaces {
		oldEp := bus.Endpoint{Instance: inst, Interface: ifc.Name}
		newEp := bus.Endpoint{Instance: replicaName, Interface: ifc.Name}
		if ifc.Dir.Sends() {
			dests, err := p.StructIfDest(oldEp)
			if err != nil {
				return err
			}
			for _, d := range dests {
				key := newEp.String() + "|" + d.String()
				if added[key] {
					continue
				}
				added[key] = true
				p.EditBind(batch, "add", newEp, d)
			}
		}
		if ifc.Dir.Receives() {
			sources, err := p.StructIfSources(oldEp)
			if err != nil {
				return err
			}
			for _, s := range sources {
				key := newEp.String() + "|" + s.String()
				if added[key] {
					continue
				}
				added[key] = true
				p.EditBind(batch, "add", s, newEp)
			}
		}
	}
	if err := p.Rebind(batch); err != nil {
		return err
	}
	return p.ChgObj(launcher, replicaName, "add")
}

// Remove deletes an instance and its bindings (the delete activity).
func Remove(p *Primitives, inst string) error {
	return p.ChgObj(nil, inst, "del")
}
