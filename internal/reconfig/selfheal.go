package reconfig

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/telemetry"
)

// ReplaceFromCheckpointTx rebuilds a crashed replica-group member as a
// transaction. It is the Figure 5 replacement script with one substitution:
// a crashed module can divulge nothing, so the newest periodic checkpoint of
// its abstract state (mh.Checkpointer, in internal/mh/checkpoint.go) stands
// in for the divulged state. The paper's Discussion rejects paying
// the checkpoint cost for *planned* reconfiguration; a crash is the case
// where there is no reconfiguration point left to reach, which is exactly
// when the baseline earns its keep.
//
// Preconditions: the dead member has already been marked out of its group
// (the supervisor does this the moment death is detected, so traffic drains
// to the survivors), but its instance still exists on the bus.
//
// Forward path: clone the dead member's specification under newName, install
// the checkpoint, launch, and wait for the clone's restore confirmation —
// the commit gate, as in ReplaceTx. Any failure before it deletes the clone
// and leaves the group running on the survivors; the supervisor retries with
// a fresh generation name. The destructive tail moves the dead member's
// residual queued messages to the clone (non-empty only when the member died
// with no surviving peer to drain to), admits the clone into the group, and
// deletes the corpse.
func ReplaceFromCheckpointTx(p *Primitives, launcher Launcher, group, dead, newName string, ckpt []byte, t Timeouts) (*TxResult, error) {
	op := fmt.Sprintf("selfheal %s -> %s (group %s)", dead, newName, group)
	return runTx(p, op, func(*telemetry.TxTrace) (*script, error) {
		return selfhealScript(p.bus, launcher, group, dead, newName, ckpt, t.WithDefaults())
	})
}

func selfhealScript(b *bus.Bus, launcher Launcher, group, dead, newName string, ckpt []byte, t Timeouts) (*script, error) {
	if newName == "" || newName == dead {
		return nil, fmt.Errorf("selfheal %s: replacement name %q invalid", dead, newName)
	}
	if len(ckpt) == 0 {
		return nil, fmt.Errorf("selfheal %s: no checkpoint to rebuild from", dead)
	}
	// The dead member's instance is still registered — only its group
	// membership was revoked.
	info, err := b.Info(dead)
	if err != nil {
		return nil, fmt.Errorf("obj_cap %s: %w", dead, err)
	}
	s := &script{}
	s.note("plan", "obj_cap "+dead)
	s.add("add_clone", addObj(b, cloneOf(info, newName, bus.StatusClone)))
	// The checkpoint stands in for divulged state.
	s.add("state_move", step{name: "install_state " + newName, do: func() error { return b.InstallState(newName, ckpt) }})
	s.add("launch", launch(b, launcher, newName))
	s.add("restore_wait", step{name: "await_restored " + newName, do: func() error {
		return b.AwaitRestored(newName, t.RestoreAck)
	}})
	s.commit = len(s.steps)

	// Destructive tail: recover any messages still fenced at the corpse,
	// admit the clone to the group, delete the corpse.
	var edits []bus.BindEdit
	s.note("", "bind_cap")
	for _, ifc := range info.Interfaces {
		if ifc.Dir.Receives() {
			from := bus.Endpoint{Instance: dead, Interface: ifc.Name}
			to := bus.Endpoint{Instance: newName, Interface: ifc.Name}
			edits = append(edits, bus.BindEdit{Op: "cq", From: from, To: to})
			s.note("", fmt.Sprintf("edit_bind cq %s %s", from, to))
		}
	}
	if len(edits) > 0 {
		s.add("", rebind(b, edits))
	}
	s.add("", step{name: fmt.Sprintf("join_group %s %s", group, newName), do: func() error {
		return b.AddGroupMember(group, newName)
	}})
	s.add("", delObj(b, dead))
	return s, nil
}
