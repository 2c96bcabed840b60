package reconf

// Record/replay facade: the App-level surface of the record/replay
// subsystem. The bus appends every delivered message to the record ring
// (Config.RecordBuffer); this file turns a recorded window back into
// running code — replaying an instance's inputs against a module body in
// a sandbox (internal/replay/rerun) — and wires the result in three
// places: ReplayRecorded (the offline reproduction behind cmd/mhreplay
// and the replay op), preflightReplay (the opt-in gate ReplaceTx runs
// between restore_wait and commit), and RecordStatus (the record op).

import (
	"fmt"

	"repro/internal/interp"
	"repro/internal/mh"
	"repro/internal/replay"
	"repro/internal/replay/rerun"
)

// Recorder returns the application's record log (nil when
// Config.RecordBuffer was 0).
func (a *App) Recorder() *replay.Log { return a.recorder }

// RecordStatus describes the record ring for operators.
type RecordStatus struct {
	Configured  bool              `json:"configured"`
	Enabled     bool              `json:"enabled"`
	Capacity    int               `json:"capacity"`
	Retained    int               `json:"retained"`
	Recorded    uint64            `json:"recorded"`
	MemoryBound int               `json:"memory_bound_bytes"`
	SpillError  string            `json:"spill_error,omitempty"`
	Queues      []replay.QueueSeq `json:"queues,omitempty"`
}

// RecordStatus snapshots the record ring's state.
func (a *App) RecordStatus() RecordStatus {
	st := RecordStatus{
		Configured:  a.recorder != nil,
		Enabled:     a.recorder.Enabled(),
		Capacity:    a.recorder.Cap(),
		Retained:    a.recorder.Len(),
		Recorded:    a.recorder.Recorded(),
		MemoryBound: a.recorder.MemoryBound(),
		Queues:      a.recorder.QueueSeqs(),
	}
	if err := a.recorder.SpillErr(); err != nil {
		st.SpillError = err.Error()
	}
	return st
}

// SetRecording toggles the record ring at runtime (the record op:
// `reconfigctl record on|off`).
func (a *App) SetRecording(on bool) error {
	if a.recorder == nil {
		return fmt.Errorf("reconf: recording not configured (set Config.RecordBuffer)")
	}
	if on {
		a.recorder.Enable()
	} else {
		a.recorder.Disable()
	}
	return nil
}

// moduleOf resolves the module name behind an instance — the Load-time
// table for originals and replica members, the bus for clones created by
// scripts.
func (a *App) moduleOf(instance string) (string, error) {
	a.mu.Lock()
	mod, ok := a.instMod[instance]
	a.mu.Unlock()
	if ok {
		return mod, nil
	}
	info, err := a.bus.Info(instance)
	if err != nil {
		return "", err
	}
	return info.Module, nil
}

// sandboxModule builds the rerun body for a module: the native function
// directly, or a fresh interpreter over the prepared program. Each call
// returns an independent body — replay runs never share state with the
// live instance or with each other.
func (a *App) sandboxModule(modName string) (rerun.Module, error) {
	a.mu.Lock()
	pm, ok := a.modules[modName]
	a.mu.Unlock()
	if !ok {
		return rerun.Module{}, fmt.Errorf("reconf: no module %s", modName)
	}
	if pm.Native != nil {
		body := pm.Native
		return rerun.Module{Name: modName, Body: func(rt *mh.Runtime) { body(rt) }}, nil
	}
	if pm.Prog == nil {
		return rerun.Module{}, fmt.Errorf("reconf: module %s has no runnable body", modName)
	}
	prog, info := pm.Prog, pm.Info
	return rerun.Module{Name: modName, Body: func(rt *mh.Runtime) {
		_, _ = interp.New(prog, info, rt).Run()
	}}, nil
}

// ReplayReport is the outcome of replaying a recorded window against an
// instance's module.
type ReplayReport struct {
	Instance string `json:"instance"`
	Module   string `json:"module"`
	// Window counts the recorded inputs offered; Consumed how many the
	// module read; Expected the recorded output count; Replayed the
	// replayed output count.
	Window   int `json:"window"`
	Consumed int `json:"consumed"`
	Expected int `json:"expected_outputs"`
	Replayed int `json:"replayed_outputs"`
	// Match is true when the replayed output sequence is byte-identical
	// to the recorded one.
	Match      bool               `json:"match"`
	Divergence *replay.Divergence `json:"divergence,omitempty"`
	// States counts abstract-state checkpoints captured along the run
	// (nonzero only for modules that register a snapshot).
	States int `json:"states,omitempty"`
	// Err reports a non-clean termination of the module body.
	Err string `json:"err,omitempty"`
}

// ReplayRecorded re-runs a recorded window against the named instance's
// own module in-process and diffs the replayed output sequence against
// the recorded one — the reproduction check behind cmd/mhreplay and the
// replay op. The window defaults to the current ring contents when recs
// is nil.
func (a *App) ReplayRecorded(instance string, recs []replay.Record) (*ReplayReport, error) {
	if recs == nil {
		if a.recorder == nil {
			return nil, fmt.Errorf("reconf: recording not configured (set Config.RecordBuffer)")
		}
		recs = a.recorder.Snapshot()
	}
	modName, err := a.moduleOf(instance)
	if err != nil {
		return nil, err
	}
	mod, err := a.sandboxModule(modName)
	if err != nil {
		return nil, err
	}
	res, err := rerun.Run(instance, recs, mod, rerun.Options{
		Codec:           a.cfg.Codec,
		CheckpointEvery: a.cfg.CheckpointInterval,
		Timeout:         a.cfg.Timeouts.StateMove,
	})
	if err != nil {
		return nil, err
	}
	want := replay.OutputsOf(recs, instance)
	div := replay.DiffOutputs(want, res.Outputs)
	return &ReplayReport{
		Instance:   instance,
		Module:     modName,
		Window:     res.Window,
		Consumed:   res.Consumed,
		Expected:   len(want),
		Replayed:   len(res.Outputs),
		Match:      div == nil && res.Err == "",
		Divergence: div,
		States:     len(res.States),
		Err:        res.Err,
	}, nil
}

// preflightReplay is the replay gate ReplaceTx runs between the clone's
// restore confirmation and commit when Config.PreflightReplay is set: the
// old instance's recorded input window is replayed against the old module
// and the candidate module from identical initial conditions, and any
// divergence in their output sequences vetoes the cutover (the
// transaction aborts through the journaled rollback; the old module keeps
// serving). An empty window passes trivially — there is nothing to vet.
func (a *App) preflightReplay(old, new string) error {
	recs := a.recorder.Snapshot()
	window := replay.InputsTo(recs, old)
	if len(window) == 0 {
		return nil
	}
	oldModName, err := a.moduleOf(old)
	if err != nil {
		return fmt.Errorf("replay gate: %w", err)
	}
	newModName, err := a.moduleOf(new)
	if err != nil {
		return fmt.Errorf("replay gate: %w", err)
	}
	oldMod, err := a.sandboxModule(oldModName)
	if err != nil {
		return fmt.Errorf("replay gate: %w", err)
	}
	newMod, err := a.sandboxModule(newModName)
	if err != nil {
		return fmt.Errorf("replay gate: %w", err)
	}
	opts := rerun.Options{Codec: a.cfg.Codec, Timeout: a.cfg.Timeouts.StateMove}
	oldRes, err := rerun.Run(old, window, oldMod, opts)
	if err != nil {
		return fmt.Errorf("replay gate: old run: %w", err)
	}
	newRes, err := rerun.Run(old, window, newMod, opts)
	if err != nil {
		return fmt.Errorf("replay gate: candidate run: %w", err)
	}
	if newRes.Err != "" {
		return fmt.Errorf("replay gate: candidate %s terminated: %s", newModName, newRes.Err)
	}
	if div := replay.DiffOutputs(oldRes.Outputs, newRes.Outputs); div != nil {
		return fmt.Errorf("replay gate: candidate %s diverges from %s over %d recorded inputs: %s",
			newModName, oldModName, len(window), div)
	}
	return nil
}
