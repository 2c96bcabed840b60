package reconf

// Record/replay facade: the App-level surface of the record/replay
// subsystem. The bus appends every delivered message to the record ring
// (Config.RecordBuffer); this file turns a recorded window back into
// running code — replaying an instance's inputs against a module body in
// a sandbox (internal/replay/rerun) — and wires the result in three
// places: ReplayRecorded (the offline reproduction behind cmd/mhreplay
// and the replay op), preflightReplay (the opt-in gate ReplaceTx runs
// before it signals the old module), and RecordStatus (the record op).

import (
	"fmt"

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

// sandboxFor builds the rerun body for the module behind an instance: the
// native function directly, or a fresh interpreter over the lowered
// program. Each call returns an independent body — replay runs never share
// state with the live instance or with each other.
func (a *App) sandboxFor(instance string) (rerun.Module, error) {
	pm, err := a.preparedFor(instance)
	if err != nil {
		return rerun.Module{}, fmt.Errorf("reconf: %w", err)
	}
	if pm.Native != nil {
		return rerun.Module{Name: pm.Name, Body: func(rt *mh.Runtime) { pm.Native(rt) }}, nil
	}
	return rerun.Module{Name: pm.Name, Body: func(rt *mh.Runtime) {
		_, _ = pm.Lowered.Bind(rt).Run()
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
	// Truncated is set when the window came from a ring that had already
	// overwritten its oldest deliveries: the replay starts mid-stream.
	Truncated bool `json:"truncated,omitempty"`
}

// ReplayRecorded re-runs a recorded window against the named instance's
// own module in-process and diffs the replayed output sequence against
// the recorded one — the reproduction check behind cmd/mhreplay and the
// replay op. The window defaults to the current ring contents when recs
// is nil.
func (a *App) ReplayRecorded(instance string, recs []replay.Record) (*ReplayReport, error) {
	lost := false // the ring had already overwritten part of the recording
	if recs == nil {
		if a.recorder == nil {
			return nil, fmt.Errorf("reconf: recording not configured (set Config.RecordBuffer)")
		}
		recs, lost = a.recorder.Snapshot(), a.recorder.Overwritten() > 0
	}
	mod, err := a.sandboxFor(instance)
	if err != nil {
		return nil, err
	}
	res, err := rerun.Run(instance, recs, mod, rerun.Options{
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
		Module:     mod.Name,
		Window:     res.Window,
		Consumed:   res.Consumed,
		Expected:   len(want),
		Replayed:   len(res.Outputs),
		Match:      div == nil && res.Err == "",
		Divergence: div,
		States:     len(res.States),
		Err:        res.Err,
		Truncated:  lost,
	}, nil
}

// preflightReplay is the replay gate ReplaceTx runs ahead of
// signal_reconfig when Config.PreflightReplay is set: the old instance's
// recorded input window is replayed against the old module and the
// candidate module from identical initial conditions — no live clone is
// involved — and any divergence in their output sequences vetoes the
// replacement (the transaction aborts; the old module, never signalled,
// keeps serving). An empty window passes trivially: nothing to vet.
func (a *App) preflightReplay(old, new string) error {
	recs := a.recorder.Snapshot()
	window := replay.InputsTo(recs, old)
	if len(window) == 0 {
		return nil
	}
	oldMod, err := a.sandboxFor(old)
	if err != nil {
		return fmt.Errorf("replay gate: %w", err)
	}
	newMod, err := a.sandboxFor(new)
	if err != nil {
		return fmt.Errorf("replay gate: %w", err)
	}
	opts := rerun.Options{Timeout: a.cfg.Timeouts.StateMove}
	oldRes, err := rerun.Run(old, window, oldMod, opts)
	if err != nil {
		return fmt.Errorf("replay gate: old run: %w", err)
	}
	newRes, err := rerun.Run(old, window, newMod, opts)
	if err != nil {
		return fmt.Errorf("replay gate: candidate run: %w", err)
	}
	if newRes.Err != "" {
		return fmt.Errorf("replay gate: candidate %s terminated: %s", newMod.Name, newRes.Err)
	}
	if div := replay.DiffOutputs(oldRes.Outputs, newRes.Outputs); div != nil {
		return fmt.Errorf("replay gate: candidate %s diverges from %s over %d recorded inputs: %s",
			newMod.Name, oldMod.Name, len(window), div)
	}
	return nil
}
