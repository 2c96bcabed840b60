package mh

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/codec"
	"repro/internal/state"
)

// This file is the checkpointing baseline the paper's Discussion argues
// against — periodic full-state checkpointing with rollback restore — and
// its wiring into the participation runtime for *replicated* modules.
//
// "Our approach does not use checkpointing, in which the entire state of
// the process is saved periodically, and execution is rolled back to the
// most recent checkpoint in order to restore the process. [...] The cost of
// capturing the process state is paid only when a reconfiguration is
// performed, instead of at regular intervals during execution."
//
// The Checkpointer charges the full capture+encode cost every interval
// operations; a rollback to the latest checkpoint loses (and must
// re-execute) the operations performed since it was taken (PendingOps).
// Experiment C2 sweeps the interval and compares steady-state overhead and
// work lost at reconfiguration against the reconfiguration-point approach,
// whose steady-state cost is one flag test per point execution.
//
// A crash, unlike a planned reconfiguration, leaves nothing to divulge, so
// the supervisor rebuilds a dead replica from its newest periodic
// checkpoint instead. The runtime charges the capture every interval
// operations and publishes the encoded bytes to a sink; the supervisor keeps
// the latest per replica as the stand-in for divulged state.

// Snapshot produces the module's full abstract state on demand.
type Snapshot func() (*state.State, error)

// CheckpointStats counts checkpointing activity.
type CheckpointStats struct {
	// Ops is the number of operations observed.
	Ops int64
	// Checkpoints is the number of snapshots taken.
	Checkpoints int64
	// Bytes is the total encoded checkpoint volume.
	Bytes int64
}

// Checkpointer snapshots a module's state every Interval operations. It is
// safe for concurrent use: the module thread Ticks while a supervisor reads
// Latest and Stats from another goroutine.
type Checkpointer struct {
	interval int
	snapshot Snapshot

	mu        sync.Mutex
	sinceLast int
	last      []byte
	stats     CheckpointStats
}

// NewCheckpointer builds a checkpointer. interval is the number of
// operations between snapshots (≥1); snapshot renders the module state.
func NewCheckpointer(interval int, snap Snapshot) (*Checkpointer, error) {
	if interval < 1 {
		return nil, fmt.Errorf("checkpoint: interval %d < 1", interval)
	}
	if snap == nil {
		return nil, errors.New("checkpoint: nil snapshot function")
	}
	return &Checkpointer{interval: interval, snapshot: snap}, nil
}

// Tick records one completed operation, taking a checkpoint when the
// interval elapses. This is the steady-state cost the paper's approach
// avoids.
func (cp *Checkpointer) Tick() error {
	cp.mu.Lock()
	cp.stats.Ops++
	cp.sinceLast++
	due := cp.sinceLast >= cp.interval
	if due {
		cp.sinceLast = 0 // a failed snapshot waits a whole interval too
	}
	cp.mu.Unlock()
	if !due {
		return nil
	}
	return cp.Checkpoint()
}

// Checkpoint forces an immediate snapshot, off the interval schedule. The
// mh runtime takes one at snapshot registration so a replica is recoverable
// from birth, before its first interval elapses. Like Tick, it must be
// called from the module thread: the snapshot calls into module code, so it
// runs outside the lock, and the module thread is the only one that takes a
// checkpoint.
func (cp *Checkpointer) Checkpoint() error {
	st, err := cp.snapshot()
	if err != nil {
		return fmt.Errorf("checkpoint: snapshot: %w", err)
	}
	data, err := codec.Portable{}.EncodeState(st)
	if err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	cp.mu.Lock()
	cp.last = data
	cp.sinceLast = 0
	cp.stats.Checkpoints++
	cp.stats.Bytes += int64(len(data))
	cp.mu.Unlock()
	return nil
}

// PendingOps reports the operations performed since the last checkpoint —
// the work a rollback to it loses and must replay.
func (cp *Checkpointer) PendingOps() int {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.sinceLast
}

// Latest returns the newest encoded checkpoint, or nil if none was taken.
// The supervisor publishes these bytes as the stand-in for a crashed
// replica's divulged state. The returned slice must not be mutated.
func (cp *Checkpointer) Latest() []byte {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.last
}

// Stats returns a copy of the counters.
func (cp *Checkpointer) Stats() CheckpointStats {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.stats
}

// CheckpointSink receives each newly taken checkpoint: the replica's instance
// name and the encoded abstract state. Called on the module's own thread
// right after the snapshot is taken; implementations must not block on the
// module (store-and-return, like the supervisor's).
type CheckpointSink func(instance string, encoded []byte)

// WithCheckpoint arms periodic abstract-state checkpointing: once the module
// registers its snapshot function (RegisterSnapshot), every interval
// communication operations the runtime captures the abstract state, encodes
// it, and hands the bytes to sink. interval <= 0 leaves checkpointing off.
func WithCheckpoint(interval int, sink CheckpointSink) Option {
	return func(r *Runtime) {
		r.cpInterval = interval
		r.cpSink = sink
	}
}

// RegisterSnapshot supplies the module's abstract-state renderer and starts
// the operation counter. The snapshot runs on the module thread between
// operations, so it may read module state without synchronization. A no-op
// unless the runtime was built WithCheckpoint.
func (r *Runtime) RegisterSnapshot(snap Snapshot) {
	if r.cpInterval <= 0 {
		return
	}
	cp, err := NewCheckpointer(r.cpInterval, snap)
	if err != nil {
		r.record(fmt.Errorf("mh: checkpoint: %w", err))
		return
	}
	r.cp = cp
	// Baseline checkpoint at registration: a replica is recoverable from
	// birth, not only after its first interval elapses.
	if err := cp.Checkpoint(); err != nil {
		r.record(err)
		return
	}
	if r.cpSink != nil {
		if data := cp.Latest(); data != nil {
			r.cpSink(r.port.Name(), data)
		}
	}
}

// Checkpointer exposes the runtime's checkpointer (nil unless WithCheckpoint
// and RegisterSnapshot both happened), for its stats and latest checkpoint.
func (r *Runtime) Checkpointer() *Checkpointer { return r.cp }

// tickOp records one completed communication operation when checkpointing
// is armed: it charges the periodic capture and publishes any newly taken
// checkpoint to the sink.
func (r *Runtime) tickOp() {
	if r.cp == nil {
		return
	}
	if err := r.cp.Tick(); err != nil {
		r.record(err)
		return
	}
	// Only the module thread ticks, so PendingOps()==0 here means Tick just
	// took a checkpoint (the counter resets only at capture).
	if r.cpSink != nil && r.cp.PendingOps() == 0 {
		if data := r.cp.Latest(); data != nil {
			r.cpSink(r.port.Name(), data)
		}
	}
}
