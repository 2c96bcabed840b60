// Package rerun re-executes a recorded window against a module body
// in-process: a virtual bus port feeds the module its recorded inputs in
// per-queue delivery order, a virtual clock (zero sleep unit) compresses
// time, and the module's output sequence plus its abstract-state
// trajectory (periodic checkpoints, when the module registers a snapshot)
// are captured for diffing against the recording or against a candidate
// module's run. This is the replayer half of the record/replay subsystem
// — cmd/mhreplay drives it offline, the PreflightReplay gate drives it
// between restore_wait and commit.
package rerun

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/bus"
	"repro/internal/mh"
	"repro/internal/replay"
)

// Module is the runnable identity of a module under replay.
type Module struct {
	// Name is the module specification name (reporting only).
	Name string
	// Body runs the module against the runtime, exactly as Launch would.
	Body func(rt *mh.Runtime)
}

// Options tunes one replay run.
type Options struct {
	// CheckpointEvery captures the module's abstract state every K
	// operations when > 0 and the module registers a snapshot, building
	// the state trajectory.
	CheckpointEvery int
	// Timeout bounds the run (default 30s) — a module body that blocks on
	// anything but its (exhausted) input is cut off rather than hanging
	// the gate.
	Timeout time.Duration
}

// Result is what one replay run produced.
type Result struct {
	// Instance is the replayed instance name.
	Instance string `json:"instance"`
	// Module is the module specification name.
	Module string `json:"module"`
	// Consumed counts input records the module actually read.
	Consumed int `json:"consumed"`
	// Window counts input records offered.
	Window int `json:"window"`
	// Outputs is the module's send sequence, in order.
	Outputs []replay.Output `json:"outputs"`
	// States is the abstract-state trajectory: the encoded checkpoint
	// after every CheckpointEvery operations (empty when the module
	// registers no snapshot).
	States [][]byte `json:"states,omitempty"`
	// Err is a non-clean termination of the module body, if any (running
	// out of recorded input is clean).
	Err string `json:"err,omitempty"`
}

// Run replays a recorded window against a module body. The window is
// filtered to the records destined for instance; the body is driven
// through a fresh mh.Runtime on a virtual port until it exits or the
// input is exhausted (a read past the window terminates the body the same
// way deletion from the bus would).
func Run(instance string, window []replay.Record, mod Module, opts Options) (*Result, error) {
	if mod.Body == nil {
		return nil, fmt.Errorf("rerun: module %s has no body", mod.Name)
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	vp := newVirtualPort(instance, replay.InputsTo(window, instance))
	res := &Result{Instance: instance, Module: mod.Name, Window: vp.total}

	mhOpts := []mh.Option{
		mh.WithSleepUnit(0), // virtual clock: sleeps complete immediately
		mh.WithLogWriter(io.Discard),
	}
	var stateMu sync.Mutex
	if opts.CheckpointEvery > 0 {
		mhOpts = append(mhOpts, mh.WithCheckpoint(opts.CheckpointEvery,
			func(_ string, encoded []byte) {
				stateMu.Lock()
				res.States = append(res.States, append([]byte(nil), encoded...))
				stateMu.Unlock()
			}))
	}
	rt := mh.New(vp, mhOpts...)

	done := make(chan struct{})
	go func() { //archlint:spawn replay sandbox body; joined via done below
		defer close(done)
		term := mh.Run(func() { mod.Body(rt) })
		if term != nil && !exhaustedTermination(term) {
			res.Err = term.Reason
		}
	}()
	select {
	case <-done:
	case <-time.After(opts.Timeout):
		vp.close() // wake blocked reads; the body unwinds via ErrStopped
		<-done
		res.Err = "replay timeout: " + opts.Timeout.String()
	}
	if res.Err == "" {
		if err := rt.Err(); err != nil && !errors.Is(err, bus.ErrStopped) {
			res.Err = err.Error()
		}
	}
	vp.mu.Lock()
	res.Consumed = vp.consumed
	res.Outputs = vp.outputs
	vp.mu.Unlock()
	return res, nil
}

// exhaustedTermination reports whether a module termination was the
// expected end-of-window unwind (a read or sleep past the exhausted
// input surfaces as the stopped-instance error).
func exhaustedTermination(t *mh.Termination) bool {
	return t != nil && strings.Contains(t.Reason, bus.ErrStopped.Error())
}

// virtualPort is the replay sandbox's stand-in for a bus attachment: per-
// interface input queues preloaded from the recorded window, outputs
// captured in send order, no signals, no state install. It implements
// bus.TracedWriter so the runtime's causal carry-through works unchanged
// (the parent context is simply dropped — the sandbox has no tracer).
type virtualPort struct {
	name  string
	total int

	mu       sync.Mutex
	queues   map[string][]replay.Record
	consumed int
	outputs  []replay.Output
	closed   bool
}

func newVirtualPort(name string, window []replay.Record) *virtualPort {
	vp := &virtualPort{name: name, queues: map[string][]replay.Record{}}
	for _, r := range window {
		ifc := endpointIface(r.To)
		vp.queues[ifc] = append(vp.queues[ifc], r)
		vp.total++
	}
	return vp
}

// endpointIface returns the interface part of "instance.interface".
func endpointIface(ep string) string {
	for i := len(ep) - 1; i >= 0; i-- {
		if ep[i] == '.' {
			return ep[i+1:]
		}
	}
	return ""
}

func (vp *virtualPort) Name() string    { return vp.name }
func (vp *virtualPort) Machine() string { return "replay" }
func (vp *virtualPort) Status() string  { return bus.StatusAdd }

func (vp *virtualPort) Write(iface string, data []byte) error {
	return vp.WriteTraced(iface, data, bus.TraceContext{})
}

// WriteTraced captures one output (bus.TracedWriter capability).
func (vp *virtualPort) WriteTraced(iface string, data []byte, _ bus.TraceContext) error {
	vp.mu.Lock()
	defer vp.mu.Unlock()
	if vp.closed {
		return bus.ErrStopped
	}
	vp.outputs = append(vp.outputs, replay.Output{Iface: iface, Data: append([]byte(nil), data...)})
	return nil
}

// SendBatch captures a batch of outputs in emission order: a batched send
// replays identically to the equivalent sequence of Writes, so batching
// never changes a module's canonical output sequence.
func (vp *virtualPort) SendBatch(iface string, batch [][]byte) error {
	return vp.WriteBatchTraced(iface, batch, bus.TraceContext{})
}

// WriteBatchTraced implements bus.BatchTracedWriter for the sandbox.
func (vp *virtualPort) WriteBatchTraced(iface string, batch [][]byte, _ bus.TraceContext) error {
	vp.mu.Lock()
	defer vp.mu.Unlock()
	if vp.closed {
		return bus.ErrStopped
	}
	for _, data := range batch {
		vp.outputs = append(vp.outputs, replay.Output{Iface: iface, Data: append([]byte(nil), data...)})
	}
	return nil
}

// Read pops the next recorded input on iface. An exhausted queue reports
// the stopped-instance error, terminating the body exactly as deletion
// from the bus would — that is the end of the window.
func (vp *virtualPort) Read(iface string) (bus.Message, error) {
	vp.mu.Lock()
	defer vp.mu.Unlock()
	q := vp.queues[iface]
	if len(q) == 0 || vp.closed {
		return bus.Message{}, bus.ErrStopped
	}
	r := q[0]
	vp.queues[iface] = q[1:]
	vp.consumed++
	return recordMessage(r), nil
}

func (vp *virtualPort) TryRead(iface string) (bus.Message, bool, error) {
	vp.mu.Lock()
	defer vp.mu.Unlock()
	q := vp.queues[iface]
	if len(q) == 0 || vp.closed {
		if vp.closed {
			return bus.Message{}, false, bus.ErrStopped
		}
		return bus.Message{}, false, nil
	}
	r := q[0]
	vp.queues[iface] = q[1:]
	vp.consumed++
	return recordMessage(r), true, nil
}

func (vp *virtualPort) Pending(iface string) (int, error) {
	vp.mu.Lock()
	defer vp.mu.Unlock()
	return len(vp.queues[iface]), nil
}

func (vp *virtualPort) TakeSignal() (bus.Signal, bool) { return bus.Signal{}, false }

func (vp *virtualPort) Divulge([]byte) error { return nil }

func (vp *virtualPort) AwaitState(time.Duration) ([]byte, error) {
	return nil, errors.New("rerun: replay sandbox installs no state")
}

// Done reports input exhaustion so a module sleeping between reads exits
// at the window boundary instead of spinning forever (an empty window is
// exhausted from the start).
func (vp *virtualPort) Done() bool {
	vp.mu.Lock()
	defer vp.mu.Unlock()
	return vp.closed || vp.consumed == vp.total
}

func (vp *virtualPort) close() {
	vp.mu.Lock()
	vp.closed = true
	vp.mu.Unlock()
}

func recordMessage(r replay.Record) bus.Message {
	data := append([]byte(nil), r.Data...)
	from := r.From
	inst, ifc := from, ""
	for i := len(from) - 1; i >= 0; i-- {
		if from[i] == '.' {
			inst, ifc = from[:i], from[i+1:]
			break
		}
	}
	return bus.Message{
		From:  bus.Endpoint{Instance: inst, Interface: ifc},
		Data:  data,
		Trace: r.Trace,
	}
}

var _ bus.Port = (*virtualPort)(nil)
var _ bus.TracedWriter = (*virtualPort)(nil)
var _ bus.BatchTracedWriter = (*virtualPort)(nil)
