// Package bus implements the software-bus substrate of the reproduction: a
// faithful, in-memory-plus-TCP analogue of the POLYLITH software toolbus the
// paper builds on (Section 1.1).
//
// A Bus hosts module *instances*. Each instance owns a set of named,
// directional *interfaces*; *bindings* connect interfaces of different
// instances; message passing is asynchronous, buffered at the bus in
// per-interface FIFO queues. The bus also carries the control plane needed
// for dynamic reconfiguration: reconfiguration signals, state divulge/
// install boxes, dynamic add/delete of instances and bindings, atomic
// rebinding batches, and queue transfer (the "cq"/"rmq" commands of
// Figure 5).
//
// The package is layered (see routing.go for the full picture): this file
// holds the Bus facade and the *control plane*, while the data plane (write,
// Attachment reads) runs lock-free against the current routing snapshot plus
// one per-queue lock.
//
// Every topology change goes through one doorway: an edit (AddInstance,
// Rebind, DeleteInstance, RemoveGroupMember, ...) only stages what it wants
// on a topologyDraft, and one commit, editLocked, carries it out in a fixed
// order — fence at the outgoing epoch, transfer queues stamped with the
// successor epoch, publish the successor routingTable, close the deleted
// instances, emit the events. A writer that resolved its route from the
// outgoing snapshot is refused at a fenced queue and finishes in writeSlow
// against the successor, which is what makes a replacement lose and
// duplicate nothing.
//
// The bus never interprets payloads: messages are opaque byte strings
// produced by a codec.Codec, which is what makes the system heterogeneous in
// the paper's sense — every datum that crosses the bus is in the abstract
// format.
package bus

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/replay"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// Direction describes which way messages flow on an interface, derived from
// the MIL role (client/server are bidirectional, define is outgoing, use is
// incoming).
type Direction int

// Interface directions.
const (
	In Direction = iota + 1
	Out
	InOut
)

// String returns "in", "out" or "inout".
func (d Direction) String() string {
	switch d {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "inout"
	default:
		return fmt.Sprintf("direction(%d)", int(d))
	}
}

// Receives reports whether the interface can consume messages.
func (d Direction) Receives() bool { return d == In || d == InOut }

// Sends reports whether the interface can emit messages.
func (d Direction) Sends() bool { return d == Out || d == InOut }

// Endpoint names one interface of one instance.
type Endpoint struct {
	Instance  string
	Interface string
}

// String renders "instance.interface".
func (e Endpoint) String() string { return e.Instance + "." + e.Interface }

// TraceContext is the causal-tracing context a message carries (see
// repro/internal/telemetry/trace). The alias keeps the wire format and the
// Port-facing API inside this package.
type TraceContext = trace.Context

// Message is one datum in flight: who sent it, the codec-encoded payload,
// and the trace context the bus stamped at send. The zero Trace means
// untraced, and costs one byte on the wire.
type Message struct {
	From  Endpoint
	Data  []byte
	Trace TraceContext

	// src is the interface the message was written on, set by the write
	// path and kept by every queue the message moves through, so the
	// delivery hooks record the sender's interned name instead of building
	// From.String() per delivery. Nil on a message the bus did not route.
	src *iface
}

// sender returns the interned "instance.interface" name of the interface
// the message was written on.
func (m *Message) sender() string {
	if m.src == nil {
		return ""
	}
	return m.src.name
}

// IfaceSpec declares one interface when registering an instance.
type IfaceSpec struct {
	Name string
	Dir  Direction
}

// InstanceSpec declares a module instance.
type InstanceSpec struct {
	Name       string
	Module     string // module specification name
	Machine    string // logical machine hosting the instance
	Status     string // "add" for an original, "clone" for a restoration
	Interfaces []IfaceSpec
	Attrs      map[string]string
}

// Statuses used by the paper: an original module sees "add"; a module
// created to receive moved state sees "clone" (mh_getstatus in Figure 4).
const (
	StatusAdd   = "add"
	StatusClone = "clone"
)

// Lifecycle phases of an instance on the bus.
type Phase int

// Instance phases. Added instances exist but have no attached runtime;
// Running instances have an attachment; Divulged instances have surrendered
// their state; Deleted instances are gone.
const (
	PhaseAdded Phase = iota + 1
	PhaseRunning
	PhaseDivulged
	PhaseDeleted
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseAdded:
		return "added"
	case PhaseRunning:
		return "running"
	case PhaseDivulged:
		return "divulged"
	case PhaseDeleted:
		return "deleted"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Errors reported by bus operations.
var (
	// ErrNoInstance indicates an operation on an unknown instance.
	ErrNoInstance = errors.New("bus: no such instance")
	// ErrDupInstance indicates AddInstance with a name already in use.
	ErrDupInstance = errors.New("bus: duplicate instance")
	// ErrNoInterface indicates an endpoint naming an undeclared interface.
	ErrNoInterface = errors.New("bus: no such interface")
	// ErrUnbound indicates a write on an interface with no receiving binding.
	ErrUnbound = errors.New("bus: interface not bound")
	// ErrDirection indicates a read on a non-receiving or write on a
	// non-sending interface.
	ErrDirection = errors.New("bus: interface direction does not permit operation")
	// ErrAlreadyAttached indicates a second Attach for one instance.
	ErrAlreadyAttached = errors.New("bus: instance already attached")
	// ErrNoBinding indicates deleting a binding that does not exist.
	ErrNoBinding = errors.New("bus: no such binding")
	// ErrTimeout indicates an await that expired.
	ErrTimeout = errors.New("bus: timed out")
	// ErrStopped indicates the instance was deleted while blocked.
	ErrStopped = errors.New("bus: instance stopped")
)

// Binding connects two endpoints. Routing is symmetric: a message written on
// either endpoint is delivered to the other side if (and only if) the other
// side receives. This matches POLYLITH client/server pairs, where replies
// flow back along the binding that carried the request.
type Binding struct {
	A Endpoint
	B Endpoint
}

type iface struct {
	spec  IfaceSpec
	name  string    // "instance.interface", built once at AddInstance
	queue *msgQueue // incoming messages, nil for pure-Out interfaces

	// Telemetry handles resolved once at AddInstance; nil (no-op) when the
	// bus runs with telemetry disabled, so the write path never branches.
	sent      *telemetry.Counter
	delivered *telemetry.Counter
	// latency attributes delivery latency (send-stamp to read) to this
	// receiving endpoint. Observed only for sampled messages, which are the
	// only ones carrying a send timestamp — the unsampled hot path is
	// untouched.
	latency *telemetry.Histogram
}

// instance is one module instance. The identity fields (name, interface
// set, signal and done channels) are immutable after AddInstance and are
// shared freely across routing snapshots; the runtime state below mu is
// mutable and guarded per-instance, so no data-plane or control-plane
// operation on one instance contends with traffic on another.
type instance struct {
	ifaces  map[string]*iface
	signals chan Signal
	done    chan struct{} // closed on delete

	mu         sync.Mutex
	spec       InstanceSpec // Status is rewritten by rollback paths
	phase      Phase
	attached   bool
	stateBox   *stateBox
	restoreBox chan error // restore confirmation (ConfirmRestore/AwaitRestored)
}

// ifaceNames returns the instance's interface names, sorted.
func (in *instance) ifaceNames() []string {
	names := make([]string, 0, len(in.ifaces))
	for n := range in.ifaces {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (in *instance) status() string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.spec.Status
}

func (in *instance) setPhase(p Phase) {
	in.mu.Lock()
	in.phase = p
	in.mu.Unlock()
}

func (in *instance) stateBoxRef() *stateBox {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stateBox
}

func (in *instance) restoreBoxRef() chan error {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.restoreBox
}

// Bus is the software bus. All methods are safe for concurrent use.
//
// mu is the control-plane writer lock, taken in two places: edit, which
// every topology change goes through, and writeSlow, the retry path of a
// fenced write. The steady-state data plane never takes it — it loads the
// current routing snapshot atomically and touches only per-queue locks.
type Bus struct {
	mu      sync.Mutex
	routing atomic.Pointer[routingTable]

	stats    busStats
	clock    func() time.Time
	faults   atomic.Pointer[faultinject.Set]
	telem    *telemetry.Registry
	tracer   *trace.Tracer
	recorder *replay.Log

	// Observers have their own lock: emit may run with or without b.mu held,
	// and observer registration must not race the dispatch snapshot.
	obsMu     sync.Mutex
	observers []*observerQueue
	obsClosed bool
}

// busStats holds the activity counters as atomics so the lock-free write
// path can account deliveries without a lock.
type busStats struct {
	delivered atomic.Int64
	dropped   atomic.Int64
	rebinds   atomic.Int64
	signals   atomic.Int64
	moves     atomic.Int64
}

// Stats counts bus activity, for the benchmark harness. SnapshotVersion is
// the epoch of the current routing snapshot: it increases by one per
// published topology change, so the control plane can correlate traffic
// counters with reconfiguration activity.
type Stats struct {
	Delivered       int64  `json:"delivered"`
	Dropped         int64  `json:"dropped"`
	Rebinds         int64  `json:"rebinds"`
	Signals         int64  `json:"signals"`
	Moves           int64  `json:"moves"` // queue moves
	SnapshotVersion uint64 `json:"snapshot_version"`
}

// BusOption configures a Bus at construction.
type BusOption func(*Bus)

// WithTelemetry sets the bus's metrics registry. Passing nil disables bus
// telemetry entirely: every metric handle resolves to nil and the hot paths
// degrade to no-ops (the uninstrumented baseline of
// TestWriteTelemetryAddsNoAllocs).
func WithTelemetry(reg *telemetry.Registry) BusOption {
	return func(b *Bus) { b.telem = reg }
}

// WithMsgTracer sets the bus's message tracer. The default (an unsampled
// tracer) stamps causal contexts but records nothing; a sampling tracer
// additionally records delivery spans into its flight recorder. Passing nil
// disables stamping entirely — messages carry the zero TraceContext — which
// is the baseline arm of the trace-overhead benchmark.
func WithMsgTracer(tr *trace.Tracer) BusOption {
	return func(b *Bus) { b.tracer = tr }
}

// WithRecorder sets the bus's record/replay log: while the log is enabled,
// every delivered message is appended — under the destination queue's lock,
// so the recorded per-queue sequence is the queue's total delivery order.
// The default (nil) resolves every append handle to a no-op; a disabled log
// costs one atomic load per delivery and allocates nothing.
func WithRecorder(l *replay.Log) BusOption {
	return func(b *Bus) { b.recorder = l }
}

// New creates an empty bus. Failpoints default to the process-wide set
// configured by the FAULTPOINTS environment variable (usually empty).
// Telemetry is on by default with a fresh registry; override with
// WithTelemetry.
func New(opts ...BusOption) *Bus {
	b := &Bus{
		clock:  time.Now,
		telem:  telemetry.NewRegistry(),
		tracer: trace.NewTracer(0, nil),
	}
	b.faults.Store(faultinject.Default())
	b.routing.Store(&routingTable{version: 1, instances: map[string]*instance{}, groups: map[string]*groupEntry{}})
	for _, opt := range opts {
		opt(b)
	}
	return b
}

// Telemetry returns the bus's metrics registry (nil when disabled).
func (b *Bus) Telemetry() *telemetry.Registry { return b.telem }

// MsgTracer returns the bus's message tracer (nil when stamping is
// disabled).
func (b *Bus) MsgTracer() *trace.Tracer { return b.tracer }

// Recorder returns the bus's record/replay log (nil when recording was
// never configured).
func (b *Bus) Recorder() *replay.Log { return b.recorder }

// SetFaults overrides the bus's fault-injection set (tests arm their own so
// parallel tests do not share failpoints). A nil set disables injection.
func (b *Bus) SetFaults(s *faultinject.Set) { b.faults.Store(s) }

// Faults returns the bus's fault-injection set (possibly nil).
func (b *Bus) Faults() *faultinject.Set { return b.faults.Load() }

// fire consults the fault-injection set at a site (a Delay point sleeps;
// Fire is nil-receiver safe, so a disabled set costs one atomic load).
func (b *Bus) fire(site string) error {
	return b.faults.Load().Fire(site)
}

// Observe registers a callback invoked for every bus event. Dispatch is
// asynchronous with per-observer FIFO ordering: each observer gets its own
// mailbox drained by an on-demand goroutine, so a slow observer delays only
// itself — it can never block bus operations or other observers. Call
// SyncObservers to wait for all queued events to be delivered.
func (b *Bus) Observe(fn func(Event)) {
	b.obsMu.Lock()
	defer b.obsMu.Unlock()
	if b.obsClosed {
		return
	}
	b.observers = append(b.observers, newObserverQueue(fn))
}

// Close shuts down event dispatch: every event emitted before the call is
// delivered, the observer mailboxes drain, their goroutines terminate, and
// later emits are dropped. Close is idempotent and does not affect the data
// plane — attachments keep working, which lets an owner close observers
// before tearing instances down.
func (b *Bus) Close() {
	b.obsMu.Lock()
	if b.obsClosed {
		b.obsMu.Unlock()
		return
	}
	b.obsClosed = true
	obs := b.observers
	b.observers = nil
	b.obsMu.Unlock()
	for _, o := range obs {
		o.sync()
	}
}

// SyncObservers blocks until every event emitted before the call has been
// delivered to every observer. Tests use it to make the asynchronous
// dispatch observable deterministically.
func (b *Bus) SyncObservers() {
	b.obsMu.Lock()
	obs := append([]*observerQueue(nil), b.observers...)
	b.obsMu.Unlock()
	for _, o := range obs {
		o.sync()
	}
}

func (b *Bus) emit(e Event) {
	e.Time = b.clock()
	b.obsMu.Lock()
	if b.obsClosed {
		b.obsMu.Unlock()
		return
	}
	obs := b.observers
	b.obsMu.Unlock()
	for _, o := range obs {
		o.enqueue(e)
	}
}

// Stats returns a snapshot of the activity counters.
func (b *Bus) Stats() Stats {
	return Stats{
		Delivered:       b.stats.delivered.Load(),
		Dropped:         b.stats.dropped.Load(),
		Rebinds:         b.stats.rebinds.Load(),
		Signals:         b.stats.signals.Load(),
		Moves:           b.stats.moves.Load(),
		SnapshotVersion: b.routing.Load().version,
	}
}

// editLocked is the one place a topology change meets traffic. fn stages
// the whole change on a draft of the current snapshot — binding, group and
// instance edits, the queues they invalidate, the queue transfers they want,
// the instances they delete — and touches nothing else, so an error from it
// leaves the previous snapshot current, every queue as it was and no event
// emitted. What validated is then committed in one fixed order:
//
//  1. fence: every staged queue is detached at the outgoing epoch, so a
//     writer that resolved its route from the outgoing snapshot is refused
//     at the queue and waits in writeSlow for this lock;
//  2. move: each transfer takes what its fenced source holds and lands it,
//     stamped with the successor epoch;
//  3. publish the successor snapshot;
//  4. close the deleted instances, waking their blocked readers;
//  5. emit the staged events.
//
// Nothing in the commit can fail. Callers hold b.mu.
func (b *Bus) editLocked(fn func(d *topologyDraft) error) error {
	cur := b.routing.Load()
	d := cur.draft()
	if err := fn(d); err != nil {
		return err
	}
	next := cur.version + 1
	for _, ifc := range d.fenced {
		ifc.queue.detach(cur.version)
	}
	for _, mv := range d.moves {
		msgs := mv.from.queue.drain()
		switch {
		case len(mv.to) > 0:
			for i := range msgs {
				mv.to[i%len(mv.to)].queue.pushAll(msgs[i:i+1], next)
			}
			b.stats.moves.Add(int64(len(msgs)))
		case mv.keep:
			mv.from.queue.restore(msgs, next)
			msgs = nil
		}
		mv.n = len(msgs)
		ev := &d.events[mv.ev]
		ev.Detail += fmt.Sprintf(" (%d msgs)", mv.n)
		ev.TraceIDs = traceIDsOf(msgs)
	}
	b.routing.Store(d.build(next))
	for _, in := range d.deleted {
		in.setPhase(PhaseDeleted)
		close(in.done)
		for _, ifc := range in.ifaces {
			if ifc.queue != nil {
				ifc.queue.close()
			}
		}
		in.stateBoxRef().close()
	}
	for _, e := range d.events {
		b.emit(e)
	}
	return nil
}

// edit is editLocked behind the writer lock — the narrow doorway every
// topology change goes through.
func (b *Bus) edit(fn func(d *topologyDraft) error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.editLocked(fn)
}

// AddInstance registers a module instance. The instance exists (its queues
// accept messages) but has no runtime until Attach.
func (b *Bus) AddInstance(spec InstanceSpec) error {
	if spec.Name == "" {
		return fmt.Errorf("bus: instance with empty name")
	}
	if spec.Status == "" {
		spec.Status = StatusAdd
	}
	if err := b.fire("bus.addinstance"); err != nil {
		return fmt.Errorf("bus: add instance %s: %w", spec.Name, err)
	}
	in := &instance{
		spec:       spec,
		phase:      PhaseAdded,
		ifaces:     map[string]*iface{},
		signals:    make(chan Signal, 16),
		stateBox:   newStateBox(),
		restoreBox: make(chan error, 1),
		done:       make(chan struct{}),
	}
	for _, is := range spec.Interfaces {
		if is.Name == "" {
			return fmt.Errorf("bus: instance %s declares unnamed interface", spec.Name)
		}
		if _, dup := in.ifaces[is.Name]; dup {
			return fmt.Errorf("bus: instance %s declares interface %s twice", spec.Name, is.Name)
		}
		ifc := &iface{spec: is, name: spec.Name + "." + is.Name}
		if is.Dir.Receives() {
			ifc.queue = newMsgQueue()
		}
		in.ifaces[is.Name] = ifc
	}
	return b.edit(func(d *topologyDraft) error {
		if _, dup := d.instances[spec.Name]; dup {
			return fmt.Errorf("%w: %s", ErrDupInstance, spec.Name)
		}
		if _, dup := d.groups[spec.Name]; dup {
			return fmt.Errorf("%w: %s names a group", ErrDupInstance, spec.Name)
		}
		// Resolve telemetry handles once, after validation, off the message
		// path. On a telemetry-free bus these stay nil and the counters are
		// no-ops.
		for _, ifc := range in.ifaces {
			prefix := "bus.iface." + ifc.name
			if ifc.spec.Dir.Sends() {
				ifc.sent = b.telem.Counter(prefix + ".sent")
			}
			if ifc.spec.Dir.Receives() {
				ifc.delivered = b.telem.Counter(prefix + ".delivered")
				ifc.latency = b.telem.Histogram(prefix + ".delivery_latency_ns")
				q := ifc.queue
				b.telem.GaugeFunc(prefix+".queue_depth", func() int64 {
					return int64(q.length())
				})
				// The record handle is interned per endpoint, so a clone
				// reusing a name (rollback resurrect) continues the same
				// recorded delivery sequence. Nil recorder → nil handle →
				// no-op appends.
				q.rec = b.recorder.Queue(ifc.name)
			}
		}
		d.instances[spec.Name] = in
		d.events = append(d.events, Event{Kind: EventAddInstance, Instance: spec.Name, Detail: spec.Machine})
		return nil
	})
}

// DeleteInstance removes an instance, closing its queues and waking any
// blocked reader with ErrStopped. Bindings touching the instance are
// removed. The commit fences the instance's queues before it publishes the
// successor snapshot, so a concurrent writer holding the old snapshot
// retries against the new topology instead of posting to a dead queue.
func (b *Bus) DeleteInstance(name string) error {
	if err := b.fire("bus.deleteinstance"); err != nil {
		return fmt.Errorf("bus: delete instance %s: %w", name, err)
	}
	err := b.edit(func(d *topologyDraft) error {
		return d.deleteInstance(name)
	})
	if err == nil {
		b.telem.Unregister("bus.iface." + name + ".") // a scan of every metric name: not under b.mu
	}
	return err
}

// Attach claims the runtime slot of an instance, transitioning it to
// PhaseRunning. Exactly one attachment per instance is allowed.
func (b *Bus) Attach(name string) (*Attachment, error) {
	if err := b.fire("bus.attach"); err != nil {
		return nil, fmt.Errorf("bus: attach %s: %w", name, err)
	}
	in, ok := b.routing.Load().instances[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoInstance, name)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.phase == PhaseDeleted {
		return nil, fmt.Errorf("%w: %s", ErrNoInstance, name)
	}
	if in.attached {
		return nil, fmt.Errorf("%w: %s", ErrAlreadyAttached, name)
	}
	in.attached = true
	in.phase = PhaseRunning
	return newAttachment(b, in), nil
}

// AddBinding connects two endpoints. Both must exist, and at least one side
// must send while the other receives.
func (b *Bus) AddBinding(a, c Endpoint) error {
	return b.edit(func(d *topologyDraft) error {
		return d.addBinding(a, c)
	})
}

// DeleteBinding removes the binding between two endpoints (in either
// orientation).
func (b *Bus) DeleteBinding(a, c Endpoint) error {
	return b.edit(func(d *topologyDraft) error {
		return d.deleteBinding(a, c)
	})
}

// DrainQueue discards all pending messages at the endpoint — the "rmq"
// command. It returns the number discarded.
func (b *Bus) DrainQueue(e Endpoint) (int, error) {
	var mv *queueMove
	err := b.edit(func(d *topologyDraft) (err error) {
		mv, err = d.discardQueue(e)
		return err
	})
	if err != nil {
		return 0, err
	}
	return mv.n, nil
}

// traceIDsOf collects the distinct nonzero trace IDs of a message batch, in
// first-seen order, capped at 8 — enough for event-log correlation without
// unbounded event payloads.
func traceIDsOf(msgs []Message) []uint64 {
	var ids []uint64
	for _, m := range msgs {
		if id := m.Trace.TraceID; id != 0 && !slices.Contains(ids, id) {
			if ids = append(ids, id); len(ids) == 8 {
				break
			}
		}
	}
	return ids
}

// BindEdit is one entry of an atomic rebinding batch, mirroring the
// mh_edit_bind commands of Figure 5. Op is "add", "del", "cq" (move queued
// messages From→To) or "rmq" (discard queued messages at From).
type BindEdit struct {
	Op   string
	From Endpoint
	To   Endpoint
}

// Rebind applies a batch of binding edits atomically: either all edits
// apply, or none. This is the mh_rebind of Figure 5: "the rebinding
// commands are applied all at once, after the old module has divulged its
// state".
//
// Every edit is staged on one draft, so a batch with an edit that does not
// validate leaves the current snapshot — and the observable Bindings() —
// untouched, moves no message and emits no event. A batch that validates is
// committed by editLocked: the queues it invalidates (both sides of a
// deleted binding, a group side meaning its members' queues, and the source
// of a cq or rmq) are fenced at the outgoing epoch, the transfers run, the
// successor is published. A concurrent writer holding the outgoing snapshot
// is refused at the queue and retries against the successor, so no message
// is lost to an abandoned queue and none lands on a stale route.
func (b *Bus) Rebind(edits []BindEdit) error {
	if err := b.fire("bus.rebind"); err != nil {
		return fmt.Errorf("bus: rebind: %w", err)
	}
	err := b.edit(func(d *topologyDraft) error {
		for i, e := range edits {
			var err error
			switch e.Op {
			case "add":
				err = d.addBinding(e.From, e.To)
			case "del":
				err = d.deleteBinding(e.From, e.To)
			case "cq":
				err = d.moveQueue(e.From, e.To)
			case "rmq":
				_, err = d.discardQueue(e.From)
			default:
				err = fmt.Errorf("bus: unknown rebind op %q", e.Op)
			}
			if err != nil {
				return fmt.Errorf("bus: rebind edit %d (%s %s %s): %w", i, e.Op, e.From, e.To, err)
			}
		}
		d.events = append(d.events, Event{Kind: EventRebind, Detail: fmt.Sprintf("%d edits", len(edits))})
		return nil
	})
	if err == nil {
		b.stats.rebinds.Add(1)
	}
	return err
}

// SignalReconfig delivers a reconfiguration signal to the instance — the
// analogue of the paper's SIGHUP, which sets mh_reconfig in the module's
// signal handler. Extra signals beyond the runtime's buffer are dropped,
// matching UNIX signal coalescing.
func (b *Bus) SignalReconfig(name string) error {
	return b.Signal(name, Signal{Kind: SignalReconfig})
}

// CancelReconfig retracts a pending reconfiguration request: the module's
// runtime clears its mh_reconfig flag when the cancel signal is polled. The
// transaction layer sends it when a reconfiguration aborts before the
// module divulged. The retraction is best-effort, with UNIX-signal
// semantics: a module already past its flag check captures anyway (the
// abort path then restores it from the divulged state instead).
func (b *Bus) CancelReconfig(name string) error {
	return b.Signal(name, Signal{Kind: SignalCancel})
}

// Signal delivers an arbitrary control signal to the instance. The
// "bus.signal" failpoint can drop the delivery (a lost SIGHUP): the caller
// observes success but the module never learns of the request.
func (b *Bus) Signal(name string, s Signal) error {
	dropped := false
	if err := b.fire("bus.signal"); err != nil {
		if !errors.Is(err, faultinject.ErrDropped) {
			return fmt.Errorf("bus: signal %s: %w", name, err)
		}
		dropped = true
	}
	in, ok := b.routing.Load().instances[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoInstance, name)
	}
	b.stats.signals.Add(1)
	if dropped {
		return nil
	}
	select {
	case in.signals <- s:
	default: // coalesce like a UNIX signal
	}
	b.emit(Event{Kind: EventSignal, Instance: name, Detail: s.Kind.String()})
	return nil
}

// AwaitDivulged blocks until the named instance divulges its state (via its
// attachment) or the timeout expires.
func (b *Bus) AwaitDivulged(name string, timeout time.Duration) ([]byte, error) {
	if err := b.fire("bus.awaitdivulged"); err != nil {
		return nil, fmt.Errorf("bus: await state of %s: %w", name, err)
	}
	in, ok := b.routing.Load().instances[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoInstance, name)
	}
	data, err := in.stateBoxRef().await(timeout, in.done)
	if err != nil {
		return nil, fmt.Errorf("bus: await state of %s: %w", name, err)
	}
	return data, nil
}

// InstallState hands encoded state to the named (clone) instance; its
// runtime retrieves it with Attachment.AwaitState.
func (b *Bus) InstallState(name string, data []byte) error {
	if err := b.fire("bus.installstate"); err != nil {
		return fmt.Errorf("bus: install state into %s: %w", name, err)
	}
	in, ok := b.routing.Load().instances[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoInstance, name)
	}
	if err := in.stateBoxRef().put(data); err != nil {
		return fmt.Errorf("bus: install state into %s: %w", name, err)
	}
	b.emit(Event{Kind: EventInstallState, Instance: name, Detail: fmt.Sprintf("%d bytes", len(data))})
	return nil
}

// AwaitRestored blocks until the named (clone) instance confirms its state
// restoration — nil for success, or the restoration error — or the timeout
// expires. The transaction layer gates the destructive tail of a
// replacement on it: the old module is only deleted once the new one is
// demonstrably live.
func (b *Bus) AwaitRestored(name string, timeout time.Duration) error {
	if err := b.fire("bus.awaitrestored"); err != nil {
		return fmt.Errorf("bus: await restore of %s: %w", name, err)
	}
	in, ok := b.routing.Load().instances[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoInstance, name)
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err := <-in.restoreBoxRef():
		if err != nil {
			return fmt.Errorf("bus: restore of %s failed: %w", name, err)
		}
		return nil
	case <-in.done:
		return fmt.Errorf("bus: await restore of %s: %w", name, ErrStopped)
	case <-timer.C:
		return fmt.Errorf("bus: await restore of %s: %w", name, ErrTimeout)
	}
}

// ResetForRelaunch prepares a divulged instance to be launched again as a
// clone of itself: its runtime slot is released, its status becomes
// StatusClone so the relaunched program performs a restoration, and its
// state and restore boxes are fresh. The reconfiguration abort path uses it
// to resurrect an old module that already surrendered its state — the
// divulged state is reinstalled and the module resumes from its
// reconfiguration point. Queues and bindings are untouched.
func (b *Bus) ResetForRelaunch(name string) error {
	in, ok := b.routing.Load().instances[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoInstance, name)
	}
	in.mu.Lock()
	in.spec.Status = StatusClone
	in.attached = false
	in.phase = PhaseAdded
	in.stateBox = newStateBox()
	in.restoreBox = make(chan error, 1)
	in.mu.Unlock()
	b.emit(Event{Kind: EventRelaunch, Instance: name})
	return nil
}

// SetStatus rewrites an instance's status attribute. The abort path uses it
// to return a resurrected module to its original "add" status once the
// restoration is confirmed, so the rolled-back configuration matches the
// pre-transaction one.
func (b *Bus) SetStatus(name, status string) error {
	in, ok := b.routing.Load().instances[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoInstance, name)
	}
	in.mu.Lock()
	in.spec.Status = status
	in.mu.Unlock()
	return nil
}

// ---- introspection (mh_struct_* in Figure 5) ----

// InstanceInfo is the bus's current view of an instance, corresponding to
// the module specification mh_obj_cap retrieves.
type InstanceInfo struct {
	Name       string
	Module     string
	Machine    string
	Status     string
	Phase      Phase
	Interfaces []IfaceSpec
	Attrs      map[string]string
	Pending    map[string]int // queued message count per receiving interface
}

// Instances returns the sorted names of all live instances
// (mh_struct_objnames).
func (b *Bus) Instances() []string {
	return b.Routing().Instances()
}

// Info returns the current specification of an instance (mh_obj_cap).
func (b *Bus) Info(name string) (InstanceInfo, error) {
	in, ok := b.routing.Load().instances[name]
	if !ok {
		return InstanceInfo{}, fmt.Errorf("%w: %s", ErrNoInstance, name)
	}
	in.mu.Lock()
	status := in.spec.Status
	phase := in.phase
	in.mu.Unlock()
	info := InstanceInfo{
		Name:    in.spec.Name,
		Module:  in.spec.Module,
		Machine: in.spec.Machine,
		Status:  status,
		Phase:   phase,
		Pending: map[string]int{},
	}
	if len(in.spec.Attrs) > 0 {
		info.Attrs = make(map[string]string, len(in.spec.Attrs))
		for k, v := range in.spec.Attrs {
			info.Attrs[k] = v
		}
	}
	for _, n := range in.ifaceNames() {
		ifc := in.ifaces[n]
		info.Interfaces = append(info.Interfaces, ifc.spec)
		if ifc.queue != nil {
			info.Pending[n] = ifc.queue.length()
		}
	}
	return info, nil
}

// QueuedMessage describes one message pending at a receiving interface:
// where it waits, the trace context it carries, and how long it has been in
// flight (AgeNs is -1 when the message carries no send timestamp, i.e. it
// was written on a bus with stamping disabled).
type QueuedMessage struct {
	Endpoint Endpoint
	Trace    TraceContext
	AgeNs    int64
}

// QueuedMessages snapshots the messages still queued toward an instance,
// oldest first per interface, interfaces in name order. The reconfiguration
// layer calls it when a Replace enters its quiesce wait, so the transaction
// trace can show which in-flight traffic the quiesce waited on.
func (b *Bus) QueuedMessages(name string) ([]QueuedMessage, error) {
	in, ok := b.routing.Load().instances[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoInstance, name)
	}
	now := trace.Now() // the clock SentNs was read off
	var out []QueuedMessage
	for _, n := range in.ifaceNames() {
		ifc := in.ifaces[n]
		if ifc.queue == nil {
			continue
		}
		for _, m := range ifc.queue.snapshot() {
			qm := QueuedMessage{Endpoint: Endpoint{Instance: name, Interface: n}, Trace: m.Trace, AgeNs: -1}
			if m.Trace.SentNs != 0 {
				qm.AgeNs = now - m.Trace.SentNs
			}
			out = append(out, qm)
		}
	}
	return out, nil
}

// Bindings returns a copy of all current bindings, deterministically sorted
// by endpoint pair.
func (b *Bus) Bindings() []Binding {
	return b.Routing().Bindings()
}

// IfDest returns the endpoints that messages written on e are delivered to
// (mh_struct_ifdest). Results follow binding creation order, which the
// reconfiguration planner relies on for stable plans.
func (b *Bus) IfDest(e Endpoint) ([]Endpoint, error) {
	rt := b.routing.Load()
	if _, err := rt.lookup(e); err != nil {
		return nil, err
	}
	var out []Endpoint
	for _, bd := range rt.bindings {
		if other, ok := rt.route(bd, e); ok {
			out = append(out, other)
		}
	}
	return out, nil
}

// IfSources returns the endpoints whose writes are delivered to e
// (mh_struct_ifsources), in binding creation order.
func (b *Bus) IfSources(e Endpoint) ([]Endpoint, error) {
	rt := b.routing.Load()
	ifc, err := rt.lookup(e)
	if err != nil {
		return nil, err
	}
	if !ifc.spec.Dir.Receives() {
		return nil, nil
	}
	var out []Endpoint
	for _, bd := range rt.bindings {
		var other Endpoint
		switch e {
		case bd.A:
			other = bd.B
		case bd.B:
			other = bd.A
		default:
			continue
		}
		oifc, err := rt.lookup(other)
		if err == nil && oifc.spec.Dir.Sends() {
			out = append(out, other)
		}
	}
	return out, nil
}

// route is the delivery fan-out of one sending endpoint as resolved from
// one routing snapshot: what a write needs once it knows where it is going.
type route struct {
	rt   *routingTable
	from Endpoint
	routeSet
}

// routeOf resolves from's fan-out under the current routing snapshot. The
// snapshot is loaded on every call — its version is what the queues fence
// against — and memo, the caller's one-entry cache for this endpoint,
// answers only for the very table it was filled from: the first write after
// any topology change finds another table behind the pointer and resolves
// again, so a memoised route is never older than a freshly resolved one.
//
//archlint:hotpath
func (b *Bus) routeOf(memo *atomic.Pointer[route], from Endpoint) (*route, error) {
	rt := b.routing.Load()
	if r := memo.Load(); r != nil && r.rt == rt {
		return r, nil
	}
	return b.resolveRoute(rt, memo, from)
}

// resolveRoute is routeOf's cold half: once per endpoint per topology
// change, one map lookup and one small allocation.
func (b *Bus) resolveRoute(rt *routingTable, memo *atomic.Pointer[route], from Endpoint) (*route, error) {
	rs, ok := rt.routes[from]
	if !ok {
		return nil, b.writeNoRouteErr(rt, from)
	}
	r := &route{rt: rt, from: from, routeSet: rs}
	memo.Store(r)
	return r, nil
}

// writeRouted delivers a batch of messages (a Write is a batch of one)
// along r, in order. parent is the causal parent: the runtime passes the
// context of the message it is responding to, and the bus stamps each
// outgoing message as a child span (or mints one root chain for the batch
// when parent is zero). The per-send fixed costs are paid once for the
// whole batch: one trace-stamp reservation (a single atomic add claims
// len(batch) consecutive span ids — message i carries SpanID+i, so span
// mint order still equals emission order for replay) and one
// delivered-counter add at the end.
//
// This is the steady-state hot path: each message is built once, here, and
// every queue on the way copies it from this address into its slot — one
// lock-free push per target queue, no global lock and no allocation beyond
// the message itself. The only way traffic meets reconfiguration is the
// stale-route fence: a push refused because its route was resolved from a
// fenced snapshot finishes that message on writeSlow, which serializes
// with the writer lock and re-resolves, and hands back the tail of the
// batch (rest) for the caller to re-resolve against the successor snapshot.
//
//archlint:hotpath
func (b *Bus) writeRouted(r *route, batch [][]byte, parent TraceContext) (rest [][]byte, err error) {
	if len(r.targets) == 0 {
		return nil, b.writeUnboundErr(r.from)
	}
	var msg Message // filled in place: the queues copy it from this address
	msg.From, msg.src = r.from, r.src
	if b.tracer != nil {
		msg.Trace = b.tracer.StampBatch(parent, len(batch))
	}
	var delivered int64
	for i, data := range batch {
		msg.Data = data
		for j, t := range r.targets {
			var err error
			if t.ifc != nil {
				err = t.ifc.queue.pushRouted(&msg, r.rt.version)
				if err == nil {
					t.ifc.delivered.Inc()
				}
			} else {
				err = b.deliverGroup(t.group, &msg, r.rt.version)
			}
			switch err {
			case nil:
				delivered++
			case errStaleRoute:
				// Finishing under the writer lock also flushes the
				// deliveries counted so far.
				return batch[i+1:], b.writeSlow(&msg, r.targets[:j], delivered)
			default:
				// A closed queue means the receiver was deleted mid-write;
				// the message is simply dropped, like a datagram to a dead
				// process.
			}
		}
		if msg.Trace.TraceID != 0 {
			msg.Trace.SpanID++
		}
	}
	if delivered > 0 {
		b.stats.delivered.Add(delivered)
		r.src.sent.Add(delivered)
	}
	return nil, nil
}

// writeNoRouteErr reports a write on an endpoint with no route entry in
// the snapshot — the cold branch of writeTraced, kept in its own function
// so the annotated hot path carries no formatting. It re-resolves through
// the routing layer to report which invariant actually failed.
func (b *Bus) writeNoRouteErr(rt *routingTable, from Endpoint) error {
	ifc, err := rt.lookup(from)
	if err != nil {
		return err
	}
	return fmt.Errorf("%w: write on %s (%s)", ErrDirection, from, ifc.spec.Dir)
}

// writeUnboundErr counts and reports a write on an endpoint with no bound
// receivers — the other cold branch of writeTraced.
func (b *Bus) writeUnboundErr(from Endpoint) error {
	b.stats.dropped.Add(1)
	return fmt.Errorf("%w: %s", ErrUnbound, from)
}

// writeSlow finishes a write whose fast-path route was fenced by a
// concurrent topology change. It serializes with the writers on b.mu —
// by the time the lock is held the change has published its successor
// snapshot — re-resolves the route, and delivers to every current target
// not already reached on the fast path. attempted holds the targets the
// fast path already processed (delivered or dropped-closed); pre counts
// the fast-path deliveries for the stats.
func (b *Bus) writeSlow(msg *Message, attempted []target, pre int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	rt := b.routing.Load()
	delivered := pre
	from := msg.From
	rs, ok := rt.routes[from]
	if ok {
	targets:
		for _, t := range rs.targets {
			for _, done := range attempted {
				if sameTarget(done, t) {
					continue targets
				}
			}
			// Every fence was raised at an epoch before rt's, under this
			// lock, so the routed push is never refused as stale.
			if t.ifc != nil {
				if t.ifc.queue.pushRouted(msg, rt.version) == nil {
					t.ifc.delivered.Inc()
					delivered++
				}
			} else if b.deliverGroup(t.group, msg, rt.version) == nil {
				delivered++
			}
		}
	}
	if delivered == 0 {
		if !ok {
			if _, err := rt.lookup(from); err != nil {
				return err
			}
		}
		b.stats.dropped.Add(1)
		return fmt.Errorf("%w: %s", ErrUnbound, from)
	}
	b.stats.delivered.Add(delivered)
	msg.src.sent.Add(delivered)
	return nil
}
