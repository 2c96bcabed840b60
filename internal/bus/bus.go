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
// The package is layered (package routing has the full picture): this file
// holds the Bus facade and the *control plane*, while the data plane (write,
// Attachment reads) runs lock-free against the current routing snapshot plus
// one per-queue lock. Every topology change only stages what it wants on a
// routing.Draft, and one commit, the routing committer's Edit, carries it
// out under the writer lock it alone holds. A writer that resolved its
// route from the outgoing snapshot is refused at a fenced queue and
// finishes in writeSlow against the successor, which is what makes a
// replacement lose and duplicate nothing.
//
// The bus writes the event log (Events): the commit's callback appends its
// records under the writer lock, so they are in commit order, and every
// other bus call that logs (a signal, a state hand-off, a restore
// acknowledgement) appends before the call returns and before its
// counterpart can see its effect. The log an operator reads is thus the
// ordered trace of what the bus did; Events hands out a view that cannot
// append.
//
// The bus never interprets payloads: messages are opaque byte strings
// produced by a codec.Codec, which is what makes the system heterogeneous in
// the paper's sense — every datum that crosses the bus is in the abstract
// format.
package bus

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bus/internal/queue"
	"repro/internal/bus/internal/routing"
	"repro/internal/clock"
	"repro/internal/faultinject"
	"repro/internal/replay"
	"repro/internal/telemetry"
	"repro/internal/telemetry/evlog"
	"repro/internal/telemetry/trace"
)

// Direction describes which way messages flow on an interface, derived from
// the MIL role (client/server are bidirectional, define is outgoing, use is
// incoming).
type Direction = routing.Direction

// Interface directions.
const (
	In    = routing.In
	Out   = routing.Out
	InOut = routing.InOut
)

// Endpoint names one interface of one instance ("instance.interface").
type Endpoint = queue.Endpoint

// TraceContext is the causal-tracing context a message carries (see
// repro/internal/telemetry/trace). The alias keeps the wire format and the
// Port-facing API inside this package.
type TraceContext = trace.Context

// Message is one datum in flight: who sent it (From), the codec-encoded
// payload (Data), and the trace context the bus stamped at send (Trace).
// The zero Trace means untraced, and costs one byte on the wire.
type Message = queue.Message

// IfaceSpec declares one interface when registering an instance.
type IfaceSpec = routing.IfaceSpec

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
	ErrNoInstance = routing.ErrNoInstance
	// ErrDupInstance indicates AddInstance with a name already in use.
	ErrDupInstance = routing.ErrDupInstance
	// ErrNoInterface indicates an endpoint naming an undeclared interface.
	ErrNoInterface = routing.ErrNoInterface
	// ErrUnbound indicates a write on an interface with no receiving binding.
	ErrUnbound = errors.New("bus: interface not bound")
	// ErrDirection indicates a read on a non-receiving or write on a
	// non-sending interface.
	ErrDirection = routing.ErrDirection
	// ErrAlreadyAttached indicates a second Attach for one instance.
	ErrAlreadyAttached = errors.New("bus: instance already attached")
	// ErrNoBinding indicates deleting a binding that does not exist.
	ErrNoBinding = routing.ErrNoBinding
	// ErrTimeout indicates an await that expired.
	ErrTimeout = errors.New("bus: timed out")
	// ErrStopped indicates the instance was deleted while blocked.
	ErrStopped = errors.New("bus: instance stopped")
)

// Binding connects two endpoints. Routing is symmetric: a message written on
// either endpoint is delivered to the other side if (and only if) the other
// side receives. This matches POLYLITH client/server pairs, where replies
// flow back along the binding that carried the request.
type Binding = routing.Binding

// instance is one module instance, the routing.Instance the snapshots carry.
// The identity fields (name, interface set, signal and done channels) are
// immutable after AddInstance; the runtime state below mu is mutable and
// guarded per-instance, so no operation on one instance contends with
// traffic on another.
type instance struct {
	ifaces  map[string]*routing.Iface
	signals chan Signal
	done    chan struct{} // closed on delete
	metrics []string      // the names AddInstance registered, unregistered by the commit that deletes it

	mu         sync.Mutex
	spec       InstanceSpec // Status is rewritten by rollback paths
	phase      Phase
	attached   bool
	stateBox   *stateBox
	restoreBox chan error // restore confirmation (ConfirmRestore/AwaitRestored)
}

// Ifaces returns the instance's interface entries.
func (in *instance) Ifaces() map[string]*routing.Iface { return in.ifaces }

// IfaceNames returns the instance's interface names, sorted.
func (in *instance) IfaceNames() []string {
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
// The bus holds no topology lock: the routing writer lock is the
// committer's, taken by its Edit, which every topology change goes through,
// and by its Settled, which the retry path of a fenced write (writeSlow)
// waits in. The steady-state data plane never takes it — it loads the
// current routing snapshot atomically and touches only per-queue locks.
type Bus struct {
	routing *routing.Published
	commit  routing.Committer // the one writer of routing

	stats    busStats
	clk      clock.Clock
	faults   atomic.Pointer[faultinject.Set]
	telem    *telemetry.Registry
	stamp    stamper
	recorder *replay.Log
	appender replay.Writer // the log's append half: each receiving queue gets its endpoint's handle
	events   *evlog.Log
}

// busStats holds the activity counters as atomics so the lock-free write
// path can account deliveries without a lock. A delivery is counted by its
// receiving queue, on the interface's own counter, before the queue
// publishes it (queue.New); delivered holds every such counter the bus ever
// resolved and Stats sums them, so writers to different queues share no
// counter and no reader can see a delivery Stats does not count. (A
// re-registered name resolves its predecessor's counter if the registry
// still has it, hence a set.)
type busStats struct {
	mu        sync.Mutex
	delivered map[*telemetry.Counter]bool
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

// WithRecorder builds the bus's delivery log and sets the trace sampling
// rate. Every sampleEvery-th trace the bus mints is sampled (1 = all, 0 =
// none; contexts are stamped and propagated either way). The log, built
// when either argument is positive, retains the capacity most recent
// deliveries (default 4096 when capacity <= 0): while recording is enabled
// (Recorder().Enable) every delivery, and with sampling on every sampled
// one, as a span — under the destination queue's lock, so the recorded
// per-queue sequence is the queue's total delivery order. Without a log
// every append handle is a no-op; an unsampled delivery to a log that is
// not recording costs one atomic load and a flag test and allocates
// nothing.
func WithRecorder(capacity, sampleEvery int) BusOption {
	return func(b *Bus) {
		b.stamp.sampleEvery = uint64(max(sampleEvery, 0))
		if capacity > 0 || sampleEvery > 0 {
			b.recorder, b.appender = replay.NewLog(capacity, sampleEvery > 0)
		}
	}
}

// WithEvents sets the event log the bus writes; the builder may hand it to
// the other writers of one ordered trace (the application hands it to its
// supervisors and transactions). The default is a log of its own, holding
// the newest 1 024 records.
func WithEvents(l *evlog.Log) BusOption {
	return func(b *Bus) { b.events = l }
}

// WithClock sets the clock every wait and timestamp of the bus reads: its
// timeouts, its send stamps and delivery span ends, its event times. The
// default is the real clock.
func WithClock(c clock.Clock) BusOption {
	return func(b *Bus) { b.clk = c }
}

// New creates an empty bus. Failpoints default to the process-wide set
// configured by the FAULTPOINTS environment variable (usually empty).
// Every bus builds its own metrics registry (Telemetry).
func New(opts ...BusOption) *Bus {
	b := &Bus{
		telem: telemetry.NewRegistry(),
		stats: busStats{delivered: map[*telemetry.Counter]bool{}},
	}
	b.faults.Store(faultinject.Default())
	b.routing, b.commit = routing.New()
	for _, opt := range opts {
		opt(b)
	}
	if b.events == nil {
		b.events = evlog.NewLog(0, b.clk)
	}
	_ = b.commit.Edit(func(*routing.Draft) error { return nil }, b.committed) // publishes the empty table, version 1
	return b
}

// Clock returns the clock the bus reads, for the layers built on it.
func (b *Bus) Clock() clock.Clock { return b.clk }

// Telemetry returns the bus's metrics registry.
func (b *Bus) Telemetry() *telemetry.Registry { return b.telem }

// Recorder returns the bus's delivery log (nil when neither recording nor
// tracing was configured).
func (b *Bus) Recorder() *replay.Log { return b.recorder }

// SetFaults overrides the bus's fault-injection set (tests arm their own so
// parallel tests do not share failpoints).
func (b *Bus) SetFaults(s *faultinject.Set) { b.faults.Store(s) }

// Faults returns the bus's fault-injection set.
func (b *Bus) Faults() *faultinject.Set { return b.faults.Load() }

// fire consults the fault-injection set at a site (a Delay point sleeps on
// the bus's clock; an empty set costs one atomic load and a lock).
func (b *Bus) fire(site string) error {
	return b.faults.Load().Fire(site, b.clk)
}

// Close tears the bus down: every live instance is deleted in one commit,
// so blocked readers wake with ErrStopped and the module runtimes wind
// down. The event log stays readable.
func (b *Bus) Close() {
	_ = b.commit.Edit(func(d *routing.Draft) error {
		for _, name := range d.View().Instances() {
			_ = d.DeleteInstance(name)
		}
		return nil
	}, b.committed)
}

// Stats returns a snapshot of the activity counters.
func (b *Bus) Stats() Stats {
	return Stats{
		Delivered:       b.stats.deliveries(),
		Dropped:         b.stats.dropped.Load(),
		Rebinds:         b.stats.rebinds.Load(),
		Signals:         b.stats.signals.Load(),
		Moves:           b.stats.moves.Load(),
		SnapshotVersion: b.routing.Load().Version(),
	}
}

// deliveries sums the receiving interfaces' delivery counters.
func (s *busStats) deliveries() (n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.delivered {
		n += c.Load()
	}
	return n
}

// committed is the bus's half of every commit, which the committer's Edit
// runs after it has fenced, moved and published (a refused writer waits in
// writeSlow until it returns): count the moved messages, close the deleted
// instances, waking their blocked readers, and append the staged events to
// the log, in commit order.
func (b *Bus) committed(deleted []routing.Instance, events []evlog.Record, moved int) {
	b.stats.moves.Add(int64(moved))
	for _, r := range deleted {
		in := r.(*instance)
		in.setPhase(PhaseDeleted)
		close(in.done)
		for _, ifc := range in.ifaces {
			if q := ifc.Queue(); q != nil {
				q.Close()
			}
		}
		in.stateBoxRef().close()
		b.telem.Unregister(in.metrics...)
	}
	for _, e := range events {
		b.emit(e)
	}
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
		ifaces:     map[string]*routing.Iface{},
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
		in.ifaces[is.Name] = &routing.Iface{Spec: is, Name: spec.Name + "." + is.Name}
	}
	return b.commit.Edit(func(d *routing.Draft) error {
		if err := d.AddInstance(spec.Name, spec.Machine, in); err != nil {
			return err
		}
		// Resolve telemetry handles once, after validation, off the message
		// path, each labeled with its owner so no reader parses the dotted
		// name (instance names may contain dots).
		for _, ifc := range in.ifaces {
			metric := func(suffix, family string) (string, telemetry.Labels) {
				name := "bus.iface." + ifc.Name + "." + suffix
				in.metrics = append(in.metrics, name)
				return name, telemetry.Labels{Family: family, Instance: spec.Name, Interface: ifc.Spec.Name}
			}
			if ifc.Spec.Dir.Sends() {
				ifc.Sent = b.telem.Counter(metric("sent", "bus_iface_sent"))
			}
			if ifc.Spec.Dir.Receives() {
				delivered := b.telem.Counter(metric("delivered", telemetry.FamilyDelivered))
				b.stats.mu.Lock()
				b.stats.delivered[delivered] = true
				b.stats.mu.Unlock()
				// The log's handle is interned per endpoint, so a clone
				// reusing a name (rollback resurrect) continues the same
				// recorded delivery sequence. No log → zero Writer → nil
				// handle → no-op appends. The queue is built in the routing
				// entry, which keeps its fence half.
				q := ifc.Receive(b.appender.Queue(ifc.Name), b.clk,
					b.telem.Histogram(metric("delivery_latency_ns", telemetry.FamilyDeliveryLatency)),
					delivered)
				name, labels := metric("queue_depth", telemetry.FamilyQueueDepth)
				b.telem.GaugeFunc(name, labels, func() int64 {
					return int64(q.Len())
				})
			}
		}
		return nil
	}, b.committed)
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
	return b.commit.Edit(func(d *routing.Draft) error {
		return d.DeleteInstance(name)
	}, b.committed)
}

// Attach claims the runtime slot of an instance, transitioning it to
// PhaseRunning. Exactly one attachment per instance is allowed.
func (b *Bus) Attach(name string) (*Attachment, error) {
	if err := b.fire("bus.attach"); err != nil {
		return nil, fmt.Errorf("bus: attach %s: %w", name, err)
	}
	in, err := b.instance(name)
	if err != nil {
		return nil, err
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
	return b.commit.Edit(func(d *routing.Draft) error {
		return d.AddBinding(a, c)
	}, b.committed)
}

// DrainQueue discards all pending messages at the endpoint — the "rmq"
// command. It returns the number discarded.
func (b *Bus) DrainQueue(e Endpoint) (int, error) {
	var n *int
	err := b.commit.Edit(func(d *routing.Draft) (err error) {
		n, err = d.DiscardQueue(e)
		return err
	}, b.committed)
	if err != nil {
		return 0, err
	}
	return *n, nil
}

// BindEdit is one entry of an atomic rebinding batch, mirroring the
// mh_edit_bind commands of Figure 5. Op is "add", "del", "cq" (move queued
// messages From→To) or "rmq" (discard queued messages at From).
type BindEdit = routing.BindEdit

// Rebind applies a batch of binding edits atomically: either all edits
// apply, or none. This is the mh_rebind of Figure 5: "the rebinding
// commands are applied all at once, after the old module has divulged its
// state".
//
// Every edit is staged on one draft, so a batch with an edit that does not
// validate leaves the current snapshot — and the observable Bindings() —
// untouched, moves no message and emits no event. A batch that validates is
// committed in one Edit, which fences the queues it invalidates (both sides
// of a deleted binding, a group side meaning its members' queues, and the
// source of a cq or rmq) and the queue a cq lands in: no message is lost to
// an abandoned queue, none lands on a stale route, and a concurrent write
// lands before or after the moved messages, never among them.
func (b *Bus) Rebind(edits []BindEdit) error {
	if err := b.fire("bus.rebind"); err != nil {
		return fmt.Errorf("bus: rebind: %w", err)
	}
	err := b.commit.Edit(func(d *routing.Draft) error {
		return d.Rebind(edits)
	}, b.committed)
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
	in, err := b.instance(name)
	if err != nil {
		return err
	}
	b.stats.signals.Add(1)
	if dropped {
		return nil
	}
	b.emit(evlog.Record{Kind: kindSignal, Instance: name, Detail: s.Kind.String()})
	select {
	case in.signals <- s:
	default: // coalesce like a UNIX signal
	}
	return nil
}

// AwaitDivulged blocks until the named instance divulges its state (via its
// attachment) or the timeout expires.
func (b *Bus) AwaitDivulged(name string, timeout time.Duration) ([]byte, error) {
	if err := b.fire("bus.awaitdivulged"); err != nil {
		return nil, fmt.Errorf("bus: await state of %s: %w", name, err)
	}
	in, err := b.instance(name)
	if err != nil {
		return nil, err
	}
	data, err := in.stateBoxRef().await(b.clk, timeout, in.done, nil)
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
	in, err := b.instance(name)
	if err != nil {
		return err
	}
	if err := in.stateBoxRef().put(data, func() {
		b.emit(evlog.Record{Kind: kindInstallState, Instance: name, Detail: fmt.Sprintf("%d bytes", len(data))})
	}); err != nil {
		return fmt.Errorf("bus: install state into %s: %w", name, err)
	}
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
	in, err := b.instance(name)
	if err != nil {
		return err
	}
	timer := b.clk.NewTimer(timeout)
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
	in, err := b.instance(name)
	if err != nil {
		return err
	}
	in.mu.Lock()
	in.spec.Status = StatusClone
	in.attached = false
	in.phase = PhaseAdded
	in.stateBox = newStateBox()
	in.restoreBox = make(chan error, 1)
	in.mu.Unlock()
	b.emit(evlog.Record{Kind: kindRelaunch, Instance: name})
	return nil
}

// SetStatus rewrites an instance's status attribute. The abort path uses it
// to return a resurrected module to its original "add" status once the
// restoration is confirmed, so the rolled-back configuration matches the
// pre-transaction one.
func (b *Bus) SetStatus(name, status string) error {
	in, err := b.instance(name)
	if err != nil {
		return err
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
	Pending    map[string]int  // queued message count per receiving interface
	Parked     map[string]bool // per receiving interface: its reader is blocked waiting for a message
	Signals    int             // control signals sent and not yet taken (by the module, or by the TCP pump forwarding them to a remote one)
}

// Instances returns the sorted names of all live instances
// (mh_struct_objnames).
func (b *Bus) Instances() []string {
	return b.Routing().Instances()
}

// Info returns the current specification of an instance (mh_obj_cap).
func (b *Bus) Info(name string) (InstanceInfo, error) {
	in, err := b.instance(name)
	if err != nil {
		return InstanceInfo{}, err
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
		Parked:  map[string]bool{},
		Signals: len(in.signals),
	}
	if len(in.spec.Attrs) > 0 {
		info.Attrs = make(map[string]string, len(in.spec.Attrs))
		for k, v := range in.spec.Attrs {
			info.Attrs[k] = v
		}
	}
	for _, n := range in.IfaceNames() {
		ifc := in.ifaces[n]
		info.Interfaces = append(info.Interfaces, ifc.Spec)
		if q := ifc.Queue(); q != nil {
			info.Pending[n] = q.Len()
			info.Parked[n] = q.Parked()
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
	in, err := b.instance(name)
	if err != nil {
		return nil, err
	}
	now := b.clk.Nanos() // the clock SentNs was read off
	var out []QueuedMessage
	for _, n := range in.IfaceNames() {
		q := in.ifaces[n].Queue()
		if q == nil {
			continue
		}
		for _, m := range q.Snapshot() {
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

// IfDest returns the receiving far ends of the bindings that name a sending
// e (mh_struct_ifdest): the bindings a replacement rebinds, not the group
// bindings a group member's writes also follow. Results follow binding
// creation order, which the reconfiguration planner relies on.
func (b *Bus) IfDest(e Endpoint) ([]Endpoint, error) { return b.routing.Load().Dests(e) }

// IfSources returns the sending far ends, instance or group interfaces, of
// the bindings that name e (mh_struct_ifsources), in binding creation order.
func (b *Bus) IfSources(e Endpoint) ([]Endpoint, error) { return b.routing.Load().Sources(e) }

// Routing returns the current topology snapshot. The view is immutable;
// reload it to observe later reconfigurations.
func (b *Bus) Routing() RoutingView { return b.routing.Load().View() }

// RoutingView is an immutable, point-in-time view of the topology.
type RoutingView = routing.View

// instance resolves a live instance of the current snapshot by name.
func (b *Bus) instance(name string) (*instance, error) {
	in, ok := b.routing.Load().Instance(name)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoInstance, name)
	}
	return in.(*instance), nil
}

// route is the delivery fan-out of one sending endpoint as resolved from
// one routing snapshot: what a write needs once it knows where it is going.
type route struct {
	rt   *routing.Table
	from Endpoint
	routing.RouteSet
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
func (b *Bus) resolveRoute(rt *routing.Table, memo *atomic.Pointer[route], from Endpoint) (*route, error) {
	rs, ok := rt.Route(from)
	if !ok {
		return nil, b.writeNoRouteErr(rt, from)
	}
	r := &route{rt: rt, from: from, RouteSet: rs}
	memo.Store(r)
	return r, nil
}

// stamper mints and extends the trace contexts the bus stamps on sends.
// It is a field of the Bus and nothing hands it out, so no other package
// can mint a trace: module code carries contexts, it never makes them.
type stamper struct {
	nextTrace, nextSpan atomic.Uint64
	// sampleEvery is the head-sampling rate: every sampleEvery-th minted
	// trace is sampled (1 = all, 0 = none). Set at construction.
	sampleEvery uint64
}

// batch stamps a batch of n sends with one span-counter reservation: a
// single atomic add claims n consecutive span ids, so the per-message cost
// of a batched send is plain arithmetic. It returns the context of the
// batch's first message; message i carries the same context with
// SpanID+uint64(i). Span ids stay unique and mint order still agrees with
// emission order, which is what replay's OutputsOf sorts by.
//
// With a valid parent every message is a sibling child span of that parent
// (one receive→send hop fanning out n sends). Without a parent the batch
// opens one causal chain — one trace id, n root sibling spans — so the
// burst is sampled (or not) as a unit.
//
//archlint:hotpath
func (s *stamper) batch(parent TraceContext, n int) TraceContext {
	last := s.nextSpan.Add(uint64(n))
	c := TraceContext{SpanID: last - uint64(n) + 1}
	if parent.Valid() {
		c.TraceID = parent.TraceID
		c.Parent = parent.SpanID
		c.Hops = parent.Hops + 1
		c.Flags = parent.Flags
	} else {
		c.TraceID = s.nextTrace.Add(1)
		if s.sampleEvery != 0 && c.TraceID%s.sampleEvery == 0 {
			c.Flags = trace.FlagSampled
		}
	}
	return c
}

// writeRouted delivers a batch of messages (a Write is a batch of one)
// along r, in order. parent is the causal parent: the runtime passes the
// context of the message it is responding to, and the bus stamps each
// outgoing message as a child span (or mints one root chain for the batch
// when parent is zero). The per-send fixed costs are paid once for the
// whole batch: one trace-stamp reservation (a single atomic add claims
// len(batch) consecutive span ids — message i carries SpanID+i, so span
// mint order still equals emission order for replay) and one sent-counter
// add at the end. Deliveries are counted by the queues, each before it
// publishes its message, so Stats never lags what a reader has read.
//
// This is the steady-state hot path: each message is built once, here, and
// every queue on the way copies it from this address into its slot — one
// lock-free push per target queue, no global lock and no allocation beyond
// the message itself. The only way traffic meets reconfiguration is the
// stale-route fence: a push refused because its route was resolved from a
// fenced snapshot finishes that message on writeSlow, which waits for the
// commit and re-resolves, and hands back the tail of the batch (rest) for
// the caller to re-resolve against the successor snapshot.
// woke reports whether a fast-path push woke a parked reader.
//
//archlint:hotpath
func (b *Bus) writeRouted(r *route, batch [][]byte, parent TraceContext) (rest [][]byte, woke bool, err error) {
	if len(r.Targets) == 0 {
		return nil, false, b.writeUnboundErr(r.from, len(batch))
	}
	var msg Message // filled in place: the queues copy it from this address
	msg.From = r.from
	msg.Trace = b.stamp.batch(parent, len(batch))
	if msg.Trace.Sampled() {
		msg.Trace.SentNs = b.clk.Nanos()
	}
	var delivered int64
	for i, data := range batch {
		msg.Data = data
		before := delivered
		for j, t := range r.Targets {
			w, err := t.Push(&msg, r.Src, r.rt.Version())
			woke = woke || w
			switch err {
			case nil:
				delivered++
			case queue.ErrStaleRoute:
				// Finishing under the writer lock also flushes the
				// deliveries counted so far. A message the successor
				// snapshot leaves unbound drops the rest of its batch with
				// it, as an unbound route does above.
				rest = batch[i+1:]
				if err = b.writeSlow(&msg, r.Src, r.Targets[:j], delivered, delivered > before); errors.Is(err, ErrUnbound) {
					b.stats.dropped.Add(int64(len(rest)))
					rest = nil
				}
				return rest, woke, err
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
		r.Src.Sent.Add(delivered)
	}
	return nil, woke, nil
}

// writeNoRouteErr reports a write on an endpoint with no route entry in
// the snapshot — the cold branch of writeTraced, kept in its own function
// so the annotated hot path carries no formatting. It re-resolves through
// the routing layer to report which invariant actually failed.
func (b *Bus) writeNoRouteErr(rt *routing.Table, from Endpoint) error {
	ifc, err := rt.Lookup(from)
	if err != nil {
		return err
	}
	return fmt.Errorf("%w: write on %s (%s)", ErrDirection, from, ifc.Spec.Dir)
}

// writeUnboundErr counts the n messages of a write on an endpoint with no
// bound receivers as dropped, and reports it — the other cold branch of
// writeRouted.
func (b *Bus) writeUnboundErr(from Endpoint, n int) error {
	b.stats.dropped.Add(int64(n))
	return fmt.Errorf("%w: %s", ErrUnbound, from)
}

// writeSlow finishes a write on src whose fast-path route was fenced by a
// concurrent topology change. It runs in the committer's Settled — by then
// the change has published its successor snapshot — re-resolves the route,
// and delivers to every current target not already reached on the fast
// path. attempted holds the targets the fast path already processed for
// this message (delivered or dropped-closed), and landed says whether one
// took it; pre counts the batch's fast-path deliveries for the sender's
// sent counter, which it flushes whatever the answer. As on the fast path,
// the message is unbound only when it landed nowhere and the route has no
// target (a route lists no group while it has no member).
func (b *Bus) writeSlow(msg *Message, src *routing.Iface, attempted []routing.Target, pre int64, landed bool) error {
	return b.commit.Settled(func(rt *routing.Table) error {
		delivered := pre
		from := msg.From
		rs, ok := rt.Route(from)
	targets:
		for _, t := range rs.Targets {
			for _, done := range attempted {
				if done.Same(t) {
					continue targets
				}
			}
			// Every fence was raised at an epoch before rt's, under the
			// writer lock, so the routed push is never refused as stale.
			// A reader it wakes waits for the lock's release: nothing
			// yields here.
			if _, err := t.Push(msg, src, rt.Version()); err == nil {
				delivered++
			}
		}
		if !landed && len(rs.Targets) == 0 {
			if !ok {
				if _, err := rt.Lookup(from); err != nil {
					return err
				}
			}
			src.Sent.Add(delivered)
			b.stats.dropped.Add(1)
			return fmt.Errorf("%w: %s", ErrUnbound, from)
		}
		src.Sent.Add(delivered)
		return nil
	})
}
