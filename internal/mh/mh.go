// Package mh is the module-participation runtime: the reproduction of the
// mh_* primitives that the paper's transformed modules call (Figure 4).
//
// A Runtime wraps a bus.Port and exposes:
//
//   - communication: Init, Read, Write, QueryIfMsgs, Sleep — the POLYLITH
//     primitives the original module already used;
//   - the three reconfiguration flags — mh_reconfig (a reconfiguration was
//     requested), mh_capturestack (unwind and capture the activation-record
//     stack), mh_restoring (rebuild the stack) — with the exact set/clear
//     operations the generated capture and restore blocks perform;
//   - state transfer: Capture, Encode, Decode, Restore, mirroring
//     mh_capture / mh_encode / mh_decode / mh_restore.
//
// Error model: the paper's C primitives return no status, and the generated
// blocks must stay straight-line code, so Runtime methods are void. Any
// failure is recorded (Err) and fatal failures — the instance was deleted,
// state transfer broke — divert to the FatalHandler, which by default
// panics with Termination. Hosts (the interpreter, or the Run helper for
// compiled modules) recover Termination and treat it as a clean exit.
package mh

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/bus"
	"repro/internal/checkpoint"
	"repro/internal/codec"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// Termination is the panic value used to unwind a module whose instance was
// stopped or which completed a state capture. Hosts recover it.
type Termination struct {
	// Reason describes why the module unwound.
	Reason string
}

// Error implements error so Termination can travel as one.
func (t Termination) Error() string { return "mh: module terminated: " + t.Reason }

// ErrWrongFrame indicates a Restore whose frame does not match the
// procedure executing it — the divulged state disagrees with the program.
var ErrWrongFrame = errors.New("mh: restore frame mismatch")

// Option configures a Runtime.
type Option func(*Runtime)

// WithSleepUnit sets the duration of one mh.Sleep tick (default 1ms). The
// paper's modules sleep in seconds; tests and benchmarks compress time.
func WithSleepUnit(d time.Duration) Option { return func(r *Runtime) { r.sleepUnit = d } }

// WithLogWriter redirects mh.Log output (default os.Stdout). A nil writer
// silences logging.
func WithLogWriter(w io.Writer) Option { return func(r *Runtime) { r.logw = w } }

// WithStateTimeout bounds Decode's wait for installed state (default 30s).
func WithStateTimeout(d time.Duration) Option { return func(r *Runtime) { r.stateTimeout = d } }

// WithWriteBatch enables the opt-in write-batching window: up to n
// consecutive Writes to the same interface are buffered and emitted as one
// batched send (Port.SendBatch / bus.BatchTracedWriter), amortizing the
// bus's per-send fixed costs — and, over TCP, the RPC round trip — across
// the window. The window flushes when it reaches n messages, when a Write
// targets a different interface, and before every primitive that must
// observe the sends' effects or hand off control: Read, QueryIfMsgs,
// Sleep, the Reconfig flag check, Capture and Encode — so by the time the
// module reaches a reconfiguration point its output is on the bus, exactly
// as with unbatched writes. All messages of one window share the causal
// parent of the last-read message (the window cannot outlive it: Read
// flushes first). n <= 1 disables batching (the default).
func WithWriteBatch(n int) Option { return func(r *Runtime) { r.batchMax = n } }

// WithTelemetry attaches a metrics registry. The runtime publishes
// mh.<instance>.flag_checks (every evaluation of a reconfiguration flag —
// the paper's entire steady-state overhead), mh.<instance>.capture_ns (first
// Capture through successful divulge) and mh.<instance>.restore_ns (Decode
// through FinishRestore). Metric handles are resolved once at construction;
// the flag-test path stays a single extra atomic add and zero allocations.
// Default: no telemetry (nil registry, no-op handles).
func WithTelemetry(reg *telemetry.Registry) Option { return func(r *Runtime) { r.telem = reg } }

// Runtime is the per-module-instance participation runtime. A module is
// single-threaded (paper assumption), so Runtime is not safe for concurrent
// use except where noted.
type Runtime struct {
	port         bus.Port
	status       string // the port's status when this runtime was made
	codec        codec.Portable
	heap         *state.HeapRegistry
	sleepUnit    time.Duration
	stateTimeout time.Duration
	logw         io.Writer

	signalsOn bool // polling enabled (Init for originals, FinishRestore for clones)

	reconfig     bool
	captureStack bool
	restoring    bool

	capturing  *state.State  // frames accumulated innermost-first during capture
	restore    []state.Frame // frames to replay bottom-first during restoration
	restoreIdx int

	restoreAcked bool // restoration outcome already reported to the bus

	meta map[string]string
	err  error

	// FlagChecks counts evaluations of the Reconfig flag, quantifying the
	// paper's "run-time cost is merely that of periodically testing the
	// flags" claim (experiment C1).
	FlagChecks int64

	telem        *telemetry.Registry
	flagChecks   *telemetry.Counter   // nil (no-op) without telemetry
	errCount     *telemetry.Counter   // application errors (ReportError)
	captureNs    *telemetry.Histogram // first Capture -> divulged
	restoreNs    *telemetry.Histogram // Decode -> FinishRestore
	captureStart time.Time
	restoreStart time.Time

	// Replication support: ops is the heartbeat counter the supervisor's
	// failure detector reads (hence atomic); the checkpointer periodically
	// captures abstract state for crash recovery (see checkpoint.go).
	ops        atomic.Int64
	cp         *checkpoint.Checkpointer
	cpInterval int
	cpSink     CheckpointSink

	// Causal-tracing carry-through: the runtime remembers the trace context
	// of the last message it read and hands it back to the bus on the next
	// write, so the causal chain crosses the module without the module's
	// code knowing tracing exists — the paper's division of labour exactly.
	// tw is the port's TracedWriter capability, resolved once (nil for stub
	// ports; the chain simply breaks at that hop).
	msgCtx bus.TraceContext
	tw     bus.TracedWriter

	// Write batching (WithWriteBatch): consecutive same-interface writes
	// accumulate in batch and leave as one batched send. bw is the port's
	// BatchTracedWriter capability, resolved once (nil falls back to
	// Port.SendBatch, then to per-message writes).
	batchMax   int
	batchIface string
	batch      [][]byte
	bw         bus.BatchTracedWriter

	tuple []state.Value // scratch for the outgoing tuple of a Write
	in    state.Value   // the last message read, decoded in place
}

// New wraps a bus port in a participation runtime.
func New(port bus.Port, opts ...Option) *Runtime {
	r := &Runtime{
		port:         port,
		status:       port.Status(),
		heap:         state.NewHeapRegistry(),
		sleepUnit:    time.Millisecond,
		stateTimeout: 30 * time.Second,
		meta:         map[string]string{},
		logw:         os.Stdout,
	}
	r.tw, _ = port.(bus.TracedWriter)
	r.bw, _ = port.(bus.BatchTracedWriter)
	for _, o := range opts {
		o(r)
	}
	if r.telem != nil {
		prefix := "mh." + port.Name() + "."
		r.flagChecks = r.telem.Counter(prefix + "flag_checks")
		r.errCount = r.telem.Counter(prefix + "errors")
		r.captureNs = r.telem.Histogram(prefix + "capture_ns")
		r.restoreNs = r.telem.Histogram(prefix + "restore_ns")
	}
	return r
}

// Telemetry returns the runtime's metrics registry (nil without
// WithTelemetry).
func (r *Runtime) Telemetry() *telemetry.Registry { return r.telem }

// Err returns the first recorded non-fatal error, if any.
func (r *Runtime) Err() error { return r.err }

func (r *Runtime) record(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Runtime) failFatal(err error) {
	r.record(err)
	panic(Termination{Reason: err.Error()})
}

// ReportError counts one application-level error against this instance's
// telemetry (mh.<instance>.errors). The health checker reads its windowed
// rate; module code calls it for failures it handles itself — a degraded
// module that still answers traffic is invisible to the crash detector but
// not to the error burn rate. A no-op without telemetry.
func (r *Runtime) ReportError() {
	r.errCount.Inc()
}

// Heap returns the heap registry for programmer-managed state (Section 1.2:
// heap data and file descriptors are the programmer's obligation).
func (r *Runtime) Heap() *state.HeapRegistry { return r.heap }

// SetMeta attaches a metadata key/value that travels with divulged state.
func (r *Runtime) SetMeta(k, v string) { r.meta[k] = v }

// Port exposes the underlying bus port (for hosts, not module code).
func (r *Runtime) Port() bus.Port { return r.port }

// ---- communication primitives ----

// Init prepares the module. For an original module ("add" status) it
// installs the reconfiguration signal handler, i.e. enables signal polling
// (the analogue of signal(SIGHUP, mh_catchreconfig) in Figure 4). A clone
// leaves the handler uninstalled until its restoration completes.
func (r *Runtime) Init() {
	if r.Status() != bus.StatusClone {
		r.signalsOn = true
	}
}

// Status returns "add" or "clone" (mh_getstatus): what this incarnation was
// launched as, read once in New. The bus rewrites an instance's status when
// a rollback relaunches it, and a divulged original that then asked the
// live instance would take itself for the clone that succeeds it.
func (r *Runtime) Status() string { return r.status }

// Name returns the attached instance's name. Native modules of a replicated
// instance use it to learn which member they are.
func (r *Runtime) Name() string { return r.port.Name() }

// InstallSignalHandler (re-)enables reconfiguration signal polling. The
// generated restore block for a reconfiguration edge calls this, mirroring
// Figure 4's signal(SIGHUP, mh_catchreconfig) after mh_restoring=0.
func (r *Runtime) InstallSignalHandler() { r.signalsOn = true }

// pollSignals moves any pending bus signal into the flags. This is the
// asynchronous signal handler of the paper collapsed into the polling
// points: flag reads and communication calls.
func (r *Runtime) pollSignals() {
	if !r.signalsOn {
		return
	}
	for {
		s, ok := r.port.TakeSignal()
		if !ok {
			return
		}
		switch s.Kind {
		case bus.SignalReconfig:
			r.reconfig = true
		case bus.SignalCancel:
			// A reconfiguration abort retracted the request before this
			// module reached a reconfiguration point; resume undisturbed.
			r.reconfig = false
		case bus.SignalStop:
			r.failFatal(fmt.Errorf("%w: stop signal", bus.ErrStopped))
		}
	}
}

// Read blocks for the next message on iface and stores its values through
// ptrs (mh_read). With one pointer the payload is the bare value; with
// several it must be a tuple (list) of the same arity.
func (r *Runtime) Read(iface string, ptrs ...any) {
	v := r.receive(iface)
	if v == nil {
		return
	}
	// The values land before the operation is ticked: a checkpoint taken
	// on this tick must see the message it has consumed.
	r.storeInto(iface, v, ptrs)
	r.tickOp()
}

// receive is the one read path, under Read and ReadAbstract alike: poll
// for signals, flush the write-batching window (a module that waits for
// input has handed off control), take the next message, remember its
// trace context for the writes it causes, decode it. The value is decoded
// into the runtime's own cell and handed out by address, good until the
// next read; nil means an error was recorded. The caller ticks the
// operation once the value is where the module will look for it.
func (r *Runtime) receive(iface string) *state.Value {
	r.pollSignals()
	r.Flush()
	m, err := r.port.Read(iface)
	if err != nil {
		if errors.Is(err, bus.ErrStopped) {
			r.failFatal(err)
			return nil
		}
		r.record(fmt.Errorf("mh: read %s: %w", iface, err))
		return nil
	}
	r.msgCtx = m.Trace
	if err := r.codec.DecodeValueInto(&r.in, m.Data); err != nil {
		r.record(fmt.Errorf("mh: decode message on %s: %w", iface, err))
		r.tickOp() // consumed all the same, and the caller has nothing to store first
		return nil
	}
	return &r.in
}

// TraceContext returns the causal context of the last message this runtime
// read (the zero Context before any read, or on an untraced bus).
func (r *Runtime) TraceContext() bus.TraceContext { return r.msgCtx }

func (r *Runtime) storeInto(iface string, v *state.Value, ptrs []any) {
	if len(ptrs) == 1 {
		if err := state.ToGo(*v, ptrs[0]); err != nil {
			r.record(fmt.Errorf("mh: read %s: %w", iface, err))
		}
		return
	}
	if v.Kind != state.KindList || len(v.List) != len(ptrs) {
		r.record(fmt.Errorf("mh: read %s: message arity %d does not match %d pointers", iface, len(v.List), len(ptrs)))
		return
	}
	for i, p := range ptrs {
		if err := state.ToGo(v.List[i], p); err != nil {
			r.record(fmt.Errorf("mh: read %s value %d: %w", iface, i, err))
			return
		}
	}
}

// Write emits values on iface (mh_write). One value is sent bare; several
// are sent as a tuple, built in the runtime's scratch: a module is
// single-threaded and the codec does not retain what it encodes, so the
// next Write reuses it.
func (r *Runtime) Write(iface string, vals ...any) {
	var v state.Value
	var err error
	if len(vals) == 1 {
		v, err = state.FromGo(vals[0])
	} else {
		r.tuple = r.tuple[:0]
		for i, val := range vals {
			var e state.Value
			if e, err = state.FromGo(val); err != nil {
				err = fmt.Errorf("value %d: %w", i, err)
				break
			}
			r.tuple = append(r.tuple, e)
		}
		v = state.Value{Kind: state.KindList, List: r.tuple}
	}
	if err != nil {
		r.record(fmt.Errorf("mh: write %s: %w", iface, err))
		return
	}
	r.WriteAbstract(iface, &v)
}

// WriteAbstract emits the abstract value at v on iface. It is the one write
// path, Write's too: poll for signals, encode — the payload is a fresh
// allocation, the bus's queues and rings retain it — then either join the
// write-batching window or leave at once, carrying the trace context of the
// message that caused this one.
func (r *Runtime) WriteAbstract(iface string, v *state.Value) {
	r.pollSignals()
	data, err := r.codec.EncodeValueAt(v)
	if err != nil {
		r.record(fmt.Errorf("mh: encode message for %s: %w", iface, err))
		return
	}
	if r.batchMax > 1 {
		if r.batchIface != iface {
			r.Flush()
			r.batchIface = iface
		}
		r.batch = append(r.batch, data)
		if len(r.batch) >= r.batchMax {
			r.Flush()
		}
		r.tickOp()
		return
	}
	if r.tw != nil {
		err = r.tw.WriteTraced(iface, data, r.msgCtx)
	} else {
		err = r.port.Write(iface, data)
	}
	if err != nil {
		if errors.Is(err, bus.ErrStopped) {
			r.failFatal(err)
			return
		}
		r.record(fmt.Errorf("mh: write %s: %w", iface, err))
		return
	}
	r.tickOp()
}

// Flush emits the pending write-batching window, if any. Module code never
// needs to call it — every control-handoff primitive flushes — but hosts
// driving a runtime directly may force it.
func (r *Runtime) Flush() {
	if len(r.batch) == 0 {
		return
	}
	iface, batch := r.batchIface, r.batch
	r.batch = r.batch[:0]
	var err error
	switch {
	case r.bw != nil:
		err = r.bw.WriteBatchTraced(iface, batch, r.msgCtx)
	default:
		err = r.port.SendBatch(iface, batch)
	}
	if err != nil {
		if errors.Is(err, bus.ErrStopped) {
			r.failFatal(err)
			return
		}
		r.record(fmt.Errorf("mh: write %s: %w", iface, err))
	}
}

// QueryIfMsgs reports whether a message is queued on iface
// (mh_query_ifmsgs).
func (r *Runtime) QueryIfMsgs(iface string) bool {
	r.pollSignals()
	r.Flush()
	n, err := r.port.Pending(iface)
	if err != nil {
		if errors.Is(err, bus.ErrStopped) {
			r.failFatal(err)
			return false
		}
		r.record(fmt.Errorf("mh: query %s: %w", iface, err))
		return false
	}
	return n > 0
}

// Log prints values tagged with the instance name — the module language's
// only I/O besides the bus, for examples and demos.
func (r *Runtime) Log(vals ...any) {
	if r.logw == nil {
		return
	}
	args := append([]any{"[" + r.port.Name() + "]"}, vals...)
	fmt.Fprintln(r.logw, args...)
}

// Sleep pauses for ticks sleep units, waking early if the instance is
// deleted.
func (r *Runtime) Sleep(ticks int) {
	r.pollSignals()
	r.Flush()
	d := time.Duration(ticks) * r.sleepUnit
	const slice = 5 * time.Millisecond
	deadline := time.Now().Add(d)
	for {
		if r.port.Done() {
			r.failFatal(fmt.Errorf("%w: deleted during sleep", bus.ErrStopped))
			return
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return
		}
		if remaining > slice {
			remaining = slice
		}
		time.Sleep(remaining)
	}
}

// ---- reconfiguration flags ----

// Reconfig reports the mh_reconfig flag, polling for a pending signal
// first. This is the test the generated capture block at a reconfiguration
// point performs; its cost is the paper's entire steady-state overhead.
func (r *Runtime) Reconfig() bool {
	r.FlagChecks++
	r.flagChecks.Inc()
	r.pollSignals()
	// A reconfiguration point must observe the module's output on the bus:
	// flush the write-batching window before reporting the flag (a length
	// test when batching is off or the window is empty).
	r.Flush()
	return r.reconfig
}

// ClearReconfig clears mh_reconfig (generated: mh_reconfig = 0).
func (r *Runtime) ClearReconfig() { r.reconfig = false }

// RequestReconfig sets mh_reconfig directly, as the in-process signal
// handler would (exposed for tests and the quiescence baseline).
func (r *Runtime) RequestReconfig() { r.reconfig = true }

// CaptureStack reports the mh_capturestack flag.
func (r *Runtime) CaptureStack() bool {
	r.FlagChecks++
	r.flagChecks.Inc()
	return r.captureStack
}

// SetCaptureStack sets mh_capturestack (generated: mh_capturestack = 1).
func (r *Runtime) SetCaptureStack(on bool) { r.captureStack = on }

// Restoring reports the mh_restoring flag. At module start the generated
// code derives it from the instance status: a clone begins restoring
// (Figure 4: if (strcmp(mh_getstatus(),"clone")==0) mh_restoring=1).
func (r *Runtime) Restoring() bool {
	r.FlagChecks++
	r.flagChecks.Inc()
	return r.restoring
}

// SetRestoring sets or clears mh_restoring. Clearing it at the end of a
// restoration (the generated reconfiguration-edge restore code) confirms
// the restoration to the bus, provided every divulged frame was consumed.
func (r *Runtime) SetRestoring(on bool) {
	if !on && r.restoring && r.restoreIdx == len(r.restore) {
		if !r.restoreStart.IsZero() {
			r.restoreNs.Observe(time.Since(r.restoreStart))
		}
		r.ackRestore(nil)
	}
	r.restoring = on
}

// ---- state capture ----

// Capture appends one activation-record frame to the state being captured
// (mh_capture). The format string covers the location integer followed by
// the variables, exactly as in Figure 4 ("llF", 1, n, response); fn is the
// capturing procedure (implicit in C, explicit here for validation).
func (r *Runtime) Capture(fn, format string, vals ...any) {
	if len(vals) == 0 {
		r.record(errors.New("mh: capture without a location value"))
		return
	}
	loc, ok := vals[0].(int)
	if !ok {
		r.record(fmt.Errorf("mh: capture location must be int, got %T", vals[0]))
		return
	}
	r.beginCapture()
	// Entering capture means the module passed a reconfiguration point:
	// anything still in the write-batching window was emitted before it and
	// must precede the divulged state on the bus.
	r.Flush()
	frame := state.Frame{Func: fn, Location: loc}
	avs := make([]state.Value, 0, len(vals))
	locV := state.IntValue(int64(loc))
	avs = append(avs, locV)
	for i, val := range vals[1:] {
		av, err := state.FromGo(val)
		if err != nil {
			r.record(fmt.Errorf("mh: capture %s var %d: %w", fn, i, err))
			return
		}
		frame.Vars = append(frame.Vars, state.Var{Name: fmt.Sprintf("v%d", i), Value: av})
		avs = append(avs, av)
	}
	if err := codec.ValidateFormat(format, avs); err != nil {
		r.record(fmt.Errorf("mh: capture %s: %w", fn, err))
		return
	}
	r.capturing.PushFrame(frame)
}

// beginCapture opens the state being captured, at its first frame.
func (r *Runtime) beginCapture() {
	if r.capturing == nil {
		r.capturing = state.New(r.port.Name())
		r.capturing.Machine = r.port.Machine()
		r.captureStart = time.Now()
	}
}

// CaptureNamed is Capture with explicit variable names, used when the
// transform knows them (it always does); names make divulged state
// self-documenting and allow name-checked restoration in tests.
func (r *Runtime) CaptureNamed(fn string, loc int, names []string, vals ...any) {
	if len(names) != len(vals) {
		r.record(fmt.Errorf("mh: capture %s: %d names for %d values", fn, len(names), len(vals)))
		return
	}
	r.beginCapture()
	frame := state.Frame{Func: fn, Location: loc}
	for i, val := range vals {
		av, err := state.FromGo(val)
		if err != nil {
			r.record(fmt.Errorf("mh: capture %s var %s: %w", fn, names[i], err))
			return
		}
		frame.Vars = append(frame.Vars, state.Var{Name: names[i], Value: av})
	}
	r.capturing.PushFrame(frame)
}

// CapturedDepth returns the number of frames captured so far.
func (r *Runtime) CapturedDepth() int {
	if r.capturing == nil {
		return 0
	}
	return r.capturing.Depth()
}

// Encode finalizes the captured state — reverses the innermost-first frames
// into stack order, captures registered heap objects, attaches metadata —
// and divulges it to the bus (mh_encode). The module's main returns right
// after, completing the capture of its bottom-most activation record.
func (r *Runtime) Encode() {
	r.Flush()
	if r.capturing == nil {
		r.record(errors.New("mh: encode with no captured frames"))
		return
	}
	st := r.capturing
	r.capturing = nil
	st.Reverse()
	heap, err := r.heap.CaptureAll()
	if err != nil {
		r.failFatal(fmt.Errorf("mh: encode: %w", err))
		return
	}
	st.Heap = heap
	for k, v := range r.meta {
		st.Meta[k] = v
	}
	if err := st.Validate(); err != nil {
		r.failFatal(fmt.Errorf("mh: encode: %w", err))
		return
	}
	data, err := r.codec.EncodeState(st)
	if err != nil {
		r.failFatal(fmt.Errorf("mh: encode: %w", err))
		return
	}
	// A module that fails to divulge dies with its captured state — the
	// one window the transaction layer cannot roll back, since the stack
	// is already unwound. Retry transient bus failures with backoff
	// before giving up.
	var derr error
	for attempt, backoff := 0, 10*time.Millisecond; attempt < 3; attempt++ {
		if derr = r.port.Divulge(data); derr == nil {
			if !r.captureStart.IsZero() {
				r.captureNs.Observe(time.Since(r.captureStart))
			}
			return
		}
		if errors.Is(derr, bus.ErrStopped) {
			break
		}
		time.Sleep(backoff)
		backoff *= 2
	}
	r.failFatal(fmt.Errorf("mh: divulge: %w", derr))
}

// ---- state restoration ----

// restoreConfirmer is the optional port capability for reporting a clone's
// restoration outcome back to the bus (Attachment and RemotePort both
// provide it; stub ports in tests need not).
type restoreConfirmer interface {
	ConfirmRestore(restoreErr error) error
}

// ackRestore reports the restoration outcome to the bus exactly once. The
// reconfiguration coordinator waits on it (Bus.AwaitRestored) before
// committing the destructive tail of a replacement, so both the success
// edge (mh_restoring cleared with every frame consumed) and every
// restoration failure path must pass through here.
func (r *Runtime) ackRestore(restoreErr error) {
	if r.restoreAcked {
		return
	}
	r.restoreAcked = true
	if c, ok := r.port.(restoreConfirmer); ok {
		_ = c.ConfirmRestore(restoreErr)
	}
}

// failRestore acknowledges a restoration failure to the bus, then terminates
// the module (failFatal).
func (r *Runtime) failRestore(err error) {
	r.ackRestore(err)
	r.failFatal(err)
}

// ConfirmRestoreOutcome reports a restoration outcome to the bus if one is
// still owed. Hosts call it when a clone's module body exits, so a clone
// that died mid-restoration through a path the runtime cannot see (an
// interpreter failure, a panic in module code) still unblocks the
// coordinator's AwaitRestored instead of leaving it to time out. It is a
// no-op for modules that were not launched as clones or that already
// confirmed.
func (r *Runtime) ConfirmRestoreOutcome(err error) {
	if r.restoreAcked || r.Status() != bus.StatusClone {
		return
	}
	if err == nil {
		err = errors.New("mh: module exited before completing restoration")
	}
	r.ackRestore(err)
}

// Decode waits for installed state and prepares restoration (mh_decode):
// heap objects are reinstalled, the frame cursor is set to the bottom-most
// frame, and mh_restoring is set.
func (r *Runtime) Decode() {
	r.restoreStart = time.Now()
	data, err := r.port.AwaitState(r.stateTimeout)
	if err != nil {
		r.failRestore(fmt.Errorf("mh: decode: %w", err))
		return
	}
	st, err := r.codec.DecodeState(data)
	if err != nil {
		r.failRestore(fmt.Errorf("mh: decode: %w", err))
		return
	}
	if err := st.Validate(); err != nil {
		r.failRestore(fmt.Errorf("mh: decode: %w", err))
		return
	}
	if err := r.heap.RestoreAll(st.Heap); err != nil {
		r.failRestore(fmt.Errorf("mh: decode: %w", err))
		return
	}
	r.restore = st.Frames
	r.restoreIdx = 0
	r.restoring = true
}

// Restore pops the next frame (bottom-first) and stores its location and
// variables through ptrs (mh_restore). As in Figure 4, the format string
// covers the location followed by the variables, and ptrs[0] receives the
// location: mh_restore("iif", &mh_location, &n, &response).
func (r *Runtime) Restore(fn, format string, ptrs ...any) {
	if len(ptrs) == 0 {
		r.failRestore(errors.New("mh: restore without a location pointer"))
		return
	}
	frame := r.NextRestoreFrame(fn)
	if frame == nil {
		return
	}
	if len(ptrs)-1 != len(frame.Vars) {
		r.failRestore(fmt.Errorf("%w: %s frame has %d vars, %d pointers supplied", ErrWrongFrame, fn, len(frame.Vars), len(ptrs)-1))
		return
	}
	if len(format) > 0 {
		avs := make([]state.Value, 0, len(frame.Vars)+1)
		avs = append(avs, state.IntValue(int64(frame.Location)))
		for _, v := range frame.Vars {
			avs = append(avs, v.Value)
		}
		if err := codec.ValidateFormat(format, avs); err != nil {
			r.failRestore(fmt.Errorf("mh: restore %s: %w", fn, err))
			return
		}
	}
	locPtr, ok := ptrs[0].(*int)
	if !ok {
		r.failRestore(fmt.Errorf("mh: restore %s: location pointer is %T, want *int", fn, ptrs[0]))
		return
	}
	*locPtr = frame.Location
	for i, v := range frame.Vars {
		if err := state.ToGo(v.Value, ptrs[i+1]); err != nil {
			r.failRestore(fmt.Errorf("mh: restore %s var %s: %w", fn, v.Name, err))
			return
		}
	}
}

// RemainingFrames reports how many frames are still to be restored.
func (r *Runtime) RemainingFrames() int { return len(r.restore) - r.restoreIdx }

// FinishRestore completes restoration: mh_restoring is cleared and the
// reconfiguration signal handler installed (the reconfiguration-edge
// restore code of Figure 8). It verifies every frame was consumed.
func (r *Runtime) FinishRestore() {
	if r.restoreIdx != len(r.restore) {
		r.failRestore(fmt.Errorf("%w: %d frames left unrestored", ErrWrongFrame, len(r.restore)-r.restoreIdx))
		return
	}
	r.restoring = false
	r.restore = nil
	r.signalsOn = true
	if !r.restoreStart.IsZero() {
		r.restoreNs.Observe(time.Since(r.restoreStart))
	}
	r.ackRestore(nil)
}

// Stopped reports whether the module's instance has been deleted.
func (r *Runtime) Stopped() bool { return r.port.Done() }

// Run executes a module body, converting a Termination unwind into a normal
// return. Hosts of compiled modules use it as their main loop wrapper. The
// result is nil when the body ran to completion.
func Run(body func()) (term *Termination) {
	defer func() {
		if rec := recover(); rec != nil {
			if t, ok := rec.(Termination); ok {
				term = &t
				return
			}
			panic(rec)
		}
	}()
	body()
	return nil
}
