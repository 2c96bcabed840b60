package bus

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// SignalKind enumerates control signals the bus can deliver to a module.
type SignalKind int

// Control signals. SignalReconfig is the analogue of the paper's SIGHUP:
// the module's runtime sets its mh_reconfig flag and execution proceeds to
// the next reconfiguration point. SignalStop asks a module to exit at its
// next convenience. SignalCancel retracts a pending reconfiguration
// request: the runtime clears its mh_reconfig flag, so a module that has
// not yet reached a reconfiguration point resumes undisturbed — the
// transaction layer sends it when a reconfiguration aborts before the
// module divulged.
const (
	SignalReconfig SignalKind = iota + 1
	SignalStop
	SignalCancel
)

// String names the signal.
func (k SignalKind) String() string {
	switch k {
	case SignalReconfig:
		return "reconfig"
	case SignalStop:
		return "stop"
	case SignalCancel:
		return "cancel"
	default:
		return fmt.Sprintf("signal(%d)", int(k))
	}
}

// Signal is one control signal.
type Signal struct {
	Kind SignalKind
}

// Attachment is the runtime handle a module holds on its bus instance — the
// capability behind every mh_* communication primitive. An attachment is
// owned by a single module thread; methods may be called concurrently but
// modules per the paper are single-threaded.
type Attachment struct {
	bus  *Bus
	inst *instance

	// ifaces is the instance's interface set as this attachment uses it: a
	// module names the same handful of interfaces on every call, so a scan
	// over a few rows (declaration order) finds one without hashing its
	// name, and the row keeps what the name resolved to.
	ifaces []attIface
}

// attIface is one row of an attachment's interface table.
type attIface struct {
	ep   Endpoint // this interface as an endpoint, built once
	ifc  *iface
	memo atomic.Pointer[route] // Bus.routeOf's, for writes on this interface
}

func newAttachment(b *Bus, in *instance) *Attachment {
	a := &Attachment{bus: b, inst: in, ifaces: make([]attIface, len(in.spec.Interfaces))}
	for i, is := range in.spec.Interfaces {
		a.ifaces[i].ep = Endpoint{Instance: in.spec.Name, Interface: is.Name}
		a.ifaces[i].ifc = in.ifaces[is.Name]
	}
	return a
}

// iface finds the named interface's row, nil if the instance declares none.
//
//archlint:hotpath
func (a *Attachment) iface(name string) *attIface {
	for i := range a.ifaces {
		if a.ifaces[i].ep.Interface == name {
			return &a.ifaces[i]
		}
	}
	return nil
}

// route resolves the fan-out of a write on the named interface.
//
//archlint:hotpath
func (a *Attachment) route(ifaceName string) (*route, error) {
	row := a.iface(ifaceName)
	if row == nil {
		return nil, a.bus.writeNoRouteErr(a.bus.routing.Load(), Endpoint{Instance: a.inst.spec.Name, Interface: ifaceName})
	}
	return a.bus.routeOf(&row.memo, row.ep)
}

// Name returns the instance name.
func (a *Attachment) Name() string { return a.inst.spec.Name }

// Machine returns the hosting machine label.
func (a *Attachment) Machine() string { return a.inst.spec.Machine }

// Status returns the instance status: StatusAdd for an original module,
// StatusClone for a restoration (mh_getstatus in Figure 4). Unlike the
// other spec attributes, status is rewritten when a rollback resurrects a
// divulged module, so the read synchronizes with the instance.
func (a *Attachment) Status() string {
	return a.inst.status()
}

// Write emits data on the named interface (mh_write).
//
//archlint:hotpath
func (a *Attachment) Write(ifaceName string, data []byte) error {
	return a.WriteTraced(ifaceName, data, TraceContext{})
}

// WriteTraced is Write carrying the causal parent context: the module
// runtime passes the TraceContext of the message it is responding to, and
// the bus stamps the outgoing message with a child span. A zero parent is
// equivalent to Write (the bus mints a root).
//
//archlint:hotpath
func (a *Attachment) WriteTraced(ifaceName string, data []byte, parent TraceContext) error {
	one := [1][]byte{data}
	return a.WriteBatchTraced(ifaceName, one[:], parent)
}

// SendBatch emits a batch of messages on the named interface in one routing
// pass: the snapshot load, route lookup, trace reservation and telemetry
// counters are paid once for the whole batch instead of per message. Batch
// order is emission order. Equivalent to calling Write for each payload.
//
//archlint:hotpath
func (a *Attachment) SendBatch(ifaceName string, batch [][]byte) error {
	return a.WriteBatchTraced(ifaceName, batch, TraceContext{})
}

// WriteBatchTraced is SendBatch carrying the causal parent context: every
// message of the batch becomes a sibling child span of parent (a zero
// parent opens one fresh chain for the burst). A batch cut short by a
// topology change resumes, re-resolved, after the message that met it.
//
//archlint:hotpath
func (a *Attachment) WriteBatchTraced(ifaceName string, batch [][]byte, parent TraceContext) error {
	for len(batch) > 0 {
		r, err := a.route(ifaceName)
		if err != nil {
			return err
		}
		if batch, err = a.bus.writeRouted(r, batch, parent); err != nil {
			return err
		}
	}
	return nil
}

// Read blocks until a message arrives on the named interface (mh_read).
// It fails with ErrStopped if the instance is deleted while blocked.
//
//archlint:hotpath
func (a *Attachment) Read(ifaceName string) (m Message, err error) {
	ifc, err := a.recvIface(ifaceName)
	if err != nil {
		return m, err
	}
	if err = ifc.queue.pop(&m); err != nil { // m is untouched
		if errors.Is(err, ErrQueueClosed) {
			err = ErrStopped
		}
		return m, err
	}
	a.recordDelivery(ifc, &m)
	return m, nil
}

// TryRead returns a pending message without blocking. The second result is
// false when no message is queued.
//
//archlint:hotpath
func (a *Attachment) TryRead(ifaceName string) (m Message, ok bool, err error) {
	ifc, err := a.recvIface(ifaceName)
	if err != nil {
		return m, false, err
	}
	if ok, err = ifc.queue.tryPop(&m); err != nil { // m is untouched
		if errors.Is(err, ErrQueueClosed) {
			err = ErrStopped
		}
		return m, false, err
	}
	if ok {
		a.recordDelivery(ifc, &m)
	}
	return m, ok, nil
}

// recordDelivery closes the message's delivery span in the flight recorder
// and attributes the send-to-read latency to the receiving endpoint's
// histogram. A no-op unless the context is sampled (only sampled messages
// carry a send timestamp) and this bus records — the unsampled read path
// pays one flag test, mirroring the paper's claim about the
// transformation's steady-state cost, and neither it nor a sampled message
// read on a bus with no recorder reads the clock.
//
//archlint:hotpath
func (a *Attachment) recordDelivery(ifc *iface, m *Message) {
	if !m.Trace.Sampled() {
		return
	}
	if end := a.bus.tracer.RecordDelivery(m.Trace, m.sender(), ifc.name); end != 0 && m.Trace.SentNs != 0 {
		ifc.latency.ObserveNs(end - m.Trace.SentNs)
	}
}

// Pending returns the number of messages queued on the named interface
// (mh_query_ifmsgs).
func (a *Attachment) Pending(ifaceName string) (int, error) {
	ifc, err := a.recvIface(ifaceName)
	if err != nil {
		return 0, err
	}
	return ifc.queue.length(), nil
}

// recvIface resolves a receiving interface of this instance: one with a
// queue.
func (a *Attachment) recvIface(ifaceName string) (*iface, error) {
	row := a.iface(ifaceName)
	if row == nil {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoInterface, a.inst.spec.Name, ifaceName)
	}
	if row.ifc.queue == nil {
		return nil, fmt.Errorf("%w: read on %s.%s (%s)", ErrDirection, a.inst.spec.Name, ifaceName, row.ifc.spec.Dir)
	}
	return row.ifc, nil
}

// Signals returns the control-signal channel. The module runtime drains it
// opportunistically (TakeSignal) rather than selecting on it, matching the
// paper's flag-polling model.
func (a *Attachment) Signals() <-chan Signal { return a.inst.signals }

// TakeSignal returns a pending control signal without blocking. The runtime
// polls it several times per message, so "none yet" is a length test, not a
// select; a signal that lands right after the test is seen by the next poll,
// as one that lands right after a select's default would be.
func (a *Attachment) TakeSignal() (Signal, bool) {
	if len(a.inst.signals) == 0 {
		return Signal{}, false
	}
	select {
	case s := <-a.inst.signals:
		return s, true
	default:
		return Signal{}, false
	}
}

// Divulge surrenders the module's captured, encoded state to the bus
// (mh_encode at the end of capture). The instance transitions to
// PhaseDivulged; the coordinator collects the state with AwaitDivulged.
func (a *Attachment) Divulge(data []byte) error {
	if err := a.bus.fire("bus.divulge"); err != nil {
		return fmt.Errorf("bus: divulge from %s: %w", a.inst.spec.Name, err)
	}
	a.inst.setPhase(PhaseDivulged)
	if err := a.inst.stateBoxRef().put(data); err != nil {
		return fmt.Errorf("bus: divulge from %s: %w", a.inst.spec.Name, err)
	}
	a.bus.emit(Event{Kind: EventDivulge, Instance: a.inst.spec.Name, Detail: fmt.Sprintf("%d bytes", len(data))})
	return nil
}

// AwaitState blocks until state is installed into this (clone) instance
// (mh_decode at the start of restoration), or the timeout expires.
func (a *Attachment) AwaitState(timeout time.Duration) ([]byte, error) {
	data, err := a.inst.stateBoxRef().await(timeout, a.inst.done)
	if err != nil {
		return nil, fmt.Errorf("bus: await installed state for %s: %w", a.inst.spec.Name, err)
	}
	return data, nil
}

// ConfirmRestore reports the outcome of this clone's state restoration to
// the bus: nil when every frame was rebuilt and the module resumed, or the
// restoration error (e.g. a frame mismatch). The reconfiguration
// coordinator observes it through Bus.AwaitRestored before committing the
// destructive tail of a replacement. Repeat confirmations are dropped.
func (a *Attachment) ConfirmRestore(restoreErr error) error {
	box := a.inst.restoreBoxRef()
	select {
	case box <- restoreErr:
	default:
	}
	detail := "ok"
	if restoreErr != nil {
		detail = restoreErr.Error()
	}
	a.bus.emit(Event{Kind: EventRestoreAck, Instance: a.inst.spec.Name, Detail: detail})
	return nil
}

// doneChan exposes the instance's deletion channel to the transport layer
// (the TCP server selects on it while pushing messages to a remote client).
func (a *Attachment) doneChan() <-chan struct{} { return a.inst.done }

// Done reports whether the instance has been deleted from the bus.
func (a *Attachment) Done() bool {
	select {
	case <-a.inst.done:
		return true
	default:
		return false
	}
}

// stateBox is a one-shot mailbox carrying encoded state between the control
// plane and a module runtime, in either direction (divulge or install).
type stateBox struct {
	mu     sync.Mutex
	ch     chan []byte
	closed bool
}

func newStateBox() *stateBox {
	return &stateBox{ch: make(chan []byte, 1)}
}

func (sb *stateBox) put(data []byte) error {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.closed {
		return ErrStopped
	}
	select {
	case sb.ch <- data:
		return nil
	default:
		return errors.New("state already pending")
	}
}

func (sb *stateBox) await(timeout time.Duration, done <-chan struct{}) ([]byte, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case data := <-sb.ch:
		return data, nil
	case <-done:
		// The instance may be deleted after the state was boxed; prefer
		// the state if it is there.
		select {
		case data := <-sb.ch:
			return data, nil
		default:
			return nil, ErrStopped
		}
	case <-timer.C:
		return nil, ErrTimeout
	}
}

func (sb *stateBox) close() {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	sb.closed = true
}
