package bus

import (
	"fmt"
	"sync"
	"time"
)

// EventKind enumerates observable bus events.
type EventKind int

// Bus events, in rough lifecycle order.
const (
	EventAddInstance EventKind = iota + 1
	EventDeleteInstance
	EventAddBinding
	EventDeleteBinding
	EventRebind
	EventMoveQueue
	EventDrainQueue
	EventSignal
	EventDivulge
	EventInstallState
	EventRestoreAck
	EventRelaunch
	EventAddGroup
	EventJoinGroup
	EventLeaveGroup
	// EventConnClosed: the TCP server ended a connection for a reason other
	// than the peer hanging up — no hello within the deadline, a malformed
	// or oversized frame, a socket error. Detail carries the peer address
	// and the reason; Instance is the attached instance, if it got that far.
	EventConnClosed

	// numEventKinds bounds the enum for exhaustiveness tests; keep it last.
	numEventKinds
)

var eventNames = map[EventKind]string{
	EventAddInstance:    "add-instance",
	EventDeleteInstance: "delete-instance",
	EventAddBinding:     "add-binding",
	EventDeleteBinding:  "delete-binding",
	EventRebind:         "rebind",
	EventMoveQueue:      "move-queue",
	EventDrainQueue:     "drain-queue",
	EventSignal:         "signal",
	EventDivulge:        "divulge",
	EventInstallState:   "install-state",
	EventRestoreAck:     "restore-ack",
	EventRelaunch:       "relaunch",
	EventAddGroup:       "add-group",
	EventJoinGroup:      "join-group",
	EventLeaveGroup:     "leave-group",
	EventConnClosed:     "conn-closed",
}

// String names the event kind.
func (k EventKind) String() string {
	if s, ok := eventNames[k]; ok {
		return s
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one observable bus action. TraceIDs carries the distinct trace
// IDs of the messages a queue transfer (cq/rmq) touched, so the event log
// and the flight recorder correlate on the same identifiers; it is kept out
// of String() to leave the rendered audit trail stable.
type Event struct {
	Time     time.Time
	Kind     EventKind
	Instance string
	Detail   string
	TraceIDs []uint64
}

// String renders "kind instance detail".
func (e Event) String() string {
	s := e.Kind.String()
	if e.Instance != "" {
		s += " " + e.Instance
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// observerQueue is one observer's mailbox. Emitters append under the queue
// lock and return; a drain goroutine is spawned on demand and exits when the
// mailbox empties, so a slow observer delays only its own deliveries and an
// idle bus holds no goroutines. Events are delivered in emission order.
type observerQueue struct {
	fn      func(Event)
	mu      sync.Mutex
	cond    *sync.Cond
	pending []Event
	active  bool // a drain goroutine is running
}

func newObserverQueue(fn func(Event)) *observerQueue {
	o := &observerQueue{fn: fn}
	o.cond = sync.NewCond(&o.mu)
	return o
}

func (o *observerQueue) enqueue(e Event) {
	o.mu.Lock()
	o.pending = append(o.pending, e)
	if !o.active {
		o.active = true
		go o.drain() //archlint:spawn observer drain; exits when the queue empties or closes
	}
	o.mu.Unlock()
}

func (o *observerQueue) drain() {
	for {
		o.mu.Lock()
		if len(o.pending) == 0 {
			o.active = false
			o.cond.Broadcast()
			o.mu.Unlock()
			return
		}
		e := o.pending[0]
		o.pending = o.pending[1:]
		o.mu.Unlock()
		o.fn(e) // outside the lock: the callback may be arbitrarily slow
	}
}

// sync blocks until the mailbox is empty and the drain goroutine has parked.
func (o *observerQueue) sync() {
	o.mu.Lock()
	for o.active {
		o.cond.Wait()
	}
	o.mu.Unlock()
}

// Recorder collects bus events, for golden tests and the reconfiguration
// audit trail.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an empty recorder; attach it with bus.Observe(r.Record).
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends an event (the Observe callback).
func (r *Recorder) Record(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
}

// Events returns a copy of the recorded events.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Strings returns the recorded events rendered without timestamps.
func (r *Recorder) Strings() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.events))
	for i, e := range r.events {
		out[i] = e.String()
	}
	return out
}

// Reset discards recorded events.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = nil
}
