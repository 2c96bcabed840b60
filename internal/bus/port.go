package bus

import (
	"time"

	"repro/internal/clock"
)

// Port is the capability a module runtime holds on its bus instance. Both
// in-process attachments (Attachment) and TCP attachments (RemotePort)
// implement it, so the mh runtime is transport-agnostic — a module behaves
// identically whether it shares the bus's process or runs on another
// "machine".
type Port interface {
	// Name returns the instance name.
	Name() string
	// Machine returns the hosting machine label.
	Machine() string
	// Status returns StatusAdd or StatusClone (mh_getstatus).
	Status() string
	// Write emits data on the named interface (mh_write). A write from a
	// module with nothing queued to read may yield the processor to the
	// reader it woke before it returns.
	Write(iface string, data []byte) error
	// SendBatch emits a batch of messages on the named interface in one
	// routing pass, amortizing the per-send fixed costs. Batch order is
	// emission order; equivalent to calling Write per payload.
	SendBatch(iface string, batch [][]byte) error
	// Read blocks for the next message on the named interface (mh_read),
	// until one arrives or the port ends. Reads of one interface from
	// concurrent goroutines, Read or TryRead, are not ordered against each
	// other; each message goes to exactly one of them.
	Read(iface string) (Message, error)
	// TryRead returns a pending message without blocking.
	TryRead(iface string) (Message, bool, error)
	// Pending counts queued messages (mh_query_ifmsgs).
	Pending(iface string) (int, error)
	// TakeSignal returns a pending control signal without blocking.
	TakeSignal() (Signal, bool)
	// Divulge surrenders captured state to the bus (mh_encode).
	Divulge(data []byte) error
	// AwaitState blocks until state is installed (mh_decode).
	AwaitState(timeout time.Duration) ([]byte, error)
	// Done reports whether the instance has been deleted.
	Done() bool
}

var _ Port = (*Attachment)(nil)
var _ Port = (*RemotePort)(nil)

// TracedWriter is the optional capability a Port may offer for causal
// tracing: Write carrying the parent TraceContext of the message being
// responded to. The mh runtime type-asserts for it — a Port without it
// (e.g. a test stub) simply breaks the causal chain at that hop, it does
// not fail.
type TracedWriter interface {
	// WriteTraced emits data on the named interface, stamped as a causal
	// child of parent (a zero parent mints a new root, like Write).
	WriteTraced(iface string, data []byte, parent TraceContext) error
}

var _ TracedWriter = (*Attachment)(nil)
var _ TracedWriter = (*RemotePort)(nil)

// Timed is the optional capability of a port that keeps time: the mh
// runtime on it reads and waits on the port's clock (an Attachment's is its
// bus's, a RemotePort's the real one), and a sleep ends early when the
// instance is deleted or the transport serving the port ends. A Port
// without it (a test stub) runs on the real clock and sleeps out its time.
type Timed interface {
	Clock() clock.Clock
	// Ended returns channels closed when the instance is deleted and when
	// the transport serving the port ends (nil when there is none).
	Ended() (deleted, gone <-chan struct{})
}

var _ Timed = (*Attachment)(nil)
var _ Timed = (*RemotePort)(nil)
