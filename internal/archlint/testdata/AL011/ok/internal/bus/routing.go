package bus

import "repro/internal/bus/internal/queue"

// routingTable is one immutable snapshot.
type routingTable struct {
	version uint64
	routes  map[queue.Endpoint][]queue.Endpoint
}

// instanceOf uses the message vocabulary the queue package declares for
// the bus, which routing may.
func instanceOf(e queue.Endpoint) string { return e.Instance }
