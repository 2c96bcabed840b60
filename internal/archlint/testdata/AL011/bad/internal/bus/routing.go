package bus

import "repro/internal/bus/internal/queue"

// routingTable is one immutable snapshot.
type routingTable struct{ version uint64 }

// backlog reaches up into the queueing layer: routing may not know queues
// exist.
func backlog(qs []*queue.Queue) (n int) {
	for _, q := range qs {
		n += q.Len()
	}
	return n
}
