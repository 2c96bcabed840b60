package bus

import "repro/internal/bus/internal/queue"

// Bus reads queues above the routing layer.
type Bus struct{ rt *routingTable }

func (b *Bus) backlog(qs []*queue.Queue) (n int) {
	for _, q := range qs {
		n += q.Len()
	}
	return n
}
