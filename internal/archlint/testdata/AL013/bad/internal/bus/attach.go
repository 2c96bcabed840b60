package bus

import "repro/internal/bus/internal/queue"

// Stop fences the queue from the transport file: only the commit
// ((*Bus).editLocked in bus.go) detaches queues.
func Stop(q *queue.Queue) {
	q.Detach(9)
}
