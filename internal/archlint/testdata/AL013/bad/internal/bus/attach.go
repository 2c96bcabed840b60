package bus

import "repro/internal/bus/internal/queue"

// Stop commits from the transport file, without the writer lock: only the
// bus's commit ((*Bus).editLocked in bus.go) runs the routing one.
func (b *Bus) Stop(q *queue.Queue) {
	b.routing.Commit(q, 9)
}
