package bus

import "repro/internal/bus/internal/queue"

// Bus is the facade that owns the commit.
type Bus struct{}

// editLocked is the commit, the one legal place to fence a queue.
func (b *Bus) editLocked(q *queue.Queue, version uint64) {
	q.Detach(version)
}

// Rebind fences by hand, outside the commit: a second copy of the ordering.
func (b *Bus) Rebind(q *queue.Queue, version uint64) {
	q.Detach(version)
}
