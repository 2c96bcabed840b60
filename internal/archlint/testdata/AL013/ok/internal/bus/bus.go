package bus

import "repro/internal/bus/internal/queue"

// Bus is the facade that owns the commit.
type Bus struct{}

// editLocked fences the queue as part of committing a topology change — the
// one legal Detach site.
func (b *Bus) editLocked(q *queue.Queue, version uint64) {
	q.Detach(version)
}
