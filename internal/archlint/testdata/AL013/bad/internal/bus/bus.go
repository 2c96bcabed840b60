package bus

import (
	"repro/internal/bus/internal/queue"
	"repro/internal/bus/internal/routing"
)

// Bus is the facade that owns the commit.
type Bus struct{ routing routing.Published }

// editLocked is the bus's commit, the one legal caller of the routing one.
func (b *Bus) editLocked(q *queue.Queue, version uint64) {
	b.routing.Commit(q, version)
}

// Rebind fences by hand, outside the commit: a second copy of the ordering.
func (b *Bus) Rebind(q *queue.Queue, version uint64) {
	q.Detach(version)
}
