package bus

import (
	"repro/internal/bus/internal/queue"
	"repro/internal/bus/internal/routing"
)

// Bus is the facade that owns the commit.
type Bus struct{ routing routing.Published }

// editLocked commits a topology change under the writer lock — the one
// legal caller of the routing commit.
func (b *Bus) editLocked(q *queue.Queue, version uint64) {
	b.routing.Commit(q, version)
}
