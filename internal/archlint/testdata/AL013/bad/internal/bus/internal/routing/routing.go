package routing

import "repro/internal/bus/internal/queue"

// Published holds the current routing table.
type Published struct{}

// Commit is the one legal place to fence a queue.
func (p *Published) Commit(q *queue.Queue, version uint64) {
	q.Detach(version)
}

// sweep fences from a helper of the package, outside the commit.
func (p *Published) sweep(q *queue.Queue) {
	q.Detach(1)
}
