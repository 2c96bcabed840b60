package routing

import "repro/internal/bus/internal/queue"

// Published holds the current routing table.
type Published struct{}

// Commit fences the queue as part of publishing a successor table — the one
// legal Detach site.
func (p *Published) Commit(q *queue.Queue, version uint64) {
	q.Detach(version)
}
