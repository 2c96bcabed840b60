package bus

// Bus is the facade that owns the commit.
type Bus struct{}

// editLocked is the commit, the one legal place to fence a queue.
func (b *Bus) editLocked(q *msgQueue, version uint64) {
	q.detach(version)
}

// Rebind fences by hand, outside the commit: a second copy of the ordering.
func (b *Bus) Rebind(q *msgQueue, version uint64) {
	q.detach(version)
}
