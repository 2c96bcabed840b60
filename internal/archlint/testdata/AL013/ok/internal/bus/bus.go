package bus

// Bus is the facade that owns the commit.
type Bus struct{}

// editLocked fences the queue as part of committing a topology change — the
// one legal detach site.
func (b *Bus) editLocked(q *msgQueue, version uint64) {
	q.detach(version)
}
