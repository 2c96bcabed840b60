package bus

// Peek reaches into a slot from the transport file — ring internals are
// queue.go's private vocabulary.
func Peek(q *msgQueue) []byte {
	return q.slots[0].msg
}

// Fenced reads the fence word from the transport file.
func Fenced(q *msgQueue) uint64 {
	return q.fence.Load()
}

// Stop fences the queue from the transport file: only the commit
// ((*Bus).editLocked in bus.go) detaches queues.
func Stop(q *msgQueue) {
	q.detach(9)
}
