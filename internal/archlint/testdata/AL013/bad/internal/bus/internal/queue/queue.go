package queue

import "sync/atomic"

type slot struct {
	state atomic.Uint32
	msg   []byte
}

type Queue struct {
	fence atomic.Uint64
	slots [4]slot
}

// push publishes before writing the payload: the consumer can observe the
// flag and read a torn message.
func (q *Queue) push(m []byte) {
	s := &q.slots[0]
	s.state.Store(1)
	s.msg = m
}

// claim CASes the publication flag — but a claimed slot has exactly one
// owner, so the flag is only ever Stored.
func (q *Queue) claim() bool {
	s := &q.slots[1]
	return s.state.CompareAndSwap(0, 1)
}

// refuse raises the fence outside Detach, diverting traffic to the slow
// path with no topology change behind it.
func (q *Queue) refuse(version uint64) {
	q.fence.Store(version)
}

func (q *Queue) Detach(version uint64) {
	q.fence.Store(version)
}
