package queue

import "sync/atomic"

// slot is one message cell of the ring: state is the publication flag and
// is the slot's last touch — the consumer reads msg only after seeing it.
type slot struct {
	state atomic.Uint32
	msg   []byte
	ver   uint64
}

// chunk is one fixed segment of slots with a producer claim cursor.
type chunk struct {
	tail  atomic.Uint64
	slots [4]slot
}

// Queue is the lock-free ring; the fence word refuses routed pushes
// stamped with a topology version at or below it.
type Queue struct {
	prod  atomic.Pointer[chunk]
	fence atomic.Uint64
}

func (q *Queue) push(m []byte) {
	c := q.prod.Load()
	pos := c.tail.Add(1) - 1
	s := &c.slots[pos]
	s.msg = m
	s.state.Store(1) // publish last
}

func (q *Queue) pushRouted(m []byte, version uint64) bool {
	c := q.prod.Load()
	pos := c.tail.Add(1) - 1
	s := &c.slots[pos]
	if version <= q.fence.Load() {
		s.state.Store(2) // tombstone the claimed slot and refuse
		return false
	}
	s.msg = m
	s.ver = version
	s.state.Store(1)
	return true
}

// Detach raises the fence; only the routing commit holds it.
func (q *Queue) Detach(version uint64) {
	for {
		cur := q.fence.Load()
		if version <= cur || q.fence.CompareAndSwap(cur, version) {
			return
		}
	}
}
