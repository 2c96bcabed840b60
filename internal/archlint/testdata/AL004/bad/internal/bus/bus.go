package bus

import (
	"time"

	"repro/internal/bus/internal/queue"
	"repro/internal/bus/internal/routing"
)

// Bus holds the routing committer.
type Bus struct {
	commit routing.Committer
	ch     chan int
}

// Bad blocks in a Settled callback, which runs with the writer lock held: a
// send with no default, and a sleep.
func (b *Bus) Bad(ch chan int) error {
	return b.commit.Settled(func() error {
		ch <- 1
		time.Sleep(time.Millisecond)
		return nil
	})
}

// BadEdit blocks inside an Edit callback and re-enters Edit from there.
func (b *Bus) BadEdit(ch chan int) error {
	return b.commit.Edit(func(*routing.Draft) error {
		time.Sleep(time.Millisecond)
		<-ch
		return b.commit.Edit(func(*routing.Draft) error { return nil }, b.committed)
	}, b.committed)
}

// committed is the post-commit callback every Edit runs with the lock held.
func (b *Bus) committed(n int) {
	b.ch <- n
}

// BadPop waits for a message with the writer lock held: until a writer
// comes, every topology change stalls behind the reader.
func (b *Bus) BadPop(q *queue.Queue) error {
	return b.commit.Settled(func() error {
		q.Pop()
		return nil
	})
}
