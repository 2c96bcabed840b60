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

// Good signals without blocking in a Settled callback and sleeps once
// Settled has returned.
func (b *Bus) Good(ch chan int) error {
	err := b.commit.Settled(func() error {
		select {
		case ch <- 1:
		default:
		}
		return nil
	})
	time.Sleep(time.Millisecond)
	return err
}

// GoodEdit stages under the lock and sleeps once Edit has returned; a
// literal it builds, a goroutine it starts and a literal it hands to
// something other than the committer do not run under the lock.
func (b *Bus) GoodEdit(n *int) error {
	err := b.commit.Edit(func(*routing.Draft) error {
		*n++
		later := func() { time.Sleep(time.Millisecond) }
		//archlint:spawn the fixture's goroutine runs outside the lock
		go later()
		return nil
	}, b.committed)
	unlocked(func() { time.Sleep(time.Millisecond) })
	time.Sleep(time.Millisecond)
	return err
}

func unlocked(fn func()) { fn() }

// committed is the post-commit callback every Edit runs with the lock held;
// it signals without blocking.
func (b *Bus) committed(n int) {
	select {
	case b.ch <- n:
	default:
	}
}

// GoodPop reads under the writer lock, then waits for a message with the
// lock released.
func (b *Bus) GoodPop(q *queue.Queue, n *int) int {
	_ = b.commit.Settled(func() error {
		*n++
		return nil
	})
	return q.Pop()
}
