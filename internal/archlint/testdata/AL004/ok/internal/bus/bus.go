package bus

import (
	"sync"
	"time"
)

// Bus owns the control-plane writer lock.
type Bus struct{ mu sync.Mutex }

// Good signals without blocking under the lock and sleeps after releasing
// it.
func (b *Bus) Good(ch chan int) {
	b.mu.Lock()
	select {
	case ch <- 1:
	default:
	}
	b.mu.Unlock()
	time.Sleep(time.Millisecond)
}

// edit runs fn under the writer lock.
func (b *Bus) edit(fn func() error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return fn()
}

// GoodEdit stages under the lock and sleeps once edit has returned; the
// literal it hands to something other than edit is not under the lock.
func (b *Bus) GoodEdit(n *int) error {
	err := b.edit(func() error {
		*n++
		return nil
	})
	unlocked(func() { time.Sleep(time.Millisecond) })
	time.Sleep(time.Millisecond)
	return err
}

func unlocked(fn func()) { fn() }
