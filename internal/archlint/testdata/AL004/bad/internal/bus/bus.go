package bus

import (
	"sync"
	"time"
)

// Bus owns the control-plane writer lock.
type Bus struct{ mu sync.Mutex }

// Bad blocks while holding the writer lock: a send with no default, and a
// sleep.
func (b *Bus) Bad(ch chan int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ch <- 1
	time.Sleep(time.Millisecond)
}

// edit runs fn under the writer lock.
func (b *Bus) edit(fn func() error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return fn()
}

// BadEdit blocks inside an edit callback, which runs with the lock held,
// and re-enters edit from there.
func (b *Bus) BadEdit(ch chan int) error {
	return b.edit(func() error {
		time.Sleep(time.Millisecond)
		<-ch
		return b.edit(func() error { return nil })
	})
}

// commitLocked runs with the lock held by its caller.
func (b *Bus) commitLocked(ch chan int) {
	ch <- 2
}
