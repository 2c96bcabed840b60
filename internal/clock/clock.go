// Package clock is the runtime's one time source. Every wait (a timeout, a
// backoff, a module's sleep, a rollup window) and every
// timestamp (a send stamp, a span's end, an event's time, a transaction's
// timeline) reads a Clock, which the application's Config hands to every
// package it builds.
//
// The zero Clock is the real clock, at the time package's price: a nil
// check, no interface call, no allocation beyond what time allocates. A
// Virtual clock stands still until a test advances it, so a timeout, a
// window or a backoff elapses exactly when the test says.
//
// The socket deadlines alone stay on the system clock, because the kernel
// compares them with real time.
package clock

import (
	"sort"
	"sync"
	"time"
)

// Clock reads time and waits on it. The zero value is the real clock.
type Clock struct {
	v *Virtual
}

// base anchors Nanos: wall time captured once plus the monotonic time
// elapsed since, half the price of time.Now, and a wall-clock step cannot
// make a span negative.
var (
	base   = time.Now()
	baseNs = base.UnixNano()
)

// Now returns the current time.
func (c Clock) Now() time.Time {
	if c.v != nil {
		return c.v.Now()
	}
	return time.Now()
}

// Nanos returns the current time in Unix nanoseconds off a monotonic base:
// the trace clock behind message send stamps and delivery span ends.
//
//archlint:hotpath
func (c Clock) Nanos() int64 {
	if c.v != nil {
		return c.v.Now().UnixNano()
	}
	return baseNs + int64(time.Since(base))
}

// Sleep blocks for d.
func (c Clock) Sleep(d time.Duration) {
	if c.v != nil {
		<-c.v.add(d).c
		return
	}
	time.Sleep(d)
}

// Timer is a one-shot timer: C receives the time once d has elapsed.
type Timer struct {
	C <-chan time.Time
	t *time.Timer
	w *waiter
}

// NewTimer starts a timer that fires after d.
func (c Clock) NewTimer(d time.Duration) Timer {
	if c.v != nil {
		w := c.v.add(d)
		return Timer{C: w.c, w: w}
	}
	t := time.NewTimer(d)
	return Timer{C: t.C, t: t}
}

// Stop stops the timer, reporting whether it was still pending.
func (t Timer) Stop() bool {
	if t.w != nil {
		return t.w.v.remove(t.w)
	}
	return t.t.Stop()
}

// Virtual is a clock that moves only when Advance moves it. Safe for
// concurrent use.
type Virtual struct {
	mu      sync.Mutex
	added   *sync.Cond
	now     time.Time
	waiters []*waiter // pending sleeps and timers
}

type waiter struct {
	v    *Virtual
	when time.Time
	c    chan time.Time
}

// NewVirtual returns a virtual clock reading start.
func NewVirtual(start time.Time) *Virtual {
	v := &Virtual{now: start}
	v.added = sync.NewCond(&v.mu)
	return v
}

// Clock returns the Clock that reads and waits on v.
func (v *Virtual) Clock() Clock { return Clock{v: v} }

// Now returns the virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// add registers a wait of d; one of d <= 0 has fired already.
func (v *Virtual) add(d time.Duration) *waiter {
	v.mu.Lock()
	defer v.mu.Unlock()
	w := &waiter{v: v, when: v.now.Add(d), c: make(chan time.Time, 1)}
	if d <= 0 {
		w.c <- v.now
		return w
	}
	v.waiters = append(v.waiters, w)
	v.added.Broadcast()
	return w
}

func (v *Virtual) remove(w *waiter) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	for i, x := range v.waiters {
		if x == w {
			v.waiters = append(v.waiters[:i], v.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// Advance moves the clock forward by d and fires, in deadline order, every
// sleep and timer whose deadline it reaches, the clock reading each
// deadline as it fires.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	defer v.mu.Unlock()
	end := v.now.Add(d)
	sort.SliceStable(v.waiters, func(i, j int) bool { return v.waiters[i].when.Before(v.waiters[j].when) })
	n := 0
	for ; n < len(v.waiters) && !v.waiters[n].when.After(end); n++ {
		v.now = v.waiters[n].when
		v.waiters[n].c <- v.now
	}
	v.waiters = append(v.waiters[:0], v.waiters[n:]...)
	v.now = end
}

// BlockUntil returns once at least n sleeps and timers are pending: the
// goroutines a test drives have reached the waits its next Advance ends.
func (v *Virtual) BlockUntil(n int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for len(v.waiters) < n {
		v.added.Wait()
	}
}
