// Package ring is the one bounded overwrite-oldest ring. It has two owners:
// the delivery log (internal/replay: one record per delivery, read as the
// replay log and as the trace flight recorder) and the event log, each a
// Ring of its own record type. Records live in the ring's slots and are
// overwritten in place: a writer takes the next sequence number with one
// atomic add (from 1, strictly monotonic, usable as a consumer cursor),
// then fills the record of slot (seq-1) % cap under that slot's lock
// (Claim, Publish). Readers take the same lock and copy what they keep, so
// no copy is torn and no reader holds a record a writer will overwrite.
// Slots come in segments, each allocated when the first record lands in
// it. The bus's MPSC queue (never loses a message, fenced against routing
// epochs) and the timeseries window store (columnar, single writer) are
// different structures and stay their own.
package ring

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/clock"
)

// Ring retains the last Cap records written into it. All methods are safe
// for concurrent use and on a nil receiver: a ring that is off is a nil
// *Ring.
type Ring[T any] struct {
	segs   []atomic.Pointer[segment[T]]
	n      uint64 // capacity in slots
	cursor atomic.Uint64

	// waiters counts goroutines inside Wait; Publish wakes only when it is
	// nonzero, so a ring nobody long-polls pays one atomic load for Wait.
	waiters atomic.Int32
	mu      sync.Mutex
	notify  chan struct{} // closed and replaced by each wake
}

// segSlots is how many slots one allocation holds.
const segSlots = 64

type segment[T any] [segSlots]slot[T]

// slot holds one record and the sequence it was written under (0 while the
// slot has never been written); mu guards both. rec comes first, so Publish
// finds the slot at the record's address.
type slot[T any] struct {
	rec T
	mu  sync.Mutex
	seq uint64
}

// New returns a ring of capacity slots: def when capacity <= 0, at least 16.
func New[T any](capacity, def int) *Ring[T] {
	if capacity <= 0 {
		capacity = def
	}
	n := max(capacity, 16)
	return &Ring[T]{
		segs:   make([]atomic.Pointer[segment[T]], (n+segSlots-1)/segSlots),
		n:      uint64(n),
		notify: make(chan struct{}),
	}
}

// grow installs a segment. The cold half of lock: of the writers that race
// here one installs its segment, the others drop theirs untouched.
func (r *Ring[T]) grow(seg *atomic.Pointer[segment[T]]) *segment[T] {
	seg.CompareAndSwap(nil, new(segment[T]))
	return seg.Load()
}

// Claim takes the next sequence number and locks its slot, returning the
// record there for the caller to overwrite in place, every field, and hand
// to Publish, which must follow on every path. A writer descheduled between
// the add and the lock for a whole lap finds a newer record in its slot:
// fresh is false, the caller must leave that record as it is, and its own
// is the one dropped, counted in Overwritten. On a nil ring rec is nil.
//
//archlint:hotpath
func (r *Ring[T]) Claim() (seq uint64, rec *T, fresh bool) {
	if r == nil {
		return 0, nil, false
	}
	seq = r.cursor.Add(1)
	rec, fresh = r.lock(seq)
	return seq, rec, fresh
}

// lock locks seq's slot, allocating its segment if no record has landed
// there yet, and stamps seq on it unless a newer record holds it.
//
//archlint:hotpath
func (r *Ring[T]) lock(seq uint64) (rec *T, fresh bool) {
	i := (seq - 1) % r.n
	seg := r.segs[i/segSlots].Load()
	if seg == nil {
		seg = r.grow(&r.segs[i/segSlots])
	}
	s := &seg[i%segSlots]
	s.mu.Lock()
	if fresh = s.seq < seq; fresh {
		s.seq = seq
	}
	return &s.rec, fresh
}

// Publish unlocks the slot of rec, a record Claim returned, making it
// visible, and wakes any goroutine inside Wait.
//
//archlint:hotpath
func (r *Ring[T]) Publish(rec *T) {
	if r == nil {
		return
	}
	(*slot[T])(unsafe.Pointer(rec)).mu.Unlock()
	if r.waiters.Load() != 0 {
		r.wake()
	}
}

// wake releases every goroutine inside Wait. The cold half of Publish: it
// runs only while a waiter is registered.
func (r *Ring[T]) wake() {
	r.mu.Lock()
	close(r.notify)
	r.notify = make(chan struct{})
	r.mu.Unlock()
}

// Since calls keep with each retained record of sequence > after, oldest
// first, under the record's slot lock — keep copies what it keeps; the
// record stays the ring's — and returns how many it visited. The scan stops
// at the first sequence claimed but not yet written, so a consumer resuming
// from the last sequence it saw never steps over a record that is about to
// appear; overwritten sequences are skipped.
func (r *Ring[T]) Since(after uint64, keep func(*T)) int {
	if r == nil {
		return 0
	}
	end := r.cursor.Load()
	after = max(after, end-min(end, r.n)) // overwritten sequences
	kept := 0
	for seq := after + 1; seq <= end; seq++ {
		i := (seq - 1) % r.n
		seg := r.segs[i/segSlots].Load()
		if seg == nil {
			break
		}
		s := &seg[i%segSlots]
		s.mu.Lock()
		written := s.seq
		if written == seq {
			keep(&s.rec)
			kept++
		}
		s.mu.Unlock()
		if written < seq {
			break
		}
	}
	return kept
}

// Wait is Since as soon as it visits a record, or 0 once timeout has
// elapsed on clk. The waiter registers and captures the wake channel before
// it reads the ring, so a Publish racing that read is either seen by it or
// sees the waiter and closes the captured channel.
func (r *Ring[T]) Wait(clk clock.Clock, after uint64, timeout time.Duration, keep func(*T)) int {
	if r == nil {
		return 0
	}
	r.waiters.Add(1)
	defer r.waiters.Add(-1)
	t := clk.NewTimer(timeout)
	defer t.Stop()
	for {
		r.mu.Lock()
		ch := r.notify
		r.mu.Unlock()
		if n := r.Since(after, keep); n > 0 {
			return n
		}
		select {
		case <-ch:
		case <-t.C:
			return 0
		}
	}
}

// Each calls visit with the record of every slot allocated so far, under
// the slot's lock: the record the slot holds now, whatever its sequence, or
// the zero record of a slot never written.
func (r *Ring[T]) Each(visit func(*T)) {
	if r == nil {
		return
	}
	for i := range r.segs {
		s := r.segs[i].Load()
		if s == nil {
			continue
		}
		for j := range s {
			s[j].mu.Lock()
			visit(&s[j].rec)
			s[j].mu.Unlock()
		}
	}
}

// Cursor returns the newest sequence claimed: the count of records ever
// written or dropped.
func (r *Ring[T]) Cursor() uint64 {
	if r == nil {
		return 0
	}
	return r.cursor.Load()
}

// Cap returns the fixed capacity in records.
func (r *Ring[T]) Cap() int {
	if r == nil {
		return 0
	}
	return int(r.n)
}

// Len returns how many records are retained.
func (r *Ring[T]) Len() int { return int(min(r.Cursor(), uint64(r.Cap()))) }

// Overwritten returns how many records have fallen off the ring, a lapped
// writer's dropped record included: an answer asked to start at or below
// that sequence is truncated.
func (r *Ring[T]) Overwritten() uint64 {
	c := r.Cursor()
	return c - min(c, uint64(r.Cap()))
}

// MemoryBound returns the ring's own memory in bytes, not what a T points
// at (strings, payloads): the segment table, one pointer per segSlots
// slots, plus the segments allocated so far, which the first lap
// allocates all of.
func (r *Ring[T]) MemoryBound() int {
	if r == nil {
		return 0
	}
	n := len(r.segs) * int(unsafe.Sizeof(r.segs[0]))
	for i := range r.segs {
		if r.segs[i].Load() != nil {
			n += int(unsafe.Sizeof(*(*segment[T])(nil)))
		}
	}
	return n
}
