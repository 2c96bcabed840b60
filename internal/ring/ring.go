// Package ring is the one bounded overwrite-oldest ring: the trace flight
// recorder, the event log and the record log are each a Ring of their own
// record type. The ring hands out the record to fill (Alloc: records are
// carved blockRecs at a time from one allocation, so a writer on the message
// path pays 1/blockRecs of an allocation per record); one atomic add then
// allocates the record's sequence number (from 1, strictly monotonic, usable
// as a consumer cursor) and one atomic pointer publication puts it in slot
// (seq-1) % cap (Put). Writers share no lock with each other or with
// readers. The bus's MPSC queue (never loses a message, fenced against
// routing epochs) and the timeseries window store (columnar, single writer)
// are different structures and stay their own.
package ring

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Ring retains the last Cap records put into it. All methods are safe for
// concurrent use and on a nil receiver: a ring that is off is a nil *Ring.
type Ring[T any] struct {
	slots  []atomic.Pointer[T]
	cursor atomic.Uint64
	seqOf  func(*T) *uint64 // the record's sequence field: stamped by Put, verified by Since

	// block is the allocation Alloc currently carves records from; nil until
	// the first Alloc, replaced (never refilled) when used up.
	block atomic.Pointer[block[T]]

	// waiters counts goroutines inside Wait; Put wakes only when it is
	// nonzero, so a ring nobody long-polls pays one atomic load for Wait.
	waiters atomic.Int32
	mu      sync.Mutex
	notify  chan struct{} // closed and replaced by each wake
}

// New returns a ring of capacity slots: def when capacity <= 0, at least 16.
func New[T any](capacity, def int, seqOf func(*T) *uint64) *Ring[T] {
	if capacity <= 0 {
		capacity = def
	}
	return &Ring[T]{
		slots:  make([]atomic.Pointer[T], max(capacity, 16)),
		seqOf:  seqOf,
		notify: make(chan struct{}),
	}
}

// blockRecs is how many records one allocation holds.
const blockRecs = 64

// block is one allocation's worth of records, handed out left to right by a
// bump index. A record is handed out once and never reused — a used-up block
// is dropped for the collector, which frees it when the ring has overwritten
// the last record carved from it — so a published record is as immutable as
// one allocated on its own.
type block[T any] struct {
	next atomic.Uint32 // records handed out (may overshoot blockRecs)
	recs [blockRecs]T
}

// Alloc returns a zeroed record for the caller to fill and Put; nil on a nil
// ring. Lock-free: one atomic load and one atomic add, plus a block
// allocation every blockRecs records.
//
//archlint:hotpath
func (r *Ring[T]) Alloc() *T {
	if r == nil {
		return nil
	}
	for {
		b := r.block.Load()
		if b != nil {
			if i := b.next.Add(1); i <= blockRecs {
				return &b.recs[i-1]
			}
		}
		r.refill(b)
	}
}

// refill replaces the used-up block. The cold half of Alloc: of the writers
// that race here one installs its block, the others drop theirs untouched.
func (r *Ring[T]) refill(used *block[T]) {
	r.block.CompareAndSwap(used, new(block[T]))
}

// Put stamps v with the next sequence number and publishes it, returning
// the number and the record v displaced (nil while the ring fills). The
// caller must not mutate v afterwards. A writer descheduled between claim
// and publication for a whole lap displaces a record newer than its own;
// it puts that one back, and it is then v that was displaced. The cursor
// says when that can have happened, so the common path never reads old.
//
//archlint:hotpath
func (r *Ring[T]) Put(v *T) (seq uint64, old *T) {
	if r == nil {
		return 0, nil
	}
	n := uint64(len(r.slots))
	seq = r.cursor.Add(1)
	*r.seqOf(v) = seq
	slot := &r.slots[(seq-1)%n]
	old = slot.Swap(v)
	if old != nil && r.cursor.Load()-seq >= n && *r.seqOf(old) > seq && slot.CompareAndSwap(v, old) {
		old = v
	}
	if r.waiters.Load() != 0 {
		r.wake()
	}
	return seq, old
}

// wake releases every goroutine inside Wait. The cold half of Put: it runs
// only while a waiter is registered.
func (r *Ring[T]) wake() {
	r.mu.Lock()
	close(r.notify)
	r.notify = make(chan struct{})
	r.mu.Unlock()
}

// Since returns the retained records with sequence > after, oldest first.
// The scan stops at the first sequence claimed but not yet published, so a
// consumer resuming from the last sequence it saw never steps over a record
// that is about to appear; overwritten sequences are skipped.
func (r *Ring[T]) Since(after uint64) []*T {
	if r == nil {
		return nil
	}
	n, end := uint64(len(r.slots)), r.cursor.Load()
	if end > n {
		after = max(after, end-n)
	}
	if after >= end {
		return nil
	}
	out := make([]*T, 0, end-after)
	for seq := after + 1; seq <= end; seq++ {
		p := r.slots[(seq-1)%n].Load()
		if p == nil || *r.seqOf(p) < seq {
			break
		}
		if *r.seqOf(p) == seq {
			out = append(out, p)
		}
	}
	return out
}

// Wait returns Since(after) as soon as it is non-empty, or nil once timeout
// has elapsed. The waiter registers and captures the wake channel before
// it reads the ring, so a Put racing that read is either seen by it or sees
// the waiter and closes the captured channel.
func (r *Ring[T]) Wait(after uint64, timeout time.Duration) []*T {
	if r == nil {
		return nil
	}
	r.waiters.Add(1)
	defer r.waiters.Add(-1)
	t := time.NewTimer(timeout)
	defer t.Stop()
	for {
		r.mu.Lock()
		ch := r.notify
		r.mu.Unlock()
		if recs := r.Since(after); len(recs) > 0 {
			return recs
		}
		select {
		case <-ch:
		case <-t.C:
			return nil
		}
	}
}

// Cursor returns the newest sequence allocated: the count of records ever put.
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
	return len(r.slots)
}

// Len returns how many records are retained.
func (r *Ring[T]) Len() int { return int(min(r.Cursor(), uint64(r.Cap()))) }

// Overwritten returns how many records have fallen off the ring: an answer
// asked to start at or below that sequence is truncated.
func (r *Ring[T]) Overwritten() uint64 {
	c := r.Cursor()
	return c - min(c, uint64(r.Cap()))
}

// MemoryBound returns the ring's own worst-case memory in bytes, not what a
// T points at (strings, payloads): the slot array plus the blocks the
// retained records keep alive. A block lives until the last record carved
// from it is overwritten, so Cap consecutive records pin the blocks they
// fill plus one — the dead head of the oldest and the unused tail of the
// current block together make exactly one more. (A writer that publishes
// well out of allocation order pins its record's block that much longer.)
func (r *Ring[T]) MemoryBound() int {
	if r == nil {
		return 0
	}
	var slot atomic.Pointer[T]
	var b block[T]
	blocks := (r.Cap()+blockRecs-1)/blockRecs + 1
	return r.Cap()*int(unsafe.Sizeof(slot)) + blocks*int(unsafe.Sizeof(b))
}
