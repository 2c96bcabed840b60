package ring

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type rec struct {
	Seq uint64
	Val int
}

func newRing(capacity int) *Ring[rec] {
	return New(capacity, 64, func(r *rec) *uint64 { return &r.Seq })
}

func TestCapacityClamp(t *testing.T) {
	for _, tc := range []struct{ capacity, want int }{{0, 64}, {-3, 64}, {5, 16}, {100, 100}} {
		if got := newRing(tc.capacity).Cap(); got != tc.want {
			t.Errorf("New(%d, 64).Cap() = %d, want %d", tc.capacity, got, tc.want)
		}
	}
}

func TestPutSinceOverwrite(t *testing.T) {
	r := newRing(16)
	for i := 1; i <= 40; i++ {
		seq, old := r.Put(&rec{Val: i})
		if seq != uint64(i) {
			t.Fatalf("put %d returned seq %d", i, seq)
		}
		if (old != nil) != (i > 16) || (old != nil && old.Val != i-16) {
			t.Fatalf("put %d displaced %+v", i, old)
		}
	}
	if r.Cursor() != 40 || r.Len() != 16 || r.Overwritten() != 24 {
		t.Fatalf("cursor/len/overwritten = %d/%d/%d, want 40/16/24", r.Cursor(), r.Len(), r.Overwritten())
	}
	all := r.Since(0)
	if len(all) != 16 || all[0].Seq != 25 || all[15].Seq != 40 {
		t.Fatalf("Since(0) = %d records %d..%d, want 16 records 25..40", len(all), all[0].Seq, all[len(all)-1].Seq)
	}
	if got := r.Since(37); len(got) != 3 || got[0].Seq != 38 || got[0].Val != 38 {
		t.Errorf("Since(37) = %+v, want seqs 38..40", got)
	}
	if got := r.Since(40); len(got) != 0 {
		t.Errorf("Since(cursor) = %d records, want 0", len(got))
	}
}

// TestSinceStopsAtUnpublished: a sequence that is claimed but not yet in its
// slot ends the answer, so a cursor consumer never steps over a record that
// is about to appear.
func TestSinceStopsAtUnpublished(t *testing.T) {
	r := newRing(16)
	r.Put(&rec{})
	r.Put(&rec{})
	r.cursor.Add(1) // a writer has claimed seq 3 and not yet published
	if got := r.Since(0); len(got) != 2 {
		t.Fatalf("Since(0) with seq 3 in flight = %d records, want 2", len(got))
	}
	r.slots[3].Store(&rec{Seq: 4}) // seq 4 published ahead of 3
	r.cursor.Add(1)
	if got := r.Since(0); len(got) != 2 {
		t.Fatalf("Since(0) stepped over in-flight seq 3: %d records", len(got))
	}
	r.slots[2].Store(&rec{Seq: 3})
	if got := r.Since(2); len(got) != 2 || got[0].Seq != 3 || got[1].Seq != 4 {
		t.Fatalf("Since(2) after publication = %+v, want seqs 3, 4", got)
	}
}

// TestLappedWriterDoesNotRegressSlot: a writer that stalls between claiming
// its sequence and publishing, while the rest of the ring goes a whole lap
// round, must not leave its old record where a newer one was. The stall is
// injected through the accessor, which Put calls between claim and publish.
func TestLappedWriterDoesNotRegressSlot(t *testing.T) {
	var r *Ring[rec]
	late, stalled := &rec{}, false
	r = New(16, 0, func(x *rec) *uint64 {
		if x == late && !stalled {
			stalled = true
			for i := 0; i < 16; i++ {
				r.Put(&rec{})
			}
		}
		return &x.Seq
	})
	if seq, old := r.Put(late); seq != 1 || old != late {
		t.Fatalf("lapped Put = seq %d old %p, want seq 1 and the late record itself displaced", seq, old)
	}
	got := r.Since(0)
	if len(got) != 16 || got[0].Seq != 2 || got[15].Seq != 17 {
		t.Fatalf("after the lap the ring holds %d records, want seqs 2..17 intact", len(got))
	}
}

// TestConcurrentWritersWrapping runs writers over a wrapping ring while a
// reader tails it by cursor: every answer is strictly increasing, no
// sequence is yielded twice across answers, and once the writers are done
// the last Cap sequences are all there.
func TestConcurrentWritersWrapping(t *testing.T) {
	const writers, per, capacity = 8, 2000, 64
	r := newRing(capacity)
	var wg sync.WaitGroup
	var done atomic.Bool
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var last uint64
		for !done.Load() {
			for _, p := range r.Since(last) {
				if p.Seq <= last {
					t.Errorf("Since(%d) yielded seq %d: not strictly increasing", last, p.Seq)
					return
				}
				last = p.Seq
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Put(&rec{})
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	<-readerDone

	const total = writers * per
	if r.Cursor() != total {
		t.Fatalf("cursor = %d, want %d", r.Cursor(), total)
	}
	if got := uint64(r.Len()) + r.Overwritten(); got != r.Cursor() {
		t.Errorf("Len+Overwritten = %d, want Cursor %d", got, r.Cursor())
	}
	tail := r.Since(0)
	if len(tail) != capacity {
		t.Fatalf("retained %d records after the writers finished, want %d", len(tail), capacity)
	}
	for i, p := range tail {
		if want := uint64(total - capacity + 1 + i); p.Seq != want {
			t.Fatalf("tail[%d].Seq = %d, want %d (gap in retained sequences)", i, p.Seq, want)
		}
	}
}

// TestWaitNeverMissesAPut pins the wake protocol: whatever the interleaving
// of a Put with Wait's registration and cursor check, the waiter comes back
// with the record — seen by its own read, or woken by the Put.
func TestWaitNeverMissesAPut(t *testing.T) {
	r := newRing(16)
	for i := uint64(0); i < 2000; i++ {
		got := make(chan []*rec, 1)
		go func() { got <- r.Wait(i, 5*time.Second) }()
		r.Put(&rec{})
		select {
		case recs := <-got:
			if len(recs) != 1 || recs[0].Seq != i+1 {
				t.Fatalf("round %d: Wait returned %+v", i, recs)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("round %d: Put raced Wait's check and the waiter slept through it", i)
		}
	}
	if n := r.waiters.Load(); n != 0 {
		t.Errorf("%d waiters still registered", n)
	}
}

func TestWaitWakesOnLaterPut(t *testing.T) {
	r := newRing(16)
	r.Put(&rec{})
	got := make(chan []*rec, 1)
	go func() { got <- r.Wait(1, 5*time.Second) }()
	for r.waiters.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	r.Put(&rec{Val: 7})
	if recs := <-got; len(recs) != 1 || recs[0].Val != 7 {
		t.Fatalf("Wait returned %+v, want the fresh record", recs)
	}
}

func TestWaitTimesOut(t *testing.T) {
	r := newRing(16)
	start := time.Now()
	if recs := r.Wait(0, 20*time.Millisecond); recs != nil {
		t.Fatalf("Wait on an empty ring = %+v, want nil", recs)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Error("Wait returned before the timeout")
	}
}

func TestNilRing(t *testing.T) {
	var r *Ring[rec]
	if seq, old := r.Put(&rec{}); seq != 0 || old != nil {
		t.Error("nil Put returned something")
	}
	if r.Since(0) != nil || r.Wait(0, time.Millisecond) != nil {
		t.Error("nil reads returned records")
	}
	if r.Alloc() != nil {
		t.Error("nil Alloc handed out a record")
	}
	if r.Cursor() != 0 || r.Cap() != 0 || r.Len() != 0 || r.Overwritten() != 0 || r.MemoryBound() != 0 {
		t.Error("nil accessors returned nonzero")
	}
}

// TestMemoryBound pins the arithmetic on the flight recorder's shape: 4096
// 8-byte slots, plus the 64 blocks 4096 88-byte records fill and the one
// more they can pin, each block 64 records and its 8-byte bump index.
func TestMemoryBound(t *testing.T) {
	type span struct {
		Seq, TraceID, SpanID, Parent uint64
		Hops                         uint32
		From, To                     string
		StartNs, EndNs               int64
	}
	const want = 4096*8 + (4096/64+1)*(8+64*88)
	r := New(4096, 0, func(s *span) *uint64 { return &s.Seq })
	if got := r.MemoryBound(); got != want {
		t.Fatalf("MemoryBound = %d, want %d", got, want)
	}
	for i := 0; i < 3*4096; i++ {
		r.Put(r.Alloc())
	}
	if got := r.MemoryBound(); got != want {
		t.Errorf("MemoryBound moved under load: %d", got)
	}
	// A capacity that is not a whole number of blocks rounds up: 100
	// records can lie across three blocks.
	if got, want := newRing(100).MemoryBound(), 100*8+3*(8+64*16); got != want {
		t.Errorf("MemoryBound of a 100-slot ring = %d, want %d", got, want)
	}
}

// TestAllocConcurrent runs the allocator as the message path does, several
// writers in alloc-fill-Put loops over a wrapping ring: no record is handed
// out twice, and every retained record still holds exactly what its writer
// put in it.
func TestAllocConcurrent(t *testing.T) {
	const writers, per, capacity = 8, 10_000, 4096
	r := newRing(capacity)
	handed := make([][]*rec, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := make([]*rec, 0, per)
			for i := 0; i < per; i++ {
				p := r.Alloc()
				if p.Seq != 0 || p.Val != 0 {
					t.Errorf("Alloc handed out a used record: %+v", *p)
					return
				}
				p.Val = w*per + i + 1
				mine = append(mine, p)
				r.Put(p)
			}
			handed[w] = mine
		}()
	}
	wg.Wait()

	seen := make(map[*rec]bool, writers*per)
	for w, mine := range handed {
		for i, p := range mine {
			if seen[p] {
				t.Fatalf("record %p handed out twice", p)
			}
			seen[p] = true
			if p.Val != w*per+i+1 {
				t.Fatalf("writer %d record %d holds %d: overwritten after Put", w, i, p.Val)
			}
		}
	}
	if len(seen) != writers*per {
		t.Fatalf("%d distinct records handed out, want %d", len(seen), writers*per)
	}
	tail := r.Since(0)
	if len(tail) != capacity {
		t.Fatalf("retained %d records, want %d", len(tail), capacity)
	}
	vals := make(map[int]bool, capacity)
	for i, p := range tail {
		if want := uint64(writers*per - capacity + 1 + i); p.Seq != want {
			t.Fatalf("tail[%d].Seq = %d, want %d", i, p.Seq, want)
		}
		if !seen[p] || p.Val == 0 || vals[p.Val] {
			t.Fatalf("tail[%d] = %+v: not a distinct record some writer filled", i, *p)
		}
		vals[p.Val] = true
	}
}

// TestAllocatedButUnpublished: a record that has been handed out but not
// yet Put is invisible — Since returns published records only, across laps,
// whether or not the records share a block.
func TestAllocatedButUnpublished(t *testing.T) {
	r := newRing(16)
	for lap := 0; lap < 3; lap++ {
		for i := 0; i < 16; i++ {
			p := r.Alloc()
			p.Val = lap*16 + i + 1
			r.Put(p)
		}
		held := r.Alloc() // filled, not published
		held.Val = -1
		got := r.Since(0)
		if len(got) != 16 {
			t.Fatalf("lap %d: Since(0) = %d records, want 16", lap, len(got))
		}
		for i, p := range got {
			if want := lap*16 + i + 1; p.Val != want || p.Seq != uint64(want) {
				t.Fatalf("lap %d: Since(0)[%d] = %+v, want seq and val %d", lap, i, *p, want)
			}
		}
	}
	if r.Cursor() != 48 {
		t.Errorf("cursor = %d after 48 Puts: an unpublished Alloc claimed a sequence", r.Cursor())
	}
}
