package ring

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

type rec struct {
	Seq uint64
	Val int
}

func newRing(capacity int) *Ring[rec] { return New[rec](capacity, 64) }

// put writes one record the way the ring's owners do: claim, fill in place
// unless lapped, publish.
func put(r *Ring[rec], val int) uint64 {
	seq, p, fresh := r.Claim()
	if fresh {
		*p = rec{Seq: seq, Val: val}
	}
	r.Publish(p)
	return seq
}

// since copies what Since visits.
func since(r *Ring[rec], after uint64) []rec {
	var out []rec
	r.Since(after, func(p *rec) { out = append(out, *p) })
	return out
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
		if seq := put(r, i); seq != uint64(i) {
			t.Fatalf("put %d returned seq %d", i, seq)
		}
	}
	if r.Cursor() != 40 || r.Len() != 16 || r.Overwritten() != 24 {
		t.Fatalf("cursor/len/overwritten = %d/%d/%d, want 40/16/24", r.Cursor(), r.Len(), r.Overwritten())
	}
	all := since(r, 0)
	if len(all) != 16 || all[0].Seq != 25 || all[15].Seq != 40 {
		t.Fatalf("Since(0) = %d records %d..%d, want 16 records 25..40", len(all), all[0].Seq, all[len(all)-1].Seq)
	}
	for _, p := range all {
		if p.Val != int(p.Seq) {
			t.Fatalf("record %d holds %d: overwritten in place with the wrong value", p.Seq, p.Val)
		}
	}
	if got := since(r, 37); len(got) != 3 || got[0].Seq != 38 || got[0].Val != 38 {
		t.Errorf("Since(37) = %+v, want seqs 38..40", got)
	}
	if got := since(r, 40); len(got) != 0 {
		t.Errorf("Since(cursor) = %d records, want 0", len(got))
	}
}

// TestSinceStopsAtUnpublished: a sequence that is claimed but not yet in its
// slot ends the answer, so a cursor consumer never steps over a record that
// is about to appear. The writers are split at the claim: the cursor add
// happens, the lock and fill come later.
func TestSinceStopsAtUnpublished(t *testing.T) {
	r := newRing(16)
	put(r, 1)
	put(r, 2)
	three := r.cursor.Add(1) // a writer has claimed seq 3 and not yet written it
	if got := since(r, 0); len(got) != 2 {
		t.Fatalf("Since(0) with seq 3 in flight = %d records, want 2", len(got))
	}
	put(r, 4) // seq 4 written ahead of 3
	if got := since(r, 0); len(got) != 2 {
		t.Fatalf("Since(0) stepped over in-flight seq 3: %d records", len(got))
	}
	p, fresh := r.lock(three)
	if !fresh {
		t.Fatal("the writer of seq 3 found its slot taken")
	}
	*p = rec{Seq: three, Val: 3}
	r.Publish(p)
	if got := since(r, 2); len(got) != 2 || got[0].Seq != 3 || got[1].Seq != 4 {
		t.Fatalf("Since(2) after publication = %+v, want seqs 3, 4", got)
	}
}

// TestLappedWriterDoesNotRegressSlot: a writer that stalls between claiming
// its sequence and locking its slot, while the rest of the ring goes a
// whole lap round, must not leave its old record where a newer one was. Its
// own record is the one dropped, and Overwritten counts it.
func TestLappedWriterDoesNotRegressSlot(t *testing.T) {
	r := newRing(16)
	late := r.cursor.Add(1) // claims seq 1, then stalls
	for i := 0; i < 16; i++ {
		put(r, 100+i) // seqs 2..17; 17 lands in seq 1's slot
	}
	p, fresh := r.lock(late)
	if fresh || p.Seq != 17 {
		t.Fatalf("lapped writer's slot = %+v, fresh %v; want seq 17 kept and the late record refused", *p, fresh)
	}
	r.Publish(p)
	got := since(r, 0)
	if len(got) != 16 || got[0].Seq != 2 || got[15].Seq != 17 {
		t.Fatalf("after the lap the ring holds %d records, want seqs 2..17 intact", len(got))
	}
	if r.Overwritten() != 1 || r.Len() != 16 {
		t.Errorf("overwritten/len = %d/%d, want 1/16: the dropped record is the overwritten one", r.Overwritten(), r.Len())
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
			for _, p := range since(r, last) {
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
				put(r, i)
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
	tail := since(r, 0)
	if len(tail) != capacity {
		t.Fatalf("retained %d records after the writers finished, want %d", len(tail), capacity)
	}
	for i, p := range tail {
		if want := uint64(total - capacity + 1 + i); p.Seq != want {
			t.Fatalf("tail[%d].Seq = %d, want %d (gap in retained sequences)", i, p.Seq, want)
		}
	}
}

// wide is a record too big to write or copy in one machine word: a reader
// that saw it mid-write would find its words disagreeing.
type wide struct {
	Seq   uint64
	Words [16]uint64
}

// TestReadersGetUntornCopies races readers against eight writers on a
// 64-slot ring, so every slot is rewritten while readers copy it: each copy
// a reader gets is the whole of what its writer wrote for that sequence.
// The writers keep going until every reader has made its passes over a
// ring with records in it.
func TestReadersGetUntornCopies(t *testing.T) {
	const writers, readers, passes = 8, 2, 300
	r := New[wide](64, 0)
	var wg, rg sync.WaitGroup
	var done atomic.Bool
	for i := 0; i < readers; i++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for pass := 0; pass < passes; {
				visited := r.Since(0, func(p *wide) {
					c := *p
					for j, w := range c.Words {
						if w != c.Seq*31+uint64(j) {
							t.Errorf("record %d word %d = %d: torn copy", c.Seq, j, w)
							return
						}
					}
				})
				if visited > 0 {
					pass++
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				seq, p, fresh := r.Claim()
				if fresh {
					p.Seq = seq
					for j := range p.Words {
						p.Words[j] = seq*31 + uint64(j)
					}
				}
				r.Publish(p)
			}
		}()
	}
	rg.Wait()
	done.Store(true)
	wg.Wait()
}

// TestNewAllocatesNoMoreThanBefore pins what building a ring costs: no more
// than the ring of one published pointer per slot that preceded the
// in-place slots (32 880 B for 4096 slots, 9 584 B for 1024, measured the
// same way), however large its records — the slots come with the first
// lap.
func TestNewAllocatesNoMoreThanBefore(t *testing.T) {
	type big struct {
		Seq  uint64
		Body [200]byte
	}
	for _, tc := range []struct{ slots, before int }{{4096, 32880}, {1024, 9584}} {
		const n = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if New[big](tc.slots, 0) == nil {
				t.Fatal("nil ring")
			}
		}
		runtime.ReadMemStats(&after)
		if got := int(after.TotalAlloc-before.TotalAlloc) / n; got > tc.before {
			t.Errorf("New(%d) allocates %d B, more than the %d B it took before", tc.slots, got, tc.before)
		}
	}
}

// wait copies what Wait visits.
func wait(r *Ring[rec], clk clock.Clock, after uint64, timeout time.Duration) []rec {
	var out []rec
	r.Wait(clk, after, timeout, func(p *rec) { out = append(out, *p) })
	return out
}

// TestWaitNeverMissesAPut pins the wake protocol: whatever the interleaving
// of a Put with Wait's registration and cursor check, the waiter comes back
// with the record — seen by its own read, or woken by the Put.
func TestWaitNeverMissesAPut(t *testing.T) {
	r := newRing(16)
	for i := uint64(0); i < 2000; i++ {
		got := make(chan []rec, 1)
		go func() { got <- wait(r, clock.Clock{}, i, 5*time.Second) }()
		put(r, 0)
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
	put(r, 0)
	v := clock.NewVirtual(time.Unix(1000, 0))
	got := make(chan []rec, 1)
	go func() { got <- wait(r, v.Clock(), 1, 5*time.Second) }()
	v.BlockUntil(1) // the waiter's timeout is armed: it is registered
	put(r, 7)
	if recs := <-got; len(recs) != 1 || recs[0].Val != 7 {
		t.Fatalf("Wait returned %+v, want the fresh record", recs)
	}
}

func TestWaitTimesOut(t *testing.T) {
	r := newRing(16)
	v := clock.NewVirtual(time.Unix(1000, 0))
	got := make(chan []rec, 1)
	go func() { got <- wait(r, v.Clock(), 0, 20*time.Millisecond) }()
	v.BlockUntil(1)
	v.Advance(19 * time.Millisecond)
	select {
	case <-got:
		t.Fatal("Wait returned before the timeout")
	default:
	}
	v.Advance(time.Millisecond)
	if recs := <-got; recs != nil {
		t.Fatalf("Wait on an empty ring = %+v, want nil", recs)
	}
}

func TestNilRing(t *testing.T) {
	var r *Ring[rec]
	if seq, p, fresh := r.Claim(); seq != 0 || p != nil || fresh {
		t.Error("nil Claim handed out a record")
	}
	r.Publish(nil)
	if r.Since(0, func(*rec) { t.Error("nil Since visited a record") }) != 0 ||
		r.Wait(clock.Clock{}, 0, time.Millisecond, func(*rec) {}) != 0 {
		t.Error("nil reads returned records")
	}
	r.Each(func(*rec) { t.Error("nil Each visited a slot") })
	if r.Cursor() != 0 || r.Cap() != 0 || r.Len() != 0 || r.Overwritten() != 0 || r.MemoryBound() != 0 {
		t.Error("nil accessors returned nonzero")
	}
}

// TestMemoryBound pins the arithmetic on a 4096-slot ring of 88-byte
// records: a table of 64 segment pointers, and once written 64 segments of
// 64 slots, each a record, a lock and a sequence (88 + 8 + 8 bytes).
func TestMemoryBound(t *testing.T) {
	type span struct {
		Seq, TraceID, SpanID, Parent uint64
		Hops                         uint32
		From, To                     string
		StartNs, EndNs               int64
	}
	r := New[span](4096, 0)
	if got, want := r.MemoryBound(), 64*8; got != want {
		t.Fatalf("MemoryBound of an unwritten ring = %d, want %d (the segment table)", got, want)
	}
	const full = 64*8 + 64*64*(8+8+88)
	for i := 0; i < 3*4096; i++ {
		_, p, _ := r.Claim()
		r.Publish(p)
		if i == 4095 && r.MemoryBound() != full {
			t.Fatalf("MemoryBound after one lap = %d, want %d", r.MemoryBound(), full)
		}
	}
	if got := r.MemoryBound(); got != full {
		t.Errorf("MemoryBound moved after the first lap: %d, want %d", got, full)
	}
	// A capacity that is not a whole number of segments rounds up: 100
	// slots take two segments of 64 slots of 32 bytes.
	r100 := newRing(100)
	for i := 0; i < 100; i++ {
		put(r100, i)
	}
	if got, want := r100.MemoryBound(), 2*8+2*64*32; got != want {
		t.Errorf("MemoryBound of a 100-slot ring = %d, want %d", got, want)
	}
}
