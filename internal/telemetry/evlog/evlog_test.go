package evlog

import (
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestAppendAssignsMonotonicSeq(t *testing.T) {
	l := NewLog(64, clock.Clock{})
	for i := 0; i < 5; i++ {
		seq := l.Append(Record{Source: "test", Kind: "tick"})
		if seq != uint64(i+1) {
			t.Fatalf("append %d returned seq %d", i, seq)
		}
	}
	recs := l.View().Since(0)
	if len(recs) != 5 {
		t.Fatalf("Since(0) = %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d seq = %d", i, r.Seq)
		}
		if r.TimeNs == 0 {
			t.Errorf("record %d missing timestamp", i)
		}
	}
}

func TestSinceCursor(t *testing.T) {
	l := NewLog(64, clock.Clock{})
	for i := 0; i < 10; i++ {
		l.Append(Record{Kind: "e"})
	}
	recs := l.View().Since(7)
	if len(recs) != 3 || recs[0].Seq != 8 {
		t.Fatalf("Since(7) = %+v, want seqs 8..10", recs)
	}
	if got := l.View().Since(10); len(got) != 0 {
		t.Errorf("Since(cursor) = %d records, want 0", len(got))
	}
	if l.View().Cursor() != 10 {
		t.Errorf("Cursor = %d, want 10", l.View().Cursor())
	}
}

func TestRingOverwrite(t *testing.T) {
	l := NewLog(16, clock.Clock{})
	for i := 0; i < 40; i++ {
		l.Append(Record{Kind: "e"})
	}
	recs := l.View().Since(0)
	if len(recs) != 16 {
		t.Fatalf("retained %d records, want ring cap 16", len(recs))
	}
	if recs[0].Seq != 25 || recs[15].Seq != 40 {
		t.Errorf("retained seqs %d..%d, want 25..40", recs[0].Seq, recs[15].Seq)
	}
}

func TestWaitWakesOnAppend(t *testing.T) {
	v := clock.NewVirtual(time.Unix(1000, 0))
	l := NewLog(16, v.Clock())
	l.Append(Record{Kind: "old"})
	done := make(chan []Record, 1)
	go func() { done <- l.View().Wait(1, 5*time.Second) }()
	v.BlockUntil(1) // the waiter's timeout is armed: it is registered
	l.Append(Record{Kind: "fresh"})
	select {
	case recs := <-done:
		if len(recs) != 1 || recs[0].Kind != "fresh" {
			t.Fatalf("Wait returned %+v, want the fresh record", recs)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not wake on append")
	}
}

func TestWaitTimesOut(t *testing.T) {
	v := clock.NewVirtual(time.Unix(1000, 0))
	l := NewLog(16, v.Clock())
	done := make(chan []Record, 1)
	go func() { done <- l.View().Wait(0, 20*time.Millisecond) }()
	v.BlockUntil(1)
	v.Advance(19 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("Wait returned before the timeout")
	default:
	}
	v.Advance(time.Millisecond)
	if recs := <-done; recs != nil {
		t.Fatalf("Wait on empty log = %+v, want nil", recs)
	}
}

func TestWaitReturnsImmediatelyWhenBehind(t *testing.T) {
	l := NewLog(16, clock.Clock{})
	l.Append(Record{Kind: "e"})
	start := time.Now()
	recs := l.View().Wait(0, 5*time.Second)
	if len(recs) != 1 {
		t.Fatalf("Wait = %d records, want 1", len(recs))
	}
	if time.Since(start) > time.Second {
		t.Error("Wait blocked although records were already available")
	}
}

func TestConcurrentAppend(t *testing.T) {
	l := NewLog(256, clock.Clock{})
	var wg sync.WaitGroup
	const writers, per = 8, 100
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Append(Record{Kind: "e"})
			}
		}()
	}
	wg.Wait()
	if l.View().Cursor() != writers*per {
		t.Fatalf("cursor = %d, want %d", l.View().Cursor(), writers*per)
	}
	recs := l.View().Since(writers*per - 256)
	if len(recs) != 256 {
		t.Fatalf("retained %d records, want 256", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			t.Fatalf("gap in retained seqs: %d -> %d", recs[i-1].Seq, recs[i].Seq)
		}
	}
}
