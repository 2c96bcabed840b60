package evlog

import (
	"sync"
	"testing"
	"time"
)

func TestAppendAssignsMonotonicSeq(t *testing.T) {
	l := NewLog(64)
	for i := 0; i < 5; i++ {
		seq := l.Append(Record{Source: "test", Kind: "tick"})
		if seq != uint64(i+1) {
			t.Fatalf("append %d returned seq %d", i, seq)
		}
	}
	recs := l.Since(0)
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
	l := NewLog(64)
	for i := 0; i < 10; i++ {
		l.Append(Record{Kind: "e"})
	}
	recs := l.Since(7)
	if len(recs) != 3 || recs[0].Seq != 8 {
		t.Fatalf("Since(7) = %+v, want seqs 8..10", recs)
	}
	if got := l.Since(10); len(got) != 0 {
		t.Errorf("Since(cursor) = %d records, want 0", len(got))
	}
	if l.Cursor() != 10 {
		t.Errorf("Cursor = %d, want 10", l.Cursor())
	}
}

func TestRingOverwrite(t *testing.T) {
	l := NewLog(16)
	for i := 0; i < 40; i++ {
		l.Append(Record{Kind: "e"})
	}
	recs := l.Since(0)
	if len(recs) != 16 {
		t.Fatalf("retained %d records, want ring cap 16", len(recs))
	}
	if recs[0].Seq != 25 || recs[15].Seq != 40 {
		t.Errorf("retained seqs %d..%d, want 25..40", recs[0].Seq, recs[15].Seq)
	}
}

func TestWaitWakesOnAppend(t *testing.T) {
	l := NewLog(16)
	l.Append(Record{Kind: "old"})
	done := make(chan []*Record, 1)
	go func() { done <- l.Wait(1, 5*time.Second) }()
	time.Sleep(10 * time.Millisecond)
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
	l := NewLog(16)
	start := time.Now()
	if recs := l.Wait(0, 20*time.Millisecond); recs != nil {
		t.Fatalf("Wait on empty log = %+v, want nil", recs)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Error("Wait returned before the timeout")
	}
}

func TestWaitReturnsImmediatelyWhenBehind(t *testing.T) {
	l := NewLog(16)
	l.Append(Record{Kind: "e"})
	start := time.Now()
	recs := l.Wait(0, 5*time.Second)
	if len(recs) != 1 {
		t.Fatalf("Wait = %d records, want 1", len(recs))
	}
	if time.Since(start) > time.Second {
		t.Error("Wait blocked although records were already available")
	}
}

func TestConcurrentAppend(t *testing.T) {
	l := NewLog(256)
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
	if l.Cursor() != writers*per {
		t.Fatalf("cursor = %d, want %d", l.Cursor(), writers*per)
	}
	recs := l.Since(writers*per - 256)
	if len(recs) != 256 {
		t.Fatalf("retained %d records, want 256", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			t.Fatalf("gap in retained seqs: %d -> %d", recs[i-1].Seq, recs[i].Seq)
		}
	}
}

func TestNilLog(t *testing.T) {
	var l *Log
	if seq := l.Append(Record{}); seq != 0 {
		t.Error("nil Append returned nonzero seq")
	}
	if l.Since(0) != nil || l.Wait(0, time.Millisecond) != nil {
		t.Error("nil reads returned records")
	}
	if l.Cursor() != 0 || l.Overwritten() != 0 {
		t.Error("nil accessors returned nonzero")
	}
}
