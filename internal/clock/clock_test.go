package clock

import (
	"testing"
	"time"
)

func TestZeroClockIsReal(t *testing.T) {
	var c Clock
	before := time.Now()
	now := c.Now()
	if now.Before(before) || now.Sub(before) > time.Minute {
		t.Fatalf("zero clock reads %v, system clock %v", now, before)
	}
	a, b := c.Nanos(), c.Nanos()
	if b < a || a-time.Now().UnixNano() > int64(time.Second) {
		t.Fatalf("Nanos %d then %d, system %d", a, b, time.Now().UnixNano())
	}
	tm := c.NewTimer(time.Millisecond)
	<-tm.C
	if tm.Stop() {
		t.Fatal("Stop after the timer fired reported stopping it")
	}
}

func TestVirtualFiresInDeadlineOrder(t *testing.T) {
	start := time.Unix(1000, 0)
	v := NewVirtual(start)
	c := v.Clock()
	late, early, never := c.NewTimer(30*time.Millisecond), c.NewTimer(10*time.Millisecond), c.NewTimer(time.Hour)
	v.BlockUntil(3)
	v.Advance(5 * time.Millisecond)
	select {
	case <-early.C:
		t.Fatal("a timer fired before its deadline")
	default:
	}
	v.Advance(25 * time.Millisecond)
	if got := <-early.C; !got.Equal(start.Add(10 * time.Millisecond)) {
		t.Fatalf("early fired at %v", got)
	}
	if got := <-late.C; !got.Equal(start.Add(30 * time.Millisecond)) {
		t.Fatalf("late fired at %v", got)
	}
	if !c.Now().Equal(start.Add(30*time.Millisecond)) || c.Nanos() != start.Add(30*time.Millisecond).UnixNano() {
		t.Fatalf("clock reads %v after advancing 30ms", c.Now())
	}
	if !never.Stop() || never.Stop() {
		t.Fatal("Stop of a pending timer must report true once")
	}
}

func TestVirtualSleepWaitsForAdvance(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	woke := make(chan time.Time)
	go func() {
		v.Clock().Sleep(time.Second)
		woke <- v.Now()
	}()
	v.BlockUntil(1)
	v.Advance(999 * time.Millisecond)
	select {
	case <-woke:
		t.Fatal("sleeper woke before its second elapsed")
	default:
	}
	v.Advance(time.Millisecond)
	if got := <-woke; !got.Equal(time.Unix(1, 0)) {
		t.Fatalf("sleeper woke at %v", got)
	}
	v.Clock().Sleep(0) // an elapsed wait does not block
}
