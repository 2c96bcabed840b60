package queue

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/telemetry"
)

// Inside the bus a message moves by address: a writer builds it once, each
// queue copies it into a slot, a reader copies it out of the slot once.
// TestTakenItemStaysValid pins what that rests on — a taken slot is never
// written again. scripts/check.sh runs it under -race x200.

func testMsg(i int) *Message { return &Message{Data: []byte(fmt.Sprintf("m%d", i))} }

func (q *Queue) takeLocked() *Item {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.take()
}

// TestTakenItemStaysValid: the address take hands out — of a segment slot
// or of a restored front item — still holds its message after the queue
// has grown, been snapshotted and drained around it under a racing producer,
// and been restored (twice: the second replaces the front it was taken from).
func TestTakenItemStaysValid(t *testing.T) {
	q, f := New(nil, clock.Clock{}, new(telemetry.Histogram), new(telemetry.Counter))
	for i := 0; i < 3; i++ {
		if _, err := q.PushRouted(testMsg(i), nil, 1); err != nil {
			t.Fatal(err)
		}
	}
	slot := q.takeLocked()
	held := map[*Item]string{slot: "m0"}
	check := func(after string) {
		t.Helper()
		for it, want := range held {
			if got := string(it.Msg.Data); got != want || it.ver == 0 {
				t.Fatalf("after %s: taken item holds %q (ver %d), want %q", after, got, it.ver, want)
			}
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // a producer racing the grow, the snapshot and the drain
		defer wg.Done()
		for i := 1000; ; i++ {
			select {
			case <-stop:
				return
			default:
				if q.Len() > 8*chunkCap { // snapshot and drain walk to the tail: let them reach it
					runtime.Gosched()
					continue
				}
				if _, err := q.PushRouted(testMsg(i), nil, 2); err != nil {
					return
				}
			}
		}
	}()

	for i := 3; i < 3+2*chunkCap; i++ { // two grows past the taken slot's segment
		if _, err := q.PushRouted(testMsg(i), nil, 1); err != nil {
			t.Fatal(err)
		}
	}
	check("grow")
	if snap := q.Snapshot(); len(snap) < 2+2*chunkCap || string(snap[0].Data) != "m1" {
		t.Fatalf("snapshot starts at %q with %d messages, want m1 and >= %d", snap[0].Data, len(snap), 2+2*chunkCap)
	}
	check("snapshot")
	if drained := f.Drain(); len(drained) < 2+2*chunkCap || string(drained[0].Msg.Data) != "m1" {
		t.Fatalf("drain returned %d messages starting at %q", len(drained), drained[0].Msg.Data)
	}
	check("drain")
	close(stop) // restore's callers fence producers out first
	wg.Wait()

	f.Restore([]Item{{Msg: *testMsg(-1)}, {Msg: *testMsg(-2)}}, 3)
	check("restore")
	front := q.takeLocked()
	held[front] = "m-1"
	f.Restore([]Item{{Msg: *testMsg(-3)}}, 4) // replaces the front the item was taken from
	check("restore over a taken front item")

	var m Message
	if err := q.Pop(&m, nil); err != nil || string(m.Data) != "m-3" {
		t.Fatalf("restored queue yields %q, %v; want m-3", m.Data, err)
	}
	m = Message{} // the reader's copy is its own
	f.Drain()
	check("pop and drain of a restored queue")
}

// TestQueueRunsNoCallerCode pins the premise that lets the bus take queue
// locks without a lock-order checker: nothing a caller hands the queue is
// code. No exported method of *Queue takes or returns a func or interface
// value, and no field of Queue holds one, so every instruction that runs
// under a queue lock is this package's own. The one exempt result is
// error, through which the queue hands out its own sentinels.
func TestQueueRunsNoCallerCode(t *testing.T) {
	errType := reflect.TypeOf((*error)(nil)).Elem()
	code := func(ty reflect.Type) bool {
		return ty.Kind() == reflect.Func || ty.Kind() == reflect.Interface
	}
	qt := reflect.TypeOf(&Queue{})
	for i := 0; i < qt.NumMethod(); i++ {
		m := qt.Method(i)
		for j := 1; j < m.Type.NumIn(); j++ { // 0 is the receiver
			if in := m.Type.In(j); code(in) {
				t.Errorf("(*Queue).%s takes %s: a caller's code would run inside the queue", m.Name, in)
			}
		}
		for j := 0; j < m.Type.NumOut(); j++ {
			if out := m.Type.Out(j); out != errType && code(out) {
				t.Errorf("(*Queue).%s returns %s", m.Name, out)
			}
		}
	}
	st := qt.Elem()
	for i := 0; i < st.NumField(); i++ {
		if f := st.Field(i); code(f.Type) {
			t.Errorf("Queue.%s holds %s: a caller's code would run inside the queue", f.Name, f.Type)
		}
	}
}

// TestTwoReadersNoLostWakeup: with two readers parked on one queue, one
// leaving Pop (with a message, or through its stop channel) must not hide
// the other from the producers. Reader A pops once or is stopped, reader B
// loops; m1 and m2 are pushed, A is stopped, and once B has taken what A
// did not and parked again, m3 must wake it. A single "someone sleeps" flag
// lost that wakeup whenever A cleared it after B had set it.
// scripts/check.sh runs it under -race x50.
func TestTwoReadersNoLostWakeup(t *testing.T) {
	// eventually spins, yielding, until cond holds or a bound that only a
	// stuck reader exhausts.
	eventually := func(cond func() bool) bool {
		for i := 0; i < 1<<20; i++ {
			if cond() {
				return true
			}
			runtime.Gosched()
		}
		return cond()
	}
	for iter := 0; iter < 500; iter++ {
		q, _ := New(nil, clock.Clock{}, new(telemetry.Histogram), new(telemetry.Counter))
		stopA := make(chan struct{})
		tookA := make(chan bool, 1)
		got := make(chan string, 3)
		go func() {
			var m Message
			tookA <- q.Pop(&m, stopA) == nil
		}()
		go func() {
			var m Message
			for q.Pop(&m, nil) == nil {
				got <- string(m.Data)
			}
		}()
		eventually(q.Parked)
		for i := 1; i <= 2; i++ {
			if _, err := q.PushRouted(testMsg(i), nil, 1); err != nil {
				t.Fatal(err)
			}
		}
		close(stopA)
		q.Wake()
		want := 2
		if <-tookA {
			want = 1
		}
		if !eventually(func() bool { return len(got) == want && q.Len() == 0 }) {
			t.Fatalf("iteration %d: reader B took %d of %d messages", iter, len(got), want)
		}
		if !eventually(q.Parked) {
			t.Fatalf("iteration %d: reader B waits in Pop but Parked reports false", iter)
		}
		if _, err := q.PushRouted(testMsg(3), nil, 1); err != nil {
			t.Fatal(err)
		}
		if !eventually(func() bool { return len(got) == want+1 }) {
			t.Fatalf("iteration %d: m3 queued (Len %d) but the parked reader was never woken", iter, q.Len())
		}
		q.Close()
	}
}
