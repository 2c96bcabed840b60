package bus

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// Inside the bus a message moves by address: a writer builds it once, each
// queue copies it into a slot, a reader copies it out of the slot once. The
// tests here pin what that rests on — a taken slot is never written again,
// and a route remembered across writes is never older than the snapshot
// the write loads. scripts/check.sh runs them under -race x20.

// TestMessageSize: the envelope is copied into every queue slot, and a
// chunk of 256 slots is sized against the allocator's classes.
func TestMessageSize(t *testing.T) {
	if n := unsafe.Sizeof(Message{}); n > 104 {
		t.Errorf("bus.Message is %d bytes, want <= 104", n)
	}
}

func testMsg(i int) *Message { return &Message{Data: []byte(fmt.Sprintf("m%d", i))} }

func (q *msgQueue) takeLocked() *qitem {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.take()
}

// TestTakenItemStaysValid: the address take hands out — of a segment slot
// or of a restored front item — still holds its message after the queue
// has grown, been snapshotted and drained around it under a racing producer,
// and been restored (twice: the second replaces the front it was taken from).
func TestTakenItemStaysValid(t *testing.T) {
	q := newMsgQueue()
	for i := 0; i < 3; i++ {
		if err := q.pushRouted(testMsg(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	slot := q.takeLocked()
	held := map[*qitem]string{slot: "m0"}
	check := func(after string) {
		t.Helper()
		for it, want := range held {
			if got := string(it.msg.Data); got != want || it.ver == 0 {
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
				if q.length() > 8*chunkCap { // snapshot and drain walk to the tail: let them reach it
					runtime.Gosched()
					continue
				}
				if q.pushRouted(testMsg(i), 2) != nil {
					return
				}
			}
		}
	}()

	for i := 3; i < 3+2*chunkCap; i++ { // two grows past the taken slot's segment
		if err := q.pushRouted(testMsg(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	check("grow")
	if snap := q.snapshot(); len(snap) < 2+2*chunkCap || string(snap[0].Data) != "m1" {
		t.Fatalf("snapshot starts at %q with %d messages, want m1 and >= %d", snap[0].Data, len(snap), 2+2*chunkCap)
	}
	check("snapshot")
	if drained := q.drain(); len(drained) < 2+2*chunkCap || string(drained[0].Data) != "m1" {
		t.Fatalf("drain returned %d messages starting at %q", len(drained), drained[0].Data)
	}
	check("drain")
	close(stop) // restore's callers fence producers out first
	wg.Wait()

	q.restore([]Message{*testMsg(-1), *testMsg(-2)}, 3)
	check("restore")
	front := q.takeLocked()
	held[front] = "m-1"
	q.restore([]Message{*testMsg(-3)}, 4) // replaces the front the item was taken from
	check("restore over a taken front item")

	var m Message
	if err := q.pop(&m); err != nil || string(m.Data) != "m-3" {
		t.Fatalf("restored queue yields %q, %v; want m-3", m.Data, err)
	}
	m = Message{} // the reader's copy is its own
	q.drain()
	check("pop and drain of a restored queue")
}

// TestMemoisedRouteDroppedOnTopologyChange: an attachment remembers the
// route it resolved, but only for the routing snapshot it resolved it from.
// The first write after a Rebind, a DeleteBinding and a RemoveGroupMember
// each goes where the new topology says, not where the memo pointed.
func TestMemoisedRouteDroppedOnTopologyChange(t *testing.T) {
	b := New()
	defer b.Close()
	in := []IfaceSpec{{Name: "in", Dir: In}}
	for _, spec := range []InstanceSpec{
		{Name: "src", Interfaces: []IfaceSpec{{Name: "out", Dir: Out}}},
		{Name: "a", Interfaces: in}, {Name: "b", Interfaces: in},
		{Name: "g.1", Interfaces: in}, {Name: "g.2", Interfaces: in},
	} {
		if err := b.AddInstance(spec); err != nil {
			t.Fatal(err)
		}
	}
	out, sinkA, sinkB := Endpoint{"src", "out"}, Endpoint{"a", "in"}, Endpoint{"b", "in"}
	if err := b.AddBinding(out, sinkA); err != nil {
		t.Fatal(err)
	}
	src := attach(t, b, "src")
	memo := &src.iface("out").memo
	pending := func(inst string) int {
		t.Helper()
		info, err := b.Info(inst)
		if err != nil {
			t.Fatal(err)
		}
		return info.Pending["in"]
	}
	// write sends one message and checks the memo on both sides of it:
	// stale (or empty) before whenever the topology moved, current after.
	write := func(moved bool) error {
		t.Helper()
		if r := memo.Load(); moved && r != nil && r.rt == b.routing.Load() {
			t.Fatal("memo already names the new snapshot before any write")
		}
		err := src.Write("out", []byte("m"))
		if r := memo.Load(); r == nil || r.rt != b.routing.Load() {
			t.Fatalf("after a write the memo names %v, not the current snapshot", r)
		}
		return err
	}

	if err := write(true); err != nil || pending("a") != 1 {
		t.Fatalf("first write: %v, a has %d", err, pending("a"))
	}
	first := memo.Load()
	if err := write(false); err != nil || memo.Load() != first {
		t.Fatalf("second write on an unchanged topology: %v, memo replaced: %t", err, memo.Load() != first)
	}

	if err := b.Rebind([]BindEdit{{Op: "del", From: out, To: sinkA}, {Op: "add", From: out, To: sinkB}}); err != nil {
		t.Fatal(err)
	}
	if err := write(true); err != nil || pending("a") != 2 || pending("b") != 1 {
		t.Fatalf("write after Rebind: %v, a has %d (want 2), b has %d (want 1)", err, pending("a"), pending("b"))
	}

	if err := b.DeleteBinding(out, sinkB); err != nil {
		t.Fatal(err)
	}
	if err := write(true); !errors.Is(err, ErrUnbound) || pending("b") != 1 {
		t.Fatalf("write after DeleteBinding: %v, b has %d (want 1)", err, pending("b"))
	}

	if err := b.AddGroup("g", PolicyRoundRobin, in); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"g.1", "g.2"} {
		if err := b.AddGroupMember("g", m); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddBinding(out, Endpoint{"g", "in"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := write(i == 0); err != nil {
			t.Fatal(err)
		}
	}
	if pending("g.1") != 1 || pending("g.2") != 1 {
		t.Fatalf("round robin over two members left %d and %d", pending("g.1"), pending("g.2"))
	}
	if err := b.RemoveGroupMember("g", "g.1"); err != nil { // its message is requeued at g.2
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := write(i == 0); err != nil {
			t.Fatal(err)
		}
	}
	if pending("g.1") != 0 || pending("g.2") != 4 {
		t.Fatalf("after RemoveGroupMember g.1 has %d (want 0), g.2 has %d (want 4)", pending("g.1"), pending("g.2"))
	}
}
