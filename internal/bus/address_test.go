package bus

import (
	"errors"
	"testing"
	"unsafe"
)

// Inside the bus a message moves by address: a writer builds it once, each
// queue copies it into a slot, a reader copies it out of the slot once. The
// bus's half of what that rests on is pinned here — the envelope stays
// small, and a route remembered across writes is never older than the
// snapshot the write loads; the queue's half, a taken slot is never written
// again, is the queue package's TestTakenItemStaysValid. scripts/check.sh
// runs both under -race x20.

// TestMessageSize: the envelope is copied into every queue slot, and a
// chunk of 256 slots is sized against the allocator's classes.
func TestMessageSize(t *testing.T) {
	if n := unsafe.Sizeof(Message{}); n > 104 {
		t.Errorf("bus.Message is %d bytes, want <= 104", n)
	}
}

// TestMemoisedRouteDroppedOnTopologyChange: an attachment remembers the
// route it resolved, but only for the routing snapshot it resolved it from.
// The first write after a Rebind that moves the binding, one that deletes
// it and a RemoveGroupMember each goes where the new topology says, not
// where the memo pointed.
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
	out, sinkA, sinkB := Endpoint{Instance: "src", Interface: "out"}, Endpoint{Instance: "a", Interface: "in"}, Endpoint{Instance: "b", Interface: "in"}
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

	if err := b.Rebind([]BindEdit{{Op: "del", From: out, To: sinkB}}); err != nil {
		t.Fatal(err)
	}
	if err := write(true); !errors.Is(err, ErrUnbound) || pending("b") != 1 {
		t.Fatalf("write after Rebind del: %v, b has %d (want 1)", err, pending("b"))
	}

	if err := b.AddGroup("g", PolicyRoundRobin, in); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"g.1", "g.2"} {
		if err := b.AddGroupMember("g", m); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddBinding(out, Endpoint{Instance: "g", Interface: "in"}); err != nil {
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
