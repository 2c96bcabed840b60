package mh

// Write-batching window tests: with WithWriteBatch(n) the runtime buffers
// consecutive same-interface writes and emits them through one
// SendBatch/WriteBatchTraced call. The window must flush on every control
// handoff (a full window, an interface change, Read/QueryIfMsgs/Sleep, a
// reconfiguration point) so that observers — and above all the
// reconfiguration protocol — never see the module's output lag its state.

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/codec"
	"repro/internal/state"
)

// newDualBus wires one producer with two Out interfaces to two sinks, so a
// test can observe both the full-window flush and the interface-change
// flush.
func newDualBus(t *testing.T) *bus.Bus {
	t.Helper()
	b := bus.New()
	for _, spec := range []bus.InstanceSpec{
		{Name: "dual", Module: "dual", Interfaces: []bus.IfaceSpec{
			{Name: "a", Dir: bus.Out}, {Name: "b", Dir: bus.Out},
			{Name: "ctl", Dir: bus.In}}},
		{Name: "sa", Module: "sink", Interfaces: []bus.IfaceSpec{{Name: "in", Dir: bus.In}}},
		{Name: "sb", Module: "sink", Interfaces: []bus.IfaceSpec{{Name: "in", Dir: bus.In}}},
		{Name: "drv", Module: "driver", Interfaces: []bus.IfaceSpec{{Name: "out", Dir: bus.Out}}},
	} {
		if err := b.AddInstance(spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, bind := range [][2]bus.Endpoint{
		{{Instance: "dual", Interface: "a"}, {Instance: "sa", Interface: "in"}},
		{{Instance: "dual", Interface: "b"}, {Instance: "sb", Interface: "in"}},
		{{Instance: "drv", Interface: "out"}, {Instance: "dual", Interface: "ctl"}},
	} {
		if err := b.AddBinding(bind[0], bind[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func pending(t *testing.T, a *bus.Attachment, iface string) int {
	t.Helper()
	n, err := a.Pending(iface)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func drainInts(t *testing.T, a *bus.Attachment, iface string) []int64 {
	t.Helper()
	c := codec.Default()
	var out []int64
	for {
		m, ok, err := a.TryRead(iface)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		v, err := c.DecodeValue(m.Data)
		if err != nil {
			t.Fatal(err)
		}
		if v.Kind != state.KindInt {
			t.Fatalf("decoded %v, want int", v)
		}
		out = append(out, v.Int)
	}
}

func TestWriteBatchWindow(t *testing.T) {
	b := newDualBus(t)
	rt := attachRT(t, b, "dual", WithWriteBatch(3))
	rt.Init()
	sa, err := b.Attach("sa")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Attach("sb")
	if err != nil {
		t.Fatal(err)
	}

	// Below the window: nothing on the bus yet.
	rt.Write("a", 1)
	rt.Write("a", 2)
	if n := pending(t, sa, "in"); n != 0 {
		t.Fatalf("window leaked early: %d messages on the bus", n)
	}

	// Third write fills the window: all three land, in write order.
	rt.Write("a", 3)
	if got := drainInts(t, sa, "in"); len(got) != 3 ||
		got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("full-window flush delivered %v, want [1 2 3]", got)
	}

	// Interface change flushes the partial window for the old interface.
	rt.Write("a", 4)
	rt.Write("b", 10)
	if got := drainInts(t, sa, "in"); len(got) != 1 || got[0] != 4 {
		t.Fatalf("iface-change flush delivered %v to sa, want [4]", got)
	}
	if n := pending(t, sb, "in"); n != 0 {
		t.Fatalf("new interface's window leaked early: %d messages", n)
	}

	// QueryIfMsgs is a control handoff: it flushes the pending window.
	rt.QueryIfMsgs("ctl")
	if got := drainInts(t, sb, "in"); len(got) != 1 || got[0] != 10 {
		t.Fatalf("QueryIfMsgs flush delivered %v to sb, want [10]", got)
	}

	// Explicit Flush on a part-filled window; empty flush is a no-op.
	rt.Write("b", 11)
	rt.Flush()
	rt.Flush()
	if got := drainInts(t, sb, "in"); len(got) != 1 || got[0] != 11 {
		t.Fatalf("explicit flush delivered %v, want [11]", got)
	}
	if err := rt.Err(); err != nil {
		t.Fatalf("runtime error: %v", err)
	}
}

// TestWriteBatchOrderAcrossWindows pins cross-window FIFO: a long run of
// batched writes arrives at the sink in exactly write order, with nothing
// held back once the producer reaches a handoff.
func TestWriteBatchOrderAcrossWindows(t *testing.T) {
	b := newDualBus(t)
	rt := attachRT(t, b, "dual", WithWriteBatch(4))
	rt.Init()
	sa, err := b.Attach("sa")
	if err != nil {
		t.Fatal(err)
	}
	const total = 42 // not a multiple of the window: leaves a partial tail
	for i := 0; i < total; i++ {
		rt.Write("a", i)
	}
	rt.Sleep(0) // control handoff drains the tail
	got := drainInts(t, sa, "in")
	if len(got) != total {
		t.Fatalf("delivered %d messages, want %d", len(got), total)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("message %d = %d; batching reordered the stream", i, v)
		}
	}
}

// TestWriteBatchWindowAbstractEntryPoints drives the window through the
// entry points the interpreter uses. They are the same path as Read and
// Write, so the window holds for interpreted modules too: WriteAbstract
// joins it, a full window flushes, and ReadAbstract — a control handoff
// like Read — flushes a partial one before it blocks for input.
func writeAbstract(rt *Runtime, iface string, n int64) {
	v := state.IntValue(n)
	rt.WriteAbstract(iface, &v)
}

func TestWriteBatchWindowAbstractEntryPoints(t *testing.T) {
	b := newDualBus(t)
	rt := attachRT(t, b, "dual", WithWriteBatch(3))
	rt.Init()
	sa, err := b.Attach("sa")
	if err != nil {
		t.Fatal(err)
	}

	writeAbstract(rt, "a", 1)
	writeAbstract(rt, "a", 2)
	if n := pending(t, sa, "in"); n != 0 {
		t.Fatalf("window leaked early: %d messages on the bus", n)
	}
	writeAbstract(rt, "a", 3)
	if got := drainInts(t, sa, "in"); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("full-window flush delivered %v, want [1 2 3]", got)
	}

	writeAbstract(rt, "a", 4)
	writeOn(t, b, "drv", "out", 7)
	if v := rt.ReadAbstract("ctl"); v == nil || v.Int != 7 {
		t.Fatalf("ReadAbstract = %v; want 7", v)
	}
	if got := drainInts(t, sa, "in"); len(got) != 1 || got[0] != 4 {
		t.Fatalf("ReadAbstract flush delivered %v, want [4]", got)
	}
	if err := rt.Err(); err != nil {
		t.Fatalf("runtime error: %v", err)
	}
}
