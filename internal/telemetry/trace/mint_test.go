package trace_test

// The bus mints and extends this package's contexts with a stamper no other
// package can reach, so these tests drive it the way a module does: a write
// on one end of a binding, a read on the other.

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/telemetry/trace"
)

// pipe builds a bus with one binding, src.out -> dst.in, and returns its
// two ends.
func pipe(t *testing.T, opts ...bus.BusOption) (src, dst *bus.Attachment) {
	t.Helper()
	b := bus.New(opts...)
	for _, s := range []bus.InstanceSpec{
		{Name: "src", Module: "src", Machine: "m1", Interfaces: []bus.IfaceSpec{{Name: "out", Dir: bus.Out}}},
		{Name: "dst", Module: "dst", Machine: "m1", Interfaces: []bus.IfaceSpec{{Name: "in", Dir: bus.In}}},
	} {
		if err := b.AddInstance(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddBinding(bus.Endpoint{Instance: "src", Interface: "out"}, bus.Endpoint{Instance: "dst", Interface: "in"}); err != nil {
		t.Fatal(err)
	}
	var err error
	if src, err = b.Attach("src"); err != nil {
		t.Fatal(err)
	}
	if dst, err = b.Attach("dst"); err != nil {
		t.Fatal(err)
	}
	return src, dst
}

// send writes one message under parent and returns the context it arrived
// with.
func send(t *testing.T, src, dst *bus.Attachment, parent trace.Context) trace.Context {
	t.Helper()
	if err := src.WriteTraced("out", []byte("x"), parent); err != nil {
		t.Fatal(err)
	}
	m, err := dst.Read("in")
	if err != nil {
		t.Fatal(err)
	}
	return m.Trace
}

func TestMintAndChild(t *testing.T) {
	src, dst := pipe(t, bus.WithRecorder(0, 1))
	root := send(t, src, dst, trace.Context{})
	if !root.Valid() || !root.Sampled() {
		t.Fatalf("root = %+v, want valid and sampled at rate 1", root)
	}
	if root.Hops != 0 || root.Parent != 0 {
		t.Errorf("root hops/parent = %d/%d, want 0/0", root.Hops, root.Parent)
	}
	if root.SentNs == 0 {
		t.Error("a sampled send carries no send time; the bus stamps it off its clock")
	}
	child := send(t, src, dst, root)
	if child.TraceID != root.TraceID {
		t.Errorf("child trace %d, want inherited %d", child.TraceID, root.TraceID)
	}
	if child.Parent != root.SpanID || child.Hops != 1 {
		t.Errorf("child parent/hops = %d/%d, want %d/1", child.Parent, child.Hops, root.SpanID)
	}
	if !child.Sampled() {
		t.Error("sampling decision did not propagate to the child")
	}
	if child.SpanID == root.SpanID {
		t.Error("child did not get a fresh span ID")
	}
}

func TestStampMintsOrExtends(t *testing.T) {
	src, dst := pipe(t)
	root := send(t, src, dst, trace.Context{})
	if !root.Valid() {
		t.Fatal("stamp of zero context did not mint")
	}
	if root.Sampled() || root.SentNs != 0 {
		t.Errorf("root = %+v; a bus without a sampling rate must never sample or read its clock", root)
	}
	child := send(t, src, dst, root)
	if child.TraceID != root.TraceID || child.Parent != root.SpanID {
		t.Errorf("stamp of valid context did not extend: %+v from %+v", child, root)
	}
	if next := send(t, src, dst, trace.Context{}); next.TraceID == root.TraceID {
		t.Error("stamp of zero context continued an old chain instead of minting")
	}
}
