package trace

import "testing"

func TestMintAndChild(t *testing.T) {
	tr := NewTracer(1)
	root := tr.MintTrace()
	if !root.Valid() || !root.Sampled() {
		t.Fatalf("root = %+v, want valid and sampled at rate 1", root)
	}
	if root.Hops != 0 || root.Parent != 0 {
		t.Errorf("root hops/parent = %d/%d, want 0/0", root.Hops, root.Parent)
	}
	if root.SentNs != 0 {
		t.Error("the tracer stamped SentNs; the bus stamps it off its clock")
	}
	child := tr.ChildSpan(root)
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
	tr := NewTracer(0)
	root := tr.StampBatch(Context{}, 1)
	if !root.Valid() {
		t.Fatal("stamp of zero context did not mint")
	}
	if root.Sampled() {
		t.Error("sampleEvery=0 must never sample")
	}
	child := tr.StampBatch(root, 1)
	if child.TraceID != root.TraceID || child.Parent != root.SpanID {
		t.Errorf("stamp of valid context did not extend: %+v from %+v", child, root)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if c := tr.StampBatch(Context{}, 1); c.Valid() {
		t.Errorf("nil tracer minted %+v", c)
	}
	if c := tr.ChildSpan(Context{TraceID: 1, Flags: FlagSampled}); c.Valid() {
		t.Errorf("nil tracer extended a chain: %+v", c)
	}
}

func TestSamplingRate(t *testing.T) {
	tr := NewTracer(4)
	sampled := 0
	for i := 0; i < 100; i++ {
		if tr.MintTrace().Sampled() {
			sampled++
		}
	}
	if sampled != 25 {
		t.Errorf("sampled %d of 100 at rate 4, want 25", sampled)
	}
}
