package trace

import (
	"sync"
	"testing"
)

func TestMintAndChild(t *testing.T) {
	tr := NewTracer(1, NewRecorder(64))
	root := tr.MintTrace()
	if !root.Valid() || !root.Sampled() {
		t.Fatalf("root = %+v, want valid and sampled at rate 1", root)
	}
	if root.Hops != 0 || root.Parent != 0 {
		t.Errorf("root hops/parent = %d/%d, want 0/0", root.Hops, root.Parent)
	}
	if root.SentNs == 0 {
		t.Error("root SentNs not stamped")
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
	tr := NewTracer(0, nil)
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
	if end := tr.RecordDelivery(Context{TraceID: 1, Flags: FlagSampled}, "a", "b"); end != 0 {
		t.Errorf("nil tracer recorded a delivery ending at %d", end)
	}
	if tr.Recorder() != nil {
		t.Error("nil tracer has a recorder")
	}
}

func TestSamplingRate(t *testing.T) {
	tr := NewTracer(4, NewRecorder(64))
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

func TestRecorderRingOverwrite(t *testing.T) {
	r := NewRecorder(16)
	for i := 1; i <= 40; i++ {
		r.Record(SpanRecord{TraceID: uint64(i)})
	}
	if r.Len() != 16 || r.Recorded() != 40 {
		t.Fatalf("len=%d recorded=%d, want 16/40", r.Len(), r.Recorded())
	}
	snap := r.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("snapshot has %d spans, want 16", len(snap))
	}
	// Oldest retained is record 25, newest 40, in order.
	for i, s := range snap {
		if want := uint64(25 + i); s.Seq != want {
			t.Fatalf("snapshot[%d].Seq = %d, want %d", i, s.Seq, want)
		}
	}
}

func TestRecorderByTrace(t *testing.T) {
	tr := NewTracer(1, NewRecorder(64))
	a := tr.MintTrace()
	b := tr.MintTrace()
	tr.RecordDelivery(a, "x.out", "y.in")
	tr.RecordDelivery(tr.ChildSpan(a), "y.out", "z.in")
	tr.RecordDelivery(b, "x.out", "y.in")
	got := tr.Recorder().ByTrace(a.TraceID)
	if len(got) != 2 {
		t.Fatalf("trace %d has %d spans, want 2", a.TraceID, len(got))
	}
	if got[0].To != "y.in" || got[1].From != "y.out" || got[1].Hops != 1 {
		t.Errorf("spans out of causal order: %+v", got)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(SpanRecord{TraceID: 1})
			}
		}()
	}
	wg.Wait()
	if r.Recorded() != 4000 {
		t.Fatalf("recorded %d, want 4000", r.Recorded())
	}
	if got := len(r.Snapshot()); got != 128 {
		t.Fatalf("snapshot has %d spans, want full ring 128", got)
	}
}

func TestMemoryBoundFixed(t *testing.T) {
	r := NewRecorder(1024)
	bound := r.MemoryBound()
	if bound <= 0 {
		t.Fatal("no memory bound")
	}
	for i := 0; i < 10_000; i++ {
		r.Record(SpanRecord{TraceID: uint64(i)})
	}
	if r.MemoryBound() != bound {
		t.Errorf("memory bound moved under load: %d -> %d", bound, r.MemoryBound())
	}
}
