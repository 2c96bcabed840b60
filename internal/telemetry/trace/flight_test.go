package trace_test

// The flight recorder is the delivery log's span view (internal/replay):
// these tests drive it with this package's contexts, one delivery at a time
// through a queue handle, as the bus's consumer hook does.

import (
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/replay"
	"repro/internal/telemetry/trace"
)

// deliver writes one consumed delivery of ctx from -> to, as the bus does.
func deliver(w replay.Writer, ctx trace.Context, from, to string) int64 {
	return w.Queue(to).Append(from, nil, ctx, 1, clock.Clock{})
}

// root is the sampled root context of trace id: what the bus mints for a
// first send at sampling rate 1.
func root(id uint64) trace.Context {
	return trace.Context{TraceID: id, SpanID: id, Flags: trace.FlagSampled}
}

func TestRecorderRingOverwrite(t *testing.T) {
	l, w := replay.NewLog(16, true)
	for i := uint64(1); i <= 40; i++ {
		deliver(w, root(i), "x.out", "y.in")
	}
	r := l.Spans()
	if n := len(r.Snapshot()); n != 16 || r.Recorded() != 40 || r.Overwritten() != 24 {
		t.Fatalf("retained=%d recorded=%d overwritten=%d, want 16/40/24", n, r.Recorded(), r.Overwritten())
	}
	// Oldest retained is record 25, newest 40, in order.
	for i, s := range r.Snapshot() {
		if want := uint64(25 + i); s.Seq != want {
			t.Fatalf("snapshot[%d].Seq = %d, want %d", i, s.Seq, want)
		}
	}
}

func TestRecorderByTrace(t *testing.T) {
	l, w := replay.NewLog(64, true)
	a, b := root(1), root(2)
	child := trace.Context{TraceID: a.TraceID, SpanID: 3, Parent: a.SpanID, Hops: 1, Flags: a.Flags}
	deliver(w, a, "x.out", "y.in")
	deliver(w, child, "y.out", "z.in")
	deliver(w, b, "x.out", "y.in")
	got := l.Spans().ByTrace(a.TraceID)
	if len(got) != 2 {
		t.Fatalf("trace %d has %d spans, want 2", a.TraceID, len(got))
	}
	if got[0].To != "y.in" || got[1].From != "y.out" || got[1].Trace.Hops != 1 {
		t.Errorf("spans out of causal order: %+v", got)
	}
	for _, s := range got {
		if s.EndNs < s.Trace.SentNs {
			t.Errorf("span %d ends %d ns before it starts", s.Seq, s.Trace.SentNs-s.EndNs)
		}
	}

	// An unsampled delivery is no span, and a log built without spans
	// writes none and has no span view.
	if end := deliver(w, trace.Context{TraceID: 4, SpanID: 4}, "x.out", "y.in"); end != 0 || l.Appended() != 3 {
		t.Errorf("unsampled delivery: end %d, %d records", end, l.Appended())
	}
	off, offW := replay.NewLog(64, false)
	if end := deliver(offW, a, "x.out", "y.in"); end != 0 || off.Appended() != 0 || off.Spans() != nil {
		t.Errorf("log without spans: end %d, %d records, span view %v", end, off.Appended(), off.Spans())
	}
}

func TestRecorderConcurrent(t *testing.T) {
	l, w := replay.NewLog(128, true)
	var wg sync.WaitGroup
	for g := uint64(0); g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := w.Queue("y.in")
			for i := uint64(1); i <= 500; i++ {
				q.Append("x.out", nil, root(g*500+i), 1, clock.Clock{})
			}
		}()
	}
	wg.Wait()
	if r := l.Spans(); r.Recorded() != 4000 {
		t.Fatalf("recorded %d, want 4000", r.Recorded())
	}
	if got := len(l.Spans().Snapshot()); got != 128 {
		t.Fatalf("snapshot has %d spans, want full ring 128", got)
	}
}

// TestMemoryBoundFixed: spans carry no payload, so a log that only traces
// reaches its bound in the first lap — the ring's segments, allocated as
// the first records land in them — and keeps it over every lap after.
func TestMemoryBoundFixed(t *testing.T) {
	l, w := replay.NewLog(1024, true)
	built := l.MemoryBound()
	if built <= 0 {
		t.Fatal("no memory bound")
	}
	for i := 1; i <= l.Cap(); i++ {
		deliver(w, root(uint64(i)), "x.out", "y.in")
	}
	bound := l.MemoryBound()
	if bound <= built {
		t.Fatalf("memory bound after a lap = %d, not above the %d of the unwritten log", bound, built)
	}
	for i := 1; i <= 10_000; i++ {
		deliver(w, root(uint64(l.Cap()+i)), "x.out", "y.in")
	}
	if l.MemoryBound() != bound {
		t.Errorf("memory bound moved under load after the first lap: %d -> %d", bound, l.MemoryBound())
	}
}
