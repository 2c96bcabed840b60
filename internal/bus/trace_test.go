package bus

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/bus/internal/routing"
	"repro/internal/telemetry/trace"
)

// TestTraceStampAndChildPropagation pins the core tracing contract: the bus
// mints a root context on a plain write, extends it across a receive→send
// handoff via WriteTraced, and a fresh plain write opens a new chain.
func TestTraceStampAndChildPropagation(t *testing.T) {
	b := testBus(t)
	sens := attach(t, b, "sensor")
	comp := attach(t, b, "compute")
	disp := attach(t, b, "display")

	if err := sens.Write("out", []byte("r1")); err != nil {
		t.Fatal(err)
	}
	m, err := comp.Read("sensor")
	if err != nil {
		t.Fatal(err)
	}
	if !m.Trace.Valid() {
		t.Fatal("plain write was not stamped with a trace context")
	}
	if m.Trace.Hops != 0 || m.Trace.Parent != 0 {
		t.Errorf("root context = %+v, want hops 0 and no parent", m.Trace)
	}
	if m.Trace.SentNs != 0 {
		t.Error("unsampled context carries a send timestamp — the hot path should skip the clock read")
	}
	if m.Trace.Sampled() {
		t.Error("a bus built without a sampling rate must not sample")
	}

	if err := comp.WriteTraced("display", []byte("fwd"), m.Trace); err != nil {
		t.Fatal(err)
	}
	m2, err := disp.Read("temper")
	if err != nil {
		t.Fatal(err)
	}
	if m2.Trace.TraceID != m.Trace.TraceID {
		t.Errorf("handoff changed the trace: %d -> %d", m.Trace.TraceID, m2.Trace.TraceID)
	}
	if m2.Trace.Parent != m.Trace.SpanID {
		t.Errorf("child parent = %d, want causing span %d", m2.Trace.Parent, m.Trace.SpanID)
	}
	if m2.Trace.Hops != 1 {
		t.Errorf("child hops = %d, want 1", m2.Trace.Hops)
	}
	if m2.Trace.SpanID == m.Trace.SpanID {
		t.Error("child reused the parent's span ID")
	}

	if err := comp.Write("display", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	m3, err := disp.Read("temper")
	if err != nil {
		t.Fatal(err)
	}
	if m3.Trace.TraceID == m.Trace.TraceID {
		t.Error("plain write continued an old trace instead of minting a root")
	}
}

// TestStampMintsOrExtends: a stamp with no parent opens a chain — a fresh
// trace id, a root span, no hops, sampled by the rate alone, no send time
// (the bus reads its clock for that) — and a stamp with a valid parent is a
// child span of it, inheriting the trace id and the sampling decision.
func TestStampMintsOrExtends(t *testing.T) {
	s := stamper{sampleEvery: 1}
	root := s.batch(TraceContext{}, 1)
	if !root.Valid() || !root.Sampled() || root.Hops != 0 || root.Parent != 0 || root.SentNs != 0 {
		t.Fatalf("root = %+v, want a valid, sampled root span with no send time", root)
	}
	child := s.batch(root, 1)
	if child.TraceID != root.TraceID || child.Parent != root.SpanID || child.Hops != 1 || !child.Sampled() {
		t.Errorf("child %+v does not extend root %+v", child, root)
	}
	if child.SpanID <= root.SpanID {
		t.Errorf("child span %d not minted after root span %d", child.SpanID, root.SpanID)
	}
	if unsampled := (&stamper{}).batch(TraceContext{}, 1); !unsampled.Valid() || unsampled.Sampled() {
		t.Errorf("rate 0 stamped %+v, want a valid, unsampled root", unsampled)
	}
}

// TestStampSamplingRate: at rate 4 every fourth chain is sampled.
func TestStampSamplingRate(t *testing.T) {
	s := stamper{sampleEvery: 4}
	sampled := 0
	for i := 0; i < 100; i++ {
		if s.batch(TraceContext{}, 1).Sampled() {
			sampled++
		}
	}
	if sampled != 25 {
		t.Errorf("sampled %d of 100 at rate 4, want 25", sampled)
	}
}

// TestStampBatch: a batch's messages are sibling spans, one reservation of
// consecutive span ids. Under a valid parent each is a child of it; without
// one the batch is one chain, one trace id and one sampling decision.
func TestStampBatch(t *testing.T) {
	b := testBus(t, WithRecorder(0, 2))
	sens := attach(t, b, "sensor")
	comp := attach(t, b, "compute")
	read := func(n int) []TraceContext {
		t.Helper()
		out := make([]TraceContext, n)
		for i := range out {
			m, err := comp.Read("sensor")
			if err != nil {
				t.Fatal(err)
			}
			out[i] = m.Trace
		}
		return out
	}
	batch := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	if err := sens.Write("out", []byte("first")); err != nil { // trace 1: unsampled at rate 2
		t.Fatal(err)
	}
	first := read(1)[0]
	if err := sens.SendBatch("out", batch); err != nil { // trace 2: sampled
		t.Fatal(err)
	}
	roots := read(3)
	parent := TraceContext{TraceID: 99, SpanID: 7, Hops: 2}
	if err := sens.WriteBatchTraced("out", batch, parent); err != nil {
		t.Fatal(err)
	}
	children := read(3)
	for i := range batch {
		r, c := roots[i], children[i]
		if r.TraceID != first.TraceID+1 || !r.Sampled() || r.Parent != 0 || r.Hops != 0 || r.SpanID != roots[0].SpanID+uint64(i) {
			t.Errorf("root batch message %d = %+v, want trace %d, sampled, root span %d", i, r, first.TraceID+1, roots[0].SpanID+uint64(i))
		}
		if c.TraceID != parent.TraceID || c.Parent != parent.SpanID || c.Hops != parent.Hops+1 || c.Sampled() || c.SpanID != children[0].SpanID+uint64(i) {
			t.Errorf("child batch message %d = %+v, want a sibling child span of %+v", i, c, parent)
		}
	}
}

// TestTraceSampledDeliveryRecorded samples every trace and checks a
// delivery span lands in the delivery log with both endpoint names, and
// that a log without spans (a bus that samples nothing) takes none — not
// even a delivery whose parent, come over the wire, was sampled.
func TestTraceSampledDeliveryRecorded(t *testing.T) {
	for _, spans := range []bool{true, false} {
		sample, parent := 1, TraceContext{}
		if !spans {
			sample, parent = 0, TraceContext{TraceID: 1 << 40, SpanID: 1 << 40, Flags: trace.FlagSampled}
		}
		b := New(WithRecorder(32, sample))
		log := b.Recorder()
		for _, spec := range []InstanceSpec{
			{Name: "src", Interfaces: []IfaceSpec{{Name: "out", Dir: Out}}},
			{Name: "dst", Interfaces: []IfaceSpec{{Name: "in", Dir: In}}},
		} {
			if err := b.AddInstance(spec); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.AddBinding(Endpoint{Instance: "src", Interface: "out"}, Endpoint{Instance: "dst", Interface: "in"}); err != nil {
			t.Fatal(err)
		}
		src := attach(t, b, "src")
		dst := attach(t, b, "dst")

		if err := src.WriteTraced("out", []byte("x"), parent); err != nil {
			t.Fatal(err)
		}
		m, err := dst.Read("in")
		if err != nil {
			t.Fatal(err)
		}
		if !m.Trace.Sampled() {
			t.Fatal("a sample-everything bus, or a sampled parent, produced an unsampled context")
		}
		if !spans {
			if log.Appended() != 0 || log.Spans() != nil {
				t.Errorf("a log without spans wrote %d records", log.Appended())
			}
			continue
		}
		got := log.Spans().Snapshot()
		if len(got) != 1 || len(log.Snapshot()) != 0 {
			t.Fatalf("log holds %d spans and %d recorded deliveries, want 1 and 0", len(got), len(log.Snapshot()))
		}
		sp := got[0]
		if sp.Trace != m.Trace {
			t.Errorf("span context %+v does not match delivered context %+v", sp.Trace, m.Trace)
		}
		if sp.From != "src.out" || sp.To != "dst.in" {
			t.Errorf("span endpoints = %s -> %s", sp.From, sp.To)
		}
		if sp.EndNs < sp.Trace.SentNs || sp.Data != nil || sp.QSeq != 0 {
			t.Errorf("span %+v: ends before it starts, or carries what only recording writes", sp)
		}
	}
}

// TestTraceSurvivesQueueMove pins that queue transfers carry trace contexts
// with the messages and that the MoveQueue/DrainQueue events report the
// trace IDs involved — the correlation handle between the event log and the
// flight recorder.
func TestTraceSurvivesQueueMove(t *testing.T) {
	b := testBus(t)
	sens := attach(t, b, "sensor")
	for _, payload := range []string{"q1", "q2"} {
		if err := sens.Write("out", []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}

	// traceIDs returns the trace IDs of the newest record of kind.
	traceIDs := func(kind string) []uint64 {
		var ids []uint64
		for _, r := range b.Events().Since(0) {
			if r.Kind == kind {
				ids = r.TraceIDs
			}
		}
		return ids
	}

	if err := b.AddInstance(InstanceSpec{
		Name: "compute2", Module: "compute",
		Interfaces: []IfaceSpec{{Name: "sensor", Dir: In}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Rebind([]BindEdit{{Op: "cq", From: Endpoint{Instance: "compute", Interface: "sensor"}, To: Endpoint{Instance: "compute2", Interface: "sensor"}}}); err != nil {
		t.Fatal(err)
	}
	moveIDs := traceIDs(routing.KindMoveQueue)
	if len(moveIDs) != 2 || moveIDs[0] == moveIDs[1] {
		t.Fatalf("move-queue event trace IDs = %v, want 2 distinct", moveIDs)
	}

	c2 := attach(t, b, "compute2")
	for i, wantID := range moveIDs {
		m, err := c2.Read("sensor")
		if err != nil {
			t.Fatal(err)
		}
		if m.Trace.TraceID != wantID {
			t.Errorf("moved message %d carries trace %d, event reported %d", i, m.Trace.TraceID, wantID)
		}
	}

	// A drain reports the discarded messages' traces the same way.
	if err := sens.Write("out", []byte("q3")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DrainQueue(Endpoint{Instance: "compute", Interface: "sensor"}); err != nil {
		t.Fatal(err)
	}
	if drainIDs := traceIDs(routing.KindDrainQueue); len(drainIDs) != 1 {
		t.Errorf("drain-queue event trace IDs = %v, want 1", drainIDs)
	}
}

// TestQueuedMessages pins the quiesce-correlation snapshot: per-message
// endpoint, trace context, and age for everything queued toward an
// instance. Ages need a send timestamp, which only sampled contexts carry,
// so the measurable-age arm samples every trace; on an unsampled bus
// the age degrades to -1 ("unknown"), pinned by the second arm.
func TestQueuedMessages(t *testing.T) {
	b := testBus(t, WithRecorder(0, 1))
	sens := attach(t, b, "sensor")
	for _, payload := range []string{"a", "b"} {
		if err := sens.Write("out", []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	qm, err := b.QueuedMessages("compute")
	if err != nil {
		t.Fatal(err)
	}
	if len(qm) != 2 {
		t.Fatalf("QueuedMessages = %d entries, want 2", len(qm))
	}
	for _, m := range qm {
		if m.Endpoint != (Endpoint{Instance: "compute", Interface: "sensor"}) {
			t.Errorf("queued endpoint = %v", m.Endpoint)
		}
		if !m.Trace.Valid() {
			t.Error("queued message lost its trace context")
		}
		if m.AgeNs < 0 {
			t.Errorf("queued message age = %d", m.AgeNs)
		}
	}
	if _, err := b.QueuedMessages("ghost"); err == nil {
		t.Error("unknown instance accepted")
	}

	// Unsampled bus: no send timestamp, age is reported as unknown (-1).
	plain := testBus(t)
	psens := attach(t, plain, "sensor")
	if err := psens.Write("out", []byte("p")); err != nil {
		t.Fatal(err)
	}
	pqm, err := plain.QueuedMessages("compute")
	if err != nil {
		t.Fatal(err)
	}
	if len(pqm) != 1 || pqm[0].AgeNs != -1 {
		t.Errorf("unsampled queued age = %+v, want AgeNs -1", pqm)
	}
}

// TestCloseDeletesEveryInstance: Close is the bus's teardown. It deletes
// every instance in one commit — readers blocked on them wake with
// ErrStopped, their metrics go, the log records each deletion — and a
// second Close finds nothing left to do.
func TestCloseDeletesEveryInstance(t *testing.T) {
	b := testBus(t)
	stopped := make(chan error, 2)
	for _, ep := range []Endpoint{{Instance: "compute", Interface: "sensor"}, {Instance: "display", Interface: "temper"}} {
		a := attach(t, b, ep.Instance)
		go func() {
			_, err := a.Read(ep.Interface)
			stopped <- err
		}()
	}
	cursor := b.Events().Cursor()
	b.Close()
	for i := 0; i < 2; i++ {
		if err := <-stopped; !errors.Is(err, ErrStopped) {
			t.Errorf("blocked reader woke with %v, want ErrStopped", err)
		}
	}
	if names := b.Instances(); len(names) != 0 {
		t.Errorf("instances after Close: %v", names)
	}
	if snap := b.Telemetry().Snapshot(); len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Errorf("metrics after Close: %+v", snap)
	}
	want := []ev{{routing.KindDeleteInstance, "compute", ""}, {routing.KindDeleteInstance, "display", ""}, {routing.KindDeleteInstance, "sensor", ""}}
	if got := busRecords(t, b.Events(), cursor); !reflect.DeepEqual(got, want) {
		t.Errorf("Close logged %q, want %q", got, want)
	}
	cursor = b.Events().Cursor()
	b.Close()
	if got := busRecords(t, b.Events(), cursor); len(got) != 0 {
		t.Errorf("second Close logged %q", got)
	}
}

// TestRemoteTracePropagation sends a causal chain across the TCP transport
// in both directions: the wire carries the parent context of a traced write,
// and the server-side bus stamps the child.
func TestRemoteTracePropagation(t *testing.T) {
	_, s := startServer(t)
	disp := dial(t, s, "display")
	comp := dial(t, s, "compute")

	if err := disp.Write("temper", []byte("req")); err != nil {
		t.Fatal(err)
	}
	m, err := comp.Read("display")
	if err != nil {
		t.Fatal(err)
	}
	if !m.Trace.Valid() || m.Trace.Hops != 0 {
		t.Fatalf("remote root context = %+v", m.Trace)
	}

	if err := comp.WriteTraced("display", []byte("resp"), m.Trace); err != nil {
		t.Fatal(err)
	}
	m2, err := disp.Read("temper")
	if err != nil {
		t.Fatal(err)
	}
	if m2.Trace.TraceID != m.Trace.TraceID || m2.Trace.Hops != 1 || m2.Trace.Parent != m.Trace.SpanID {
		t.Fatalf("child over TCP = %+v, want continuation of %+v", m2.Trace, m.Trace)
	}

	if err := disp.WriteTraced("temper", []byte("more"), m2.Trace); err != nil {
		t.Fatal(err)
	}
	m3, err := comp.Read("display")
	if err != nil {
		t.Fatal(err)
	}
	if m3.Trace.TraceID != m.Trace.TraceID || m3.Trace.Hops != 2 {
		t.Fatalf("grandchild over TCP = %+v", m3.Trace)
	}
}
