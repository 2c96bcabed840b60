package bus

import (
	"runtime"
	"sync"
	"testing"
	"time"

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
		t.Error("default tracer must not sample")
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

// TestTraceSampledDeliveryRecorded wires a fully-sampled tracer and checks a
// delivery span lands in the flight recorder with both endpoint names.
func TestTraceSampledDeliveryRecorded(t *testing.T) {
	rec := trace.NewRecorder(32)
	b := New(WithMsgTracer(trace.NewTracer(1, rec)))
	for _, spec := range []InstanceSpec{
		{Name: "src", Interfaces: []IfaceSpec{{Name: "out", Dir: Out}}},
		{Name: "dst", Interfaces: []IfaceSpec{{Name: "in", Dir: In}}},
	} {
		if err := b.AddInstance(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddBinding(Endpoint{"src", "out"}, Endpoint{"dst", "in"}); err != nil {
		t.Fatal(err)
	}
	src := attach(t, b, "src")
	dst := attach(t, b, "dst")

	if err := src.Write("out", []byte("x")); err != nil {
		t.Fatal(err)
	}
	m, err := dst.Read("in")
	if err != nil {
		t.Fatal(err)
	}
	if !m.Trace.Sampled() {
		t.Fatal("sample-everything tracer produced an unsampled context")
	}
	if rec.Len() != 1 {
		t.Fatalf("recorder holds %d spans, want 1", rec.Len())
	}
	sp := rec.Snapshot()[0]
	if sp.TraceID != m.Trace.TraceID || sp.SpanID != m.Trace.SpanID {
		t.Errorf("recorded span %+v does not match delivered context %+v", sp, m.Trace)
	}
	if sp.From != "src.out" || sp.To != "dst.in" {
		t.Errorf("span endpoints = %s -> %s", sp.From, sp.To)
	}
	if sp.EndNs < sp.StartNs {
		t.Errorf("span ends (%d) before it starts (%d)", sp.EndNs, sp.StartNs)
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

	var mu sync.Mutex
	var events []Event
	b.Observe(func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})

	if err := b.AddInstance(InstanceSpec{
		Name: "compute2", Module: "compute",
		Interfaces: []IfaceSpec{{Name: "sensor", Dir: In}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Rebind([]BindEdit{{Op: "cq", From: Endpoint{"compute", "sensor"}, To: Endpoint{"compute2", "sensor"}}}); err != nil {
		t.Fatal(err)
	}
	b.SyncObservers()

	mu.Lock()
	var moveIDs []uint64
	for _, e := range events {
		if e.Kind == EventMoveQueue {
			moveIDs = e.TraceIDs
		}
	}
	mu.Unlock()
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
	if _, err := b.DrainQueue(Endpoint{"compute", "sensor"}); err != nil {
		t.Fatal(err)
	}
	b.SyncObservers()
	mu.Lock()
	var drainIDs []uint64
	for _, e := range events {
		if e.Kind == EventDrainQueue {
			drainIDs = e.TraceIDs
		}
	}
	mu.Unlock()
	if len(drainIDs) != 1 {
		t.Errorf("drain-queue event trace IDs = %v, want 1", drainIDs)
	}
}

// TestQueuedMessages pins the quiesce-correlation snapshot: per-message
// endpoint, trace context, and age for everything queued toward an
// instance. Ages need a send timestamp, which only sampled contexts carry,
// so the measurable-age arm runs on a rate-1 tracer; on an unsampled bus
// the age degrades to -1 ("unknown"), pinned by the second arm.
func TestQueuedMessages(t *testing.T) {
	b := testBus(t, WithMsgTracer(trace.NewTracer(1, trace.NewRecorder(64))))
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
		if m.Endpoint != (Endpoint{"compute", "sensor"}) {
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

// TestCloseStopsObserverGoroutines is the leak check: observer mailboxes
// must drain and their goroutines exit when the bus closes.
func TestCloseStopsObserverGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	b := New()
	var mu sync.Mutex
	seen := 0
	b.Observe(func(Event) {
		mu.Lock()
		seen++
		mu.Unlock()
		time.Sleep(time.Millisecond) // keep the mailbox goroutine busy
	})
	for i := 0; i < 8; i++ {
		if err := b.AddInstance(InstanceSpec{Name: string(rune('a' + i))}); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()

	mu.Lock()
	got := seen
	mu.Unlock()
	if got != 8 {
		t.Errorf("observer saw %d events before close, want all 8", got)
	}

	// Events after Close are not delivered and start no goroutines.
	if err := b.AddInstance(InstanceSpec{Name: "late"}); err != nil {
		t.Fatal(err)
	}
	b.Observe(func(Event) { t.Error("observer registered after Close was invoked") })
	b.SyncObservers()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
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
