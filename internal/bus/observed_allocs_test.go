package bus

// What the observability surfaces cost the message path in allocations,
// asserted on every `go test` run: nothing while they are off — the paper's
// "merely periodically testing flags" — nothing for windowed rollups, which
// read the path's counters from the side, and, while every delivery is
// traced and recorded, the share of a record block and a payload chunk it
// uses up.

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/replay"
	"repro/internal/telemetry"
	"repro/internal/telemetry/timeseries"
	"repro/internal/telemetry/trace"
)

// observedFanIn builds senders s0..sN-1, each with an "out" bound to the one
// "in" of dst, and returns a function that sends one message from every
// sender in turn, reading each at dst before the next is sent.
func observedFanIn(t *testing.T, senders int, payload []byte, opts ...BusOption) (round func()) {
	t.Helper()
	b := New(opts...)
	if err := b.AddInstance(InstanceSpec{Name: "dst", Interfaces: []IfaceSpec{{Name: "in", Dir: In}}}); err != nil {
		t.Fatal(err)
	}
	dst := attach(t, b, "dst")
	srcs := make([]*Attachment, senders)
	for i := range srcs {
		name := fmt.Sprintf("s%d", i)
		if err := b.AddInstance(InstanceSpec{Name: name, Interfaces: []IfaceSpec{{Name: "out", Dir: Out}}}); err != nil {
			t.Fatal(err)
		}
		if err := b.AddBinding(Endpoint{name, "out"}, Endpoint{"dst", "in"}); err != nil {
			t.Fatal(err)
		}
		srcs[i] = attach(t, b, name)
	}
	return func() {
		for _, src := range srcs {
			if err := src.Write("out", payload); err != nil {
				t.Fatal(err)
			}
			if _, err := dst.Read("in"); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestObservedPathAllocs(t *testing.T) {
	payload := make([]byte, 16)
	allocs := func(opts ...BusOption) float64 {
		return testing.AllocsPerRun(2000, observedFanIn(t, 1, payload, opts...))
	}

	// Off: a tracer that never samples and a recorder that is not recording
	// each cost the path a flag test and no allocation.
	base := allocs()
	if off := allocs(WithMsgTracer(nil)); base != off {
		t.Errorf("unsampled tracing allocates: %v allocs per round trip, %v with tracing off", base, off)
	}
	if idle := allocs(WithRecorder(replay.NewLog(4096))); idle != base {
		t.Errorf("an attached recorder that is off allocates: %v allocs per round trip, %v without it", idle, base)
	}

	// Rollups on: a roller closing a window every millisecond reads the same
	// atomics the path adds to and touches nothing else of it. Measured only
	// once it has rolled this bus's series, or the figure would mean nothing.
	reg := telemetry.NewRegistry()
	trip := observedFanIn(t, 1, payload, WithTelemetry(reg))
	roller := timeseries.New(reg, timeseries.Config{Window: time.Millisecond, Windows: 120})
	roller.Start()
	for deadline := time.Now().Add(10 * time.Second); roller.Rolled() == 0; trip() {
		if time.Now().After(deadline) {
			t.Fatal("the 1 ms roller never rolled")
		}
	}
	if on := testing.AllocsPerRun(2000, trip); on != base {
		t.Errorf("rollups on: %v allocs per round trip, %v without a roller", on, base)
	}
	roller.Stop() // its own allocations would count against the arms below

	// On: every delivery sampled into the flight recorder and appended to
	// the record ring. One sender, then two alternating into the same
	// interface — the sender's name reaches the hooks with the message, so
	// alternation must cost nothing (a last-sender memo would rebuild it on
	// every delivery).
	for _, senders := range []int{1, 2} {
		rec := trace.NewRecorder(4096)
		log := replay.NewLog(4096)
		log.Enable()
		round := observedFanIn(t, senders, payload, WithMsgTracer(trace.NewTracer(1, rec)), WithRecorder(log))
		if on := testing.AllocsPerRun(2000, round); on != base {
			t.Errorf("%d senders, sampled and recording: %v allocs per round, %v with both off", senders, on, base)
		}
		// AllocsPerRun divides in integers; count what it rounds away.
		const rounds = 64_000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			round()
		}
		runtime.ReadMemStats(&after)
		deliveries := (2000 + 1 + rounds) * senders // AllocsPerRun warms up with one run
		per := float64(after.Mallocs-before.Mallocs) / float64(rounds*senders)
		t.Logf("%d senders, sampled and recording: %.4f allocations per delivery", senders, per)
		if per > 0.05 {
			t.Errorf("%d senders, sampled and recording: %.4f allocations per delivery, want <= 0.05", senders, per)
		}
		if rec.Recorded() != int64(deliveries) || log.Recorded() != uint64(deliveries) {
			t.Errorf("%d senders: %d spans and %d records for %d deliveries: something was sampled away",
				senders, rec.Recorded(), log.Recorded(), deliveries)
		}
		spans, recs := rec.Snapshot(), log.Snapshot()
		for i := 0; i < senders; i++ {
			from := fmt.Sprintf("s%d.out", i)
			s, r := spans[len(spans)-senders+i], recs[len(recs)-senders+i]
			if s.From != from || s.To != "dst.in" || r.From != from || r.To != "dst.in" {
				t.Errorf("%d senders: delivery from %s traced as %s -> %s, recorded as %s -> %s",
					senders, from, s.From, s.To, r.From, r.To)
			}
			if s.EndNs < s.StartNs {
				t.Errorf("span %d ends %d ns before it starts", s.Seq, s.StartNs-s.EndNs)
			}
		}

		// Both rings are many laps in: their bounds are the documented
		// formulas, pinned block and chunks included.
		const slots = 4096 * 8
		blocks := func(recordSize uintptr) int { return (4096/64 + 1) * (8 + 64*int(recordSize)) }
		if got, want := rec.MemoryBound(), slots+blocks(unsafe.Sizeof(trace.SpanRecord{})); got != want {
			t.Errorf("Recorder.MemoryBound = %d, want %d", got, want)
		}
		if got, want := log.MemoryBound(), slots+blocks(unsafe.Sizeof(replay.Record{}))+4096*len(payload)+2*4096; got != want {
			t.Errorf("Log.MemoryBound = %d, want %d", got, want)
		}
	}
}
