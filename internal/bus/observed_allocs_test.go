package bus

// What the observability surfaces cost the message path in allocations,
// asserted on every `go test` run: nothing while they are off — the paper's
// "merely periodically testing flags" — nothing for windowed rollups, which
// read the path's counters from the side, and, while every delivery is
// traced and recorded, nothing once the delivery log has gone round: its
// one record for both is written in place, the payload into storage the
// slot keeps. The first lap pays a share of a ring segment and a payload
// chunk.

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/clock"
	"repro/internal/replay"
	"repro/internal/telemetry"
	"repro/internal/telemetry/timeseries"
)

// mallocs runs round n times and returns the heap allocations made.
func mallocs(round func(), n int) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	return int(after.Mallocs - before.Mallocs)
}

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
		if err := b.AddBinding(Endpoint{Instance: name, Interface: "out"}, Endpoint{Instance: "dst", Interface: "in"}); err != nil {
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

	// Off: stamping that never samples and a delivery log that is not
	// recording each cost the path a flag test and no allocation. What the
	// bare path allocates — a queue segment every 256 messages, which
	// AllocsPerRun rounds away — is the floor the arms below are held to.
	base := allocs()
	const rounds = 64_000
	floor := mallocs(observedFanIn(t, 1, payload), rounds)
	// The runtime allocates in the background too (after a collection, for
	// instance), a few times in 64 000 rounds; a delivery log that took a
	// share of one allocation per 256 deliveries would be ten times this.
	const runtimeNoise = 0.0004
	if idle := allocs(WithRecorder(4096, 0)); idle != base {
		t.Errorf("an attached log that is off allocates: %v allocs per round trip, %v without it", idle, base)
	}

	// Rollups on: a roller closing a window every millisecond reads the same
	// atomics the path adds to and touches nothing else of it. Measured only
	// once it has rolled this bus's series, or the figure would mean nothing.
	var reg *telemetry.Registry
	trip := observedFanIn(t, 1, payload, func(b *Bus) { reg = b.Telemetry() })
	roller := timeseries.New(reg, clock.Clock{}, time.Millisecond)
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

	// On: every delivery sampled and recorded, one record in the delivery
	// log for both. One sender, then two alternating into the same
	// interface — the sender's name reaches the hook with the message, so
	// alternation must cost nothing (a last-sender memo would rebuild it on
	// every delivery).
	for _, senders := range []int{1, 2} {
		var log *replay.Log
		round := observedFanIn(t, senders, payload, WithRecorder(4096, 1), func(b *Bus) {
			log = b.Recorder()
			log.Enable()
		})
		if on := testing.AllocsPerRun(2000, round); on != base {
			t.Errorf("%d senders, sampled and recording: %v allocs per round, %v with both off", senders, on, base)
		}
		// AllocsPerRun divides in integers; count what it rounds away, once
		// the log has lapped.
		lap := (log.Cap() + senders - 1) / senders
		for i := 0; i < lap; i++ {
			round()
		}
		n := mallocs(round, rounds/senders)
		deliveries := (2000+1+lap)*senders + rounds // AllocsPerRun warms up with one run
		extra := float64(n-floor) / rounds
		t.Logf("%d senders, sampled and recording: %d allocations in %d deliveries, %d with both off", senders, n, rounds, floor)
		if extra > runtimeNoise {
			t.Errorf("%d senders, sampled and recording: %.4f allocations per delivery beyond the bare path once the log has lapped, want 0 (up to %v of the runtime's own)",
				senders, extra, runtimeNoise)
		}
		rec := log.Spans()
		if rec.Recorded() != int64(deliveries) || log.Recorded() != uint64(deliveries) {
			t.Errorf("%d senders: %d spans and %d records for %d deliveries: something was sampled away",
				senders, rec.Recorded(), log.Recorded(), deliveries)
		}
		if log.Appended() != uint64(deliveries) {
			t.Errorf("%d senders: %d ring publications for %d traced and recorded deliveries, want one each",
				senders, log.Appended(), deliveries)
		}
		spans, recs := rec.Snapshot(), log.Snapshot()
		for i := 0; i < senders; i++ {
			from := fmt.Sprintf("s%d.out", i)
			s, r := spans[len(spans)-senders+i], recs[len(recs)-senders+i]
			if s.Seq != r.Seq || r.From != from || r.To != "dst.in" {
				t.Errorf("%d senders: delivery from %s spanned as #%d, recorded as #%d %s -> %s",
					senders, from, s.Seq, r.Seq, r.From, r.To)
			}
			if r.EndNs < r.Trace.SentNs {
				t.Errorf("span %d ends %d ns before it starts", r.Seq, r.Trace.SentNs-r.EndNs)
			}
		}

		// The log is many laps in: its bound is the documented formula — the
		// segment table, 64 segments of 64 slots (the record, the slot's
		// storage header and two counts, a lock and a sequence), and the
		// chunks every slot's payload storage was carved from.
		const table = 64 * 8
		segments := 64 * 64 * (int(unsafe.Sizeof(replay.Record{})) + 24 + 2*8 + 8 + 8)
		chunks := 4096 * len(payload) / 4096 * 4096
		if got, want := log.MemoryBound(), table+segments+chunks; got != want {
			t.Errorf("Log.MemoryBound = %d, want %d", got, want)
		}
	}
}
