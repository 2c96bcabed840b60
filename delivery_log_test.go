package reconf

// The delivery log has two readers — the replay view (what recording
// writes) and the span view (the flight recorder, what sampling writes) —
// over one ring written once per delivery. These tests diff each reader
// with the other writer on and off: neither may see the other's records,
// and a delivery that is both recorded and sampled is one publication.

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/replay"
)

// pipeValues is the seeded run: each value goes through the filter and is
// read at the sink before the next is sent, so every trace and span id and
// every ring sequence is the same from run to run.
var pipeValues = []int{4, 7, 1, 9, 2, 12, 5}

func (h *pipeHarness) driveInTurn(vals ...int) {
	h.t.Helper()
	for _, v := range vals {
		h.drive(v)
	}
}

// TestReplayViewIgnoresTracing: the replay view of a seeded run — the
// canonical log and the spill stream — is the same with every delivery
// traced as with none. A spilled record differs only in what tracing puts
// on the message itself: the sampled flag and the send stamp of its
// context.
func TestReplayViewIgnoresTracing(t *testing.T) {
	run := func(sample int) (canon string, spilled []replay.Record) {
		var spill bytes.Buffer
		cfg := pipeConfig()
		cfg.TraceSample = sample
		cfg.RecordSpill = &spill
		h := startPipe(t, cfg)
		h.driveInTurn(pipeValues...)
		canon = replay.Canonical(h.app.Recorder().Snapshot())
		h.app.Stop()
		spilled, err := replay.ReadLog(&spill)
		if err != nil {
			t.Fatal(err)
		}
		for i := range spilled {
			if got := spilled[i].Trace.Sampled(); got != (sample > 0) {
				t.Errorf("TraceSample %d: spilled record %d sampled = %v", sample, i, got)
			}
			spilled[i].Trace.Flags, spilled[i].Trace.SentNs = 0, 0
		}
		return canon, spilled
	}
	canonOff, spillOff := run(0)
	canonOn, spillOn := run(1)
	if want := 2 * len(pipeValues); len(spillOff) != want {
		t.Fatalf("spill holds %d records, want %d", len(spillOff), want)
	}
	if canonOff != canonOn {
		t.Errorf("canonical log changes when tracing is on:\n--- off\n%s--- on\n%s", canonOff, canonOn)
	}
	if !reflect.DeepEqual(spillOff, spillOn) {
		t.Errorf("spill stream changes when tracing is on:\n--- off\n%+v\n--- on\n%+v", spillOff, spillOn)
	}
	if canonOff != replay.Canonical(spillOff) {
		t.Errorf("the spill and the ring disagree:\n--- ring\n%s--- spill\n%s", canonOff, replay.Canonical(spillOff))
	}
}

// spanKey is what the span view says of one delivery, timestamps aside.
type spanKey struct {
	trace, span, parent uint64
	hops                uint32
	from, to            string
}

// TestSpanViewIgnoresRecording: the span view of a seeded run — trace,
// span, parent, hops and endpoints of every sampled delivery, in order — is
// the same with recording on as with recording unconfigured, and without
// RecordBuffer the application has no recorder and refuses the record op.
func TestSpanViewIgnoresRecording(t *testing.T) {
	run := func(records int) []spanKey {
		cfg := pipeConfig()
		cfg.TraceSample = 1
		cfg.RecordBuffer = records
		h := startPipe(t, cfg)
		h.driveInTurn(pipeValues...)
		if records == 0 {
			if h.app.Recorder() != nil || h.app.SetRecording(true) == nil {
				t.Error("tracing alone configured recording")
			}
			if got := h.app.Bus().Recorder().Snapshot(); got != nil {
				t.Errorf("tracing alone recorded %d deliveries", len(got))
			}
		}
		var keys []spanKey
		for _, s := range h.app.FlightRecorder().Snapshot() {
			if s.EndNs < s.Trace.SentNs {
				t.Errorf("span %d ends %d ns before it starts", s.Seq, s.Trace.SentNs-s.EndNs)
			}
			keys = append(keys, spanKey{s.Trace.TraceID, s.Trace.SpanID, s.Trace.Parent, s.Trace.Hops, s.From, s.To})
		}
		return keys
	}
	unrecorded, recorded := run(0), run(1024)
	if want := 2 * len(pipeValues); len(unrecorded) != want {
		t.Fatalf("flight recorder holds %d spans, want %d", len(unrecorded), want)
	}
	if !reflect.DeepEqual(unrecorded, recorded) {
		t.Errorf("span view changes when recording is on:\n--- off\n%+v\n--- on\n%+v", unrecorded, recorded)
	}
}

// TestOnePublicationPerDelivery: a delivery that is both traced and
// recorded is one record of the one ring, which both views read; the ring
// cursor is the delivery count.
func TestOnePublicationPerDelivery(t *testing.T) {
	cfg := pipeConfig()
	cfg.TraceSample = 1
	h := startPipe(t, cfg)
	h.driveInTurn(pipeValues...)
	log := h.app.Bus().Recorder()
	delivered := uint64(h.app.Bus().Stats().Delivered)
	if delivered != uint64(2*len(pipeValues)) || log.Appended() != delivered {
		t.Errorf("%d ring publications for %d deliveries, want one each", log.Appended(), delivered)
	}
	if log.Recorded() != delivered || h.app.FlightRecorder().Recorded() != int64(delivered) {
		t.Errorf("%d recorded and %d spans of %d deliveries", log.Recorded(), h.app.FlightRecorder().Recorded(), delivered)
	}
	recs, spans := log.Snapshot(), h.app.FlightRecorder().Snapshot()
	for i := range recs {
		if !reflect.DeepEqual(recs[i], spans[i]) {
			t.Fatalf("delivery %d reads differently in the two views:\nreplay %+v\nspan   %+v", i, recs[i], spans[i])
		}
	}
	// The latency histograms observed every span once.
	var observed int64
	for name, hist := range h.app.Telemetry().Snapshot().Histograms {
		if strings.HasSuffix(name, ".delivery_latency_ns") {
			observed += hist.Count
		}
	}
	if observed != int64(delivered) {
		t.Errorf("delivery_latency_ns observed %d deliveries, want %d", observed, delivered)
	}
}
