package replay

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/telemetry/trace"
)

func TestNewLogCapacity(t *testing.T) {
	if got := NewLog(0).Cap(); got != 4096 {
		t.Errorf("default capacity = %d, want 4096", got)
	}
	if got := NewLog(5).Cap(); got != 16 {
		t.Errorf("minimum capacity = %d, want 16", got)
	}
	if got := NewLog(100).Cap(); got != 100 {
		t.Errorf("capacity = %d, want 100", got)
	}
}

func TestNilLogIsNoOp(t *testing.T) {
	var l *Log
	l.Enable()
	l.Disable()
	if l.Enabled() || l.Cap() != 0 || l.Recorded() != 0 || l.Len() != 0 || l.MemoryBound() != 0 {
		t.Error("nil log reports activity")
	}
	if l.Snapshot() != nil || l.QueueSeqs() != nil {
		t.Error("nil log returns records")
	}
	q := l.Queue("a.b")
	if q != nil {
		t.Fatal("nil log returned a non-nil queue handle")
	}
	q.Append("x.y", []byte("data"), trace.Context{}, 1) // must not panic
}

func TestAppendDisabledRecordsNothing(t *testing.T) {
	l := NewLog(16)
	q := l.Queue("dst.in")
	q.Append("src.out", []byte("dropped"), trace.Context{}, 1)
	if l.Recorded() != 0 || l.Len() != 0 {
		t.Error("disabled log recorded")
	}
	l.Enable()
	q.Append("src.out", []byte("kept"), trace.Context{}, 1)
	if l.Recorded() != 1 {
		t.Errorf("recorded = %d, want 1", l.Recorded())
	}
	l.Disable()
	q.Append("src.out", []byte("dropped again"), trace.Context{}, 1)
	if l.Recorded() != 1 {
		t.Error("disabled log kept recording")
	}
	// The already-recorded window stays readable after disable.
	recs := l.Snapshot()
	if len(recs) != 1 || string(recs[0].Data) != "kept" {
		t.Errorf("snapshot after disable = %+v", recs)
	}
}

func TestRingEvictionAndSequences(t *testing.T) {
	l := NewLog(16)
	l.Enable()
	q := l.Queue("dst.in")
	for i := 1; i <= 40; i++ {
		q.Append("src.out", []byte(fmt.Sprintf("m%02d", i)), trace.Context{}, 7)
	}
	if l.Recorded() != 40 {
		t.Errorf("recorded = %d, want 40", l.Recorded())
	}
	if l.Len() != 16 {
		t.Errorf("retained = %d, want 16", l.Len())
	}
	recs := l.Snapshot()
	if len(recs) != 16 {
		t.Fatalf("snapshot size = %d, want 16", len(recs))
	}
	// The ring keeps the 16 most recent, in order, with gapless parallel
	// Seq and QSeq (single queue: the two sequences agree).
	for i, r := range recs {
		wantSeq := uint64(25 + i)
		if r.Seq != wantSeq || r.QSeq != wantSeq {
			t.Errorf("record %d: seq=%d qseq=%d, want %d", i, r.Seq, r.QSeq, wantSeq)
		}
		if want := fmt.Sprintf("m%02d", wantSeq); string(r.Data) != want {
			t.Errorf("record %d: data=%q, want %q", i, r.Data, want)
		}
		if r.Epoch != 7 || r.From != "src.out" || r.To != "dst.in" {
			t.Errorf("record %d: %+v", i, r)
		}
	}
	seqs := l.QueueSeqs()
	want := []QueueSeq{{Endpoint: "dst.in", Seq: 40}}
	if !reflect.DeepEqual(seqs, want) {
		t.Errorf("queue seqs = %+v, want %+v", seqs, want)
	}
}

func TestQueueHandleInterning(t *testing.T) {
	l := NewLog(16)
	l.Enable()
	q1 := l.Queue("dst.in")
	q1.Append("src.out", []byte("a"), trace.Context{}, 1)
	// A re-registered instance (clone reusing the name after rollback)
	// resolves the same handle and continues the same delivery sequence.
	q2 := l.Queue("dst.in")
	if q1 != q2 {
		t.Fatal("re-resolved queue handle is a different object")
	}
	q2.Append("src.out", []byte("b"), trace.Context{}, 1)
	recs := l.Snapshot()
	if len(recs) != 2 || recs[0].QSeq != 1 || recs[1].QSeq != 2 {
		t.Errorf("qseqs = %+v", recs)
	}
}

func TestMemoryBoundTracksPayloads(t *testing.T) {
	l := NewLog(16)
	l.Enable()
	empty := l.MemoryBound()
	q := l.Queue("dst.in")
	// Over maxCarved: each payload is its own allocation, no chunk taken.
	big := make([]byte, 2048)
	for i := 0; i < 16; i++ {
		q.Append("src.out", big, trace.Context{}, 1)
	}
	if got := l.MemoryBound(); got != empty+16*2048 {
		t.Errorf("memory bound with 32 KiB retained = %d, want %d", got, empty+16*2048)
	}
	// Overwriting with small payloads releases the large ones; the small
	// ones are carved, which charges the queue its two chunks.
	for i := 0; i < 16; i++ {
		q.Append("src.out", []byte{1}, trace.Context{}, 1)
	}
	if got := l.MemoryBound(); got != empty+16+2*chunkBytes {
		t.Errorf("memory bound after eviction = %d, want %d", got, empty+16+2*chunkBytes)
	}
}

// TestMemoryBoundFormula laps a ring three times from two queues with
// carved payloads and checks MemoryBound against the documented formula
// term by term.
func TestMemoryBoundFormula(t *testing.T) {
	const capacity, payload = 256, 48
	l := NewLog(capacity)
	l.Enable()
	qs := []*QueueLog{l.Queue("a.in"), l.Queue("b.in")}
	data := make([]byte, payload)
	for i := 0; i < 3*capacity; i++ {
		qs[i%2].Append("src.out", data, trace.Context{}, 1)
	}
	var rec Record
	block := 8 + 64*int(unsafe.Sizeof(rec)) // bump index + 64 records
	want := capacity*8 + (capacity/64+1)*block + capacity*payload + 2*2*chunkBytes
	if got := l.MemoryBound(); got != want {
		t.Errorf("MemoryBound after 3 laps = %d, want %d (slots + blocks + payloads + 2 chunks per queue)", got, want)
	}
}

func TestAppendCopiesPayload(t *testing.T) {
	l := NewLog(16)
	l.Enable()
	q := l.Queue("dst.in")
	buf := []byte("original")
	q.Append("src.out", buf, trace.Context{}, 1)
	q.Append("src.out", []byte("neighbour"), trace.Context{}, 1)
	copy(buf, "CLOBBER!")
	recs := l.Snapshot()
	if got := string(recs[0].Data); got != "original" {
		t.Errorf("record shares the caller's buffer: %q", got)
	}
	// The two copies sit side by side in one chunk; growing the first must
	// reallocate, not run into the second.
	_ = append(recs[0].Data, "OVERRUN!!"...)
	if got := string(l.Snapshot()[1].Data); got != "neighbour" {
		t.Errorf("append to one record's payload overwrote the next: %q", got)
	}
}

// TestAppendCarvesAcrossChunks fills several chunks with payloads of every
// carved size and a few too large to carve: each record reads back exactly
// its own bytes.
func TestAppendCarvesAcrossChunks(t *testing.T) {
	l := NewLog(4096)
	l.Enable()
	q := l.Queue("dst.in")
	sizes := []int{0, 1, 7, 64, 1000, maxCarved, maxCarved + 1, 5000}
	const rounds = 40
	for i := 0; i < rounds*len(sizes); i++ {
		q.Append("src.out", bytes.Repeat([]byte{byte(i)}, sizes[i%len(sizes)]), trace.Context{}, 1)
	}
	for i, r := range l.Snapshot() {
		if want := bytes.Repeat([]byte{byte(i)}, sizes[i%len(sizes)]); !bytes.Equal(r.Data, want) {
			t.Fatalf("record %d: %d bytes of %#x, want %d of %#x", i, len(r.Data), r.Data[:min(len(r.Data), 1)], len(want), byte(i))
		}
		if (len(r.Data) == 0) != (r.Data == nil) {
			t.Fatalf("record %d: empty payload recorded as non-nil", i)
		}
	}
}

func TestSpillRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewLog(16)
	if err := l.SetSpill(&buf); err != nil {
		t.Fatal(err)
	}
	l.Enable()
	q := l.Queue("compute.sensor")
	tc := trace.Context{TraceID: 42, SpanID: 7, Parent: 3, Hops: 2, Flags: 1, SentNs: 99}
	q.Append("sensor.out", []byte("one"), tc, 5)
	q.Append("sensor.out", nil, trace.Context{}, 5)
	if err := l.SpillErr(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The spill sees every record — including ones the ring would evict —
	// and round-trips all fields byte-identically.
	want := l.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].QSeq != want[i].QSeq ||
			got[i].Epoch != want[i].Epoch || got[i].From != want[i].From ||
			got[i].To != want[i].To || got[i].Trace != want[i].Trace ||
			!bytes.Equal(got[i].Data, want[i].Data) {
			t.Errorf("record %d: decoded %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestSpillOutlivesRingEviction(t *testing.T) {
	var buf bytes.Buffer
	l := NewLog(16)
	if err := l.SetSpill(&buf); err != nil {
		t.Fatal(err)
	}
	l.Enable()
	q := l.Queue("dst.in")
	for i := 0; i < 50; i++ {
		q.Append("src.out", []byte{byte(i)}, trace.Context{}, 1)
	}
	got, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("spill has %d records, want all 50 (ring retains %d)", len(got), l.Len())
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) || r.Data[0] != byte(i) {
			t.Errorf("spill record %d = %+v", i, r)
		}
	}
}

func TestReadLogRejectsForeignStreams(t *testing.T) {
	if _, err := ReadLog(strings.NewReader("not a spill at all")); err == nil {
		t.Error("garbage accepted")
	}
	var buf bytes.Buffer
	l := NewLog(16)
	if err := l.SetSpill(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Corrupt the magic in place ("mh-record" appears once in the header
	// frame).
	bad := bytes.Replace(raw, []byte(spillMagic), []byte("mh-RECORD"), 1)
	if _, err := ReadLog(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: %v", err)
	}
}

// goldenSpillStream is the spill encoding of two records — one traced, one
// not — captured from the current encoder. It pins the on-disk format: a
// future encoder change that silently breaks old spill files fails here.
const goldenSpillStream = "0000000b096d682d7265636f7264020000002d0101030a73656e736f722e6f75740e636f6d707574652e73656e736f72010904020101f601077061796c6f6164000000210202030a73656e736f722e6f75740e636f6d707574652e73656e736f7200020102"

func TestSpillGoldenBytes(t *testing.T) {
	raw, err := hex.DecodeString(goldenSpillStream)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ReadLog(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("golden spill stream no longer decodes: %v", err)
	}
	want := []Record{
		{Seq: 1, QSeq: 1, Epoch: 3, From: "sensor.out", To: "compute.sensor",
			Trace: trace.Context{TraceID: 9, SpanID: 4, Parent: 2, Hops: 1, Flags: 1, SentNs: 123},
			Data:  []byte("payload")},
		{Seq: 2, QSeq: 2, Epoch: 3, From: "sensor.out", To: "compute.sensor",
			Data: []byte{0x01, 0x02}},
	}
	if !reflect.DeepEqual(recs, want) {
		t.Errorf("golden spill decoded as %+v, want %+v", recs, want)
	}

	// The current encoder still produces the golden bytes for the same
	// append sequence — the format is deterministic, not just readable.
	var buf bytes.Buffer
	l := NewLog(16)
	if err := l.SetSpill(&buf); err != nil {
		t.Fatal(err)
	}
	l.Enable()
	q := l.Queue("compute.sensor")
	q.Append("sensor.out", []byte("payload"), want[0].Trace, 3)
	q.Append("sensor.out", []byte{0x01, 0x02}, trace.Context{}, 3)
	if got := hex.EncodeToString(buf.Bytes()); got != goldenSpillStream {
		t.Errorf("encoder output changed:\n got %s\nwant %s", got, goldenSpillStream)
	}
}

// FuzzReadLog: a spill file is read back from disk by cmd/mhreplay, so
// ReadLog must answer any bytes with records and an error, never a panic or
// an allocation the bytes did not pay for; what it does accept re-encodes to
// a stream that reads back the same.
func FuzzReadLog(f *testing.F) {
	golden, _ := hex.DecodeString(goldenSpillStream)
	f.Add(golden)
	f.Add(golden[:len(golden)-3])                                              // breaks off inside a record
	f.Add(append(append([]byte(nil), golden[:15]...), 0xff, 0xff, 0xff, 0xff)) // a length prefix past MaxFrame
	f.Add([]byte("not a spill at all"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		recs, err := ReadLog(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		l := NewLog(16)
		if err := l.SetSpill(&buf); err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			l.spillRecord(&recs[i])
		}
		again, err := ReadLog(&buf)
		if err != nil || len(again) != len(recs) {
			t.Fatalf("re-encoded stream: %d records, %v; want %d", len(again), err, len(recs))
		}
		for i := range recs {
			if !reflect.DeepEqual(again[i], recs[i]) {
				t.Fatalf("record %d re-read as %+v, want %+v", i, again[i], recs[i])
			}
		}
	})
}

func TestCanonicalRendering(t *testing.T) {
	recs := []Record{
		// Deliberately out of order and carrying run-varying fields (trace,
		// epoch, global seq) that must not leak into the canonical form.
		{Seq: 9, QSeq: 2, Epoch: 4, From: "a.out", To: "z.in", Data: []byte{0xBB},
			Trace: trace.Context{TraceID: 77, SpanID: 5, SentNs: 12345}},
		{Seq: 1, QSeq: 1, Epoch: 2, From: "a.out", To: "z.in", Data: []byte{0xAA}},
		{Seq: 5, QSeq: 1, Epoch: 3, From: "b.out", To: "c.in", Data: []byte("hi")},
	}
	want := "queue c.in (1)\n" +
		"  1 b.out 6869\n" +
		"queue z.in (2)\n" +
		"  1 a.out aa\n" +
		"  2 a.out bb\n"
	if got := Canonical(recs); got != want {
		t.Errorf("canonical =\n%s\nwant\n%s", got, want)
	}
	// Same window, different run-varying fields and slice order: identical
	// rendering — the property the determinism gate relies on.
	perm := []Record{
		{Seq: 3, QSeq: 1, Epoch: 9, From: "b.out", To: "c.in", Data: []byte("hi"),
			Trace: trace.Context{TraceID: 1, SpanID: 1}},
		{Seq: 7, QSeq: 2, Epoch: 9, From: "a.out", To: "z.in", Data: []byte{0xBB}},
		{Seq: 2, QSeq: 1, Epoch: 8, From: "a.out", To: "z.in", Data: []byte{0xAA}},
	}
	if got := Canonical(perm); got != want {
		t.Errorf("canonical is sensitive to run-varying fields:\n%s", got)
	}
}

func TestInputsTo(t *testing.T) {
	recs := []Record{
		{Seq: 3, To: "compute.sensor", From: "sensor.out"},
		{Seq: 1, To: "compute.display", From: "display.temper"},
		{Seq: 2, To: "display.temper", From: "compute.display"},
		{Seq: 4, To: "compute2.display", From: "display.temper"},
	}
	got := InputsTo(recs, "compute")
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 3 {
		t.Errorf("inputs = %+v", got)
	}
	if InputsTo(recs, "nobody") != nil {
		t.Error("unknown instance has inputs")
	}
}

func TestOutputsOfSpanDedup(t *testing.T) {
	// One traced send fanning out to two queues (same span), then a second
	// send: two outputs.
	recs := []Record{
		{Seq: 1, From: "f.out", To: "a.in", Data: []byte("x"), Trace: trace.Context{TraceID: 1, SpanID: 10}},
		{Seq: 2, From: "f.out", To: "b.in", Data: []byte("x"), Trace: trace.Context{TraceID: 1, SpanID: 10}},
		{Seq: 3, From: "f.out", To: "a.in", Data: []byte("y"), Trace: trace.Context{TraceID: 1, SpanID: 11}},
	}
	got := OutputsOf(recs, "f")
	want := []Output{{Iface: "out", Data: []byte("x")}, {Iface: "out", Data: []byte("y")}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("outputs = %+v, want %+v", got, want)
	}

	// Untraced bus: consecutive identical records collapse, identical but
	// separated records do not.
	recs = []Record{
		{Seq: 1, From: "f.out", To: "a.in", Data: []byte("x")},
		{Seq: 2, From: "f.out", To: "b.in", Data: []byte("x")},
		{Seq: 3, From: "f.out", To: "a.in", Data: []byte("y")},
		{Seq: 4, From: "f.out", To: "a.in", Data: []byte("x")},
	}
	got = OutputsOf(recs, "f")
	want = []Output{
		{Iface: "out", Data: []byte("x")},
		{Iface: "out", Data: []byte("y")},
		{Iface: "out", Data: []byte("x")},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("untraced outputs = %+v, want %+v", got, want)
	}
}

func TestDiffOutputs(t *testing.T) {
	a := Output{Iface: "out", Data: []byte("a")}
	b := Output{Iface: "out", Data: []byte("b")}
	c := Output{Iface: "ctl", Data: []byte("a")}
	cases := []struct {
		name      string
		want, got []Output
		kind      string
		index     int
	}{
		{"match", []Output{a, b}, []Output{a, b}, "", 0},
		{"empty", nil, nil, "", 0},
		{"payload", []Output{a}, []Output{b}, "payload", 0},
		{"iface", []Output{a}, []Output{c}, "iface", 0},
		{"missing", []Output{a, b}, []Output{a}, "missing", 1},
		{"extra", []Output{a}, []Output{a, b}, "extra", 1},
	}
	for _, tc := range cases {
		d := DiffOutputs(tc.want, tc.got)
		if tc.kind == "" {
			if d != nil {
				t.Errorf("%s: unexpected divergence %v", tc.name, d)
			}
			continue
		}
		if d == nil || d.Kind != tc.kind || d.Index != tc.index {
			t.Errorf("%s: divergence = %+v, want kind=%s index=%d", tc.name, d, tc.kind, tc.index)
		}
		if d.String() == "" {
			t.Errorf("%s: empty rendering", tc.name)
		}
	}
	if (*Divergence)(nil).String() != "outputs match" {
		t.Error("nil divergence rendering")
	}
}

// TestConcurrentAppendSharedHandle: an endpoint re-registered under the
// same name shares its handle with the predecessor's still-draining queue,
// so appends to one handle can run under two different queue locks. The
// carving must hold up on its own: every retained payload is whole, and no
// two records share bytes.
func TestConcurrentAppendSharedHandle(t *testing.T) {
	const writers, per = 4, 3000
	l := NewLog(writers * per)
	l.Enable()
	q := l.Queue("dst.in")
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() { //archlint:spawn test writer; joined via wg below
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Append("src.out", bytes.Repeat([]byte{byte(w + 1)}, 1+i%97), trace.Context{}, 1)
			}
		}()
	}
	wg.Wait()
	recs := l.Snapshot()
	if len(recs) != writers*per {
		t.Fatalf("retained %d records, want %d", len(recs), writers*per)
	}
	for _, r := range recs {
		if len(r.Data) == 0 || !bytes.Equal(r.Data, bytes.Repeat(r.Data[:1], len(r.Data))) {
			t.Fatalf("record %d: payload torn across writers: %x", r.Seq, r.Data)
		}
		for i := range r.Data {
			r.Data[i] = 0 // a byte shared with a later record fails its check above
		}
	}
}

func TestConcurrentAppendSnapshot(t *testing.T) {
	l := NewLog(64)
	l.Enable()
	done := make(chan struct{})
	go func() { //archlint:spawn test writer; joined via done below
		defer close(done)
		q := l.Queue("dst.in")
		for i := 0; i < 500; i++ {
			q.Append("src.out", []byte{byte(i)}, trace.Context{}, 1)
		}
	}()
	for i := 0; i < 50; i++ {
		for _, r := range l.Snapshot() {
			if r.Seq == 0 || len(r.Data) != 1 {
				t.Fatalf("torn record %+v", r)
			}
		}
		l.QueueSeqs()
		l.MemoryBound()
	}
	<-done
	if l.Recorded() != 500 {
		t.Errorf("recorded = %d, want 500", l.Recorded())
	}
}
