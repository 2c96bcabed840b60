package bus

// Recording tests: the bus appends every consumed message to the record
// ring from the destination queue's consumer drain (pop/tryPop), where
// slot-claim order is delivery order, so the recorded per-queue sequence is
// the queue's true delivery order. These tests pin that invariant plus the
// payload-fidelity and epoch-stamping properties the replay subsystem
// depends on.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/replay"
)

func recordedBus(t *testing.T, capacity int) (*Bus, *replay.Log) {
	t.Helper()
	log := replay.NewLog(capacity)
	log.Enable()
	b := New(WithRecorder(log))
	for _, spec := range []InstanceSpec{
		{Name: "src", Module: "srcmod", Interfaces: []IfaceSpec{{Name: "out", Dir: Out}}},
		{Name: "dst", Module: "dstmod", Interfaces: []IfaceSpec{{Name: "in", Dir: In}}},
	} {
		if err := b.AddInstance(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddBinding(Endpoint{"src", "out"}, Endpoint{"dst", "in"}); err != nil {
		t.Fatal(err)
	}
	return b, log
}

// TestRecordMatchesDeliveryOrder sends from concurrent writers and asserts
// the recorded QSeq order is exactly the order the receiver reads — the
// core guarantee of recording under the queue lock.
func TestRecordMatchesDeliveryOrder(t *testing.T) {
	b, log := recordedBus(t, 4096)
	src := attach(t, b, "src")
	dst := attach(t, b, "dst")

	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) { //archlint:spawn test writer; joined via wg below
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := src.Write("out", []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	var read []string
	for i := 0; i < writers*perWriter; i++ {
		m, err := dst.Read("in")
		if err != nil {
			t.Fatal(err)
		}
		read = append(read, string(m.Data))
	}

	recs := replay.InputsTo(log.Snapshot(), "dst")
	if len(recs) != len(read) {
		t.Fatalf("recorded %d deliveries, read %d", len(recs), len(read))
	}
	for i, r := range recs {
		if r.QSeq != uint64(i+1) {
			t.Fatalf("record %d: qseq=%d, want gapless %d", i, r.QSeq, i+1)
		}
		if string(r.Data) != read[i] {
			t.Fatalf("record %d: recorded %q, receiver read %q — recorded order diverges from delivery order",
				i, r.Data, read[i])
		}
		if r.From != "src.out" || r.To != "dst.in" {
			t.Errorf("record %d endpoints: %s -> %s", i, r.From, r.To)
		}
	}
}

// TestRecordPayloadAndEpoch pins payload byte-fidelity, the routing-epoch
// stamp, and the trace context carried on each record.
func TestRecordPayloadAndEpoch(t *testing.T) {
	b, log := recordedBus(t, 64)
	src := attach(t, b, "src")
	dst := attach(t, b, "dst")

	payload := []byte{0x00, 0xFF, 0x7F, 'g', 'o', 'b'}
	if err := src.Write("out", payload); err != nil {
		t.Fatal(err)
	}
	m, err := dst.Read("in")
	if err != nil {
		t.Fatal(err)
	}
	recs := log.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("recorded %d, want 1", len(recs))
	}
	r := recs[0]
	if string(r.Data) != string(m.Data) || string(r.Data) != string(payload) {
		t.Errorf("recorded payload %x, delivered %x, sent %x", r.Data, m.Data, payload)
	}
	if r.Epoch != b.Stats().SnapshotVersion {
		t.Errorf("recorded epoch %d, routing snapshot version %d", r.Epoch, b.Stats().SnapshotVersion)
	}
	if r.Trace != m.Trace {
		t.Errorf("recorded trace %+v, delivered trace %+v", r.Trace, m.Trace)
	}
	if !r.Trace.Valid() {
		t.Error("bus did not stamp a trace context on the recorded delivery")
	}
	if r.From != "src.out" || r.To != "dst.in" {
		t.Errorf("recorded endpoints %s -> %s, want src.out -> dst.in", r.From, r.To)
	}
	// The record owns its bytes: neither the writer's buffer nor the slice
	// the reader was handed reaches them.
	payload[0], m.Data[1] = 0xAA, 0xBB
	if got := log.Snapshot()[0].Data; string(got) != "\x00\xff\x7fgob" {
		t.Errorf("recorded payload changed to %x under the writer's or the reader's hands", got)
	}
}

// TestRecordDisabledAndNil: a disabled log records nothing; a bus without
// a recorder delivers normally.
func TestRecordDisabledAndNil(t *testing.T) {
	b, log := recordedBus(t, 64)
	src := attach(t, b, "src")
	dst := attach(t, b, "dst")
	log.Disable()
	if err := src.Write("out", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Read("in"); err != nil {
		t.Fatal(err)
	}
	if log.Recorded() != 0 {
		t.Errorf("disabled log recorded %d", log.Recorded())
	}
	log.Enable()
	if err := src.Write("out", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if log.Recorded() != 0 {
		t.Errorf("log recorded %d undelivered messages", log.Recorded())
	}
	if _, err := dst.Read("in"); err != nil {
		t.Fatal(err)
	}
	if log.Recorded() != 1 {
		t.Errorf("re-enabled log recorded %d, want 1", log.Recorded())
	}

	// No recorder configured: Recorder() is nil and delivery works.
	plain := testBus(t)
	if plain.Recorder() != nil {
		t.Error("unconfigured bus reports a recorder")
	}
	s := attach(t, plain, "sensor")
	c := attach(t, plain, "compute")
	if err := s.Write("out", []byte("z")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read("sensor"); err != nil {
		t.Fatal(err)
	}
}

// TestRecordGroupDeliveries: fan-in to a replica group records each
// consumed delivery against the member queue that actually served it, and
// the redistributed backlog of a removed member is recorded — once, at the
// survivor that eventually consumes it, never at the abandoned member.
func TestRecordGroupDeliveries(t *testing.T) {
	log := replay.NewLog(4096)
	log.Enable()
	b := New(WithRecorder(log))
	shape := []IfaceSpec{{Name: "in", Dir: In}, {Name: "out", Dir: Out}}
	if err := b.AddGroup("pool", PolicyRoundRobin, shape); err != nil {
		t.Fatal(err)
	}
	members := []string{"pool.1", "pool.2"}
	for _, m := range members {
		if err := b.AddInstance(InstanceSpec{Name: m, Interfaces: shape}); err != nil {
			t.Fatal(err)
		}
		if err := b.AddGroupMember("pool", m); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddInstance(InstanceSpec{Name: "feeder", Interfaces: []IfaceSpec{{Name: "out", Dir: Out}}}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddBinding(Endpoint{"feeder", "out"}, Endpoint{"pool", "in"}); err != nil {
		t.Fatal(err)
	}
	feeder := attach(t, b, "feeder")
	m1 := attach(t, b, "pool.1")
	m2 := attach(t, b, "pool.2")
	const n = 10
	for i := 0; i < n; i++ {
		if err := feeder.Write("out", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Round robin splits the fan-in evenly; consume each member's share so
	// the consumer-side hook records it.
	for i := 0; i < n/2; i++ {
		if _, err := m1.Read("in"); err != nil {
			t.Fatal(err)
		}
		if _, err := m2.Read("in"); err != nil {
			t.Fatal(err)
		}
	}
	perMember := map[string]int{}
	for _, r := range log.Snapshot() {
		perMember[r.To]++
	}
	if perMember["pool.1.in"]+perMember["pool.2.in"] != n {
		t.Errorf("group deliveries recorded = %+v, want %d total", perMember, n)
	}
	if perMember["pool.1.in"] == 0 || perMember["pool.2.in"] == 0 {
		t.Errorf("roundrobin fan-in not visible in records: %+v", perMember)
	}

	// Queue a backlog on both members, then remove pool.2: its unconsumed
	// messages redistribute to the survivor and are recorded when the
	// survivor consumes them — exactly once each, against pool.1.
	const backlog = 4
	for i := 0; i < backlog; i++ {
		if err := feeder.Write("out", []byte{byte(n + i)}); err != nil {
			t.Fatal(err)
		}
	}
	before := len(replay.InputsTo(log.Snapshot(), "pool.1"))
	if err := b.RemoveGroupMember("pool", "pool.2"); err != nil {
		t.Fatal(err)
	}
	if got := len(replay.InputsTo(log.Snapshot(), "pool.1")); got != before {
		t.Errorf("redistribution alone recorded %d deliveries before consumption", got-before)
	}
	for i := 0; i < backlog; i++ {
		if _, err := m1.Read("in"); err != nil {
			t.Fatal(err)
		}
	}
	after := len(replay.InputsTo(log.Snapshot(), "pool.1"))
	if after-before != backlog {
		t.Errorf("survivor recorded %d redistributed deliveries, want %d", after-before, backlog)
	}
	if got := len(replay.InputsTo(log.Snapshot(), "pool.2")); got != n/2 {
		t.Errorf("removed member records grew after removal: %d, want %d", got, n/2)
	}
}
