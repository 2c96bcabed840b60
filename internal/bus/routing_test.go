package bus

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/replay"
)

// TestConcurrentRebindVsSend hammers the lock-free write path from 16
// goroutines while a reconfigurer keeps flipping every sender's binding
// between two receivers (del+add per sender plus a cq carrying the queued
// backlog across, the Figure-5 shape of a replacement rebind). It asserts
// the refactor's two hot-path guarantees:
//
//   - exactly-once: every message lands at exactly one receiver exactly
//     once, no matter how many snapshot flips it races;
//   - epoch fencing: each Rebind publishes a strictly newer snapshot, and
//     after the final flip no message can reach the stale receiver — its
//     queue stays empty while fresh traffic lands at the current one.
func TestConcurrentRebindVsSend(t *testing.T) {
	const (
		senders   = 16
		perSender = 500
		flips     = 40 // even, so traffic ends bound to r1
	)
	b := New()
	receivers := []string{"r1", "r2"}
	for _, r := range receivers {
		if err := b.AddInstance(InstanceSpec{Name: r, Interfaces: []IfaceSpec{{Name: "in", Dir: In}}}); err != nil {
			t.Fatal(err)
		}
	}
	sendNames := make([]string, senders)
	for i := range sendNames {
		sendNames[i] = fmt.Sprintf("s%d", i)
		if err := b.AddInstance(InstanceSpec{Name: sendNames[i], Interfaces: []IfaceSpec{{Name: "out", Dir: Out}}}); err != nil {
			t.Fatal(err)
		}
		if err := b.AddBinding(Endpoint{Instance: sendNames[i], Interface: "out"}, Endpoint{Instance: "r1", Interface: "in"}); err != nil {
			t.Fatal(err)
		}
	}
	atts := make([]*Attachment, senders)
	for i, n := range sendNames {
		a, err := b.Attach(n)
		if err != nil {
			t.Fatal(err)
		}
		atts[i] = a
	}
	sinks := make([]*Attachment, len(receivers))
	for i, r := range receivers {
		a, err := b.Attach(r)
		if err != nil {
			t.Fatal(err)
		}
		sinks[i] = a
	}

	// Senders: every message encodes (sender, seq). The topology always
	// binds each sender to exactly one receiver, so Write must never fail —
	// a racing flip only reroutes it through the slow path.
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(id int, a *Attachment) {
			defer wg.Done()
			payload := make([]byte, 8)
			binary.BigEndian.PutUint32(payload[0:4], uint32(id))
			for seq := 0; seq < perSender; seq++ {
				binary.BigEndian.PutUint32(payload[4:8], uint32(seq))
				if err := a.Write("out", payload); err != nil {
					t.Errorf("sender %d seq %d: %v", id, seq, err)
					return
				}
				payload = make([]byte, 8)
				binary.BigEndian.PutUint32(payload[0:4], uint32(id))
			}
		}(i, atts[i])
	}

	// Reconfigurer: flip all senders r1 <-> r2 in one atomic batch, with a
	// cq carrying the backlog. Every publish must advance the epoch.
	flipDone := make(chan struct{})
	go func() {
		defer close(flipDone)
		last := b.Routing().Version()
		for f := 0; f < flips; f++ {
			oldR, newR := receivers[f%2], receivers[(f+1)%2]
			edits := make([]BindEdit, 0, senders*2+1)
			for _, s := range sendNames {
				edits = append(edits,
					BindEdit{Op: "del", From: Endpoint{Instance: s, Interface: "out"}, To: Endpoint{Instance: oldR, Interface: "in"}},
					BindEdit{Op: "add", From: Endpoint{Instance: s, Interface: "out"}, To: Endpoint{Instance: newR, Interface: "in"}},
				)
			}
			edits = append(edits, BindEdit{Op: "cq", From: Endpoint{Instance: oldR, Interface: "in"}, To: Endpoint{Instance: newR, Interface: "in"}})
			if err := b.Rebind(edits); err != nil {
				t.Errorf("flip %d: %v", f, err)
				return
			}
			if v := b.Routing().Version(); v <= last {
				t.Errorf("flip %d: snapshot version did not advance (%d -> %d)", f, last, v)
				return
			} else {
				last = v
			}
		}
	}()

	// Collector: poll both receivers until every message is accounted for.
	seen := make(map[uint64]int, senders*perSender)
	total := 0
	deadline := time.Now().Add(30 * time.Second)
	for total < senders*perSender {
		if time.Now().After(deadline) {
			t.Fatalf("collector timed out: %d/%d messages", total, senders*perSender)
		}
		progressed := false
		for _, sink := range sinks {
			for {
				m, ok, err := sink.TryRead("in")
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				key := binary.BigEndian.Uint64(m.Data)
				seen[key]++
				total++
				progressed = true
			}
		}
		if !progressed {
			runtime.Gosched() // a spinning collector, as the senders spin
		}
	}
	wg.Wait()
	<-flipDone
	if t.Failed() {
		t.FailNow()
	}
	for key, n := range seen {
		if n != 1 {
			t.Fatalf("message sender=%d seq=%d delivered %d times", key>>32, key&0xffffffff, n)
		}
	}
	if len(seen) != senders*perSender {
		t.Fatalf("expected %d distinct messages, got %d", senders*perSender, len(seen))
	}

	// Epoch check: flips ended with everything bound to r1. A final round
	// of markers must land only at r1; the stale receiver's queue stays
	// empty — no write that raced the last flip may have leaked there.
	for qn := 0; ; qn++ {
		n, err := sinks[1].Pending("in")
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("stale receiver r2 holds %d messages after final rebind", n)
		}
		if qn == 1 {
			break
		}
		for i, a := range atts {
			marker := make([]byte, 8)
			binary.BigEndian.PutUint32(marker[0:4], uint32(i))
			binary.BigEndian.PutUint32(marker[4:8], uint32(perSender))
			if err := a.Write("out", marker); err != nil {
				t.Fatalf("marker write %d: %v", i, err)
			}
		}
		for got := 0; got < senders; {
			m, err := sinks[0].Read("in")
			if err != nil {
				t.Fatal(err)
			}
			if binary.BigEndian.Uint32(m.Data[4:8]) != perSender {
				t.Fatalf("unexpected non-marker message after drain: %x", m.Data)
			}
			got++
		}
	}
}

// TestConcurrentRebindVsSendBatched is the batched-sender arm of the race
// above: 16 goroutines push their traffic through SendBatch (8-message
// batches share one ring-claim loop and, per batch element, race the same
// epoch fences the single-message path does) while the reconfigurer keeps
// flipping every binding. With recording enabled it asserts, beyond
// exactly-once:
//
//   - per-queue recorded order is drained order: the consumer-drain record
//     hook must serialize with batched producers, so each sink's record
//     sequence equals the byte sequence TryRead observed, gapless;
//   - epoch fencing holds for whole batches: after the final flip a batch
//     from every sender lands only at the current receiver.
func TestConcurrentRebindVsSendBatched(t *testing.T) {
	const (
		senders   = 16
		batchSize = 8
		batches   = 64 // perSender = 512
		flips     = 40 // even, so traffic ends bound to r1
	)
	perSender := batchSize * batches
	b := New(WithRecorder(2*senders*perSender, 0))
	log := b.Recorder()
	log.Enable()
	receivers := []string{"r1", "r2"}
	for _, r := range receivers {
		if err := b.AddInstance(InstanceSpec{Name: r, Interfaces: []IfaceSpec{{Name: "in", Dir: In}}}); err != nil {
			t.Fatal(err)
		}
	}
	sendNames := make([]string, senders)
	for i := range sendNames {
		sendNames[i] = fmt.Sprintf("s%d", i)
		if err := b.AddInstance(InstanceSpec{Name: sendNames[i], Interfaces: []IfaceSpec{{Name: "out", Dir: Out}}}); err != nil {
			t.Fatal(err)
		}
		if err := b.AddBinding(Endpoint{Instance: sendNames[i], Interface: "out"}, Endpoint{Instance: "r1", Interface: "in"}); err != nil {
			t.Fatal(err)
		}
	}
	atts := make([]*Attachment, senders)
	for i, n := range sendNames {
		atts[i] = attach(t, b, n)
	}
	sinks := make([]*Attachment, len(receivers))
	for i, r := range receivers {
		sinks[i] = attach(t, b, r)
	}

	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(id int, a *Attachment) { //archlint:spawn test sender; joined via wg below
			defer wg.Done()
			for bn := 0; bn < batches; bn++ {
				batch := make([][]byte, batchSize)
				for j := range batch {
					p := make([]byte, 8)
					binary.BigEndian.PutUint32(p[0:4], uint32(id))
					binary.BigEndian.PutUint32(p[4:8], uint32(bn*batchSize+j))
					batch[j] = p
				}
				if err := a.SendBatch("out", batch); err != nil {
					t.Errorf("sender %d batch %d: %v", id, bn, err)
					return
				}
			}
		}(i, atts[i])
	}

	flipDone := make(chan struct{})
	go func() { //archlint:spawn test reconfigurer; joined via flipDone below
		defer close(flipDone)
		for f := 0; f < flips; f++ {
			oldR, newR := receivers[f%2], receivers[(f+1)%2]
			edits := make([]BindEdit, 0, senders*2+1)
			for _, s := range sendNames {
				edits = append(edits,
					BindEdit{Op: "del", From: Endpoint{Instance: s, Interface: "out"}, To: Endpoint{Instance: oldR, Interface: "in"}},
					BindEdit{Op: "add", From: Endpoint{Instance: s, Interface: "out"}, To: Endpoint{Instance: newR, Interface: "in"}},
				)
			}
			edits = append(edits, BindEdit{Op: "cq", From: Endpoint{Instance: oldR, Interface: "in"}, To: Endpoint{Instance: newR, Interface: "in"}})
			if err := b.Rebind(edits); err != nil {
				t.Errorf("flip %d: %v", f, err)
				return
			}
		}
	}()

	// Collector: drain both sinks, remembering each sink's byte-level
	// drain order for the record comparison.
	seen := make(map[uint64]int, senders*perSender)
	drained := make([][]string, len(receivers))
	total := 0
	deadline := time.Now().Add(30 * time.Second)
	for total < senders*perSender {
		if time.Now().After(deadline) {
			t.Fatalf("collector timed out: %d/%d messages", total, senders*perSender)
		}
		progressed := false
		for si, sink := range sinks {
			for {
				m, ok, err := sink.TryRead("in")
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				seen[binary.BigEndian.Uint64(m.Data)]++
				drained[si] = append(drained[si], string(m.Data))
				total++
				progressed = true
			}
		}
		if !progressed {
			runtime.Gosched() // a spinning collector, as the senders spin
		}
	}
	wg.Wait()
	<-flipDone
	if t.Failed() {
		t.FailNow()
	}
	for key, n := range seen {
		if n != 1 {
			t.Fatalf("message sender=%d seq=%d delivered %d times", key>>32, key&0xffffffff, n)
		}
	}
	if len(seen) != senders*perSender {
		t.Fatalf("expected %d distinct messages, got %d", senders*perSender, len(seen))
	}

	// Recorded-order == drained-order, per destination queue. The record
	// hook runs at consumption, so each sink's record sequence must be
	// byte-identical to what its TryRead loop observed, with gapless QSeq.
	snap := log.Snapshot()
	for si, r := range receivers {
		recs := replay.InputsTo(snap, r)
		if len(recs) != len(drained[si]) {
			t.Fatalf("%s: recorded %d deliveries, drained %d", r, len(recs), len(drained[si]))
		}
		for i, rec := range recs {
			if rec.QSeq != uint64(i+1) {
				t.Fatalf("%s record %d: qseq=%d, want gapless %d", r, i, rec.QSeq, i+1)
			}
			if string(rec.Data) != drained[si][i] {
				t.Fatalf("%s record %d: recorded order diverges from drained order", r, i)
			}
		}
	}

	// Epoch check: a post-flip batch from every sender lands only at r1.
	for i, a := range atts {
		batch := make([][]byte, batchSize)
		for j := range batch {
			p := make([]byte, 8)
			binary.BigEndian.PutUint32(p[0:4], uint32(i))
			binary.BigEndian.PutUint32(p[4:8], uint32(perSender+j))
			batch[j] = p
		}
		if err := a.SendBatch("out", batch); err != nil {
			t.Fatalf("marker batch %d: %v", i, err)
		}
	}
	for got := 0; got < senders*batchSize; got++ {
		if _, err := sinks[0].Read("in"); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := sinks[1].Pending("in"); err != nil || n != 0 {
		t.Fatalf("stale receiver r2 holds %d messages after final rebind (err=%v)", n, err)
	}
}
