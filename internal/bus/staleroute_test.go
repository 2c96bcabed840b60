package bus

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStaleWriterAcrossRebindAndDelete is the regression for the
// pushRouted check order: writers run flat out while the receiving
// endpoint is replaced over and over the way a Replace commits — Rebind
// with a queue move, then DeleteInstance of the old receiver. A writer
// descheduled between its routing-snapshot load and its slot claim reaches
// the old queue fenced AND closed; it must re-route through the slow path
// (errStaleRoute), not have ErrQueueClosed swallowed as "receiver gone".
// Every acknowledged write must be delivered exactly once.
func TestStaleWriterAcrossRebindAndDelete(t *testing.T) {
	for _, batch := range []int{1, 16} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) { staleWriterRun(t, batch) })
	}
}

func staleWriterRun(t *testing.T, batch int) {
	const (
		writers  = 16
		minFlips = 500
		minRun   = time.Second // several scheduler timeslices, so writers get preempted mid-write
		window   = 1024        // undelivered messages allowed: Rebind's rollback snapshot walks the live queue and must be able to catch up
	)
	b := New()
	defer b.Close()
	sinkSpec := func(name string) InstanceSpec {
		return InstanceSpec{Name: name, Interfaces: []IfaceSpec{{Name: "in", Dir: In}}}
	}
	if err := b.AddInstance(sinkSpec("sink0")); err != nil {
		t.Fatal(err)
	}
	outs := make([]*Attachment, writers)
	for w := range outs {
		name := fmt.Sprintf("w%d", w)
		if err := b.AddInstance(InstanceSpec{Name: name, Interfaces: []IfaceSpec{{Name: "out", Dir: Out}}}); err != nil {
			t.Fatal(err)
		}
		if err := b.AddBinding(Endpoint{name, "out"}, Endpoint{"sink0", "in"}); err != nil {
			t.Fatal(err)
		}
		att, err := b.Attach(name)
		if err != nil {
			t.Fatal(err)
		}
		outs[w] = att
	}
	first, err := b.Attach("sink0")
	if err != nil {
		t.Fatal(err)
	}

	// The reader follows the receiver across replacements: DeleteInstance
	// wakes it with an error on the old attachment, the flipper has already
	// queued the successor.
	next := make(chan *Attachment, 1)
	seen := make([][]uint8, writers) // delivery count per (writer, seq); reader-owned until readerDone
	var got atomic.Int64
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		att := first
		for {
			m, err := att.Read("in")
			if err != nil {
				var ok bool
				if att, ok = <-next; !ok {
					return
				}
				continue
			}
			w, seq := binary.BigEndian.Uint32(m.Data), binary.BigEndian.Uint32(m.Data[4:])
			for uint32(len(seen[w])) <= seq {
				seen[w] = append(seen[w], 0)
			}
			seen[w][seq]++
			got.Add(1)
		}
	}()

	var stop atomic.Bool
	var issued atomic.Int64
	sent := make([]uint32, writers)
	var wg sync.WaitGroup
	for w := range outs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var seq uint32
			for !stop.Load() {
				if issued.Load()-got.Load() > window {
					runtime.Gosched()
					continue
				}
				issued.Add(int64(batch))
				msgs := make([][]byte, batch)
				for i := range msgs {
					msgs[i] = make([]byte, 8)
					binary.BigEndian.PutUint32(msgs[i], uint32(w))
					binary.BigEndian.PutUint32(msgs[i][4:], seq+uint32(i))
				}
				var err error
				if batch == 1 {
					err = outs[w].Write("out", msgs[0])
				} else {
					err = outs[w].SendBatch("out", msgs)
				}
				if err != nil {
					t.Errorf("writer %d at seq %d: %v", w, seq, err)
					break
				}
				seq += uint32(batch)
			}
			sent[w] = seq
		}(w)
	}

	cur := "sink0"
	start := time.Now()
	for k := 1; k <= minFlips || time.Since(start) < minRun; k++ {
		nextName := fmt.Sprintf("sink%d", k)
		if err := b.AddInstance(sinkSpec(nextName)); err != nil {
			t.Fatal(err)
		}
		att, err := b.Attach(nextName)
		if err != nil {
			t.Fatal(err)
		}
		oldIn, newIn := Endpoint{cur, "in"}, Endpoint{nextName, "in"}
		var edits []BindEdit
		for w := range outs {
			out := Endpoint{fmt.Sprintf("w%d", w), "out"}
			edits = append(edits, BindEdit{Op: "del", From: out, To: oldIn}, BindEdit{Op: "add", From: out, To: newIn})
		}
		edits = append(edits, BindEdit{Op: "cq", From: oldIn, To: newIn})
		if err := b.Rebind(edits); err != nil {
			t.Fatalf("flip %d: %v", k, err)
		}
		next <- att
		if err := b.DeleteInstance(cur); err != nil {
			t.Fatalf("flip %d: %v", k, err)
		}
		cur = nextName
	}
	stop.Store(true)
	wg.Wait()

	var total int64
	for _, n := range sent {
		total += int64(n)
	}
	for deadline := time.Now().Add(3 * time.Second); got.Load() < total && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(next)
	if err := b.DeleteInstance(cur); err != nil {
		t.Fatal(err)
	}
	<-readerDone

	lost, dup := 0, 0
	for w, n := range sent {
		for seq := uint32(0); seq < n; seq++ {
			switch {
			case int(seq) >= len(seen[w]) || seen[w][seq] == 0:
				lost++
			case seen[w][seq] > 1:
				dup++
			}
		}
	}
	if lost != 0 || dup != 0 {
		t.Errorf("%d acknowledged writes: %d lost, %d duplicated", total, lost, dup)
	}
}
