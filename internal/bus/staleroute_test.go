package bus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
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

// commitWorld is the topology the commit tests edit: a writer src, two plain
// receivers a and b, and a replica group g over m1 and m2 with m3 standing
// by. queues holds every receiving queue by instance name, so a test can
// look inside one after its instance is gone.
type commitWorld struct {
	b      *Bus
	src    *Attachment
	queues map[string]*msgQueue
}

func newCommitWorld(t *testing.T, targets ...string) *commitWorld {
	t.Helper()
	w := &commitWorld{b: New(), queues: map[string]*msgQueue{}}
	t.Cleanup(w.b.Close)
	in := []IfaceSpec{{Name: "in", Dir: In}}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.b.AddInstance(InstanceSpec{Name: "src", Interfaces: []IfaceSpec{{Name: "out", Dir: Out}}}))
	for _, name := range []string{"a", "b", "m1", "m2", "m3"} {
		must(w.b.AddInstance(InstanceSpec{Name: name, Interfaces: in}))
		ifc, err := w.b.routing.Load().lookup(Endpoint{name, "in"})
		must(err)
		w.queues[name] = ifc.queue
	}
	must(w.b.AddGroup("g", PolicyRoundRobin, in))
	must(w.b.AddGroupMember("g", "m1"))
	must(w.b.AddGroupMember("g", "m2"))
	for _, to := range targets {
		must(w.b.AddBinding(Endpoint{"src", "out"}, Endpoint{to, "in"}))
	}
	var err error
	w.src, err = w.b.Attach("src")
	must(err)
	return w
}

// queued empties every receiving queue and reports what each held, in order.
func (w *commitWorld) queued() map[string][]string {
	got := map[string][]string{}
	for name, q := range w.queues {
		for _, m := range q.drain() {
			got[name] = append(got[name], string(m.Data))
		}
	}
	return got
}

// TestStaleRouteAcrossEveryTopologyChange holds a route resolved before a
// topology change and writes on it after, once for every method that
// changes the topology. All of them commit through editLocked, so all of
// them must give the same answer: the message arrives exactly once, where
// the successor topology (or, for a change that takes nothing away, either
// topology) sends it, behind whatever a queue transfer carried there; a
// write left with no receiver reports ErrUnbound and lands nowhere. The two
// "del" rows are the same edit against an instance and against a replica
// group — the group form fenced nothing before the commit fenced by endpoint.
func TestStaleRouteAcrossEveryTopologyChange(t *testing.T) {
	ep := func(inst string) Endpoint { return Endpoint{inst, "in"} }
	out := Endpoint{"src", "out"}
	rebind := func(edits ...BindEdit) func(*Bus) error {
		return func(b *Bus) error { return b.Rebind(edits) }
	}
	rows := []struct {
		name    string
		targets []string // src.out's bindings, in creation order
		queued  int      // messages q0, q1, ... written before the route is taken
		change  func(*Bus) error
		wantErr error
		want    map[string][]string
	}{
		{name: "rebind add", targets: []string{"a"},
			change: rebind(BindEdit{Op: "add", From: out, To: ep("b")}),
			want:   map[string][]string{"a": {"stale"}}},
		{name: "rebind del, instance", targets: []string{"a"},
			change:  rebind(BindEdit{Op: "del", From: out, To: ep("a")}),
			wantErr: ErrUnbound, want: map[string][]string{}},
		{name: "rebind del, group", targets: []string{"g"},
			change:  rebind(BindEdit{Op: "del", From: out, To: ep("g")}),
			wantErr: ErrUnbound, want: map[string][]string{}},
		{name: "delete binding", targets: []string{"a", "b"},
			change: func(b *Bus) error { return b.DeleteBinding(out, ep("a")) },
			want:   map[string][]string{"b": {"stale"}}},
		{name: "rebind del add cq", targets: []string{"a"}, queued: 2,
			change: rebind(BindEdit{Op: "del", From: out, To: ep("a")}, BindEdit{Op: "add", From: out, To: ep("b")},
				BindEdit{Op: "cq", From: ep("a"), To: ep("b")}),
			want: map[string][]string{"b": {"q0", "q1", "stale"}}},
		{name: "rebind cq", targets: []string{"a"}, queued: 1,
			change: rebind(BindEdit{Op: "cq", From: ep("a"), To: ep("b")}),
			want:   map[string][]string{"a": {"stale"}, "b": {"q0"}}},
		{name: "rebind rmq", targets: []string{"a"}, queued: 2,
			change: rebind(BindEdit{Op: "rmq", From: ep("a")}),
			want:   map[string][]string{"a": {"stale"}}},
		{name: "drain queue", targets: []string{"a"}, queued: 2,
			change: func(b *Bus) error {
				n, err := b.DrainQueue(ep("a"))
				if err == nil && n != 2 {
					err = fmt.Errorf("DrainQueue discarded %d messages, want 2", n)
				}
				return err
			},
			want: map[string][]string{"a": {"stale"}}},
		{name: "delete instance, first target", targets: []string{"a", "b"}, queued: 1,
			change: func(b *Bus) error { return b.DeleteInstance("a") },
			want:   map[string][]string{"a": {"q0"}, "b": {"q0", "stale"}}},
		{name: "delete instance, second target", targets: []string{"b", "a"}, queued: 1,
			change: func(b *Bus) error { return b.DeleteInstance("a") },
			want:   map[string][]string{"a": {"q0"}, "b": {"q0", "stale"}}},
		{name: "add group member", targets: []string{"g"},
			change: func(b *Bus) error { return b.AddGroupMember("g", "m3") },
			want:   map[string][]string{"m1": {"stale"}}},
		{name: "remove group member", targets: []string{"g"}, queued: 2,
			change: func(b *Bus) error { return b.RemoveGroupMember("g", "m1") },
			want:   map[string][]string{"m2": {"q1", "q0", "stale"}}},
		{name: "remove last group member", targets: []string{"g"}, queued: 2,
			change: func(b *Bus) error {
				if err := b.RemoveGroupMember("g", "m2"); err != nil {
					return err
				}
				return b.RemoveGroupMember("g", "m1")
			},
			wantErr: ErrUnbound, want: map[string][]string{"m1": {"q0", "q1"}}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			w := newCommitWorld(t, row.targets...)
			for i := 0; i < row.queued; i++ {
				if err := w.src.Write("out", []byte(fmt.Sprintf("q%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			r, err := w.b.routeOf(new(atomic.Pointer[route]), out)
			if err != nil {
				t.Fatal(err)
			}
			if err := row.change(w.b); err != nil {
				t.Fatal(err)
			}
			rest, err := w.b.writeRouted(r, [][]byte{[]byte("stale")}, TraceContext{})
			if !errors.Is(err, row.wantErr) || len(rest) != 0 {
				t.Errorf("write on the stale route = %v (%d of the batch left), want %v", err, len(rest), row.wantErr)
			}
			if got := w.queued(); !reflect.DeepEqual(got, row.want) {
				t.Errorf("queues hold %v, want %v", got, row.want)
			}
		})
	}
}

// TestPendingIgnoresAbandonedClaims: a routed write refused at the fence
// leaves a claimed slot behind, which is no message — Pending, Info.Pending
// and the queue_depth gauge all read the queue's length, and a module that
// polls before it reads (mh_query_ifmsgs) would block on it.
func TestPendingIgnoresAbandonedClaims(t *testing.T) {
	w := newCommitWorld(t, "a")
	out, in := Endpoint{"src", "out"}, Endpoint{"a", "in"}
	r, err := w.b.routeOf(new(atomic.Pointer[route]), out)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.b.Rebind([]BindEdit{{Op: "del", From: out, To: in}}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.b.writeRouted(r, [][]byte{[]byte("refused")}, TraceContext{}); !errors.Is(err, ErrUnbound) {
		t.Fatalf("write on the stale route = %v, want ErrUnbound", err)
	}
	info, err := w.b.Info("a")
	if err != nil {
		t.Fatal(err)
	}
	if n := info.Pending["in"]; n != 0 {
		t.Errorf("Pending = %d on a queue that holds nothing but an abandoned claim", n)
	}
	// A message behind the abandoned claim still counts, and the count
	// returns to zero once it has been read.
	if err := w.b.AddBinding(out, in); err != nil {
		t.Fatal(err)
	}
	if err := w.src.Write("out", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if n := w.queues["a"].length(); n != 1 {
		t.Errorf("length = %d with one message queued behind the abandoned claim, want 1", n)
	}
	var m Message
	if ok, err := w.queues["a"].tryPop(&m); !ok || err != nil || string(m.Data) != "kept" {
		t.Fatalf("tryPop = %q, %v, %v", m.Data, ok, err)
	}
	if n := w.queues["a"].length(); n != 0 {
		t.Errorf("length = %d after the queue emptied, want 0", n)
	}
}

// TestDeleteInstanceVsRebindMoveQueue races DeleteInstance(to) against a
// Rebind whose cq moves from's backlog to to. Both take the writer lock, so
// the batch either finds to gone while it stages — it fails validation and
// from keeps every message — or commits whole before the delete: from is
// empty and to received the backlog, in order. There is no third outcome in
// which the transfer starts and cannot finish, which is why Rebind keeps no
// copy of the queues it is about to move.
func TestDeleteInstanceVsRebindMoveQueue(t *testing.T) {
	const backlog = 5
	failed, committed := 0, 0
	for round := 0; round < 200; round++ {
		w := newCommitWorld(t, "a")
		for i := 0; i < backlog; i++ {
			if err := w.src.Write("out", []byte(fmt.Sprintf("q%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		var rebindErr, deleteErr error
		racers := []func(){
			func() {
				rebindErr = w.b.Rebind([]BindEdit{{Op: "cq", From: Endpoint{"a", "in"}, To: Endpoint{"b", "in"}}})
			},
			func() { deleteErr = w.b.DeleteInstance("b") },
		}
		var wg sync.WaitGroup
		for i := range racers {
			wg.Add(1)
			go func(race func()) {
				defer wg.Done()
				race()
			}(racers[(i+round)%2]) // alternate who starts first
		}
		wg.Wait()
		if deleteErr != nil {
			t.Fatal(deleteErr)
		}
		got := w.queued()
		whole := []string{"q0", "q1", "q2", "q3", "q4"}
		switch {
		case rebindErr == nil:
			committed++
			if want := (map[string][]string{"b": whole}); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: committed batch left %v, want %v", round, got, want)
			}
		case errors.Is(rebindErr, ErrNoInstance):
			failed++
			if want := (map[string][]string{"a": whole}); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: refused batch (%v) left %v, want %v", round, rebindErr, got, want)
			}
		default:
			t.Fatalf("round %d: Rebind = %v, want nil or ErrNoInstance", round, rebindErr)
		}
	}
	t.Logf("%d batches refused at validation, %d committed whole", failed, committed)
}
