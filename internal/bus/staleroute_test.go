package bus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bus/internal/queue"
	"repro/internal/bus/internal/routing"
	"repro/internal/clock"
	"repro/internal/telemetry/evlog"
)

// TestStaleWriterAcrossRebindAndDelete is the regression for the
// PushRouted check order: writers run flat out while the receiving
// endpoint is replaced over and over the way a Replace commits — Rebind
// with a queue move, then DeleteInstance of the old receiver. A writer
// descheduled between its routing-snapshot load and its slot claim reaches
// the old queue fenced AND closed; it must re-route through the slow path
// (queue.ErrStaleRoute), not have queue.ErrClosed swallowed as "receiver gone".
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
		if err := b.AddBinding(Endpoint{Instance: name, Interface: "out"}, Endpoint{Instance: "sink0", Interface: "in"}); err != nil {
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
		oldIn, newIn := Endpoint{Instance: cur, Interface: "in"}, Endpoint{Instance: nextName, Interface: "in"}
		var edits []BindEdit
		for w := range outs {
			out := Endpoint{Instance: fmt.Sprintf("w%d", w), Interface: "out"}
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
	waitFor(t, "every write delivered", func() bool { return got.Load() >= total })
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

// TestConcurrentEditsSerialize commits disjoint edits from many goroutines
// at once: instances added, bound, rebound with a queue move and deleted,
// plus one refused binding per round. Each commit drafts from the table the
// one before it published, so none is lost: afterwards every surviving
// instance and binding is visible, the snapshot version is 1 (the empty
// table New publishes) plus the accepted edits, and the bus's topology
// records in the event log are the accepted edits' own — one edit's records
// together, each goroutine's edits in the order it made them.
func TestConcurrentEditsSerialize(t *testing.T) {
	const workers, rounds = 8, 16
	b := New(WithEvents(evlog.NewLog(1<<12, clock.Clock{})))
	t.Cleanup(b.Close)
	type rec struct{ kind, instance, detail string }
	edits := make([][][]rec, workers) // per worker, each accepted edit's records
	var wantInstances []string
	var wantBindings []Binding
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		for r := 0; r < rounds; r++ {
			pre := fmt.Sprintf("w%dr%d", w, r)
			wantInstances = append(wantInstances, pre+"a", pre+"c")
			wantBindings = append(wantBindings, Binding{A: Endpoint{Instance: pre + "a", Interface: "out"}, B: Endpoint{Instance: pre + "c", Interface: "in"}})
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			accept := func(err error, recs ...rec) {
				if err != nil {
					t.Error(err)
					return
				}
				edits[w] = append(edits[w], recs)
			}
			for r := 0; r < rounds; r++ {
				pre := fmt.Sprintf("w%dr%d", w, r)
				out := Endpoint{Instance: pre + "a", Interface: "out"}
				old := Endpoint{Instance: pre + "b", Interface: "in"}
				next := Endpoint{Instance: pre + "c", Interface: "in"}
				accept(b.AddInstance(InstanceSpec{Name: out.Instance, Interfaces: []IfaceSpec{{Name: "out", Dir: Out}}}),
					rec{routing.KindAddInstance, out.Instance, ""})
				for _, e := range []Endpoint{old, next} {
					accept(b.AddInstance(InstanceSpec{Name: e.Instance, Interfaces: []IfaceSpec{{Name: "in", Dir: In}}}),
						rec{routing.KindAddInstance, e.Instance, ""})
				}
				accept(b.AddBinding(out, old), rec{routing.KindAddBinding, "", out.String() + " <-> " + old.String()})
				if err := b.AddBinding(out, Endpoint{Instance: pre + "ghost", Interface: "in"}); err == nil {
					t.Error("binding to a missing instance accepted")
				}
				accept(b.Rebind([]BindEdit{
					{Op: "del", From: out, To: old},
					{Op: "add", From: out, To: next},
					{Op: "cq", From: old, To: next},
				}),
					rec{routing.KindDeleteBinding, "", out.String() + " <-> " + old.String()},
					rec{routing.KindAddBinding, "", out.String() + " <-> " + next.String()},
					rec{routing.KindMoveQueue, "", old.String() + " -> " + next.String() + " (0 msgs)"},
					rec{routing.KindRebind, "", "3 edits"})
				accept(b.DeleteInstance(old.Instance), rec{routing.KindDeleteInstance, old.Instance, ""})
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	accepted := 0
	for _, e := range edits {
		accepted += len(e)
	}
	if got, want := b.Stats().SnapshotVersion, uint64(1+accepted); got != want {
		t.Errorf("snapshot version %d after %d accepted edits, want %d", got, accepted, want)
	}
	sort.Strings(wantInstances)
	if got := b.Routing().Instances(); !reflect.DeepEqual(got, wantInstances) {
		t.Errorf("instances: %d visible, want %d\ngot  %v\nwant %v", len(got), len(wantInstances), got, wantInstances)
	}
	if got := b.Routing().Bindings(); len(got) != len(wantBindings) {
		t.Errorf("bindings: %d visible, want %d: %v", len(got), len(wantBindings), got)
	} else {
		for _, bd := range wantBindings {
			if !slices.Contains(got, bd) {
				t.Errorf("binding %s <-> %s lost", bd.A, bd.B)
			}
		}
	}

	if n := b.Events().Overwritten(); n != 0 {
		t.Fatalf("event log overwrote %d records", n)
	}
	var log []rec
	for _, e := range b.Events().Since(0) {
		if e.Source == "bus" {
			log = append(log, rec{e.Kind, e.Instance, e.Detail})
		}
	}
	for i := 0; i < len(log); {
		w := slices.IndexFunc(edits, func(e [][]rec) bool { return len(e) > 0 && e[0][0] == log[i] })
		if w < 0 {
			t.Fatalf("record %d %+v is no goroutine's next edit", i, log[i])
		}
		want := edits[w][0]
		if i+len(want) > len(log) || !slices.Equal(log[i:i+len(want)], want) {
			t.Fatalf("records %d..: got %+v, want the edit %+v whole", i, log[i:min(i+len(want), len(log))], want)
		}
		i += len(want)
		edits[w] = edits[w][1:]
	}
	for w, e := range edits {
		if len(e) > 0 {
			t.Errorf("goroutine %d: %d accepted edits have no records, the first %+v", w, len(e), e[0])
		}
	}
}

// commitWorld is the topology the commit tests edit: a writer src, two plain
// receivers a and b, and a replica group g over m1 and m2 with m3 standing
// by. queues holds every receiving queue by instance name, so a test can
// look inside one after its instance is gone.
type commitWorld struct {
	b      *Bus
	src    *Attachment
	queues map[string]*queue.Queue
}

func newCommitWorld(t *testing.T, targets ...string) *commitWorld {
	t.Helper()
	w := &commitWorld{b: New(), queues: map[string]*queue.Queue{}}
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
		ifc, err := w.b.routing.Load().Lookup(Endpoint{Instance: name, Interface: "in"})
		must(err)
		w.queues[name] = ifc.Queue()
	}
	must(w.b.AddGroup("g", PolicyRoundRobin, in))
	must(w.b.AddGroupMember("g", "m1"))
	must(w.b.AddGroupMember("g", "m2"))
	for _, to := range targets {
		must(w.b.AddBinding(Endpoint{Instance: "src", Interface: "out"}, Endpoint{Instance: to, Interface: "in"}))
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
		var m Message
		for ok, _ := q.TryPop(&m); ok; ok, _ = q.TryPop(&m) {
			got[name] = append(got[name], string(m.Data))
		}
	}
	return got
}

// TestStaleRouteAcrossEveryTopologyChange holds a route resolved before a
// topology change and writes on it after, once for every method that
// changes the topology. All of them commit through one Edit, so all of
// them must give the same answer: the message arrives exactly once, where
// the successor topology (or, for a change that takes nothing away, either
// topology) sends it, behind whatever a queue transfer carried there; a
// write left with no receiver reports ErrUnbound and lands nowhere. The two
// "del" rows are the same edit against an instance and against a replica
// group — the group form fenced nothing before the commit fenced by endpoint.
func TestStaleRouteAcrossEveryTopologyChange(t *testing.T) {
	ep := func(inst string) Endpoint { return Endpoint{Instance: inst, Interface: "in"} }
	out := Endpoint{Instance: "src", Interface: "out"}
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
			change: rebind(BindEdit{Op: "del", From: out, To: ep("a")}),
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
			rest, _, err := w.b.writeRouted(r, [][]byte{[]byte("stale")}, TraceContext{})
			if !errors.Is(err, row.wantErr) || len(rest) != 0 {
				t.Errorf("write on the stale route = %v (%d of the batch left), want %v", err, len(rest), row.wantErr)
			}
			if got := w.queued(); !reflect.DeepEqual(got, row.want) {
				t.Errorf("queues hold %v, want %v", got, row.want)
			}
		})
	}
}

// TestSlowPathUnboundFlushesSent: when earlier messages of a batch landed
// on the fast path and the next one meets a fence onto a route the commit
// left with no receiver, writeRouted hands writeSlow the batch's deliveries
// (pre) and a message that landed nowhere. The message is dropped and
// reported unbound, and the earlier deliveries still count as sent. No
// sequential history reaches that state (the commit that unbinds the route
// fences every queue the earlier messages landed in), so the slow path is
// called here as the fast path calls it; TestBatchAcrossUnbindKeepsLedger
// reaches it by racing.
func TestSlowPathUnboundFlushesSent(t *testing.T) {
	w := newCommitWorld(t, "a")
	out := Endpoint{Instance: "src", Interface: "out"}
	r, err := w.b.routeOf(new(atomic.Pointer[route]), out)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.b.Rebind([]BindEdit{{Op: "del", From: out, To: Endpoint{Instance: "a", Interface: "in"}}}); err != nil {
		t.Fatal(err)
	}
	msg := Message{From: out, Data: []byte("m1")}
	err = w.b.writeSlow(&msg, r.Src, nil, 1, false)
	if sent, dropped := r.Src.Sent.Load(), w.b.Stats().Dropped; !errors.Is(err, ErrUnbound) || sent != 1 || dropped != 1 {
		t.Errorf("writeSlow = %v with sent %d, dropped %d; want ErrUnbound, sent 1 (the earlier delivery), dropped 1", err, sent, dropped)
	}
}

// TestBatchAcrossUnbindKeepsLedger writes batches to a replica group in a
// loop while a Rebind deletes the sender's only binding, so with two Ps
// or more the commit usually meets a batch part-way. Every message written is either queued at
// a member or counted dropped, the sender's sent counter is what was
// queued, and the loop ends on the first write that reports ErrUnbound.
func TestBatchAcrossUnbindKeepsLedger(t *testing.T) {
	out := Endpoint{Instance: "src", Interface: "out"}
	batch := make([][]byte, 8)
	for i := range batch {
		batch[i] = []byte(fmt.Sprintf("m%d", i))
	}
	for iter := 0; iter < 50; iter++ {
		w := newCommitWorld(t, "g")
		rs, _ := w.b.routing.Load().Route(out)
		started, done := make(chan struct{}), make(chan error)
		written := 0
		go func() { //archlint:spawn test writer; joined via done below
			var err error
			for err == nil {
				err = w.src.SendBatch("out", batch)
				if written += len(batch); written == len(batch) {
					close(started)
				} else if written%(64*len(batch)) == 0 {
					runtime.Gosched() // on one P, let the Rebind in
				}
			}
			done <- err
		}()
		<-started
		if err := w.b.Rebind([]BindEdit{{Op: "del", From: out, To: Endpoint{Instance: "g", Interface: "in"}}}); err != nil {
			t.Fatal(err)
		}
		werr := <-done
		queued := 0
		for _, msgs := range w.queued() {
			queued += len(msgs)
		}
		sent, dropped := rs.Src.Sent.Load(), w.b.Stats().Dropped
		if !errors.Is(werr, ErrUnbound) || int64(queued) != sent || int64(queued)+dropped != int64(written) {
			t.Fatalf("iteration %d: %d written, %d queued, sent counter %d, %d dropped, last write returned %v", iter, written, queued, sent, dropped, werr)
		}
	}
}

// TestPendingIgnoresAbandonedClaims: a routed write refused at the fence
// leaves a claimed slot behind, which is no message — Pending, Info.Pending
// and the queue_depth gauge all read the queue's length, and a module that
// polls before it reads (mh_query_ifmsgs) would block on it.
func TestPendingIgnoresAbandonedClaims(t *testing.T) {
	w := newCommitWorld(t, "a")
	out, in := Endpoint{Instance: "src", Interface: "out"}, Endpoint{Instance: "a", Interface: "in"}
	r, err := w.b.routeOf(new(atomic.Pointer[route]), out)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.b.Rebind([]BindEdit{{Op: "del", From: out, To: in}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.b.writeRouted(r, [][]byte{[]byte("refused")}, TraceContext{}); !errors.Is(err, ErrUnbound) {
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
	if n := w.queues["a"].Len(); n != 1 {
		t.Errorf("length = %d with one message queued behind the abandoned claim, want 1", n)
	}
	var m Message
	if ok, err := w.queues["a"].TryPop(&m); !ok || err != nil || string(m.Data) != "kept" {
		t.Fatalf("tryPop = %q, %v, %v", m.Data, ok, err)
	}
	if n := w.queues["a"].Len(); n != 0 {
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
				rebindErr = w.b.Rebind([]BindEdit{{Op: "cq", From: Endpoint{Instance: "a", Interface: "in"}, To: Endpoint{Instance: "b", Interface: "in"}}})
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
