package bus

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/bus/internal/routing"
	"repro/internal/telemetry/evlog"
)

// ev is what a bus record says, without its sequence number and time.
type ev struct{ kind, instance, detail string }

// busRecords returns what the log holds after cursor, checking that every
// record is the bus's, stamped, and numbered consecutively from cursor+1.
func busRecords(t *testing.T, log evlog.View, cursor uint64) []ev {
	t.Helper()
	var out []ev
	for i, r := range log.Since(cursor) {
		if r.Source != "bus" || r.TimeNs == 0 || r.Seq != cursor+uint64(i)+1 {
			t.Errorf("record %+v: want source bus, a time and seq %d", r, cursor+uint64(i)+1)
		}
		out = append(out, ev{r.Kind, r.Instance, r.Detail})
	}
	return out
}

// eventWorld is testBus plus an unbound clone "compute2" and a replica group
// "g" whose one member is compute, with two messages queued at
// compute.sensor.
func eventWorld(t *testing.T) *Bus {
	t.Helper()
	b := testBus(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(b.AddInstance(InstanceSpec{Name: "compute2", Module: "compute", Machine: "m2", Status: StatusClone,
		Interfaces: []IfaceSpec{{Name: "display", Dir: InOut}, {Name: "sensor", Dir: In}}}))
	must(b.AddGroup("g", PolicyRoundRobin, []IfaceSpec{{Name: "sensor", Dir: In}}))
	must(b.AddGroupMember("g", "compute"))
	sens := writerFor(b, "sensor")
	must(sens.Write("out", []byte("q0")))
	must(sens.Write("out", []byte("q1")))
	return b
}

// eventRows drives every method that appends to the event log, once each,
// against a fresh eventWorld. want is exactly what the log gains.
var eventRows = []struct {
	name    string
	do      func(b *Bus) error
	want    []ev
	wantErr bool
}{
	{name: "AddInstance", do: func(b *Bus) error { return b.AddInstance(InstanceSpec{Name: "x", Machine: "m9"}) },
		want: []ev{{routing.KindAddInstance, "x", "m9"}}},
	{name: "DeleteInstance", do: func(b *Bus) error { return b.DeleteInstance("display") },
		want: []ev{{routing.KindDeleteInstance, "display", ""}}},
	{name: "AddBinding", do: func(b *Bus) error {
		return b.AddBinding(Endpoint{Instance: "sensor", Interface: "out"}, Endpoint{Instance: "compute2", Interface: "sensor"})
	}, want: []ev{{routing.KindAddBinding, "", "sensor.out <-> compute2.sensor"}}},
	{name: "Rebind add", do: func(b *Bus) error {
		return b.Rebind([]BindEdit{{Op: "add", From: Endpoint{Instance: "sensor", Interface: "out"}, To: Endpoint{Instance: "compute2", Interface: "sensor"}}})
	}, want: []ev{{routing.KindAddBinding, "", "sensor.out <-> compute2.sensor"}, {routing.KindRebind, "", "1 edits"}}},
	{name: "Rebind del", do: func(b *Bus) error {
		return b.Rebind([]BindEdit{{Op: "del", From: Endpoint{Instance: "sensor", Interface: "out"}, To: Endpoint{Instance: "compute", Interface: "sensor"}}})
	}, want: []ev{{routing.KindDeleteBinding, "", "sensor.out <-> compute.sensor"}, {routing.KindRebind, "", "1 edits"}}},
	{name: "Rebind cq", do: func(b *Bus) error {
		return b.Rebind([]BindEdit{{Op: "cq", From: Endpoint{Instance: "compute", Interface: "sensor"}, To: Endpoint{Instance: "compute2", Interface: "sensor"}}})
	}, want: []ev{{routing.KindMoveQueue, "", "compute.sensor -> compute2.sensor (2 msgs)"}, {routing.KindRebind, "", "1 edits"}}},
	{name: "Rebind rmq", do: func(b *Bus) error {
		return b.Rebind([]BindEdit{{Op: "rmq", From: Endpoint{Instance: "compute", Interface: "sensor"}}})
	}, want: []ev{{routing.KindDrainQueue, "", "compute.sensor (2 msgs)"}, {routing.KindRebind, "", "1 edits"}}},
	{name: "Rebind refused", do: func(b *Bus) error {
		return b.Rebind([]BindEdit{{Op: "rmq", From: Endpoint{Instance: "compute", Interface: "sensor"}}, {Op: "del", From: Endpoint{Instance: "sensor", Interface: "out"}, To: Endpoint{Instance: "display", Interface: "temper"}}})
	}, wantErr: true},
	{name: "DrainQueue", do: func(b *Bus) error {
		_, err := b.DrainQueue(Endpoint{Instance: "compute", Interface: "sensor"})
		return err
	}, want: []ev{{routing.KindDrainQueue, "", "compute.sensor (2 msgs)"}}},
	{name: "AddGroup", do: func(b *Bus) error { return b.AddGroup("g2", "", nil) },
		want: []ev{{routing.KindAddGroup, "g2", "policy roundrobin"}}},
	{name: "AddGroupMember", do: func(b *Bus) error { return b.AddGroupMember("g", "compute2") },
		want: []ev{{routing.KindJoinGroup, "compute2", "group g"}}},
	{name: "RemoveGroupMember", do: func(b *Bus) error { return b.RemoveGroupMember("g", "compute") },
		want: []ev{{routing.KindLeaveGroup, "compute", "group g"},
			{routing.KindMoveQueue, "", "compute.display -> group g (0 msgs)"},
			{routing.KindMoveQueue, "", "compute.sensor -> group g (0 msgs)"}}},
	{name: "Signal", do: func(b *Bus) error { return b.SignalReconfig("compute") },
		want: []ev{{kindSignal, "compute", "reconfig"}}},
	{name: "InstallState", do: func(b *Bus) error { return b.InstallState("compute2", []byte("abc")) },
		want: []ev{{kindInstallState, "compute2", "3 bytes"}}},
	{name: "Divulge", do: func(b *Bus) error { return writerFor(b, "compute").Divulge([]byte("abcd")) },
		want: []ev{{kindDivulge, "compute", "4 bytes"}}},
	{name: "ConfirmRestore", do: func(b *Bus) error {
		a := writerFor(b, "compute2")
		if err := a.ConfirmRestore(nil); err != nil {
			return err
		}
		return a.ConfirmRestore(errors.New("frame mismatch"))
	}, want: []ev{{kindRestoreAck, "compute2", "ok"}, {kindRestoreAck, "compute2", "frame mismatch"}}},
	{name: "ResetForRelaunch", do: func(b *Bus) error { return b.ResetForRelaunch("compute") },
		want: []ev{{kindRelaunch, "compute", ""}}},
	{name: "Close", do: func(b *Bus) error { b.Close(); return nil },
		want: []ev{{routing.KindDeleteInstance, "compute", ""}, {routing.KindDeleteInstance, "compute2", ""},
			{routing.KindDeleteInstance, "display", ""}, {routing.KindDeleteInstance, "sensor", ""}}},
}

// TestEventLoggedByReturn is the event log's contract: by the time a bus
// call returns, exactly the records it caused are in b.Events(), after the
// cursor taken before it, in order — and a call that fails adds none.
func TestEventLoggedByReturn(t *testing.T) {
	for _, row := range eventRows {
		t.Run(row.name, func(t *testing.T) {
			b := eventWorld(t)
			cursor := b.Events().Cursor()
			if err := row.do(b); (err != nil) != row.wantErr {
				t.Fatalf("err = %v, want error %v", err, row.wantErr)
			}
			if got := busRecords(t, b.Events(), cursor); !reflect.DeepEqual(got, row.want) {
				t.Errorf("logged %q\nwant   %q", got, row.want)
			}
		})
	}
}

// TestEventNamesExhaustive reads the kind constants out of event.go (the
// bus's hand-offs) and the routing package's routing.go (its topology
// changes) and fails if two share a spelling or one is logged by no row of
// eventRows — a kind added without a contract row, or a row list gone stale.
// conn-closed is the TCP server's, covered by the faultpath tests.
func TestEventNamesExhaustive(t *testing.T) {
	logged := map[string]bool{kindConnClosed: true}
	for _, row := range eventRows {
		for _, e := range row.want {
			logged[e.kind] = true
		}
	}
	spelled := map[string]string{}
	for _, file := range []string{"event.go", "internal/routing/routing.go"} {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok || !strings.HasPrefix(strings.ToLower(vs.Names[0].Name), "kind") {
				return true
			}
			name := vs.Names[0].Name
			kind, err := strconv.Unquote(vs.Values[0].(*ast.BasicLit).Value)
			if err != nil || kind == "" {
				t.Errorf("%s has no spelling", name)
			}
			if prev, dup := spelled[kind]; dup {
				t.Errorf("%s and %s are both %q", prev, name, kind)
			}
			spelled[kind] = name
			if !logged[kind] {
				t.Errorf("%s (%q) is logged by no row of eventRows", name, kind)
			}
			return true
		})
	}
	if len(spelled) != len(logged) {
		t.Errorf("event.go and routing.go declare %d kinds, eventRows logs %d", len(spelled), len(logged))
	}
}

// TestSlowObserverDoesNotBlockBus: the bus never waits on a reader of its
// log. With nobody reading, a run of calls longer than the ring completes,
// and a reader who comes late loses the oldest records, says so, and finds
// the rest contiguous.
func TestSlowObserverDoesNotBlockBus(t *testing.T) {
	b := New()
	if err := b.AddInstance(InstanceSpec{Name: "n"}); err != nil {
		t.Fatal(err)
	}
	const calls = 1100
	for i := 0; i < calls; i++ {
		if err := b.SignalReconfig("n"); err != nil {
			t.Fatal(err)
		}
	}
	log := b.Events()
	if log.Cursor() != calls+1 || log.Overwritten() != calls+1-1024 {
		t.Fatalf("cursor %d, overwritten %d; want %d, %d", log.Cursor(), log.Overwritten(), calls+1, calls+1-1024)
	}
	got := busRecords(t, log, log.Overwritten())
	if len(got) != 1024 || got[0] != (ev{kindSignal, "n", "reconfig"}) {
		t.Errorf("late reader got %d records starting %v", len(got), got[0])
	}
}

// TestObserverOrderingUnderLoad has four goroutines alternate signal and
// cancel on their own instance: the log holds every call, each instance's
// records in the order its goroutine made them.
func TestObserverOrderingUnderLoad(t *testing.T) {
	b := New()
	const emitters, per = 4, 100
	for g := 0; g < emitters; g++ {
		if err := b.AddInstance(InstanceSpec{Name: strconv.Itoa(g)}); err != nil {
			t.Fatal(err)
		}
	}
	cursor := b.Events().Cursor()
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				signal := b.SignalReconfig
				if i%2 == 1 {
					signal = b.CancelReconfig
				}
				if err := signal(name); err != nil {
					t.Error(err)
					return
				}
			}
		}(strconv.Itoa(g))
	}
	wg.Wait()
	seen := map[string]int{}
	for _, e := range busRecords(t, b.Events(), cursor) {
		want := "reconfig"
		if seen[e.instance]%2 == 1 {
			want = "cancel"
		}
		if e.detail != want {
			t.Fatalf("%s's record %d is %q, want %q", e.instance, seen[e.instance], e.detail, want)
		}
		seen[e.instance]++
	}
	for g := 0; g < emitters; g++ {
		if n := seen[strconv.Itoa(g)]; n != per {
			t.Errorf("instance %d has %d records, want %d", g, n, per)
		}
	}
}
