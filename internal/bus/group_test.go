package bus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// addGroupFixture builds a bus with a 3-member replica group "pool" (in/out
// interfaces), a sender bound to the group's in side, and a collector bound
// from the group's out side.
func addGroupFixture(t *testing.T, policy string) (*Bus, []string) {
	t.Helper()
	b := New()
	shape := []IfaceSpec{{Name: "in", Dir: In}, {Name: "out", Dir: Out}}
	if err := b.AddGroup("pool", policy, shape); err != nil {
		t.Fatal(err)
	}
	members := []string{"pool.1", "pool.2", "pool.3"}
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
	if err := b.AddInstance(InstanceSpec{Name: "coll", Interfaces: []IfaceSpec{{Name: "in", Dir: In}}}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddBinding(Endpoint{Instance: "feeder", Interface: "out"}, Endpoint{Instance: "pool", Interface: "in"}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddBinding(Endpoint{Instance: "pool", Interface: "out"}, Endpoint{Instance: "coll", Interface: "in"}); err != nil {
		t.Fatal(err)
	}
	return b, members
}

func TestGroupRoundRobinFanIn(t *testing.T) {
	b, members := addGroupFixture(t, PolicyRoundRobin)
	feeder, err := b.Attach("feeder")
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	for i := 0; i < n; i++ {
		if err := feeder.Write("out", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range members {
		info, err := b.Info(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := info.Pending["in"]; got != n/3 {
			t.Errorf("%s pending = %d, want %d", m, got, n/3)
		}
	}
}

func TestGroupLeastQueuePolicy(t *testing.T) {
	b, members := addGroupFixture(t, PolicyLeastQueue)
	// Preload pool.1 and pool.2 so the shallowest queue is pool.3.
	for _, m := range members[:2] {
		in, _ := b.Attach(m)
		_ = in // members just hold their queues; preload via direct binding
	}
	feeder, err := b.Attach("feeder")
	if err != nil {
		t.Fatal(err)
	}
	// First three writes round out evenly under leastqueue too (all empty);
	// drain pool.3 and verify the next write lands there again.
	for i := 0; i < 3; i++ {
		if err := feeder.Write("out", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	third, err := b.Attach(members[2])
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := third.TryRead("in"); err != nil || !ok {
		t.Fatalf("pool.3 got no message under leastqueue: ok=%v err=%v", ok, err)
	}
	if err := feeder.Write("out", []byte{99}); err != nil {
		t.Fatal(err)
	}
	m, ok, err := third.TryRead("in")
	if err != nil || !ok || m.Data[0] != 99 {
		t.Errorf("leastqueue did not target the shallowest member: ok=%v err=%v", ok, err)
	}
}

func TestGroupMemberReplyRouting(t *testing.T) {
	// A member writing on its own out interface inherits the group's
	// binding: the message lands at the collector.
	b, members := addGroupFixture(t, "")
	m0, err := b.Attach(members[0])
	if err != nil {
		t.Fatal(err)
	}
	coll, err := b.Attach("coll")
	if err != nil {
		t.Fatal(err)
	}
	if err := m0.Write("out", []byte("reply")); err != nil {
		t.Fatal(err)
	}
	msg, err := coll.Read("in")
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Data) != "reply" {
		t.Errorf("collector got %q", msg.Data)
	}
	if msg.From != (Endpoint{Instance: members[0], Interface: "out"}) {
		t.Errorf("From = %v", msg.From)
	}
}

// TestMemberJoinsOneGroup: an instance already in one group is refused a
// second, with an error naming both, and its writes keep following the
// first group's bindings. Admitted to both, it inherited whichever group's
// bindings the build's map iteration visited last.
func TestMemberJoinsOneGroup(t *testing.T) {
	b := New()
	shape := []IfaceSpec{{Name: "in", Dir: In}, {Name: "out", Dir: Out}}
	in := []IfaceSpec{{Name: "in", Dir: In}}
	for _, g := range []string{"g1", "g2"} {
		if err := b.AddGroup(g, PolicyRoundRobin, shape); err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range []InstanceSpec{{Name: "m", Interfaces: shape}, {Name: "c1", Interfaces: in}, {Name: "c2", Interfaces: in}} {
		if err := b.AddInstance(spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, bd := range [][2]Endpoint{
		{{Instance: "g1", Interface: "out"}, {Instance: "c1", Interface: "in"}},
		{{Instance: "g2", Interface: "out"}, {Instance: "c2", Interface: "in"}},
	} {
		if err := b.AddBinding(bd[0], bd[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddGroupMember("g1", "m"); err != nil {
		t.Fatal(err)
	}
	err := b.AddGroupMember("g2", "m")
	if err == nil || !strings.Contains(err.Error(), "g1") || !strings.Contains(err.Error(), "g2") {
		t.Fatalf("second join = %v, want a refusal naming g1 and g2", err)
	}
	if groups := b.Routing().Groups(); len(groups[1].Members) != 0 {
		t.Errorf("g2 members after the refused join = %v", groups[1].Members)
	}
	m := attach(t, b, "m")
	if err := m.Write("out", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for c, want := range map[string]int{"c1": 1, "c2": 0} {
		if info, err := b.Info(c); err != nil || info.Pending["in"] != want {
			t.Errorf("%s holds %d messages (%v), want %d", c, info.Pending["in"], err, want)
		}
	}
}

func TestGroupValidation(t *testing.T) {
	b := New()
	shape := []IfaceSpec{{Name: "in", Dir: In}}
	if err := b.AddGroup("g", "fastest", shape); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := b.AddGroup("", "", shape); err == nil {
		t.Error("empty group name accepted")
	}
	if err := b.AddGroup("g", "", shape); err != nil {
		t.Fatal(err)
	}
	if err := b.AddGroup("g", "", shape); !errors.Is(err, ErrDupInstance) {
		t.Errorf("dup group = %v", err)
	}
	if err := b.AddInstance(InstanceSpec{Name: "g", Interfaces: shape}); !errors.Is(err, ErrDupInstance) {
		t.Errorf("instance shadowing group = %v", err)
	}
	if err := b.AddGroup("h", "", shape); err != nil {
		t.Fatal(err)
	}
	if err := b.AddBinding(Endpoint{Instance: "g", Interface: "in"}, Endpoint{Instance: "h", Interface: "in"}); err == nil {
		t.Error("group-to-group binding accepted")
	}
	// Shape mismatch: member lacks the group interface.
	if err := b.AddInstance(InstanceSpec{Name: "odd", Interfaces: []IfaceSpec{{Name: "zzz", Dir: In}}}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddGroupMember("g", "odd"); err == nil {
		t.Error("shape-mismatched member accepted")
	}
	if err := b.AddGroupMember("nope", "odd"); !errors.Is(err, ErrNoInstance) {
		t.Errorf("unknown group = %v", err)
	}
	if err := b.AddGroupMember("g", "ghost"); !errors.Is(err, ErrNoInstance) {
		t.Errorf("unknown member = %v", err)
	}
	if err := b.RemoveGroupMember("g", "odd"); err == nil {
		t.Error("removing a non-member succeeded")
	}
}

func TestRemoveGroupMemberRequeuesBacklog(t *testing.T) {
	b, members := addGroupFixture(t, PolicyRoundRobin)
	feeder, err := b.Attach("feeder")
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	for i := 0; i < n; i++ {
		if err := feeder.Write("out", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ver := b.Routing().Version()
	if err := b.RemoveGroupMember("pool", members[0]); err != nil {
		t.Fatal(err)
	}
	if got := b.Routing().Version(); got != ver+1 {
		t.Errorf("membership change did not publish one epoch: %d -> %d", ver, got)
	}
	// The dead member's 10 messages moved to the survivors; none lost.
	total := 0
	for _, m := range members[1:] {
		info, err := b.Info(m)
		if err != nil {
			t.Fatal(err)
		}
		total += info.Pending["in"]
	}
	if total != n {
		t.Errorf("survivors hold %d messages, want %d", total, n)
	}
	if info, _ := b.Info(members[0]); info.Pending["in"] != 0 {
		t.Errorf("removed member still holds %d messages", info.Pending["in"])
	}
	if ms, _ := b.GroupMembers("pool"); len(ms) != 2 {
		t.Errorf("members = %v", ms)
	}
	// New traffic flows to survivors only.
	for i := 0; i < 10; i++ {
		if err := feeder.Write("out", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if info, _ := b.Info(members[0]); info.Pending["in"] != 0 {
		t.Error("removed member received new traffic")
	}
}

func TestRemoveLastGroupMemberKeepsBacklog(t *testing.T) {
	b := New()
	shape := []IfaceSpec{{Name: "in", Dir: In}}
	if err := b.AddGroup("solo", "", shape); err != nil {
		t.Fatal(err)
	}
	if err := b.AddInstance(InstanceSpec{Name: "solo.1", Interfaces: shape}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddGroupMember("solo", "solo.1"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddInstance(InstanceSpec{Name: "src", Interfaces: []IfaceSpec{{Name: "out", Dir: Out}}}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddBinding(Endpoint{Instance: "src", Interface: "out"}, Endpoint{Instance: "solo", Interface: "in"}); err != nil {
		t.Fatal(err)
	}
	src, err := b.Attach("src")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := src.Write("out", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.RemoveGroupMember("solo", "solo.1"); err != nil {
		t.Fatal(err)
	}
	// No survivor: the backlog stays at the fenced member for a later cq.
	if info, _ := b.Info("solo.1"); info.Pending["in"] != 5 {
		t.Errorf("fenced member holds %d messages, want 5", info.Pending["in"])
	}
}

// TestConcurrentSendVsMembership hammers the group fan-in from 16 senders
// while the membership flips a member out and back in repeatedly. Exactly
// -once delivery must hold: every sent message lands on exactly one member
// (or the removed member's backlog is requeued), with zero loss and zero
// duplication. Run under -race.
func TestConcurrentSendVsMembership(t *testing.T) {
	const (
		senders   = 16
		perSender = 300
		flips     = 30
	)
	b := New()
	shape := []IfaceSpec{{Name: "in", Dir: In}}
	if err := b.AddGroup("pool", PolicyRoundRobin, shape); err != nil {
		t.Fatal(err)
	}
	members := []string{"pool.1", "pool.2", "pool.3"}
	for _, m := range members {
		if err := b.AddInstance(InstanceSpec{Name: m, Interfaces: shape}); err != nil {
			t.Fatal(err)
		}
		if err := b.AddGroupMember("pool", m); err != nil {
			t.Fatal(err)
		}
	}
	sendNames := make([]string, senders)
	atts := make([]*Attachment, senders)
	for i := range sendNames {
		sendNames[i] = fmt.Sprintf("s%d", i)
		if err := b.AddInstance(InstanceSpec{Name: sendNames[i], Interfaces: []IfaceSpec{{Name: "out", Dir: Out}}}); err != nil {
			t.Fatal(err)
		}
		if err := b.AddBinding(Endpoint{Instance: sendNames[i], Interface: "out"}, Endpoint{Instance: "pool", Interface: "in"}); err != nil {
			t.Fatal(err)
		}
		a, err := b.Attach(sendNames[i])
		if err != nil {
			t.Fatal(err)
		}
		atts[i] = a
	}

	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(id int, a *Attachment) {
			defer wg.Done()
			for seq := 0; seq < perSender; seq++ {
				payload := make([]byte, 8)
				binary.BigEndian.PutUint32(payload[0:4], uint32(id))
				binary.BigEndian.PutUint32(payload[4:8], uint32(seq))
				if err := a.Write("out", payload); err != nil {
					t.Errorf("sender %d seq %d: %v", id, seq, err)
					return
				}
			}
		}(i, atts[i])
	}
	flipDone := make(chan struct{})
	go func() {
		defer close(flipDone)
		for f := 0; f < flips; f++ {
			victim := members[f%len(members)]
			if err := b.RemoveGroupMember("pool", victim); err != nil {
				t.Errorf("flip %d remove: %v", f, err)
				return
			}
			if err := b.AddGroupMember("pool", victim); err != nil {
				t.Errorf("flip %d re-add: %v", f, err)
				return
			}
		}
	}()
	wg.Wait()
	<-flipDone

	// Drain every member queue and account for exactly-once delivery.
	seen := make(map[uint64]bool, senders*perSender)
	for _, m := range members {
		a, err := b.Attach(m)
		if err != nil {
			t.Fatal(err)
		}
		for {
			msg, ok, err := a.TryRead("in")
			if err != nil || !ok {
				break
			}
			key := binary.BigEndian.Uint64(msg.Data)
			if seen[key] {
				t.Errorf("duplicate delivery of %x", key)
			}
			seen[key] = true
		}
	}
	if len(seen) != senders*perSender {
		t.Errorf("delivered %d distinct messages, want %d (lost %d)",
			len(seen), senders*perSender, senders*perSender-len(seen))
	}
}

// TestIfSourcesNamesGroupSender: a replica group's sending interface is a
// source of what it is bound to, as build routes the members' writes there.
// Without it a replacement of the receiver would leave the group's binding
// on the deleted original.
func TestIfSourcesNamesGroupSender(t *testing.T) {
	b, _ := addGroupFixture(t, "")
	src, err := b.IfSources(Endpoint{Instance: "coll", Interface: "in"})
	if want := []Endpoint{{Instance: "pool", Interface: "out"}}; err != nil || !reflect.DeepEqual(src, want) {
		t.Errorf("IfSources(coll.in) = %v, %v; want %v", src, err, want)
	}
	dst, err := b.IfDest(Endpoint{Instance: "feeder", Interface: "out"})
	if want := []Endpoint{{Instance: "pool", Interface: "in"}}; err != nil || !reflect.DeepEqual(dst, want) {
		t.Errorf("IfDest(feeder.out) = %v, %v; want %v", dst, err, want)
	}
	// A member's own interfaces name no binding: its routes are the group's.
	if src, err := b.IfSources(Endpoint{Instance: "pool.1", Interface: "in"}); err != nil || src != nil {
		t.Errorf("IfSources(pool.1.in) = %v, %v; want none", src, err)
	}
}
