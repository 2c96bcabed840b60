package routing

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/bus/internal/queue"
)

// A replica group is a bindable name whose receiving interfaces fan in to
// its live members, load-balanced per message. The member set is part of the
// table, so a membership change is one commit like a rebind's: a sender that
// resolved the old member set is refused at a fenced queue and retries.

// Load-balancing policies (the bus re-exports them).
const (
	PolicyRoundRobin = "roundrobin"
	PolicyLeastQueue = "leastqueue"
)

// replicaGroup is a group's identity, shared across tables like an
// instance; the round-robin cursor is what the delivery path advances.
type replicaGroup struct {
	name   string
	policy string
	ifaces []IfaceSpec
	rr     atomic.Uint64
}

// groupEntry is a group's membership inside one table. Entries are
// immutable after build; membership edits copy-on-write a successor entry
// into the draft.
type groupEntry struct {
	g       *replicaGroup
	members []string // sorted
}

// with returns a copy of the entry with a member added.
func (ge *groupEntry) with(member string) *groupEntry {
	members := append(slices.Clone(ge.members), member)
	sort.Strings(members)
	return &groupEntry{g: ge.g, members: members}
}

// without returns a copy of the entry with a member removed.
func (ge *groupEntry) without(member string) *groupEntry {
	members := slices.DeleteFunc(slices.Clone(ge.members), func(m string) bool { return m == member })
	return &groupEntry{g: ge.g, members: members}
}

// groupRoute is one table's fan-in of a receiving group endpoint: its live
// members' entries, resolved at build so the hot path does no map lookups.
type groupRoute struct {
	g       *replicaGroup
	iface   string
	members []*Iface
}

// first picks the member a delivery tries first, by the group's policy; the
// caller has checked that there is one.
//
//archlint:hotpath
func (gr *groupRoute) first() int {
	if gr.g.policy != PolicyLeastQueue {
		return int((gr.g.rr.Add(1) - 1) % uint64(len(gr.members)))
	}
	start, bestLen := 0, -1
	for i, m := range gr.members {
		if l := m.q.Len(); bestLen == -1 || l < bestLen {
			start, bestLen = i, l
		}
	}
	return start
}

// deliverGroup pushes msg to one live member, picked by the group's policy;
// a route lists a group only while it has one. A stale fence surfaces as
// queue.ErrStaleRoute (the member set may have changed); a closed member
// queue is skipped in favor of the next member, and with none left
// queue.ErrClosed reports the message dropped.
//
//archlint:hotpath
func deliverGroup(gr *groupRoute, msg *queue.Message, src *Iface, version uint64) (woke bool, err error) {
	n := len(gr.members)
	start := gr.first()
	for k := 0; k < n; k++ {
		m := gr.members[(start+k)%n]
		switch woke, err := m.q.PushRouted(msg, &src.Name, version); err {
		case nil:
			return woke, nil
		case queue.ErrStaleRoute:
			return false, queue.ErrStaleRoute
		default: // closed: try the next member
		}
	}
	return false, queue.ErrClosed
}

// Target is one delivery destination in a route set: either a single
// receiving interface or a replica group the bus load-balances over.
// Exactly one field is non-nil.
type Target struct {
	ifc   *Iface
	group *groupRoute
}

// Push delivers msg, written on src along a route resolved from the table
// at version: woke says whether it woke a parked reader; queue.ErrStaleRoute
// means a commit fenced the route, queue.ErrClosed that the receiver is gone.
//
//archlint:hotpath
func (t Target) Push(msg *queue.Message, src *Iface, version uint64) (woke bool, err error) {
	if t.ifc != nil {
		return t.ifc.q.PushRouted(msg, &src.Name, version)
	}
	return deliverGroup(t.group, msg, src, version)
}

// Same reports whether two targets, perhaps of different tables, are one
// destination: the same interface entry, or the same group and interface.
func (t Target) Same(o Target) bool {
	if t.ifc != nil || o.ifc != nil {
		return t.ifc == o.ifc
	}
	return t.group.g == o.group.g && t.group.iface == o.group.iface
}

// AddGroup registers an empty group (the bus's AddGroup documents it).
func (d *Draft) AddGroup(name, policy string, ifaces []IfaceSpec) error {
	if name == "" {
		return fmt.Errorf("bus: group with empty name")
	}
	switch policy {
	case "":
		policy = PolicyRoundRobin
	case PolicyRoundRobin, PolicyLeastQueue:
	default:
		return fmt.Errorf("bus: group %s: unknown policy %q", name, policy)
	}
	if _, dup := d.instances[name]; dup {
		return fmt.Errorf("%w: %s names an instance", ErrDupInstance, name)
	}
	if _, dup := d.groups[name]; dup {
		return fmt.Errorf("%w: group %s", ErrDupInstance, name)
	}
	d.groups[name] = &groupEntry{g: &replicaGroup{name: name, policy: policy, ifaces: append([]IfaceSpec(nil), ifaces...)}}
	d.event(KindAddGroup, name, "policy "+policy)
	return nil
}

// AddGroupMember admits an instance declaring the group's interfaces and
// in no other group: a member's writes follow its one group's bindings.
func (d *Draft) AddGroupMember(group, member string) error {
	ge, ok := d.groups[group]
	if !ok {
		return fmt.Errorf("%w: group %s", ErrNoInstance, group)
	}
	in, ok := d.instances[member]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoInstance, member)
	}
	for _, is := range ge.g.ifaces {
		ifc, ok := in.Ifaces()[is.Name]
		if !ok || ifc.Spec.Dir != is.Dir {
			return fmt.Errorf("bus: group %s: member %s does not declare interface %s %s",
				group, member, is.Name, is.Dir)
		}
	}
	if slices.Contains(ge.members, member) {
		return fmt.Errorf("bus: group %s already has member %s", group, member)
	}
	for other, oe := range d.groups {
		if slices.Contains(oe.members, member) {
			return fmt.Errorf("bus: %s is a member of group %s, cannot join group %s", member, other, group)
		}
	}
	d.groups[group] = ge.with(member)
	d.event(KindJoinGroup, member, "group "+group)
	return nil
}

// RemoveGroupMember takes a member out, staging its queues' transfer.
func (d *Draft) RemoveGroupMember(group, member string) error {
	ge, ok := d.groups[group]
	if !ok {
		return fmt.Errorf("%w: group %s", ErrNoInstance, group)
	}
	if !slices.Contains(ge.members, member) {
		return fmt.Errorf("bus: group %s has no member %s", group, member)
	}
	ge = ge.without(member)
	d.groups[group] = ge
	d.event(KindLeaveGroup, member, "group "+group)
	in := d.instances[member] // members always exist in their table
	for _, n := range in.IfaceNames() {
		if ifc := in.Ifaces()[n]; ifc.q != nil {
			d.stageMove(&queueMove{from: ifc, to: d.receivers(ge, n), keep: true},
				KindMoveQueue, ifc.Name+" -> group "+group)
		}
	}
	return nil
}

// GroupInfo describes one replica group in a table (the bus re-exports it).
type GroupInfo struct {
	Name    string      `json:"name"`
	Policy  string      `json:"policy"`
	Members []string    `json:"members"`
	Ifaces  []IfaceSpec `json:"-"`
}

// Groups returns the snapshot's replica groups, sorted by name.
func (v View) Groups() []GroupInfo {
	out := make([]GroupInfo, 0, len(v.t.groups))
	for name, ge := range v.t.groups {
		out = append(out, GroupInfo{
			Name:    name,
			Policy:  ge.g.policy,
			Members: append([]string(nil), ge.members...),
			Ifaces:  append([]IfaceSpec(nil), ge.g.ifaces...),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
