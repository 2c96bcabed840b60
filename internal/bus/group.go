package bus

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/bus/internal/queue"
)

// This file adds *replica groups* to the routing layer: a group is a
// logical, bindable name whose receiving interfaces fan in to N live member
// instances, load-balanced per message by a pluggable policy. The member
// set is part of the copy-on-write routing table, so a membership change is
// one successor-snapshot publish — atomic under racing senders and
// committed exactly like a rebind (Bus.editLocked). That is what makes crash
// recovery lossless: marking a dead member out fences its queues at the
// outgoing epoch, so a sender that resolved the old member set is refused
// at the queue and retries against the successor, while the already-queued
// messages are drained and redistributed to the survivors.

// Load-balancing policies. PolicyRoundRobin rotates deliveries across the
// members; PolicyLeastQueue routes each message to the member with the
// shallowest receive queue. The strings match the MIL "policy" keyword.
const (
	PolicyRoundRobin = "roundrobin"
	PolicyLeastQueue = "leastqueue"
)

// replicaGroup is the persistent identity of a group, shared across routing
// snapshots the way instance objects are: the name, interface shape and
// policy are immutable after AddGroup, and the round-robin cursor is an
// atomic so the lock-free delivery path can advance it.
type replicaGroup struct {
	name   string
	policy string
	ifaces []IfaceSpec
	rr     atomic.Uint64
}

// groupEntry is a group's membership inside one routing snapshot. Entries
// are immutable after build; membership edits copy-on-write a successor
// entry into the draft.
type groupEntry struct {
	g       *replicaGroup
	members []string // sorted
}

// with returns a copy of the entry with a member added.
func (ge *groupEntry) with(member string) *groupEntry {
	members := make([]string, 0, len(ge.members)+1)
	members = append(members, ge.members...)
	members = append(members, member)
	sort.Strings(members)
	return &groupEntry{g: ge.g, members: members}
}

// without returns a copy of the entry with a member removed.
func (ge *groupEntry) without(member string) *groupEntry {
	members := make([]string, 0, len(ge.members))
	for _, m := range ge.members {
		if m != member {
			members = append(members, m)
		}
	}
	return &groupEntry{g: ge.g, members: members}
}

func (ge *groupEntry) has(member string) bool {
	for _, m := range ge.members {
		if m == member {
			return true
		}
	}
	return false
}

// groupRoute is the precomputed delivery fan-in of one receiving group
// endpoint in one snapshot: the live members' interface entries, resolved
// at build time so the hot path does no map lookups. All route sets bound
// to the same group endpoint share one groupRoute.
type groupRoute struct {
	g       *replicaGroup
	iface   string
	members []*iface
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
		if l := m.queue.Len(); bestLen == -1 || l < bestLen {
			start, bestLen = i, l
		}
	}
	return start
}

// deliverGroup picks one live member by the group's policy and pushes the
// message written on src to its queue, for the fast path and for writeSlow
// alike. A stale fence surfaces as queue.ErrStaleRoute so the fast path
// retries through writeSlow against the successor snapshot (the member set
// may have changed); a closed member queue is skipped in favor of the next
// member. With no deliverable member the message is dropped like a write to
// a deleted instance, and queue.ErrClosed reports it. woke is the push's:
// whether it woke the member's parked reader.
//
//archlint:hotpath
func (b *Bus) deliverGroup(gr *groupRoute, msg *Message, src *iface, version uint64) (woke bool, err error) {
	n := len(gr.members)
	if n == 0 {
		return false, queue.ErrClosed
	}
	start := gr.first()
	for k := 0; k < n; k++ {
		m := gr.members[(start+k)%n]
		switch woke, err := m.queue.PushRouted(msg, &src.name, version); err {
		case nil:
			return woke, nil
		case queue.ErrStaleRoute:
			return false, queue.ErrStaleRoute
		default: // closed: try the next member
		}
	}
	return false, queue.ErrClosed
}

// AddGroup registers a replica group: a logical name bindings may target,
// whose receiving interfaces load-balance across the group's members under
// the given policy ("" defaults to round-robin). The group starts empty;
// AddGroupMember admits instances whose interface sets match ifaces.
func (b *Bus) AddGroup(name, policy string, ifaces []IfaceSpec) error {
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
	g := &replicaGroup{name: name, policy: policy, ifaces: append([]IfaceSpec(nil), ifaces...)}
	return b.edit(func(d *topologyDraft) error {
		if _, dup := d.instances[name]; dup {
			return fmt.Errorf("%w: %s names an instance", ErrDupInstance, name)
		}
		if _, dup := d.groups[name]; dup {
			return fmt.Errorf("%w: group %s", ErrDupInstance, name)
		}
		d.groups[name] = &groupEntry{g: g}
		d.event(kindAddGroup, name, "policy "+policy)
		return nil
	})
}

// AddGroupMember admits an existing instance into a group. The instance
// must declare every group interface with the same direction. The join is
// one copy-on-write snapshot publish: senders racing it keep delivering to
// the old member set until the successor is visible.
func (b *Bus) AddGroupMember(group, member string) error {
	return b.edit(func(d *topologyDraft) error {
		ge, ok := d.groups[group]
		if !ok {
			return fmt.Errorf("%w: group %s", ErrNoInstance, group)
		}
		in, ok := d.instances[member]
		if !ok {
			return fmt.Errorf("%w: %s", ErrNoInstance, member)
		}
		for _, is := range ge.g.ifaces {
			ifc, ok := in.ifaces[is.Name]
			if !ok || ifc.spec.Dir != is.Dir {
				return fmt.Errorf("bus: group %s: member %s does not declare interface %s %s",
					group, member, is.Name, is.Dir)
			}
		}
		if ge.has(member) {
			return fmt.Errorf("bus: group %s already has member %s", group, member)
		}
		d.groups[group] = ge.with(member)
		d.event(kindJoinGroup, member, "group "+group)
		return nil
	})
}

// RemoveGroupMember takes an instance out of its group and redistributes its
// queued traffic over the surviving members — the mark-out step of crash
// recovery. Zero message loss under racing senders is the commit's order:
// the member's receiving queues are fenced at the outgoing epoch, so a sender
// that resolved the outgoing member set is refused at the queue and retries
// against the successor snapshot (which no longer lists the member), and
// what the fenced queues hold is dealt round-robin over the survivors'. With
// no survivor the messages stay queued at the (fenced) member, where a later
// queue move — the supervisor's replace transaction — still carries them to
// the rebuilt replica.
func (b *Bus) RemoveGroupMember(group, member string) error {
	return b.edit(func(d *topologyDraft) error {
		ge, ok := d.groups[group]
		if !ok {
			return fmt.Errorf("%w: group %s", ErrNoInstance, group)
		}
		if !ge.has(member) {
			return fmt.Errorf("bus: group %s has no member %s", group, member)
		}
		ge = ge.without(member)
		d.groups[group] = ge
		d.event(kindLeaveGroup, member, "group "+group)
		in := d.instances[member] // members always exist in their snapshot
		for _, ifName := range in.ifaceNames() {
			if ifc := in.ifaces[ifName]; ifc.queue != nil {
				d.stageMove(&queueMove{from: ifc, to: d.receivers(ge, ifName), keep: true},
					kindMoveQueue, ifc.name+" -> group "+group)
			}
		}
		return nil
	})
}

// GroupMembers returns the current live members of a group, sorted.
func (b *Bus) GroupMembers(name string) ([]string, error) {
	ge, ok := b.routing.Load().groups[name]
	if !ok {
		return nil, fmt.Errorf("%w: group %s", ErrNoInstance, name)
	}
	return append([]string(nil), ge.members...), nil
}

// GroupInfo describes one replica group in a routing snapshot.
type GroupInfo struct {
	Name    string      `json:"name"`
	Policy  string      `json:"policy"`
	Members []string    `json:"members"`
	Ifaces  []IfaceSpec `json:"-"`
}

// Groups returns the snapshot's replica groups, sorted by name.
func (v RoutingView) Groups() []GroupInfo {
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
