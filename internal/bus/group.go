package bus

import (
	"fmt"

	"repro/internal/bus/internal/routing"
)

// Load-balancing policies. PolicyRoundRobin rotates deliveries across the
// members; PolicyLeastQueue routes each message to the member with the
// shallowest receive queue. The strings match the MIL "policy" keyword.
const (
	PolicyRoundRobin = routing.PolicyRoundRobin
	PolicyLeastQueue = routing.PolicyLeastQueue
)

// AddGroup registers a replica group: a logical name bindings may target,
// whose receiving interfaces load-balance across the group's members under
// the given policy ("" defaults to round-robin). The group starts empty;
// AddGroupMember admits instances whose interface sets match ifaces. A
// binding to a group with no member receives nothing: a write with no other
// receiver is unbound (ErrUnbound, counted in Stats.Dropped).
func (b *Bus) AddGroup(name, policy string, ifaces []IfaceSpec) error {
	return b.commit.Edit(func(d *routing.Draft) error {
		return d.AddGroup(name, policy, ifaces)
	}, b.committed)
}

// AddGroupMember admits an existing instance into a group. The instance
// must declare every group interface with the same direction and be in no
// other group: a member inherits its group's bindings, so a second group
// would leave its writes two routes to choose from. The join is
// one copy-on-write snapshot publish: senders racing it keep delivering to
// the old member set until the successor is visible.
func (b *Bus) AddGroupMember(group, member string) error {
	return b.commit.Edit(func(d *routing.Draft) error {
		return d.AddGroupMember(group, member)
	}, b.committed)
}

// RemoveGroupMember takes an instance out of its group and redistributes its
// queued traffic over the surviving members — the mark-out step of crash
// recovery. Zero message loss under racing senders is the commit's order:
// the member's receiving queues are fenced at the outgoing epoch, so a sender
// that resolved the outgoing member set is refused at the queue and retries
// against the successor snapshot (which no longer lists the member), and
// what the fenced queues hold is dealt round-robin over the survivors',
// which are fenced too, so no racing delivery lands among them. With
// no survivor the messages stay queued at the (fenced) member, where a later
// queue move — the supervisor's replace transaction — still carries them to
// the rebuilt replica.
func (b *Bus) RemoveGroupMember(group, member string) error {
	return b.commit.Edit(func(d *routing.Draft) error {
		return d.RemoveGroupMember(group, member)
	}, b.committed)
}

// GroupMembers returns the current live members of a group, sorted.
func (b *Bus) GroupMembers(name string) ([]string, error) {
	for _, g := range b.Routing().Groups() {
		if g.Name == name {
			return g.Members, nil
		}
	}
	return nil, fmt.Errorf("%w: group %s", ErrNoInstance, name)
}

// GroupInfo describes one replica group in a routing snapshot.
type GroupInfo = routing.GroupInfo
