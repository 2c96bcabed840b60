package bus

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
)

// This file is the *routing* layer of the bus — the first of the three
// layers the package decomposes into:
//
//	routing   (this file)  — who talks to whom: instances, interfaces and
//	                         bindings held in an immutable snapshot
//	                         (routingTable) behind an atomic pointer. The
//	                         data plane reads it lock-free; every topology
//	                         change builds and publishes a successor
//	                         copy-on-write.
//	queueing  (queue.go)   — per-endpoint message FIFOs owned by the
//	                         snapshot entries, each with its own small
//	                         lock; the only lock a steady-state message
//	                         ever takes.
//	transport (attach.go,  — how module runtimes reach the bus: in-process
//	           tcp.go)       attachments and the TCP wire protocol, both
//	                         consulting the snapshot, never the writer
//	                         lock.
//
// The split realizes the paper's cost model at the substrate level: the
// steady-state Send/Deliver path pays one atomic load plus one per-queue
// lock, while reconfiguration — the rare writer — pays the full snapshot
// rebuild under Bus.mu. A topology edit that fails has published nothing:
// the snapshot it drafted from simply remains current.

// errStaleRoute reports a routed push that resolved its target from a
// snapshot that a topology change has since invalidated for that queue.
// The writer retries against the current snapshot (write → writeSlow); the
// sentinel never escapes the package.
var errStaleRoute = errors.New("bus: route resolved from a stale snapshot")

// target is one delivery destination in a precomputed route set: either a
// single receiving interface or a replica group the bus load-balances over.
// Exactly one field is non-nil.
type target struct {
	ifc   *iface
	group *groupRoute
}

// sameTarget reports whether two targets denote the same destination across
// snapshots: interface entries are shared between snapshots, and group
// targets compare by the persistent group identity plus interface name
// (their groupRoute entries are rebuilt per snapshot).
func sameTarget(a, c target) bool {
	if a.ifc != nil || c.ifc != nil {
		return a.ifc == c.ifc
	}
	return a.group.g == c.group.g && a.group.iface == c.group.iface
}

// routeSet is the precomputed delivery fan-out of one sending endpoint.
type routeSet struct {
	src     *iface
	targets []target
}

// routingTable is one immutable topology snapshot. Everything reachable
// from it is either itself immutable (the maps and slices, an instance's
// interface set, a group's membership entry) or owns its own fine-grained
// lock (message queues, the per-instance runtime state). A table is never
// mutated after publish; version increases by exactly one per published
// successor.
type routingTable struct {
	version   uint64
	instances map[string]*instance
	groups    map[string]*groupEntry
	bindings  []Binding

	// routes maps every *sending* endpoint to its delivery targets,
	// precomputed at build time so the hot path does no binding scan and
	// allocates nothing.
	routes map[Endpoint]routeSet
}

// lookup resolves an endpoint to its interface entry.
func (t *routingTable) lookup(e Endpoint) (*iface, error) {
	in, ok := t.instances[e.Instance]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoInstance, e.Instance)
	}
	ifc, ok := in.ifaces[e.Interface]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoInterface, e)
	}
	return ifc, nil
}

// opposite returns the far side of a binding relative to from, without
// judging whether it can receive.
func opposite(bd Binding, from Endpoint) (Endpoint, bool) {
	switch from {
	case bd.A:
		return bd.B, true
	case bd.B:
		return bd.A, true
	default:
		return Endpoint{}, false
	}
}

// receives reports whether an endpoint can consume messages: an instance
// interface with a receiving direction, or a receiving group interface.
func (t *routingTable) receives(e Endpoint) bool {
	dir, _, err := t.endpointDir(e)
	return err == nil && dir.Receives()
}

// route returns the delivery target when a message written on from is
// carried by the binding bd: the opposite endpoint, if it receives.
func (t *routingTable) route(bd Binding, from Endpoint) (Endpoint, bool) {
	other, ok := opposite(bd, from)
	if !ok || !t.receives(other) {
		return Endpoint{}, false
	}
	return other, true
}

// draft opens a mutable working copy of the table for the editor. Instance
// objects and group entries are shared (their interface sets and member
// lists are immutable; a membership edit replaces the entry); only the
// topology containers are copied.
func (t *routingTable) draft() *topologyDraft {
	return &topologyDraft{routingTable: routingTable{
		instances: maps.Clone(t.instances),
		groups:    maps.Clone(t.groups),
		bindings:  slices.Clone(t.bindings),
	}}
}

// topologyDraft is the editor's mutable view between a draft() and a
// build(). It exists only while the writer lock is held and is discarded
// whole on any validation failure, which is what makes multi-edit
// operations (Rebind) atomic: either the built successor is published or
// the previous snapshot simply remains current. An edit touches nothing
// but the draft: what it wants done to queues and instances it stages
// here, for the commit (Bus.editLocked) to carry out once every edit has
// validated.
type topologyDraft struct {
	routingTable // the successor under construction: build sets version and routes

	fenced  []*iface     // interfaces the change takes routed traffic away from
	moves   []*queueMove // queue transfers, in staging order
	deleted []*instance  // instances to close once the successor is published

	// events collects the observer events the edits correspond to; the
	// commit emits them only after the successor snapshot is published, so
	// a failed edit leaves no phantom trail.
	events []Event
}

// queueMove is one staged queue transfer: the commit takes everything queued
// at from and deals it round-robin over to; with no destination it discards
// the messages, or with keep leaves them where they were. The staged event
// at index ev reports how many messages went and their trace ids.
type queueMove struct {
	from *iface
	to   []*iface
	keep bool
	ev   int
	n    int // set by the commit: the messages that left from
}

// build freezes the draft into a published-ready snapshot, precomputing
// the route sets. Group endpoints resolve to shared groupRoute entries so
// every sender bound to the same group sees one coherent member list; a
// group member additionally inherits the bindings of its group endpoint,
// which is what routes a member's replies back along a binding that names
// the group.
func (d *topologyDraft) build(version uint64) *routingTable {
	t := d.routingTable // a copy: the published table does not keep the draft alive
	t.version, t.routes = version, make(map[Endpoint]routeSet)
	groupRoutes := map[Endpoint]*groupRoute{}
	for gname, ge := range t.groups {
		for _, is := range ge.g.ifaces {
			if is.Dir.Receives() {
				groupRoutes[Endpoint{Instance: gname, Interface: is.Name}] =
					&groupRoute{g: ge.g, iface: is.Name, members: d.receivers(ge, is.Name)}
			}
		}
	}
	memberOf := map[string]string{}
	for gname, ge := range t.groups {
		for _, m := range ge.members {
			memberOf[m] = gname
		}
	}
	for name, in := range d.instances {
		for ifName, ifc := range in.ifaces {
			if !ifc.spec.Dir.Sends() {
				continue
			}
			from := Endpoint{Instance: name, Interface: ifName}
			rs := routeSet{src: ifc}
			addFor := func(match Endpoint) {
				for _, bd := range t.bindings {
					other, ok := opposite(bd, match)
					if !ok {
						continue
					}
					if gr, isGroup := groupRoutes[other]; isGroup {
						rs.targets = append(rs.targets, target{group: gr})
						continue
					}
					if tgt, err := t.lookup(other); err == nil && tgt.spec.Dir.Receives() {
						rs.targets = append(rs.targets, target{ifc: tgt})
					}
				}
			}
			addFor(from)
			if g, ok := memberOf[name]; ok {
				addFor(Endpoint{Instance: g, Interface: ifName})
			}
			t.routes[from] = rs
		}
	}
	return &t
}

// receivers returns the queue-owning interface entries named ifName of a
// group's live members, in member order.
func (d *topologyDraft) receivers(ge *groupEntry, ifName string) []*iface {
	var out []*iface
	for _, m := range ge.members {
		if in, ok := d.instances[m]; ok {
			if ifc, ok := in.ifaces[ifName]; ok && ifc.queue != nil {
				out = append(out, ifc)
			}
		}
	}
	return out
}

// fence stages a fence on whatever queues the messages sent to e: an
// instance interface's own queue, or a group endpoint's members' queues for
// that interface. An endpoint that queues nothing stages nothing.
func (d *topologyDraft) fence(e Endpoint) {
	if ge, ok := d.groups[e.Instance]; ok {
		d.fenced = append(d.fenced, d.receivers(ge, e.Interface)...)
	} else if ifc, err := d.lookup(e); err == nil && ifc.queue != nil {
		d.fenced = append(d.fenced, ifc)
	}
}

// stageMove stages a queue transfer, the fence on its source and the event
// that will report it.
func (d *topologyDraft) stageMove(mv *queueMove, kind EventKind, detail string) *queueMove {
	mv.ev = len(d.events)
	d.fenced = append(d.fenced, mv.from)
	d.moves = append(d.moves, mv)
	d.events = append(d.events, Event{Kind: kind, Detail: detail})
	return mv
}

// receiving resolves an endpoint that must queue incoming messages.
func (d *topologyDraft) receiving(e Endpoint) (*iface, error) {
	ifc, err := d.lookup(e)
	if err == nil && ifc.queue == nil {
		return nil, fmt.Errorf("%w: %s does not receive", ErrDirection, e)
	}
	return ifc, err
}

// moveQueue stages the "cq" command of Figure 5: the messages queued at from
// go to the queue at to, in order.
func (d *topologyDraft) moveQueue(from, to Endpoint) error {
	fi, err := d.receiving(from)
	if err != nil {
		return err
	}
	ti, err := d.receiving(to)
	if err != nil {
		return err
	}
	d.stageMove(&queueMove{from: fi, to: []*iface{ti}}, EventMoveQueue, from.String()+" -> "+to.String())
	return nil
}

// discardQueue stages the "rmq" command: the messages queued at e are
// dropped.
func (d *topologyDraft) discardQueue(e Endpoint) (*queueMove, error) {
	ifc, err := d.receiving(e)
	if err != nil {
		return nil, err
	}
	return d.stageMove(&queueMove{from: ifc}, EventDrainQueue, e.String()), nil
}

// deleteInstance removes an instance together with its group memberships
// and every binding that touches it, and stages the fence on its queues and
// its closing.
func (d *topologyDraft) deleteInstance(name string) error {
	in, ok := d.instances[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoInstance, name)
	}
	for _, ifc := range in.ifaces {
		if ifc.queue != nil {
			d.fenced = append(d.fenced, ifc)
		}
	}
	delete(d.instances, name)
	for gname, ge := range d.groups {
		if ge.has(name) {
			d.groups[gname] = ge.without(name)
		}
	}
	d.bindings = slices.DeleteFunc(d.bindings, func(bd Binding) bool {
		return bd.A.Instance == name || bd.B.Instance == name
	})
	d.deleted = append(d.deleted, in)
	d.events = append(d.events, Event{Kind: EventDeleteInstance, Instance: name})
	return nil
}

// endpointDir resolves the direction of a binding endpoint, which may name
// an instance interface or a group interface (the bool says which).
func (t *routingTable) endpointDir(e Endpoint) (Direction, bool, error) {
	if ge, ok := t.groups[e.Instance]; ok {
		for _, is := range ge.g.ifaces {
			if is.Name == e.Interface {
				return is.Dir, true, nil
			}
		}
		return 0, true, fmt.Errorf("%w: %s", ErrNoInterface, e)
	}
	ifc, err := t.lookup(e)
	if err != nil {
		return 0, false, err
	}
	return ifc.spec.Dir, false, nil
}

// addBinding validates and appends a binding, recording the event. Either
// side may name a replica group, but not both: group-to-group bindings have
// no sending identity to load-balance from.
func (d *topologyDraft) addBinding(a, c Endpoint) error {
	da, aGroup, err := d.endpointDir(a)
	if err != nil {
		return err
	}
	dc, cGroup, err := d.endpointDir(c)
	if err != nil {
		return err
	}
	if aGroup && cGroup {
		return fmt.Errorf("bus: binding %s <-> %s connects two groups", a, c)
	}
	if !(da.Sends() && dc.Receives()) && !(dc.Sends() && da.Receives()) {
		return fmt.Errorf("%w: %s (%s) <-> %s (%s)", ErrDirection, a, da, c, dc)
	}
	for _, bd := range d.bindings {
		if (bd.A == a && bd.B == c) || (bd.A == c && bd.B == a) {
			return fmt.Errorf("bus: binding %s <-> %s already exists", a, c)
		}
	}
	d.bindings = append(d.bindings, Binding{A: a, B: c})
	d.events = append(d.events, Event{Kind: EventAddBinding, Detail: a.String() + " <-> " + c.String()})
	return nil
}

// deleteBinding removes the binding between two endpoints (in either
// orientation), recording the event and staging a fence on both sides'
// queues: a writer that resolved its route through the binding re-routes.
func (d *topologyDraft) deleteBinding(a, c Endpoint) error {
	for i, bd := range d.bindings {
		if (bd.A == a && bd.B == c) || (bd.A == c && bd.B == a) {
			d.bindings = append(d.bindings[:i], d.bindings[i+1:]...)
			d.fence(a)
			d.fence(c)
			d.events = append(d.events, Event{Kind: EventDeleteBinding, Detail: a.String() + " <-> " + c.String()})
			return nil
		}
	}
	return fmt.Errorf("%w: %s <-> %s", ErrNoBinding, a, c)
}

// RoutingView is the narrow read-only surface of the routing layer: an
// immutable, point-in-time view of the topology. A view never changes
// after it is taken — two calls to Bus.Routing() around a reconfiguration
// observe distinct versions — so callers can correlate observations with
// snapshot epochs (the control plane's stats report the live version as
// snapshot_version).
type RoutingView struct {
	t *routingTable
}

// Version returns the snapshot's epoch. It increases by one for every
// committed topology change; a change that fails validation publishes
// nothing.
func (v RoutingView) Version() uint64 { return v.t.version }

// Instances returns the sorted names of the snapshot's instances.
func (v RoutingView) Instances() []string {
	names := make([]string, 0, len(v.t.instances))
	for n := range v.t.instances {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Bindings returns the snapshot's bindings, deterministically sorted by
// endpoint pair.
func (v RoutingView) Bindings() []Binding {
	out := make([]Binding, len(v.t.bindings))
	copy(out, v.t.bindings)
	sort.Slice(out, func(i, j int) bool {
		if out[i].A.String() != out[j].A.String() {
			return out[i].A.String() < out[j].A.String()
		}
		return out[i].B.String() < out[j].B.String()
	})
	return out
}

// Routing returns the current topology snapshot. The view is immutable;
// reload it to observe later reconfigurations.
func (b *Bus) Routing() RoutingView { return RoutingView{t: b.routing.Load()} }
