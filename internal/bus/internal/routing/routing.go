// Package routing is the bottom of the bus's three layers: who talks to
// whom. It holds the instances' interface entries, the bindings and the
// replica groups in an immutable Table behind an atomic pointer
// (Published). Queueing (package queue) holds the FIFOs the entries own;
// transport (the bus's attachments and TCP server) reads the published
// table. A message pays one atomic load plus one queue lock; a topology
// change drafts a copy of the table, stages its edits there and commits it
// under the writer lock, and one that fails has published nothing.
// The compiler keeps the discipline: a table's fields are unexported, only
// build makes a table, and only the Committer New hands the bus publishes
// one, through Edit, which holds the writer lock from the draft to the end
// of the commit; the lock and the commit are unexported here. A receiving
// interface's queue is built here (Iface.Receive), so the queue's fence half
// stays in the entry, where only the commit reaches it.
// The package never sees the bus's instance runtime, only an Instance's
// interfaces.
package routing

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bus/internal/queue"
	"repro/internal/clock"
	"repro/internal/replay"
	"repro/internal/telemetry"
	"repro/internal/telemetry/evlog"
)

// The bus's vocabulary, documented where the bus re-exports it.
type (
	Direction int
	Endpoint  = queue.Endpoint
	IfaceSpec struct {
		Name string
		Dir  Direction
	}
	Binding struct {
		A Endpoint
		B Endpoint
	}
	BindEdit struct {
		Op   string
		From Endpoint
		To   Endpoint
	}
)

// Interface directions.
const (
	In Direction = iota + 1
	Out
	InOut
)

// String returns "in", "out" or "inout".
func (d Direction) String() string {
	if d < In || d > InOut {
		return fmt.Sprintf("direction(%d)", int(d))
	}
	return [...]string{In: "in", Out: "out", InOut: "inout"}[d]
}

// Receives reports whether the interface can consume messages.
func (d Direction) Receives() bool { return d == In || d == InOut }

// Sends reports whether the interface can emit messages.
func (d Direction) Sends() bool { return d == Out || d == InOut }

var (
	ErrNoInstance  = errors.New("bus: no such instance")
	ErrDupInstance = errors.New("bus: duplicate instance")
	ErrNoInterface = errors.New("bus: no such interface")
	ErrDirection   = errors.New("bus: interface direction does not permit operation")
	ErrNoBinding   = errors.New("bus: no such binding")
)

// Kinds of the event records a topology change stages, spelled as /events
// renders them.
const (
	KindAddInstance    = "add-instance"
	KindDeleteInstance = "delete-instance"
	KindAddBinding     = "add-binding"
	KindDeleteBinding  = "delete-binding"
	KindRebind         = "rebind"
	KindMoveQueue      = "move-queue"
	KindDrainQueue     = "drain-queue"
	KindAddGroup       = "add-group"
	KindJoinGroup      = "join-group"
	KindLeaveGroup     = "leave-group"
)

// Iface is one interface's entry, built once when its instance is added and
// shared by every table after. Sent is nil for an interface that only
// receives.
type Iface struct {
	Spec IfaceSpec
	Name string // "instance.interface"
	Sent *telemetry.Counter

	q     *queue.Queue // incoming messages, nil for pure-Out interfaces
	fence queue.Fence  // q's fence half: the commit's alone
}

// Queue returns the interface's queue of incoming messages, nil for a
// pure-Out interface.
func (ifc *Iface) Queue() *queue.Queue { return ifc.q }

// Receive builds the interface's queue (queue.New documents the arguments)
// and returns it; its fence half stays here.
func (ifc *Iface) Receive(rec *replay.QueueLog, clk clock.Clock, latency *telemetry.Histogram, delivered *telemetry.Counter) *queue.Queue {
	ifc.q, ifc.fence = queue.New(rec, clk, latency, delivered)
	return ifc.q
}

// Instance is what a table keeps of a module instance: its interface
// entries by name, fixed when it is added, and their names in order.
type Instance interface {
	Ifaces() map[string]*Iface
	IfaceNames() []string
}

// Table is one immutable topology snapshot: what it reaches is immutable or
// has its own lock (queues, the bus's instance runtime). Its version rises
// by exactly one per published successor.
type Table struct {
	version   uint64
	instances map[string]Instance
	groups    map[string]*groupEntry
	bindings  []Binding

	// routes: every sending endpoint's delivery targets, precomputed at
	// build so the hot path does no binding scan and allocates nothing.
	routes map[Endpoint]RouteSet
}

// RouteSet is the precomputed delivery fan-out of one sending endpoint.
type RouteSet struct {
	Src     *Iface
	Targets []Target
}

// Published holds the current table: Load is the data plane's one atomic
// load. Before the first commit, Load returns nil. mu is the writer lock:
// only a Committer's Edit and Settled take it.
type Published struct {
	cur atomic.Pointer[Table]
	mu  sync.Mutex
}

// Committer is the one writer of a Published: New hands it to the table's
// owner, and nothing else makes one. Its commits are totally ordered: each
// drafts from the table the previous one published.
type Committer struct{ p *Published }

// New returns an empty Published and its Committer.
func New() (*Published, Committer) {
	p := new(Published)
	return p, Committer{p}
}

// Load returns the current table.
func (p *Published) Load() *Table { return p.cur.Load() }

// Edit is the one topology change: under the writer lock it drafts the
// current table and hands the draft to stage, which stages the whole change
// there and touches nothing else. An error from stage is returned with
// nothing published, no queue touched and no event staged. What validated is
// committed, and committed runs, still under the lock, with the instances to
// close, the staged events in order and how many messages went to another
// queue, so the next edit and a waiting Settled see its effects done.
func (c Committer) Edit(stage func(*Draft) error, committed func(deleted []Instance, events []evlog.Record, moved int)) error {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	d := c.p.Load().Draft()
	if err := stage(d); err != nil {
		return err
	}
	committed(c.commit(d))
	return nil
}

// Settled runs fn on the current table under the writer lock, and returns
// what fn does: every commit that fenced a queue before the call has
// published its successor, and none runs until fn returns.
func (c Committer) Settled(fn func(*Table) error) error {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	return fn(c.p.Load())
}

// Version returns the table's epoch.
func (t *Table) Version() uint64 { return t.version }

// Instance returns the named instance as it was added.
func (t *Table) Instance(name string) (Instance, bool) {
	in, ok := t.instances[name]
	return in, ok
}

// Route returns from's precomputed fan-out, if from is a sending interface.
func (t *Table) Route(from Endpoint) (rs RouteSet, ok bool) {
	rs, ok = t.routes[from]
	return rs, ok
}

// Lookup resolves an endpoint to its interface entry.
func (t *Table) Lookup(e Endpoint) (*Iface, error) {
	in, ok := t.instances[e.Instance]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoInstance, e.Instance)
	}
	ifc, ok := in.Ifaces()[e.Interface]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoInterface, e)
	}
	return ifc, nil
}

// Dests and Sources return the far ends — instance or group interfaces — of
// the bindings that name e: those that receive what e writes, and those that
// write what e receives. Both are empty when e does not send, or does not
// receive, and follow binding creation order.
func (t *Table) Dests(e Endpoint) ([]Endpoint, error) {
	return t.peers(e, Direction.Sends, Direction.Receives)
}

func (t *Table) Sources(e Endpoint) ([]Endpoint, error) {
	return t.peers(e, Direction.Receives, Direction.Sends)
}

// peers lists, when e's direction has the property own, the far ends of the
// bindings naming e whose direction has the property far.
func (t *Table) peers(e Endpoint, own, far func(Direction) bool) ([]Endpoint, error) {
	ifc, err := t.Lookup(e)
	if err != nil || !own(ifc.Spec.Dir) {
		return nil, err
	}
	var out []Endpoint
	for _, bd := range t.bindings {
		if other, ok := opposite(bd, e); ok {
			if d, _, err := t.endpointDir(other); err == nil && far(d) {
				out = append(out, other)
			}
		}
	}
	return out, nil
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

// endpointDir resolves the direction of a binding endpoint, which may name
// an instance interface or a group interface (the bool says which).
func (t *Table) endpointDir(e Endpoint) (Direction, bool, error) {
	if ge, ok := t.groups[e.Instance]; ok {
		for _, is := range ge.g.ifaces {
			if is.Name == e.Interface {
				return is.Dir, true, nil
			}
		}
		return 0, true, fmt.Errorf("%w: %s", ErrNoInterface, e)
	}
	ifc, err := t.Lookup(e)
	if err != nil {
		return 0, false, err
	}
	return ifc.Spec.Dir, false, nil
}

// Draft opens a mutable working copy of the table for the editor. Instances
// and group entries are shared (their interface sets and member lists are
// immutable; a membership edit replaces the entry); only the topology
// containers are copied. The draft's version is the table's, until build; a
// nil table drafts the empty one, version 0.
func (t *Table) Draft() *Draft {
	if t == nil {
		t = &Table{instances: map[string]Instance{}, groups: map[string]*groupEntry{}}
	}
	return &Draft{Table: Table{
		version:   t.version,
		instances: maps.Clone(t.instances),
		groups:    maps.Clone(t.groups),
		bindings:  slices.Clone(t.bindings),
	}}
}

// Draft is the editor's mutable view between Table.Draft and the commit. It
// is discarded whole on any validation failure, which makes multi-edit
// operations (Rebind) atomic. An edit touches nothing but the draft: what it
// wants done to queues and instances it stages here, for the commit.
type Draft struct {
	Table // the successor under construction: build sets version and routes

	fenced  []*Iface     // interfaces the change takes routed traffic away from
	moves   []*queueMove // queue transfers, in staging order
	deleted []Instance   // instances to close once the successor is published

	events []evlog.Record // the edits' log records, appended after the publish
}

// event stages one log record.
func (d *Draft) event(kind, instance, detail string) {
	d.events = append(d.events, evlog.Record{Kind: kind, Instance: instance, Detail: detail})
}

// queueMove is one staged queue transfer: what is queued at from is dealt
// round-robin over to, or with none discarded, or with keep left in place.
// The staged event at index ev reports how many went and their trace ids.
type queueMove struct {
	from *Iface
	to   []*Iface
	keep bool
	ev   int
	n    int // set by the commit: the messages that left from
}

// commit carries out a validated draft in an order nothing in it can fail:
// fence every staged queue at the outgoing version, so a writer that
// resolved its route from the outgoing table is refused at the queue; move
// what each fenced source holds, stamped with the successor version; publish
// the successor. It hands back the deleted instances, the staged events and
// how many messages went to another queue. Edit runs it under the writer
// lock.
func (c Committer) commit(d *Draft) (deleted []Instance, events []evlog.Record, moved int) {
	next := d.version + 1
	for _, ifc := range d.fenced {
		ifc.fence.Detach(d.version)
	}
	for _, mv := range d.moves {
		items := mv.from.fence.Drain()
		switch {
		case len(mv.to) > 0:
			for i := range items {
				mv.to[i%len(mv.to)].fence.PushAll(items[i:i+1], next)
			}
			moved += len(items)
		case mv.keep:
			mv.from.fence.Restore(items, next)
			items = nil
		}
		mv.n = len(items)
		ev := &d.events[mv.ev]
		ev.Detail += fmt.Sprintf(" (%d msgs)", mv.n)
		ev.TraceIDs = traceIDsOf(items)
	}
	c.p.cur.Store(d.build(next))
	return d.deleted, d.events, moved
}

// traceIDsOf collects the distinct nonzero trace IDs of a transferred
// batch, in first-seen order, capped at 8 — enough for event-log
// correlation without unbounded event payloads.
func traceIDsOf(items []queue.Item) []uint64 {
	var ids []uint64
	for _, it := range items {
		if id := it.Msg.Trace.TraceID; id != 0 && !slices.Contains(ids, id) {
			if ids = append(ids, id); len(ids) == 8 {
				break
			}
		}
	}
	return ids
}

// build freezes the draft into a table, precomputing the route sets. Every
// sender bound to a group endpoint shares its one groupRoute, listed only
// while the group has a live member: a write whose every binding names an
// empty group has no target, so it is unbound. A group member also inherits
// its group endpoint's bindings, which routes a member's replies back along
// a binding that names the group.
func (d *Draft) build(version uint64) *Table {
	t := d.Table // a copy: the published table does not keep the draft alive
	t.version, t.routes = version, make(map[Endpoint]RouteSet)
	groupRoutes, memberOf := map[Endpoint]*groupRoute{}, map[string]string{}
	for gname, ge := range t.groups {
		for _, is := range ge.g.ifaces {
			if is.Dir.Receives() {
				groupRoutes[Endpoint{Instance: gname, Interface: is.Name}] =
					&groupRoute{g: ge.g, iface: is.Name, members: d.receivers(ge, is.Name)}
			}
		}
		for _, m := range ge.members {
			memberOf[m] = gname
		}
	}
	for name, in := range d.instances {
		for ifName, ifc := range in.Ifaces() {
			if !ifc.Spec.Dir.Sends() {
				continue
			}
			from := Endpoint{Instance: name, Interface: ifName}
			rs := RouteSet{Src: ifc}
			addFor := func(match Endpoint) {
				for _, bd := range t.bindings {
					other, ok := opposite(bd, match)
					if !ok {
						continue
					}
					if gr, isGroup := groupRoutes[other]; isGroup {
						if len(gr.members) > 0 {
							rs.Targets = append(rs.Targets, Target{group: gr})
						}
						continue
					}
					if tgt, err := t.Lookup(other); err == nil && tgt.Spec.Dir.Receives() {
						rs.Targets = append(rs.Targets, Target{ifc: tgt})
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
func (d *Draft) receivers(ge *groupEntry, ifName string) []*Iface {
	var out []*Iface
	for _, m := range ge.members {
		if in, ok := d.instances[m]; ok {
			if ifc, ok := in.Ifaces()[ifName]; ok && ifc.q != nil {
				out = append(out, ifc)
			}
		}
	}
	return out
}

// fence stages a fence on whatever queues the messages sent to e: an
// instance interface's own queue, or a group endpoint's members' queues for
// that interface. An endpoint that queues nothing stages nothing.
func (d *Draft) fence(e Endpoint) {
	if ge, ok := d.groups[e.Instance]; ok {
		d.fenced = append(d.fenced, d.receivers(ge, e.Interface)...)
	} else if ifc, err := d.Lookup(e); err == nil && ifc.q != nil {
		d.fenced = append(d.fenced, ifc)
	}
}

// stageMove stages a queue transfer, the fences on its source and on the
// queues it lands in (a routed write to one is retried after the commit,
// so the moved messages land contiguously), and the event that will report
// it.
func (d *Draft) stageMove(mv *queueMove, kind, detail string) *queueMove {
	mv.ev = len(d.events)
	d.fenced = append(append(d.fenced, mv.from), mv.to...)
	d.moves = append(d.moves, mv)
	d.event(kind, "", detail)
	return mv
}

// receiving resolves an endpoint that must queue incoming messages.
func (d *Draft) receiving(e Endpoint) (*Iface, error) {
	ifc, err := d.Lookup(e)
	if err == nil && ifc.q == nil {
		return nil, fmt.Errorf("%w: %s does not receive", ErrDirection, e)
	}
	return ifc, err
}

// moveQueue stages the "cq" command of Figure 5: the messages queued at from
// go to the queue at to, in order.
func (d *Draft) moveQueue(from, to Endpoint) error {
	fi, err := d.receiving(from)
	if err != nil {
		return err
	}
	ti, err := d.receiving(to)
	if err != nil {
		return err
	}
	d.stageMove(&queueMove{from: fi, to: []*Iface{ti}}, KindMoveQueue, from.String()+" -> "+to.String())
	return nil
}

// DiscardQueue stages the "rmq" command: the messages queued at e are
// dropped. The commit stores how many in *n.
func (d *Draft) DiscardQueue(e Endpoint) (n *int, err error) {
	ifc, err := d.receiving(e)
	if err != nil {
		return nil, err
	}
	return &d.stageMove(&queueMove{from: ifc}, KindDrainQueue, e.String()).n, nil
}

// AddInstance adds an instance under a name no instance or group holds.
func (d *Draft) AddInstance(name, machine string, in Instance) error {
	if _, dup := d.instances[name]; dup {
		return fmt.Errorf("%w: %s", ErrDupInstance, name)
	}
	if _, dup := d.groups[name]; dup {
		return fmt.Errorf("%w: %s names a group", ErrDupInstance, name)
	}
	d.instances[name] = in
	d.event(KindAddInstance, name, machine)
	return nil
}

// DeleteInstance removes an instance together with its group memberships
// and every binding that touches it, and stages the fence on its queues and
// its closing.
func (d *Draft) DeleteInstance(name string) error {
	in, ok := d.instances[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoInstance, name)
	}
	for _, ifc := range in.Ifaces() {
		if ifc.q != nil {
			d.fenced = append(d.fenced, ifc)
		}
	}
	delete(d.instances, name)
	for gname, ge := range d.groups {
		if slices.Contains(ge.members, name) {
			d.groups[gname] = ge.without(name)
		}
	}
	d.bindings = slices.DeleteFunc(d.bindings, func(bd Binding) bool {
		return bd.A.Instance == name || bd.B.Instance == name
	})
	d.deleted = append(d.deleted, in)
	d.event(KindDeleteInstance, name, "")
	return nil
}

// AddBinding validates and appends a binding, recording the event. Either
// side may name a replica group, but not both: group-to-group bindings have
// no sending identity to load-balance from.
func (d *Draft) AddBinding(a, c Endpoint) error {
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
	d.event(KindAddBinding, "", a.String()+" <-> "+c.String())
	return nil
}

// deleteBinding removes the binding between two endpoints (in either
// orientation), recording the event and staging a fence on both sides'
// queues: a writer that resolved its route through the binding re-routes.
func (d *Draft) deleteBinding(a, c Endpoint) error {
	for i, bd := range d.bindings {
		if (bd.A == a && bd.B == c) || (bd.A == c && bd.B == a) {
			d.bindings = append(d.bindings[:i], d.bindings[i+1:]...)
			d.fence(a)
			d.fence(c)
			d.event(KindDeleteBinding, "", a.String()+" <-> "+c.String())
			return nil
		}
	}
	return fmt.Errorf("%w: %s <-> %s", ErrNoBinding, a, c)
}

// Rebind stages a batch of binding edits (the bus's Rebind documents them);
// the first that does not validate fails the whole draft.
func (d *Draft) Rebind(edits []BindEdit) error {
	for i, e := range edits {
		var err error
		switch e.Op {
		case "add":
			err = d.AddBinding(e.From, e.To)
		case "del":
			err = d.deleteBinding(e.From, e.To)
		case "cq":
			err = d.moveQueue(e.From, e.To)
		case "rmq":
			_, err = d.DiscardQueue(e.From)
		default:
			err = fmt.Errorf("bus: unknown rebind op %q", e.Op)
		}
		if err != nil {
			return fmt.Errorf("bus: rebind edit %d (%s %s %s): %w", i, e.Op, e.From, e.To, err)
		}
	}
	d.event(KindRebind, "", fmt.Sprintf("%d edits", len(edits)))
	return nil
}

// View is the narrow read-only surface of the routing layer: an immutable,
// point-in-time view of the topology. A view never changes after it is
// taken — two calls to Bus.Routing() around a reconfiguration observe
// distinct versions — so callers can correlate observations with snapshot
// epochs (the control plane's stats report the live version as
// snapshot_version).
type View struct {
	t *Table
}

// View returns the table's read-only view.
func (t *Table) View() View { return View{t: t} }

// Version returns the snapshot's epoch. It increases by one for every
// committed topology change; a change that fails validation publishes
// nothing.
func (v View) Version() uint64 { return v.t.Version() }

// Instances returns the sorted names of the snapshot's instances.
func (v View) Instances() []string {
	names := make([]string, 0, len(v.t.instances))
	for n := range v.t.instances {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Bindings returns the snapshot's bindings, deterministically sorted by
// endpoint pair.
func (v View) Bindings() []Binding {
	out := append([]Binding{}, v.t.bindings...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].A.String(), out[j].A.String()
		return a < b || a == b && out[i].B.String() < out[j].B.String()
	})
	return out
}
