package bus

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/bus/internal/routing"
)

// TestModelTopologyAndTraffic drives the bus from one goroutine through
// seeded sequences of topology edits (AddInstance, DeleteInstance,
// AddBinding, Rebind with add/del/cq/rmq, AddGroupMember,
// RemoveGroupMember) interleaved with Write and TryRead, and checks every
// step against a reference built from plain maps and slices: who is bound
// to whom, which group members exist, and each receiving queue as a FIFO
// slice. After every operation it checks
//
//   - exactly-once delivery and FIFO order per (sender, receiver): every
//     TryRead returns the reference queue's head, so each written copy is
//     read once or the reference accounts for it (unbound, which a write
//     to an empty group is, discarded by rmq, or queued at a deleted
//     instance);
//   - Stats: Delivered, Dropped, Moves and Rebinds equal the reference's;
//   - Routing().Version() rises by exactly one per accepted edit and not at
//     all on a refused one, and the event log's kinds follow commit order;
//   - the topology (instances, bindings, group members) and every live
//     queue's depth equal the reference's.
//
// A failure names its seed, which replays the sequence. A join to a second
// group is in scope: the reference refuses it, as the bus must. Out of
// scope: a write fenced at a stale epoch needs a writer racing the commit,
// so fencing is checked by running the same reference against concurrent
// histories (TestBusLinearizable, linearizability_test.go).
func TestModelTopologyAndTraffic(t *testing.T) {
	seeds, ops := 200, 200
	if testing.Short() {
		seeds = 20
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		if err := runModel(seed, ops); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// The one interface shape every instance and group has.
var modelShape = []IfaceSpec{{Name: "in", Dir: In}, {Name: "out", Dir: Out}, {Name: "io", Dir: InOut}}

func modelDir(iface string) (Direction, bool) {
	for _, is := range modelShape {
		if is.Name == iface {
			return is.Dir, true
		}
	}
	return 0, false
}

type modelMsg struct {
	from Endpoint
	data string
	tid  uint64 // the trace id the write carried (0 in the sequential runs)
}

type modelInst struct {
	queues map[string][]modelMsg // receiving interface -> FIFO
	att    *Attachment
}

type modelGroup struct {
	policy  string
	members []string // sorted
	rr      uint64   // the round-robin cursor, advanced per group delivery
}

// model is the reference: the topology and queues the bus should have.
type model struct {
	inst     map[string]*modelInst
	groups   map[string]*modelGroup
	bindings []Binding // creation order

	version                            uint64
	delivered, dropped, moves, rebinds int64
	written, read, discarded, lost     int64 // message copies, for the final ledger
	events                             []string

	// What only the linearizability checker sets: the receiving queues
	// whose contents it follows (nil: all), the batches a dropped message
	// cut short (by op index), and a topology change between its queue
	// effects and its publication.
	track map[Endpoint]bool
	cut   map[int]bool
	pend  *modelPend
}

// modelPend is a committed change between its fences and its published
// count: the topology it publishes, the queue transfers it has still to
// make, the messages drained and not yet landed, and how many it moved.
type modelPend struct {
	op        int
	bindings  []Binding
	groups    map[string]*modelGroup
	fenced    map[Endpoint]bool // the queues it fenced, until it publishes
	free      bool              // no call that could watch its transfers overlaps it
	transfers []modelTransfer
	transit   []modelTransit
	restoring bool // the transit goes back where it was, at once
	moved     int64
	published bool
}

// modelTransfer is one staged queue transfer: what from holds is dealt
// round-robin over to, discarded when to is empty, or put back when keep.
type modelTransfer struct {
	from Endpoint
	to   []Endpoint
	keep bool
}

// modelTransit is a drained message on its way to a queue.
type modelTransit struct {
	msg modelMsg
	to  Endpoint
}

func (m *model) clone() *model {
	c := *m
	c.inst = map[string]*modelInst{}
	for name, in := range m.inst {
		q := map[string][]modelMsg{}
		for n, s := range in.queues {
			q[n] = slices.Clone(s)
		}
		c.inst[name] = &modelInst{queues: q, att: in.att}
	}
	c.groups = map[string]*modelGroup{}
	for name, g := range m.groups {
		cg := *g
		cg.members = slices.Clone(g.members)
		c.groups[name] = &cg
	}
	c.bindings = slices.Clone(m.bindings)
	c.events = slices.Clone(m.events)
	if m.cut != nil {
		c.cut = maps.Clone(m.cut)
	}
	return &c
}

// endpointDir mirrors the table's: a group or an instance interface.
func (m *model) endpointDir(e Endpoint) (dir Direction, group, ok bool) {
	_, isGroup := m.groups[e.Instance]
	if _, isInst := m.inst[e.Instance]; !isGroup && !isInst {
		return 0, false, false
	}
	dir, ok = modelDir(e.Interface)
	return dir, isGroup, ok
}

func (m *model) bindingIndex(a, c Endpoint) int {
	return slices.IndexFunc(m.bindings, func(bd Binding) bool {
		return bd == (Binding{A: a, B: c}) || bd == (Binding{A: c, B: a})
	})
}

func (m *model) addBinding(a, c Endpoint) bool {
	da, ga, okA := m.endpointDir(a)
	dc, gc, okC := m.endpointDir(c)
	if !okA || !okC || ga && gc || !(da.Sends() && dc.Receives()) && !(dc.Sends() && da.Receives()) || m.bindingIndex(a, c) >= 0 {
		return false
	}
	m.bindings = append(m.bindings, Binding{A: a, B: c})
	m.events = append(m.events, routing.KindAddBinding)
	return true
}

// queue returns the FIFO of a receiving instance interface.
func (m *model) queue(e Endpoint) (*[]modelMsg, bool) {
	in, ok := m.inst[e.Instance]
	if !ok {
		return nil, false
	}
	q, ok := in.queues[e.Interface]
	if !ok {
		return nil, false
	}
	return &q, true
}

// setQueue replaces a receiving queue's contents; a queue the checker does
// not follow stays empty.
func (m *model) setQueue(e Endpoint, q []modelMsg) {
	if m.track != nil && !m.track[e] {
		return
	}
	m.inst[e.Instance].queues[e.Interface] = q
}

// push appends one delivered copy to a receiving queue.
func (m *model) push(to Endpoint, msg modelMsg) {
	q, _ := m.queue(to)
	m.setQueue(to, append(*q, msg))
	m.delivered++
	m.written++
}

func (m *model) rebindEdit(e BindEdit) bool {
	switch e.Op {
	case "add":
		return m.addBinding(e.From, e.To)
	case "del":
		i := m.bindingIndex(e.From, e.To)
		if i < 0 {
			return false
		}
		m.bindings = slices.Delete(m.bindings, i, i+1)
		m.events = append(m.events, routing.KindDeleteBinding)
	case "cq":
		from, okF := m.queue(e.From)
		to, okT := m.queue(e.To)
		if !okF || !okT {
			return false
		}
		moved := *from
		m.setQueue(e.From, nil)
		if e.From != e.To {
			moved = append(*to, moved...)
		}
		m.setQueue(e.To, moved)
		m.moves += int64(len(*from))
		m.events = append(m.events, routing.KindMoveQueue)
	case "rmq":
		q, ok := m.queue(e.From)
		if !ok {
			return false
		}
		m.discarded += int64(len(*q))
		m.setQueue(e.From, nil)
		m.events = append(m.events, routing.KindDrainQueue)
	default:
		return false
	}
	return true
}

func (m *model) groupOf(inst string) string {
	for name, g := range m.groups {
		if slices.Contains(g.members, inst) {
			return name
		}
	}
	return ""
}

// targets mirrors a route: the bindings naming from, in creation order,
// then, for a group member, those naming its group's endpoint; each far end
// that receives is an instance or the interface of a group with a member. A
// write on an interface that does not send is ErrDirection, one with no
// target ErrUnbound.
func (m *model) targets(from Endpoint) ([]Endpoint, error) {
	if dir, _ := modelDir(from.Interface); !dir.Sends() {
		return nil, ErrDirection
	}
	var targets []Endpoint
	addFor := func(match Endpoint) {
		for _, bd := range m.bindings {
			other := bd.B
			switch match {
			case bd.A:
			case bd.B:
				other = bd.A
			default:
				continue
			}
			if g, ok := m.groups[other.Instance]; ok && len(g.members) == 0 {
				continue
			}
			if dir, _, ok := m.endpointDir(other); ok && dir.Receives() {
				targets = append(targets, other)
			}
		}
	}
	addFor(from)
	if g := m.groupOf(from.Instance); g != "" {
		addFor(Endpoint{Instance: g, Interface: from.Interface})
	}
	if len(targets) == 0 {
		return nil, ErrUnbound
	}
	return targets, nil
}

// write mirrors a Write on from: one copy per target, a group's to the
// member its policy picks.
func (m *model) write(from Endpoint, data string) error {
	targets, err := m.targets(from)
	if errors.Is(err, ErrUnbound) {
		m.dropped++
	}
	for _, to := range targets {
		if g, ok := m.groups[to.Instance]; ok {
			pick := 0
			if g.policy == PolicyLeastQueue {
				for i, mem := range g.members {
					if len(m.inst[mem].queues[to.Interface]) < len(m.inst[g.members[pick]].queues[to.Interface]) {
						pick = i
					}
				}
			} else {
				pick = int(g.rr % uint64(len(g.members)))
				g.rr++
			}
			to = Endpoint{Instance: g.members[pick], Interface: to.Interface}
		}
		m.push(to, modelMsg{from: from, data: data})
	}
	return err
}

// rebind applies a Rebind batch's edits, all or none: false when one does
// not validate (the caller discards the copy it applied them to).
func (m *model) rebind(edits []BindEdit) bool {
	for _, e := range edits {
		if !m.rebindEdit(e) {
			return false
		}
	}
	m.events = append(m.events, routing.KindRebind)
	return true
}

// joinGroup admits an instance into a group, one group per member.
func (m *model) joinGroup(g, name string) bool {
	cg := m.groups[g]
	if m.inst[name] == nil || m.groupOf(name) != "" {
		return false
	}
	cg.members = append(cg.members, name)
	sort.Strings(cg.members)
	m.events = append(m.events, routing.KindJoinGroup)
	return true
}

// leaveGroup takes a member out and deals what it holds round-robin over
// the survivors; with none it keeps it.
func (m *model) leaveGroup(g, name string) bool {
	cg := m.groups[g]
	if !slices.Contains(cg.members, name) {
		return false
	}
	cg.members = slices.DeleteFunc(cg.members, func(s string) bool { return s == name })
	m.events = append(m.events, routing.KindLeaveGroup)
	for _, n := range []string{"in", "io"} { // interface-name order
		m.events = append(m.events, routing.KindMoveQueue)
		if len(cg.members) == 0 {
			continue // kept at the member
		}
		from := Endpoint{Instance: name, Interface: n}
		q, _ := m.queue(from)
		for i, msg := range *q {
			to := Endpoint{Instance: cg.members[i%len(cg.members)], Interface: n}
			tq, _ := m.queue(to)
			m.setQueue(to, append(*tq, msg))
		}
		m.moves += int64(len(*q))
		m.setQueue(from, nil)
	}
	return true
}

// runModel plays one seeded sequence and returns the first divergence.
func runModel(seed int64, ops int) (err error) {
	rng := rand.New(rand.NewSource(seed))
	b := New()
	defer b.Close()
	for _, g := range []struct{ name, policy string }{{"g0", PolicyRoundRobin}, {"g1", PolicyLeastQueue}} {
		if err := b.AddGroup(g.name, g.policy, modelShape); err != nil {
			return err
		}
	}
	m := &model{inst: map[string]*modelInst{}, version: b.Routing().Version(),
		groups: map[string]*modelGroup{"g0": {policy: PolicyRoundRobin}, "g1": {policy: PolicyLeastQueue}}}
	cursor := b.Events().Cursor()
	names := []string{"a", "b", "c", "d", "e", "g0"}
	groups := []string{"g0", "g1"}
	ifaces := []string{"in", "out", "io", "zz"}
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	endpoint := func() Endpoint {
		if rng.Intn(4) == 0 {
			return Endpoint{Instance: pick(groups), Interface: pick(ifaces)}
		}
		return Endpoint{Instance: pick(names), Interface: pick(ifaces)}
	}
	live := func() string {
		var ns []string
		for n := range m.inst {
			ns = append(ns, n)
		}
		if len(ns) == 0 {
			return ""
		}
		sort.Strings(ns)
		return pick(ns)
	}
	var trail []string
	defer func() {
		if err != nil {
			if len(trail) > 8 {
				trail = trail[len(trail)-8:]
			}
			err = fmt.Errorf("%w\nlast ops:\n  %s", err, strings.Join(trail, "\n  "))
		}
	}()
	// edit runs one topology change on the bus and on the reference, which
	// says whether the bus must accept it.
	edit := func(do func() error, ref func(c *model) bool) error {
		c := m.clone()
		accept := ref(c)
		got := do()
		if (got == nil) != accept {
			return fmt.Errorf("bus returned %v, reference accepts: %t", got, accept)
		}
		if accept {
			c.version++
			*m = *c
		}
		return nil
	}
	writes := 0
	for op := 0; op < ops; op++ {
		var desc string
		var stepErr error
		switch r := rng.Intn(100); {
		case r < 8:
			name := pick(names)
			desc = "AddInstance " + name
			stepErr = edit(func() error { return b.AddInstance(InstanceSpec{Name: name, Interfaces: modelShape}) }, func(c *model) bool {
				if _, dup := c.inst[name]; dup || c.groups[name] != nil {
					return false
				}
				c.inst[name] = &modelInst{queues: map[string][]modelMsg{"in": nil, "io": nil}}
				c.events = append(c.events, routing.KindAddInstance)
				return true
			})
			if stepErr == nil && m.inst[name] != nil && m.inst[name].att == nil {
				m.inst[name].att, stepErr = b.Attach(name)
			}
		case r < 12:
			name := pick(names)
			desc = "DeleteInstance " + name
			stepErr = edit(func() error { return b.DeleteInstance(name) }, func(c *model) bool {
				in, ok := c.inst[name]
				if !ok {
					return false
				}
				for _, q := range in.queues {
					c.lost += int64(len(q))
				}
				delete(c.inst, name)
				for _, g := range c.groups {
					g.members = slices.DeleteFunc(g.members, func(s string) bool { return s == name })
				}
				c.bindings = slices.DeleteFunc(c.bindings, func(bd Binding) bool {
					return bd.A.Instance == name || bd.B.Instance == name
				})
				c.events = append(c.events, routing.KindDeleteInstance)
				return true
			})
		case r < 24:
			a, c := endpoint(), endpoint()
			desc = fmt.Sprintf("AddBinding %s %s", a, c)
			stepErr = edit(func() error { return b.AddBinding(a, c) }, func(ref *model) bool { return ref.addBinding(a, c) })
		case r < 32:
			var edits []BindEdit
			for k := rng.Intn(3) + 1; k > 0; k-- {
				e := BindEdit{Op: pick([]string{"add", "del", "del", "cq", "rmq", "frob"}), From: endpoint(), To: endpoint()}
				if e.Op == "del" && len(m.bindings) > 0 && rng.Intn(2) == 0 {
					bd := m.bindings[rng.Intn(len(m.bindings))]
					e.From, e.To = bd.A, bd.B
				}
				edits = append(edits, e)
			}
			desc = fmt.Sprintf("Rebind %v", edits)
			stepErr = edit(func() error { return b.Rebind(edits) }, func(c *model) bool {
				c.rebinds++
				return c.rebind(edits)
			})
		case r < 38:
			g, name := pick(groups), pick(names)
			desc = fmt.Sprintf("AddGroupMember %s %s", g, name)
			stepErr = edit(func() error { return b.AddGroupMember(g, name) }, func(c *model) bool { return c.joinGroup(g, name) })
		case r < 44:
			g, name := pick(groups), pick(names)
			desc = fmt.Sprintf("RemoveGroupMember %s %s", g, name)
			stepErr = edit(func() error { return b.RemoveGroupMember(g, name) }, func(c *model) bool { return c.leaveGroup(g, name) })
		case r < 75:
			name := live()
			if name == "" {
				break
			}
			from := Endpoint{Instance: name, Interface: pick(ifaces[:3])}
			writes++
			data := fmt.Sprintf("m%d", writes)
			desc = fmt.Sprintf("Write %s %s", from, data)
			want := m.write(from, data)
			if got := m.inst[name].att.Write(from.Interface, []byte(data)); !errors.Is(got, want) || (got == nil) != (want == nil) {
				stepErr = fmt.Errorf("Write returned %v, want %v", got, want)
			}
		default:
			name := live()
			if name == "" {
				break
			}
			n := pick(ifaces[:3])
			desc = fmt.Sprintf("TryRead %s.%s", name, n)
			stepErr = m.tryRead(name, n)
		}
		if desc != "" {
			trail = append(trail, desc)
		}
		if stepErr == nil {
			stepErr = m.check(b, &cursor)
		}
		if stepErr != nil {
			return fmt.Errorf("op %d (%s): %w", op, desc, stepErr)
		}
	}
	for name, in := range m.inst { // drain what is left
		for _, n := range []string{"in", "io"} {
			for len(in.queues[n]) > 0 {
				if err := m.tryRead(name, n); err != nil {
					return fmt.Errorf("draining %s.%s: %w", name, n, err)
				}
			}
		}
	}
	if err := m.check(b, &cursor); err != nil {
		return fmt.Errorf("after the drain: %w", err)
	}
	if m.written != m.read+m.discarded+m.lost {
		return fmt.Errorf("ledger: %d copies delivered, %d read, %d discarded, %d lost with their instance",
			m.written, m.read, m.discarded, m.lost)
	}
	return nil
}

// tryRead reads one message on both sides and compares.
func (m *model) tryRead(name, iface string) error {
	got, ok, err := m.inst[name].att.TryRead(iface)
	return m.take(Endpoint{Instance: name, Interface: iface}, got, ok, err)
}

// take checks what a TryRead on e returned against the reference's queue
// and takes the head the bus handed out.
func (m *model) take(e Endpoint, got Message, ok bool, err error) error {
	name, iface := e.Instance, e.Interface
	q, receives := m.inst[name].queues[iface]
	switch {
	case !receives:
		if !errors.Is(err, ErrDirection) {
			return fmt.Errorf("TryRead on a sending interface: %v, want %v", err, ErrDirection)
		}
		return nil
	case err != nil:
		return err
	case ok != (len(q) > 0):
		return fmt.Errorf("TryRead found a message: %t, reference holds %d", ok, len(q))
	case !ok:
		return nil
	}
	if want := q[0]; string(got.Data) != want.data || got.From != want.from {
		return fmt.Errorf("read %s from %s, want %s from %s (FIFO or exactly-once broken)", got.Data, got.From, want.data, want.from)
	}
	m.setQueue(e, q[1:])
	m.read++
	return nil
}

// check compares everything observable with the reference.
func (m *model) check(b *Bus, cursor *uint64) error {
	view := b.Routing()
	if v := view.Version(); v != m.version {
		return fmt.Errorf("version %d, want %d", v, m.version)
	}
	st := b.Stats()
	if got, want := [4]int64{st.Delivered, st.Dropped, st.Moves, st.Rebinds}, [4]int64{m.delivered, m.dropped, m.moves, m.rebinds}; got != want {
		return fmt.Errorf("stats delivered/dropped/moves/rebinds %v, want %v", got, want)
	}
	var kinds []string
	for _, r := range b.Events().Since(*cursor) {
		kinds = append(kinds, r.Kind)
		*cursor = r.Seq
	}
	if !slices.Equal(kinds, m.events) {
		return fmt.Errorf("events %v, want %v", kinds, m.events)
	}
	m.events = nil
	var names []string
	for n := range m.inst {
		names = append(names, n)
	}
	sort.Strings(names)
	if got := view.Instances(); !slices.Equal(got, names) {
		return fmt.Errorf("instances %v, want %v", got, names)
	}
	want := append([]Binding{}, m.bindings...)
	sort.Slice(want, func(i, j int) bool {
		a, c := want[i].A.String(), want[j].A.String()
		return a < c || a == c && want[i].B.String() < want[j].B.String()
	})
	if got := view.Bindings(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("bindings %v, want %v", got, want)
	}
	for _, g := range view.Groups() {
		if !slices.Equal(g.Members, m.groups[g.Name].members) {
			return fmt.Errorf("group %s members %v, want %v", g.Name, g.Members, m.groups[g.Name].members)
		}
	}
	for _, n := range names {
		info, err := b.Info(n)
		if err != nil {
			return err
		}
		for iface, q := range m.inst[n].queues {
			if info.Pending[iface] != len(q) {
				return fmt.Errorf("%s.%s holds %d, want %d", n, iface, info.Pending[iface], len(q))
			}
		}
	}
	return nil
}
