package bus

import (
	"errors"
	"flag"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestBusLinearizable runs seeded mixes of Write, SendBatch, TryRead,
// Rebind (add, del, cq, rmq), AddGroupMember (joins to a second group
// included), RemoveGroupMember, Stats and QueuedMessages from several
// goroutines on one bus, and checks that the history is linearizable with
// respect to model_test.go's reference. Each operation takes its invoke and
// response index from one shared atomic counter; no clock is read. The
// search is Wing and Gong's, with Lowe's memoisation of (linearized set,
// reference state), run once per partition of the receiving queues.
//
// What a linearization point is, operation by operation, is what the bus
// promises, no more:
//
//   - every message of a write or a batch is its own point (a batch cut
//     short by a topology change resumes, re-resolved, after the message
//     that met it), in batch order; once one is dropped as unbound, the
//     rest of its batch is dropped with it, all counted at that point;
//   - a committed topology change is its fences, then each queue transfer's
//     drain and each moved message's landing one by one (an observer can
//     see a transfer part-way, or its messages in neither queue), then its
//     publication (the version), its moved-message count, and for a Rebind
//     the rebind count, in that order, with no other change between its
//     fences and its count;
//   - Stats reads each counter once, so each field is its own point, and
//     Delivered, a sum of per-queue counters read one by one, lies between
//     the count at two points of its call; Delivered and Dropped may miss
//     what a write still running when Stats began has linearized, and a
//     TryRead may find a queue empty whose head such a write put there
//     (lateDeliveries says why);
//   - QueuedMessages snapshots one queue after another: one point per queue.
//
// A replica group delivers to any one live member: the cursor of a
// round-robin group advances before the push, so two writers can reach
// their members in the other order. The generator runs round-robin groups
// only, and keeps each to one member at a time (only the goroutine owning a
// group admits a member, and only to an empty group), so that the search
// never branches on the member; which member a cursor picks among several,
// and least-queue routing, are TestModelTopologyAndTraffic's. Every sending
// interface is bound at most once at any time (edits swap a binding, or
// drop it, and only the goroutine owning a sender adds one to it unbound),
// so a write has one target and its count is one point. Between a change's
// queue effects and its publication, a write to a queue it fenced cannot
// land: the bus refuses it and retries it after the change.
//
// Queues are partitioned by what can carry a message from one to another:
// a cq links its two queues, a group links its members' queues per
// interface, and every queue a move touches is in one partition, which
// alone checks Stats.Moves. Writes, topology changes and the other Stats
// fields join every partition, which follows only its own queues' contents.
// A failure names its seed and prints the smallest non-linearizable
// sub-history found: the shortest prefix that fails, with every operation
// that only observed and is not needed for the failure taken out.
func TestBusLinearizable(t *testing.T) {
	seeds := []int64{*linSeed}
	if *linSeed == 0 {
		base := linRuns.Add(1) * 1000
		seeds = seeds[:0]
		for i := int64(1); i <= int64(*linSeeds); i++ {
			seeds = append(seeds, base+i)
		}
	}
	for _, seed := range seeds {
		h := runLinearizable(t, seed, 4, linOps)
		if msg := h.check(); msg != "" {
			t.Fatalf("seed %d (rerun with -lin.seed=%d): %s", seed, seed, msg)
		}
	}
}

var (
	linSeeds = flag.Int("lin.seeds", 6, "TestBusLinearizable: seeds per run (each -count run takes new ones)")
	linSeed  = flag.Int64("lin.seed", 0, "TestBusLinearizable: run this seed only")
	linRuns  atomic.Int64
)

// linOps is the number of operations each goroutine runs; linBudget bounds
// a search's memo (about 100 MB), past which a history fails undecided.
const (
	linOps    = 40
	linBudget = 1 << 20
)

// The workload: five instances of modelShape, two round-robin groups whose
// members come from linMovers, and cq edits between linMovers' queues.
var (
	linInstances = []string{"a", "b", "c", "e", "f"}
	linMovers    = []string{"a", "e", "f"}
	linGroups    = []string{"g0", "g1"}
)

type linKind int

const (
	linWrite linKind = iota // Write and SendBatch: data holds the batch
	linRead
	linQueued
	linRebind
	linJoin
	linLeave
	linStats
)

// linOp is one call as the recorder saw it: its arguments, its result and
// its invoke and response indices.
type linOp struct {
	g         int // the goroutine, -1 for the drain after the run
	inv, resp int64
	kind      linKind

	from   Endpoint // write: the sending interface
	data   []string
	tid    uint64   // write: the trace id it carries
	at     Endpoint // read: the queue; queued: the instance
	edits  []BindEdit
	group  string
	member string

	err    error
	got    Message
	ok     bool
	queued []QueuedMessage
	stats  Stats
}

func (op *linOp) String() string {
	var call string
	switch op.kind {
	case linWrite:
		call = fmt.Sprintf("Write %s %v", op.from, op.data)
		if len(op.data) > 1 {
			call = "SendBatch" + call[len("Write"):]
		}
	case linRead:
		call = fmt.Sprintf("TryRead %s -> %t %q", op.at, op.ok, op.got.Data)
	case linQueued:
		var ids []string
		for _, q := range op.queued {
			ids = append(ids, fmt.Sprintf("%s:%d", q.Endpoint.Interface, q.Trace.TraceID))
		}
		call = fmt.Sprintf("QueuedMessages %s -> [%s]", op.at.Instance, strings.Join(ids, " "))
	case linRebind:
		call = fmt.Sprintf("Rebind %v", op.edits)
	case linJoin:
		call = fmt.Sprintf("AddGroupMember %s %s", op.group, op.member)
	case linLeave:
		call = fmt.Sprintf("RemoveGroupMember %s %s", op.group, op.member)
	case linStats:
		s := op.stats
		call = fmt.Sprintf("Stats -> delivered %d dropped %d moves %d rebinds %d version %d", s.Delivered, s.Dropped, s.Moves, s.Rebinds, s.SnapshotVersion)
	}
	return fmt.Sprintf("g%-2d [%4d,%4d] %s: %v", op.g, op.inv, op.resp, call, op.err)
}

// linHistory is one run's record and the reference state it started from.
type linHistory struct {
	ops  []*linOp
	init *model
}

// runLinearizable builds the bus, runs workers goroutines of n operations
// each, then drains every queue and reads Stats once more from this
// goroutine, and returns the history.
func runLinearizable(t *testing.T, seed int64, workers, n int) *linHistory {
	rng := rand.New(rand.NewSource(seed))
	b := New()
	defer b.Close()
	m := &model{inst: map[string]*modelInst{}, groups: map[string]*modelGroup{}}
	for _, g := range linGroups {
		if err := b.AddGroup(g, PolicyRoundRobin, modelShape); err != nil {
			t.Fatal(err)
		}
		m.groups[g] = &modelGroup{policy: PolicyRoundRobin}
	}
	atts := map[string]*Attachment{}
	for _, name := range linInstances {
		if err := b.AddInstance(InstanceSpec{Name: name, Interfaces: modelShape}); err != nil {
			t.Fatal(err)
		}
		att, err := b.Attach(name)
		if err != nil {
			t.Fatal(err)
		}
		atts[name] = att
		m.inst[name] = &modelInst{queues: map[string][]modelMsg{"in": nil, "io": nil}}
	}
	for i, g := range linGroups { // one member each, so e's join to g1 is a second-group join
		member := linMovers[1+i]
		if err := b.AddGroupMember(g, member); err != nil {
			t.Fatal(err)
		}
		m.joinGroup(g, member)
	}
	receivers := linReceivers()
	for _, name := range linInstances { // every sender starts bound once
		from, to := Endpoint{Instance: name, Interface: "out"}, receivers[rng.Intn(len(receivers))]
		if err := b.AddBinding(from, to); err != nil {
			t.Fatal(err)
		}
		m.addBinding(from, to)
	}
	m.version, m.events = b.Routing().Version(), nil

	var ctr atomic.Int64
	var wg sync.WaitGroup
	logs := make([][]*linOp, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		w := &linWorker{g: g, workers: workers, rng: rand.New(rand.NewSource(seed*31 + int64(g))), b: b, atts: atts, ctr: &ctr}
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				logs[w.g] = append(logs[w.g], w.step(i))
			}
		}()
	}
	wg.Wait()
	h := &linHistory{init: m}
	for _, l := range logs {
		h.ops = append(h.ops, l...)
	}
	drain := &linWorker{g: -1, b: b, atts: atts, ctr: &ctr}
	for _, e := range linQueues() {
		for {
			op := drain.read(e)
			h.ops = append(h.ops, op)
			if !op.ok {
				break
			}
		}
	}
	h.ops = append(h.ops, drain.stats())
	sort.Slice(h.ops, func(i, j int) bool { return h.ops[i].inv < h.ops[j].inv })
	return h
}

// linQueues lists every receiving instance queue; linReceivers adds the
// groups' receiving interfaces.
func linQueues() []Endpoint {
	var out []Endpoint
	for _, name := range linInstances {
		out = append(out, Endpoint{Instance: name, Interface: "in"}, Endpoint{Instance: name, Interface: "io"})
	}
	return out
}

func linReceivers() []Endpoint {
	out := linQueues()
	for _, g := range linGroups {
		out = append(out, Endpoint{Instance: g, Interface: "in"}, Endpoint{Instance: g, Interface: "io"})
	}
	return out
}

// linWorker is one recording goroutine.
type linWorker struct {
	g, workers int
	rng        *rand.Rand
	b          *Bus
	atts       map[string]*Attachment
	ctr        *atomic.Int64
}

// call stamps op's invoke and response indices around fn.
func (w *linWorker) call(op *linOp, fn func()) *linOp {
	op.g = w.g
	op.inv = w.ctr.Add(1)
	fn()
	op.resp = w.ctr.Add(1)
	return op
}

func (w *linWorker) read(e Endpoint) *linOp {
	op := &linOp{kind: linRead, at: e}
	return w.call(op, func() { op.got, op.ok, op.err = w.atts[e.Instance].TryRead(e.Interface) })
}

func (w *linWorker) stats() *linOp {
	op := &linOp{kind: linStats}
	return w.call(op, func() { op.stats = w.b.Stats() })
}

func (w *linWorker) pick(s []string) string { return s[w.rng.Intn(len(s))] }

func (w *linWorker) queue() Endpoint {
	qs := linQueues()
	return qs[w.rng.Intn(len(qs))]
}

// step runs the worker's i-th operation.
func (w *linWorker) step(i int) *linOp {
	receivers := linReceivers()
	switch r := w.rng.Intn(100); {
	case r < 41:
		op := &linOp{kind: linWrite, from: Endpoint{Instance: w.pick(linInstances), Interface: "out"}}
		switch {
		case r < 8:
			op.from.Interface = w.pick([]string{"in", "io"}) // refused, or unbound
		case r >= 31:
			op.data = make([]string, 2+w.rng.Intn(3))
		}
		if op.data == nil {
			op.data = make([]string, 1)
		}
		// The trace id names the write, so QueuedMessages' listings can be
		// matched with the reference's queues.
		op.tid = uint64(w.g+2)<<32 | uint64(i)
		batch := make([][]byte, len(op.data))
		for k := range op.data {
			op.data[k] = fmt.Sprintf("g%d.%d.%d", w.g, i, k)
			batch[k] = []byte(op.data[k])
		}
		att := w.atts[op.from.Instance]
		return w.call(op, func() {
			parent := TraceContext{TraceID: op.tid, SpanID: 1}
			if len(batch) == 1 {
				op.err = att.WriteTraced(op.from.Interface, batch[0], parent)
			} else {
				op.err = att.WriteBatchTraced(op.from.Interface, batch, parent)
			}
		})
	case r < 63:
		return w.read(w.queue())
	case r < 73:
		op := &linOp{kind: linRebind, edits: w.bindingEdits(receivers)}
		for k := w.rng.Intn(3); k > 0; k-- {
			from, to := Endpoint{Instance: w.pick(linMovers), Interface: w.pick([]string{"in", "io"})}, Endpoint{Instance: w.pick(linMovers), Interface: w.pick([]string{"in", "io"})}
			if w.rng.Intn(3) == 0 {
				op.edits = append(op.edits, BindEdit{Op: "rmq", From: w.queue()})
			} else {
				op.edits = append(op.edits, BindEdit{Op: "cq", From: from, To: to})
			}
		}
		if len(op.edits) == 0 {
			op.edits = append(op.edits, BindEdit{Op: "rmq", From: w.queue()})
		}
		w.rng.Shuffle(len(op.edits), func(i, j int) { op.edits[i], op.edits[j] = op.edits[j], op.edits[i] })
		return w.call(op, func() { op.err = w.b.Rebind(op.edits) })
	case r < 78:
		g := linGroups[w.g%len(linGroups)]
		if members, _ := w.b.GroupMembers(g); w.g >= len(linGroups) || len(members) > 0 {
			return w.stats()
		}
		op := &linOp{kind: linJoin, group: g, member: w.pick(linMovers)}
		return w.call(op, func() { op.err = w.b.AddGroupMember(op.group, op.member) })
	case r < 83:
		op := &linOp{kind: linLeave, group: w.pick(linGroups), member: w.pick(linMovers)}
		return w.call(op, func() { op.err = w.b.RemoveGroupMember(op.group, op.member) })
	case r < 91:
		return w.stats()
	default:
		op := &linOp{kind: linQueued, at: Endpoint{Instance: w.pick(linInstances)}}
		return w.call(op, func() { op.queued, op.err = w.b.QueuedMessages(op.at.Instance) })
	}
}

// bindingEdits returns at most one sender's binding edits, keeping every
// sender bound at most once: a swap of its binding (its current one, read
// off the bus as a hint, or now and then a wrong guess the bus refuses), a
// del, or, from the goroutine owning an unbound sender only, an add.
func (w *linWorker) bindingEdits(receivers []Endpoint) []BindEdit {
	k := w.rng.Intn(len(linInstances))
	s := Endpoint{Instance: linInstances[k], Interface: "out"}
	to := receivers[w.rng.Intn(len(receivers))]
	var cur *Endpoint
	for _, bd := range w.b.Bindings() {
		if bd.A == s {
			cur = &bd.B
		} else if bd.B == s {
			cur = &bd.A
		}
	}
	guess := receivers[w.rng.Intn(len(receivers))]
	if cur != nil && w.rng.Intn(5) > 0 {
		guess = *cur
	}
	switch r := w.rng.Intn(10); {
	case cur == nil && k%w.workers == w.g:
		return []BindEdit{{Op: "add", From: s, To: to}}
	case r < 2:
		return nil
	case r < 4:
		return []BindEdit{{Op: "del", From: s, To: guess}}
	default:
		return []BindEdit{{Op: "del", From: guess, To: s}, {Op: "add", From: s, To: to}}
	}
}

// ---- the checker ----

// A linSub is one linearization point of an operation.
type linSub struct {
	op        int // index into the history
	kind      subKind
	i         int      // msg: the message's index in its batch
	q         Endpoint // queued: the queue
	inv, resp int64    // resp is math.MaxInt64 for an operation cut off by a prefix
	after     int      // the sub that must be linearized first, -1 for none
	// free: no Stats call overlaps the operation, nor (for a message) any
	// topology change, so its counters are seen by no one while it can
	// move, and its target stays put.
	free bool
}

type subKind int

const (
	subMsg     subKind = iota // one message of a write
	subRead                   // a TryRead
	subQueued                 // one queue of a QueuedMessages
	subRefused                // a topology change the bus refused
	subEffect                 // a committed change's queue effects
	subPublish                // its publication
	subMoved                  // its moved-message count
	subRebinds                // a Rebind's count
	subVersion                // Stats: one field each
	subDropped
	subRebindsRead
	subMovesRead
	subDeliveredLo
	subDeliveredHi
)

var subKindNames = [...]string{"message", "read", "queue listing", "refusal", "queue effects", "publication",
	"moved count", "rebind count", "Stats version", "Stats dropped", "Stats rebinds", "Stats moves",
	"Stats delivered (low)", "Stats delivered (high)"}

func (k subKind) String() string { return subKindNames[k] }

// linPart is one partition: the queues whose contents it follows, and
// whether it holds every queue a move touched.
type linPart struct {
	track map[Endpoint]bool
	moves bool
}

// check returns "" when every partition of the history linearizes, and
// otherwise the smallest failing sub-history it finds.
func (h *linHistory) check() string {
	for _, p := range h.partitions() {
		if s := h.search(p, math.MaxInt64, nil); s.ok {
			continue
		} else if s.exhausted {
			var long []string
			for _, op := range h.ops {
				if op.resp-op.inv > 20 {
					long = append(long, "  "+op.String())
				}
			}
			return fmt.Sprintf("no answer within %d memoised states (%d of %d points linearized at the deepest); the operations that ran longest:\n%s",
				linBudget, s.deepest, len(s.subs), strings.Join(long, "\n"))
		}
		cut, drop := h.shrink(p)
		var queues []string
		for e := range p.track {
			queues = append(queues, e.String())
		}
		sort.Strings(queues)
		var lines []string
		for i, op := range h.ops {
			if op.inv < cut && !drop[i] {
				lines = append(lines, "  "+op.String())
			}
		}
		var groups []string
		for _, g := range linGroups {
			groups = append(groups, fmt.Sprintf("%s%v", g, h.init.groups[g].members))
		}
		s := h.search(p, cut, drop)
		var stuck []string
		for _, i := range s.stuckPending {
			stuck = append(stuck, fmt.Sprintf("  the %s point of %s", s.subs[i].kind, h.ops[s.subs[i].op]))
		}
		return fmt.Sprintf("not linearizable in the partition of %v; from bindings %v and groups %v, smallest failing sub-history (%d of %d operations):\n%s\n"+
			"the search got furthest with %d of %d points linearized, at reference state %q, unable to place:\n%s",
			queues, h.init.bindings, groups, len(lines), len(h.ops), strings.Join(lines, "\n"),
			s.deepest, len(s.subs), s.stuckState, strings.Join(stuck, "\n"))
	}
	return ""
}

// partitions joins the queues a cq links, the queues of every instance
// that was ever a group's member (per interface), and every queue a move
// touched.
func (h *linHistory) partitions() []linPart {
	parent := map[Endpoint]Endpoint{}
	var find func(e Endpoint) Endpoint
	find = func(e Endpoint) Endpoint {
		if p, ok := parent[e]; ok && p != e {
			r := find(p)
			parent[e] = r
			return r
		}
		return e
	}
	union := func(a, c Endpoint) { parent[find(a)] = find(c) }
	var moved []Endpoint
	members := map[string][]string{}
	for g, mg := range h.init.groups {
		members[g] = slices.Clone(mg.members)
	}
	for _, op := range h.ops {
		if op.err != nil {
			continue
		}
		switch op.kind {
		case linRebind:
			for _, e := range op.edits {
				if e.Op == "cq" {
					union(e.From, e.To)
					moved = append(moved, e.From)
				}
			}
		case linJoin:
			members[op.group] = append(members[op.group], op.member)
		case linLeave:
			moved = append(moved, Endpoint{Instance: op.member, Interface: "in"}, Endpoint{Instance: op.member, Interface: "io"})
		}
	}
	for _, ms := range members {
		for _, mem := range ms {
			for _, n := range []string{"in", "io"} {
				union(Endpoint{Instance: ms[0], Interface: n}, Endpoint{Instance: mem, Interface: n})
			}
		}
	}
	for _, e := range moved {
		union(e, moved[0])
	}
	parts := map[Endpoint]*linPart{}
	var order []Endpoint
	for _, e := range linQueues() {
		r := find(e)
		if parts[r] == nil {
			parts[r] = &linPart{track: map[Endpoint]bool{}, moves: len(moved) == 0 || r == find(moved[0])}
			order = append(order, r)
		}
		parts[r].track[e] = true
	}
	var out []linPart
	for _, r := range order {
		out = append(out, *parts[r])
	}
	return out
}

// subs lays out the linearization points of the operations invoked before
// cut, drop excepted; those still running at cut may be left out.
func (h *linHistory) subs(p linPart, cut int64, drop map[int]bool) []linSub {
	var out []linSub
	for i, op := range h.ops {
		if op.inv >= cut || drop[i] {
			continue
		}
		resp := op.resp
		if resp >= cut {
			resp = math.MaxInt64
		}
		chain := func(kinds ...subKind) {
			for k, kind := range kinds {
				s := linSub{op: i, kind: kind, inv: op.inv, resp: resp, after: -1}
				if k > 0 {
					s.after = len(out) - 1
				}
				out = append(out, s)
			}
		}
		switch op.kind {
		case linWrite:
			for k := range op.data {
				s := linSub{op: i, kind: subMsg, i: k, inv: op.inv, resp: resp, after: -1}
				if k > 0 {
					s.after = len(out) - 1
				}
				out = append(out, s)
			}
		case linRead:
			if p.track[op.at] {
				chain(subRead)
			}
		case linQueued:
			for _, n := range []string{"in", "io"} {
				if e := (Endpoint{Instance: op.at.Instance, Interface: n}); p.track[e] {
					out = append(out, linSub{op: i, kind: subQueued, q: e, inv: op.inv, resp: resp, after: -1})
				}
			}
		case linRebind, linJoin, linLeave:
			switch {
			case op.err != nil:
				chain(subRefused)
			case op.kind == linRebind:
				chain(subEffect, subPublish, subMoved, subRebinds)
			default:
				chain(subEffect, subPublish, subMoved)
			}
		case linStats:
			kinds := []subKind{subVersion, subDropped, subRebindsRead, subDeliveredLo, subDeliveredHi}
			if p.moves {
				kinds = append(kinds, subMovesRead)
			}
			for _, k := range kinds { // each read on its own
				out = append(out, linSub{op: i, kind: k, inv: op.inv, resp: resp, after: -1})
			}
		}
	}
	overlaps := func(sub linSub, kinds ...linKind) bool {
		for _, o := range out {
			if slices.Contains(kinds, h.ops[o.op].kind) && o.inv < sub.resp && sub.inv < o.resp {
				return true
			}
		}
		return false
	}
	watches := func(sub linSub) bool { // a read or listing of a queue the change transfers
		involved := map[Endpoint]bool{}
		op := h.ops[sub.op]
		for _, e := range op.edits {
			if e.Op == "cq" || e.Op == "rmq" {
				involved[e.From], involved[e.To] = true, true
			}
		}
		if op.kind == linLeave {
			for _, mem := range linMovers {
				involved[Endpoint{Instance: mem, Interface: "in"}], involved[Endpoint{Instance: mem, Interface: "io"}] = true, true
			}
		}
		for _, o := range out {
			w := h.ops[o.op]
			if o.inv < sub.resp && sub.inv < o.resp && (o.kind == subRead && involved[w.at] || o.kind == subQueued && involved[o.q]) {
				return true
			}
		}
		return false
	}
	for k, sub := range out {
		switch sub.kind {
		case subEffect:
			out[k].free = !watches(sub)
		case subMoved, subRebinds:
			out[k].free = !overlaps(sub, linStats)
		case subMsg:
			out[k].free = !overlaps(sub, linStats, linRebind, linJoin, linLeave)
		}
	}
	return out
}

// shrink finds the shortest failing prefix of the history, by its cut
// index, then takes out every observing operation the failure does not
// need.
func (h *linHistory) shrink(p linPart) (int64, map[int]bool) {
	lo, hi := int64(0), h.ops[len(h.ops)-1].resp+1 // lo passes, hi fails
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if h.linearizable(p, mid, nil) {
			lo = mid
		} else {
			hi = mid
		}
	}
	drop := map[int]bool{}
	for i, op := range h.ops {
		if op.inv >= hi || !op.observes() {
			continue
		}
		drop[i] = true
		if h.linearizable(p, hi, drop) {
			delete(drop, i)
		}
	}
	return hi, drop
}

// observes reports whether an operation changes nothing the reference
// follows.
func (op *linOp) observes() bool {
	switch op.kind {
	case linStats, linQueued:
		return true
	case linRead:
		return !op.ok
	case linRebind, linJoin, linLeave:
		return op.err != nil
	}
	return errors.Is(op.err, ErrDirection)
}

// linSearch is one Wing–Gong search with Lowe's memoisation: a linearized
// set is hashed incrementally (two random words per point, xored in and
// out), the reference state by its key.
type linSearch struct {
	h     *linHistory
	subs  []linSub
	done  []bool
	left  int // required points not yet linearized
	ndone int
	zob   [][2]uint64
	set   [2]uint64
	seeds [2]maphash.Seed
	seen  map[[4]uint64]bool

	// inflight lists, for each Stats or read (by history index), the
	// message points of the writes overlapping it; readAt maps a message
	// to the point of the read that took it, writeOf to its write, and
	// listedAt a write's trace id to the queue listings that show it.
	inflight map[int][]int
	readAt   map[string]int
	writeOf  map[string]int
	listedAt map[uint64][]int

	// The deepest configuration reached: how many points it had
	// linearized, its reference state and the points still pending.
	// exhausted: the search gave up at linBudget states.
	ok, exhausted bool
	deepest       int
	stuckState    string
	stuckPending  []int
}

// linearizable reports whether the partition's sub-history (cut, drop: as
// subs) has a linearization.
func (h *linHistory) linearizable(p linPart, cut int64, drop map[int]bool) bool {
	return h.search(p, cut, drop).ok
}

func (h *linHistory) search(p linPart, cut int64, drop map[int]bool) *linSearch {
	s := &linSearch{h: h, subs: h.subs(p, cut, drop), seen: map[[4]uint64]bool{}, seeds: [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}}
	s.done = make([]bool, len(s.subs))
	s.zob = make([][2]uint64, len(s.subs))
	rng := rand.New(rand.NewSource(int64(len(s.subs))))
	for i, sub := range s.subs {
		s.zob[i] = [2]uint64{rng.Uint64(), rng.Uint64()}
		if sub.resp != math.MaxInt64 {
			s.left++
		}
	}
	s.inflight, s.readAt, s.writeOf, s.listedAt = map[int][]int{}, map[string]int{}, map[string]int{}, map[uint64][]int{}
	for i, sub := range s.subs {
		switch op := h.ops[sub.op]; op.kind {
		case linQueued:
			for _, q := range op.queued {
				if q.Endpoint == sub.q && !slices.Contains(s.listedAt[q.Trace.TraceID], i) {
					s.listedAt[q.Trace.TraceID] = append(s.listedAt[q.Trace.TraceID], i)
				}
			}
		case linWrite:
			s.writeOf[op.data[sub.i]] = sub.op
		case linRead:
			if op.ok {
				s.readAt[string(op.got.Data)] = i
			}
			fallthrough
		case linStats:
			if _, ok := s.inflight[sub.op]; ok {
				continue
			}
			s.inflight[sub.op] = []int{}
			for j, w := range s.subs {
				if wop := h.ops[w.op]; w.kind == subMsg && wop.inv < op.resp && wop.resp > op.inv {
					s.inflight[sub.op] = append(s.inflight[sub.op], j)
				}
			}
		}
	}
	m := h.init.clone()
	m.track, m.cut = p.track, map[int]bool{}
	s.ok = s.dfs(m)
	return s
}

func (s *linSearch) mark(i int, on bool) {
	s.done[i] = on
	if on {
		s.ndone++
	} else {
		s.ndone--
	}
	s.set[0] ^= s.zob[i][0]
	s.set[1] ^= s.zob[i][1]
	if s.subs[i].resp != math.MaxInt64 {
		if on {
			s.left--
		} else {
			s.left++
		}
	}
}

// candidates returns the points that may be linearized next: every point
// responding before a candidate's invocation is done, and so is the point
// it must follow. Points are in invocation order, so the scan stops at the
// first invoked after the earliest pending response. The earliest
// responding come first.
func (s *linSearch) candidates() []int {
	lo := 0
	for lo < len(s.subs) && s.done[lo] {
		lo++
	}
	minResp, hi := int64(math.MaxInt64), lo
	for ; hi < len(s.subs) && s.subs[hi].inv < minResp; hi++ {
		if !s.done[hi] {
			minResp = min(minResp, s.subs[hi].resp)
		}
	}
	var cands []int
	for i := lo; i < hi; i++ {
		if sub := s.subs[i]; !s.done[i] && sub.inv < minResp && (sub.after < 0 || s.done[sub.after]) {
			cands = append(cands, i)
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return s.subs[cands[a]].resp < s.subs[cands[b]].resp })
	return cands
}

func (s *linSearch) dfs(m *model) bool {
	if s.exhausted {
		return false
	}
	// A point that only observes, or whose effect nothing pending can see
	// or change, is taken as soon as it holds: every point that could
	// precede it is already linearized, so taking it later can only
	// constrain the rest more.
	var taken []int
	defer func() {
		for _, i := range taken {
			s.mark(i, false)
		}
	}()
	for m.pend != nil && m.pend.free {
		n := m.step()
		if n == nil {
			break
		}
		m = n
	}
	cands := s.candidates()
	for k := 0; k < len(cands); k++ {
		next, greedy := s.apply(m, cands[k])
		if !greedy || len(next) != 1 {
			continue
		}
		m = next[0]
		s.mark(cands[k], true)
		taken = append(taken, cands[k])
		cands, k = s.candidates(), -1
	}
	if s.left == 0 {
		return true
	}
	key := m.key()
	memo := [4]uint64{s.set[0], s.set[1], maphash.Bytes(s.seeds[0], key), maphash.Bytes(s.seeds[1], key)}
	if s.seen[memo] {
		return false
	}
	s.seen[memo] = true
	if s.exhausted = len(s.seen) > linBudget; s.exhausted {
		return false
	}
	if s.ndone > s.deepest {
		s.deepest, s.stuckState, s.stuckPending = s.ndone, string(key), cands
	}
	if n := m.step(); n != nil && s.dfs(n) {
		return true
	}
	for _, i := range cands {
		next, greedy := s.apply(m, i)
		if greedy {
			continue
		}
		for _, n := range next {
			s.mark(i, true)
			ok := s.dfs(n)
			s.mark(i, false)
			if ok {
				return true
			}
		}
	}
	return false
}

// apply returns the states linearizing point i in m can lead to (none when
// its result contradicts m), and whether it may be taken at once.
func (s *linSearch) apply(m *model, i int) (next []*model, greedy bool) {
	sub := s.subs[i]
	op := s.h.ops[sub.op]
	observe := func(ok bool) ([]*model, bool) {
		if ok {
			return []*model{m}, true
		}
		return nil, true
	}
	switch sub.kind {
	case subMsg:
		return s.message(m, sub, op)
	case subRead:
		q, _ := m.queue(op.at)
		if op.err != nil || !op.ok {
			return observe(op.err == nil && (len(*q) == 0 || s.claimed(sub.op, (*q)[0])))
		}
		if len(*q) == 0 || (*q)[0].data != string(op.got.Data) || (*q)[0].from != op.got.From {
			return nil, false
		}
		n := m.clone()
		n.setQueue(op.at, (*q)[1:])
		return []*model{n}, false
	case subQueued:
		q, _ := m.queue(sub.q)
		var got, want []uint64
		for _, qm := range op.queued {
			if qm.Endpoint == sub.q {
				got = append(got, qm.Trace.TraceID)
			}
		}
		for _, msg := range *q {
			want = append(want, msg.tid)
		}
		return observe(op.err == nil && slices.Equal(got, want))
	case subRefused:
		return observe(m.pend == nil && !m.clone().edit(op))
	case subEffect:
		if m.pend != nil {
			return nil, false
		}
		final := m.clone()
		if !final.edit(op) {
			return nil, false
		}
		n := m.clone()
		n.pend = &modelPend{op: sub.op, bindings: final.bindings, groups: final.groups, free: sub.free}
		n.pend.fenced, n.pend.transfers = m.staged(op)
		return []*model{n}, false
	case subPublish, subMoved:
		if m.pend == nil || m.pend.op != sub.op || m.pend.published != (sub.kind == subMoved) ||
			len(m.pend.transfers)+len(m.pend.transit) > 0 {
			return nil, false
		}
		n := m.clone()
		pend := *m.pend
		if sub.kind == subPublish {
			n.bindings, n.groups = pend.bindings, pend.groups
			n.version++
			pend.published = true
			n.pend = &pend
		} else {
			n.moves += pend.moved
			n.pend = nil
		}
		return []*model{n}, sub.free
	case subRebinds:
		n := m.clone()
		n.rebinds++
		return []*model{n}, sub.free
	case subVersion:
		return observe(m.version == op.stats.SnapshotVersion)
	case subDropped:
		return observe(m.dropped-s.lateDrops(sub.op) <= op.stats.Dropped && op.stats.Dropped <= m.dropped)
	case subRebindsRead:
		return observe(m.rebinds == op.stats.Rebinds)
	case subMovesRead:
		return observe(m.moves == op.stats.Moves)
	case subDeliveredLo:
		return observe(m.delivered-s.lateDeliveries(sub.op) <= op.stats.Delivered)
	case subDeliveredHi:
		return observe(m.delivered >= op.stats.Delivered)
	}
	panic("unknown point")
}

// message linearizes one message of a write: dropped when its batch was
// cut short or it has no target, else one copy to each target, a group's
// to any live member. A copy to a queue a pending change fenced cannot
// land before the change is published. A free message whose copies go to
// no queue the partition follows is taken at once.
func (s *linSearch) message(m *model, sub linSub, op *linOp) ([]*model, bool) {
	last := sub.i == len(op.data)-1
	unbound, direction := errors.Is(op.err, ErrUnbound), errors.Is(op.err, ErrDirection)
	if op.err != nil && !unbound && !direction {
		return nil, false
	}
	if m.cut[sub.op] { // counted with the message that cut it
		if !last {
			return []*model{m}, true
		}
		n := m.clone()
		delete(n.cut, sub.op)
		return []*model{n}, true
	}
	targets, err := m.targets(op.from)
	switch {
	case errors.Is(err, ErrDirection):
		if !direction {
			return nil, true
		}
		return []*model{m}, true
	case err != nil:
		if !unbound {
			return nil, false
		}
		n := m.clone()
		n.dropped += int64(len(op.data) - sub.i)
		if !last {
			n.cut[sub.op] = true
		}
		return []*model{n}, sub.free
	case direction || last && unbound:
		return nil, false
	}
	msg := modelMsg{from: op.from, data: op.data[sub.i], tid: op.tid}
	fenced := m.pend != nil && !m.pend.published
	states, followed := []*model{m}, false
	for _, to := range targets {
		dests := []Endpoint{to}
		if g, ok := m.groups[to.Instance]; ok {
			dests = dests[:0]
			for _, mem := range g.members {
				dests = append(dests, Endpoint{Instance: mem, Interface: to.Interface})
			}
		}
		var branched []*model
		for _, st := range states {
			for _, d := range dests {
				if fenced && m.pend.fenced[d] {
					continue
				}
				n := st.clone()
				n.push(d, msg)
				branched = append(branched, n)
				followed = followed || m.track[d]
			}
		}
		states = branched
	}
	return states, sub.free && !followed && len(states) == 1
}

// A write's message takes its place in a queue when the producer claims a
// slot, and is counted delivered, then published, after: a producer
// descheduled in between leaves a message that later ones queue behind,
// that no Stats has counted and that no read can take yet. So a Stats or a
// read may miss what a write still running when it began has linearized.

// lateDrops bounds the drops the Stats call obs may not see yet: a batch's
// length for each write that returned ErrUnbound and has a message
// linearized (the bus decides "unbound" from the snapshot it loaded and
// counts the drops after).
func (s *linSearch) lateDrops(obs int) int64 {
	var n int64
	for _, i := range s.inflight[obs] {
		if sub, op := s.subs[i], s.h.ops[s.subs[i].op]; s.done[i] && sub.i == 0 && errors.Is(op.err, ErrUnbound) {
			n += int64(len(op.data))
		}
	}
	return n
}

// lateDeliveries counts the linearized messages of writes running when the
// Stats call obs began that no linearized read has taken and no linearized
// queue listing shows: each may be claimed and not yet counted. A message
// read or listed was published, and so counted.
func (s *linSearch) lateDeliveries(obs int) int64 {
	var n int64
	for _, i := range s.inflight[obs] {
		sub := s.subs[i]
		op := s.h.ops[sub.op]
		if !s.done[i] || op.err != nil && !errors.Is(op.err, ErrUnbound) {
			continue
		}
		if r, ok := s.readAt[op.data[sub.i]]; ok && s.done[r] || slices.ContainsFunc(s.listedAt[op.tid], func(l int) bool { return s.done[l] }) {
			continue
		}
		n++
	}
	return n
}

// claimed reports whether msg, at the head of a queue the read obs found
// empty, may be claimed and not yet published: its write was still
// running when the read began.
func (s *linSearch) claimed(obs int, msg modelMsg) bool {
	w, ok := s.writeOf[msg.data]
	return ok && s.h.ops[w].resp > s.h.ops[obs].inv
}

// edit applies a committed topology change of the history to m.
func (m *model) edit(op *linOp) bool {
	switch op.kind {
	case linRebind:
		return m.rebind(op.edits)
	case linJoin:
		return m.joinGroup(op.group, op.member)
	default:
		return m.leaveGroup(op.group, op.member)
	}
}

// key renders what the checker compares of a reference state: the
// topology, the counters, the followed queues' contents, the cut batches
// and a pending change. Events and the round-robin cursors are not
// compared.
func (m *model) key() []byte {
	b := make([]byte, 0, 256)
	num := func(n int64) { b = append(strconv.AppendInt(b, n, 10), ' ') }
	for _, n := range []int64{int64(m.version), m.delivered, m.dropped, m.moves, m.rebinds} {
		num(n)
	}
	for _, bd := range m.bindings {
		b = append(append(append(b, bd.A.String()...), '='), bd.B.String()...)
	}
	for _, g := range linGroups {
		b = append(b, '|')
		for _, mem := range m.groups[g].members {
			b = append(append(b, mem...), ',')
		}
	}
	for _, e := range linQueues() {
		if m.track[e] {
			b = append(b, '|')
			for _, msg := range m.inst[e.Instance].queues[e.Interface] {
				b = append(append(b, msg.data...), ',')
			}
		}
	}
	b = append(b, '|')
	cut := make([]int, 0, len(m.cut))
	for op := range m.cut {
		cut = append(cut, op)
	}
	sort.Ints(cut)
	for _, op := range cut {
		num(int64(op))
	}
	if p := m.pend; p != nil {
		b = append(b, '|')
		for _, n := range []int64{int64(p.op), p.moved, int64(len(p.transfers))} {
			num(n)
		}
		for _, t := range p.transit {
			b = append(append(append(append(b, t.msg.data...), '>'), t.to.String()...), ',')
		}
		if p.published {
			b = append(b, 'p')
		}
		if p.restoring {
			b = append(b, 'r')
		}
	}
	return b
}

// staged returns what a committed change does to queues, as the routing
// commit stages it: the queues it fences (both sides of a deleted binding,
// a group side meaning its members' queues; both queues of a cq; the
// source of an rmq; a leaving member's queues and its survivors') and its
// transfers in staging order.
func (m *model) staged(op *linOp) (map[Endpoint]bool, []modelTransfer) {
	fenced := map[Endpoint]bool{}
	var transfers []modelTransfer
	side := func(e Endpoint) {
		if g, ok := m.groups[e.Instance]; ok {
			for _, mem := range g.members {
				fenced[Endpoint{Instance: mem, Interface: e.Interface}] = true
			}
		} else if _, ok := m.queue(e); ok {
			fenced[e] = true
		}
	}
	switch op.kind {
	case linRebind:
		for _, e := range op.edits {
			switch e.Op {
			case "del":
				side(e.From)
				side(e.To)
			case "cq":
				fenced[e.From], fenced[e.To] = true, true
				transfers = append(transfers, modelTransfer{from: e.From, to: []Endpoint{e.To}})
			case "rmq":
				fenced[e.From], fenced[e.To] = true, true
				transfers = append(transfers, modelTransfer{from: e.From})
			}
		}
	case linLeave:
		for _, n := range []string{"in", "io"} {
			t := modelTransfer{from: Endpoint{Instance: op.member, Interface: n}}
			fenced[t.from] = true
			for _, mem := range m.groups[op.group].members {
				if mem != op.member {
					t.to = append(t.to, Endpoint{Instance: mem, Interface: n})
					fenced[t.to[len(t.to)-1]] = true
				}
			}
			t.keep = len(t.to) == 0
			transfers = append(transfers, t)
		}
	}
	return fenced, transfers
}

// step takes a pending change's next internal step: land the next drained
// message (a kept queue's all at once, as its restore does), or else drain
// the next transfer's source. It is nil when there is none.
func (m *model) step() *model {
	p := m.pend
	if p == nil || p.published || len(p.transfers)+len(p.transit) == 0 {
		return nil
	}
	n := m.clone()
	np := *p
	n.pend = &np
	if len(np.transit) > 0 {
		land := 1
		if np.restoring {
			land = len(np.transit)
		}
		for _, t := range np.transit[:land] {
			q, _ := n.queue(t.to)
			n.setQueue(t.to, append(slices.Clip(*q), t.msg))
		}
		np.transit = np.transit[land:]
		return n
	}
	t := np.transfers[0]
	np.transfers = np.transfers[1:]
	q, _ := n.queue(t.from)
	n.setQueue(t.from, nil)
	for i, msg := range *q {
		switch {
		case t.keep:
			np.transit = append(slices.Clip(np.transit), modelTransit{msg: msg, to: t.from})
		case len(t.to) > 0:
			np.transit = append(slices.Clip(np.transit), modelTransit{msg: msg, to: t.to[i%len(t.to)]})
			np.moved++
		}
	}
	np.restoring = t.keep
	return n
}

// TestLinearizabilityCheckerRefuses feeds the checker histories that are
// not linearizable and some that are: a read of a message no write made, a
// Stats that misses a delivery a completed read saw, a write that lands in
// a queue its sender's binding left before the write began, one that
// lands among the messages a queue transfer moves, and a Stats that misses
// a message a read has taken.
func TestLinearizabilityCheckerRefuses(t *testing.T) {
	base := func() *model {
		m := &model{inst: map[string]*modelInst{}, groups: map[string]*modelGroup{}}
		for _, g := range linGroups {
			m.groups[g] = &modelGroup{policy: PolicyRoundRobin}
		}
		for _, name := range linInstances {
			m.inst[name] = &modelInst{queues: map[string][]modelMsg{"in": nil, "io": nil}}
		}
		m.addBinding(Endpoint{Instance: "a", Interface: "out"}, Endpoint{Instance: "b", Interface: "in"})
		m.addBinding(Endpoint{Instance: "e", Interface: "out"}, Endpoint{Instance: "c", Interface: "in"})
		m.version, m.events = 5, nil
		return m
	}
	aOut, bIn, cIn := Endpoint{Instance: "a", Interface: "out"}, Endpoint{Instance: "b", Interface: "in"}, Endpoint{Instance: "c", Interface: "in"}
	write := func(inv, resp int64, data string) *linOp {
		return &linOp{kind: linWrite, inv: inv, resp: resp, from: aOut, data: []string{data}, tid: 1}
	}
	read := func(inv, resp int64, at Endpoint, data string) *linOp {
		return &linOp{kind: linRead, inv: inv, resp: resp, at: at, ok: data != "", got: Message{From: aOut, Data: []byte(data)}}
	}
	swap := &linOp{kind: linRebind, inv: 3, resp: 4, edits: []BindEdit{{Op: "del", From: aOut, To: bIn}, {Op: "add", From: aOut, To: cIn}}}
	// b.in holds x0 and x1 when a cq moves them to c.in, which e.out writes
	// to: a write overlapping the cq lands before or after the moved
	// messages (the cq fences c.in too), never between them.
	eOut := Endpoint{Instance: "e", Interface: "out"}
	cq := &linOp{kind: linRebind, inv: 5, resp: 10, edits: []BindEdit{{Op: "cq", From: bIn, To: cIn}}}
	landing := func(order ...string) []*linOp {
		ops := []*linOp{write(1, 2, "x0"), write(3, 4, "x1"), cq,
			{kind: linWrite, inv: 6, resp: 7, from: eOut, data: []string{"w"}, tid: 2}}
		for k, d := range order {
			r := read(int64(13+2*k), int64(14+2*k), cIn, d)
			if d == "w" {
				r.got.From = eOut
			}
			ops = append(ops, r)
		}
		return ops
	}
	// f.out is unbound when a write on it begins, and bound to c.in (version
	// 6) before it returns: its drop may be counted after a Stats that reads
	// version 6, as long as that Stats began before the write returned.
	fOut := Endpoint{Instance: "f", Interface: "out"}
	unbound := func(inv, resp int64, version uint64) []*linOp {
		return []*linOp{{kind: linWrite, inv: 1, resp: 10, from: fOut, data: []string{"u"}, tid: 3, err: ErrUnbound},
			{kind: linRebind, inv: 2, resp: 3, edits: []BindEdit{{Op: "add", From: fOut, To: cIn}}},
			{kind: linStats, inv: inv, resp: resp, stats: Stats{SnapshotVersion: version, Rebinds: 1}}}
	}
	for _, tc := range []struct {
		name string
		ops  []*linOp
		ok   bool
	}{
		{"write then read", []*linOp{write(1, 2, "m"), read(3, 4, bIn, "m")}, true},
		{"concurrent read may miss", []*linOp{write(1, 4, "m"), read(2, 3, bIn, ""), read(5, 6, bIn, "m")}, true},
		{"read of nothing written", []*linOp{read(1, 2, bIn, "m")}, false},
		{"stats misses a read delivery", []*linOp{write(1, 2, "m"), read(3, 4, bIn, "m"), {kind: linStats, inv: 5, resp: 6, stats: Stats{SnapshotVersion: 5}}}, false},
		{"write lands on a dropped binding", []*linOp{write(1, 2, "m0"), swap, write(5, 6, "m1"), read(7, 8, bIn, "m0"), read(9, 10, bIn, "m1")}, false},
		{"write follows the swap", []*linOp{write(1, 2, "m0"), swap, write(5, 6, "m1"), read(7, 8, bIn, "m0"), read(9, 10, cIn, "m1")}, true},
		{"write lands after the moved messages", landing("x0", "x1", "w"), true},
		{"stats misses an unbound write's drop", unbound(4, 5, 6), true},
		{"read and stats miss a claimed message", []*linOp{write(1, 10, "w"), write(3, 4, "x"), read(5, 6, bIn, ""),
			{kind: linStats, inv: 7, resp: 8, stats: Stats{SnapshotVersion: 5, Delivered: 1}}, read(11, 12, bIn, "w"), read(13, 14, bIn, "x")}, true},
		{"stats misses a message a read took", []*linOp{write(1, 10, "w"), read(2, 3, bIn, "w"),
			{kind: linStats, inv: 4, resp: 5, stats: Stats{SnapshotVersion: 5}}}, false},
		{"stats misses a completed unbound write's drop", unbound(11, 12, 6), false},
		{"write lands among the moved messages", landing("x0", "w", "x1"), false},
	} {
		h := &linHistory{ops: tc.ops, init: base()}
		if msg := h.check(); (msg == "") != tc.ok {
			t.Errorf("%s: check = %q, want linearizable %t", tc.name, msg, tc.ok)
		}
	}
}
