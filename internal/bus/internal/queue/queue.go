// Package queue is the bus's message buffer: one unbounded FIFO per
// receiving interface. POLYLITH buffers messages at the bus; modules poll
// with mh_query_ifmsgs and read with mh_read, so a Queue exposes both a
// non-blocking length and a blocking pop. The "cq" and "rmq" commands of
// Figure 5 are the commit's Detach, Drain, PushAll and Restore: the queue's
// fence half (Fence), which New hands to whoever builds the queue — the
// routing package, whose commit alone uses it.
//
// Only internal/bus imports this package, and the package imports nothing
// of the bus: the ring's slots, its fence word and its locks are unexported
// here, so no bus code can reach them. The API runs no caller code — no
// exported method or field takes or holds a func or interface value
// (TestQueueRunsNoCallerCode) — so no code of the bus ever runs under a
// queue lock, and the lock order (the routing writer lock before queue
// locks) needs no checker.
package queue

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/replay"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

var (
	// ErrClosed is returned by queue operations after Close.
	ErrClosed = errors.New("bus: queue closed")
	// ErrStaleRoute reports a routed push that resolved its target from a
	// snapshot that a topology change has since invalidated for that queue.
	// The writer retries against the current snapshot (the bus's write →
	// writeSlow); the sentinel never escapes the bus.
	ErrStaleRoute = errors.New("bus: route resolved from a stale snapshot")
)

// Endpoint names one interface of one instance.
type Endpoint struct {
	Instance  string
	Interface string
}

// String renders "instance.interface".
func (e Endpoint) String() string { return e.Instance + "." + e.Interface }

// Message is one datum in flight: who sent it, the codec-encoded payload,
// and the trace context the bus stamped at send. The zero Trace means
// untraced, and costs one byte on the wire.
type Message struct {
	From  Endpoint
	Data  []byte
	Trace trace.Context
}

// Item is one queued message as a queue transfer carries it: Drain hands
// items out, PushAll and Restore take them back. Besides the message it
// holds the interned name of the interface the message was written on,
// which the push took and every queue the item moves through keeps, so the
// record hook writes the sender without building From.String() per
// delivery; and the routing-snapshot version it was delivered under, for
// the record's epoch stamp (a transfer restamps it).
type Item struct {
	Msg  Message
	from *string
	ver  uint64
}

// sender returns the interned "instance.interface" name the message was
// written on, "" for a message the bus did not route.
func (it *Item) sender() string {
	if it.from == nil {
		return ""
	}
	return *it.from
}

// chunkCap is the slot count of one queue segment. Segments are allocated
// on the (cold) grow path and garbage-collected once consumed, so the value
// trades allocation amortization against retained memory per idle queue.
const chunkCap = 256

// Slot publication states. A slot is claimed by the tail CAS and holds
// slotEmpty until its producer resolves it: slotFull publishes a message,
// slotDead abandons the claim (the producer lost a fence or close race and
// retries via the slow path — the consumer skips the slot).
const (
	slotEmpty = uint32(0)
	slotFull  = uint32(1)
	slotDead  = uint32(2)
)

// slot is one message cell of a segment. state is the publication flag:
// slotEmpty while the slot is unclaimed or a producer is still writing the
// item, then slotFull or slotDead. The producer protocol is claim -> write
// fields -> publish: the state Store is the slot's last touch, and the
// consumer reads the item only after observing slotFull
// (TestBusLinearizable and TestTakenItemStaysValid check it by running it).
// Consumed slots are neither cleared nor reused, so the address take hands
// out stays good for as long as it is held; a payload reference lives until
// its segment is collected, at most chunkCap messages later.
type slot struct {
	state atomic.Uint32
	Item
}

// chunk is one fixed-size segment of the queue: a slice-free array of slots
// claimed left to right through the CAS'd tail, chained through next when
// full. Slots are never reused — total FIFO order across producers is the
// claim (CAS) order, and consumed chunks are dropped for the collector.
type chunk struct {
	base  uint64 // absolute index of slots[0], for occupancy accounting
	tail  atomic.Uint64
	next  atomic.Pointer[chunk]
	slots [chunkCap]slot
}

// Queue is the backing store for one incoming interface.
//
// The hot path is lock-free: producers claim a slot by CAS on the current
// segment's tail, write the message, and flip the slot's publication flag —
// they take no mutex and signal the consumer only when one is parked. What
// a queue mutex would provide implicitly is built explicitly:
//
//   - Epoch fencing is the fence word, checked after the claim. Detach
//     CAS-raises the fence; because a drain that follows captures the tail
//     after the raise, every producer ordered before the capture has a slot
//     below it (the drain settles those), and every producer ordered after
//     observes the raised fence, abandons its slot (slotDead) and retries
//     through the bus's slow path (ErrStaleRoute) — no message is lost or
//     delivered twice across a detach-and-drain.
//   - Replay recording happens at the consumer: slot claim order is
//     delivery order, so appending at pop keeps the recorded per-queue
//     sequence the queue's true total order. The queue alone holds its
//     endpoint's append handle, and record below is its one use.
//   - Move, discard and redistribute are detach-and-drain over the
//     segments under the consumer lock, through the Fence, which only the
//     routing package's commit holds.
type Queue struct {
	// prod is the segment producers currently claim slots in. Replaced on
	// the grow path (under growMu) only; readers reach later segments
	// through chunk.next, so a stale load at worst retries.
	prod atomic.Pointer[chunk]

	// fence refuses routed pushes resolved from snapshots with version <=
	// fence. A topology change that invalidates this queue's routes raises
	// it (Detach) before publishing the successor snapshot; refused writers
	// retry through the bus's slow path against the new topology. Only
	// Detach advances it, and only the Fence has Detach.
	fence atomic.Uint64

	closed atomic.Bool

	// sleepers gates the producer-side wakeup: it counts the consumers
	// parked in Pop, each counting itself before re-checking for work and
	// parking, and uncounting itself once woken. A producer loads it after
	// publishing. Sequentially consistent atomics make that a Dekker pair —
	// at least one side observes the other, so no wakeup is lost and
	// producers touch the consumer mutex only when someone is parked. A
	// count, not a flag: a reader leaving Pop must not hide another still
	// parked.
	sleepers atomic.Int32

	// absHead/frontLen mirror consumer progress for the lock-free length:
	// occupancy = frontLen + (producer claim position - absHead) - dead,
	// dead being the abandoned claims the consumer has not yet walked past
	// (counted before the slot is marked, so the sum never reads high).
	// Only the consumer side writes absHead and frontLen, under mu, so they
	// are stored, not added to; producers add to dead.
	absHead  atomic.Uint64
	frontLen atomic.Int64
	dead     atomic.Int64

	growMu sync.Mutex // serializes segment allocation/linking

	mu    sync.Mutex // consumer side: cons/head/front and parking
	cond  *sync.Cond
	cons  *chunk // segment being consumed
	head  uint64 // next slot index within cons
	front []Item // restored/re-homed items, consumed before the segments

	// rec is the delivery log's append handle for this queue's endpoint
	// (nil when the bus runs without a log: a no-op). Appends happen at consumption, in slot-claim order, which
	// is what makes the recorded per-queue sequence the queue's true total
	// delivery order. The bus resolves the handle from its log's append half
	// and passes it here; nothing else holds it.
	rec *replay.QueueLog
	// clk is the bus's clock: a span's end is read off the clock its send
	// stamp was.
	clk clock.Clock
	// latency attributes delivery latency (send stamp to consumption) to
	// this receiving endpoint: observed for the deliveries the log writes
	// as spans, the only ones whose end is read off the clock.
	latency *telemetry.Histogram
	// delivered counts the routed pushes this queue accepts. A push counts
	// itself before it publishes, so no reader of the message can see a
	// count without it.
	delivered *telemetry.Counter
}

// New returns an empty queue whose consumed deliveries go to rec (nil: not
// recorded) and whose delivery latencies go to latency, with span ends read
// off clk. Each routed push it accepts adds one to delivered. It returns the
// queue's fence half too, which nothing else hands out.
func New(rec *replay.QueueLog, clk clock.Clock, latency *telemetry.Histogram, delivered *telemetry.Counter) (*Queue, Fence) {
	q := &Queue{rec: rec, clk: clk, latency: latency, delivered: delivered}
	c := &chunk{}
	q.prod.Store(c)
	q.cons = c
	q.cond = sync.NewCond(&q.mu)
	return q, Fence{q}
}

// Fence is a queue's fence half: what a topology change does to a queue —
// fence it, take what it holds, land a transfer, put messages back. New
// hands it to the queue's builder only.
type Fence struct{ q *Queue }

// claim CAS-claims the next slot. Lock-free: the only loop is tail
// contention, and the full-segment case defers to the cold grow path.
//
//archlint:hotpath
func (q *Queue) claim() *slot {
	for {
		c := q.prod.Load()
		pos := c.tail.Load()
		if pos >= chunkCap {
			q.grow(c)
			continue
		}
		if c.tail.CompareAndSwap(pos, pos+1) {
			return &c.slots[pos]
		}
	}
}

// grow links a fresh segment after cur and advances the producer cursor.
// Cold path — runs once per chunkCap messages; the prod re-check makes
// racing growers idempotent. next is linked before prod is replaced so the
// consumer's segment walk can always reach the new tail segment.
func (q *Queue) grow(cur *chunk) {
	q.growMu.Lock()
	if q.prod.Load() == cur {
		n := &chunk{base: cur.base + chunkCap}
		cur.next.Store(n)
		q.prod.Store(n)
	}
	q.growMu.Unlock()
}

// wakeReader wakes the parked consumers and reports whether there were
// any. Producers call it after publishing; the sleepers gate keeps the
// consumer mutex off the hot path entirely unless someone is actually
// parked.
//
//archlint:hotpath
func (q *Queue) wakeReader() bool {
	if q.sleepers.Load() == 0 {
		return false
	}
	q.Wake()
	return true
}

// PushRouted appends a message written on the interface named *from, whose
// target was resolved from the snapshot with the given version — the fast
// path's, or the one writeSlow re-resolved under the control-plane lock,
// which no fence can be ahead of. It refuses with ErrStaleRoute when the
// queue has been fenced at or past that version, so a writer racing a
// topology change can never land traffic on an abandoned route. The fence
// is checked after the claim: a producer ordered before a
// detach-and-drain's tail capture owns a slot the drain settles, one
// ordered after it observes the raised fence and abandons the claim —
// either way exactly once. The fence is tested before closed: every close
// is preceded by a detach, so a writer holding a pre-rebind snapshot that
// reaches the old queue after DeleteInstance must re-route (ErrStaleRoute),
// not have ErrClosed read as "receiver gone" and the message dropped. An
// accepted push is counted before it is published; woke reports whether it
// woke a parked reader, which then waits for a processor.
//
//archlint:hotpath
func (q *Queue) PushRouted(m *Message, from *string, version uint64) (woke bool, err error) {
	s := q.claim()
	if version <= q.fence.Load() {
		q.dead.Add(1)
		s.state.Store(slotDead)
		return false, ErrStaleRoute
	}
	if q.closed.Load() {
		q.dead.Add(1)
		s.state.Store(slotDead)
		return false, ErrClosed
	}
	q.delivered.Inc()
	s.Msg = *m
	s.from = from
	s.ver = version
	s.state.Store(slotFull) // publish: the slot's last write
	return q.wakeReader(), nil
}

// Detach fences the queue at the given snapshot version: every subsequent
// PushRouted carrying that version or older is refused. Monotonic — a
// later fence never lowers an earlier one. A drain that follows the detach
// observes every pre-fence delivery (see the type comment for the claim
// ordering argument).
func (f Fence) Detach(version uint64) {
	q := f.q
	for {
		cur := q.fence.Load()
		if version <= cur || q.fence.CompareAndSwap(cur, version) {
			return
		}
	}
}

// take removes the oldest item without blocking and hands back its
// address: the front (restored) items first, then the published prefix of
// the segments, skipping abandoned claims. Nothing writes a taken item
// again — slots are never reused and Restore builds a front of its own —
// so the address outlives every later queue operation. Returns nil on an
// empty queue or when the head slot is claimed but not yet resolved — the
// producer's wakeup resolves the latter for parked consumers. Caller holds
// q.mu.
//
//archlint:hotpath
func (q *Queue) take() *Item {
	if len(q.front) > 0 {
		it := &q.front[0]
		if q.front = q.front[1:]; len(q.front) == 0 {
			q.front = nil // the taken items go with their last holder
		}
		q.frontLen.Store(int64(len(q.front)))
		return it
	}
	for {
		c := q.cons
		if q.head == chunkCap {
			next := c.next.Load()
			if next == nil {
				return nil
			}
			q.cons = next
			q.head = 0
			continue
		}
		s := &c.slots[q.head]
		switch s.state.Load() {
		case slotEmpty:
			return nil
		case slotDead:
			q.head++
			q.absHead.Store(c.base + q.head)
			q.dead.Add(-1)
			continue
		}
		q.head++
		q.absHead.Store(c.base + q.head)
		return &s.Item
	}
}

// record writes a consumed delivery to the delivery log, once whether it
// is recorded, sampled or both, and observes a sampled one's latency. The
// single consumer-side record hook: slot-claim order is delivery order, so
// appending here keeps recorded QSeq the queue's true total order. A
// delivery the log does not write reads no clock.
//
//archlint:hotpath
func (q *Queue) record(it *Item) {
	if end := q.rec.Append(it.sender(), it.Msg.Data, it.Msg.Trace, it.ver, q.clk); end != 0 && it.Msg.Trace.SentNs != 0 {
		q.latency.ObserveNs(end - it.Msg.Trace.SentNs)
	}
}

// Pop removes the oldest message into *m — its one copy between the
// writer's claim and the reader's hands — blocking until one is available
// or the queue closes. A closing queue drains its remaining messages
// before reporting ErrClosed. A non-nil stop ends the wait the same way,
// but takes nothing once closed: whoever closes it wakes the queue.
//
//archlint:hotpath
func (q *Queue) Pop(m *Message, stop <-chan struct{}) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if stop != nil {
			select {
			case <-stop:
				return ErrClosed
			default:
			}
		}
		it := q.take()
		if it == nil {
			if q.closed.Load() {
				return ErrClosed
			}
			q.sleepers.Add(1)
			it = q.take() // Dekker re-check against a racing publish
			if it == nil {
				q.cond.Wait()
				q.sleepers.Add(-1)
				continue
			}
			q.sleepers.Add(-1)
		}
		q.record(it)
		*m = it.Msg
		return nil
	}
}

// Parked reports whether a reader is blocked in Pop waiting for a message.
// Under the consumer lock the sleepers count holds exactly the readers
// waiting on the condition variable, so the answer is exact.
func (q *Queue) Parked() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sleepers.Load() > 0
}

// Wake wakes the readers parked on the queue, to look again.
func (q *Queue) Wake() {
	q.mu.Lock()
	q.cond.Broadcast()
	q.mu.Unlock()
}

// TryPop is Pop without blocking: false when nothing is queued.
//
//archlint:hotpath
func (q *Queue) TryPop(m *Message) (bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if it := q.take(); it != nil {
		q.record(it)
		*m = it.Msg
		return true, nil
	}
	if q.closed.Load() {
		return false, ErrClosed
	}
	return false, nil
}

// Len returns the number of queued messages from the occupancy counters —
// no locks, so the telemetry gauges and the least-queue group policy can
// read it from the hot path. Claimed-but-unresolved slots count as queued,
// abandoned claims do not; on a quiesced queue the value is exact.
//
//archlint:hotpath
func (q *Queue) Len() int {
	c := q.prod.Load()
	t := c.tail.Load()
	if t > chunkCap {
		t = chunkCap
	}
	n := q.frontLen.Load() + int64(c.base+t-q.absHead.Load()) - q.dead.Load()
	if n < 0 { // torn read: consumer advanced past our tail sample
		n = 0
	}
	return int(n)
}

// Drain removes and returns every item claimed before entry: the taking
// half of a queue transfer. Claimed-but-unresolved slots are settled by
// yielding to their producers. The commit fences the queue first, so a
// routed claim after the cut is abandoned and the write re-routes.
func (f Fence) Drain() []Item {
	q := f.q
	q.mu.Lock()
	defer q.mu.Unlock()
	end := q.claimed()
	var out []Item
	for len(q.front) > 0 || q.absHead.Load() < end {
		it := q.take()
		if it == nil {
			runtime.Gosched() // head slot claimed, producer mid-publish
			continue
		}
		out = append(out, *it)
	}
	return out
}

// claimed returns the absolute index one past the last slot claimed.
func (q *Queue) claimed() uint64 {
	c := q.prod.Load()
	return c.base + min(c.tail.Load(), chunkCap)
}

// Snapshot returns a copy of the queued messages without removing them
// (the bus's QueuedMessages): the front items plus every message claimed
// before entry. A slot claimed but not yet resolved is waited for, by
// yielding to its producer as Drain does, so the copy leaves out no
// message a producer had claimed. Slots are never reused, so the walk is
// safe against producers.
func (q *Queue) Snapshot() []Message {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Message, 0, len(q.front))
	for _, it := range q.front {
		out = append(out, it.Msg)
	}
	end := q.claimed()
	for c, h := q.cons, q.head; c.base+h < end; {
		if h == chunkCap {
			c, h = c.next.Load(), 0 // linked before any slot of it is claimed
			continue
		}
		switch c.slots[h].state.Load() {
		case slotEmpty:
			runtime.Gosched() // claimed, producer mid-publish
			continue
		case slotFull:
			out = append(out, c.slots[h].Msg)
		}
		h++
	}
	return out
}

// Restore replaces the queue contents with items, waking readers if there
// are any; version is the routing snapshot the restorer publishes, stamped
// as the epoch of any re-consumed delivery. The commit fences the queue
// first and runs under the control-plane lock, so the discard loop cannot
// chase live producers. Restoring a closed queue is a no-op.
func (f Fence) Restore(items []Item, version uint64) {
	q := f.q
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed.Load() {
		return
	}
	for q.take() != nil { // discard current contents, unrecorded
	}
	q.front = make([]Item, len(items))
	for i, it := range items {
		it.ver = version
		q.front[i] = it
	}
	q.frontLen.Store(int64(len(items)))
	if len(items) > 0 {
		q.cond.Broadcast()
	}
}

// PushAll appends a batch in order — the landing half of a queue
// transfer; version stamps each item's epoch (the snapshot the mover
// publishes). It does not look at the fence: the mover is the topology
// change. Nor at closed: the commit resolved q from its draft under the
// control-plane lock, and a queue closes under that lock together with its
// instance's removal. The commit fences q as it fences the source, so no
// routed push interleaves with the batch: it lands contiguously.
func (f Fence) PushAll(items []Item, version uint64) {
	q := f.q
	for i := range items {
		s := q.claim()
		s.Item = items[i]
		s.ver = version
		s.state.Store(slotFull)
	}
	q.wakeReader()
}

// Close wakes all blocked readers; subsequent pushes fail. The commit
// fences the queue first, so a routed writer that could pass the closed
// check concurrently with Close is refused at the fence instead.
func (q *Queue) Close() {
	if !q.closed.Swap(true) {
		q.Wake()
	}
}
