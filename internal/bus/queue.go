package bus

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/replay"
	"repro/internal/telemetry"
)

// ErrQueueClosed is returned by queue operations after Close.
var ErrQueueClosed = errors.New("bus: queue closed")

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

// qslot is one message cell of a segment. state is the publication flag:
// slotEmpty while the slot is unclaimed or a producer is still writing
// msg/ver, then slotFull or slotDead. The producer protocol (archlint
// AL013) is claim -> write fields -> publish: the state Store must be the
// slot's last touch, and the consumer reads msg/ver only after observing
// slotFull. Consumed slots are neither cleared nor reused, so the address
// take hands out stays good for as long as it is held; a payload reference
// lives until its segment is collected, at most chunkCap messages later.
type qslot struct {
	state atomic.Uint32
	qitem
}

// chunk is one fixed-size segment of the queue: a slice-free array of slots
// claimed left to right through the CAS'd tail, chained through next when
// full. Slots are never reused — total FIFO order across producers is the
// claim (CAS) order, and consumed chunks are dropped for the collector.
type chunk struct {
	base  uint64 // absolute index of slots[0], for occupancy accounting
	tail  atomic.Uint64
	next  atomic.Pointer[chunk]
	slots [chunkCap]qslot
}

// msgQueue is an unbounded FIFO of messages with blocking pop, the backing
// store for one incoming interface. POLYLITH buffers messages at the bus;
// modules poll with mh_query_ifmsgs and read with mh_read, so the queue
// exposes both a non-blocking length and a blocking pop.
//
// The hot path is lock-free: producers claim a slot by CAS on the current
// segment's tail, write the message, and flip the slot's publication flag —
// they take no mutex and signal the consumer only when one is parked. What
// the old queue mutex provided implicitly is rebuilt explicitly:
//
//   - Epoch fencing is the fence word, checked after the claim. detach
//     CAS-raises the fence; because a drain that follows captures the tail
//     after the raise, every producer ordered before the capture has a slot
//     below it (the drain settles those), and every producer ordered after
//     observes the raised fence, abandons its slot (slotDead) and retries
//     through the bus's slow path (errStaleRoute) — no message is lost or
//     delivered twice across a detach-and-drain.
//   - Replay recording moved from producer-side-under-lock to the consumer
//     drain: slot claim order is delivery order, so appending at pop keeps
//     the recorded per-queue sequence the queue's true total order
//     (archlint AL012 pins the append to the record hook below).
//   - Move, discard and redistribute are detach-and-drain over the
//     segments under the consumer lock, all from the one commit
//     (Bus.editLocked).
type msgQueue struct {
	// prod is the segment producers currently claim slots in. Replaced on
	// the grow path (under growMu) only; readers reach later segments
	// through chunk.next, so a stale load at worst retries.
	prod atomic.Pointer[chunk]

	// fence refuses routed pushes resolved from snapshots with version <=
	// fence. A topology change that invalidates this queue's routes raises
	// it (detach) before publishing the successor snapshot; refused writers
	// retry through the bus's slow path against the new topology. Only
	// detach may advance it (archlint AL013).
	fence atomic.Uint64

	closed atomic.Bool

	// sleeping gates the producer-side wakeup: a consumer sets it before
	// re-checking for work and parking, a producer checks it after
	// publishing. Sequentially consistent atomics make that a Dekker pair —
	// at least one side observes the other, so no wakeup is lost and
	// producers touch the consumer mutex only when someone is parked.
	sleeping atomic.Bool

	// absHead/frontLen mirror consumer progress for the lock-free length:
	// occupancy = frontLen + (producer claim position - absHead) - dead,
	// dead being the abandoned claims the consumer has not yet walked past
	// (counted before the slot is marked, so the sum never reads high).
	absHead  atomic.Uint64
	frontLen atomic.Int64
	dead     atomic.Int64

	growMu sync.Mutex // serializes segment allocation/linking

	mu    sync.Mutex // consumer side: cons/head/front and parking
	cond  *sync.Cond
	cons  *chunk  // segment being consumed
	head  uint64  // next slot index within cons
	front []qitem // restored/re-homed items, consumed before the segments

	// rec is the delivery log's append handle for this queue's endpoint,
	// resolved at AddInstance (nil when the bus runs without a log — a
	// no-op, like the telemetry counters). Appends happen at consumption,
	// in slot-claim order, which is what makes the recorded per-queue
	// sequence the queue's true total delivery order. This is the only
	// layer allowed to append records (archlint AL012).
	rec *replay.QueueLog
	// clk is the bus's clock, resolved with rec: a span's end is read off
	// the clock its send stamp was.
	clk clock.Clock
	// latency attributes delivery latency (send stamp to consumption) to
	// this receiving endpoint: observed for the deliveries the log writes
	// as spans, the only ones whose end is read off the clock.
	latency *telemetry.Histogram
}

// qitem is a queued message paired with the routing-snapshot version it was
// delivered under, carried to the consumer for the record epoch stamp.
type qitem struct {
	msg Message
	ver uint64
}

func newMsgQueue() *msgQueue {
	q := &msgQueue{}
	c := &chunk{}
	q.prod.Store(c)
	q.cons = c
	q.cond = sync.NewCond(&q.mu)
	return q
}

// claim CAS-claims the next slot. Lock-free: the only loop is tail
// contention, and the full-segment case defers to the cold grow path.
//
//archlint:hotpath
func (q *msgQueue) claim() *qslot {
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
func (q *msgQueue) grow(cur *chunk) {
	q.growMu.Lock()
	if q.prod.Load() == cur {
		n := &chunk{base: cur.base + chunkCap}
		cur.next.Store(n)
		q.prod.Store(n)
	}
	q.growMu.Unlock()
}

// wakeReader wakes a parked consumer. Producers call it after publishing;
// the sleeping gate keeps the consumer mutex off the hot path entirely
// unless someone is actually parked.
//
//archlint:hotpath
func (q *msgQueue) wakeReader() {
	if q.sleeping.Load() {
		q.wake()
	}
}

// pushRouted appends a message whose target was resolved from the snapshot
// with the given version — the fast path's, or the one writeSlow re-resolved
// under the control-plane lock, which no fence can be ahead of. It refuses
// with errStaleRoute when the queue has been fenced at or past that version,
// so a writer racing a topology change can never land traffic on an
// abandoned route. The fence is checked after
// the claim: a producer ordered before a detach-and-drain's tail capture
// owns a slot the drain settles, one ordered after it observes the raised
// fence and abandons the claim — either way exactly once. The fence is
// tested before closed: every close is preceded by a detach, so a writer
// holding a pre-rebind snapshot that reaches the old queue after
// DeleteInstance must re-route (errStaleRoute), not have ErrQueueClosed
// read as "receiver gone" and the message dropped.
//
//archlint:hotpath
func (q *msgQueue) pushRouted(m *Message, version uint64) error {
	s := q.claim()
	if version <= q.fence.Load() {
		q.dead.Add(1)
		s.state.Store(slotDead)
		return errStaleRoute
	}
	if q.closed.Load() {
		q.dead.Add(1)
		s.state.Store(slotDead)
		return ErrQueueClosed
	}
	s.msg = *m
	s.ver = version
	s.state.Store(slotFull) // publish: must be the slot's last write (AL013)
	q.wakeReader()
	return nil
}

// detach fences the queue at the given snapshot version: every subsequent
// pushRouted carrying that version or older is refused. Monotonic — a later
// fence never lowers an earlier one. A drain that follows the detach
// observes every pre-fence delivery (see the type comment for the claim
// ordering argument).
func (q *msgQueue) detach(version uint64) {
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
// again — slots are never reused and restore builds a front of its own —
// so the address outlives every later queue operation. Returns nil on an
// empty queue or when the head slot is claimed but not yet resolved — the
// producer's wakeup resolves the latter for parked consumers. Caller holds
// q.mu.
//
//archlint:hotpath
func (q *msgQueue) take() *qitem {
	if len(q.front) > 0 {
		it := &q.front[0]
		if q.front = q.front[1:]; len(q.front) == 0 {
			q.front = nil // the taken items go with their last holder
		}
		q.frontLen.Add(-1)
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
			q.absHead.Add(1)
			q.dead.Add(-1)
			continue
		}
		q.head++
		q.absHead.Add(1)
		return &s.qitem
	}
}

// record writes a consumed delivery to the delivery log, once whether it
// is recorded, sampled or both, and observes a sampled one's latency. The
// single consumer-side record hook: slot-claim order is delivery order, so
// appending here keeps recorded QSeq the queue's true total order
// (archlint AL012 pins QueueLog.Append to this function). A delivery the
// log does not write reads no clock.
//
//archlint:hotpath
func (q *msgQueue) record(it *qitem) {
	if end := q.rec.Append(it.msg.sender(), it.msg.Data, it.msg.Trace, it.ver, q.clk); end != 0 && it.msg.Trace.SentNs != 0 {
		q.latency.ObserveNs(end - it.msg.Trace.SentNs)
	}
}

// pop removes the oldest message into *m — its one copy between the
// writer's claim and the reader's hands — blocking until one is available
// or the queue closes. A closing queue drains its remaining messages
// before reporting ErrQueueClosed. A non-nil stop ends the wait the same
// way, but takes nothing once closed: whoever closes it wakes the queue.
//
//archlint:hotpath
func (q *msgQueue) pop(m *Message, stop <-chan struct{}) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if stop != nil && isClosed(stop) {
			return ErrQueueClosed
		}
		it := q.take()
		if it == nil {
			if q.closed.Load() {
				return ErrQueueClosed
			}
			q.sleeping.Store(true)
			it = q.take() // Dekker re-check against a racing publish
			if it == nil {
				q.cond.Wait()
				q.sleeping.Store(false)
				continue
			}
			q.sleeping.Store(false)
		}
		q.record(it)
		*m = it.msg
		return nil
	}
}

// parked reports whether the reader is blocked in pop waiting for a
// message. Under the consumer lock the sleeping gate is set only while pop
// waits on the condition variable, so the answer is exact.
func (q *msgQueue) parked() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sleeping.Load()
}

// isClosed reports whether a channel that is only ever closed has been.
func isClosed(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// wake wakes the readers parked on the queue, to look again.
func (q *msgQueue) wake() {
	q.mu.Lock()
	q.cond.Broadcast()
	q.mu.Unlock()
}

// tryPop is pop without blocking: false when nothing is queued.
//
//archlint:hotpath
func (q *msgQueue) tryPop(m *Message) (bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if it := q.take(); it != nil {
		q.record(it)
		*m = it.msg
		return true, nil
	}
	if q.closed.Load() {
		return false, ErrQueueClosed
	}
	return false, nil
}

// length returns the number of queued messages from the occupancy
// counters — no locks, so the telemetry gauges and the least-queue group
// policy can read it from the hot path. Claimed-but-unresolved slots count
// as queued, abandoned claims do not; on a quiesced queue the value is exact.
//
//archlint:hotpath
func (q *msgQueue) length() int {
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

// drain removes and returns every message claimed before entry: the taking
// half of a queue transfer. Claimed-but-unresolved slots are settled by
// yielding to their producers. The commit fences the queue first, so a
// routed claim after the cut is abandoned and the write re-routes.
func (q *msgQueue) drain() []Message {
	q.mu.Lock()
	defer q.mu.Unlock()
	endC := q.prod.Load()
	endT := endC.tail.Load()
	if endT > chunkCap {
		endT = chunkCap
	}
	end := endC.base + endT
	var out []Message
	for len(q.front) > 0 || q.absHead.Load() < end {
		it := q.take()
		if it == nil {
			runtime.Gosched() // head slot claimed, producer mid-publish
			continue
		}
		out = append(out, it.msg)
	}
	return out
}

// snapshot returns a copy of the queued messages without removing them
// (QueuedMessages): the front items plus the published segment prefix.
// Slots are never reused, so the walk is safe against producers.
func (q *msgQueue) snapshot() []Message {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Message, 0, len(q.front))
	for _, it := range q.front {
		out = append(out, it.msg)
	}
	c, h := q.cons, q.head
	for {
		if h == chunkCap {
			next := c.next.Load()
			if next == nil {
				break
			}
			c, h = next, 0
			continue
		}
		st := c.slots[h].state.Load()
		if st == slotEmpty {
			break
		}
		if st == slotFull {
			out = append(out, c.slots[h].msg)
		}
		h++
	}
	return out
}

// restore replaces the queue contents with items, waking readers if there
// are any; version is the routing snapshot the restorer publishes, stamped
// as the epoch of any re-consumed delivery. The commit fences the queue
// first and runs under the control-plane lock, so the discard loop cannot
// chase live producers. Restoring a closed queue is a no-op.
func (q *msgQueue) restore(items []Message, version uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed.Load() {
		return
	}
	for q.take() != nil { // discard current contents, unrecorded
	}
	q.front = make([]qitem, len(items))
	for i, m := range items {
		q.front[i] = qitem{msg: m, ver: version}
	}
	q.frontLen.Store(int64(len(items)))
	if len(items) > 0 {
		q.cond.Broadcast()
	}
}

// pushAll appends a batch in order — the landing half of a queue transfer;
// version stamps each message's epoch (the snapshot the mover publishes).
// It does not look at the fence: the mover is the topology change. Nor at
// closed: the commit resolved q from its draft under the control-plane
// lock, and a queue closes under that lock together with its instance's
// removal. Messages from producers with a live route to q may interleave
// with the batch; per-producer FIFO order still holds.
func (q *msgQueue) pushAll(items []Message, version uint64) {
	for i := range items {
		s := q.claim()
		s.msg = items[i]
		s.ver = version
		s.state.Store(slotFull)
	}
	q.wakeReader()
}

// close wakes all blocked readers; subsequent pushes fail. The commit
// fences the queue first, so a routed writer that could pass the closed
// check concurrently with close is refused at the fence instead.
func (q *msgQueue) close() {
	if !q.closed.Swap(true) {
		q.wake()
	}
}
