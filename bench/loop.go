package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Phases of a trial. The sink reads the phase to decide what to record: a
// latency sample per delivery in the ping phase, a delivery time per
// delivery in the replace phase, and nothing but counters otherwise.
const (
	phaseIdle int32 = iota
	phasePing
	phaseStream
	phaseReplace
)

// stallAfter is the sink's read deadline: when nothing is delivered for this
// long while messages are outstanding, they are declared lost and their
// credit is refunded, so a lost message is counted and never hangs the run.
const stallAfter = time.Second

// link is the workload-specific half of the generator: how a producer emits
// sequence numbers and how the sink reads and checks one delivery.
type link interface {
	// send emits the n messages [first, first+n) of producer p. With stamp it
	// stores each send time just before the write (ping phase, n == 1).
	send(p int, first int64, n int, stamp bool) error
	// recv blocks for the next delivery at the sink and checks its content.
	recv() (delivery, error)
}

type delivery struct {
	prod    int
	seq     int64
	at      int64 // ns since loop.base when Read returned; 0 in the stream phase
	valueOK bool  // the payload is what the generator sent (3x+1 on a pipeline)
	countOK bool  // the stage's captured running count advanced by exactly one
}

type producer struct {
	sent     atomic.Int64 // sequence numbers handed to send so far
	expected atomic.Int64 // next sequence number the sink expects
	sendNs   []atomic.Int64
}

// sendRing is the size of the per-producer send-time ring; it only has to
// exceed the ping window, which is 1.
const sendRing = 64

// loop is the closed-loop load generator and the correctness oracle. Senders
// block on a credit channel, the sink blocks in Read and returns one credit
// token per chunk deliveries, so the offered load is whatever the system
// sustains with `window` messages in flight — no sleeps, no spinning.
type loop struct {
	link    link
	base    time.Time
	prods   []*producer
	credits chan struct{}
	phase   atomic.Int32
	chunk   atomic.Int64 // messages per credit token
	acc     atomic.Int64 // accounted messages not yet returned as a token

	received    atomic.Int64 // deliveries that passed the value check, in order
	lost        atomic.Int64
	dup         atomic.Int64
	misordered  atomic.Int64
	wrong       atomic.Int64
	countBreaks atomic.Int64
	sendErrs    atomic.Int64

	target   atomic.Int64 // accounted() value the sink signals on
	reached  chan struct{}
	sinkDone chan struct{}

	lat   []int64 // ping phase: one-way latencies, ns
	deliv []int64 // replace phase: delivery times, ns since base

	lastProgress   int64
	lastProgressAt time.Time
	onTick         func() // traced trials: sample queue depths from the phase driver

	// Tracing (nil tracer = off): links time every call into the system and
	// keep one message in msgSpanEvery as a span under the phase span.
	tr        *tracer
	trial     int
	trialSpan int // root span of the trial; set-up and phase spans hang under it
	phaseSpan atomic.Int64
}

// maxTokens is the capacity of the credit channel: the largest window in
// tokens any phase uses (fan-in stream: 1024 messages in chunks of 32, and
// the pipelines' 64 single-message tokens).
const maxTokens = 64

func newLoop(producers int, lat, deliv []int64, tr *tracer, trial int) *loop {
	l := &loop{
		base:     time.Now(),
		credits:  make(chan struct{}, maxTokens),
		reached:  make(chan struct{}, 1),
		sinkDone: make(chan struct{}),
		lat:      lat[:0],
		deliv:    deliv[:0],
		tr:       tr,
		trial:    trial,
	}
	l.target.Store(math.MaxInt64)
	l.chunk.Store(1)
	l.trialSpan = tr.open("trial", 0, 0, trial, -1)
	for i := 0; i < producers; i++ {
		l.prods = append(l.prods, &producer{sendNs: make([]atomic.Int64, sendRing)})
	}
	return l
}

func (l *loop) now() int64 { return int64(time.Since(l.base)) }

// stamp is the delivery timestamp the links take right after Read returns;
// the stream phase needs none and skips the clock read.
func (l *loop) stamp() int64 {
	if l.phase.Load() == phaseStream {
		return 0
	}
	return l.now()
}

func (l *loop) accounted() int64 {
	return l.received.Load() + l.lost.Load() + l.wrong.Load()
}

func (l *loop) totalSent() int64 {
	var n int64
	for _, p := range l.prods {
		n += p.sent.Load()
	}
	return n
}

// release returns credit for n accounted messages, one token per chunk.
func (l *loop) release(n int64) {
	chunk := l.chunk.Load()
	acc := l.acc.Add(n)
	for acc >= chunk {
		acc = l.acc.Add(-chunk)
		select {
		case l.credits <- struct{}{}:
		default: // more tokens than the window: a refund raced a late delivery
		}
	}
}

// sink is the single consumer: it reads until the link reports an error
// (the instance is deleted or the connection closed at teardown).
func (l *loop) sink() {
	defer close(l.sinkDone)
	for {
		d, err := l.link.recv()
		if err != nil {
			return // teardown: the sink's instance was deleted or its connection closed
		}
		// Credit goes back before the delivery is counted (received, wrong):
		// once accounted() has reached what a phase is waiting for, the next
		// phase empties and refills the credit channel, and a token released
		// after that is one too many — the refill blocks for good.
		if !d.valueOK {
			// The sequence number of a corrupt payload cannot be trusted;
			// count it and return its credit.
			l.release(1)
			l.wrong.Add(1)
			l.signal()
			continue
		}
		p := l.prods[d.prod]
		exp := p.expected.Load()
		if d.seq < exp {
			if d.seq == exp-1 {
				l.dup.Add(1)
			} else {
				l.misordered.Add(1)
			}
			continue
		}
		gap := d.seq - exp
		if gap > 0 {
			l.lost.Add(gap)
		}
		if !d.countOK {
			l.countBreaks.Add(1)
		}
		p.expected.Store(d.seq + 1)
		switch l.phase.Load() {
		case phasePing:
			if sent := p.sendNs[d.seq%sendRing].Load(); d.at != 0 && sent != 0 && len(l.lat) < cap(l.lat) {
				l.lat = append(l.lat, d.at-sent)
			}
		case phaseReplace:
			if d.at != 0 && len(l.deliv) < cap(l.deliv) {
				l.deliv = append(l.deliv, d.at)
			}
		}
		l.release(1 + gap)
		l.received.Add(1)
		l.signal()
	}
}

func (l *loop) signal() {
	if t := l.target.Load(); t != math.MaxInt64 && l.accounted() >= t {
		select {
		case l.reached <- struct{}{}:
		default:
		}
	}
}

// produce is one sender: take a token, emit a chunk, repeat until stop is
// closed or until limit sequence numbers have been handed out in total (0 =
// no limit). Waiting on stop as well as on credit is what ends a sender whose
// every outstanding message was lost: nothing would ever return its token.
func (l *loop) produce(p int, limit int64, stop <-chan struct{}) {
	pr := l.prods[p]
	chunk := l.chunk.Load()
	stamp := l.phase.Load() == phasePing
	for {
		select {
		case <-stop:
			return
		case <-l.credits:
		}
		select {
		case <-stop: // both were ready and the token won
			return
		default:
		}
		if limit > 0 && l.totalSent() >= limit {
			return
		}
		first := pr.sent.Add(chunk) - chunk
		if err := l.link.send(p, first, int(chunk), stamp); err != nil {
			l.sendErrs.Add(1)
			return
		}
	}
}

// checkStall is the read deadline. Called periodically by the goroutine
// that drives the phase; when the sink has made no progress for stallAfter
// and sequence numbers are outstanding, they are counted lost and refunded.
func (l *loop) checkStall() {
	now := time.Now()
	progress := l.accounted() + l.dup.Load() + l.misordered.Load()
	if progress != l.lastProgress || l.lastProgressAt.IsZero() {
		l.lastProgress, l.lastProgressAt = progress, now
		return
	}
	if now.Sub(l.lastProgressAt) < stallAfter {
		return
	}
	var refund int64
	for _, p := range l.prods {
		if n := p.sent.Load() - p.expected.Load(); n > 0 {
			p.expected.Add(n)
			l.lost.Add(n)
			refund += n
		}
	}
	if refund > 0 {
		l.release(refund)
		l.signal()
	}
	l.lastProgressAt = now
}

// sleepUntil sleeps to the deadline in slices, checking for a stall.
func (l *loop) sleepUntil(deadline time.Time) {
	for {
		d := time.Until(deadline)
		if d <= 0 {
			return
		}
		if d > 50*time.Millisecond {
			d = 50 * time.Millisecond
		}
		time.Sleep(d)
		l.checkStall()
		if l.onTick != nil {
			l.onTick()
		}
	}
}

// phaseResult is what one phase measured from the outside.
type phaseResult struct {
	delivered int64   // deliveries between the two samples
	seconds   float64 // time between the two samples
}

// runPhase runs one phase: window messages in flight in tokens of chunk,
// producers senders. body drives the phase (sleeps to a deadline, issues
// Replaces, or waits for a count) and returns when load should stop; the
// delivered count and the clock are sampled together right then, before the
// senders are stopped and the window drains. limit > 0 makes the senders
// stop by themselves after limit messages.
func (l *loop) runPhase(name string, ph int32, window, chunk, producers int, limit int64, body func()) (phaseResult, error) {
	tokens := window / chunk
	if tokens < 1 || tokens > maxTokens {
		return phaseResult{}, fmt.Errorf("bench: window %d / chunk %d does not fit the credit channel", window, chunk)
	}
	for len(l.credits) > 0 {
		<-l.credits
	}
	l.acc.Store(0)
	l.chunk.Store(int64(chunk))
	l.phase.Store(ph)
	l.lastProgressAt = time.Time{}
	var res phaseResult
	start := l.now()
	l.phaseSpan.Store(int64(l.tr.open("phase."+name, start, l.trialSpan, l.trial, -1)))
	for i := 0; i < tokens; i++ {
		l.credits <- struct{}{}
	}
	recv0 := l.received.Load()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) { //archlint:spawn load generator sender; exits when the phase closes stop, joined by wg below
			defer wg.Done()
			l.produce(p, limit, stop)
		}(p)
	}
	body()
	res.delivered = l.received.Load() - recv0
	res.seconds = float64(l.now()-start) / 1e9
	close(stop)
	wg.Wait()
	l.drain()
	l.tr.end(int(l.phaseSpan.Load()), l.now())
	l.phase.Store(phaseIdle)
	if n := l.sendErrs.Load(); n > 0 {
		return res, fmt.Errorf("bench: %d sends failed in phase %s", n, name)
	}
	return res, nil
}

// drain waits until every sequence number handed out is accounted for:
// delivered, or declared lost by a gap or by the read deadline.
func (l *loop) drain() {
	l.waitAccounted(l.totalSent())
}

// waitAccounted blocks until the sink has accounted for n sequence numbers.
func (l *loop) waitAccounted(n int64) {
	l.target.Store(n)
	defer l.target.Store(math.MaxInt64)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for l.accounted() < n {
		select {
		case <-l.reached:
		case <-l.sinkDone:
			return
		case <-tick.C:
			l.checkStall()
		}
	}
}
