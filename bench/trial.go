package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/bus"
)

// plan is how one trial spends its time. A run is a number of independent
// trials, each with a fresh bus or App; every metric is an order statistic
// across the trials of a per-trial statistic, which is what makes two runs of
// the same code agree.
type plan struct {
	ping    time.Duration // window 1: latency is path time, not queueing
	stream  time.Duration // full window: throughput is capacity
	replace time.Duration // full window plus a Replace every replaceEvery±replaceJitter; 0 = no replace phase
}

const (
	replaceEvery  = 20 * time.Millisecond
	replaceJitter = 5 * time.Millisecond
)

// planFor splits one trial's share of the run; the rest is left for set-up,
// teardown and the GC between trials. Only a traced run has a replace phase:
// the shipped system loses a message every few hundred Replaces (README,
// "Known defects"), and the run whose metrics are gated is one on which no
// operation fails. That run spends the time on the ping phase, where its
// gated latency comes from.
func planFor(perTrial time.Duration, replace bool) plan {
	if !replace {
		return plan{ping: perTrial * 50 / 100, stream: perTrial * 30 / 100}
	}
	return plan{
		ping:    perTrial * 25 / 100,
		stream:  perTrial * 35 / 100,
		replace: perTrial * 30 / 100,
	}
}

// txSample is one Replace as the harness saw it from the outside.
type txSample struct {
	startNs, endNs int64
	failed         bool               // returned an error or rolled back
	spans          map[string]float64 // traced trials: reconfiguration spans by name, µs
}

// trialResult is everything one trial measured.
type trialResult struct {
	traced bool

	setupS      float64
	throughput  float64 // stream phase, messages delivered per second
	latP1Us     float64 // the floor: every handoff on its fast path
	latP50Us    float64
	latP90Us    float64
	latP99Us    float64
	latSamples  int
	txMs        []float64 // per Replace, wall time
	gapMs       []float64 // per Replace, longest pause in sink deliveries overlapping it
	replaces    int
	replaceFail int

	// sent and lost are the messages of set-up, ping and stream: the
	// operations a run reports as attempted and failed. The replace phase is
	// counted apart, so that the known loss under Replace does not make every
	// traced run a failing one; anything else that goes wrong in it — a wrong,
	// duplicated or misordered message, a broken count, a failed Replace —
	// counts for the whole trial.
	sent, lost, dup, misordered, wrong, countBreaks int64
	replaceSent, replaceLost                        int64

	setupParts map[string]float64 // µs: load, launch, attach, first_msg, warmup
	txSpans    []map[string]float64
	bus        busCounters
	obs        obsCounters
	flagChecks float64 // per delivered message
	rpcsPerMsg float64 // wire: RPCs served per delivered message
	captureUs  []float64
	restoreUs  []float64
}

// busCounters are read from Bus().Stats() and sampled queue depths.
type busCounters struct {
	dropped, rebinds, movedMsgs int64
	queueDepthMax               int64
}

// obsCounters are read from the observability surfaces after a trial.
type obsCounters struct {
	traceSpans, recordRetained, windowsRolled int64
}

func (r *trialResult) attempted() int64 { return r.sent }

func (r *trialResult) failed() int64 {
	return r.lost + r.dup + r.misordered + r.wrong + r.countBreaks + int64(r.replaceFail)
}

// fillFromLoop copies the oracle's counters and the ping-phase latency
// distribution out of a drained loop; whatever was sent and lost since
// measure set r.sent and r.lost belongs to the replace phase.
func (r *trialResult) fillFromLoop(l *loop) {
	r.replaceSent = l.totalSent() - r.sent
	r.replaceLost = l.lost.Load() - r.lost
	r.dup = l.dup.Load()
	r.misordered = l.misordered.Load()
	r.wrong = l.wrong.Load()
	r.countBreaks = l.countBreaks.Load()
	lat := toFloats(l.lat, 1e3)
	r.latSamples = len(lat)
	r.latP1Us = quantile(lat, 0.01)
	r.latP50Us = quantile(lat, 0.50)
	r.latP90Us = quantile(lat, 0.90)
	r.latP99Us = quantile(lat, 0.99)
}

// fillReplaces turns the Replace samples and the sink's delivery times into
// the two replace statistics.
func (r *trialResult) fillReplaces(txs []txSample, deliv []int64) {
	for _, tx := range txs {
		r.replaces++
		if tx.failed {
			r.replaceFail++
			continue
		}
		r.txMs = append(r.txMs, float64(tx.endNs-tx.startNs)/1e6)
		r.gapMs = append(r.gapMs, float64(longestGap(deliv, tx.startNs, tx.endNs))/1e6)
		if tx.spans != nil {
			r.txSpans = append(r.txSpans, tx.spans)
		}
	}
}

// longestGap returns the longest interval between consecutive deliveries
// that overlaps [start, end]: the pause the application saw for this Replace.
func longestGap(deliv []int64, start, end int64) int64 {
	i := sort.Search(len(deliv), func(i int) bool { return deliv[i] > start })
	if i > 0 {
		i--
	}
	var longest int64
	for ; i+1 < len(deliv) && deliv[i] < end; i++ {
		if g := deliv[i+1] - deliv[i]; g > longest {
			longest = g
		}
	}
	return longest
}

// replaceSchedule drives the replace phase: it issues one Replace every
// replaceEvery ± replaceJitter (the jitter drawn from rng, so the seed fixes
// the schedule) until the phase deadline, and at least one. The senders keep
// streaming throughout: a module with no input never reaches its
// reconfiguration point.
func replaceSchedule(l *loop, rng *rand.Rand, phase time.Duration, replaceOnce func(k int) txSample) []txSample {
	deadline := time.Now().Add(phase)
	var txs []txSample
	for k := 0; ; k++ {
		wait := replaceEvery + time.Duration(rng.Int63n(int64(2*replaceJitter))) - replaceJitter
		if half := phase / 2; wait > half {
			wait = half
		}
		l.sleepUntil(time.Now().Add(wait))
		txs = append(txs, replaceOnce(k))
		if !time.Now().Before(deadline) {
			return txs
		}
	}
}

// mark records one set-up step that began at `from` and returns its end.
func (r *trialResult) mark(l *loop, name string, from int64) int64 {
	now := l.now()
	r.setupParts[name] = float64(now-from) / 1e3
	l.tr.add("setup."+name, from, now, l.trialSpan, l.trial, -1)
	return now
}

// measure is the part of a trial every workload shares. The caller has built
// the topology, set l.link and started the sink; `from` is where its last
// set-up step ended. measure finishes the set-up with the first message,
// warms the path up, then runs the ping, stream and replace phases and fills
// the result.
// producers is the number of senders of the stream and replace phases; b is
// the bus whose queue depths and counters a traced trial reads; replaceOnce
// performs the workload's k-th Replace.
func (r *trialResult) measure(l *loop, w workload, producers int, pl plan, seed uint64, from int64, b *bus.Bus, replaceOnce func(k int) txSample) error {
	if _, err := l.runPhase("first_msg", phaseStream, 1, 1, 1, 1, func() { l.waitAccounted(1) }); err != nil {
		return err
	}
	from = r.mark(l, "first_msg", from)
	r.setupS = float64(from) / 1e9
	if pl.ping == 0 { // a set-up-only trial ends here
		r.sent, r.lost = l.totalSent(), l.lost.Load()
		r.fillFromLoop(l)
		return nil
	}
	// With several senders the limit may be overshot by a chunk each; the
	// phase drains whatever was sent.
	warm := l.totalSent() + w.warmup
	if _, err := l.runPhase("warmup", phaseStream, w.streamWindow, w.streamChunk, producers, warm, func() { l.waitAccounted(warm) }); err != nil {
		return err
	}
	r.mark(l, "warmup", from)

	// ping: one sender, one message in flight, single Write.
	if _, err := l.runPhase("ping", phasePing, 1, 1, 1, 0, func() { l.sleepUntil(time.Now().Add(pl.ping)) }); err != nil {
		return err
	}

	// stream: the full window (SendBatch(16) on the wire, P senders on fan-in).
	if l.tr != nil {
		l.onTick = func() { r.bus.queueDepthMax = max(r.bus.queueDepthMax, queueDepth(b)) }
	}
	st, err := l.runPhase("stream", phaseStream, w.streamWindow, w.streamChunk, producers, 0, func() { l.sleepUntil(time.Now().Add(pl.stream)) })
	if err != nil {
		return err
	}
	r.throughput = float64(st.delivered) / st.seconds
	r.sent, r.lost = l.totalSent(), l.lost.Load()

	// replace: the same load, plus the workload's Replace on a seeded schedule.
	var txs []txSample
	if pl.replace > 0 {
		rng := rand.New(rand.NewSource(int64(seed) + int64(l.trial)))
		if _, err := l.runPhase("replace", phaseReplace, w.streamWindow, w.streamChunk, producers, 0, func() {
			txs = replaceSchedule(l, rng, pl.replace, replaceOnce)
		}); err != nil {
			return err
		}
	}
	r.fillFromLoop(l)
	r.fillReplaces(txs, l.deliv)
	l.tr.end(l.trialSpan, l.now())
	if l.tr != nil {
		st := b.Stats()
		r.bus.dropped, r.bus.rebinds, r.bus.movedMsgs = st.Dropped, st.Rebinds, st.Moves
	}
	return nil
}

// queueDepth sums the messages queued at every receiving interface.
func queueDepth(b *bus.Bus) int64 {
	var n int64
	for _, name := range b.Instances() {
		if info, err := b.Info(name); err == nil {
			for _, pending := range info.Pending {
				n += int64(pending)
			}
		}
	}
	return n
}

// buffers are the sample buffers one run reuses across its trials, so a
// trial does not pay for (or garbage-collect) its predecessor's samples.
type buffers struct {
	lat   []int64
	deliv []int64
}

func newBuffers() *buffers {
	return &buffers{lat: make([]int64, 0, 1<<19), deliv: make([]int64, 0, 1<<21)}
}

// trials runs the independent trials of one run, one after the other. A
// trial that does not end within its limit is abandoned — its goroutines are
// left blocked, its sample buffers are not reused — and counted as one
// failed operation, so that a deadlock in the system under test is reported
// with a goroutine dump and never hangs the run.
type trials struct {
	w     workload
	pl    plan
	trial func(trial int, pl plan, obsOff bool, buf *buffers, tr *tracer) (trialResult, error)
	limit time.Duration // generous: a trial on a disturbed machine, with a Replace that runs into its 5 s timeouts, still ends well inside it
	buf   *buffers
	hung  int
}

// maxHungTrials is how many abandoned trials a run survives.
const maxHungTrials = 2

func newTrials(w workload, seed uint64, pl plan) *trials {
	return &trials{
		w:  w,
		pl: pl,
		trial: func(trial int, pl plan, obsOff bool, buf *buffers, tr *tracer) (trialResult, error) {
			if w.fanin {
				return faninTrial(w, seed, trial, pl, buf, tr)
			}
			return pipelineTrial(w, pipelineConfig(w, obsOff), seed, trial, pl, buf, tr)
		},
		limit: 4*(pl.ping+pl.stream+pl.replace) + 20*time.Second,
		buf:   newBuffers(),
	}
}

// run runs trial number `trial` to completion — again from scratch if an
// attempt hangs — and collects the garbage it made. obsOff runs a pipeline
// workload with the observability switches off.
func (t *trials) run(trial int, obsOff bool, tr *tracer) (trialResult, error) {
	return t.attempt(trial, t.pl, obsOff, tr)
}

// setUp is a trial that ends with its first delivered message: one more
// sample of the set-up time, for a few milliseconds. No garbage collection
// is forced after it: a set-up that starts right behind a forced collection
// runs up to a quarter faster or slower depending on what the other CPU is
// doing meanwhile.
func (t *trials) setUp(trial int) (trialResult, error) {
	return t.attempt(trial, plan{}, false, nil)
}

func (t *trials) attempt(trial int, pl plan, obsOff bool, tr *tracer) (trialResult, error) {
	type outcome struct {
		res trialResult
		err error
	}
	for {
		done := make(chan outcome, 1)
		buf := t.buf
		go func() { //archlint:spawn one trial, so that the run can abandon it when it hangs; otherwise awaited on done right below
			res, err := t.trial(trial, pl, obsOff, buf, tr)
			done <- outcome{res, err}
		}()
		timer := time.NewTimer(t.limit)
		select {
		case o := <-done:
			timer.Stop()
			o.res.traced = tr != nil
			if pl.ping > 0 { // not after a set-up-only trial: README, "Noise rules"
				runtime.GC()
			}
			return o.res, o.err
		case <-timer.C:
		}
		t.hung++
		t.buf = newBuffers()
		fmt.Fprintf(os.Stderr, "bench: %s trial %d did not end within %v and is abandoned (%d so far). Goroutines:\n", t.w.name, trial, t.limit, t.hung)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2) // diagnostics for the defect report
		if t.hung > maxHungTrials {
			return trialResult{}, fmt.Errorf("bench: %d trials hung", t.hung)
		}
	}
}
