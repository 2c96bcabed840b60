package main

import (
	"fmt"
	"net"
	"strings"
	"time"

	reconf "repro"
	"repro/internal/bus"
	"repro/internal/codec"
	"repro/internal/reconfig"
	"repro/internal/state"
)

// seqShift packs a message's identity into the one integer the source
// sends: x = seq<<seqShift | r, r being seqShift seed-derived bits. The
// stage returns 3x+1, from which the sink recovers and checks both.
const seqShift = 20

func pipelineValue(seed uint64, seq int64) int64 {
	return seq<<seqShift | int64(splitmix64(seed^uint64(seq))&(1<<seqShift-1))
}

// pipeLink drives the pipeline through the two driver ports: it writes
// encoded integers on source.out and reads (3x+1, count) tuples on sink.in.
type pipeLink struct {
	l         *loop
	src, dst  bus.Port
	codec     codec.Codec
	seed      uint64
	batch     [][]byte
	lastCount int64
}

func (k *pipeLink) encode(seq int64) ([]byte, error) {
	return k.codec.EncodeValue(state.IntValue(pipelineValue(k.seed, seq)))
}

func (k *pipeLink) send(p int, first int64, n int, stamp bool) error {
	l := k.l
	if n == 1 {
		data, err := k.encode(first)
		if err != nil {
			return err
		}
		if l.tr == nil {
			if stamp {
				l.prods[p].sendNs[first%sendRing].Store(l.now())
			}
			return k.src.Write("out", data)
		}
		t0 := l.now()
		if stamp {
			l.prods[p].sendNs[first%sendRing].Store(t0)
		}
		err = k.src.Write("out", data)
		if first%msgSpanEvery == 0 {
			l.tr.add("source.write", t0, l.now(), int(l.phaseSpan.Load()), l.trial, first)
		}
		return err
	}
	k.batch = k.batch[:0]
	for i := 0; i < n; i++ {
		data, err := k.encode(first + int64(i))
		if err != nil {
			return err
		}
		k.batch = append(k.batch, data)
	}
	if l.tr == nil {
		return k.src.SendBatch("out", k.batch)
	}
	t0 := l.now()
	err := k.src.SendBatch("out", k.batch)
	if (first/int64(n))%(msgSpanEvery/4) == 0 {
		l.tr.add("source.sendbatch", t0, l.now(), int(l.phaseSpan.Load()), l.trial, first)
	}
	return err
}

func (k *pipeLink) recv() (delivery, error) {
	l := k.l
	var t0 int64
	if l.tr != nil {
		t0 = l.now()
	}
	m, err := k.dst.Read("in")
	if err != nil {
		return delivery{}, err
	}
	d := delivery{at: l.stamp()}
	v, err := k.codec.DecodeValue(m.Data)
	if err != nil || v.Kind != state.KindList || len(v.List) != 2 ||
		v.List[0].Kind != state.KindInt || v.List[1].Kind != state.KindInt {
		return d, nil
	}
	y, count := v.List[0].Int, v.List[1].Int
	if (y-1)%3 != 0 {
		return d, nil
	}
	d.seq = (y - 1) / 3 >> seqShift
	d.valueOK = (y-1)/3 == pipelineValue(k.seed, d.seq)
	d.countOK = count == k.lastCount+1
	k.lastCount = count
	if l.tr != nil && d.seq%msgSpanEvery == 0 {
		l.tr.add("sink.read", t0, l.now(), int(l.phaseSpan.Load()), l.trial, d.seq)
	}
	return d, nil
}

// pipelineConfig is the reconf.Config of a pipeline workload. The observed
// workload switches on everything an operator can: every message's trace
// sampled into the flight recorder, the record ring, 100ms rollups (the
// event log is always on).
func pipelineConfig(w workload, obsOff bool) reconf.Config {
	cfg := reconf.Config{
		SpecText: pipelineSpec,
		Sources:  map[string]reconf.ModuleSource{"stage": {Files: map[string]string{"stage.go": w.stageSource()}}},
		// source and sink are driven by the harness through AttachDriver;
		// they are declared native so Load accepts them, and never launched.
		Native:   map[string]reconf.NativeModule{"source": nil, "sink": nil},
		Timeouts: reconfig.Timeouts{StateMove: 5 * time.Second, RestoreAck: 5 * time.Second, Rollback: 5 * time.Second, Quiesce: 5 * time.Second},
	}
	if w.observed && !obsOff {
		cfg.TraceSample = 1
		cfg.RecordBuffer = 4096
		cfg.TimeseriesWindow = 100 * time.Millisecond
	}
	return cfg
}

// pipelineTrial is one trial of a pipeline workload under the given config:
// fresh App, set-up, ping, stream, replace, teardown.
func pipelineTrial(w workload, cfg reconf.Config, seed uint64, trial int, pl plan, buf *buffers, tr *tracer) (res trialResult, err error) {
	l := newLoop(1, buf.lat, buf.deliv, tr, trial)
	res.setupParts = map[string]float64{}

	// ---- set-up: MIL parse + transform + Load, launch, attach or dial ----
	app, err := reconf.Load(cfg)
	if err != nil {
		return res, fmt.Errorf("bench: load: %w", err)
	}
	// Teardown order matters: disconnect the drivers, stop the App (which
	// deletes every instance and so unblocks an in-process sink), then wait
	// for the sink reader to have exited.
	var closers []func()
	sinkStarted := false
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
		app.Stop()
		if sinkStarted {
			<-l.sinkDone
		}
	}()
	if cfg.TimeseriesWindow > 0 {
		app.Timeseries().Start()
	}
	t := res.mark(l, "load", 0)
	if err := app.Launch("stage"); err != nil {
		return res, fmt.Errorf("bench: launch: %w", err)
	}
	t = res.mark(l, "launch", t)
	link := &pipeLink{l: l, codec: codec.Default(), seed: seed}
	if w.wire {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return res, fmt.Errorf("bench: listen: %w", err)
		}
		srv := bus.NewServer(app.Bus(), ln)
		closers = append(closers, func() { srv.Close() })
		src, err := bus.DialPort(srv.Addr().String(), "source")
		if err != nil {
			return res, fmt.Errorf("bench: dial source: %w", err)
		}
		closers = append(closers, func() { src.Close() })
		dst, err := bus.DialPort(srv.Addr().String(), "sink")
		if err != nil {
			return res, fmt.Errorf("bench: dial sink: %w", err)
		}
		closers = append(closers, func() { dst.Close() })
		link.src, link.dst = src, dst
	} else {
		if link.src, err = app.AttachDriver("source"); err != nil {
			return res, fmt.Errorf("bench: attach source: %w", err)
		}
		if link.dst, err = app.AttachDriver("sink"); err != nil {
			return res, fmt.Errorf("bench: attach sink: %w", err)
		}
	}
	l.link = link
	t = res.mark(l, "attach", t)
	sinkStarted = true
	go l.sink() //archlint:spawn the trial's single sink reader; exits when teardown deletes or disconnects the sink port, awaited on sinkDone

	// The Replace of a pipeline: the stage Moved to alternating machines
	// under fresh names.
	cur := "stage"
	err = res.measure(l, w, 1, pl, seed, t, app.Bus(), func(k int) txSample {
		next := fmt.Sprintf("stage_%d", k+1)
		opts := reconfig.ReplaceOptions{NewName: next, Machine: "machineB"}
		if k%2 == 1 {
			opts.Machine = "machineA"
		}
		tx := txSample{startNs: l.now()}
		txr, err := app.ReplaceTx(cur, opts)
		tx.endNs = l.now()
		tx.failed = err != nil
		if txr != nil && txr.Committed {
			cur = next
		}
		if tr != nil && txr != nil {
			tx.spans = readTxSpans(app, txr.TxID, tr, l, tx, k)
		}
		return tx
	})
	if err == nil && tr != nil {
		res.readSurfaces(app, l.received.Load())
	}
	return res, err
}

// readTxSpans reads one transaction's span timeline back from the
// reconfiguration tracer by TxID, copies it into the harness trace under
// the harness's own span around ReplaceTx, and returns the durations in µs.
func readTxSpans(app *reconf.App, txid string, tr *tracer, l *loop, tx txSample, k int) map[string]float64 {
	parent := tr.add("replace.tx", tx.startNs, tx.endNs, int(l.phaseSpan.Load()), l.trial, int64(k))
	trace, ok := app.Primitives().Tracer().Get(txid)
	if !ok {
		return nil
	}
	spans := map[string]float64{}
	for _, s := range trace.Spans {
		spans[s.Name] += float64(s.Duration()) / 1e3
		tr.add("reconfig."+s.Name, int64(s.Start.Sub(l.base)), int64(s.End.Sub(l.base)), parent, l.trial, int64(k))
	}
	return spans
}

// readSurfaces reads, after a traced trial, the counters the shipped
// surfaces expose: per-instance mh counters and histograms, RPC counters,
// the flight recorder, the record ring and the timeseries roller.
func (r *trialResult) readSurfaces(app *reconf.App, delivered int64) {
	snap := app.Telemetry().Snapshot()
	var flags int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "mh.") && strings.HasSuffix(name, ".flag_checks") {
			flags += v
		}
	}
	if delivered > 0 {
		r.flagChecks = float64(flags) / float64(delivered)
		r.rpcsPerMsg = float64(sumPrefix(snap.Counters, "bus.rpc.")) / float64(delivered)
	}
	for name, h := range snap.Histograms {
		if !strings.HasPrefix(name, "mh.") || h.Count == 0 {
			continue
		}
		switch {
		case strings.HasSuffix(name, ".capture_ns"):
			r.captureUs = append(r.captureUs, float64(h.SumNs)/float64(h.Count)/1e3)
		case strings.HasSuffix(name, ".restore_ns"):
			r.restoreUs = append(r.restoreUs, float64(h.SumNs)/float64(h.Count)/1e3)
		}
	}
	if rec := app.FlightRecorder(); rec != nil {
		r.obs.traceSpans = rec.Recorded()
	}
	if log := app.Bus().Recorder(); log != nil {
		r.obs.recordRetained = int64(log.Len())
	}
	r.obs.windowsRolled = int64(app.Timeseries().Rolled())
}
