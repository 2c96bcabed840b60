package main

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// metricDef names one metric of BENCHMARK.json; bench_test.go checks that
// the file and these tables agree name for name.
type metricDef struct {
	name, unit, better string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_us_p1", "us", "lower"},
}

// perLayerMetrics is every metric a traced run prints. A layer the workload
// does not use reports 0 for all of its metrics.
var perLayerMetrics = []metricDef{
	// bus: routing + queue + attachment, on a bare bus
	{"bus.write_ns_p50", "ns", "lower"},
	{"bus.write_contended_ns_p50", "ns", "lower"},
	{"bus.sendbatch_ns_per_msg", "ns", "lower"},
	{"bus.read_ready_ns_p50", "ns", "lower"},
	{"bus.handoff_ns_p50", "ns", "lower"},
	{"bus.allocs_per_msg", "count", "lower"},
	{"bus.queue_depth_max", "count", "lower"},
	{"bus.dropped", "count", "lower"},
	{"bus.rebinds", "count", "higher"},
	{"bus.moved_msgs", "count", "lower"},
	// tcp: server + RemotePort over a byte-counting listener
	{"tcp.write_rtt_us_p50", "us", "lower"},
	{"tcp.read_ready_rtt_us_p50", "us", "lower"},
	{"tcp.sendbatch_us_per_msg", "us", "lower"},
	{"tcp.allocs_per_msg_single", "count", "lower"},
	{"tcp.allocs_per_msg_batch", "count", "lower"},
	{"tcp.bytes_per_msg_single", "count", "lower"},
	{"tcp.bytes_per_msg_batch", "count", "lower"},
	{"tcp.rpcs_per_msg", "count", "lower"},
	{"tcp.dial_us", "us", "lower"},
	// codec / state
	{"codec.encode_value_ns", "ns", "lower"},
	{"codec.decode_value_ns", "ns", "lower"},
	{"codec.encode_state_us", "us", "lower"},
	{"codec.decode_state_us", "us", "lower"},
	{"codec.state_bytes", "count", "lower"},
	// mh / interp: the stage on a stub port, native vs interpreted
	{"mh.ns_per_msg", "ns", "lower"},
	{"interp.ns_per_msg", "ns", "lower"},
	{"mh.flag_checks_per_msg", "count", "lower"},
	{"stage.allocs_per_msg", "count", "lower"},
	{"mh.capture_us_p50", "us", "lower"},
	{"mh.restore_us_p50", "us", "lower"},
	// mil / transform / set-up
	{"mil.parse_us", "us", "lower"},
	{"transform.prepare_us", "us", "lower"},
	{"setup.load_us", "us", "lower"},
	{"setup.launch_us", "us", "lower"},
	{"setup.first_msg_us", "us", "lower"},
	// reconfig: spans of each transaction, read back by TxID
	{"reconfig.plan_us_p50", "us", "lower"},
	{"reconfig.add_clone_us_p50", "us", "lower"},
	{"reconfig.quiesce_wait_us_p50", "us", "lower"},
	{"reconfig.state_move_us_p50", "us", "lower"},
	{"reconfig.rebind_us_p50", "us", "lower"},
	{"reconfig.launch_us_p50", "us", "lower"},
	{"reconfig.restore_wait_us_p50", "us", "lower"},
	{"reconfig.commit_tail_us_p50", "us", "lower"},
	{"reconfig.span_sum_vs_tx_pct", "%", "higher"},
	{"reconfig.rolled_back", "count", "lower"},
	// obs
	{"obs.off_throughput_msgs_per_s", "1/s", "higher"},
	{"obs.overhead_ns_per_msg", "ns", "lower"},
	{"obs.trace_spans_recorded", "count", "higher"},
	{"obs.record_retained", "count", "higher"},
	{"obs.windows_rolled", "count", "higher"},
	// e2e: what a user sees but two runs do not agree on; reported, never gated
	{"e2e.throughput_msgs_per_s", "1/s", "higher"},
	{"e2e.latency_us_p50", "us", "lower"},
	{"e2e.latency_us_p90", "us", "lower"},
	{"e2e.latency_us_p99", "us", "lower"},
	{"e2e.latency_samples", "count", "higher"},
	{"e2e.replace_tx_ms_p50", "ms", "lower"},
	{"e2e.replace_gap_ms_p50", "ms", "lower"},
	{"e2e.replace_tx_ms_p99", "ms", "lower"},
	{"e2e.replace_gap_ms_max", "ms", "lower"},
	{"e2e.replaces", "count", "higher"},
	{"e2e.lost_msgs", "count", "lower"},
	{"e2e.dup_msgs", "count", "lower"},
	{"e2e.misordered_msgs", "count", "lower"},
	{"e2e.trial_iqr_pct", "%", "lower"},
	{"budget.local_unaccounted_pct", "%", "lower"},
	{"budget.wire_unaccounted_pct", "%", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// reconfigSpans are the transaction spans reported one by one; the sum
// check covers every span the tracer recorded, these and any other.
var reconfigSpans = []string{"plan", "add_clone", "quiesce_wait", "state_move", "rebind", "launch", "restore_wait", "commit_tail"}

// obsOffTrials is the number of extra default-config trials observed_stream
// runs in a traced run to price the observability switches.
const obsOffTrials = 2

// runTraced is the --trace 1 run: the workload's trials alternate untraced
// and traced (their throughput ratio is the tracing overhead), every layer
// the workload uses is timed in isolation, and the spans are written out.
// End-to-end metrics are never taken from this run.
func runTraced(w workload, seed uint64, total time.Duration, trials int, outDir string) (result, error) {
	tr := &tracer{}
	extra := 0
	if w.observed {
		extra = obsOffTrials
	}
	// The isolated probes take about two trials' worth of time.
	ts := newTrials(w, seed, planFor(total/time.Duration(trials+extra+2), true))
	var plain, traced []trialResult
	for i := 0; i < trials; i++ {
		var t *tracer
		if i%2 == 1 || trials == 1 {
			t = tr
		}
		r, err := ts.run(i, false, t)
		if err != nil {
			return result{}, fmt.Errorf("bench: %s trial %d: %w", w.name, i, err)
		}
		logTrial(i, r)
		if t != nil {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	if len(plain) == 0 {
		plain = traced // a single-trial smoke run has no untraced side
	}
	m := isolatedLayers(w)

	// obs: the same pipeline with the switches off.
	var off []trialResult
	for i := 0; i < extra; i++ {
		r, err := ts.run(trials+i, true, nil)
		if err != nil {
			return result{}, fmt.Errorf("bench: %s obs-off trial %d: %w", w.name, i, err)
		}
		logTrial(trials+i, r)
		off = append(off, r)
	}
	if on, offT := median(column(plain, trialThroughput)), median(column(off, trialThroughput)); on > 0 && offT > 0 {
		m["obs.off_throughput_msgs_per_s"] = offT
		m["obs.overhead_ns_per_msg"] = 1e9/on - 1e9/offT
	}

	all := append(append(append([]trialResult{}, plain...), traced...), off...)
	fromTrials(w, m, plain, traced)
	path, err := tr.write(outDir, w.name)
	if err != nil {
		return result{}, fmt.Errorf("bench: write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "  %d spans written to %s\n", len(tr.spans), path)

	res := result{Metrics: map[string]metric{}}
	for _, d := range perLayerMetrics {
		res.Metrics[d.name] = metric{m[d.name], d.unit}
	}
	res.Attempted, res.Failed = counts(all, ts.hung)
	res.Correct = correct(all)
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %14.3f\n", name, m[name])
	}
	return res, nil
}

// fromTrials fills the metrics that come from the workload's own trials:
// set-up parts, reconfiguration spans, surface counters, the end-to-end
// diagnostics, the budgets and the tracing overhead.
func fromTrials(w workload, m map[string]float64, plain, traced []trialResult) {
	all := append(append([]trialResult{}, plain...), traced...)
	for _, part := range []string{"load", "launch", "first_msg"} {
		m["setup."+part+"_us"] = median(column(all, func(r trialResult) float64 { return r.setupParts[part] }))
	}

	// reconfig: every transaction of the traced trials.
	bySpan := map[string][]float64{}
	var sumVsTx []float64
	for _, r := range traced {
		for i, spans := range r.txSpans {
			var sum float64
			for name, us := range spans {
				bySpan[name] = append(bySpan[name], us)
				sum += us
			}
			if i < len(r.txMs) && r.txMs[i] > 0 {
				sumVsTx = append(sumVsTx, 100*(sum/(r.txMs[i]*1e3)-1))
			}
		}
		m["reconfig.rolled_back"] += float64(r.replaceFail)
		m["bus.dropped"] += float64(r.bus.dropped)
		m["bus.rebinds"] += float64(r.bus.rebinds)
		m["bus.moved_msgs"] += float64(r.bus.movedMsgs)
		m["bus.queue_depth_max"] = max(m["bus.queue_depth_max"], float64(r.bus.queueDepthMax))
	}
	for _, name := range reconfigSpans {
		m["reconfig."+name+"_us_p50"] = median(bySpan[name])
	}
	m["reconfig.span_sum_vs_tx_pct"] = median(sumVsTx)

	if !w.fanin {
		var capture, restore []float64
		for _, r := range traced {
			capture = append(capture, r.captureUs...)
			restore = append(restore, r.restoreUs...)
		}
		m["mh.flag_checks_per_msg"] = median(column(traced, func(r trialResult) float64 { return r.flagChecks }))
		m["mh.capture_us_p50"] = median(capture)
		m["mh.restore_us_p50"] = median(restore)
	}
	if w.wire {
		m["tcp.rpcs_per_msg"] = median(column(traced, func(r trialResult) float64 { return r.rpcsPerMsg }))
	}
	if w.observed {
		m["obs.trace_spans_recorded"] = median(column(traced, func(r trialResult) float64 { return float64(r.obs.traceSpans) }))
		m["obs.record_retained"] = median(column(traced, func(r trialResult) float64 { return float64(r.obs.recordRetained) }))
		m["obs.windows_rolled"] = median(column(traced, func(r trialResult) float64 { return float64(r.obs.windowsRolled) }))
	}

	// e2e, from the untraced trials.
	m["e2e.throughput_msgs_per_s"] = median(column(plain, trialThroughput))
	m["e2e.replace_tx_ms_p50"] = median(column(plain, trialTx))
	m["e2e.replace_gap_ms_p50"] = median(column(plain, trialGap))
	m["e2e.latency_us_p50"] = median(column(plain, trialLatP50))
	m["e2e.latency_us_p90"] = median(column(plain, func(r trialResult) float64 { return r.latP90Us }))
	m["e2e.latency_us_p99"] = median(column(plain, func(r trialResult) float64 { return r.latP99Us }))
	m["e2e.latency_samples"] = median(column(plain, func(r trialResult) float64 { return float64(r.latSamples) }))
	var txMs, gapMs []float64
	for _, r := range all {
		txMs = append(txMs, r.txMs...)
		gapMs = append(gapMs, r.gapMs...)
		m["e2e.replaces"] += float64(r.replaces)
		m["e2e.lost_msgs"] += float64(r.lost + r.replaceLost)
		m["e2e.dup_msgs"] += float64(r.dup)
		m["e2e.misordered_msgs"] += float64(r.misordered)
	}
	m["e2e.replace_tx_ms_p99"] = quantile(txMs, 0.99)
	m["e2e.replace_gap_ms_max"] = maxOf(gapMs)
	for _, stat := range []func(trialResult) float64{trialSetup, trialLatency, trialThroughput, trialLatP50, trialTx, trialGap} {
		m["e2e.trial_iqr_pct"] = max(m["e2e.trial_iqr_pct"], iqrPct(column(plain, stat)))
	}

	// Budgets: what share of the typical (p50) ping latency the isolated
	// layers do not explain. The isolated numbers are medians too, so the
	// comparison is against the ping p50, not the gated floor. On the wire
	// the one-way path holds the request leg of the write RPC and the
	// response leg of the read RPC: half of each round trip.
	if ping := 1e3 * m["e2e.latency_us_p50"]; ping > 0 { // ns
		stage := m["mh.ns_per_msg"] + m["interp.ns_per_msg"] + m["obs.overhead_ns_per_msg"]
		switch {
		case w.fanin:
			m["budget.local_unaccounted_pct"] = 100 * (ping - m["bus.handoff_ns_p50"]) / ping
		case w.wire:
			legs := 1e3 * (m["tcp.write_rtt_us_p50"] + m["tcp.read_ready_rtt_us_p50"]) / 2
			m["budget.wire_unaccounted_pct"] = 100 * (ping - legs - 2*m["bus.handoff_ns_p50"] - stage) / ping
		default:
			m["budget.local_unaccounted_pct"] = 100 * (ping - 2*m["bus.handoff_ns_p50"] - stage) / ping
		}
	}
	if un, tc := m["e2e.throughput_msgs_per_s"], median(column(traced, trialThroughput)); un > 0 {
		m["trace.overhead_pct"] = 100 * (1 - tc/un)
	}
}
