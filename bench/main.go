// Command bench is the repository's benchmark: five closed-loop workloads
// driven through the public API only, end-to-end metrics as order statistics
// across independent trials, and (with --trace 1) an outside-in per-layer
// budget.
// See README.md in this directory and BENCHMARK.json at the repository root.
//
//	bash bench/run.sh --workload wire_stream --seed 7 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// An untraced run is trialsPerRun independent trials and a traced run
// tracedTrialsPerRun, half of them traced. Single trials of unchanged code
// differ by ±10–20 % on a quiet 2-core box and by a factor of two on a busy
// host; an order statistic across sixteen keeps the disturbed ones out of the
// result.
const (
	trialsPerRun       = 16
	tracedTrialsPerRun = 10
	setUpsPerTrial     = 8 // set-up-only trials before each trial of an untraced run: 144 set-ups per run
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object the harness prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed    = flag.Uint64("seed", 1, "seed of the payload values and the Replace schedule")
		seconds = flag.Float64("seconds", 20, "measuring time of the whole run, split over the trials")
		trace   = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes the span file")
		outDir  = flag.String("out", "out", "directory for the span file")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be positive")
		os.Exit(2)
	}
	total := time.Duration(*seconds * float64(time.Second))
	trials := trialsPerRun
	if *trace == 1 {
		trials = tracedTrialsPerRun
	}
	res, err := run(w, *seed, total, trials, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one run of a workload and returns the result line. Progress
// and the human-readable table go to standard error.
func run(w workload, seed uint64, total time.Duration, trials int, traced bool, outDir string) (result, error) {
	fmt.Fprintf(os.Stderr, "bench: workload=%s seed=%d seconds=%.1f trials=%d trace=%v GOMAXPROCS=%d %s %s/%s; load: one process, closed loop%s\n",
		w.name, seed, total.Seconds(), trials, traced, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		map[bool]string{true: "; TCP is loopback, same process", false: ""}[w.wire])
	if traced {
		return runTraced(w, seed, total, trials, outDir)
	}
	ts := newTrials(w, seed, planFor(total/time.Duration(trials), false))
	var rs, setUps []trialResult
	for i := 0; i < trials; i++ {
		for k := 0; k < setUpsPerTrial; k++ {
			r, err := ts.setUp(i)
			if err != nil {
				return result{}, fmt.Errorf("bench: %s set-up before trial %d: %w", w.name, i, err)
			}
			setUps = append(setUps, r)
		}
		r, err := ts.run(i, false, nil)
		if err != nil {
			return result{}, fmt.Errorf("bench: %s trial %d: %w", w.name, i, err)
		}
		rs = append(rs, r)
		logTrial(i, r)
	}
	return endToEnd(rs, setUps, ts.hung), nil
}

func logTrial(i int, r trialResult) {
	fmt.Fprintf(os.Stderr, "  trial %2d%s: setup %.2f ms  ping p1 %.3f p50 %.2f µs (n=%d)  stream %.0f msg/s  sent %d failed %d (lost %d dup %d misordered %d wrong %d count %d replace %d)",
		i, map[bool]string{true: " [traced]", false: ""}[r.traced], r.setupS*1e3, r.latP1Us, r.latP50Us, r.latSamples, r.throughput, r.sent, r.failed(), r.lost, r.dup, r.misordered, r.wrong, r.countBreaks, r.replaceFail)
	if r.replaces > 0 {
		fmt.Fprintf(os.Stderr, "  replaces %d tx p50 %.3f ms gap p50 %.3f ms, %d of %d messages lost", r.replaces, median(r.txMs), median(r.gapMs), r.replaceLost, r.replaceSent)
	}
	fmt.Fprintln(os.Stderr)
}

// column extracts one per-trial statistic from every trial.
func column(rs []trialResult, f func(trialResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// The per-trial statistics a run reduces across its trials: the two gated
// end-to-end metrics, and the four that are reported under e2e.* in the
// per-layer section because two runs of the same code do not agree on them
// (README, "Noise rules").
func trialSetup(r trialResult) float64      { return r.setupS }
func trialLatency(r trialResult) float64    { return r.latP1Us }
func trialThroughput(r trialResult) float64 { return r.throughput }
func trialLatP50(r trialResult) float64     { return r.latP50Us }
func trialTx(r trialResult) float64         { return median(r.txMs) }
func trialGap(r trialResult) float64        { return median(r.gapMs) }

// floorQuantile is the order statistic across trials that a run reports for
// the latency floor. Interference from the host only ever adds to a trial's
// floor, so the lower quartile of sixteen trials is the undisturbed value as
// long as five trials were left alone; their median needs nine.
const floorQuantile = 0.25

// endToEnd reduces an untraced run to the result line: the set-up time is
// the fastest of every set-up the run made (its trials' and the set-up-only
// ones between them), the latency floor the lower quartile across trials of
// the per-trial 1st percentile. Both are floors, because on a shared host
// only floors repeat: set-ups come in a fast and a slow mode whose mix moves
// the median and the lower quantiles by 15-35 % between two halves of an
// hour, the fastest by under 10 % (README, "Noise rules"). The ungated
// statistics of the same trials go to standard error only.
func endToEnd(rs, setUps []trialResult, hung int) result {
	all := append(append([]trialResult{}, rs...), setUps...)
	res := result{Metrics: map[string]metric{
		"setup_s":       {quantile(column(all, trialSetup), 0), "s"},
		"latency_us_p1": {quantile(column(rs, trialLatency), floorQuantile), "us"},
	}}
	res.Attempted, res.Failed = counts(all, hung)
	res.Correct = correct(all)
	for _, d := range endToEndMetrics {
		fmt.Fprintf(os.Stderr, "  %-24s %14.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	su, fl := column(all, trialSetup), column(rs, trialLatency)
	fmt.Fprintf(os.Stderr, "  across %d set-ups: min %.4f q10 %.4f q25 %.4f median %.4f q75 %.4f ms; across %d floors: min %.4f q25 %.4f median %.4f max %.4f us\n",
		len(su), 1e3*quantile(su, 0), 1e3*quantile(su, 0.1), 1e3*quantile(su, 0.25), 1e3*median(su), 1e3*quantile(su, 0.75),
		len(fl), quantile(fl, 0), quantile(fl, 0.25), median(fl), quantile(fl, 1))
	fmt.Fprintf(os.Stderr, "  not gated: throughput %.0f msg/s  latency p50 %.3f us\n",
		median(column(rs, trialThroughput)), median(column(rs, trialLatP50)))
	return res
}

// correct reports whether everything the system delivered was right: no
// wrong-valued, duplicated or misordered message, the stage's state carried
// across every Replace, and every Replace committed. A lost message is a
// failed operation, counted in `failed`, not a wrong output.
func correct(rs []trialResult) bool {
	for _, r := range rs {
		if r.dup+r.misordered+r.wrong+r.countBreaks+int64(r.replaceFail) > 0 {
			return false
		}
	}
	return true
}

// counts adds up the operations of the completed trials; every abandoned
// trial is one more operation, failed.
func counts(rs []trialResult, hung int) (attempted, failed int64) {
	attempted, failed = int64(hung), int64(hung)
	for _, r := range rs {
		attempted += r.attempted()
		failed += r.failed()
	}
	return attempted, failed
}
