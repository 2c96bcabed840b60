// Package health turns windowed per-instance telemetry into structured
// verdicts. It reads the time-series roller's history — delivery counts,
// delivery-latency p99s, and module error counts attributed to one
// instance — and compares a candidate against an incumbent baseline with
// burn-rate-style thresholds: a verdict worsens only when both a short
// recent span and the longer evaluation span agree, so a single bad window
// neither pages nor rolls anything back.
//
// This is the paper's "operator observes the replacement" step made
// mechanical: the supervisor consumes Critical verdicts as a second
// stall/crash signal, ReplaceTx records the candidate-vs-incumbent
// comparison as a health_check span note, and /health/{instance} serves
// the same verdict with its evidence windows to a human.
package health

import (
	"fmt"
	"strings"

	"repro/internal/telemetry/timeseries"
)

// Level is the verdict severity.
type Level int

// Verdict levels, from best to worst.
const (
	Healthy Level = iota
	Degraded
	Critical
)

// String returns the lowercase level name.
func (l Level) String() string {
	switch l {
	case Degraded:
		return "degraded"
	case Critical:
		return "critical"
	default:
		return "healthy"
	}
}

// MarshalJSON renders the level as its string name.
func (l Level) MarshalJSON() ([]byte, error) {
	return []byte(`"` + l.String() + `"`), nil
}

// Window is one evaluation window of one instance: delivery and error
// deltas plus the worst delivery-latency p99 across the instance's
// receiving interfaces.
type Window struct {
	StartNs   int64 `json:"start_ns"`
	EndNs     int64 `json:"end_ns"`
	Delivered int64 `json:"delivered"`
	Errors    int64 `json:"errors"`
	P99Ns     int64 `json:"p99_ns,omitempty"`
	LatObs    int64 `json:"latency_observations,omitempty"`
}

// Verdict is the structured health judgment for one instance.
type Verdict struct {
	Instance string   `json:"instance"`
	Baseline []string `json:"baseline,omitempty"`
	Level    Level    `json:"level"`
	Reasons  []string `json:"reasons,omitempty"`
	// Evidence holds the windows the judgment was made on, oldest first.
	Evidence []Window `json:"evidence,omitempty"`
	// BaselineP99Ns is the incumbent latency reference (0 if none).
	BaselineP99Ns int64 `json:"baseline_p99_ns,omitempty"`
	// ErrorRate and ShortErrorRate are the long- and short-span rates.
	ErrorRate      float64 `json:"error_rate"`
	ShortErrorRate float64 `json:"short_error_rate"`
}

// Summary renders the verdict as one line for span notes and CLI output.
func (v Verdict) Summary() string {
	s := fmt.Sprintf("%s %s err_rate=%.3f short=%.3f windows=%d",
		v.Instance, v.Level, v.ErrorRate, v.ShortErrorRate, len(v.Evidence))
	if len(v.Reasons) > 0 {
		s += " (" + strings.Join(v.Reasons, "; ") + ")"
	}
	return s
}

// Config sets the verdict thresholds. Zero values take the documented
// defaults.
type Config struct {
	// Span is how many trailing windows the long-span rates cover
	// (default 8); ShortSpan is the recent burn span (default 3).
	Span      int
	ShortSpan int
	// MinWindows is the minimum recorded windows before any non-Healthy
	// verdict (default 3). MinSamples is the minimum delivered+errors
	// events across the span (default 20); below it the verdict stays
	// Healthy with an "insufficient data" reason.
	MinWindows int
	MinSamples int
	// Error-rate thresholds. Degraded when the long-span rate crosses
	// DegradedErrorRate (default 0.05); Critical when the short span burns
	// at CriticalErrorRate (default 0.25) while the long span confirms at
	// DegradedErrorRate — the two-window agreement is what makes it a
	// burn-rate test rather than a point alarm.
	DegradedErrorRate float64
	CriticalErrorRate float64
	// Latency thresholds, as multiples of the baseline p99 (defaults 3x
	// Degraded, 8x Critical). Skipped when no baseline peer has latency
	// history.
	DegradedLatencyFactor float64
	CriticalLatencyFactor float64
}

func (c Config) withDefaults() Config {
	if c.Span <= 0 {
		c.Span = 8
	}
	if c.ShortSpan <= 0 {
		c.ShortSpan = 3
	}
	if c.ShortSpan > c.Span {
		c.ShortSpan = c.Span
	}
	if c.MinWindows <= 0 {
		c.MinWindows = 3
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 20
	}
	if c.DegradedErrorRate <= 0 {
		c.DegradedErrorRate = 0.05
	}
	if c.CriticalErrorRate <= 0 {
		c.CriticalErrorRate = 0.25
	}
	if c.DegradedLatencyFactor <= 0 {
		c.DegradedLatencyFactor = 3
	}
	if c.CriticalLatencyFactor <= 0 {
		c.CriticalLatencyFactor = 8
	}
	return c
}

// Checker evaluates instances against a roller's windowed history.
type Checker struct {
	roller *timeseries.Roller
	cfg    Config
}

// NewChecker builds a checker over r. Safe to call with a nil roller: the
// checker then always returns Healthy "no history" verdicts.
func NewChecker(r *timeseries.Roller, cfg Config) *Checker {
	return &Checker{roller: r, cfg: cfg.withDefaults()}
}

// metricClass classifies a registry metric name as belonging to instance
// inst. Instance names may contain dots ("pool.1"), so bus metrics are
// matched by peeling the dotless interface and metric segments off the
// right-hand side.
type metricClass int

const (
	classNone metricClass = iota
	classDelivered
	classLatency
	classErrors
)

func classify(name, inst string) metricClass {
	if name == "mh."+inst+".errors" {
		return classErrors
	}
	const busPrefix = "bus.iface."
	if !strings.HasPrefix(name, busPrefix) {
		return classNone
	}
	rest := strings.TrimPrefix(name, busPrefix)
	var class metricClass
	switch {
	case strings.HasSuffix(rest, ".delivered"):
		rest = strings.TrimSuffix(rest, ".delivered")
		class = classDelivered
	case strings.HasSuffix(rest, ".delivery_latency_ns"):
		rest = strings.TrimSuffix(rest, ".delivery_latency_ns")
		class = classLatency
	default:
		return classNone
	}
	// rest is now "<inst>.<iface>" with a dotless iface segment.
	i := strings.LastIndexByte(rest, '.')
	if i <= 0 || rest[:i] != inst {
		return classNone
	}
	return class
}

// InstanceWindows aggregates the last k windows of every metric attributed
// to inst into per-window totals, oldest first. Series are aligned by
// window end timestamp (every series shares the roller's window ring).
func InstanceWindows(r *timeseries.Roller, inst string, k int) []Window {
	if r == nil {
		return nil
	}
	agg := map[int64]*Window{}
	get := func(p timeseries.Point) *Window {
		w := agg[p.EndNs]
		if w == nil {
			w = &Window{StartNs: p.StartNs, EndNs: p.EndNs}
			agg[p.EndNs] = w
		}
		return w
	}
	for _, name := range r.Names() {
		class := classify(name, inst)
		if class == classNone {
			continue
		}
		s, ok := r.Query(name, k)
		if !ok {
			continue
		}
		for _, p := range s.Points {
			w := get(p)
			switch class {
			case classDelivered:
				w.Delivered += p.Value
			case classErrors:
				w.Errors += p.Value
			case classLatency:
				if p.Hist != nil {
					w.LatObs += p.Hist.Count
					if p.Hist.P99Ns > w.P99Ns {
						w.P99Ns = p.Hist.P99Ns
					}
				}
			}
		}
	}
	out := make([]Window, 0, len(agg))
	for _, w := range agg {
		out = append(out, *w)
	}
	sortWindows(out)
	return out
}

func sortWindows(ws []Window) {
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].EndNs < ws[j-1].EndNs; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
}

func errorRate(ws []Window) float64 {
	var errs, ops int64
	for _, w := range ws {
		errs += w.Errors
		ops += w.Delivered
	}
	if ops < errs {
		// Errors without matching deliveries (a module erroring before any
		// traffic counts) still saturate the rate at 1.
		ops = errs
	}
	if ops == 0 {
		return 0
	}
	return float64(errs) / float64(ops)
}

// worstSustainedP99 returns the smallest p99 among trailing windows that
// have latency observations — i.e. the level the instance never dropped
// below — and how many such windows there were. Using the minimum makes
// the latency test a sustained one: a single slow window cannot cross it.
func worstSustainedP99(ws []Window) (int64, int) {
	var minP99 int64
	n := 0
	for _, w := range ws {
		if w.LatObs == 0 {
			continue
		}
		if n == 0 || w.P99Ns < minP99 {
			minP99 = w.P99Ns
		}
		n++
	}
	return minP99, n
}

// baselineP99 pools the peers' windows and returns the highest per-window
// p99 any peer exhibited — the most latitude the incumbents themselves
// needed — as the latency reference.
func baselineP99(r *timeseries.Roller, peers []string, k int) int64 {
	var base int64
	for _, peer := range peers {
		for _, w := range InstanceWindows(r, peer, k) {
			if w.LatObs > 0 && w.P99Ns > base {
				base = w.P99Ns
			}
		}
	}
	return base
}

// Check evaluates inst against the pooled baseline peers (typically the
// incumbent replicas of its group, or the instance it is replacing) and
// returns a structured verdict with its evidence windows. Safe on a nil
// checker or roller.
func (c *Checker) Check(inst string, baseline []string) Verdict {
	v := Verdict{Instance: inst, Baseline: baseline, Level: Healthy}
	if c == nil || c.roller == nil {
		v.Reasons = append(v.Reasons, "no windowed history (roller disabled)")
		return v
	}
	cfg := c.cfg
	wins := InstanceWindows(c.roller, inst, cfg.Span)
	v.Evidence = wins
	if len(wins) < cfg.MinWindows {
		v.Reasons = append(v.Reasons, fmt.Sprintf("insufficient data: %d windows < %d", len(wins), cfg.MinWindows))
		return v
	}

	var samples int64
	for _, w := range wins {
		samples += w.Delivered + w.Errors
	}
	if samples < int64(cfg.MinSamples) {
		v.Reasons = append(v.Reasons, fmt.Sprintf("insufficient data: %d samples < %d", samples, cfg.MinSamples))
		return v
	}

	short := wins
	if len(short) > cfg.ShortSpan {
		short = short[len(short)-cfg.ShortSpan:]
	}
	v.ErrorRate = errorRate(wins)
	v.ShortErrorRate = errorRate(short)

	// Error burn rate: short and long spans must agree before escalating.
	switch {
	case v.ShortErrorRate >= cfg.CriticalErrorRate && v.ErrorRate >= cfg.DegradedErrorRate:
		v.Level = Critical
		v.Reasons = append(v.Reasons, fmt.Sprintf("error burn: short rate %.3f >= %.2f with span rate %.3f >= %.2f",
			v.ShortErrorRate, cfg.CriticalErrorRate, v.ErrorRate, cfg.DegradedErrorRate))
	case v.ErrorRate >= cfg.DegradedErrorRate:
		v.Level = Degraded
		v.Reasons = append(v.Reasons, fmt.Sprintf("error rate %.3f >= %.2f over %d windows",
			v.ErrorRate, cfg.DegradedErrorRate, len(wins)))
	}

	// Latency vs incumbent baseline, only when both sides have history.
	base := baselineP99(c.roller, baseline, cfg.Span)
	v.BaselineP99Ns = base
	if base > 0 {
		sustained, n := worstSustainedP99(short)
		if n >= min(cfg.ShortSpan, 2) {
			switch {
			case float64(sustained) >= float64(base)*cfg.CriticalLatencyFactor:
				v.Level = Critical
				v.Reasons = append(v.Reasons, fmt.Sprintf("sustained p99 %dns >= %.0fx baseline %dns over %d windows",
					sustained, cfg.CriticalLatencyFactor, base, n))
			case float64(sustained) >= float64(base)*cfg.DegradedLatencyFactor:
				if v.Level < Degraded {
					v.Level = Degraded
				}
				v.Reasons = append(v.Reasons, fmt.Sprintf("sustained p99 %dns >= %.0fx baseline %dns over %d windows",
					sustained, cfg.DegradedLatencyFactor, base, n))
			}
		}
	}

	if v.Level == Healthy && len(v.Reasons) == 0 {
		v.Reasons = append(v.Reasons, fmt.Sprintf("error rate %.3f, %d samples over %d windows", v.ErrorRate, samples, len(wins)))
	}
	return v
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
