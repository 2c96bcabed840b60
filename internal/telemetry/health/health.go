// Package health turns windowed per-instance telemetry into structured
// verdicts. It reads the time-series roller's history — delivery counts,
// delivery-latency p99s, and module error counts attributed to one
// instance — and compares a candidate against an incumbent baseline with
// burn-rate-style thresholds: a verdict worsens only when both a short
// recent span and the longer evaluation span agree, so a single bad window
// neither pages nor rolls anything back.
//
// Besides error burn and latency blowout, one rule needs no samples at all:
// a stall — input queued at an instance that consumes none of it for
// ShortSpan windows while its peers are being delivered to.
//
// This is the paper's "operator observes the replacement" step made
// mechanical: the replica supervisor marks a member out on its Critical
// verdict (its one failure detector besides a member's exit report),
// ReplaceTx records the candidate-vs-incumbent comparison as a
// health_check span note, and /health/{instance} serves the same verdict
// with its evidence windows to a human. An instance's metrics are found by
// the labels they were registered with (telemetry.Labels), never by name.
package health

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/telemetry"
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
// deltas, the queue depth sampled at the window's end, and the worst
// delivery-latency p99, each summed (or, for p99, maxed) over the
// instance's receiving interfaces.
type Window struct {
	StartNs   int64 `json:"start_ns"`
	EndNs     int64 `json:"end_ns"`
	Delivered int64 `json:"delivered"`
	Errors    int64 `json:"errors"`
	Queued    int64 `json:"queued"`
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

// The verdict thresholds.
const (
	// Span is how many trailing windows the long-span rates cover;
	// ShortSpan is the recent burn span, and the span a stall must last.
	Span      = 8
	ShortSpan = 3
	// MinWindows is the minimum recorded windows before any non-Healthy
	// verdict. MinSamples is the minimum delivered+errors events across
	// the span for the error and latency rules; below it the verdict stays
	// Healthy with an "insufficient data" reason.
	MinWindows = 3
	MinSamples = 20
	// Error-rate thresholds. Degraded when the long-span rate crosses
	// DegradedErrorRate; Critical when the short span burns at
	// CriticalErrorRate while the long span confirms at DegradedErrorRate —
	// the two-window agreement is what makes it a burn-rate test rather
	// than a point alarm.
	DegradedErrorRate = 0.05
	CriticalErrorRate = 0.25
	// Latency thresholds, as multiples of the baseline p99. Skipped when
	// no baseline peer has latency history.
	DegradedLatencyFactor = 3.0
	CriticalLatencyFactor = 8.0
)

// Checker evaluates instances against a roller's windowed history.
type Checker struct {
	roller *timeseries.Roller
}

// NewChecker builds a checker over r.
func NewChecker(r *timeseries.Roller) *Checker {
	return &Checker{roller: r}
}

// Next returns a channel closed at the roller's next roll: a verdict reads
// only closed windows, so it can change only then.
func (c *Checker) Next() <-chan struct{} { return c.roller.Next() }

// InstanceWindows aggregates the last k windows of every metric registered
// as inst's into per-window totals, oldest first. Series are selected by
// their instance label, never by name (instance names may contain dots),
// and aligned by window end timestamp (every series shares the roller's
// window ring).
func InstanceWindows(r *timeseries.Roller, inst string, k int) []Window {
	agg := map[int64]*Window{}
	for _, s := range r.InstanceSeries(inst, k) {
		for _, p := range s.Points {
			w := agg[p.EndNs]
			if w == nil {
				w = &Window{StartNs: p.StartNs, EndNs: p.EndNs}
				agg[p.EndNs] = w
			}
			switch s.Labels.Family {
			case telemetry.FamilyDelivered:
				w.Delivered += p.Value
			case telemetry.FamilyQueueDepth:
				w.Queued += p.Value
			case telemetry.FamilyErrors:
				w.Errors += p.Value
			case telemetry.FamilyDeliveryLatency:
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
	slices.SortFunc(out, func(a, b Window) int { return cmp.Compare(a.EndNs, b.EndNs) })
	return out
}

// stall applies the stall rule to inst's windows and returns its reason, or
// "" when it does not hold. A member is stalled when, in every one of the
// last ShortSpan windows, input was queued at it and it consumed none: its
// queue grew by at least everything delivered to it (round-robin keeps
// delivering to a wedged member; least-queue stops). The window before the
// span is the reference, or an empty queue when the span starts at the
// instance's first window. The baseline peers must together have been
// delivered something in those same windows: a starved host starves the
// peers too, so with no peers, or idle ones, there is no stall verdict.
func stall(r *timeseries.Roller, wins []Window, peers []string) string {
	if len(peers) == 0 || len(wins) < ShortSpan {
		return ""
	}
	span := wins[len(wins)-ShortSpan:]
	var prev Window
	if len(wins) > ShortSpan {
		prev = wins[len(wins)-ShortSpan-1]
	}
	for _, w := range span {
		if w.Queued == 0 || w.Queued-prev.Queued < w.Delivered {
			return ""
		}
		prev = w
	}
	var peerDelivered int64
	for _, peer := range peers {
		for _, w := range InstanceWindows(r, peer, ShortSpan) {
			if w.EndNs >= span[0].EndNs {
				peerDelivered += w.Delivered
			}
		}
	}
	if peerDelivered == 0 {
		return ""
	}
	return fmt.Sprintf("stall: %d queued, none consumed over %d windows while peers were delivered %d",
		span[len(span)-1].Queued, ShortSpan, peerDelivered)
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
// returns a structured verdict with its evidence windows.
func (c *Checker) Check(inst string, baseline []string) Verdict {
	v := Verdict{Instance: inst, Baseline: baseline, Level: Healthy}
	wins := InstanceWindows(c.roller, inst, Span)
	v.Evidence = wins
	if len(wins) < MinWindows {
		v.Reasons = append(v.Reasons, fmt.Sprintf("insufficient data: %d windows < %d", len(wins), MinWindows))
		return v
	}
	// The stall rule needs no samples: a member wedged from birth has none.
	if reason := stall(c.roller, wins, baseline); reason != "" {
		v.Level = Critical
		v.Reasons = append(v.Reasons, reason)
		return v
	}

	var samples int64
	for _, w := range wins {
		samples += w.Delivered + w.Errors
	}
	if samples < MinSamples {
		v.Reasons = append(v.Reasons, fmt.Sprintf("insufficient data: %d samples < %d", samples, MinSamples))
		return v
	}

	short := wins
	if len(short) > ShortSpan {
		short = short[len(short)-ShortSpan:]
	}
	v.ErrorRate = errorRate(wins)
	v.ShortErrorRate = errorRate(short)

	// Error burn rate: short and long spans must agree before escalating.
	switch {
	case v.ShortErrorRate >= CriticalErrorRate && v.ErrorRate >= DegradedErrorRate:
		v.Level = Critical
		v.Reasons = append(v.Reasons, fmt.Sprintf("error burn: short rate %.3f >= %.2f with span rate %.3f >= %.2f",
			v.ShortErrorRate, CriticalErrorRate, v.ErrorRate, DegradedErrorRate))
	case v.ErrorRate >= DegradedErrorRate:
		v.Level = Degraded
		v.Reasons = append(v.Reasons, fmt.Sprintf("error rate %.3f >= %.2f over %d windows",
			v.ErrorRate, DegradedErrorRate, len(wins)))
	}

	// Latency vs incumbent baseline, only when both sides have history.
	base := baselineP99(c.roller, baseline, Span)
	v.BaselineP99Ns = base
	if base > 0 {
		sustained, n := worstSustainedP99(short)
		if n >= min(ShortSpan, 2) {
			switch {
			case float64(sustained) >= float64(base)*CriticalLatencyFactor:
				v.Level = Critical
				v.Reasons = append(v.Reasons, fmt.Sprintf("sustained p99 %dns >= %.0fx baseline %dns over %d windows",
					sustained, CriticalLatencyFactor, base, n))
			case float64(sustained) >= float64(base)*DegradedLatencyFactor:
				if v.Level < Degraded {
					v.Level = Degraded
				}
				v.Reasons = append(v.Reasons, fmt.Sprintf("sustained p99 %dns >= %.0fx baseline %dns over %d windows",
					sustained, DegradedLatencyFactor, base, n))
			}
		}
	}

	if v.Level == Healthy && len(v.Reasons) == 0 {
		v.Reasons = append(v.Reasons, fmt.Sprintf("error rate %.3f, %d samples over %d windows", v.ErrorRate, samples, len(wins)))
	}
	return v
}
