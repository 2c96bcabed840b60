package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Label is one Prometheus label pair. Values are escaped at render time,
// so callers pass raw strings (instance names may contain quotes or
// backslashes; they come from user spec files).
type Label struct {
	Name  string
	Value string
}

// LabelRule maps a flat dotted registry name onto a labeled metric family.
// A rule returns the family name (already in the Prometheus charset) and
// the label set, or an empty family to decline. The first matching rule
// wins; unmatched metrics render flat under their sanitized dotted name as
// before. Rules must keep one metric kind per family.
type LabelRule func(name string) (family string, labels []Label)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one `# TYPE` line per metric, counters and gauges
// as single samples, histograms as cumulative `_bucket{le="..."}` series
// plus `_sum` and `_count`. Dotted metric names are sanitized to the
// Prometheus charset (dots and other invalid runes become underscores).
// Metrics matched by a LabelRule render as labeled series grouped per
// family (after the flat metrics), which is what gives per-instance
// attribution in a scrape: bus_iface_delivered{instance="...",...}.
//
// The power-of-two buckets expose exactly: bucket index i holds integer
// nanosecond values 2^(i-1) <= v < 2^i (index 0 holds v <= 0), so the
// inclusive upper bound of bucket i is 2^i - 1 and the rendered le labels
// are 0, 1, 3, 7, 15, ... — cumulative counts are exact, not approximated.
func WritePrometheus(w io.Writer, r *Registry, rules ...LabelRule) {
	// Computed gauges are evaluated outside the registry lock (they may
	// take the bus's queue locks).
	h := r.Handles()
	counters, hists := h.Counters, h.Histograms
	gvals := make(map[string]int64, len(h.GaugeFns))
	for k, fn := range h.GaugeFns {
		gvals[k] = fn()
	}

	match := func(name string) (string, string) {
		for _, rule := range rules {
			if family, labels := rule(name); family != "" {
				return family, renderLabels(labels)
			}
		}
		return "", ""
	}

	// family -> sorted labeled samples, accumulated while the flat metrics
	// render, then emitted per family after them.
	type sample struct {
		labels string
		value  int64
		hist   *Histogram
	}
	families := map[string]*struct {
		kind    string
		samples []sample
	}{}
	add := func(family, kind, labels string, v int64, h *Histogram) {
		f := families[family]
		if f == nil {
			f = &struct {
				kind    string
				samples []sample
			}{kind: kind}
			families[family] = f
		}
		f.samples = append(f.samples, sample{labels: labels, value: v, hist: h})
	}

	for _, name := range sortedKeys(counters) {
		if family, labels := match(name); family != "" {
			add(family, "counter", labels, counters[name].Load(), nil)
			continue
		}
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, counters[name].Load())
	}
	gnames := make([]string, 0, len(gvals))
	for k := range gvals {
		gnames = append(gnames, k)
	}
	sort.Strings(gnames)
	for _, name := range gnames {
		if family, labels := match(name); family != "" {
			add(family, "gauge", labels, gvals[name], nil)
			continue
		}
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, gvals[name])
	}
	for _, name := range sortedKeys(hists) {
		if family, labels := match(name); family != "" {
			add(family, "histogram", labels, 0, hists[name])
			continue
		}
		writePromHistogram(w, promName(name), "", hists[name])
	}

	for _, family := range sortedKeys(families) {
		f := families[family]
		sort.Slice(f.samples, func(i, j int) bool { return f.samples[i].labels < f.samples[j].labels })
		if f.kind == "histogram" {
			fmt.Fprintf(w, "# TYPE %s histogram\n", family)
			for _, s := range f.samples {
				writePromHistogramSeries(w, family, s.labels, s.hist)
			}
			continue
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", family, f.kind)
		for _, s := range f.samples {
			fmt.Fprintf(w, "%s{%s} %d\n", family, s.labels, s.value)
		}
	}
}

// renderLabels renders a label set as `k1="v1",k2="v2"` with values escaped
// per the exposition format: backslash, double quote and newline become
// \\, \" and \n. Everything else (including non-ASCII UTF-8) passes
// through — label values are free-form UTF-8.
func renderLabels(labels []Label) string {
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func writePromHistogram(w io.Writer, pn, labels string, h *Histogram) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", pn)
	writePromHistogramSeries(w, pn, labels, h)
}

// writePromHistogramSeries writes one histogram's bucket/sum/count series,
// merging any pre-rendered labels with the per-bucket le label.
func writePromHistogramSeries(w io.Writer, pn, labels string, h *Histogram) {
	sep := ""
	if labels != "" {
		sep = labels + ","
	}
	last := 0
	for i := 0; i < numBuckets; i++ {
		if h.counts[i].Load() != 0 {
			last = i
		}
	}
	var cum int64
	for i := 0; i <= last; i++ {
		cum += h.counts[i].Load()
		le := (uint64(1) << uint(i)) - 1 // inclusive upper bound; 0 for bucket 0
		fmt.Fprintf(w, "%s_bucket{%sle=\"%d\"} %d\n", pn, sep, le, cum)
	}
	total := h.count.Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", pn, sep, total)
	if labels != "" {
		fmt.Fprintf(w, "%s_sum{%s} %d\n", pn, labels, h.sum.Load())
		fmt.Fprintf(w, "%s_count{%s} %d\n", pn, labels, total)
	} else {
		fmt.Fprintf(w, "%s_sum %d\n", pn, h.sum.Load())
		fmt.Fprintf(w, "%s_count %d\n", pn, total)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// promName maps a dotted registry name onto the Prometheus metric-name
// charset [a-zA-Z0-9_:] (leading digits get an underscore prefix).
func promName(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			out = append(out, c)
		case c >= '0' && c <= '9':
			if i == 0 {
				out = append(out, '_')
			}
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
