package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one `# TYPE` line per metric, counters and gauges
// as single samples, histograms as cumulative `_bucket{le="..."}` series
// plus `_sum` and `_count`. A flat metric renders under its dotted name
// sanitized to the Prometheus charset (dots and other invalid runes become
// underscores). A metric registered with a Family renders as one labeled
// series of that family, grouped per family after the flat metrics, which
// is what gives per-instance attribution in a scrape:
// bus_iface_delivered{instance="...",interface="..."}. Registration sites
// keep one metric kind per family.
//
// The power-of-two buckets expose exactly: bucket index i holds integer
// nanosecond values 2^(i-1) <= v < 2^i (index 0 holds v <= 0), so the
// inclusive upper bound of bucket i is 2^i - 1 and the rendered le labels
// are 0, 1, 3, 7, 15, ... — cumulative counts are exact, not approximated.
func WritePrometheus(w io.Writer, r *Registry) {
	// Computed gauges are evaluated outside the registry lock (they may
	// take the bus's queue locks).
	h := r.Handles()
	counters, hists := h.Counters, h.Histograms
	gvals := make(map[string]int64, len(h.GaugeFns))
	for k, fn := range h.GaugeFns {
		gvals[k] = fn()
	}

	// family -> sorted labeled samples, accumulated while the flat metrics
	// render, then emitted per family after them.
	type sample struct {
		labels string
		value  int64
		hist   *Histogram
	}
	type family struct {
		kind    string
		samples []sample
	}
	families := map[string]*family{}
	labeled := func(name, kind string, v int64, hist *Histogram) bool {
		l := h.Labels[name]
		if l.Family == "" {
			return false
		}
		f := families[l.Family]
		if f == nil {
			f = &family{kind: kind}
			families[l.Family] = f
		}
		f.samples = append(f.samples, sample{labels: renderLabels(l), value: v, hist: hist})
		return true
	}

	for _, name := range sortedKeys(counters) {
		v := counters[name].Load()
		if labeled(name, "counter", v, nil) {
			continue
		}
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, v)
	}
	for _, name := range sortedKeys(gvals) {
		if labeled(name, "gauge", gvals[name], nil) {
			continue
		}
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, gvals[name])
	}
	for _, name := range sortedKeys(hists) {
		if labeled(name, "histogram", 0, hists[name]) {
			continue
		}
		writePromHistogram(w, promName(name), "", hists[name])
	}

	for _, name := range sortedKeys(families) {
		f := families[name]
		sort.Slice(f.samples, func(i, j int) bool { return f.samples[i].labels < f.samples[j].labels })
		if f.kind == "histogram" {
			fmt.Fprintf(w, "# TYPE %s histogram\n", name)
			for _, s := range f.samples {
				writePromHistogramSeries(w, name, s.labels, s.hist)
			}
			continue
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", name, f.kind)
		for _, s := range f.samples {
			fmt.Fprintf(w, "%s{%s} %d\n", name, s.labels, s.value)
		}
	}
}

// renderLabels renders a metric's owner labels as `k1="v1",k2="v2"`, in
// the order instance, interface, group, skipping empty ones. Values are
// escaped per the exposition format: backslash, double quote and newline
// become \\, \" and \n. Everything else (including non-ASCII UTF-8)
// passes through — label values are free-form UTF-8.
func renderLabels(l Labels) string {
	var b strings.Builder
	for _, kv := range [...][2]string{{"instance", l.Instance}, {"interface", l.Interface}, {"group", l.Group}} {
		if kv[1] == "" {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[0])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[1]))
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
	b := h.Buckets()
	last := 0
	for i, c := range b {
		if c != 0 {
			last = i
		}
	}
	var cum int64
	for i := 0; i <= last; i++ {
		cum += b[i]
		le := (uint64(1) << uint(i)) - 1 // inclusive upper bound; 0 for bucket 0
		fmt.Fprintf(w, "%s_bucket{%sle=\"%d\"} %d\n", pn, sep, le, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", pn, sep, cum)
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %d\n%s_count%s %d\n", pn, labels, h.sum.Load(), pn, labels, cum)
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
