package replay

import (
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
)

// Canonical renders a recorded window in its deterministic form: one
// section per destination queue (sorted by endpoint), one line per
// delivery in QSeq order, each line carrying the queue sequence, the
// sending endpoint and the payload bytes. Trace identifiers, timestamps,
// routing epochs and the global interleaving are excluded — those vary
// across otherwise-identical runs — so two recordings of the same seeded
// workload render byte-identically. This is the form the determinism gate
// compares.
func Canonical(recs []Record) string {
	byQueue := map[string][]Record{}
	for _, r := range recs {
		byQueue[r.To] = append(byQueue[r.To], r)
	}
	queues := make([]string, 0, len(byQueue))
	for q := range byQueue {
		queues = append(queues, q)
	}
	sort.Strings(queues)
	var b strings.Builder
	for _, q := range queues {
		rs := byQueue[q]
		sort.Slice(rs, func(i, j int) bool { return rs[i].QSeq < rs[j].QSeq })
		fmt.Fprintf(&b, "queue %s (%d)\n", q, len(rs))
		for _, r := range rs {
			fmt.Fprintf(&b, "  %d %s %s\n", r.QSeq, r.From, hex.EncodeToString(r.Data))
		}
	}
	return b.String()
}

// InputsTo returns the records delivered to the named instance — the
// window a replay feeds it — in global-sequence order (per-queue order is
// preserved because QSeq order agrees with Seq order within one queue).
func InputsTo(recs []Record, instance string) []Record {
	var out []Record
	for _, r := range recs {
		if endpointInstance(r.To) == instance {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Output is one message a module emitted: the sending interface and the
// encoded payload.
type Output struct {
	Iface string `json:"iface"`
	Data  []byte `json:"data"`
}

// OutputsOf reconstructs the send sequence of the named instance from a
// recorded window. Records are appended at consumption, so the global ring
// order is the receivers' interleaving, not the sender's: a fan-out across
// replica queues may be consumed — and recorded — out of emission order.
// The sender's order is recovered from the trace span ids instead: the bus
// mints a globally monotonic span per write (batched sends reserve one id
// per message), so one sender's spans sort in emission order. A single
// send to multiple receivers carries one span, so records sharing a
// nonzero span id collapse to one output. On an untraced bus (all spans
// zero) ring order is the only signal: consecutive identical (iface,
// payload) records collapse instead — exact for single-receiver bindings,
// the common pipeline shape.
func OutputsOf(recs []Record, instance string) []Output {
	var sends []Record
	traced := true
	for _, r := range recs {
		if endpointInstance(r.From) == instance {
			sends = append(sends, r)
			if r.Trace.SpanID == 0 {
				traced = false
			}
		}
	}
	sort.Slice(sends, func(i, j int) bool {
		if traced && sends[i].Trace.SpanID != sends[j].Trace.SpanID {
			return sends[i].Trace.SpanID < sends[j].Trace.SpanID
		}
		return sends[i].Seq < sends[j].Seq
	})
	var out []Output
	var lastSpan uint64
	for i, r := range sends {
		if r.Trace.SpanID != 0 {
			if r.Trace.SpanID == lastSpan {
				continue
			}
			lastSpan = r.Trace.SpanID
		} else if i > 0 {
			prev := sends[i-1]
			if prev.Trace.SpanID == 0 && prev.From == r.From && string(prev.Data) == string(r.Data) {
				continue
			}
		}
		out = append(out, Output{Iface: EndpointIface(r.From), Data: r.Data})
	}
	return out
}

// Divergence pinpoints the first output where two runs disagree.
type Divergence struct {
	// Index is the 0-based position in the output sequence.
	Index int `json:"index"`
	// Kind is "payload", "iface", "missing" (got ended early) or "extra"
	// (got kept sending).
	Kind string `json:"kind"`
	// WantIface/Want describe the recorded output at Index; GotIface/Got
	// the replayed one. Absent sides are empty.
	WantIface string `json:"want_iface,omitempty"`
	Want      []byte `json:"want,omitempty"`
	GotIface  string `json:"got_iface,omitempty"`
	Got       []byte `json:"got,omitempty"`
}

// String renders the divergence for error messages.
func (d *Divergence) String() string {
	if d == nil {
		return "outputs match"
	}
	switch d.Kind {
	case "missing":
		return fmt.Sprintf("output %d: recorded %s %x, replay produced nothing",
			d.Index, d.WantIface, d.Want)
	case "extra":
		return fmt.Sprintf("output %d: recording ended, replay produced %s %x",
			d.Index, d.GotIface, d.Got)
	case "iface":
		return fmt.Sprintf("output %d: recorded on %s, replayed on %s",
			d.Index, d.WantIface, d.GotIface)
	default:
		return fmt.Sprintf("output %d on %s: recorded %x, replayed %x",
			d.Index, d.WantIface, d.Want, d.Got)
	}
}

// DiffOutputs compares two output sequences byte-for-byte and returns the
// first divergence, or nil when they match exactly.
func DiffOutputs(want, got []Output) *Divergence {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i].Iface != got[i].Iface {
			return &Divergence{Index: i, Kind: "iface",
				WantIface: want[i].Iface, Want: want[i].Data,
				GotIface: got[i].Iface, Got: got[i].Data}
		}
		if string(want[i].Data) != string(got[i].Data) {
			return &Divergence{Index: i, Kind: "payload",
				WantIface: want[i].Iface, Want: want[i].Data,
				GotIface: got[i].Iface, Got: got[i].Data}
		}
	}
	if len(got) < len(want) {
		return &Divergence{Index: n, Kind: "missing",
			WantIface: want[n].Iface, Want: want[n].Data}
	}
	if len(got) > len(want) {
		return &Divergence{Index: n, Kind: "extra",
			GotIface: got[n].Iface, Got: got[n].Data}
	}
	return nil
}
