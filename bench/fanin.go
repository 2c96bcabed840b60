package main

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/bus"
)

const (
	faninPayload = 64
	// faninRing is the per-producer ring of reusable payload buffers. A
	// buffer is free again once its message was delivered, and at most the
	// stream window (1024) is ever outstanding, so twice that never wraps
	// onto a message in flight — and the generator allocates nothing.
	faninRing = 2048
)

func faninValue(seed uint64, p int, seq int64) uint64 {
	return splitmix64(seed ^ uint64(p)<<56 ^ uint64(seq))
}

// faninLink drives a bare bus: P producer attachments bound to one sink
// endpoint. A Replace here swaps the sink instance with the bus primitives
// alone, so the sink follows its endpoint from one attachment to the next.
type faninLink struct {
	l    *loop
	seed uint64
	srcs []*bus.Attachment
	dst  *bus.Attachment
	next chan *bus.Attachment // the replacement sink, handed over before the old one is deleted
	bufs [][][]byte
}

func (k *faninLink) send(p int, first int64, n int, stamp bool) error {
	l := k.l
	for i := 0; i < n; i++ {
		seq := first + int64(i)
		buf := k.bufs[p][seq%faninRing]
		binary.LittleEndian.PutUint64(buf[0:], uint64(seq))
		binary.LittleEndian.PutUint64(buf[8:], faninValue(k.seed, p, seq))
		buf[16] = byte(p)
		var t0 int64
		if stamp || l.tr != nil {
			t0 = l.now()
		}
		if stamp {
			l.prods[p].sendNs[seq%sendRing].Store(t0)
		}
		if err := k.srcs[p].Write("out", buf); err != nil {
			return err
		}
		if l.tr != nil && seq%(msgSpanEvery*16) == 0 {
			l.tr.add("source.write", t0, l.now(), int(l.phaseSpan.Load()), l.trial, seq)
		}
	}
	return nil
}

func (k *faninLink) recv() (delivery, error) {
	l := k.l
	for {
		var t0 int64
		if l.tr != nil {
			t0 = l.now()
		}
		m, err := k.dst.Read("in")
		if errors.Is(err, bus.ErrStopped) {
			select {
			case k.dst = <-k.next:
				continue
			default:
			}
		}
		if err != nil {
			return delivery{}, err
		}
		d := delivery{at: l.stamp(), countOK: true}
		if len(m.Data) != faninPayload || int(m.Data[16]) >= len(k.srcs) {
			return d, nil
		}
		d.prod = int(m.Data[16])
		d.seq = int64(binary.LittleEndian.Uint64(m.Data[0:]))
		d.valueOK = binary.LittleEndian.Uint64(m.Data[8:]) == faninValue(k.seed, d.prod, d.seq)
		if l.tr != nil && d.seq%(msgSpanEvery*16) == 0 {
			l.tr.add("sink.read", t0, l.now(), int(l.phaseSpan.Load()), l.trial, d.seq)
		}
		return d, nil
	}
}

func sinkSpec(name string) bus.InstanceSpec {
	return bus.InstanceSpec{Name: name, Interfaces: []bus.IfaceSpec{{Name: "in", Dir: bus.In}}}
}

// senderSpec is the p-th sending instance of a bare-bus topology.
func senderSpec(p int) bus.InstanceSpec {
	return bus.InstanceSpec{Name: fmt.Sprintf("src%d", p), Interfaces: []bus.IfaceSpec{{Name: "out", Dir: bus.Out}}}
}

func senderOut(p int) bus.Endpoint {
	return bus.Endpoint{Instance: senderSpec(p).Name, Interface: "out"}
}

// faninTrial is one trial of bus_fanin: a bare bus, no App, no module
// runtime. Ping is one producer with one message in flight; stream and
// replace use all P producers against the one sink endpoint.
func faninTrial(w workload, seed uint64, trial int, pl plan, buf *buffers, tr *tracer) (res trialResult, err error) {
	producers := faninProducers()
	l := newLoop(producers, buf.lat, buf.deliv, tr, trial)
	res.setupParts = map[string]float64{"launch": 0} // no module runtime on a bare bus

	// ---- set-up: instances, bindings, attachments ----
	b := bus.New()
	defer b.Close()
	link := &faninLink{l: l, seed: seed, next: make(chan *bus.Attachment, 1), bufs: make([][][]byte, producers)}
	sink := "sink"
	if err := b.AddInstance(sinkSpec(sink)); err != nil {
		return res, err
	}
	for p := 0; p < producers; p++ {
		if err := b.AddInstance(senderSpec(p)); err != nil {
			return res, err
		}
		if err := b.AddBinding(senderOut(p), bus.Endpoint{Instance: sink, Interface: "in"}); err != nil {
			return res, err
		}
		backing := make([]byte, faninRing*faninPayload)
		link.bufs[p] = make([][]byte, faninRing)
		for i := range link.bufs[p] {
			link.bufs[p][i] = backing[i*faninPayload : (i+1)*faninPayload : (i+1)*faninPayload]
		}
	}
	t := res.mark(l, "load", 0)
	for p := 0; p < producers; p++ {
		att, err := b.Attach(senderSpec(p).Name)
		if err != nil {
			return res, err
		}
		link.srcs = append(link.srcs, att)
	}
	if link.dst, err = b.Attach(sink); err != nil {
		return res, err
	}
	l.link = link
	t = res.mark(l, "attach", t)
	go l.sink() //archlint:spawn the trial's single sink reader; exits when teardown deletes the sink instance, awaited on sinkDone
	defer func() {
		for _, name := range b.Instances() {
			_ = b.DeleteInstance(name) // teardown: the only failure is "already gone"
		}
		<-l.sinkDone
	}()

	// The Replace of the bare bus: the sink endpoint swapped by the primitives.
	err = res.measure(l, w, producers, pl, seed, t, b, func(k int) txSample {
		next := fmt.Sprintf("sink_%d", k+1)
		tx := busReplace(b, link, sink, next, producers, tr, l, k)
		if !tx.failed {
			sink = next
		}
		return tx
	})
	return res, err
}

// busReplace is the bus's share of a Replace, with no module to capture or
// restore: register the clone, rebind every producer to it and move the
// queued messages in one atomic batch, hand the sink reader its new
// attachment, delete the old instance. The step names are those of the
// reconfiguration tracer, so the layer table lines up across workloads.
func busReplace(b *bus.Bus, link *faninLink, old, next string, producers int, tr *tracer, l *loop, k int) txSample {
	tx := txSample{startNs: l.now(), spans: map[string]float64{}}
	step := func(name string, from int64) int64 {
		now := l.now()
		tx.spans[name] = float64(now-from) / 1e3
		return now
	}
	fail := func() txSample {
		tx.endNs = l.now()
		tx.failed = true
		return tx
	}
	t := tx.startNs
	if err := b.AddInstance(sinkSpec(next)); err != nil {
		return fail()
	}
	att, err := b.Attach(next)
	if err != nil {
		return fail()
	}
	t = step("add_clone", t)
	oldIn := bus.Endpoint{Instance: old, Interface: "in"}
	newIn := bus.Endpoint{Instance: next, Interface: "in"}
	edits := make([]bus.BindEdit, 0, 2*producers+1)
	for p := 0; p < producers; p++ {
		edits = append(edits, bus.BindEdit{Op: "del", From: senderOut(p), To: oldIn}, bus.BindEdit{Op: "add", From: senderOut(p), To: newIn})
	}
	edits = append(edits, bus.BindEdit{Op: "cq", From: oldIn, To: newIn})
	if err := b.Rebind(edits); err != nil {
		_ = b.DeleteInstance(next) // undo the clone; the old sink keeps serving
		return fail()
	}
	t = step("rebind", t)
	link.next <- att
	if err := b.DeleteInstance(old); err != nil {
		return fail()
	}
	step("commit_tail", t)
	tx.endNs = l.now()
	if tr != nil {
		parent := tr.add("replace.tx", tx.startNs, tx.endNs, int(l.phaseSpan.Load()), l.trial, int64(k))
		at := tx.startNs
		for _, name := range []string{"add_clone", "rebind", "commit_tail"} {
			d := int64(tx.spans[name] * 1e3)
			tr.add("reconfig."+name, at, at+d, parent, l.trial, int64(k))
			at += d
		}
	} else {
		tx.spans = nil
	}
	return tx
}
