package main

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bus"
	"repro/internal/codec"
	"repro/internal/interp"
	"repro/internal/mh"
	"repro/internal/mil"
	"repro/internal/state"
	"repro/internal/transform"
)

// This file times each layer in isolation, the way a traced run reports it
// next to the spans of the workload: a bare bus, a bare TCP attachment, the
// codec, the module runtime on a stub port, the parser and the transform.
// A workload only times the layers it uses; the others report 0, which is
// how the layer table shows that, say, bus_fanin never touches tcp or mh.

const (
	isoBlock   = 32   // calls per timed block: the clock is read once per block
	isoSamples = 2000 // timed blocks (or single calls) per distribution
)

// blockNs times `samples` blocks of isoBlock calls and returns the per-call
// cost of every block in nanoseconds. pre and post run untimed around each
// block (nil for none), so filling or draining a queue is not measured.
func blockNs(samples int, pre, timed, post func()) []float64 {
	out := make([]float64, samples)
	for i := range out {
		if pre != nil {
			pre()
		}
		t0 := time.Now()
		timed()
		out[i] = float64(time.Since(t0)) / isoBlock
		if post != nil {
			post()
		}
	}
	return out
}

// mallocs returns the number of heap allocations fn performs (whole
// process: allocations on other goroutines it causes are included).
func mallocs(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench: layer probe: %v", err))
	}
}

// pairBus is a bare bus with n producers bound to one sink.
func pairBus(n int) (*bus.Bus, []*bus.Attachment, *bus.Attachment) {
	b := bus.New()
	must(b.AddInstance(sinkSpec("dst")))
	var srcs []*bus.Attachment
	for i := 0; i < n; i++ {
		must(b.AddInstance(senderSpec(i)))
		must(b.AddBinding(senderOut(i), bus.Endpoint{Instance: "dst", Interface: "in"}))
		att, err := b.Attach(senderSpec(i).Name)
		must(err)
		srcs = append(srcs, att)
	}
	dst, err := b.Attach("dst")
	must(err)
	return b, srcs, dst
}

func drain(dst bus.Port) {
	for {
		if _, ok, err := dst.TryRead("in"); err != nil || !ok {
			return
		}
	}
}

// busLayer times routing + queue + attachment on a bare bus.
func busLayer(m map[string]float64) {
	payload := make([]byte, faninPayload)
	b, srcs, dst := pairBus(1)
	src := srcs[0]

	writeBlock := func() {
		for i := 0; i < isoBlock; i++ {
			must(src.Write("out", payload))
		}
	}
	// Write into a queue nobody is parked on; drained untimed.
	m["bus.write_ns_p50"] = median(blockNs(isoSamples, nil, writeBlock, func() { drain(dst) }))
	batch := make([][]byte, isoBlock)
	for i := range batch {
		batch[i] = payload
	}
	m["bus.sendbatch_ns_per_msg"] = median(blockNs(isoSamples, nil, func() { must(src.SendBatch("out", batch)) }, func() { drain(dst) }))
	// Read with the message already queued: filled untimed.
	m["bus.read_ready_ns_p50"] = median(blockNs(isoSamples, writeBlock, func() {
		for i := 0; i < isoBlock; i++ {
			_, err := dst.Read("in")
			must(err)
		}
	}, nil))
	const n = 20000
	m["bus.allocs_per_msg"] = mallocs(func() {
		for i := 0; i < n; i++ {
			must(src.Write("out", payload))
			_, err := dst.Read("in")
			must(err)
		}
	}) / n
	deleteAll(b)

	// Handoff: a write that wakes a parked reader. Two endpoints ping-pong,
	// so each Read has parked before its message is written; one way is
	// half the round trip.
	pb := bus.New()
	for _, spec := range []bus.InstanceSpec{
		{Name: "a", Interfaces: []bus.IfaceSpec{{Name: "out", Dir: bus.Out}, {Name: "in", Dir: bus.In}}},
		{Name: "b", Interfaces: []bus.IfaceSpec{{Name: "out", Dir: bus.Out}, {Name: "in", Dir: bus.In}}},
	} {
		must(pb.AddInstance(spec))
	}
	must(pb.AddBinding(bus.Endpoint{Instance: "a", Interface: "out"}, bus.Endpoint{Instance: "b", Interface: "in"}))
	must(pb.AddBinding(bus.Endpoint{Instance: "b", Interface: "out"}, bus.Endpoint{Instance: "a", Interface: "in"}))
	pa, err := pb.Attach("a")
	must(err)
	pbb, err := pb.Attach("b")
	must(err)
	done := make(chan struct{})
	go func() { //archlint:spawn ping-pong echo side of the handoff probe; exits when its instance is deleted below
		defer close(done)
		for {
			if _, err := pbb.Read("in"); err != nil {
				return
			}
			if pbb.Write("out", payload) != nil {
				return
			}
		}
	}()
	rtts := make([]float64, isoSamples*4)
	for i := range rtts {
		t0 := time.Now()
		must(pa.Write("out", payload))
		_, err := pa.Read("in")
		must(err)
		rtts[i] = float64(time.Since(t0)) / 2
	}
	m["bus.handoff_ns_p50"] = median(rtts)
	deleteAll(pb)
	<-done

	// Contended write: P producers into the one endpoint, a reader draining.
	p := faninProducers()
	cb, csrcs, cdst := pairBus(p)
	readerDone := make(chan struct{})
	go func() { //archlint:spawn drainer of the contended-write probe; exits when the sink instance is deleted below
		defer close(readerDone)
		for {
			if _, err := cdst.Read("in"); err != nil {
				return
			}
		}
	}()
	var wg sync.WaitGroup
	per := make([][]float64, p)
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) { //archlint:spawn one contending producer of the contended-write probe; joined by wg
			defer wg.Done()
			per[i] = blockNs(isoSamples, nil, func() {
				for j := 0; j < isoBlock; j++ {
					must(csrcs[i].Write("out", payload))
				}
			}, nil)
		}(i)
	}
	wg.Wait()
	var all []float64
	for _, s := range per {
		all = append(all, s...)
	}
	m["bus.write_contended_ns_p50"] = median(all)
	deleteAll(cb)
	<-readerDone
}

func deleteAll(b *bus.Bus) {
	for _, name := range b.Instances() {
		_ = b.DeleteInstance(name) // probe teardown
	}
	b.Close()
}

// countingListener counts the bytes crossing the connections it accepts:
// the harness owns the listener, so wire bytes are measured without touching
// the server.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// tcpLayer times the server + RemotePort pair on a bare bus over loopback.
func tcpLayer(m map[string]float64) {
	b := bus.New()
	must(b.AddInstance(bus.InstanceSpec{Name: "rsrc", Interfaces: []bus.IfaceSpec{{Name: "out", Dir: bus.Out}}}))
	must(b.AddInstance(sinkSpec("rdst")))
	must(b.AddBinding(bus.Endpoint{Instance: "rsrc", Interface: "out"}, bus.Endpoint{Instance: "rdst", Interface: "in"}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	var wire atomic.Int64
	srv := bus.NewServer(b, countingListener{ln, &wire})
	addr := srv.Addr().String()

	var dials []float64
	var src, dst *bus.RemotePort
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("probe%d", i)
		must(b.AddInstance(sinkSpec(name)))
		t0 := time.Now()
		p, err := bus.DialPort(addr, name)
		must(err)
		dials = append(dials, float64(time.Since(t0))/1e3)
		p.Close()
	}
	m["tcp.dial_us"] = median(dials)
	src, err = bus.DialPort(addr, "rsrc")
	must(err)
	dst, err = bus.DialPort(addr, "rdst")
	must(err)

	payload, err := codec.Default().EncodeValue(state.IntValue(pipelineValue(1, 1)))
	must(err)
	const n = isoSamples
	writes, reads := make([]float64, n), make([]float64, n)
	bytes0 := wire.Load()
	allocs := mallocs(func() {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			must(src.Write("out", payload))
			writes[i] = float64(time.Since(t0)) / 1e3
			t0 = time.Now()
			_, err := dst.Read("in") // already queued: Write returned
			must(err)
			reads[i] = float64(time.Since(t0)) / 1e3
		}
	})
	m["tcp.write_rtt_us_p50"] = median(writes)
	m["tcp.read_ready_rtt_us_p50"] = median(reads)
	m["tcp.allocs_per_msg_single"] = allocs / n
	m["tcp.bytes_per_msg_single"] = float64(wire.Load()-bytes0) / n

	const batchLen = 16
	batch := make([][]byte, batchLen)
	for i := range batch {
		batch[i] = payload
	}
	sends := make([]float64, n/batchLen)
	bytes0 = wire.Load()
	allocs = mallocs(func() {
		for i := range sends {
			t0 := time.Now()
			must(src.SendBatch("out", batch))
			sends[i] = float64(time.Since(t0)) / 1e3 / batchLen
			for j := 0; j < batchLen; j++ {
				_, err := dst.Read("in")
				must(err)
			}
		}
	})
	msgs := float64(len(sends) * batchLen)
	m["tcp.sendbatch_us_per_msg"] = median(sends)
	m["tcp.allocs_per_msg_batch"] = allocs / msgs
	m["tcp.bytes_per_msg_batch"] = float64(wire.Load()-bytes0) / msgs

	src.Close()
	dst.Close()
	srv.Close()
	deleteAll(b)
}

// stageState builds the abstract state a stage of the given stack depth
// divulges: main's frame plus one frame per recursion level, each with the
// two parameters and three locals of deepStageSource.
func stageState(depth int) *state.State {
	st := state.New("stage")
	st.Machine = "machineA"
	st.PushFrame(state.Frame{Func: "main", Location: 1, Vars: []state.Var{
		{Name: "x", Value: state.IntValue(1 << seqShift)}, {Name: "count", Value: state.IntValue(123456)},
	}})
	for i := 0; i < depth; i++ {
		frame := state.Frame{Func: "hold", Location: 1}
		for _, name := range []string{"n", "acc", "a", "b", "c"} {
			frame.Vars = append(frame.Vars, state.Var{Name: name, Value: state.IntValue(int64(i * 7))})
		}
		st.PushFrame(frame)
	}
	return st
}

// codecLayer times the message and the state codec.
func codecLayer(w workload, m map[string]float64) {
	c := codec.Default()
	v := state.IntValue(pipelineValue(1, 12345))
	data, err := c.EncodeValue(v)
	must(err)
	m["codec.encode_value_ns"] = median(blockNs(isoSamples, nil, func() {
		for i := 0; i < isoBlock; i++ {
			_, err := c.EncodeValue(v)
			must(err)
		}
	}, nil))
	m["codec.decode_value_ns"] = median(blockNs(isoSamples, nil, func() {
		for i := 0; i < isoBlock; i++ {
			_, err := c.DecodeValue(data)
			must(err)
		}
	}, nil))
	st := stageState(w.stackDepth)
	enc, err := c.EncodeState(st)
	must(err)
	m["codec.state_bytes"] = float64(len(enc))
	var encUs, decUs []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		_, err := c.EncodeState(st)
		must(err)
		encUs = append(encUs, float64(time.Since(t0))/1e3)
		t0 = time.Now()
		_, err = c.DecodeState(enc)
		must(err)
		decUs = append(decUs, float64(time.Since(t0))/1e3)
	}
	m["codec.encode_state_us"] = median(encUs)
	m["codec.decode_state_us"] = median(decUs)
}

// stubPort is a zero-cost bus.Port: Read hands out canned messages until
// they run out and then reports the instance stopped; Write discards.
type stubPort struct {
	msgs  []bus.Message
	next  int
	wrote int
}

func (p *stubPort) Name() string    { return "stage" }
func (p *stubPort) Machine() string { return "machineA" }
func (p *stubPort) Status() string  { return bus.StatusAdd }
func (p *stubPort) Write(string, []byte) error {
	p.wrote++
	return nil
}
func (p *stubPort) SendBatch(_ string, batch [][]byte) error {
	p.wrote += len(batch)
	return nil
}
func (p *stubPort) Read(string) (bus.Message, error) {
	if p.next == len(p.msgs) {
		return bus.Message{}, bus.ErrStopped
	}
	p.next++
	return p.msgs[p.next-1], nil
}
func (p *stubPort) TryRead(iface string) (bus.Message, bool, error) {
	m, err := p.Read(iface)
	return m, err == nil, err
}
func (p *stubPort) Pending(string) (int, error)              { return len(p.msgs) - p.next, nil }
func (p *stubPort) TakeSignal() (bus.Signal, bool)           { return bus.Signal{}, false }
func (p *stubPort) Divulge([]byte) error                     { return nil }
func (p *stubPort) AwaitState(time.Duration) ([]byte, error) { return nil, bus.ErrTimeout }
func (p *stubPort) Done() bool                               { return p.next == len(p.msgs) }

var _ bus.Port = (*stubPort)(nil)

// stageLayer runs the stage on the stub port, once with a native Go body
// against the participation runtime and once interpreted, so the runtime's
// and the interpreter's shares of one message separate.
func stageLayer(w workload, m map[string]float64) {
	const n = 50000
	c := codec.Default()
	msgs := make([]bus.Message, n)
	for i := range msgs {
		data, err := c.EncodeValue(state.IntValue(pipelineValue(1, int64(i))))
		must(err)
		msgs[i] = bus.Message{Data: data}
	}
	out, err := transform.Prepare(map[string]string{"stage.go": w.stageSource()}, transform.Options{})
	must(err)

	run := func(body func(rt *mh.Runtime)) (nsPerMsg, allocs float64) {
		var best float64
		for rep := 0; rep < 3; rep++ {
			port := &stubPort{msgs: msgs}
			rt := mh.New(port)
			var elapsed time.Duration
			a := mallocs(func() {
				t0 := time.Now()
				body(rt)
				elapsed = time.Since(t0)
			})
			if port.wrote != n {
				panic(fmt.Sprintf("bench: stage probe wrote %d of %d", port.wrote, n))
			}
			if ns := float64(elapsed) / n; rep == 0 || ns < best {
				best, allocs = ns, a/n
			}
		}
		return best, allocs
	}
	native, _ := run(func(rt *mh.Runtime) {
		mh.Run(func() {
			var x, count int
			rt.Init()
			for {
				if rt.Reconfig() {
					return
				}
				rt.Read("in", &x)
				count++
				rt.Write("out", 3*x+1, count)
			}
		})
	})
	interpreted, allocs := run(func(rt *mh.Runtime) {
		if _, err := interp.New(out.Prog, out.Info, rt).Run(); err != nil {
			panic(fmt.Sprintf("bench: stage probe: %v", err))
		}
	})
	m["mh.ns_per_msg"] = native
	m["interp.ns_per_msg"] = interpreted - native
	m["stage.allocs_per_msg"] = allocs
}

// setupLayer times the parser and the source transformation alone.
func setupLayer(w workload, m map[string]float64) {
	var parse, prepare []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		_, err := mil.Parse(pipelineSpec)
		must(err)
		parse = append(parse, float64(time.Since(t0))/1e3)
	}
	src := map[string]string{"stage.go": w.stageSource()}
	for i := 0; i < 10; i++ {
		t0 := time.Now()
		_, err := transform.Prepare(src, transform.Options{})
		must(err)
		prepare = append(prepare, float64(time.Since(t0))/1e3)
	}
	m["mil.parse_us"] = median(parse)
	m["transform.prepare_us"] = median(prepare)
}

// isolatedLayers times every layer the workload uses.
func isolatedLayers(w workload) map[string]float64 {
	m := map[string]float64{}
	busLayer(m)
	if w.fanin {
		return m
	}
	if w.wire {
		tcpLayer(m)
	}
	codecLayer(w, m)
	stageLayer(w, m)
	setupLayer(w, m)
	return m
}

// sumPrefix adds up the counters whose name starts with prefix.
func sumPrefix(counters map[string]int64, prefix string) int64 {
	var n int64
	for name, v := range counters {
		if strings.HasPrefix(name, prefix) {
			n += v
		}
	}
	return n
}
