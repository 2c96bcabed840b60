package reconf

// The benchmark harness regenerates the paper's quantitative claims
// (see DESIGN.md §3 and EXPERIMENTS.md). The paper's evaluation is
// qualitative, so these benches quantify the Discussion-section cost
// arguments on this reproduction's substrate:
//
//	C1  BenchmarkFlagCheck, BenchmarkSteadyState       — "run-time cost is
//	    merely that of periodically testing the flags"
//	C2  BenchmarkVsCheckpointing                       — pay per reconfig,
//	    not per interval
//	C3  BenchmarkReconfigDelayPlacement                — point placement
//	    governs response latency
//	C4  BenchmarkAtomicityLevels                       — module- vs
//	    statement-level atomicity
//	C5  BenchmarkStackCaptureDepth                     — AR-stack capture
//	    scales with recursion depth
//	A1  BenchmarkCodecs                                — portable vs gob
//	A2  BenchmarkLivenessTrim                          — capture-set modes
//	A3  BenchmarkQueueMove                             — cq cost
//
// Message, wire, Prepare and whole-Replace costs are not here: bench/
// measures them (BENCHMARK.json names the metrics). BenchmarkLoad
// (load_test.go) times the Load inside the pipeline workloads' set-up, to
// split it into parts.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/clock"
	"repro/internal/codec"
	"repro/internal/interp"
	"repro/internal/mh"
	"repro/internal/state"
	"repro/internal/telemetry"
	"repro/internal/transform"
)

// ---- helpers ----

func benchState(depth, varsPerFrame int) *state.State {
	st := state.New("bench")
	st.Machine = "machineA"
	for i := 0; i < depth; i++ {
		frame := state.Frame{Func: "compute", Location: 3}
		for v := 0; v < varsPerFrame; v++ {
			frame.Vars = append(frame.Vars, state.Var{
				Name:  fmt.Sprintf("v%d", v),
				Value: state.IntValue(int64(i*varsPerFrame + v)),
			})
		}
		st.PushFrame(frame)
	}
	if depth > 0 {
		st.Frames[0].Func = "main"
		st.Frames[0].Location = 1
	}
	return st
}

// ---- C1: flag-testing overhead ----

// BenchmarkFlagCheck measures the compiled cost of one reconfiguration-
// point flag test — the paper's entire steady-state overhead.
func BenchmarkFlagCheck(b *testing.B) {
	bb := bus.New()
	if err := bb.AddInstance(bus.InstanceSpec{Name: "m"}); err != nil {
		b.Fatal(err)
	}
	port, err := bb.Attach("m")
	if err != nil {
		b.Fatal(err)
	}
	rt := mh.New(port)
	rt.Init()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rt.Reconfig() {
			b.Fatal("flag unexpectedly set")
		}
	}
}

// BenchmarkSteadyState compares the original and the instrumented compute
// module serving identical request streams with no reconfiguration — the
// instrumented module's extra cost is exactly the flag tests (C1).
func BenchmarkSteadyState(b *testing.B) {
	run := func(b *testing.B, mode transform.CaptureMode, instrument bool) {
		app := benchMonitorApp(b, mode, instrument)
		defer app.Stop()
		d := benchDriver(b, app)
		if err := app.Launch("compute"); err != nil {
			b.Fatal(err)
		}
		// Warm up one round trip, then pipeline b.N requests so module-
		// side processing cost dominates over request latency noise.
		d.requestTaken("compute", 2)
		d.temperature(10)
		d.temperature(30)
		if got := d.response(); got != 20 {
			b.Fatalf("warmup response = %v", got)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.request(2)
			d.temperature(10)
			d.temperature(30)
		}
		for i := 0; i < b.N; i++ {
			if got := d.response(); got != 20 {
				b.Fatalf("response = %v", got)
			}
		}
		b.StopTimer()
		if rt := app.Runtime("compute"); rt != nil && instrument {
			checks := rt.Telemetry().Snapshot().Counters["mh.compute.flag_checks"]
			b.ReportMetric(float64(checks)/float64(b.N), "flagchecks/op")
		}
	}
	b.Run("original", func(b *testing.B) { run(b, 0, false) })
	b.Run("instrumented", func(b *testing.B) { run(b, transform.CaptureSpec, true) })
}

// ---- C2: vs checkpointing ----

// BenchmarkVsCheckpointing compares steady-state overhead per operation:
// the paper's approach pays one flag test; checkpointing pays a full state
// snapshot+encode every interval.
func BenchmarkVsCheckpointing(b *testing.B) {
	const stateDepth = 8
	b.Run("reconfig-points", func(b *testing.B) {
		bb := bus.New()
		if err := bb.AddInstance(bus.InstanceSpec{Name: "m"}); err != nil {
			b.Fatal(err)
		}
		port, _ := bb.Attach("m")
		rt := mh.New(port)
		rt.Init()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = rt.Reconfig() // per-op cost: the flag test
		}
	})
	for _, interval := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("checkpoint-every-%d", interval), func(b *testing.B) {
			counter := 0
			cp, err := mh.NewCheckpointer(interval, func() (*state.State, error) {
				st := benchState(stateDepth, 4)
				st.Meta["counter"] = fmt.Sprint(counter)
				return st, nil
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				counter++
				if err := cp.Tick(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := cp.Stats()
			if st.Checkpoints > 0 {
				b.ReportMetric(float64(st.Bytes)/float64(b.N), "ckptbytes/op")
			}
		})
	}
}

// ---- C3: reconfiguration delay vs point placement ----

const innerPointSrc = `package worker

func main() {
	var x int
	mh.Init()
	for {
		x = work(x)
	}
}

func work(x int) int {
	for j := 0; j < 64; j++ {
		x = (x*31 + 7) % 1000003
		mh.ReconfigPoint("R")
	}
	return x
}
`

const outerPointSrc = `package worker

func main() {
	var x int
	mh.Init()
	for {
		x = work(x)
	}
}

func work(x int) int {
	for j := 0; j < 64; j++ {
		x = (x*31 + 7) % 1000003
	}
	mh.ReconfigPoint("R")
	return x
}
`

// BenchmarkReconfigDelayPlacement measures the latency from the
// reconfiguration request to state divulgence, with the point inside the
// hot loop (checked every step) versus outside it (checked every 64
// steps): "in order for a module to quickly respond to a reconfiguration
// request, the reconfiguration points must be located within the most
// frequently executed code."
func BenchmarkReconfigDelayPlacement(b *testing.B) {
	for name, src := range map[string]string{"inner": innerPointSrc, "outer": outerPointSrc} {
		b.Run(name, func(b *testing.B) {
			out, err := transform.Prepare(map[string]string{"worker.go": src}, transform.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bb := bus.New()
				if err := bb.AddInstance(bus.InstanceSpec{Name: "w"}); err != nil {
					b.Fatal(err)
				}
				port, err := bb.Attach("w")
				if err != nil {
					b.Fatal(err)
				}
				reg := telemetry.NewRegistry()
				rt := mh.New(port, mh.WithSleepUnit(time.Microsecond), mh.WithTelemetry(reg))
				in := interp.New(out.Prog, out.Info, rt)
				done := make(chan struct{})
				go func() { in.Run(); close(done) }()
				checks := reg.Counter("mh.w.flag_checks", telemetry.Labels{})
				waitUntil(b, "the worker reached its hot loop", func() bool { return checks.Load() > 0 })
				b.StartTimer()
				if err := bb.SignalReconfig("w"); err != nil {
					b.Fatal(err)
				}
				if _, err := bb.AwaitDivulged("w", 30*time.Second); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				bb.DeleteInstance("w")
				<-done
				b.StartTimer()
			}
		})
	}
}

// ---- C4: atomicity levels ----

// BenchmarkAtomicityLevels measures reconfiguration latency while the
// module is mid-unit: module-level atomicity (quiescence, no
// participation) must wait for the whole unit of work to finish;
// statement-level atomicity (reconfiguration points inside the unit)
// responds at the next point.
func BenchmarkAtomicityLevels(b *testing.B) {
	const unitWork = 5 * time.Millisecond
	const pointEvery = 100 * time.Microsecond

	b.Run("module-level-quiesce", func(b *testing.B) {
		g := newQuiesceGuard(clock.Clock{})
		stop := make(chan struct{})
		workerDone := make(chan struct{})
		go func() {
			defer close(workerDone)
			for {
				select {
				case <-stop:
					return
				default:
				}
				g.Enter()
				time.Sleep(unitWork) // the unit is opaque: no points inside
				g.Exit()
			}
		}()
		defer func() { close(stop); g.Release(); <-workerDone }()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := g.Quiesce(30 * time.Second); err != nil {
				b.Fatal(err)
			}
			g.Release()
			waitUntil(b, "a unit began again", g.Busy)
		}
	})

	b.Run("statement-level-points", func(b *testing.B) {
		// The unit polls its flag every pointEvery; reconfiguration is
		// acknowledged at the next poll.
		flag := make(chan chan struct{}, 1)
		stop := make(chan struct{})
		workerDone := make(chan struct{})
		go func() {
			defer close(workerDone)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// One unit of work with embedded reconfiguration points.
				for step := time.Duration(0); step < unitWork; step += pointEvery {
					time.Sleep(pointEvery)
					select {
					case ack := <-flag: // the reconfiguration point
						close(ack)
					case <-stop:
						return
					default:
					}
				}
			}
		}()
		defer func() { close(stop); <-workerDone }()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ack := make(chan struct{})
			flag <- ack
			<-ack
		}
	})
}

// ---- C5: capture/restore vs stack depth ----

// BenchmarkStackCaptureDepth measures capturing, encoding, decoding and
// restoring an activation-record stack of the given depth, and reports the
// abstract state size.
func BenchmarkStackCaptureDepth(b *testing.B) {
	for _, depth := range []int{1, 8, 64, 256, 1024} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			c := codec.Default()
			st := benchState(depth, 4)
			data, err := c.EncodeState(st)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(data)), "statebytes")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data, err := c.EncodeState(st)
				if err != nil {
					b.Fatal(err)
				}
				back, err := c.DecodeState(data)
				if err != nil {
					b.Fatal(err)
				}
				if back.Depth() != depth {
					b.Fatal("depth mismatch")
				}
			}
		})
	}
}

// ---- A1: codec ablation ----

// BenchmarkCodecs compares the hand-written portable codec against
// encoding/gob, the self-describing stream format the standard library
// would have given us. Gob is spelled out here, not shipped as a codec.
func BenchmarkCodecs(b *testing.B) {
	st := benchState(32, 4)
	type arm struct {
		name   string
		encode func(*state.State) ([]byte, error)
		decode func([]byte) (*state.State, error)
	}
	arms := []arm{
		{"portable", codec.Portable{}.EncodeState, codec.Portable{}.DecodeState},
		{"gob", func(s *state.State) ([]byte, error) {
			var buf bytes.Buffer
			err := gob.NewEncoder(&buf).Encode(s)
			return buf.Bytes(), err
		}, func(data []byte) (*state.State, error) {
			var s state.State
			return &s, gob.NewDecoder(bytes.NewReader(data)).Decode(&s)
		}},
	}
	for _, c := range arms {
		data, err := c.encode(st)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"-encode", func(b *testing.B) {
			b.ReportMetric(float64(len(data)), "bytes")
			for i := 0; i < b.N; i++ {
				if _, err := c.encode(st); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"-decode", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- A2: liveness-trimmed capture sets ----

// BenchmarkLivenessTrim runs the full mid-recursion capture under each
// capture mode and reports the divulged state size: liveness/spec modes
// carry less than capture-all.
func BenchmarkLivenessTrim(b *testing.B) {
	for _, mode := range []transform.CaptureMode{transform.CaptureAll, transform.CaptureLive, transform.CaptureSpec} {
		b.Run(mode.String(), func(b *testing.B) {
			app := benchMonitorApp(b, mode, true)
			defer app.Stop()
			d := benchDriver(b, app)
			if err := app.Launch("compute"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				old := fmt.Sprintf("compute%d", i)
				next := fmt.Sprintf("compute%d", i+1)
				if i == 0 {
					old = "compute"
				}
				d.requestTaken(old, 3)
				// Fed before the Move has signalled, the reading would carry
				// the module past its point with the flag unset, and it
				// would then wait for the reading that follows the Move.
				settle := afterSignal(app, old, func() { d.temperature(60) })
				if err := app.Move(old, next, "machineB"); err != nil {
					b.Fatal(err)
				}
				settle()
				d.temperature(70)
				d.temperature(80)
				if got := d.response(); got != 60.0/3+70.0/3+80.0/3 {
					b.Fatalf("answer = %v", got)
				}
			}
			b.StopTimer()
			var stateBytes int64 // the last divulge's size
			for _, r := range app.Events().Since(0) {
				if r.Source == "bus" && r.Kind == "divulge" {
					if _, err := fmt.Sscanf(r.Detail, "%d bytes", &stateBytes); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(stateBytes), "statebytes")
		})
	}
}

// ---- A3: queue preservation ----

// BenchmarkQueueMove measures the cq primitive: moving n queued messages to
// the replacement instance.
func BenchmarkQueueMove(b *testing.B) {
	for _, n := range []int{1, 64, 4096} {
		b.Run(fmt.Sprintf("msgs-%d", n), func(b *testing.B) {
			bb := bus.New()
			for _, spec := range []bus.InstanceSpec{
				{Name: "w", Interfaces: []bus.IfaceSpec{{Name: "out", Dir: bus.Out}}},
				{Name: "a", Interfaces: []bus.IfaceSpec{{Name: "in", Dir: bus.In}}},
				{Name: "b", Interfaces: []bus.IfaceSpec{{Name: "in", Dir: bus.In}}},
			} {
				if err := bb.AddInstance(spec); err != nil {
					b.Fatal(err)
				}
			}
			if err := bb.AddBinding(bus.Endpoint{Instance: "w", Interface: "out"}, bus.Endpoint{Instance: "a", Interface: "in"}); err != nil {
				b.Fatal(err)
			}
			w, err := bb.Attach("w")
			if err != nil {
				b.Fatal(err)
			}
			payload := []byte("message")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < n; j++ {
					if err := w.Write("out", payload); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if err := bb.Rebind([]bus.BindEdit{{Op: "cq", From: bus.Endpoint{Instance: "a", Interface: "in"}, To: bus.Endpoint{Instance: "b", Interface: "in"}}}); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if _, err := bb.DrainQueue(bus.Endpoint{Instance: "b", Interface: "in"}); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
