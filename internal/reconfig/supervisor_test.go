package reconfig

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/clock"
	"repro/internal/codec"
	"repro/internal/mh"
	"repro/internal/state"
	"repro/internal/telemetry/evlog"
	"repro/internal/telemetry/health"
	"repro/internal/telemetry/timeseries"
)

// replicaWorld is the supervisor test harness: a 3-member replica group
// "pool" of accumulator workers between a source and a sink, with host-side
// kill/wedge switches standing in for real crashes. The supervisor's health
// checker reads a roller on the world's virtual clock, so a window closes
// only when a test rolls one.
type replicaWorld struct {
	t      *testing.T
	b      *bus.Bus
	p      *Primitives
	sup    *Supervisor
	c      codec.Codec
	src    bus.Port
	snk    bus.Port
	roller *timeseries.Roller

	mu          sync.Mutex
	killed      map[string]bool
	wedged      map[string]bool
	stuck       map[string]bool // wedged workers that have stopped reading
	failRestore bool            // clones die before confirming their restoration
	clk         *clock.Virtual
}

func newReplicaWorld(t *testing.T) *replicaWorld {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(1000, 0))
	events := evlog.NewLog(0, clk.Clock())
	b := bus.New(bus.WithClock(clk.Clock()), bus.WithEvents(events))
	w := &replicaWorld{
		t: t, b: b, p: NewPrimitives(b, events), c: codec.Default(),
		killed: map[string]bool{}, wedged: map[string]bool{}, stuck: map[string]bool{},
		clk: clk,
	}
	shape := []bus.IfaceSpec{{Name: "in", Dir: bus.In}, {Name: "out", Dir: bus.Out}}
	if err := b.AddGroup("pool", bus.PolicyRoundRobin, shape); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"pool.1", "pool.2", "pool.3"} {
		if err := b.AddInstance(bus.InstanceSpec{Name: m, Module: "worker", Interfaces: shape}); err != nil {
			t.Fatal(err)
		}
		if err := b.AddGroupMember("pool", m); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddInstance(bus.InstanceSpec{Name: "src", Interfaces: []bus.IfaceSpec{{Name: "out", Dir: bus.Out}}}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddInstance(bus.InstanceSpec{Name: "snk", Interfaces: []bus.IfaceSpec{{Name: "in", Dir: bus.In}}}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddBinding(bus.Endpoint{Instance: "src", Interface: "out"}, bus.Endpoint{Instance: "pool", Interface: "in"}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddBinding(bus.Endpoint{Instance: "pool", Interface: "out"}, bus.Endpoint{Instance: "snk", Interface: "in"}); err != nil {
		t.Fatal(err)
	}
	w.roller = timeseries.New(b.Telemetry(), clk.Clock(), 0)
	w.roller.Start()
	t.Cleanup(w.roller.Stop)
	clk.BlockUntil(1)
	sup, err := NewSupervisor(w.p, w, SupervisorConfig{
		Group:    "pool",
		Timeouts: Timeouts{RestoreAck: 2 * time.Second},
		Health:   health.NewChecker(w.roller),
	})
	if err != nil {
		t.Fatal(err)
	}
	w.sup = sup
	for _, m := range []string{"pool.1", "pool.2", "pool.3"} {
		if err := w.Launch(m); err != nil {
			t.Fatal(err)
		}
	}
	if w.src, err = b.Attach("src"); err != nil {
		t.Fatal(err)
	}
	if w.snk, err = b.Attach("snk"); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *replicaWorld) flag(m map[string]bool, name string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return m[name]
}

func (w *replicaWorld) setFlag(m map[string]bool, name string, v bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	m[name] = v
}

// Launch implements Launcher: each worker is an accumulator that checkpoints
// every 2 operations into the supervisor.
func (w *replicaWorld) Launch(name string) error {
	port, err := w.b.Attach(name)
	if err != nil {
		return err
	}
	rt := mh.New(realTimePort{port},
		mh.WithSleepUnit(time.Microsecond),
		mh.WithLogWriter(nil),
		mh.WithTelemetry(w.b.Telemetry()),
		mh.WithCheckpoint(2, w.sup.Checkpoint))
	go func() { //archlint:spawn test replica worker; exits on kill switch or instance delete
		w.runWorker(name, rt)
	}()
	return nil
}

// realTimePort is a worker's attachment with the real clock: the workers
// idle in short sleeps between queue polls, which must pass on their own,
// while the bus and its supervisor run on the world's virtual clock.
type realTimePort struct{ *bus.Attachment }

func (realTimePort) Clock() clock.Clock { return clock.Clock{} }

func (w *replicaWorld) runWorker(name string, rt *mh.Runtime) {
	killed := false
	mh.Run(func() {
		rt.Init()
		var sum, loc int
		if rt.Status() == bus.StatusClone {
			if w.failRestoring() {
				return // crash before confirming restoration
			}
			rt.Decode()
			rt.Restore("main", "", &loc, &sum)
			rt.FinishRestore()
		}
		rt.RegisterSnapshot(func() (*state.State, error) {
			st := state.New(name)
			st.PushFrame(state.Frame{Func: "main", Location: 1,
				Vars: []state.Var{{Name: "sum", Value: state.IntValue(int64(sum))}}})
			return st, nil
		})
		for {
			if w.flag(w.killed, name) {
				killed = true
				return
			}
			if w.flag(w.wedged, name) {
				w.setFlag(w.stuck, name, true)
				rt.Sleep(1) // alive but consuming nothing: a stall
				continue
			}
			if rt.QueryIfMsgs("in") {
				var n int
				rt.Read("in", &n)
				sum += n
				rt.Write("out", sum)
			} else {
				rt.Sleep(1)
			}
		}
	})
	// A clone that died before confirming must still unblock the
	// coordinator's restore wait.
	rt.ConfirmRestoreOutcome(errors.New("worker exited before restoring"))
	if killed {
		w.sup.ReportExit(name, errors.New("killed"))
	}
}

func (w *replicaWorld) failRestoring() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failRestore
}

func (w *replicaWorld) send(n int) {
	w.t.Helper()
	data, err := w.c.EncodeValue(state.IntValue(int64(n)))
	if err != nil {
		w.t.Fatal(err)
	}
	if err := w.src.Write("out", data); err != nil {
		w.t.Fatal(err)
	}
}

// awaitSink blocks until the sink has received n more messages.
func (w *replicaWorld) awaitSink(n int) {
	w.t.Helper()
	for i := 0; i < n; i++ {
		if _, err := w.snk.Read("in"); err != nil {
			w.t.Fatal(err)
		}
	}
}

// roll closes one roller window: the clock advances a window, and roll
// returns once the roller has rolled it and waits for the next.
func (w *replicaWorld) roll() {
	w.clk.Advance(w.roller.Window())
	w.clk.BlockUntil(1)
}

// waitFor runs supervisor passes until cond holds, on a supervisor that was
// never started: the test is the one goroutine running passes.
func (w *replicaWorld) waitFor(what string, cond func() bool) {
	w.t.Helper()
	waitUntil(w.t, what, func() bool {
		w.sup.pass()
		return cond()
	})
}

func (w *replicaWorld) members() []string {
	ms, err := w.b.GroupMembers("pool")
	if err != nil {
		w.t.Fatal(err)
	}
	return ms
}

func TestSupervisorHealsCrashedReplica(t *testing.T) {
	w := newReplicaWorld(t)
	for i := 1; i <= 9; i++ {
		w.send(i)
	}
	w.awaitSink(9) // every member has processed and checkpointed
	w.setFlag(w.killed, "pool.2", true)
	w.waitFor("crash recovery", func() bool { return w.sup.Stats().Recovered == 1 })

	ms := w.members()
	if len(ms) != 3 {
		t.Fatalf("members after heal = %v", ms)
	}
	for _, m := range ms {
		if m == "pool.2" {
			t.Fatal("dead member still in group")
		}
	}
	// The group keeps answering traffic through the healed set.
	for i := 0; i < 6; i++ {
		w.send(1)
	}
	w.awaitSink(6)
	st := w.sup.Status()
	if st.Policy != bus.PolicyRoundRobin || len(st.Members) != 3 || len(st.Pending) != 0 {
		t.Errorf("status = %+v", st)
	}
	if st.Stats.Failed != 0 {
		t.Errorf("unexpected failed rebuilds: %+v", st.Stats)
	}
}

func TestSupervisorFlappingDoesNotOverlapTransactions(t *testing.T) {
	w := newReplicaWorld(t)
	for i := 1; i <= 6; i++ {
		w.send(i)
	}
	w.awaitSink(6)

	// An operator reconfiguration is in flight: the supervisor's rebuild
	// must be refused (ErrReconfigBusy) and retried, never overlapped.
	w.p.txMu.Lock()
	w.setFlag(w.killed, "pool.1", true)
	w.waitFor("mark-out", func() bool { return len(w.members()) == 2 })
	// Duplicate crash reports for a member already being handled are inert.
	w.sup.ReportExit("pool.1", errors.New("flap"))
	w.sup.ReportExit("pool.1", errors.New("flap again"))

	w.waitFor("busy retries", func() bool { return w.sup.Stats().RetriesBusy >= 2 })
	st := w.sup.Stats()
	if st.Detected != 1 {
		t.Errorf("Detected = %d, want 1 (flap reports deduplicated)", st.Detected)
	}
	if st.Recovered != 0 {
		t.Error("rebuild committed while another reconfiguration held the lock")
	}
	// No clone instance leaked from the refused attempts.
	for _, name := range w.b.Instances() {
		if name != "pool.2" && name != "pool.3" && name != "pool.1" && name != "src" && name != "snk" {
			t.Errorf("leaked instance %s", name)
		}
	}

	w.p.txMu.Unlock()
	w.waitFor("recovery after release", func() bool { return w.sup.Stats().Recovered == 1 })
	if ms := w.members(); len(ms) != 3 {
		t.Fatalf("members = %v", ms)
	}
	for i := 0; i < 6; i++ {
		w.send(1)
	}
	w.awaitSink(6)
}

func TestSupervisorStallDetectionFakeClock(t *testing.T) {
	w := newReplicaWorld(t)
	for i := 1; i <= 6; i++ {
		w.send(i)
	}
	w.awaitSink(6)

	// Baseline: a window in which every member consumed what it was sent.
	w.roll()
	w.sup.pass()
	if got := w.sup.Stats().Detected; got != 0 {
		t.Fatalf("false positive before stall: Detected = %d", got)
	}

	// Wedge pool.3: its goroutine stays alive but consumes nothing.
	w.setFlag(w.wedged, "pool.3", true)
	waitUntil(t, "pool.3 stops reading", func() bool { return w.flag(w.stuck, "pool.3") })
	// Traffic keeps flowing: each window the round robin delivers one
	// message to every member, the survivors answer theirs, and pool.3's
	// backlog grows by one.
	window := func() {
		for i := 0; i < 3; i++ {
			w.send(1)
		}
		w.awaitSink(2)
		w.roll()
	}
	// Inside the stall span nothing is declared dead yet.
	for i := 1; i < health.ShortSpan; i++ {
		window()
	}
	w.sup.pass()
	if got := w.sup.Stats().Detected; got != 0 {
		t.Fatalf("stall declared inside the window: Detected = %d", got)
	}
	// The span's last window makes the verdict Critical: the wedged member
	// is marked out and rebuilt; the consuming members are not.
	window()
	w.waitFor("stall recovery", func() bool { return w.sup.Stats().Recovered == 1 })
	for _, m := range w.members() {
		if m == "pool.3" {
			t.Fatal("wedged member still in group")
		}
	}
	if st := w.sup.Stats(); st.Detected != 1 || st.HealthDetected != 1 {
		t.Errorf("Detected = %d, HealthDetected = %d, want 1 and 1", st.Detected, st.HealthDetected)
	}
	// No message was lost: the wedged member's backlog drained to the
	// survivors at mark-out.
	w.awaitSink(health.ShortSpan)
}

func TestSupervisorReplicaDyingDuringRecoveryConverges(t *testing.T) {
	w := newReplicaWorld(t)
	for i := 1; i <= 6; i++ {
		w.send(i)
	}
	w.awaitSink(6)

	w.mu.Lock()
	w.failRestore = true
	w.mu.Unlock()
	w.setFlag(w.killed, "pool.2", true)
	w.waitFor("failed rebuild", func() bool { return w.sup.Stats().Failed >= 1 })
	if len(w.members()) != 2 {
		t.Fatalf("members during failed recovery = %v", w.members())
	}
	if w.sup.Stats().Recovered != 0 {
		t.Fatal("recovery reported success while clones were dying")
	}

	// The fault clears; the next pass's attempt (fresh generation name)
	// converges back to 3 members.
	w.mu.Lock()
	w.failRestore = false
	w.mu.Unlock()
	w.waitFor("convergence", func() bool { return w.sup.Stats().Recovered == 1 })
	if ms := w.members(); len(ms) != 3 {
		t.Fatalf("members = %v", ms)
	}
	st := w.sup.Status()
	if len(st.Pending) != 0 {
		t.Errorf("pending after convergence: %v", st.Pending)
	}
	if st.Stats.LastError != "" {
		t.Errorf("LastError not cleared: %q", st.Stats.LastError)
	}
	for i := 0; i < 6; i++ {
		w.send(1)
	}
	w.awaitSink(6)
}

// TestSupervisorRebuildsOnExitReport pins the crash path of the started
// supervisor: an exit report wakes its loop at once, so the rebuild commits
// with no virtual time advanced — no timer stands between the report and
// the rebuild.
func TestSupervisorRebuildsOnExitReport(t *testing.T) {
	w := newReplicaWorld(t)
	for i := 1; i <= 9; i++ {
		w.send(i)
	}
	w.awaitSink(9) // every member has processed and checkpointed
	start := w.clk.Now()
	w.sup.Start()
	t.Cleanup(w.sup.Stop)

	w.setFlag(w.killed, "pool.2", true)
	waitUntil(t, "rebuild on the exit report", func() bool { return w.sup.Stats().Recovered == 1 })
	if now := w.clk.Now(); !now.Equal(start) {
		t.Errorf("virtual clock moved by %v", now.Sub(start))
	}
	ms := w.members()
	if len(ms) != 3 {
		t.Fatalf("members after heal = %v", ms)
	}
	for _, m := range ms {
		if m == "pool.2" {
			t.Fatal("dead member still in group")
		}
	}
	for i := 0; i < 6; i++ {
		w.send(1)
	}
	w.awaitSink(6)
}

// TestSupervisorOnePassPerRoll pins the other wake: with no exit report,
// the started supervisor runs exactly one pass per closed roller window and
// none while a window is still open.
func TestSupervisorOnePassPerRoll(t *testing.T) {
	w := newReplicaWorld(t)
	w.sup.Start()
	t.Cleanup(w.sup.Stop)

	const n = 5
	for i := int64(1); i <= n; i++ {
		w.roll()
		waitUntil(t, fmt.Sprintf("pass %d", i), func() bool { return w.sup.Stats().Passes >= i })
	}
	// Half a window closes nothing; Stop returns once the loop is idle.
	w.clk.Advance(w.roller.Window() / 2)
	w.sup.Stop()
	if st := w.sup.Stats(); st.Passes != n || st.Detected != 0 {
		t.Errorf("after %d rolls and half a window: Passes = %d, Detected = %d, want %d and 0", n, st.Passes, st.Detected, n)
	}
}
