package reconf

// Chaos suite for the self-healing replica layer: a `replicas 3` worker pool
// between 16 feeders and a collector, with crashes injected through
// internal/faultinject while the feeders keep sending. The acceptance
// criteria under test: zero message loss (a dead member's fenced backlog
// redistributes to survivors within one routing epoch), the supervisor
// restores N=3 from the periodic checkpoints, and every recovery completes
// within the harness's deadline.

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/codec"
	"repro/internal/faultinject"
	"repro/internal/mh"
	"repro/internal/state"
)

const chaosSenders = 16

// chaosSpec builds a MIL specification with chaosSenders feeder instances
// fanning in to one replicated worker pool that feeds a collector.
func chaosSpec(policy string) string {
	var sb strings.Builder
	sb.WriteString(`
module feeder {
  source = "./feeder" ::
  define interface out pattern = {integer} ::
}

module worker {
  source = "./worker" ::
  use interface in pattern = {integer} ::
  define interface out pattern = {integer} ::
}

module collector {
  source = "./collector" ::
  use interface in pattern = {integer} ::
}

module chaos {
`)
	for i := 0; i < chaosSenders; i++ {
		fmt.Fprintf(&sb, "  instance feeder as feeder%d\n", i)
	}
	fmt.Fprintf(&sb, "  instance worker as pool replicas 3 policy %s\n", policy)
	sb.WriteString("  instance collector\n")
	for i := 0; i < chaosSenders; i++ {
		fmt.Fprintf(&sb, "  bind \"feeder%d out\" \"pool in\"\n", i)
	}
	sb.WriteString("  bind \"pool out\" \"collector in\"\n}\n")
	return sb.String()
}

// chaosHarness wires the chaos application: the worker module is native and
// consults a faultpoint at the top of every loop iteration, so a test can
// kill any member deterministically. The crash site sits before Read — an
// injected crash never loses a consumed-but-unanswered message, mirroring a
// process that dies between transactions rather than inside one.
type chaosHarness struct {
	t       *testing.T
	app     *App
	faults  *faultinject.Set
	c       codec.Codec
	feeders []bus.Port
	coll    bus.Port
}

func newChaosHarness(t *testing.T, policy string, checkpointInterval int) *chaosHarness {
	t.Helper()
	return newChaosHarnessOpts(t, policy, checkpointInterval, true)
}

// newChaosHarnessOpts optionally leaves the supervisor's loop stopped,
// so a test can observe the crash-report mark-out (which runs in the dying
// member's exit path) without a racing rebuild.
func newChaosHarnessOpts(t *testing.T, policy string, checkpointInterval int, startSup bool) *chaosHarness {
	t.Helper()
	h := &chaosHarness{t: t, faults: faultinject.New(), c: codec.Default()}

	worker := func(rt *mh.Runtime) {
		rt.Init()
		var processed, loc int
		if rt.Status() == bus.StatusClone {
			rt.Decode()
			rt.Restore("main", "", &loc, &processed)
			rt.FinishRestore()
		}
		rt.RegisterSnapshot(func() (*state.State, error) {
			st := state.New(rt.Name())
			st.PushFrame(state.Frame{Func: "main", Location: 1,
				Vars: []state.Var{{Name: "processed", Value: state.IntValue(int64(processed))}}})
			return st, nil
		})
		site := "replica.crash." + rt.Name()
		for {
			if h.faults.Fire(site, rt.Clock()) != nil {
				return // injected crash: the goroutine just dies
			}
			if rt.QueryIfMsgs("in") {
				var n int
				rt.Read("in", &n)
				processed++
				rt.Write("out", n)
			} else {
				rt.Sleep(1)
			}
		}
	}

	app, err := Load(Config{
		SpecText: chaosSpec(policy),
		Native: map[string]NativeModule{
			"worker":    worker,
			"feeder":    func(rt *mh.Runtime) {}, // driven by the test
			"collector": func(rt *mh.Runtime) {},
		},
		SleepUnit:          time.Microsecond,
		CheckpointInterval: checkpointInterval,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.app = app
	t.Cleanup(app.Stop)
	app.Bus().SetFaults(h.faults)

	// Launch only the pool members (the feeders and collector are driven
	// directly), then arm the supervisor.
	for i := 1; i <= 3; i++ {
		if err := app.Launch(fmt.Sprintf("pool.%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	sup := app.Supervisor("pool")
	if sup == nil {
		t.Fatal("no supervisor for pool")
	}
	if startSup {
		sup.Start()
	}

	for i := 0; i < chaosSenders; i++ {
		p, err := app.AttachDriver(fmt.Sprintf("feeder%d", i))
		if err != nil {
			t.Fatal(err)
		}
		h.feeders = append(h.feeders, p)
	}
	if h.coll, err = app.AttachDriver("collector"); err != nil {
		t.Fatal(err)
	}
	return h
}

// run drives the chaos scenario: 16 senders push perSender sequence-tagged
// messages while kills replicas are crashed one after another, each given
// time to recover before the next.
func (h *chaosHarness) run(perSender, kills int) {
	h.runBatch(perSender, kills, 1)
}

// runBatch is run with the senders pushing batchSize-message SendBatch
// calls instead of single writes: whole batches race the crash-triggered
// fence-and-redistribute path, and exactly-once must still hold.
// batchSize must divide perSender.
func (h *chaosHarness) runBatch(perSender, kills, batchSize int) {
	h.t.Helper()
	total := chaosSenders * perSender
	sup := h.app.Supervisor("pool")

	// Collector drain: every message carries a unique id; receipt must be
	// exactly-once.
	received := make(chan int, total)
	go func() { //archlint:spawn test collector drain; exits when the collector port closes or all ids arrive
		for i := 0; i < total; i++ {
			m, err := h.coll.Read("in")
			if err != nil {
				return
			}
			v, err := h.c.DecodeValue(m.Data)
			if err != nil {
				return
			}
			received <- int(v.Int)
		}
	}()

	var wg sync.WaitGroup
	for s := 0; s < chaosSenders; s++ {
		wg.Add(1)
		go func(s int) { //archlint:spawn test sender; exits after perSender writes, joined via wg
			defer wg.Done()
			for k := 0; k < perSender; k += batchSize {
				batch := make([][]byte, batchSize)
				for j := range batch {
					data, err := h.c.EncodeValue(state.IntValue(int64(s*perSender + k + j)))
					if err != nil {
						h.t.Error(err)
						return
					}
					batch[j] = data
				}
				var err error
				if batchSize == 1 {
					err = h.feeders[s].Write("out", batch[0])
				} else {
					err = h.feeders[s].SendBatch("out", batch)
				}
				if err != nil {
					h.t.Error(err)
					return
				}
				time.Sleep(time.Duration(batchSize) * 300 * time.Microsecond)
			}
		}(s)
	}

	// Kill one live member at a time under load; wait for each rebuild to
	// commit before the next kill so the group never drops below 2.
	for k := 0; k < kills; k++ {
		st := sup.Status()
		if len(st.Members) == 0 {
			h.t.Fatal("no live members to kill")
		}
		victim := st.Members[k%len(st.Members)].Name
		base := sup.Stats().Recovered
		h.faults.Enable("replica.crash."+victim, faultinject.Point{Action: faultinject.Error, Count: 1})
		waitUntil(h.t, fmt.Sprintf("recovery of %s", victim), func() bool { return sup.Stats().Recovered > base })
	}
	wg.Wait()

	// Zero loss, zero duplication: every id arrives exactly once.
	seen := make(map[int]bool, total)
	deadline := time.NewTimer(15 * time.Second)
	defer deadline.Stop()
	for len(seen) < total {
		select {
		case id := <-received:
			if seen[id] {
				h.t.Fatalf("id %d delivered twice", id)
			}
			seen[id] = true
		case <-deadline.C:
			h.t.Fatalf("lost %d of %d messages after %d kills (stats %+v)",
				total-len(seen), total, kills, sup.Stats())
		}
	}

	st := sup.Status()
	if len(st.Members) != 3 {
		h.t.Fatalf("group not restored to 3 members: %+v", st)
	}
	if len(st.Pending) != 0 {
		h.t.Fatalf("corpses still pending after recovery: %v", st.Pending)
	}
	if got := sup.Stats().Recovered; got != int64(kills) {
		h.t.Fatalf("Recovered = %d, want %d", got, kills)
	}
}

// TestSelfHealChaosKillUnderLoad is the chaos matrix: for each balancing
// policy, crash 3 replicas (one at a time) under sustained 16-sender load
// and require zero loss, zero duplication, and a group healed back to N=3.
// scripts/check.sh runs it under -race.
func TestSelfHealChaosKillUnderLoad(t *testing.T) {
	for _, policy := range []string{bus.PolicyRoundRobin, bus.PolicyLeastQueue} {
		t.Run(policy, func(t *testing.T) {
			h := newChaosHarness(t, policy, 4)
			h.run(50, 3)
		})
		t.Run(policy+"/batched", func(t *testing.T) {
			h := newChaosHarness(t, policy, 4)
			h.runBatch(50, 3, 5)
		})
	}
	// A rebuild restores from a checkpoint up to one interval stale, and the
	// replayed tail is where a loss or a duplicate would come from: hold
	// exactly-once at both ends of the range, not only at 4.
	for _, interval := range []int{2, 32} {
		t.Run(fmt.Sprintf("%s/checkpoint_every_%d", bus.PolicyRoundRobin, interval), func(t *testing.T) {
			h := newChaosHarness(t, bus.PolicyRoundRobin, interval)
			h.run(40, 4)
		})
	}
}

// TestSelfHealSurvivorsAbsorbWithinOneEpoch pins the mark-out granularity:
// a crash report fences and redistributes the dead member's backlog in
// exactly one routing-snapshot publish, and the survivors answer traffic
// alone before any rebuild has run.
func TestSelfHealSurvivorsAbsorbWithinOneEpoch(t *testing.T) {
	// Supervisor loop off: mark-out runs in the dying member's exit path,
	// and the exit report's wake waits for the loop, so the mark-out is
	// observable without a racing rebuild.
	h := newChaosHarnessOpts(t, bus.PolicyRoundRobin, 4, false)
	sup := h.app.Supervisor("pool")

	send := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			data, err := h.c.EncodeValue(state.IntValue(int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			if err := h.feeders[0].Write("out", data); err != nil {
				t.Fatal(err)
			}
		}
	}
	recv := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := h.coll.Read("in"); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Warm up so every member has checkpointed at least once.
	send(24)
	recv(24)

	epochBefore := h.app.Bus().Stats().SnapshotVersion
	h.faults.Enable("replica.crash.pool.1", faultinject.Point{Action: faultinject.Error, Count: 1})
	waitUntil(h.t, "mark-out", func() bool { return len(sup.Status().Members) == 2 })
	epochAfter := h.app.Bus().Stats().SnapshotVersion
	if epochAfter != epochBefore+1 {
		t.Errorf("mark-out took %d routing epochs, want 1", epochAfter-epochBefore)
	}

	// Survivors answer traffic alone; nothing has been rebuilt yet.
	send(20)
	recv(20)
	if got := sup.Stats().Recovered; got != 0 {
		t.Fatalf("rebuild ran before the supervisor's loop started (Recovered = %d)", got)
	}

	// Now let the supervisor heal.
	sup.Start()
	waitUntil(h.t, "recovery", func() bool { return sup.Stats().Recovered == 1 })
}

// TestReplicasObservability exercises the two operator surfaces of the
// supervisor: the /replicas HTTP endpoint and the control plane's
// "replicas" op, after a heal (so the healed generation is visible).
func TestReplicasObservability(t *testing.T) {
	h := newChaosHarness(t, bus.PolicyLeastQueue, 4)
	sup := h.app.Supervisor("pool")
	h.faults.Enable("replica.crash.pool.2", faultinject.Point{Action: faultinject.Error, Count: 1})
	waitUntil(h.t, "heal", func() bool { return sup.Stats().Recovered == 1 })

	decode := func(doc string) []map[string]any {
		var sets []map[string]any
		if err := json.Unmarshal([]byte(doc), &sets); err != nil {
			t.Fatalf("bad replicas document: %v\n%s", err, doc)
		}
		return sets
	}
	check := func(surface, doc string) {
		sets := decode(doc)
		if len(sets) != 1 {
			t.Fatalf("%s: %d replica sets, want 1", surface, len(sets))
		}
		set := sets[0]
		if set["group"] != "pool" || set["policy"] != bus.PolicyLeastQueue {
			t.Errorf("%s: group/policy = %v/%v", surface, set["group"], set["policy"])
		}
		members, _ := set["members"].([]any)
		if len(members) != 3 {
			t.Errorf("%s: %d members, want 3", surface, len(members))
		}
		names := make([]string, 0, len(members))
		for _, m := range members {
			names = append(names, m.(map[string]any)["name"].(string))
		}
		sort.Strings(names)
		if strings.Join(names, " ") != "pool.1 pool.3 pool.4" {
			t.Errorf("%s: members = %v", surface, names)
		}
	}

	base := serveObs(t, h.app)
	code, body := httpGet(t, base+"/replicas")
	if code != 200 {
		t.Fatalf("/replicas: status %d", code)
	}
	check("/replicas", body)

	_, c := serveOps(t, h.app)
	doc, err := c.Call("replicas")
	if err != nil {
		t.Fatal(err)
	}
	check("control replicas", doc)
}

// TestSelfHealDegradedReplicaReplaced is the chaos regression for the
// supervisor's verdict-based detection: a replica that is alive and
// consuming — so the stall rule never fires — but slow and erroring on
// every message. The health checker must judge it Degraded/Critical from
// its windowed error burn, the verdict must be visible on the
// /health/{instance} surface, and once armed the supervisor must mark the
// member out through the health-verdict path (HealthDetected) and rebuild
// the group, leaving the evidence windows in the structured event log.
func TestSelfHealDegradedReplicaReplaced(t *testing.T) {
	var degraded atomic.Value // name of the member currently misbehaving
	degraded.Store("")

	worker := func(rt *mh.Runtime) {
		rt.Init()
		var processed, loc int
		if rt.Status() == bus.StatusClone {
			rt.Decode()
			rt.Restore("main", "", &loc, &processed)
			rt.FinishRestore()
		}
		rt.RegisterSnapshot(func() (*state.State, error) {
			st := state.New(rt.Name())
			st.PushFrame(state.Frame{Func: "main", Location: 1,
				Vars: []state.Var{{Name: "processed", Value: state.IntValue(int64(processed))}}})
			return st, nil
		})
		for {
			if rt.QueryIfMsgs("in") {
				var n int
				rt.Read("in", &n)
				if degraded.Load() == rt.Name() {
					// Slow and erroring, but never crashing: the message is
					// still consumed and forwarded.
					rt.ReportError()
					time.Sleep(500 * time.Microsecond)
				}
				processed++
				rt.Write("out", n)
			} else {
				rt.Sleep(1)
			}
		}
	}

	app, err := Load(Config{
		SpecText: chaosSpec(bus.PolicyRoundRobin),
		Native: map[string]NativeModule{
			"worker":    worker,
			"feeder":    func(rt *mh.Runtime) {},
			"collector": func(rt *mh.Runtime) {},
		},
		SleepUnit:          time.Microsecond,
		CheckpointInterval: 4,
		TimeseriesWindow:   25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Stop)
	for i := 1; i <= 3; i++ {
		if err := app.Launch(fmt.Sprintf("pool.%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	sup := app.Supervisor("pool")
	if sup == nil {
		t.Fatal("no supervisor for pool")
	}
	app.Timeseries().Start()

	feeder, err := app.AttachDriver("feeder0")
	if err != nil {
		t.Fatal(err)
	}
	coll, err := app.AttachDriver("collector")
	if err != nil {
		t.Fatal(err)
	}
	c := codec.Default()

	// Sustained background load: the feeder keeps the pool busy while the
	// collector drains, so every window has traffic to judge.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { //archlint:spawn test feeder; exits when stop closes or the port errors out
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			data, err := c.EncodeValue(state.IntValue(int64(i)))
			if err != nil {
				return
			}
			if err := feeder.Write("out", data); err != nil {
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()
	go func() { //archlint:spawn test collector drain; exits when the collector port closes
		defer wg.Done()
		for {
			if _, err := coll.Read("in"); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() { close(stop); app.Stop(); wg.Wait() })

	// Warm up until every member has windowed history and checkpoints.
	waitUntil(t, "four windows rolled", func() bool { return app.Timeseries().Rolled() >= 4 })

	victim := sup.Status().Members[0].Name
	degradedAt := time.Now()
	degraded.Store(victim)

	// With the supervisor not yet armed, the verdict surface alone must
	// flag the member: poll /health/{victim} until Degraded or Critical.
	base := serveObs(t, app)
	var verdict struct {
		Level   string           `json:"level"`
		Reasons []string         `json:"reasons"`
		Windows []map[string]any `json:"evidence,omitempty"`
	}
	waitUntil(t, "/health/"+victim+" left healthy", func() bool {
		code, body := httpGet(t, base+"/health/"+victim)
		if code != 200 {
			t.Fatalf("/health/%s: status %d", victim, code)
		}
		if err := json.Unmarshal([]byte(body), &verdict); err != nil {
			t.Fatalf("bad verdict: %v\n%s", err, body)
		}
		return verdict.Level == "degraded" || verdict.Level == "critical"
	})

	// Arm the supervisor: the critical verdict must drive a mark-out through
	// the health path and a rebuild back to 3 members, within bounded
	// windows (the waitUntil deadline is ~400 windows; in practice a few).
	sup.Start()
	waitUntil(t, "health-verdict detection", func() bool { return sup.Stats().HealthDetected >= 1 })
	waitUntil(t, "rebuild after health mark-out", func() bool { return sup.Stats().Recovered >= 1 })
	detectLatency := time.Since(degradedAt)

	st := sup.Status()
	if len(st.Members) != 3 {
		t.Fatalf("group not restored to 3 members: %+v", st)
	}
	for _, m := range st.Members {
		if m.Name == victim {
			t.Fatalf("degraded member %s still in the group: %+v", victim, st)
		}
	}

	// The event log must carry the verdict transition with its evidence
	// windows, and the recovery that followed it.
	var sawVerdict, sawRecovered bool
	for _, r := range app.Events().Since(0) {
		if r.Source == "supervisor" && r.Instance == victim &&
			(r.Kind == "health_critical" || r.Kind == "health_degraded") {
			if !strings.Contains(r.Detail, "evidence") {
				t.Errorf("health event for %s lacks evidence windows: %s", victim, r.Detail)
			}
			sawVerdict = true
		}
		if r.Source == "supervisor" && r.Kind == "recovered" && r.Instance == victim {
			sawRecovered = true
		}
	}
	if !sawVerdict {
		t.Errorf("no health_* event for %s in the event log", victim)
	}
	if !sawRecovered {
		t.Errorf("no recovered event for %s in the event log", victim)
	}
	t.Logf("degraded %s flagged and replaced in %v (~%d windows)",
		victim, detectLatency, detectLatency/(25*time.Millisecond))
}

// TestSelfHealNoFalseStallUnderCPULoad is the one detector's false-positive
// regression: three healthy replicas under steady traffic while
// GOMAXPROCS busy loops compete for every CPU, judged by the supervisor for
// at least ten roller windows. A member starved of CPU for a moment is
// still consuming within every window, so no verdict may turn Critical.
func TestSelfHealNoFalseStallUnderCPULoad(t *testing.T) {
	worker := func(rt *mh.Runtime) {
		rt.Init()
		for {
			if rt.QueryIfMsgs("in") {
				var n int
				rt.Read("in", &n)
				rt.Write("out", n)
			} else {
				rt.Sleep(1)
			}
		}
	}
	app, err := Load(Config{
		SpecText: chaosSpec(bus.PolicyRoundRobin),
		Native: map[string]NativeModule{
			"worker":    worker,
			"feeder":    func(rt *mh.Runtime) {},
			"collector": func(rt *mh.Runtime) {},
		},
		SleepUnit:        time.Microsecond,
		TimeseriesWindow: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := app.Launch(fmt.Sprintf("pool.%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	feeder, err := app.AttachDriver("feeder0")
	if err != nil {
		t.Fatal(err)
	}
	coll, err := app.AttachDriver("collector")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() { //archlint:spawn test CPU burner; exits when stop closes
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	// The feeder keeps up to 16 messages in flight (a credit per message,
	// returned when the collector takes it), so traffic runs as fast as
	// the pool answers and members often have input queued.
	credits := make(chan struct{}, 16)
	var collected atomic.Int64
	wg.Add(2)
	go func() { //archlint:spawn test feeder; exits when stop closes or the port errors out
		defer wg.Done()
		c := codec.Default()
		for i := 0; ; i++ {
			select {
			case credits <- struct{}{}:
			case <-stop:
				return
			}
			data, err := c.EncodeValue(state.IntValue(int64(i)))
			if err != nil {
				return
			}
			if err := feeder.Write("out", data); err != nil {
				return
			}
		}
	}()
	go func() { //archlint:spawn test collector drain; exits when the collector port closes
		defer wg.Done()
		for {
			if _, err := coll.Read("in"); err != nil {
				return
			}
			collected.Add(1)
			<-credits
		}
	}()
	t.Cleanup(func() { close(stop); app.Stop(); wg.Wait() })

	sup := app.Supervisor("pool")
	app.Timeseries().Start()
	sup.Start()
	waitUntil(t, "twelve windows judged", func() bool { return app.Timeseries().Rolled() >= 12 })
	sup.Stop()

	if st := sup.Stats(); st.Detected != 0 {
		t.Errorf("healthy replicas marked out under CPU load: %+v", st)
	}
	for _, r := range app.Events().Since(0) {
		if r.Source == "supervisor" && r.Kind == "health_critical" {
			t.Errorf("critical verdict on a healthy replica: %s %s", r.Instance, r.Detail)
		}
	}
	if collected.Load() == 0 {
		t.Error("no traffic flowed through the pool")
	}
}
