package reconf

// Fault-injection matrix for the transactional replacement script: kill a
// Replace before every step and assert the rollback converges — the
// application is left answering traffic through the original module with
// instances, bindings, and queued messages equal to the pre-transaction
// snapshot. The paper's claim is that reconfiguration is transparent to the
// application; these tests extend that to *failed* reconfigurations.

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/faultinject"
	"repro/internal/reconfig"
)

// cfgSnapshot captures everything a rollback must restore: the instance set
// (with module, machine, and status), the binding set, and the
// queued-message count per receiving interface.
type cfgSnapshot struct {
	Instances map[string]string
	Bindings  []string
	Pending   map[string]int
}

func snapshotConfig(t *testing.T, app *App) cfgSnapshot {
	t.Helper()
	s := cfgSnapshot{Instances: map[string]string{}, Pending: map[string]int{}}
	for _, name := range app.Bus().Instances() {
		info, err := app.Bus().Info(name)
		if err != nil {
			t.Fatal(err)
		}
		s.Instances[name] = fmt.Sprintf("%s/%s/%s", info.Module, info.Machine, info.Status)
		for ifc, n := range info.Pending {
			s.Pending[name+"."+ifc] = n
		}
	}
	for _, b := range app.Bus().Bindings() {
		x, y := b.A.String(), b.B.String()
		if y < x {
			x, y = y, x
		}
		s.Bindings = append(s.Bindings, x+"|"+y)
	}
	sort.Strings(s.Bindings)
	return s
}

// startInterrupted loads the monitor, launches compute, and interrupts it
// mid-recursion (a three-reading request with no temperatures yet), so real
// partial state is in flight when a reconfiguration begins. The returned
// feed sends the first temperature shortly after the caller starts the
// script, releasing the module to reach its next reconfiguration point.
func startInterrupted(t *testing.T) (*App, *driver, func()) {
	t.Helper()
	app := loadMonitor(t, 0)
	t.Cleanup(app.Stop)
	d := newDriver(t, app)
	if err := app.Launch("compute"); err != nil {
		t.Fatal(err)
	}
	d.requestTaken("compute", 3)
	feed := func() {
		go func() {
			time.Sleep(30 * time.Millisecond)
			d.temperature(60)
		}()
	}
	return app, d, feed
}

// finishComputation drives the two remaining readings and checks the full
// three-reading average: the first temperature (60) must have survived the
// reconfiguration — whether carried in divulged state or returned to the
// queue — or the sum comes out wrong.
func finishComputation(t *testing.T, d *driver) {
	t.Helper()
	d.temperature(70)
	d.temperature(80)
	want := 60.0/3 + 70.0/3 + 80.0/3
	if got := d.response(); got != want {
		t.Errorf("answer after reconfiguration = %g, want %g", got, want)
	}
}

// TestReplaceRollbackFaultMatrix kills Replace before every step of its own
// forward path and asserts full convergence back to the pre-transaction
// configuration. The rows are the dry run's: for each primitive above the
// plan's "commit" line, the engine's failpoint "reconfig.<primitive>" is
// armed through the operator's FAULTPOINTS syntax. Hand-written rows remain
// only for what no step name expresses, a fault inside a step: the failpoints
// the bus wires into its own operations (one of them a signal reported
// delivered and dropped, one the clone's attachment, which is no step's
// first action) and the launcher's.
func TestReplaceRollbackFaultMatrix(t *testing.T) {
	opts := reconfig.ReplaceOptions{NewName: "compute2", Preflight: func(old, new string) error { return nil }}
	planner := loadMonitor(t, 0)
	plan, err := planner.PlanReplace("compute", opts)
	planner.Stop()
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		spec      string        // site=action, as FAULTPOINTS takes it
		steps     int           // steps completed before the kill; -1: a fault inside a step
		stateMove time.Duration // 0 = config default
	}
	var rows []row
	seen := map[string]bool{}
	for k, line := range plan[:slices.Index(plan, "commit")] {
		primitive, _, _ := strings.Cut(line, " ")
		if !seen[primitive] { // a failpoint kills the first step of its primitive
			seen[primitive] = true
			rows = append(rows, row{spec: "reconfig." + primitive + "=error", steps: k})
		}
	}
	for _, spec := range []string{"bus.addinstance=error", "bus.signal=error", "bus.awaitdivulged=error", "bus.installstate=error",
		"bus.rebind=error", "bus.attach=error", "reconfig.launch=error", "bus.awaitrestored=error"} {
		rows = append(rows, row{spec: spec, steps: -1})
	}
	// A dropped signal is a lost SIGHUP: the caller saw success, the module
	// never heard. The transaction aborts on the state-move timeout and
	// retracts the (never-delivered) request.
	rows = append(rows, row{"bus.signal=drop", -1, 1200 * time.Millisecond})
	for _, tc := range rows {
		site, action, _ := strings.Cut(tc.spec, "=")
		t.Run(site+"_"+action, func(t *testing.T) {
			t.Parallel()
			app, d, feed := startInterrupted(t)
			pre := snapshotConfig(t, app)

			faults, err := faultinject.Parse(tc.spec + ":x1")
			if err != nil {
				t.Fatal(err)
			}
			app.Bus().SetFaults(faults)

			feed()
			opts := opts
			opts.Timeouts.StateMove = tc.stateMove
			res, err := app.ReplaceTx("compute", opts)
			if err == nil {
				t.Fatalf("replace succeeded despite fault at %s", site)
			}
			if !strings.Contains(err.Error(), "rolled back") {
				t.Errorf("error %v does not report the rollback", err)
			}
			if action == "error" && !errors.Is(err, faultinject.ErrInjected) {
				t.Errorf("error %v does not wrap the injected fault", err)
			}
			if faults.Fired(site) == 0 {
				t.Fatalf("failpoint %s never fired", site)
			}
			if res == nil || !res.RolledBack || res.Committed {
				t.Fatalf("result = %+v, want rolled back and uncommitted", res)
			}
			if tc.steps >= 0 && !slices.Equal(res.Steps, plan[:tc.steps]) {
				t.Errorf("steps completed:\n%s\nwant the plan's first %d", strings.Join(res.Steps, "\n"), tc.steps)
			}
			for _, step := range res.Rollback {
				if step.Err != "" {
					t.Errorf("compensation %s failed: %s", step.Action, step.Err)
				}
			}

			// The configuration converges back to the pre-transaction
			// snapshot (the released module may still be consuming the
			// in-flight temperature, so poll briefly).
			deadline := time.Now().Add(5 * time.Second)
			for {
				got := snapshotConfig(t, app)
				if reflect.DeepEqual(got, pre) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("configuration did not converge:\n got %+v\nwant %+v", got, pre)
				}
				time.Sleep(10 * time.Millisecond)
			}

			// And the original module finishes the interrupted computation.
			finishComputation(t, d)
		})
	}
}

// TestReplaceFaultFreeEmptyRollback is the acceptance criterion's other
// half: a successful replacement commits with an empty rollback report.
func TestReplaceFaultFreeEmptyRollback(t *testing.T) {
	app, d, feed := startInterrupted(t)
	feed()
	res, err := app.ReplaceTx("compute", reconfig.ReplaceOptions{NewName: "compute2"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed || res.RolledBack || len(res.Rollback) != 0 || res.Err != nil {
		t.Fatalf("result = %+v, want committed with empty rollback", res)
	}
	steps := strings.Join(res.Steps, "\n")
	for _, want := range []string{"await_restored compute2", "chg_obj compute del"} {
		if !strings.Contains(steps, want) {
			t.Errorf("step trace missing %q:\n%s", want, steps)
		}
	}
	topo := app.Topology()
	if !strings.Contains(topo, "instance compute2 (module compute)") {
		t.Errorf("replacement missing from topology:\n%s", topo)
	}
	if strings.Contains(topo, "instance compute (") {
		t.Errorf("old instance survived a committed replace:\n%s", topo)
	}
	finishComputation(t, d)
}

// TestReplacePostCommitFaultCompletesForward arms a failpoint past the
// commit point: the replacement must NOT roll back — the clone is already
// authoritative — and the cleanup failure is reported for the operator.
func TestReplacePostCommitFaultCompletesForward(t *testing.T) {
	app, d, feed := startInterrupted(t)
	faults := faultinject.New()
	faults.Enable("bus.deleteinstance", faultinject.Point{Action: faultinject.Error, Count: 1})
	app.Bus().SetFaults(faults)

	feed()
	res, err := app.ReplaceTx("compute", reconfig.ReplaceOptions{NewName: "compute2"})
	if err == nil {
		t.Fatal("cleanup failure not reported")
	}
	if !strings.Contains(err.Error(), "cleanup failed") {
		t.Errorf("error %v does not identify the failure as post-commit cleanup", err)
	}
	if !res.Committed || res.RolledBack {
		t.Fatalf("result = %+v, want committed despite cleanup failure", res)
	}
	// Traffic flows through the replacement.
	finishComputation(t, d)
}

// TestConcurrentReplaceFailsFast hammers Replace from two goroutines (run
// under -race): exactly one wins; the loser fails fast with ErrReconfigBusy
// (or ErrNoInstance, if it arrived after the winner renamed the target).
func TestConcurrentReplaceFailsFast(t *testing.T) {
	app, d, feed := startInterrupted(t)
	feed()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = app.ReplaceTx("compute", reconfig.ReplaceOptions{
				NewName: fmt.Sprintf("compute%d", i+2),
			})
		}(i)
	}
	wg.Wait()

	var winners int
	for _, err := range errs {
		if err == nil {
			winners++
			continue
		}
		if !errors.Is(err, reconfig.ErrReconfigBusy) && !errors.Is(err, bus.ErrNoInstance) {
			t.Errorf("loser error = %v, want ErrReconfigBusy or ErrNoInstance", err)
		}
	}
	if winners != 1 {
		t.Fatalf("%d concurrent replaces succeeded, want exactly 1 (errors: %v)", winners, errs)
	}
	finishComputation(t, d)
}

// TestReplicateRollbackOnRebindFault: Replicate runs on the transaction
// engine, so a replica whose bindings could not be installed is unregistered
// again — the configuration is the pre-call one and a retry is not refused
// as a duplicate. (Before it did, the failed call left computeB registered
// and the retry returned ErrDupInstance.)
func TestReplicateRollbackOnRebindFault(t *testing.T) {
	app, d, feed := startInterrupted(t)
	pre := snapshotConfig(t, app)
	faults, err := faultinject.Parse("bus.rebind=error:x1")
	if err != nil {
		t.Fatal(err)
	}
	app.Bus().SetFaults(faults)

	if err := app.Replicate("compute", "computeB", "machineB"); !errors.Is(err, faultinject.ErrInjected) || !strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("replicate under bus.rebind=error:x1: %v, want the injected fault rolled back", err)
	}
	if got := snapshotConfig(t, app); !reflect.DeepEqual(got, pre) {
		t.Fatalf("configuration after the failed replicate:\n got %+v\nwant %+v", got, pre)
	}
	if err := app.Replicate("compute", "computeB", "machineB"); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if err := app.Remove("computeB"); err != nil {
		t.Fatal(err)
	}
	if got := snapshotConfig(t, app); !reflect.DeepEqual(got, pre) {
		t.Fatalf("configuration after replicate and remove:\n got %+v\nwant %+v", got, pre)
	}
	feed()
	finishComputation(t, d)
}

// TestConcurrentReplicateRemoveRefusedDuringReplace: every script serializes
// on the one transaction lock. Issued from inside a Replace (its pre-flight
// hook runs with the lock held, so the overlap needs no timing), Replicate
// and Remove are refused with ErrReconfigBusy and change nothing.
func TestConcurrentReplicateRemoveRefusedDuringReplace(t *testing.T) {
	app, d, feed := startInterrupted(t)
	var during []error
	feed()
	_, err := app.ReplaceTx("compute", reconfig.ReplaceOptions{NewName: "compute2", Preflight: func(old, new string) error {
		during = append(during, app.Replicate("display", "display2", ""), app.Remove("sensor"))
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range during {
		if !errors.Is(err, reconfig.ErrReconfigBusy) {
			t.Errorf("script issued during a Replace: %v, want ErrReconfigBusy", err)
		}
	}
	if got := app.Bus().Instances(); !slices.Equal(got, []string{"compute2", "display", "sensor"}) {
		t.Errorf("instances = %v: a refused script changed the configuration", got)
	}
	finishComputation(t, d)
}

// TestRollbackQueueGaugeMatchesDrainable pins the queue-depth telemetry
// against the ground truth after a fault-injected rollback. The gauge reads
// the ring's lock-free occupancy arithmetic (produced minus consumed plus
// the carried front list); QueuedMessages walks the actual drainable
// contents, skipping tombstoned slots. A rollback is the hard case: the
// backlog was fenced, moved to the clone, and moved back by compensation,
// so any slot the fence tombstoned along the way must not be counted.
func TestRollbackQueueGaugeMatchesDrainable(t *testing.T) {
	app, d, feed := startInterrupted(t)

	faults := faultinject.New()
	faults.Enable("bus.rebind", faultinject.Point{Action: faultinject.Error, Count: 1})
	app.Bus().SetFaults(faults)

	feed()
	res, err := app.ReplaceTx("compute", reconfig.ReplaceOptions{NewName: "compute2"})
	if err == nil || res == nil || !res.RolledBack {
		t.Fatalf("replace = %+v, %v; want fault-injected rollback", res, err)
	}

	// The released module keeps consuming, so gauge and walk race benignly;
	// poll until they agree for every receiving interface at once.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mismatch := ""
		snap := app.Telemetry().Snapshot()
		for _, name := range app.Bus().Instances() {
			qms, err := app.Bus().QueuedMessages(name)
			if err != nil {
				t.Fatal(err)
			}
			drainable := map[string]int64{}
			for _, qm := range qms {
				drainable[qm.Endpoint.Interface]++
			}
			info, err := app.Bus().Info(name)
			if err != nil {
				t.Fatal(err)
			}
			for ifc := range info.Pending {
				gauge := snap.Gauges["bus.iface."+name+"."+ifc+".queue_depth"]
				if gauge != drainable[ifc] {
					mismatch = fmt.Sprintf("%s.%s: gauge %d, drainable %d", name, ifc, gauge, drainable[ifc])
				}
			}
		}
		if mismatch == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue_depth gauge diverged from drainable contents: %s", mismatch)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// And the rollback left a live, correct configuration behind.
	finishComputation(t, d)
}
