package reconfig

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/faultinject"
)

// TestPlanIsWhatRuns pins the dry run to the run on the Figure 5 monitor
// scenario: PlanReplace and ReplaceTx read one table, so the plan minus its
// "commit" marker is exactly the Steps of the transaction that follows —
// with and without a pre-flight gate — and a vetoed transaction's Steps stop
// at the preflight step with only the clone's registration to undo.
func TestPlanIsWhatRuns(t *testing.T) {
	veto := errors.New("outputs diverge")
	for _, tc := range []struct {
		name      string
		preflight func(old, new string) error
	}{
		{"no preflight", nil},
		{"preflight passes", func(string, string) error { return nil }},
		{"preflight vetoes", func(string, string) error { return veto }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, feed := startMidRecursion(t, 3)
			opts := ReplaceOptions{NewName: "compute2", Machine: "machineB", Preflight: tc.preflight}
			plan, err := PlanReplace(w.p, "compute", opts)
			if err != nil {
				t.Fatal(err)
			}
			gate := slices.Index(plan, "preflight compute -> compute2")
			if (gate >= 0) != (tc.preflight != nil) {
				t.Fatalf("preflight line at %d of the plan, gate set: %v\n%s", gate, tc.preflight != nil, strings.Join(plan, "\n"))
			}
			commit := slices.Index(plan, "commit")
			want := slices.Delete(slices.Clone(plan), commit, commit+1)

			if tc.name != "preflight vetoes" {
				feed(60) // a vetoed script never signals: nothing to feed after
			}
			res, err := ReplaceTx(w.p, w, "compute", opts)
			if errors.Is(err, veto) {
				want = want[:gate]
				if !strings.Contains(err.Error(), "reconfig: preflight compute -> compute2: outputs diverge") {
					t.Errorf("veto error %q does not name the step", err)
				}
				if rb := []RollbackStep{{Action: "delete_clone"}}; !reflect.DeepEqual(res.Rollback, rb) {
					t.Errorf("rollback = %+v, want exactly %+v", res.Rollback, rb)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Steps, want) {
				t.Errorf("steps:\n%s\nwant, from the plan:\n%s", strings.Join(res.Steps, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}

// configOf renders what a rollback must restore: every instance with its
// module, machine, status and queued-message counts, the bindings, and the
// replica groups' members.
func configOf(t *testing.T, b *bus.Bus) string {
	t.Helper()
	var lines []string
	for _, name := range b.Instances() {
		info, err := b.Info(name)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("instance %s %s/%s/%s pending %v", name, info.Module, info.Machine, info.Status, info.Pending))
	}
	var binds []string
	for _, bd := range b.Bindings() {
		binds = append(binds, fmt.Sprintf("bind %s <-> %s", bd.A, bd.B))
	}
	sort.Strings(binds)
	lines = append(lines, binds...)
	for _, g := range b.Routing().Groups() {
		lines = append(lines, fmt.Sprintf("group %s %v", g.Name, g.Members))
	}
	return strings.Join(lines, "\n")
}

// TestScriptRollbackFaultMatrix kills the self-heal and the Replicate
// scripts before every step of their own forward path — the rows are the
// table's, armed through the operator's FAULTPOINTS syntax — and asserts
// each time that the steps completed are exactly the table's prefix, that
// every compensation succeeded and that the configuration is the
// pre-transaction one. (The Replace script's matrix runs against the whole
// application: TestReplaceRollbackFaultMatrix in the root package.) That
// every forward mutation has an inverse is thereby checked by execution: a
// step listed without its undo fails the rows after it.
func TestScriptRollbackFaultMatrix(t *testing.T) {
	kill := func(t *testing.T, b *bus.Bus, s *script, run func() (*TxResult, error)) {
		t.Helper()
		seen := map[string]bool{}
		for k, st := range s.steps[:s.commit] {
			primitive, _, _ := strings.Cut(st.name, " ")
			site := "reconfig." + primitive
			if seen[site] {
				continue // a failpoint kills the first step of its primitive
			}
			seen[site] = true
			faults, err := faultinject.Parse(site + "=error:x1")
			if err != nil {
				t.Fatalf("step %q: %v", st.name, err)
			}
			pre := configOf(t, b)
			b.SetFaults(faults)
			res, err := run()
			if !errors.Is(err, faultinject.ErrInjected) || !res.RolledBack || res.Committed {
				t.Fatalf("killed before %q: result %+v, err %v; want an injected fault rolled back", st.name, res, err)
			}
			if want := s.plan()[:k]; !slices.Equal(res.Steps, want) {
				t.Errorf("killed before %q: steps %q, want the table's first %d", st.name, res.Steps, k)
			}
			for _, rb := range res.Rollback {
				if rb.Err != "" {
					t.Errorf("killed before %q: compensation %s failed: %s", st.name, rb.Action, rb.Err)
				}
			}
			if got := configOf(t, b); got != pre {
				t.Errorf("killed before %q: configuration did not converge:\n%s\nwant:\n%s", st.name, got, pre)
			}
		}
		b.SetFaults(nil)
	}

	t.Run("replicate", func(t *testing.T) {
		w := newMonitorWorld(t)
		if err := w.Launch("compute"); err != nil {
			t.Fatal(err)
		}
		s, err := replicateScript(w.b, w, "compute", "computeB", "machineB")
		if err != nil {
			t.Fatal(err)
		}
		kill(t, w.b, s, func() (*TxResult, error) { return Replicate(w.p, w, "compute", "computeB", "machineB") })
		// Nothing of the killed attempts is in the way of the one that runs.
		if res, err := Replicate(w.p, w, "compute", "computeB", "machineB"); err != nil || !slices.Equal(res.Steps, s.plan()[:s.commit]) {
			t.Fatalf("replicate after the matrix: %+v, %v", res, err)
		}
	})

	t.Run("selfheal", func(t *testing.T) {
		w := newReplicaWorld(t)
		for i := 1; i <= 6; i++ {
			w.send(i)
		}
		w.awaitSink(6) // every member has processed and checkpointed
		// Mark pool.2 out as the supervisor would on detection, then stop
		// it; with Poll never called, the rebuilds are this test's.
		if err := w.b.RemoveGroupMember("pool", "pool.2"); err != nil {
			t.Fatal(err)
		}
		w.setFlag(w.killed, "pool.2", true)
		w.sup.mu.Lock()
		ckpt := w.sup.ckpts["pool.2"]
		w.sup.mu.Unlock()
		heal := func() (*TxResult, error) {
			return ReplaceFromCheckpointTx(w.p, w, "pool", "pool.2", "pool.4", ckpt, w.sup.cfg.Timeouts)
		}
		s, err := selfhealScript(w.b, w, "pool", "pool.2", "pool.4", ckpt, w.sup.cfg.Timeouts)
		if err != nil {
			t.Fatal(err)
		}
		kill(t, w.b, s, heal)
		if res, err := heal(); err != nil || !res.Committed {
			t.Fatalf("heal after the matrix: %+v, %v", res, err)
		}
		if ms := w.members(); !slices.Equal(ms, []string{"pool.1", "pool.3", "pool.4"}) {
			t.Fatalf("members after the heal = %v", ms)
		}
		for i := 0; i < 6; i++ {
			w.send(1)
		}
		w.awaitSink(6)
	})
}
