package reconf

// Record/replay acceptance suite: a seeded three-stage pipeline (source ->
// filter -> sink, the filter interpreted and hot-swappable) driven with a
// deterministic workload. The properties under test are the PR's
// acceptance criteria: two recordings of the same seeded run render
// identical canonical logs, a replay reproduces the recorded output
// sequence byte-for-byte, the PreflightReplay gate lets a
// behavior-identical candidate commit and vetoes a divergent one through
// the journaled rollback, and the /record, /replay/{id} and control-plane
// surfaces expose it all.

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/codec"
	"repro/internal/mh"
	"repro/internal/reconfig"
	"repro/internal/replay"
	"repro/internal/state"
)

const pipeSpec = `
module psource {
  source = "./psource" ::
  define interface out pattern = {integer} ::
}

module filter {
  source = "./filter" ::
  use interface in pattern = {^integer} ::
  define interface out pattern = {integer} ::
  reconfiguration point = {R} ::
}

module filterV2 {
  source = "./filterV2" ::
  use interface in pattern = {^integer} ::
  define interface out pattern = {integer} ::
  reconfiguration point = {R} ::
}

module filterBad {
  source = "./filterBad" ::
  use interface in pattern = {^integer} ::
  define interface out pattern = {integer} ::
  reconfiguration point = {R} ::
}

module psink {
  source = "./psink" ::
  use interface in pattern = {^integer} ::
}

module pipe {
  instance psource
  instance filter
  instance psink
  bind "psource out" "filter in"
  bind "filter out" "psink in"
}
`

// filterSrc triples-and-increments each value. filterV2Src computes the
// same function a different way (the replay gate must see identical
// outputs); filterBadSrc drops the increment (the gate must veto it).
const filterSrc = `package filter

func main() {
	var x int
	mh.Init()
	for {
		mh.ReconfigPoint("R")
		mh.Read("in", &x)
		mh.Write("out", x*3+1)
	}
}
`

const filterV2Src = `package filterV2

func main() {
	var x int
	mh.Init()
	for {
		mh.ReconfigPoint("R")
		mh.Read("in", &x)
		mh.Write("out", x+x+x+1)
	}
}
`

const filterBadSrc = `package filterBad

func main() {
	var x int
	mh.Init()
	for {
		mh.ReconfigPoint("R")
		mh.Read("in", &x)
		mh.Write("out", x*3)
	}
}
`

type pipeHarness struct {
	t    *testing.T
	app  *App
	c    codec.Codec
	src  bus.Port
	sink bus.Port
}

func loadPipe(t *testing.T, preflight bool) *pipeHarness {
	t.Helper()
	app, err := Load(Config{
		SpecText: pipeSpec,
		Sources: map[string]ModuleSource{
			"filter":    {Files: map[string]string{"filter.go": filterSrc}},
			"filterV2":  {Files: map[string]string{"filter.go": filterV2Src}},
			"filterBad": {Files: map[string]string{"filter.go": filterBadSrc}},
		},
		Native: map[string]NativeModule{
			// Driven by the test through AttachDriver.
			"psource": func(rt *mh.Runtime) {},
			"psink":   func(rt *mh.Runtime) {},
		},
		SleepUnit:       time.Microsecond,
		Timeouts:        reconfig.Timeouts{StateMove: 10 * time.Second},
		RecordBuffer:    1024,
		PreflightReplay: preflight,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Stop)
	h := &pipeHarness{t: t, app: app, c: codec.Default()}
	if err := app.Launch("filter"); err != nil {
		t.Fatal(err)
	}
	if h.src, err = app.AttachDriver("psource"); err != nil {
		t.Fatal(err)
	}
	if h.sink, err = app.AttachDriver("psink"); err != nil {
		t.Fatal(err)
	}
	return h
}

func (h *pipeHarness) send(v int) {
	h.t.Helper()
	data, err := h.c.EncodeValue(state.IntValue(int64(v)))
	if err != nil {
		h.t.Fatal(err)
	}
	if err := h.src.Write("out", data); err != nil {
		h.t.Fatal(err)
	}
}

func (h *pipeHarness) recv() int {
	h.t.Helper()
	m, err := h.sink.Read("in")
	if err != nil {
		h.t.Fatal(err)
	}
	v, err := h.c.DecodeValue(m.Data)
	if err != nil {
		h.t.Fatal(err)
	}
	return int(v.Int)
}

// drive pushes vals through the pipeline and asserts each filtered result.
func (h *pipeHarness) drive(vals ...int) {
	h.t.Helper()
	for _, v := range vals {
		h.send(v)
	}
	for _, v := range vals {
		if got, want := h.recv(), v*3+1; got != want {
			h.t.Fatalf("filtered %d = %d, want %d", v, got, want)
		}
	}
}

// TestRecordDeterminism: the same seeded run, recorded twice in two fresh
// applications, renders byte-identical canonical logs.
func TestRecordDeterminism(t *testing.T) {
	canonOf := func() string {
		h := loadPipe(t, false)
		h.drive(4, 7, 1, 9, 2)
		return replay.Canonical(h.app.Recorder().Snapshot())
	}
	first, second := canonOf(), canonOf()
	if first == "" {
		t.Fatal("empty canonical log")
	}
	if first != second {
		t.Errorf("two recordings of the same seeded run differ:\n--- run 1\n%s--- run 2\n%s", first, second)
	}
	if !strings.Contains(first, "queue filter.in (5)") || !strings.Contains(first, "queue psink.in (5)") {
		t.Errorf("canonical log missing expected queues:\n%s", first)
	}
}

// TestReplayReproducesRecording: re-running the filter's recorded window
// against its own module reproduces the recorded output sequence exactly.
func TestReplayReproducesRecording(t *testing.T) {
	h := loadPipe(t, false)
	h.drive(3, 8, 5, 12)
	rep, err := h.app.ReplayRecorded("filter", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match {
		t.Fatalf("replay diverged: %+v", rep)
	}
	if rep.Window != 4 || rep.Consumed != 4 || rep.Expected != 4 || rep.Replayed != 4 {
		t.Errorf("replay report = %+v, want 4 inputs / 4 outputs", rep)
	}
	if rep.Module != "filter" || rep.Instance != "filter" {
		t.Errorf("replay identity = %s/%s", rep.Instance, rep.Module)
	}
}

// TestPreflightReplayCommits: a behavior-identical candidate passes the
// replay gate and the hot swap commits, state carried across.
func TestPreflightReplayCommits(t *testing.T) {
	h := loadPipe(t, true)
	h.drive(2, 6, 11)

	// Release the filter to its next reconfiguration point once the
	// replacement signal is pending.
	go func() {
		time.Sleep(30 * time.Millisecond)
		h.send(40)
	}()
	res, err := h.app.ReplaceTx("filter", reconfig.ReplaceOptions{NewName: "filter2", Module: "filterV2"})
	if err != nil {
		t.Fatalf("behavior-identical candidate was rejected: %v", err)
	}
	if !res.Committed {
		t.Fatalf("gate passed but transaction did not commit: %+v", res)
	}
	if got, want := h.recv(), 40*3+1; got != want {
		t.Errorf("in-flight value after swap = %d, want %d", got, want)
	}
	// The new module serves the stream.
	h.drive(13)
	topo := h.app.Topology()
	if !strings.Contains(topo, "filter2") || strings.Contains(topo, "instance filter (") {
		t.Errorf("topology after commit:\n%s", topo)
	}
}

// TestPreflightReplayRollback: a divergent candidate is vetoed by the
// replay gate before commit; the transaction rolls back through the
// journal, the configuration converges to the pre-transaction snapshot,
// and the old module keeps serving.
func TestPreflightReplayRollback(t *testing.T) {
	h := loadPipe(t, true)
	h.drive(2, 6, 11)
	before := snapshotConfig(t, h.app)

	go func() {
		time.Sleep(30 * time.Millisecond)
		h.send(40)
	}()
	res, err := h.app.ReplaceTx("filter", reconfig.ReplaceOptions{NewName: "filter2", Module: "filterBad"})
	if err == nil {
		t.Fatal("divergent candidate committed")
	}
	if !strings.Contains(err.Error(), "replay gate") || !strings.Contains(err.Error(), "diverges") {
		t.Errorf("error does not name the replay gate: %v", err)
	}
	if !strings.Contains(err.Error(), "rolled back") {
		t.Errorf("error does not report the rollback: %v", err)
	}
	if res == nil || !res.RolledBack || res.Committed {
		t.Fatalf("tx result = %+v, want rolled back", res)
	}

	// The in-flight release value was processed by the old module (before
	// its state was captured) and must not be lost.
	if got, want := h.recv(), 40*3+1; got != want {
		t.Errorf("in-flight value after rollback = %d, want %d", got, want)
	}
	// Convergence: the configuration equals the pre-transaction snapshot.
	after := snapshotConfig(t, h.app)
	assertSnapshotsEqual(t, before, after)
	// And the resurrected old filter keeps serving new traffic.
	h.drive(21, 34)
}

// TestPreflightVetoBeforeCandidateServes: the gate runs while the old module
// is still the only one bound. The callback plays the gate: it pushes live
// traffic at the stage, collects the outputs, then vetoes. Every output
// must carry the old module's function — a candidate that was already
// launched and bound when the gate ran would have answered instead, and the
// rollback could not take those answers back.
func TestPreflightVetoBeforeCandidateServes(t *testing.T) {
	h := loadPipe(t, false)
	h.drive(2, 6, 11)
	before := snapshotConfig(t, h.app)

	// Lets the filter reach its reconfiguration point should the signal
	// already be pending when the gate runs.
	released := make(chan struct{})
	go func() {
		defer close(released)
		time.Sleep(30 * time.Millisecond)
		h.send(40)
	}()
	vals := []int{5, 17, 3, 29, 8, 1, 13, 21}
	var got []int
	res, err := h.app.ReplaceTx("filter", reconfig.ReplaceOptions{
		NewName: "filter2", Module: "filterBad",
		Preflight: func(old, new string) error {
			<-released
			got = append(got, h.recv())
			for _, v := range vals {
				h.send(v)
			}
			for range vals {
				got = append(got, h.recv())
			}
			return errors.New("vetoed")
		},
	})
	if err == nil || res == nil || !res.RolledBack || res.Committed {
		t.Fatalf("tx result = %+v, err = %v; want a veto rolled back", res, err)
	}
	for i, v := range append([]int{40}, vals...) {
		if i >= len(got) || got[i] != v*3+1 {
			t.Fatalf("outputs while the gate ran = %v; output %d is not the old module's %d*3+1", got, i, v)
		}
	}
	for _, step := range res.Rollback {
		if step.Action == "inverse_rebind" || step.Action == "release_old" {
			t.Errorf("veto rolled back %s: the gate ran after the old module was disturbed", step.Action)
		}
	}
	assertSnapshotsEqual(t, before, snapshotConfig(t, h.app))
	// Nothing was duplicated or left behind: the next outputs are exactly
	// the next inputs'.
	h.drive(21, 34)
}

// assertSnapshotsEqual compares two configuration snapshots field by field
// (pending counts may legitimately differ only by zero entries).
func assertSnapshotsEqual(t *testing.T, before, after cfgSnapshot) {
	t.Helper()
	for name, sig := range before.Instances {
		if after.Instances[name] != sig {
			t.Errorf("instance %s: %q -> %q", name, sig, after.Instances[name])
		}
	}
	for name := range after.Instances {
		if _, ok := before.Instances[name]; !ok {
			t.Errorf("instance %s appeared during rollback", name)
		}
	}
	if strings.Join(before.Bindings, ";") != strings.Join(after.Bindings, ";") {
		t.Errorf("bindings diverged:\nbefore %v\nafter  %v", before.Bindings, after.Bindings)
	}
}

// TestRecordObsEndpoints: /record reports and toggles the ring;
// /replay/{id} replays the current window.
func TestRecordObsEndpoints(t *testing.T) {
	h := loadPipe(t, false)
	base := serveObs(t, h.app)
	h.drive(5, 9)

	code, body := httpGet(t, base+"/record")
	if code != http.StatusOK {
		t.Fatalf("/record returned %d", code)
	}
	var st RecordStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Configured || !st.Enabled || st.Capacity != 1024 || st.Recorded != 4 {
		t.Errorf("/record status = %+v", st)
	}
	found := false
	for _, q := range st.Queues {
		if q.Endpoint == "filter.in" && q.Seq == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("/record queues missing filter.in: %+v", st.Queues)
	}

	if code, _ := httpGet(t, base+"/record?enable=off"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /record?enable=off -> %d, want 405: a GET must not flip recording", code)
	}
	if !h.app.Recorder().Enabled() {
		t.Error("GET /record?enable=off disabled recording")
	}
	code, body = httpPost(t, base+"/record?enable=off")
	if code != http.StatusOK || !strings.Contains(body, `"enabled": false`) {
		t.Errorf("POST /record?enable=off -> %d %s", code, body)
	}
	h.drive(6)
	if got := h.app.Recorder().Recorded(); got != 4 {
		t.Errorf("recorded while disabled: %d", got)
	}
	code, _ = httpPost(t, base+"/record?enable=on")
	if code != http.StatusOK {
		t.Errorf("/record?enable=on -> %d", code)
	}
	if code, _ := httpPost(t, base+"/record?enable=sideways"); code != http.StatusBadRequest {
		t.Errorf("bad enable value -> %d", code)
	}

	code, body = httpGet(t, base+"/replay/filter")
	if code != http.StatusOK {
		t.Fatalf("/replay/filter returned %d: %s", code, body)
	}
	var rep ReplayReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Match {
		t.Errorf("/replay/filter did not reproduce: %+v", rep)
	}
	if code, _ := httpGet(t, base+"/replay/"); code != http.StatusBadRequest {
		t.Errorf("/replay/ without instance -> %d", code)
	}
	if code, _ := httpGet(t, base+"/replay/ghost"); code != http.StatusNotFound {
		t.Errorf("/replay/ghost -> %d", code)
	}
}

// TestRecordObsUnconfigured: toggling recording on an application loaded
// without a record ring conflicts.
func TestRecordObsUnconfigured(t *testing.T) {
	app := loadMonitor(t, 0)
	t.Cleanup(app.Stop)
	base := serveObs(t, app)
	code, body := httpGet(t, base+"/record")
	if code != http.StatusOK || !strings.Contains(body, `"configured": false`) {
		t.Errorf("/record on unconfigured app -> %d %s", code, body)
	}
	if code, _ := httpPost(t, base+"/record?enable=on"); code != http.StatusConflict {
		t.Errorf("enable on unconfigured app -> %d", code)
	}
}

// TestControlRecordReplay: the control plane's record and replay ops.
func TestControlRecordReplay(t *testing.T) {
	h := loadPipe(t, false)
	_, c := serveOps(t, h.app)

	h.drive(7, 3)

	status, err := c.Call("record")
	if err != nil || !strings.Contains(status, `"recorded": 4`) {
		t.Errorf("record status = %q, %v", status, err)
	}
	status, err = c.Call("record", "off")
	if err != nil || !strings.Contains(status, `"enabled": false`) {
		t.Errorf("record off = %q, %v", status, err)
	}
	if _, err := c.Call("record", "on"); err != nil {
		t.Errorf("record on: %v", err)
	}

	rep, err := c.Call("replay", "filter")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, `"match": true`) {
		t.Errorf("control replay report = %s", rep)
	}
	if _, err := c.Call("replay", "ghost"); err == nil {
		t.Error("replay of unknown instance accepted")
	}
}

// TestMhreplayCLIReproduces records a pipeline run to a spill file, then
// drives cmd/mhreplay against it offline — the full record -> spill ->
// replay loop through the shipped binary (acceptance criterion).
func TestMhreplayCLIReproduces(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs cmd/mhreplay")
	}
	dir := t.TempDir()
	spill, err := os.Create(filepath.Join(dir, "run.rec"))
	if err != nil {
		t.Fatal(err)
	}

	app, err := Load(Config{
		SpecText: pipeSpec,
		Sources: map[string]ModuleSource{
			"filter":    {Files: map[string]string{"filter.go": filterSrc}},
			"filterV2":  {Files: map[string]string{"filter.go": filterV2Src}},
			"filterBad": {Files: map[string]string{"filter.go": filterBadSrc}},
		},
		Native: map[string]NativeModule{
			"psource": func(rt *mh.Runtime) {},
			"psink":   func(rt *mh.Runtime) {},
		},
		SleepUnit:    time.Microsecond,
		Timeouts:     reconfig.Timeouts{StateMove: 10 * time.Second},
		RecordBuffer: 1024,
		RecordSpill:  spill,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := &pipeHarness{t: t, app: app, c: codec.Default()}
	if err := app.Launch("filter"); err != nil {
		t.Fatal(err)
	}
	if h.src, err = app.AttachDriver("psource"); err != nil {
		t.Fatal(err)
	}
	if h.sink, err = app.AttachDriver("psink"); err != nil {
		t.Fatal(err)
	}
	h.drive(10, 20, 30)
	app.Stop()
	if err := spill.Close(); err != nil {
		t.Fatal(err)
	}

	// Lay out the spec and module sources the way the CLI expects them.
	specPath := filepath.Join(dir, "app.mil")
	if err := os.WriteFile(specPath, []byte(cliPipeSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	srcRoot := filepath.Join(dir, "modules")
	for mod, src := range map[string]string{"filter": filterSrc} {
		if err := os.MkdirAll(filepath.Join(srcRoot, mod), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(srcRoot, mod, "main.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// -canon prints the deterministic per-queue log.
	out, err := exec.Command("go", "run", "./cmd/mhreplay",
		"-log", spill.Name(), "-canon").CombinedOutput()
	if err != nil {
		t.Fatalf("mhreplay -canon: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "queue filter.in (3)") {
		t.Errorf("-canon output:\n%s", out)
	}

	// Replaying the filter must reproduce the recording and exit 0.
	out, err = exec.Command("go", "run", "./cmd/mhreplay",
		"-log", spill.Name(), "-spec", specPath, "-srcdir", srcRoot, "-inst", "filter").CombinedOutput()
	if err != nil {
		t.Fatalf("mhreplay replay: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "reproduced: replayed output sequence matches the recording") {
		t.Errorf("mhreplay output:\n%s", out)
	}
}

// cliPipeSpec is the offline replay's view of the application: only the
// module under replay needs a runnable source.
const cliPipeSpec = `
module filter {
  source = "./filter" ::
  use interface in pattern = {^integer} ::
  define interface out pattern = {integer} ::
  reconfiguration point = {R} ::
}

module pipe {
  instance filter
}
`
