package reconf

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/faultinject"
	"repro/internal/reconfig"
	"repro/internal/state"
)

// TestQuiesceAnnotatedWithQueuedTraces is the acceptance criterion for
// quiesce correlation: a committed replacement whose quiesce found messages
// queued toward the old module shows their trace IDs and ages on the
// quiesce_wait span of `reconfigctl trace <txid>`.
func TestQuiesceAnnotatedWithQueuedTraces(t *testing.T) {
	app, d, feed := startInterrupted(t)

	// A second display request queues at the busy module — the replacement's
	// quiesce will be waiting behind it.
	d.request(1)

	feed()
	res, err := app.ReplaceTx("compute", reconfig.ReplaceOptions{NewName: "compute2"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed || res.TxID == "" {
		t.Fatalf("replace result = %+v", res)
	}
	lines, err := app.TraceTx(res.TxID)
	if err != nil {
		t.Fatal(err)
	}
	timeline := strings.Join(lines, "\n")
	if !strings.Contains(timeline, "quiesce_wait") {
		t.Fatalf("timeline has no quiesce_wait span:\n%s", timeline)
	}
	if !strings.Contains(timeline, "queued compute.display trace=") {
		t.Errorf("quiesce_wait not annotated with the queued message's trace:\n%s", timeline)
	}
	if !strings.Contains(timeline, "age=") {
		t.Errorf("queued-message annotation carries no age:\n%s", timeline)
	}
	finishComputation(t, d)
}

// TestQueueDepthGaugesConsistentAfterRollback pins gauge consistency across
// cq/rmq transfers and rebind rollback: after a fault-injected rollback
// (fault fires after the queues moved to the clone, so the compensation
// moves them back), every queue_depth gauge equals the actual queue length
// and no gauge survives for the deleted clone.
func TestQueueDepthGaugesConsistentAfterRollback(t *testing.T) {
	app, d, feed := startInterrupted(t)
	pre := snapshotConfig(t, app)

	faults := faultinject.New()
	faults.Enable("bus.awaitrestored", faultinject.Point{Action: faultinject.Error, Count: 1})
	app.Bus().SetFaults(faults)

	feed()
	res, err := app.ReplaceTx("compute", reconfig.ReplaceOptions{NewName: "compute2"})
	if err == nil || res == nil || !res.RolledBack {
		t.Fatalf("replace = %+v, %v; want rollback", res, err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for !reflect.DeepEqual(snapshotConfig(t, app), pre) {
		if time.Now().After(deadline) {
			t.Fatal("configuration did not converge after rollback")
		}
		time.Sleep(10 * time.Millisecond)
	}

	gauges := app.Telemetry().Snapshot().Gauges
	checked := 0
	for _, name := range app.Bus().Instances() {
		info, err := app.Bus().Info(name)
		if err != nil {
			t.Fatal(err)
		}
		for iface, depth := range info.Pending {
			key := fmt.Sprintf("bus.iface.%s.%s.queue_depth", name, iface)
			got, ok := gauges[key]
			if !ok {
				t.Errorf("no gauge %s", key)
				continue
			}
			if got != int64(depth) {
				t.Errorf("%s = %d, actual queue length %d", key, got, depth)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("no queue_depth gauges found")
	}
	for key := range gauges {
		if strings.HasPrefix(key, "bus.iface.compute2.") {
			t.Errorf("gauge %s survived the clone's rollback deletion", key)
		}
	}
	finishComputation(t, d)
}

// loadStagePipeline loads source -> stage -> sink with the given stage
// program and launches the stage; the two ends are driven from the test and
// never launched.
func loadStagePipeline(t *testing.T, cfg Config, stageSrc string) *App {
	t.Helper()
	cfg.SpecText = `
module source {
  source = "./source" ::
  define interface out pattern = {integer} ::
}
module stage {
  source = "./stage" ::
  use interface in pattern = {integer} ::
  define interface out pattern = {integer} ::
  reconfiguration point = {R} ::
}
module sink {
  source = "./sink" ::
  use interface in pattern = {integer} ::
}
module pipeline {
  instance source
  instance stage
  instance sink
  bind "source out" "stage in"
  bind "stage out" "sink in"
}
`
	cfg.Sources = map[string]ModuleSource{"stage": {Files: map[string]string{"stage.go": stageSrc}}}
	cfg.Native = map[string]NativeModule{"source": nil, "sink": nil}
	app, err := Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Stop)
	if err := app.Launch("stage"); err != nil {
		t.Fatal(err)
	}
	return app
}

// TestTrailBoundedByRetainedTransactions: the audit trail is the steps of
// the transactions the tracer retains, not a slice that grows with every
// reconfiguration a long-lived (self-healing) process performs. A hundred
// committed Moves of a one-stage pipeline leave the newest 64 transactions'
// steps, and the trace op says that older ones were dropped.
func TestTrailBoundedByRetainedTransactions(t *testing.T) {
	app := loadStagePipeline(t, Config{SleepUnit: 50 * time.Microsecond}, `package stage

func main() {
	var x int
	mh.Init()
	for {
		mh.ReconfigPoint("R")
		if mh.QueryIfMsgs("in") {
			mh.Read("in", &x)
			mh.Write("out", x+1)
		} else {
			mh.Sleep(1)
		}
	}
}
`)
	_, c := serveOps(t, app)
	var doc struct {
		Steps     []string `json:"steps"`
		Truncated bool     `json:"truncated"`
	}
	const moves, retained = 100, 64
	perMove := 0
	for k, cur := 1, "stage"; k <= moves; k++ {
		next := fmt.Sprintf("stage_%d", k)
		res, err := app.ReplaceTx(cur, reconfig.ReplaceOptions{NewName: next})
		if err != nil {
			t.Fatalf("move %d: %v", k, err)
		}
		cur, perMove = next, len(res.Steps)
		if k == retained {
			if err := callInto(t, c, &doc, "trace"); err != nil || doc.Truncated || len(doc.Steps) != retained*perMove {
				t.Fatalf("trace op after %d moves: %d steps, truncated %v, %v; want all %d, not truncated", k, len(doc.Steps), doc.Truncated, err, retained*perMove)
			}
		}
	}
	trail := app.Trace()
	if len(trail) != retained*perMove || trail[0] != fmt.Sprintf("obj_cap stage_%d", moves-retained) {
		t.Errorf("trail after %d moves: %d lines from %q; want the newest %d transactions' %d", moves, len(trail), trail[0], retained, retained*perMove)
	}
	if err := callInto(t, c, &doc, "trace"); err != nil || !doc.Truncated || !reflect.DeepEqual(doc.Steps, trail) {
		t.Errorf("trace op after %d moves: %d steps, truncated %v, %v; want the trail, stamped truncated", moves, len(doc.Steps), doc.Truncated, err)
	}
}

// TestTraceChainCrossesInterpretedModule is the regression test for causal
// traces breaking at every module loaded from Config.Sources: the abstract
// read dropped the incoming trace context and the abstract write never
// offered one, so the stage's output opened a fresh root (TraceID 2, Hops 0,
// one span in the recorder). One message source.out -> stage -> sink.in
// must be one chain: the same trace id, one hop, two recorded spans.
func TestTraceChainCrossesInterpretedModule(t *testing.T) {
	app := loadStagePipeline(t, Config{TraceSample: 1}, `package stage

func main() {
	var x int
	mh.Init()
	for {
		mh.ReconfigPoint("R")
		mh.Read("in", &x)
		mh.Write("out", x+1)
	}
}
`)
	src, err := app.AttachDriver("source")
	if err != nil {
		t.Fatal(err)
	}
	dst, err := app.AttachDriver("sink")
	if err != nil {
		t.Fatal(err)
	}
	data, err := codec.Default().EncodeValue(state.IntValue(41))
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Write("out", data); err != nil {
		t.Fatal(err)
	}
	m, err := dst.Read("in")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := codec.Default().DecodeValue(m.Data); err != nil || v.Int != 42 {
		t.Fatalf("sink read %v, %v; want 42", v, err)
	}
	if m.Trace.TraceID != 1 || m.Trace.Hops != 1 || m.Trace.Parent == 0 {
		t.Errorf("message reached the sink with %+v; want the source's trace 1, one hop on, with a parent span", m.Trace)
	}
	if spans := app.FlightRecorder().ByTrace(m.Trace.TraceID); len(spans) != 2 {
		t.Errorf("trace %d has %d recorded spans, want 2 (source->stage, stage->sink)", m.Trace.TraceID, len(spans))
	}
}
