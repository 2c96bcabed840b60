package reconf

import (
	"encoding/json"
	"net"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// serveOps serves an App's operator plane on an ephemeral port and returns
// its base URL and a client asking for JSON documents.
func serveOps(t *testing.T, app *App) (string, *Client) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := app.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return "http://" + srv.Addr().String(), NewClient(srv.Addr().String(), time.Second)
}

// callInto runs an op and decodes its JSON document — present on success
// and beside a failed replacement's error — into v.
func callInto(t *testing.T, c *Client, v any, op string, args ...string) error {
	t.Helper()
	doc, err := c.Call(op, args...)
	if doc != "" {
		if jerr := json.Unmarshal([]byte(doc), v); jerr != nil {
			t.Fatalf("%s %v: not JSON: %v\n%s", op, args, jerr, doc)
		}
	}
	return err
}

func callTx(t *testing.T, c *Client, op string, args ...string) (*TxReport, error) {
	t.Helper()
	var tx *TxReport
	err := callInto(t, c, &tx, op, args...)
	return tx, err
}

func callList(t *testing.T, c *Client, op string, args ...string) ([]string, error) {
	t.Helper()
	var list []string
	err := callInto(t, c, &list, op, args...)
	return list, err
}

func TestControlProtocol(t *testing.T) {
	app := loadMonitor(t, 0)
	d := newDriver(t, app)
	if err := app.Launch("compute"); err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	_, c := serveOps(t, app)

	var topo string
	if err := callInto(t, c, &topo, "topology"); err != nil || !strings.Contains(topo, "instance compute (module compute)") {
		t.Errorf("topology = %q, %v", topo, err)
	}
	insts, err := callList(t, c, "instances")
	if err != nil || len(insts) != 3 {
		t.Errorf("instances = %v, %v", insts, err)
	}

	// Remote move while the module is mid-recursion.
	d.requestTaken("compute", 2)
	go func() {
		time.Sleep(30 * time.Millisecond)
		d.temperature(10)
	}()
	tx, err := callTx(t, c, "move", "compute", "compute2", "machineB")
	if err != nil {
		t.Fatalf("remote move: %v", err)
	}
	if tx == nil || !tx.Committed || tx.RolledBack || len(tx.Rollback) != 0 {
		t.Errorf("remote move tx report = %+v, want committed with empty rollback", tx)
	}
	if tx != nil && !strings.Contains(tx.Format(), "committed") {
		t.Errorf("tx.Format() = %q, want committed line", tx.Format())
	}
	if tx == nil || tx.TxID == "" {
		t.Fatalf("remote move tx report carries no TxID: %+v", tx)
	}
	if !strings.Contains(tx.Format(), "transaction "+tx.TxID) {
		t.Errorf("tx.Format() missing transaction header:\n%s", tx.Format())
	}

	// The transaction ID resolves to a span timeline over the control plane.
	var timeline struct {
		Timeline []string `json:"timeline"`
	}
	if err := callInto(t, c, &timeline, "trace", tx.TxID); err != nil {
		t.Fatalf("remote trace %s: %v", tx.TxID, err)
	}
	joined := strings.Join(timeline.Timeline, "\n")
	for _, want := range []string{tx.TxID, "committed", "quiesce_wait", "state_move", "rebind", "restore_wait", "steps:"} {
		if !strings.Contains(joined, want) {
			t.Errorf("timeline missing %q:\n%s", want, joined)
		}
	}
	if _, err := c.Call("trace", "tx-9999"); err == nil {
		t.Error("trace of unknown txid accepted")
	}
	d.temperature(30)
	if got := d.response(); got != 20 {
		t.Errorf("moved computation = %g", got)
	}

	var trail struct {
		Steps []string `json:"steps"`
	}
	if err := callInto(t, c, &trail, "trace"); err != nil || !slices.Equal(trail.Steps, tx.Steps) {
		t.Errorf("trace = %v, %v; want the move's steps", trail.Steps, err)
	}
	if FormatTrace(trail.Steps) == "(no reconfigurations yet)" {
		t.Error("trace formatting")
	}
	if FormatTrace(nil) != "(no reconfigurations yet)" {
		t.Error("empty trace formatting")
	}
	// Stats is a JSON document with bus counters, telemetry, and txids.
	stats, err := c.Call("stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var snap struct {
		Bus struct {
			Delivered int64 `json:"delivered"`
		} `json:"bus"`
		Telemetry struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"telemetry"`
		Transactions []string `json:"transactions"`
	}
	if err := json.Unmarshal([]byte(stats), &snap); err != nil {
		t.Fatalf("stats is not JSON: %v\n%s", err, stats)
	}
	if snap.Bus.Delivered == 0 {
		t.Errorf("stats bus.delivered = 0:\n%s", stats)
	}
	if len(snap.Telemetry.Counters) == 0 {
		t.Errorf("stats telemetry has no counters:\n%s", stats)
	}
	found := false
	for _, id := range snap.Transactions {
		if id == tx.TxID {
			found = true
		}
	}
	if !found {
		t.Errorf("stats transactions %v missing %s", snap.Transactions, tx.TxID)
	}

	// A dry-run plan lists the transactional step sequence.
	steps, err := callList(t, c, "plan", "compute2", "compute3", "machineA")
	if err != nil {
		t.Fatalf("remote plan: %v", err)
	}
	joined = strings.Join(steps, "\n")
	for _, want := range []string{"obj_cap", "signal_reconfig", "await_restored", "commit"} {
		if !strings.Contains(joined, want) {
			t.Errorf("plan missing %q:\n%s", want, joined)
		}
	}
	// Planning must not have executed anything.
	if insts, _ := callList(t, c, "instances"); len(insts) != 3 {
		t.Errorf("plan executed something: instances = %v", insts)
	}

	// Error paths.
	if _, err := c.Call("move", "ghost", "g2", "m"); err == nil {
		t.Error("remote move of ghost accepted")
	}
	if _, err := c.Call("plan", "ghost", "g2", "m"); err == nil {
		t.Error("remote plan of ghost accepted")
	}
	if _, err := c.Call("remove", "ghost"); err == nil {
		t.Error("remote remove of ghost accepted")
	}
	if _, err := c.Call("replicate", "compute2", "computeB", "machineC"); err != nil {
		t.Errorf("remote replicate: %v", err)
	}
	if _, err := c.Call("remove", "computeB"); err != nil {
		t.Errorf("remote remove: %v", err)
	}
	if _, err := c.Call("frobnicate"); err == nil {
		t.Error("unknown op accepted")
	}
}

// TestControlObservabilityOps exercises the windowed-telemetry ops over
// the control plane: watch renders the per-instance table, timeseries
// serves the rollup listing and one series, health returns a structured
// verdict, and events pages the structured log by cursor.
func TestControlObservabilityOps(t *testing.T) {
	app, d, _ := startInterrupted(t)
	d.temperature(60)
	finishComputation(t, d)

	// Roll two windows by hand rather than waiting out the wall clock.
	app.Timeseries().Roll()
	app.Timeseries().Roll()

	_, c := serveOps(t, app)

	var tbl string
	if err := callInto(t, c, &tbl, "watch"); err != nil {
		t.Fatalf("watch: %v", err)
	}
	for _, want := range []string{"INSTANCE", "DELIVERED/S", "QDEPTH", "HEALTH", "display", "healthy"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("watch table missing %q:\n%s", want, tbl)
		}
	}
	listing, err := c.Call("timeseries")
	if err != nil {
		t.Fatalf("timeseries listing: %v", err)
	}
	var names struct {
		Metrics []string `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(listing), &names); err != nil {
		t.Fatalf("timeseries listing is not JSON: %v\n%s", err, listing)
	}
	metric := "bus.iface.display.temper.delivered"
	found := false
	for _, m := range names.Metrics {
		if m == metric {
			found = true
		}
	}
	if !found {
		t.Fatalf("timeseries listing lacks %s: %v", metric, names.Metrics)
	}
	doc, err := c.Call("timeseries", metric, "1")
	if err != nil {
		t.Fatalf("timeseries %s: %v", metric, err)
	}
	var series struct {
		Kind   string `json:"kind"`
		Points []struct {
			Value int64 `json:"value"`
		} `json:"points"`
	}
	if err := json.Unmarshal([]byte(doc), &series); err != nil {
		t.Fatalf("timeseries series is not JSON: %v\n%s", err, doc)
	}
	if series.Kind != "counter" || len(series.Points) != 1 {
		t.Errorf("series = kind %s with %d points, want counter with 1 window", series.Kind, len(series.Points))
	}
	if _, err := c.Call("timeseries", "no.such.metric"); err == nil {
		t.Error("timeseries of unknown metric accepted")
	}

	verdictDoc, err := c.Call("health", "display")
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	var verdict struct {
		Instance string `json:"instance"`
		Level    string `json:"level"`
	}
	if err := json.Unmarshal([]byte(verdictDoc), &verdict); err != nil {
		t.Fatalf("health verdict is not JSON: %v\n%s", err, verdictDoc)
	}
	if verdict.Instance != "display" || verdict.Level == "" {
		t.Errorf("verdict = %+v, want instance display with a level", verdict)
	}
	if _, err := c.Call("health", "ghost"); err == nil {
		t.Error("health of unknown instance accepted")
	}

	eventsDoc, err := c.Call("events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	var events struct {
		Cursor uint64 `json:"cursor"`
		Events []struct {
			Source string `json:"source"`
			Kind   string `json:"kind"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(eventsDoc), &events); err != nil {
		t.Fatalf("events is not JSON: %v\n%s", err, eventsDoc)
	}
	sawBus := false
	for _, e := range events.Events {
		if e.Source == "bus" && e.Kind == "add-instance" {
			sawBus = true
		}
	}
	if !sawBus {
		t.Errorf("events lack a bus add-instance record:\n%s", eventsDoc)
	}
	tailDoc, err := c.Call("events", strconv.FormatUint(events.Cursor, 10))
	if err != nil {
		t.Fatalf("events since cursor: %v", err)
	}
	var tail struct {
		Events []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal([]byte(tailDoc), &tail); err != nil {
		t.Fatal(err)
	}
	if len(tail.Events) != 0 {
		t.Errorf("events since cursor returned %d records, want 0", len(tail.Events))
	}
}

func TestDialControlFailure(t *testing.T) {
	if _, err := NewClient("127.0.0.1:1", 100*time.Millisecond).Call("topology"); err == nil {
		t.Error("call to closed port succeeded")
	}
}

func TestControlServerCloseIdempotent(t *testing.T) {
	app := loadMonitor(t, 0)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := app.Serve(l)
	if srv.Addr() == nil {
		t.Fatal("no address")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
