package reconf

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fixtures"
	"repro/internal/mh"
	"repro/internal/reconfig"
	"repro/internal/replay"
)

// serveObs starts an App's operator plane on an ephemeral port and returns
// its base URL, for tests that speak plain HTTP to it.
func serveObs(t *testing.T, app *App) string {
	t.Helper()
	base, _ := serveOps(t, app)
	return base
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	return httpDo(t, http.MethodGet, url)
}

func httpPost(t *testing.T, url string) (int, string) {
	t.Helper()
	return httpDo(t, http.MethodPost, url)
}

func httpDo(t *testing.T, method, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestObsMetricsEndpoint drives traffic through a committed replacement and
// asserts /metrics serves Prometheus text including the bus counters and the
// reconfiguration latency histogram buckets (acceptance criterion).
func TestObsMetricsEndpoint(t *testing.T) {
	app, d, feed := startInterrupted(t)
	base := serveObs(t, app)
	settle := feed()
	res, err := app.ReplaceTx("compute", reconfig.ReplaceOptions{NewName: "compute2"})
	settle()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("replace did not commit: %+v", res)
	}
	finishComputation(t, d)

	code, body := httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics returned %d", code)
	}
	for _, want := range []string{
		"# TYPE bus_delivered_total counter",
		"bus_rebinds_total 1",
		"# TYPE bus_iface_delivered counter",
		`bus_iface_delivered{instance="display",interface="temper"}`,
		`bus_iface_queue_depth{instance="display",interface="temper"}`,
		"# TYPE reconfig_span_quiesce_wait_ns histogram",
		`reconfig_span_quiesce_wait_ns_bucket{le="+Inf"} 1`,
		"reconfig_tx_total_ns_count 1",
		// The Replace's one capture and one restore, timed by the runtimes
		// into the registry the operator reads.
		`mh_capture_ns_count{instance="compute"} 1`,
		`mh_restore_ns_count{instance="compute2"} 1`,
		"_bucket{le=\"0\"}",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestObsHealthFlipsDuringQuiesce pins the readiness contract: /healthz and
// /readyz report 503 "reconfiguring" while a Replace transaction is waiting
// out its quiesce, and recover once it commits.
func TestObsHealthFlipsDuringQuiesce(t *testing.T) {
	app, d, _ := startInterrupted(t)
	base := serveObs(t, app)

	if code, body := httpGet(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz before replace = %d %q, want 200 ok", code, body)
	}

	done := make(chan error, 1)
	go func() {
		_, err := app.ReplaceTx("compute", reconfig.ReplaceOptions{NewName: "compute2"})
		done <- err
	}()

	// The transaction is stuck in quiesce_wait until a temperature releases
	// the module; both health endpoints must report unready meanwhile.
	waitUntil(t, "/readyz flipped to 503 during the in-flight replace", func() bool {
		code, _ := httpGet(t, base+"/readyz")
		return code == http.StatusServiceUnavailable
	})
	if code, body := httpGet(t, base+"/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "reconfiguring") {
		t.Errorf("/healthz during quiesce = %d %q, want 503 reconfiguring", code, body)
	}

	// Readiness flips when the transaction begins; release the module only
	// once the reconfiguration request is out, or it passes its point
	// unsignalled and blocks on a temperature nobody sends.
	waitUntil(t, "the reconfiguration request was out", func() bool { return signalsPending(app, "compute") != 0 })
	d.temperature(60)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if code, _ := httpGet(t, base+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz after commit = %d, want 200", code)
	}
	finishComputation(t, d)
}

// loadMonitorSampled is loadMonitor with full head sampling, so every
// delivery lands in the flight recorder.
func loadMonitorSampled(t *testing.T) *App {
	t.Helper()
	app, err := Load(Config{
		SpecText: fixtures.MonitorSpec,
		Sources: map[string]ModuleSource{
			"compute": {Files: map[string]string{"compute.go": fixtures.ComputeSource}},
		},
		Native: map[string]NativeModule{
			"display": func(rt *mh.Runtime) {},
			"sensor":  func(rt *mh.Runtime) {},
		},
		SleepUnit:   time.Microsecond,
		Timeouts:    reconfig.Timeouts{StateMove: 10 * time.Second},
		TraceSample: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestObsTracesEndpoints exercises /traces and /trace/{id} against a sampled
// application: a request/response roundtrip leaves delivery spans in the
// flight recorder, retrievable whole-buffer and per-trace.
func TestObsTracesEndpoints(t *testing.T) {
	app := loadMonitorSampled(t)
	t.Cleanup(app.Stop)
	d := newDriver(t, app)
	if err := app.Launch("compute"); err != nil {
		t.Fatal(err)
	}
	base := serveObs(t, app)

	d.requestTaken("compute", 1)
	d.temperature(50)
	if got := d.response(); got != 50 {
		t.Fatalf("response = %g, want 50", got)
	}

	code, body := httpGet(t, base+"/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces returned %d", code)
	}
	var doc struct {
		Spans     []replay.Record `json:"spans"`
		Truncated bool            `json:"truncated"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/traces is not a span document: %v\n%s", err, body)
	}
	spans := doc.Spans
	if doc.Truncated {
		t.Errorf("/traces claims truncation after %d spans", len(spans))
	}
	if len(spans) == 0 {
		t.Fatal("/traces is empty after a sampled roundtrip")
	}

	code, body = httpGet(t, fmt.Sprintf("%s/trace/%d", base, spans[0].Trace.TraceID))
	if code != http.StatusOK {
		t.Fatalf("/trace/%d returned %d: %s", spans[0].Trace.TraceID, code, body)
	}
	if !strings.Contains(body, fmt.Sprintf(`"trace_id": %d`, spans[0].Trace.TraceID)) {
		t.Errorf("/trace/{id} response lacks the trace id:\n%s", body)
	}

	// The 0x-prefixed hex form (as printed in quiesce annotations) resolves
	// the same trace.
	code, _ = httpGet(t, fmt.Sprintf("%s/trace/0x%x", base, spans[0].Trace.TraceID))
	if code != http.StatusOK {
		t.Errorf("/trace/{hex id} returned %d", code)
	}

	if code, _ := httpGet(t, base+"/trace/tx-9999"); code != http.StatusNotFound {
		t.Errorf("/trace/tx-9999 returned %d, want 404", code)
	}
}

// TestObsTimeseriesHealthEvents exercises the windowed-telemetry surface
// end to end: /timeseries lists and serves windowed series, /health/{i}
// returns a structured verdict, and /events tails the structured log (the
// bus appends its own topology events there as it commits them).
func TestObsTimeseriesHealthEvents(t *testing.T) {
	app, d, _ := startInterrupted(t)
	base := serveObs(t, app)
	d.temperature(60)
	finishComputation(t, d)

	// The roller's own loop closes two 1 ms windows.
	app.Timeseries().Start()
	waitUntil(t, "two windows rolled", func() bool { return app.Timeseries().Rolled() >= 2 })

	code, body := httpGet(t, base+"/timeseries")
	if code != http.StatusOK {
		t.Fatalf("/timeseries returned %d", code)
	}
	var listing struct {
		WindowNs int64    `json:"window_ns"`
		Metrics  []string `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatalf("/timeseries listing: %v\n%s", err, body)
	}
	metric := "bus.iface.display.temper.delivered"
	found := false
	for _, m := range listing.Metrics {
		if m == metric {
			found = true
		}
	}
	if !found {
		t.Fatalf("/timeseries listing lacks %s: %v", metric, listing.Metrics)
	}

	code, body = httpGet(t, base+"/timeseries?metric="+metric+"&window=1")
	if code != http.StatusOK {
		t.Fatalf("/timeseries?metric returned %d: %s", code, body)
	}
	var series struct {
		Kind   string `json:"kind"`
		Points []struct {
			Value int64 `json:"value"`
		} `json:"points"`
	}
	if err := json.Unmarshal([]byte(body), &series); err != nil {
		t.Fatalf("/timeseries series: %v\n%s", err, body)
	}
	if series.Kind != "counter" || len(series.Points) != 1 {
		t.Errorf("series = kind %s with %d points, want counter with 1 window", series.Kind, len(series.Points))
	}
	if code, _ := httpGet(t, base+"/timeseries?metric=no.such.metric"); code != http.StatusNotFound {
		t.Errorf("/timeseries unknown metric returned %d, want 404", code)
	}

	code, body = httpGet(t, base+"/health/display")
	if code != http.StatusOK {
		t.Fatalf("/health/display returned %d: %s", code, body)
	}
	var verdict struct {
		Instance string `json:"instance"`
		Level    string `json:"level"`
	}
	if err := json.Unmarshal([]byte(body), &verdict); err != nil {
		t.Fatalf("/health verdict: %v\n%s", err, body)
	}
	if verdict.Instance != "display" || verdict.Level == "" {
		t.Errorf("verdict = %+v, want instance display with a level", verdict)
	}
	if code, _ := httpGet(t, base+"/health/no-such-instance"); code != http.StatusNotFound {
		t.Errorf("/health unknown instance returned %d, want 404", code)
	}
	// /healthz still resolves to the liveness probe, not the verdict route.
	if code, body := httpGet(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q after adding /health/", code, body)
	}

	code, body = httpGet(t, base+"/events")
	if code != http.StatusOK {
		t.Fatalf("/events returned %d", code)
	}
	var events struct {
		Cursor uint64 `json:"cursor"`
		Events []struct {
			Seq    uint64 `json:"seq"`
			Source string `json:"source"`
			Kind   string `json:"kind"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("/events: %v\n%s", err, body)
	}
	if len(events.Events) == 0 {
		t.Fatal("/events empty after Load (add-instance events expected)")
	}
	sawBus := false
	for _, e := range events.Events {
		if e.Source == "bus" && e.Kind == "add-instance" {
			sawBus = true
		}
	}
	if !sawBus {
		t.Error("no bus add-instance event bridged into the log")
	}
	// Cursor paging: everything before the cursor is excluded.
	code, body = httpGet(t, fmt.Sprintf("%s/events?since=%d", base, events.Cursor))
	if code != http.StatusOK {
		t.Fatalf("/events?since returned %d", code)
	}
	var tail struct {
		Events []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &tail); err != nil {
		t.Fatal(err)
	}
	if len(tail.Events) != 0 {
		t.Errorf("/events?since=cursor returned %d events, want 0", len(tail.Events))
	}
}

// TestObsServerTimeoutsSet pins the slowloris hardening: the obs server
// must carry read/header/write timeouts.
func TestObsServerTimeoutsSet(t *testing.T) {
	app, _, _ := startInterrupted(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := app.Serve(l)
	t.Cleanup(func() { srv.Close() })
	if srv.srv.ReadHeaderTimeout <= 0 || srv.srv.ReadTimeout <= 0 || srv.srv.WriteTimeout <= 0 {
		t.Errorf("obs server timeouts unset: header=%v read=%v write=%v",
			srv.srv.ReadHeaderTimeout, srv.srv.ReadTimeout, srv.srv.WriteTimeout)
	}
}

// TestMoveLogsInCommitOrder: by the time Move returns, every bus record of
// the Move is in the event log ahead of the transaction's outcome, in the
// order the transaction made them — signal, divulge, install-state, the
// rebind, the clone's restore-ack, the old instance's deletion — and the
// outcome is the last record.
func TestMoveLogsInCommitOrder(t *testing.T) {
	app, d, feed := startInterrupted(t)
	cursor := app.Events().Cursor()
	settle := feed()
	if err := app.Move("compute", "compute2", "machineB"); err != nil {
		t.Fatal(err)
	}
	settle()
	recs := app.Events().Since(cursor)
	finishComputation(t, d)
	var order []string
	for _, r := range recs {
		order = append(order, r.Source+"/"+r.Kind+" "+r.Instance)
	}
	last := recs[len(recs)-1]
	if last.Source != "tx" || last.Kind != "replace_committed" {
		t.Fatalf("log does not end with the outcome:\n%s", strings.Join(order, "\n"))
	}
	at := -1
	for _, want := range []string{"bus/signal compute", "bus/divulge compute", "bus/install-state compute2",
		"bus/rebind ", "bus/restore-ack compute2", "bus/delete-instance compute"} {
		i := slices.Index(order, want)
		if i <= at {
			t.Fatalf("%q missing or out of order in:\n%s", want, strings.Join(order, "\n"))
		}
		at = i
	}
}
