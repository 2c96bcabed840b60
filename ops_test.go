package reconf

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fixtures"
	"repro/internal/mh"
	"repro/internal/reconfig"
	"repro/internal/telemetry/evlog"
)

// loadMonitorTimeouts is loadMonitor with every reconfiguration bound set
// to d, so a test controls how long a replacement may wait.
func loadMonitorTimeouts(t testing.TB, d time.Duration) *App {
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
		SleepUnit: time.Microsecond,
		Timeouts:  reconfig.Timeouts{StateMove: d, RestoreAck: d, Rollback: d, Quiesce: d},
	})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// everyArg binds every declared parameter of an op to the same value.
func everyArg(o *op, v string) url.Values {
	args := url.Values{}
	names, _ := o.paramNames()
	for _, n := range names {
		args.Set(n, v)
	}
	return args
}

// TestMutatingOpsRefuseGET: a call that would change the system answers
// 405 to GET and leaves the system alone, while the argument-free read of
// the same path (GET /record) keeps working.
func TestMutatingOpsRefuseGET(t *testing.T) {
	app := loadMonitor(t, 0)
	t.Cleanup(app.Stop)
	base := serveObs(t, app)
	before := app.Topology()
	mutating := 0
	for i := range ops {
		o := &ops[i]
		args := everyArg(o, "compute")
		if o.mutating == nil || !o.mutating(args) {
			continue
		}
		mutating++
		resp, err := http.Get(base + "/" + o.name + "?" + args.Encode())
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "POST" {
			t.Errorf("GET /%s?%s -> %d (Allow %q), want 405 with Allow: POST", o.name, args.Encode(), resp.StatusCode, resp.Header.Get("Allow"))
		}
	}
	if mutating < 6 {
		t.Errorf("only %d mutating ops exercised; move, replace, update, replicate, remove and record all are", mutating)
	}
	if after := app.Topology(); after != before {
		t.Errorf("a refused GET changed the topology:\nbefore\n%s\nafter\n%s", before, after)
	}
	if code, body := httpGet(t, base+"/record"); code != http.StatusOK || !strings.Contains(body, `"configured": false`) {
		t.Errorf("GET /record (status read) -> %d %s", code, body)
	}
}

// TestUnknownOpsAndParamsGetUsage: whatever the table does not declare is
// refused with the table's own usage text, by the server and by the client
// before it sends anything.
func TestUnknownOpsAndParamsGetUsage(t *testing.T) {
	app := loadMonitor(t, 0)
	t.Cleanup(app.Stop)
	base, c := serveOps(t, app)

	if code, body := httpGet(t, base+"/frobnicate"); code != http.StatusNotFound || !strings.Contains(body, Usage()) {
		t.Errorf("GET /frobnicate -> %d, want 404 listing every op:\n%s", code, body)
	}
	for _, tc := range []struct{ method, path, want string }{
		{http.MethodGet, "/topology?verbose=1", "usage: topology"},
		{http.MethodGet, "/health", "usage: health <inst> [baseline]"},
		{http.MethodGet, "/replay/", "usage: replay <inst>"},
		{http.MethodGet, "/timeseries?windows=3", "usage: timeseries [metric] [window]"},
		{http.MethodPost, "/move?inst=compute&new=c2", "usage: move <inst> <new> <machine>"},
		{http.MethodPost, "/move?inst=compute&new=c2&machine=m&module=compute", "usage: move <inst> <new> <machine>"},
	} {
		if code, body := httpDo(t, tc.method, base+tc.path); code != http.StatusBadRequest || !strings.Contains(body, tc.want) {
			t.Errorf("%s %s -> %d %q, want 400 with %q", tc.method, tc.path, code, body, tc.want)
		}
	}
	// A path argument on an op without parameters names nothing.
	if code, _ := httpGet(t, base+"/topology/extra"); code != http.StatusNotFound {
		t.Errorf("GET /topology/extra -> %d, want 404", code)
	}

	dead := NewClient("127.0.0.1:1", 50*time.Millisecond) // never reached: the table refuses first
	for _, tc := range []struct {
		call []string
		want string
	}{
		{[]string{"frobnicate"}, Usage()},
		{[]string{"move", "compute"}, "usage: move <inst> <new> <machine>"},
		{[]string{"remove", "a", "b"}, "usage: remove <inst>"},
	} {
		if _, err := dead.Call(tc.call[0], tc.call[1:]...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Call%v = %v, want an error with %q", tc.call, err, tc.want)
		}
	}
	// Value errors come from the op, once, for every transport.
	for _, call := range [][]string{{"record", "sideways"}, {"watch", "-1"}, {"timeseries", "m", "many"}, {"events", "x"}, {"events", "0", "-2"}, {"trace", "zz-not-an-id"}} {
		if _, err := c.Call(call[0], call[1:]...); err == nil {
			t.Errorf("Call%v accepted", call)
		}
	}
}

// TestRequestBodyCapped: arguments may travel as a form body, but only up
// to maxOpBody.
func TestRequestBodyCapped(t *testing.T) {
	app := loadMonitor(t, 0)
	t.Cleanup(app.Stop)
	base := serveObs(t, app)
	post := func(form string) int {
		resp, err := http.Post(base+"/health", "application/x-www-form-urlencoded", strings.NewReader(form))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("inst=display"); code != http.StatusOK {
		t.Errorf("form body within the cap -> %d", code)
	}
	if code := post("inst=display&baseline=" + strings.Repeat("x", maxOpBody)); code != http.StatusBadRequest {
		t.Errorf("form body over the cap -> %d, want 400", code)
	}
}

// TestReplaceOutlivesServerWriteTimeout holds a replacement in its quiesce
// wait for three times the server's write timeout — the 60 s default
// against the 30 s-per-phase reconfiguration bounds, scaled down — and
// still wants the transaction report: the op extends the connection's
// deadline by the transaction's resolved Timeouts.
func TestReplaceOutlivesServerWriteTimeout(t *testing.T) {
	const writeTimeout = 100 * time.Millisecond
	app := loadMonitorTimeouts(t, 10*writeTimeout)
	t.Cleanup(app.Stop)
	d := newDriver(t, app)
	if err := app.Launch("compute"); err != nil {
		t.Fatal(err)
	}
	d.requestTaken("compute", 3) // compute passes its reconfiguration point and waits for a temperature
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := app.serve(l, writeTimeout)
	t.Cleanup(func() { srv.Close() })
	c := NewClient(srv.Addr().String(), time.Second)

	// Control: a response written after the server's deadline is lost.
	if _, err := c.Call("events", "999999", "0.3"); err == nil {
		t.Fatal("a 300ms long-poll survived a 100ms write timeout: the test no longer measures the deadline")
	}

	release := time.AfterFunc(3*writeTimeout, func() { d.temperature(60) })
	defer release.Stop()
	start := time.Now()
	tx, err := callTx(t, c, "move", "compute", "compute2", "machineB")
	if err != nil {
		t.Fatalf("held move: %v", err)
	}
	if held := time.Since(start); held < 3*writeTimeout {
		t.Fatalf("move returned after %v, before the module was released", held)
	}
	if tx == nil || !tx.Committed {
		t.Errorf("held move report = %+v, want committed", tx)
	}
	finishComputation(t, d)
}

// TestRingsAdmitLosses drives the four ring-backed read ops over small
// rings — a 16-slot delivery log read by traces, trace <id> and replay, the
// event log's fixed 1 024 — an answer whose window is still wholly retained
// carries no "truncated", one whose window starts before the oldest
// retained sequence carries "truncated": true, and the metrics op counts
// what was overwritten.
func TestRingsAdmitLosses(t *testing.T) {
	app, err := Load(Config{
		SpecText: fixtures.MonitorSpec,
		Sources: map[string]ModuleSource{
			"compute": {Files: map[string]string{"compute.go": fixtures.ComputeSource}},
		},
		Native: map[string]NativeModule{
			"display": func(rt *mh.Runtime) {},
			"sensor":  func(rt *mh.Runtime) {},
		},
		SleepUnit:    time.Microsecond,
		TraceSample:  1,
		RecordBuffer: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Stop)
	d := newDriver(t, app)
	if err := app.Launch("compute"); err != nil {
		t.Fatal(err)
	}
	// stamped calls an op as the server would and reports its "truncated".
	stamped := func(name string, kv ...string) bool {
		t.Helper()
		args := url.Values{}
		for i := 0; i < len(kv); i += 2 {
			args.Set(kv[i], kv[i+1])
		}
		res, err := findOp(name).run(app, args)
		if err != nil {
			t.Fatalf("%s %v: %v", name, kv, err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Truncated bool `json:"truncated"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s answer is not a document: %v\n%s", name, err, raw)
		}
		return doc.Truncated
	}
	roundtrips := func(n int) {
		for i := 0; i < n; i++ {
			d.requestTaken("compute", 1)
			d.temperature(50)
			if got := d.response(); got != 50 {
				t.Fatalf("response = %g, want 50", got)
			}
		}
	}

	roundtrips(1) // three deliveries: well inside 16 slots
	// Load's topology records, each logged as Load made it.
	firstEvents := app.Events().Cursor()
	if firstEvents == 0 {
		t.Fatal("Load left no events")
	}
	// newestTrace is the id of a message trace the log still holds.
	newestTrace := func() string {
		spans := app.FlightRecorder().Snapshot()
		return strconv.FormatUint(spans[len(spans)-1].Trace.TraceID, 10)
	}
	for _, call := range [][]string{{"traces"}, {"trace", "id", newestTrace()}, {"replay", "inst", "compute"}, {"events"}} {
		if stamped(call[0], call[1:]...) {
			t.Errorf("%v claims truncation before its ring wrapped", call)
		}
	}

	roundtrips(8) // 27 deliveries: the delivery log has wrapped
	for app.Events().Overwritten() <= firstEvents {
		app.events.Append(evlog.Record{Source: "test", Kind: "tick"})
	}
	if !stamped("traces") {
		t.Error("traces over a wrapped log is not stamped truncated")
	}
	if !stamped("trace", "id", newestTrace()) {
		t.Error("one message's trace from a wrapped log is not stamped truncated")
	}
	if !stamped("replay", "inst", "compute") {
		t.Error("replay of a wrapped log is not stamped truncated")
	}
	if !stamped("events") || !stamped("events", "since", strconv.FormatUint(firstEvents, 10)) {
		t.Error("events from an overwritten cursor is not stamped truncated")
	}
	if retained := app.Events().Overwritten(); stamped("events", "since", strconv.FormatUint(retained, 10)) {
		t.Errorf("events since %d (oldest retained is %d) claims truncation", retained, retained+1)
	}

	res, err := findOp("metrics").run(app, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]uint64{
		"delivery_log_spans_overwritten_total":   app.FlightRecorder().Overwritten(),
		"delivery_log_records_overwritten_total": app.Recorder().Overwritten(),
		"event_log_overwritten_total":            app.Events().Overwritten(),
	} {
		if line := fmt.Sprintf("\n%s %d\n", name, n); n == 0 || !strings.Contains(string(res.(rawText)), line) {
			t.Errorf("metrics lacks %q (want a nonzero count)", line)
		}
	}
}

// TestReadmeEndpointTable keeps the README's endpoint table and the op
// table the same list: every op has a row naming its path and each of its
// parameters, and every row is an op.
func TestReadmeEndpointTable(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, m := range regexp.MustCompile("(?m)^\\| `/([a-z]+)[^|]*\\|.*$").FindAllStringSubmatch(string(readme), -1) {
		rows[m[1]] += m[0]
	}
	delete(rows, "debug") // /debug/pprof is mounted by polybus, not an op
	for i := range ops {
		row, ok := rows[ops[i].name]
		if !ok {
			t.Errorf("README endpoint table has no row for /%s", ops[i].name)
			continue
		}
		names, _ := ops[i].paramNames()
		for _, n := range names {
			if !strings.Contains(row, n) {
				t.Errorf("README row for /%s does not mention parameter %q:\n%s", ops[i].name, n, row)
			}
		}
		if mutates, posted := ops[i].mutating != nil, strings.Contains(row, "POST"); mutates != posted {
			t.Errorf("README row for /%s: mentions POST = %v, op mutates = %v", ops[i].name, posted, mutates)
		}
		delete(rows, ops[i].name)
	}
	var extra []string
	for name := range rows {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("README endpoint table lists paths that are not ops: %v", extra)
	}
}

// FuzzOpRequest throws arbitrary requests at the op mux of a loaded
// application: nothing may panic, every answer is a well-formed HTTP
// status, and no call that changes the system ever runs on anything but
// POST.
func FuzzOpRequest(f *testing.F) {
	app := loadMonitorTimeouts(f, 5*time.Millisecond)
	f.Cleanup(app.Stop)
	var method, ranOnRead string
	saved := append([]op(nil), ops...)
	f.Cleanup(func() { copy(ops, saved) })
	for i := range ops {
		o, run := &ops[i], ops[i].run
		o.run = func(a *App, args opArgs) (any, error) {
			if o.mutating != nil && o.mutating(args) && method != http.MethodPost {
				ranOnRead = o.name
			}
			return run(a, args)
		}
	}
	mux := app.opMux(time.Second)

	for i := range ops {
		args := everyArg(&ops[i], "compute").Encode()
		f.Add(http.MethodGet, "/"+ops[i].name, args, "")
		f.Add(http.MethodPost, "/"+ops[i].name, "", args)
		f.Add(http.MethodGet, "/"+ops[i].name+"/compute", "", "")
	}
	f.Add(http.MethodGet, "/trace/0x2a", "", "")
	f.Add(http.MethodGet, "/timeseries", "metric=bus.iface.display.temper.delivered&window=99999999999", "")
	f.Add(http.MethodPost, "/record", "enable=on&enable=off", "enable=%zz")
	f.Add(http.MethodDelete, "/remove/compute", "", "")
	f.Add(http.MethodPost, "/move", "inst=compute;new=x", "machine=m&new=compute2")
	f.Add(http.MethodGet, "/events", "since=3", "")
	f.Add(http.MethodGet, "/", "", "")
	f.Fuzz(func(t *testing.T, m, path, query, body string) {
		if strings.Contains(query+body, "wait") {
			t.Skip("a long-poll: slow by design")
		}
		req, err := http.NewRequest(m, "http://ops"+path+"?"+query, strings.NewReader(body))
		if err != nil {
			t.Skip("not a request")
		}
		if body != "" {
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		}
		method, ranOnRead = m, ""
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if ranOnRead != "" {
			t.Errorf("%s %s?%s ran the mutating op %s", m, path, query, ranOnRead)
		}
		if rec.Code < 200 || rec.Code > 599 {
			t.Errorf("%s %s?%s -> status %d", m, path, query, rec.Code)
		}
		if rec.Code == http.StatusOK && strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") && !json.Valid(rec.Body.Bytes()) {
			t.Errorf("%s %s?%s -> invalid JSON:\n%s", m, path, query, rec.Body)
		}
	})
}
