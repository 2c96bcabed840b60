package reconf

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bus"
	"repro/internal/reconfig"
	"repro/internal/telemetry"
	"repro/internal/telemetry/evlog"
	"repro/internal/telemetry/health"
	"repro/internal/telemetry/trace"
)

// The operator plane is one table: every operation an operator can run
// against a live application — reconfiguration scripts and monitoring reads
// alike — is a row of ops. Serve (obs.go) puts the table on an HTTP mux;
// Client.Call and cmd/reconfigctl drive it by name. Nothing else knows the
// list of operations.

// opArgs are one call's arguments by parameter name, as the form they
// travel in; absent reads as "".
type opArgs = url.Values

type op struct {
	name   string // also the URL path
	params string // positional order, "<required> [optional]"; with the name, the usage line
	// mutating reports whether a call with these arguments changes the
	// system; such calls must be POSTed. nil: the op only reads.
	mutating func(opArgs) bool
	// budget bounds how long a call may legitimately run; nil: well inside
	// the server's default write deadline.
	budget func(*App, opArgs) time.Duration
	// run answers the result document, or an error (the result is then
	// ignored; a failure that still has a document says so in an opError).
	run func(*App, opArgs) (any, error)
	// text renders the result for Accept: text/plain; nil (or an empty
	// rendering): the indented JSON document is the human form too.
	text func(any) string
}

var ops = []op{
	{name: "topology", run: func(a *App, _ opArgs) (any, error) { return a.Topology(), nil }, text: asIs},
	{name: "instances", run: func(a *App, _ opArgs) (any, error) { return a.bus.Instances(), nil }, text: joined},
	{name: "move", params: "<inst> <new> <machine>", mutating: always, budget: txBudget, run: opReplace, text: txText},
	{name: "replace", params: "<inst> <new> [machine] [module]", mutating: always, budget: txBudget, run: opReplace, text: txText},
	{name: "update", params: "<inst> <new> <module>", mutating: always, budget: txBudget, run: opReplace, text: txText},
	{name: "plan", params: "<inst> <new> [machine] [module]", run: func(a *App, args opArgs) (any, error) {
		return a.PlanReplace(args.Get("inst"), replaceOptions(args))
	}, text: func(v any) string {
		return "plan (dry run, nothing executed):\n  " + strings.Join(v.([]string), "\n  ")
	}},
	{name: "replicate", params: "<inst> <new> [machine]", mutating: always, run: func(a *App, args opArgs) (any, error) {
		return "replicated " + args.Get("inst") + " -> " + args.Get("new"), a.Replicate(args.Get("inst"), args.Get("new"), args.Get("machine"))
	}, text: asIs},
	{name: "remove", params: "<inst>", mutating: always, run: func(a *App, args opArgs) (any, error) {
		return "removed " + args.Get("inst"), a.Remove(args.Get("inst"))
	}, text: asIs},
	{name: "trace", params: "[id]", run: opTrace, text: traceText},
	{name: "traces", run: func(a *App, _ opArgs) (any, error) {
		rec := a.FlightRecorder()
		return truncated(map[string]any{"spans": append([]*trace.SpanRecord{}, rec.Snapshot()...)}, rec.Overwritten() > 0), nil
	}},
	{name: "stats", run: opStats},
	{name: "metrics", run: opMetrics},
	{name: "healthz", run: opReady},
	{name: "readyz", run: opReady},
	{name: "replicas", run: func(a *App, _ opArgs) (any, error) { return a.ReplicaSets(), nil }},
	{name: "record", params: "[enable]", mutating: func(args opArgs) bool { return args.Get("enable") != "" }, run: opRecord},
	{name: "replay", params: "<inst>", run: func(a *App, args opArgs) (any, error) { return a.ReplayRecorded(args.Get("inst"), nil) }},
	{name: "watch", params: "[window]", run: func(a *App, args opArgs) (any, error) {
		k, err := count(args, "window", 31)
		if err != nil {
			return nil, err
		}
		return a.WatchTable(int(k)), nil
	}, text: asIs},
	{name: "timeseries", params: "[metric] [window]", run: opTimeseries},
	{name: "health", params: "<inst> [baseline]", run: opHealth},
	{name: "events", params: "[since] [wait]", run: opEvents},
}

func findOp(name string) *op {
	if i := slices.IndexFunc(ops, func(o op) bool { return o.name == name }); i >= 0 {
		return &ops[i]
	}
	return nil
}

// Usage lists every op with its parameters, one per line — the command
// reference of cmd/reconfigctl and the body of the server's 404.
func Usage() string {
	var b strings.Builder
	for i := range ops {
		fmt.Fprintf(&b, "  %s\n", ops[i].usage())
	}
	return b.String()
}

func (o *op) usage() string { return strings.TrimSpace(o.name + " " + o.params) }

func (o *op) paramNames() (names []string, required int) {
	for _, f := range strings.Fields(o.params) {
		names = append(names, strings.Trim(f, "<>[]"))
		if f[0] == '<' {
			required++ // required parameters always precede optional ones
		}
	}
	return names, required
}

// check refuses arguments the op does not declare and calls missing a
// required one, both with the op's usage line. It is the only argument
// validation shared by every transport; value parsing lives in the ops.
func (o *op) check(args opArgs) error {
	names, required := o.paramNames()
	for k := range args {
		if !slices.Contains(names, k) {
			return fail(http.StatusBadRequest, "%s: unknown parameter %q\nusage: %s", o.name, k, o.usage())
		}
	}
	for _, n := range names[:required] {
		if args.Get(n) == "" {
			return fail(http.StatusBadRequest, "%s: missing <%s>\nusage: %s", o.name, n, o.usage())
		}
	}
	return nil
}

// opError is an op failure with the HTTP status that classifies it and,
// for a replacement that ran and failed, the report to answer with.
type opError struct {
	status int
	msg    string
	result any
}

func (e *opError) Error() string { return e.msg }

func fail(status int, format string, a ...any) error {
	return &opError{status: status, msg: fmt.Sprintf(format, a...)}
}

// count parses a non-negative integer argument of at most the given bit
// size; absent is 0.
func count(args opArgs, name string, bits int) (uint64, error) {
	v := args.Get(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(v, 10, bits)
	if err != nil {
		return 0, fail(http.StatusBadRequest, "%s must be a non-negative integer, got %q", name, v)
	}
	return n, nil
}

func always(opArgs) bool { return true }

func asIs(v any) string { return v.(string) }

func joined(v any) string { return strings.Join(v.([]string), "\n") }

// ---- replacement family ----

// TxReport is the result document of the replacement ops: the forward step
// trace, whether the transaction committed, and the compensations replayed
// if it rolled back.
type TxReport struct {
	TxID       string                  `json:"txid"` // usable with the trace op
	Steps      []string                `json:"steps"`
	Committed  bool                    `json:"committed"`
	RolledBack bool                    `json:"rolled_back"`
	Rollback   []reconfig.RollbackStep `json:"rollback,omitempty"`
	Err        string                  `json:"err,omitempty"`
}

// Format renders the report for operator display.
func (r *TxReport) Format() string {
	var b strings.Builder
	if r.TxID != "" {
		fmt.Fprintf(&b, "transaction %s\n", r.TxID)
	}
	for _, s := range r.Steps {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	switch {
	case r.Committed:
		fmt.Fprintf(&b, "committed\n")
	case r.RolledBack:
		fmt.Fprintf(&b, "rolled back:\n")
		for _, s := range r.Rollback {
			if s.Err != "" {
				fmt.Fprintf(&b, "  %s FAILED: %s\n", s.Action, s.Err)
			} else {
				fmt.Fprintf(&b, "  %s\n", s.Action)
			}
		}
	}
	if r.Err != "" {
		fmt.Fprintf(&b, "error: %s\n", r.Err)
	}
	return b.String()
}

func txText(v any) string { return v.(*TxReport).Format() }

func replaceOptions(args opArgs) reconfig.ReplaceOptions {
	return reconfig.ReplaceOptions{NewName: args.Get("new"), Machine: args.Get("machine"), Module: args.Get("module")}
}

// opReplace runs a replacement-family script (move, replace and update
// differ only in the parameters they declare) as a transaction and answers
// with its report, so the operator sees the step trace and any rollback
// even when the reconfiguration failed.
func opReplace(a *App, args opArgs) (any, error) {
	res, err := a.ReplaceTx(args.Get("inst"), replaceOptions(args))
	if res == nil {
		return nil, err
	}
	rep := &TxReport{TxID: res.TxID, Steps: res.Steps, Committed: res.Committed, RolledBack: res.RolledBack, Rollback: res.Rollback}
	if res.Err != nil {
		rep.Err = res.Err.Error()
	}
	if err != nil {
		return nil, &opError{status: statusOf(err), msg: err.Error(), result: rep}
	}
	return rep, nil
}

// txBudget is the longest a replacement can legitimately wait: every bound
// of the transaction's resolved Timeouts, back to back.
func txBudget(a *App, args opArgs) time.Duration {
	t := a.fillOptions(replaceOptions(args)).Timeouts
	return t.Quiesce + t.StateMove + t.RestoreAck + t.Rollback
}

// ---- reads ----

// txTimeline is the document of the trace op for a transaction id.
type txTimeline struct {
	ID       string   `json:"id"`
	Timeline []string `json:"timeline"`
}

// opTrace answers, without an id, the audit trail — the steps of the
// transactions the tracer retains, stamped truncated once older ones have
// been dropped; a transaction's span timeline for "tx-0001"; and a message
// trace's retained spans for a numeric id: decimal as in the JSON spans,
// 0x-prefixed hex as in quiesce annotations, or bare hex.
func opTrace(a *App, args opArgs) (any, error) {
	id := args.Get("id")
	if id == "" {
		steps, dropped := a.prims.Tracer().Trail()
		return truncated(map[string]any{"steps": append([]string{}, steps...)}, dropped), nil
	}
	if strings.HasPrefix(id, "tx-") {
		lines, err := a.TraceTx(id)
		if err != nil {
			return nil, fail(http.StatusNotFound, "%v", err)
		}
		return txTimeline{id, lines}, nil
	}
	n, err := strconv.ParseUint(id, 0, 64) // decimal or 0x-prefixed
	if err != nil {
		n, err = strconv.ParseUint(id, 16, 64)
	}
	if err != nil {
		return nil, fail(http.StatusBadRequest, "bad trace id: %s", id)
	}
	rec := a.FlightRecorder()
	spans := rec.ByTrace(n)
	if len(spans) == 0 {
		return nil, fail(http.StatusNotFound, "no retained spans for trace %d", n)
	}
	return truncated(map[string]any{"trace_id": n, "spans": spans}, rec.Overwritten() > 0), nil
}

func traceText(v any) string {
	switch v := v.(type) {
	case map[string]any:
		if steps, ok := v["steps"].([]string); ok {
			return FormatTrace(steps)
		}
	case txTimeline:
		return strings.Join(v.Timeline, "\n")
	}
	return "" // a message trace has no rendering beyond its JSON
}

// FormatTrace renders a trace for operator display.
func FormatTrace(trace []string) string {
	if len(trace) == 0 {
		return "(no reconfigurations yet)"
	}
	return strings.Join(trace, "\n")
}

// opStats answers the coarse bus counters, the full telemetry registry
// snapshot, and the transaction IDs with retained span timelines.
func opStats(a *App, _ opArgs) (any, error) {
	// Sort the transaction list: maps already marshal with sorted keys, and
	// golden tests want the whole document byte-stable across runs.
	txids := a.prims.Tracer().IDs()
	sort.Strings(txids)
	return map[string]any{"bus": a.bus.Stats(), "telemetry": a.Telemetry().Snapshot(), "transactions": txids}, nil
}

// rawText is a result that is text in every representation (Prometheus
// exposition, probe answers), written as is whatever the client accepts.
type rawText string

// opMetrics renders the full telemetry registry plus the bus activity
// counters in the Prometheus text exposition format, with per-instance
// labels (bus_iface_delivered{instance,interface}, ...).
func opMetrics(a *App, _ opArgs) (any, error) {
	var w strings.Builder
	st := a.bus.Stats()
	counter := func(name string, v int64) { fmt.Fprintf(&w, "# TYPE %s counter\n%s %d\n", name, name, v) }
	counter("bus_delivered_total", st.Delivered)
	counter("bus_dropped_total", st.Dropped)
	counter("bus_rebinds_total", st.Rebinds)
	counter("bus_signals_total", st.Signals)
	counter("bus_moves_total", st.Moves)
	fmt.Fprintf(&w, "# TYPE bus_snapshot_version gauge\nbus_snapshot_version %d\n", st.SnapshotVersion)
	if rec := a.FlightRecorder(); rec != nil {
		fmt.Fprintf(&w, "# TYPE trace_recorder_spans gauge\ntrace_recorder_spans %d\n", rec.Len())
		counter("trace_recorder_recorded_total", rec.Recorded())
		counter("trace_recorder_overwritten_total", int64(rec.Overwritten()))
		fmt.Fprintf(&w, "# TYPE trace_recorder_memory_bound_bytes gauge\ntrace_recorder_memory_bound_bytes %d\n", rec.MemoryBound())
	}
	counter("event_log_overwritten_total", int64(a.events.Overwritten()))
	if a.recorder != nil {
		counter("record_ring_overwritten_total", int64(a.recorder.Overwritten()))
	}
	telemetry.WritePrometheus(&w, a.Telemetry(), bus.PromLabelRules()...)
	return rawText(w.String()), nil
}

// opReady is liveness and readiness at once: "ok", or 503 "reconfiguring"
// while a transactional reconfiguration is in flight (in this
// single-process reproduction the two probes collapse to one signal).
func opReady(a *App, _ opArgs) (any, error) {
	if a.prims.ReconfigActive() {
		return nil, fail(http.StatusServiceUnavailable, "reconfiguring")
	}
	return rawText("ok\n"), nil
}

func opRecord(a *App, args opArgs) (any, error) {
	switch v := args.Get("enable"); v {
	case "":
	case "on", "off":
		if err := a.SetRecording(v == "on"); err != nil {
			return nil, err
		}
	default:
		return nil, fail(http.StatusBadRequest, "record: enable must be on or off, got %q", v)
	}
	return a.RecordStatus(), nil
}

// opTimeseries serves the windowed rollups: without a metric the listing
// of live series, with one its retained windows, optionally capped to the
// trailing `window` of them.
func opTimeseries(a *App, args opArgs) (any, error) {
	k, err := count(args, "window", 31)
	if err != nil {
		return nil, err
	}
	metric := args.Get("metric")
	if metric == "" {
		return map[string]any{
			"window_ns": int64(a.roller.Window()),
			"windows":   a.roller.Depth(),
			"rolled":    a.roller.Rolled(),
			"metrics":   a.roller.Names(),
		}, nil
	}
	series, ok := a.roller.Query(metric, int(k))
	if !ok {
		return nil, fail(http.StatusNotFound, "timeseries: no series for metric %q", metric)
	}
	return series, nil
}

// opHealth answers an instance's structured verdict with its evidence
// windows; baseline=a,b overrides the default baseline (the instance's
// live replica-group peers).
func opHealth(a *App, args opArgs) (any, error) {
	if _, err := a.bus.Info(args.Get("inst")); err != nil {
		return nil, err
	}
	baseline := strings.FieldsFunc(args.Get("baseline"), func(r rune) bool { return r == ',' || r == ' ' })
	return a.Health(args.Get("inst"), baseline), nil
}

// truncated stamps doc when the ring it was read from has already
// overwritten part of the window the call asked for, so an operator can
// tell a complete answer from the surviving tail of one.
func truncated(doc map[string]any, lost bool) map[string]any {
	if lost {
		doc["truncated"] = true
	}
	return doc
}

// maxEventWait caps the events long-poll, keeping every request bounded
// well under the server's write deadline.
const maxEventWait = 30 * time.Second

// opEvents serves the structured event log after the exclusive cursor
// `since`; wait=seconds long-polls until a fresh record arrives or the wait
// elapses (empty list).
func opEvents(a *App, args opArgs) (any, error) {
	since, err := count(args, "since", 64)
	if err != nil {
		return nil, err
	}
	var wait time.Duration
	if v := args.Get("wait"); v != "" {
		secs, err := strconv.ParseFloat(v, 64)
		if err != nil || !(secs >= 0) { // NaN fails the comparison too
			return nil, fail(http.StatusBadRequest, "wait must be non-negative seconds, got %q", v)
		}
		wait = maxEventWait
		if secs < maxEventWait.Seconds() {
			wait = time.Duration(secs * float64(time.Second))
		}
	}
	recs := a.events.Wait(since, wait) // what is already there, else whatever arrives within wait
	return truncated(map[string]any{"cursor": a.events.Cursor(), "events": append([]*evlog.Record{}, recs...)},
		since < a.events.Overwritten()), nil
}

// WatchTable renders the operator's one-screen view of the windowed
// telemetry: per instance, the delivery rate, queued backlog, error rate,
// sustained p99 delivery latency and health verdict over the last k rolled
// windows (default 5). The watch op serves it for `reconfigctl watch`.
func (a *App) WatchTable(k int) string {
	if k <= 0 {
		k = 5
	}
	var b strings.Builder
	fmt.Fprintf(&b, "window=%s rolled=%d\n", a.roller.Window(), a.roller.Rolled())
	fmt.Fprintf(&b, "%-24s %12s %8s %10s %12s  %s\n",
		"INSTANCE", "DELIVERED/S", "QDEPTH", "ERR/S", "P99", "HEALTH")
	for _, inst := range a.bus.Instances() {
		ws := health.InstanceWindows(a.roller, inst, k)
		var delivered, errs, latObs, p99, spanNs int64
		for _, w := range ws {
			delivered += w.Delivered
			errs += w.Errors
			latObs += w.LatObs
			if w.P99Ns > p99 {
				p99 = w.P99Ns
			}
			spanNs += w.EndNs - w.StartNs
		}
		secs := float64(spanNs) / 1e9
		rate := func(v int64) float64 {
			if secs <= 0 {
				return 0
			}
			return float64(v) / secs
		}
		p99s := "-"
		if latObs > 0 {
			p99s = time.Duration(p99).String()
		}
		backlog := 0
		if info, err := a.bus.Info(inst); err == nil { // an instance deleted since the listing has none
			for _, n := range info.Pending {
				backlog += n
			}
		}
		fmt.Fprintf(&b, "%-24s %12.1f %8d %10.2f %12s  %s\n",
			inst, rate(delivered), backlog, rate(errs), p99s, a.Health(inst, nil).Level)
	}
	return strings.TrimRight(b.String(), "\n")
}

// ---- client ----

// Client runs ops against a served application (App.Serve) over HTTP.
type Client struct {
	// Text asks for the human rendering (Accept: text/plain) instead of
	// the JSON document.
	Text bool

	base string
	http *http.Client
}

// NewClient returns a client for the operator plane at addr (host:port);
// dialTimeout bounds each connection attempt. Calls themselves are not
// bounded — a replacement legitimately waits out its quiesce.
func NewClient(addr string, dialTimeout time.Duration) *Client {
	return &Client{base: "http://" + addr + "/", http: &http.Client{Transport: &http.Transport{
		DialContext:       (&net.Dialer{Timeout: dialTimeout}).DialContext,
		DisableKeepAlives: true, // one short-lived connection per op: nothing to Close
	}}}
}

// Call runs one op with positional arguments in the order of the table's
// params (see Usage; "" skips an optional one) and returns the response
// body: the JSON result document, or its text rendering when c.Text. A
// failed op returns an error carrying the server's message — and, for a
// replacement that ran, the body still holds the transaction report.
func (c *Client) Call(name string, positional ...string) (string, error) {
	o := findOp(name)
	if o == nil {
		return "", fmt.Errorf("reconf: unknown op %q; ops:\n%s", name, Usage())
	}
	names, _ := o.paramNames()
	if len(positional) > len(names) {
		return "", fmt.Errorf("reconf: %s: too many arguments\nusage: %s", name, o.usage())
	}
	args := opArgs{}
	for i, v := range positional {
		if v != "" {
			args.Set(names[i], v)
		}
	}
	if err := o.check(args); err != nil {
		return "", fmt.Errorf("reconf: %w", err)
	}
	method := http.MethodGet
	if o.mutating != nil && o.mutating(args) {
		method = http.MethodPost
	}
	req, err := http.NewRequest(method, c.base+name+"?"+args.Encode(), nil)
	if err != nil {
		return "", fmt.Errorf("reconf: control %s: %w", name, err)
	}
	if c.Text {
		req.Header.Set("Accept", "text/plain")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", fmt.Errorf("reconf: control %s: %w", name, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("reconf: control %s: %w", name, err)
	}
	if resp.StatusCode != http.StatusOK {
		msg := resp.Header.Get(errorHeader)
		if msg == "" { // a plain failure: the body is the message
			msg, data = strings.TrimSpace(string(data)), nil
		}
		return string(data), fmt.Errorf("reconf: control: %s", msg)
	}
	return string(data), nil
}
