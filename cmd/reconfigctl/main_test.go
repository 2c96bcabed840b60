package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/fixtures"
	"repro/internal/reconfig"
)

func startApp(t *testing.T) (*reconf.App, string) {
	t.Helper()
	app, err := reconf.Load(reconf.Config{
		SpecText: fixtures.MonitorSpec,
		Sources: map[string]reconf.ModuleSource{
			"compute": {Files: map[string]string{"compute.go": fixtures.ComputeSource}},
		},
		Native: map[string]reconf.NativeModule{
			"sensor":  fixtures.Sensor(fixtures.SensorConfig{Interval: 1}),
			"display": fixtures.Display(4, 1000, 1, nil),
		},
		SleepUnit:    100 * time.Microsecond,
		Timeouts:     reconfig.Timeouts{StateMove: 10 * time.Second},
		TraceSample:  1,
		RecordBuffer: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Stop)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := app.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return app, srv.Addr().String()
}

func TestReconfigctlCommands(t *testing.T) {
	_, addr := startApp(t)
	time.Sleep(50 * time.Millisecond) // let the first request start

	ok := [][]string{
		{"-addr", addr, "topology"},
		{"-addr", addr, "instances"},
		{"-addr", addr, "stats"},
		{"-addr", addr, "trace"},
		{"-addr", addr, "-dry-run", "move", "compute", "compute2", "machineB"},
		{"-addr", addr, "move", "compute", "compute2", "machineB"},
		{"-addr", addr, "trace"},
		{"-addr", addr, "replicate", "compute2", "computeB", "machineC"},
		{"-addr", addr, "remove", "computeB"},
	}
	for _, args := range ok {
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}

	bad := [][]string{
		{"-addr", addr},                                    // no command
		{"-addr", addr, "frobnicate"},                      // unknown
		{"-addr", addr, "move", "compute2"},                // missing args
		{"-addr", addr, "move", "g", "h", "m"},             // unknown instance
		{"-addr", addr, "remove"},                          // missing args
		{"-addr", addr, "update", "x"},                     // missing args
		{"-addr", addr, "replace", "x"},                    // missing args
		{"-addr", addr, "replicate", "x"},                  // missing args
		{"-addr", "127.0.0.1:1", "topology"},               // dead server
		{"-addr", addr, "-dry-run", "move", "g", "h", "m"}, // plan for unknown instance
	}
	for _, args := range bad {
		if err := run(args); err == nil {
			t.Errorf("no error for %v", args)
		}
	}
}

// TestEveryOp walks the op table through its public face (reconf.Usage)
// against a live monitor application and drives every op three ways: the
// JSON document over HTTP, the text rendering over HTTP, and the
// reconfigctl command — which must print exactly that rendering. An op
// added to the table without a row here fails the test.
func TestEveryOp(t *testing.T) {
	_, addr := startApp(t)
	time.Sleep(50 * time.Millisecond)
	jsonc, textc := reconf.NewClient(addr, time.Second), reconf.NewClient(addr, time.Second)
	textc.Text = true

	// The mutating ops run three times each, so their arguments are
	// generated: compute walks a chain of fresh names, replicas stack up
	// and are removed again.
	cur, n := "compute", 0
	fresh := func() string { n++; return fmt.Sprintf("c%d", n) }
	var replicas []string
	hop := func(extra ...string) func() []string {
		return func() []string {
			old := cur
			cur = fresh()
			return append([]string{old, cur}, extra...)
		}
	}
	none := func() []string { return nil }
	cases := map[string]struct {
		args func() []string
		want string // in the JSON document and in the text rendering alike
		raw  bool   // text in every representation
	}{
		"topology":  {args: none, want: "instance sensor"},
		"instances": {args: none, want: "display"},
		"move":      {args: hop("machineB"), want: "committed"},
		"replace":   {args: hop(), want: "committed"},
		"update":    {args: hop("compute"), want: "committed"},
		"plan":      {args: func() []string { return []string{cur, "planned"} }, want: "signal_reconfig"},
		"replicate": {args: func() []string {
			replicas = append(replicas, fresh())
			return []string{cur, replicas[len(replicas)-1]}
		}, want: "replicated"},
		"remove": {args: func() []string {
			last := replicas[len(replicas)-1]
			replicas = replicas[:len(replicas)-1]
			return []string{last}
		}, want: "removed"},
		"trace":      {args: none, want: "obj_cap"},
		"traces":     {args: none, want: "trace_id"},
		"stats":      {args: none, want: `"rebinds"`},
		"metrics":    {args: none, want: "bus_delivered_total", raw: true},
		"healthz":    {args: none, want: "ok", raw: true},
		"readyz":     {args: none, want: "ok", raw: true},
		"replicas":   {args: none, want: "[]"},
		"record":     {args: none, want: `"configured": true`},
		"replay":     {args: func() []string { return []string{"sensor"} }, want: `"instance": "sensor"`},
		"watch":      {args: none, want: "INSTANCE"},
		"timeseries": {args: none, want: `"metrics"`},
		"health":     {args: func() []string { return []string{cur} }, want: "level"},
		"events":     {args: none, want: "add-instance"},
	}

	seen := 0
	for _, line := range strings.Split(strings.TrimSpace(reconf.Usage()), "\n") {
		name := strings.Fields(line)[0]
		tc, ok := cases[name]
		if !ok {
			t.Errorf("op %q (usage %q) has no case in this test", name, strings.TrimSpace(line))
			continue
		}
		seen++
		doc, err := jsonc.Call(name, tc.args()...)
		if err != nil {
			t.Errorf("%s over HTTP: %v", name, err)
		}
		if json.Valid([]byte(doc)) == tc.raw || !strings.Contains(doc, tc.want) {
			t.Errorf("%s document (want JSON: %v, containing %q):\n%s", name, !tc.raw, tc.want, doc)
		}
		text, err := textc.Call(name, tc.args()...)
		if err != nil || !strings.Contains(text, tc.want) || !strings.HasSuffix(text, "\n") {
			t.Errorf("%s text rendering (want %q): %v\n%s", name, tc.want, err, text)
		}
		args := tc.args()
		out, err := capture(t, func() error { return run(append([]string{"-addr", addr, name}, args...)) })
		if err != nil || !strings.Contains(out, tc.want) {
			t.Errorf("reconfigctl %s %v (want %q): %v\n%s", name, args, tc.want, err, out)
		}
		// What reconfigctl prints is the text rendering: identical for the
		// ops whose answer does not move between two calls.
		switch name {
		case "topology", "instances", "plan", "replicas", "healthz", "readyz":
			if again, _ := textc.Call(name, args...); out != again {
				t.Errorf("reconfigctl %s printed\n%s\nbut the text rendering is\n%s", name, out, again)
			}
		}
	}
	if seen != len(cases) {
		t.Errorf("%d cases but only %d ops in the table: a case names an op that no longer exists", len(cases), seen)
	}

	// -dry-run routes the replacement commands to plan, argument for argument.
	for _, args := range [][]string{
		{"move", cur, "next", "machineC"}, {"replace", cur, "next"}, {"update", cur, "next", "compute"},
	} {
		out, err := capture(t, func() error { return run(append([]string{"-addr", addr, "-dry-run"}, args...)) })
		if err != nil || !strings.HasPrefix(out, "plan (dry run, nothing executed):\n  ") || !strings.Contains(out, "commit") {
			t.Errorf("-dry-run %v: %v\n%s", args, err, out)
		}
	}
	if out, _ := textc.Call("instances"); strings.Contains(out, "next") {
		t.Errorf("a dry run executed: instances =\n%s", out)
	}
	// watch takes its own flags and maps -windows onto the op's parameter.
	out, err := capture(t, func() error {
		return run([]string{"-addr", addr, "watch", "-count", "2", "-interval", "1ms", "-windows", "3"})
	})
	if err != nil || strings.Count(out, "INSTANCE") != 2 {
		t.Errorf("watch -count 2: %v\n%s", err, out)
	}
}

// capture runs fn with os.Stdout redirected into a buffer.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	// Drain concurrently: an answer larger than the pipe buffer (the
	// flight recorder's spans) would otherwise block the writer.
	type read struct {
		out []byte
		err error
	}
	done := make(chan read, 1)
	go func() {
		out, err := io.ReadAll(r)
		done <- read{out, err}
	}()
	old := os.Stdout
	os.Stdout = w
	runErr := fn()
	os.Stdout = old
	w.Close()
	got := <-done
	if got.err != nil {
		t.Fatal(got.err)
	}
	return string(got.out), runErr
}

// TestReconfigctlTraceTx drives one committed and one rolled-back
// replacement, then renders each transaction's span timeline with
// `trace <txid>` and checks it is correlated with the step trace the
// TxReport carried.
func TestReconfigctlTraceTx(t *testing.T) {
	_, addr := startApp(t)
	time.Sleep(50 * time.Millisecond)

	c := reconf.NewClient(addr, time.Second)
	callTx := func(op string, args ...string) (*reconf.TxReport, error) {
		doc, err := c.Call(op, args...)
		var tx *reconf.TxReport
		if doc != "" {
			if jerr := json.Unmarshal([]byte(doc), &tx); jerr != nil {
				t.Fatalf("%s: not a TxReport: %v\n%s", op, jerr, doc)
			}
		}
		return tx, err
	}

	// Committed: a plain move.
	tx, err := callTx("move", "compute", "compute2", "machineB")
	if err != nil {
		t.Fatalf("move: %v", err)
	}
	if tx.TxID == "" || !tx.Committed {
		t.Fatalf("move tx = %+v, want committed with TxID", tx)
	}

	// Rolled back: an update to a module that does not exist.
	badTx, badErr := callTx("update", "compute2", "compute3", "no-such-module")
	if badErr == nil {
		t.Fatal("update to missing module succeeded")
	}
	if badTx == nil || badTx.TxID == "" || !badTx.RolledBack {
		t.Fatalf("failed update tx = %+v, want rolled back with TxID", badTx)
	}

	for _, tc := range []struct {
		tx      *reconf.TxReport
		outcome string
	}{
		{tx, "committed"},
		{badTx, "rolled-back"},
	} {
		out, err := capture(t, func() error {
			return run([]string{"-addr", addr, "trace", tc.tx.TxID})
		})
		if err != nil {
			t.Fatalf("trace %s: %v", tc.tx.TxID, err)
		}
		for _, want := range []string{tc.tx.TxID, tc.outcome, "steps:"} {
			if !strings.Contains(out, want) {
				t.Errorf("trace %s missing %q:\n%s", tc.tx.TxID, want, out)
			}
		}
		// The timeline's step section is the TxReport step trace.
		for _, step := range tc.tx.Steps {
			if !strings.Contains(out, step) {
				t.Errorf("trace %s missing step %q:\n%s", tc.tx.TxID, step, out)
			}
		}
	}
	if tl, _ := capture(t, func() error { return run([]string{"-addr", addr, "trace", tx.TxID}) }); !strings.Contains(tl, "quiesce_wait") {
		t.Errorf("committed timeline missing quiesce_wait span:\n%s", tl)
	}

	// Unknown transaction IDs are refused.
	if err := run([]string{"-addr", addr, "trace", "tx-9999"}); err == nil {
		t.Error("trace of unknown txid accepted")
	}
}
