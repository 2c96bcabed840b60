// Command mhreplay replays a recorded message window offline: it reads a
// record spill file written by a bus with recording enabled (polybus
// -record N -record-spill file, or Config.RecordSpill), re-runs the
// window against one instance's module in-process — driving it through
// the mh runtime on a virtual clock — and reports whether the replayed
// output sequence reproduces the recorded one byte-for-byte.
//
//	mhreplay -log run.rec -spec app.mil -srcdir ./modules -inst filter
//	mhreplay -log run.rec -canon
//
// Module sources are read from <srcdir>/<module>/*.go, test files
// (*_test.go) excepted.
//
// With -canon the recorded window is printed in its canonical
// deterministic form (per-queue delivery logs, trace and timing fields
// excluded) instead of being replayed — the exact rendering the
// determinism gate compares across runs.
//
// Only modules with module-language sources can be replayed offline;
// native (in-process Go) modules exist only inside their host binary.
// The command exits 0 when the replay reproduces the recording, 1 on
// divergence, 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro"
	"repro/cmd/internal/modsrc"
	"repro/internal/replay"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mhreplay:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("mhreplay", flag.ContinueOnError)
	var (
		logFile   = fs.String("log", "", "record spill file (required)")
		canon     = fs.Bool("canon", false, "print the canonical per-queue log and exit")
		specFile  = fs.String("spec", "", "configuration specification (required unless -canon)")
		srcDir    = fs.String("srcdir", "", "directory of per-module source directories (required unless -canon)")
		appName   = fs.String("app", "", "application name (default: the sole one)")
		inst      = fs.String("inst", "", "instance to replay (required unless -canon)")
		timeout   = fs.Duration("timeout", 30*time.Second, "bound on the replay run")
		jsonOut   = fs.Bool("json", false, "print the full report as JSON")
		sleepUnit = fs.Duration("sleepunit", time.Millisecond, "sleep unit for module preparation (replay itself runs on a virtual clock)")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *logFile == "" {
		return 2, fmt.Errorf("-log is required")
	}
	recs, err := replay.ReadLogFile(*logFile)
	if err != nil {
		return 2, err
	}
	if *canon {
		fmt.Fprint(stdout, replay.Canonical(recs))
		return 0, nil
	}
	if *specFile == "" || *srcDir == "" || *inst == "" {
		return 2, fmt.Errorf("-spec, -srcdir and -inst are required (or use -canon)")
	}
	specText, err := os.ReadFile(*specFile)
	if err != nil {
		return 2, err
	}
	cfg := reconf.Config{
		SpecText:    string(specText),
		Application: *appName,
		SleepUnit:   *sleepUnit,
	}
	cfg.Timeouts.StateMove = *timeout
	if cfg.Sources, err = modsrc.ReadAll(*srcDir); err != nil {
		return 2, err
	}
	app, err := reconf.Load(cfg)
	if err != nil {
		return 2, err
	}
	defer app.Stop()

	rep, err := app.ReplayRecorded(*inst, recs)
	if err != nil {
		return 2, err
	}
	if *jsonOut {
		data, _ := json.MarshalIndent(rep, "", "  ")
		fmt.Fprintln(stdout, string(data))
	} else {
		fmt.Fprintf(stdout, "replayed %s (module %s): %d recorded inputs, %d consumed, %d outputs (recorded %d)\n",
			rep.Instance, rep.Module, rep.Window, rep.Consumed, rep.Replayed, rep.Expected)
		if rep.Err != "" {
			fmt.Fprintln(stdout, "termination:", rep.Err)
		}
	}
	if !rep.Match {
		if rep.Divergence != nil {
			fmt.Fprintln(stdout, "DIVERGED:", rep.Divergence)
		} else {
			fmt.Fprintln(stdout, "DIVERGED")
		}
		return 1, nil
	}
	fmt.Fprintln(stdout, "reproduced: replayed output sequence matches the recording")
	return 0, nil
}
