// Command polybus runs a distributed application from a configuration
// specification: the software bus, every module instance (interpreted from
// module-language sources, automatically prepared for reconfiguration when
// their specification declares points), and two TCP listeners — one for
// remote attachments to the bus, one for the operator plane: every
// reconfiguration and monitoring op over HTTP (drive it with reconfigctl
// or curl; /metrics, /healthz and the rest live there too).
//
//	polybus -spec app.mil -srcdir ./modules [-app name] \
//	        [-listen 127.0.0.1:7007] [-control 127.0.0.1:7008] [-pprof] \
//	        [-trace-sample 100] [-record 4096] [-record-spill run.rec] \
//	        [-preflight] [-duration 30s] [-sleepunit 10ms]
//
// Module sources are read from <srcdir>/<module>/*.go, test files
// (*_test.go) excepted.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers on http.DefaultServeMux, mounted only with -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/cmd/internal/modsrc"
	"repro/internal/bus"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "polybus:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("polybus", flag.ContinueOnError)
	var (
		specFile   = fs.String("spec", "", "configuration specification (required)")
		srcDir     = fs.String("srcdir", "", "directory of per-module source directories (required)")
		appName    = fs.String("app", "", "application name (default: the sole one)")
		listenAddr = fs.String("listen", "", "TCP address for remote module attachments")
		ctlAddr    = fs.String("control", "", "HTTP address for the operator plane: every reconfigctl op, /metrics, /healthz, ...")
		pprofOn    = fs.Bool("pprof", false, "also mount /debug/pprof on the operator plane (requires -control)")
		traceSmpl  = fs.Int("trace-sample", 0, "sample 1-in-N message traces; their deliveries go to the delivery log as spans (0 = off)")
		recordBuf  = fs.Int("record", 0, "record every delivered message into the delivery log, a ring of this capacity (0 = off)")
		recordFile = fs.String("record-spill", "", "also spill every record to this file (requires -record)")
		preflight  = fs.Bool("preflight", false, "gate replacements on a replay of the recorded window (requires -record)")
		duration   = fs.Duration("duration", 0, "run time (0 = until interrupted)")
		sleepUnit  = fs.Duration("sleepunit", 10*time.Millisecond, "duration of one mh.Sleep tick")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specFile == "" || *srcDir == "" {
		return fmt.Errorf("-spec and -srcdir are required")
	}
	specText, err := os.ReadFile(*specFile)
	if err != nil {
		return err
	}

	cfg := reconf.Config{
		SpecText:        string(specText),
		Application:     *appName,
		SleepUnit:       *sleepUnit,
		TraceSample:     *traceSmpl,
		RecordBuffer:    *recordBuf,
		PreflightReplay: *preflight,
	}
	if *recordFile != "" {
		if *recordBuf <= 0 {
			return fmt.Errorf("-record-spill requires -record")
		}
		spill, err := os.Create(*recordFile)
		if err != nil {
			return err
		}
		defer spill.Close()
		cfg.RecordSpill = spill
	}
	if cfg.Sources, err = modsrc.ReadAll(*srcDir); err != nil {
		return err
	}

	app, err := reconf.Load(cfg)
	if err != nil {
		return err
	}
	fmt.Println("application:", app.Application.Name)
	fmt.Println(app.Topology())
	if rec := app.Recorder(); rec != nil {
		fmt.Printf("recording: ring capacity %d, preflight replay %v\n", rec.Cap(), *preflight)
	}

	if err := app.Start(); err != nil {
		return err
	}

	if *listenAddr != "" {
		l, err := net.Listen("tcp", *listenAddr)
		if err != nil {
			return err
		}
		srv := bus.NewServer(app.Bus(), l)
		defer srv.Close()
		fmt.Println("module attachments on", srv.Addr())
	}
	if *ctlAddr != "" {
		l, err := net.Listen("tcp", *ctlAddr)
		if err != nil {
			return err
		}
		ctl := app.Serve(l)
		defer ctl.Close()
		if *pprofOn {
			ctl.Handle("/debug/pprof/", http.DefaultServeMux)
		}
		fmt.Println("operator plane on", ctl.Addr())
	} else if *pprofOn {
		return fmt.Errorf("-pprof requires -control")
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	if *duration > 0 {
		select {
		case <-time.After(*duration):
		case <-sigs:
		}
	} else {
		<-sigs
	}

	fmt.Println("\nfinal topology:")
	fmt.Println(app.Topology())
	fmt.Println("\nreconfiguration trace:")
	fmt.Println(reconf.FormatTrace(app.Trace()))
	st := app.Bus().Stats()
	fmt.Printf("\nbus stats: delivered=%d dropped=%d rebinds=%d signals=%d moves=%d\n",
		st.Delivered, st.Dropped, st.Rebinds, st.Signals, st.Moves)
	app.Stop()
	return nil
}
