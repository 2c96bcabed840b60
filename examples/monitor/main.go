// The Monitor example — the paper's Section 2, end to end.
//
// All three modules (sensor, compute, display) are written in the module
// language; compute is moved from machineA to machineB while it is in the
// middle of its recursive averaging procedure, so the activation-record
// stack is captured mid-recursion, shipped in the abstract format, and
// rebuilt on the new machine.
//
//	go run ./examples/monitor
package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/codec"
	"repro/internal/fixtures"
	"repro/internal/reconfig"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "monitor:", err)
		os.Exit(1)
	}
}

func run() error {
	app, err := reconf.Load(reconf.Config{
		SpecText: fixtures.MonitorSpec,
		Sources: map[string]reconf.ModuleSource{
			"compute": {Files: map[string]string{"compute.go": fixtures.ComputeSource}},
			"sensor":  {Files: map[string]string{"sensor.go": fixtures.SensorSource}},
			"display": {Files: map[string]string{"display.go": fixtures.DisplaySource}},
		},
		SleepUnit: time.Millisecond,
		Timeouts:  reconfig.Timeouts{StateMove: 10 * time.Second},
	})
	if err != nil {
		return err
	}

	// Show what the transformation did to compute (Figure 3 -> Figure 4).
	out := app.Module("compute").Output
	fmt.Println("== reconfiguration graph (Figure 6) ==")
	fmt.Print(out.Graph.String())
	fmt.Println("\n== capture sets ==")
	fmt.Print(out.ReportString())
	src, err := out.Source()
	if err != nil {
		return err
	}
	fmt.Println("== instrumented compute procedure (Figure 4) ==")
	idx := strings.Index(src, "func compute")
	fmt.Println(src[idx:])

	fmt.Println("== configuration before (Figure 1, left) ==")
	fmt.Println(app.Topology())
	if err := app.Start(); err != nil {
		return err
	}
	defer app.Stop()

	// Let the application serve a couple of requests.
	time.Sleep(50 * time.Millisecond)

	fmt.Println("\n== moving compute to machineB while it executes ==")
	if err := app.Move("compute", "compute2", "machineB"); err != nil {
		return err
	}

	fmt.Println("\n== configuration after (Figure 1, right) ==")
	fmt.Println(app.Topology())

	// Keep serving across the move.
	time.Sleep(100 * time.Millisecond)

	fmt.Println("\n== reconfiguration primitives (Figure 5) ==")
	fmt.Println(reconf.FormatTrace(app.Trace()))

	st := app.Bus().Stats()
	fmt.Printf("\nbus stats: delivered=%d dropped=%d rebinds=%d signals=%d queue-moves=%d\n",
		st.Delivered, st.Dropped, st.Rebinds, st.Signals, st.Moves)
	_ = codec.Default()
	return nil
}
