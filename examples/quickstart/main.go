// Quickstart: load the paper's Monitor application, run it, and move the
// compute module to another machine while it is mid-computation.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/fixtures"
	"repro/internal/reconfig"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	results := make(chan fixtures.DisplayRequest, 8)
	app, err := reconf.Load(reconf.Config{
		SpecText: fixtures.MonitorSpec,
		Sources: map[string]reconf.ModuleSource{
			// compute declares reconfiguration point R; Load prepares it
			// automatically (flatten -> weave capture/restore blocks).
			"compute": {Files: map[string]string{"compute.go": fixtures.ComputeSource}},
		},
		Native: map[string]reconf.NativeModule{
			"sensor":  fixtures.Sensor(fixtures.SensorConfig{Interval: 1}),
			"display": fixtures.Display(4, 6, 1, results),
		},
		SleepUnit: time.Millisecond,
		Timeouts:  reconfig.Timeouts{StateMove: 10 * time.Second},
	})
	if err != nil {
		return err
	}
	fmt.Println("== initial configuration ==")
	fmt.Println(app.Topology())

	if err := app.Start(); err != nil {
		return err
	}
	defer app.Stop()

	r := <-results
	fmt.Println("\nfirst response:", r.Describe())

	fmt.Println("\n== moving compute to machineB (mid-computation) ==")
	start := time.Now()
	if err := app.Move("compute", "compute2", "machineB"); err != nil {
		return err
	}
	fmt.Printf("move completed in %v\n", time.Since(start).Round(time.Millisecond))

	fmt.Println("\n== configuration after the move ==")
	fmt.Println(app.Topology())

	fmt.Println("\nresponses across the migration:")
	for i := 0; i < 5; i++ {
		select {
		case r := <-results:
			fmt.Println(" ", r.Describe())
		case <-time.After(10 * time.Second):
			return fmt.Errorf("response %d never arrived", i)
		}
	}

	fmt.Println("\nreconfiguration primitives issued (Figure 5):")
	fmt.Println(reconf.FormatTrace(app.Trace()))
	return nil
}
