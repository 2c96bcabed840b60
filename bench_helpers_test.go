package reconf

import (
	"strings"
	"testing"
	"time"

	"repro/internal/fixtures"
	"repro/internal/mh"
	"repro/internal/transform"
)

// benchMonitorApp loads the monitor application for benchmarking. With
// instrument=false it strips the reconfiguration point from both the
// specification and the source, yielding the unprepared original module.
func benchMonitorApp(tb testing.TB, mode transform.CaptureMode, instrument bool) *App {
	tb.Helper()
	specText := fixtures.MonitorSpec
	src := fixtures.ComputeSource
	if !instrument {
		specText = strings.Replace(specText, "reconfiguration point = {R} ::", "", 1)
		specText = strings.Replace(specText, "state R = {num, n, rp} ::", "", 1)
		src = strings.Replace(src, "\tmh.ReconfigPoint(\"R\")\n", "", 1)
	}
	app, err := Load(Config{
		SpecText: specText,
		Sources: map[string]ModuleSource{
			"compute": {Files: map[string]string{"compute.go": src}},
		},
		Native: map[string]NativeModule{
			"display": func(rt *mh.Runtime) {},
			"sensor":  func(rt *mh.Runtime) {},
		},
		Mode:      mode,
		SleepUnit: time.Microsecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return app
}

func benchDriver(tb testing.TB, app *App) *driver {
	tb.Helper()
	return newDriver(tb, app)
}
