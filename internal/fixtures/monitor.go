// Package fixtures holds the paper's running example — the Monitor
// application of Section 2 — in a form shared by the facade tests, the
// benchmark harness and the runnable examples.
package fixtures

import (
	"fmt"
	"time"

	"repro/internal/mh"
)

// MonitorSpec is the Figure 2 configuration specification.
const MonitorSpec = `
# Figure 2: the Monitor application.
module display {
  source = "./display" ::
  client interface temper pattern = {integer} accepts {-float} ::
}

module compute {
  source = "./compute" ::
  server interface display pattern = {^integer} returns {float} ::
  use interface sensor pattern = {^integer} ::
  reconfiguration point = {R} ::
  state R = {num, n, rp} ::
}

module sensor {
  source = "./sensor" ::
  define interface out pattern = {integer} ::
}

module monitor {
  instance display
  instance compute on "machineA"
  instance sensor
  bind "display temper" "compute display"
  bind "sensor out" "compute sensor"
}
`

// ComputeSource is the Figure 3 compute module in the module language. The
// reconfiguration point R is marked with mh.ReconfigPoint (the Go-legal
// form of the paper's source label).
const ComputeSource = `package compute

func main() {
	var n int
	var response float64
	mh.Init()
	for {
		for mh.QueryIfMsgs("display") {
			mh.Read("display", &n)
			compute(n, n, &response)
			mh.Write("display", response)
		}
		if mh.QueryIfMsgs("sensor") {
			compute(1, 1, &response)
		}
		mh.Sleep(2)
	}
}

func compute(num int, n int, rp *float64) {
	var temper int
	if n <= 0 {
		*rp = 0.0
		return
	}
	compute(num, n-1, rp)
	mh.ReconfigPoint("R")
	mh.Read("sensor", &temper)
	*rp = *rp + float64(temper)/float64(num)
}
`

// SensorSource is a module-language sensor: it emits a repeating ramp of
// temperature values at regular intervals.
const SensorSource = `package sensor

func main() {
	var v int
	v = 60
	mh.Init()
	for {
		mh.Write("out", v)
		v = v + 1
		if v > 69 {
			v = 60
		}
		mh.Sleep(2)
	}
}
`

// DisplaySource is a module-language display: it requests the average of 4
// temperatures in a loop and logs each response.
const DisplaySource = `package display

func main() {
	var response float64
	mh.Init()
	for {
		mh.Write("temper", 4)
		mh.Read("temper", &response)
		mh.Log("average of 4 temperatures:", response)
		mh.Sleep(5)
	}
}
`

// SensorConfig drives the native sensor module.
type SensorConfig struct {
	// Values is the temperature sequence to emit; when exhausted, the
	// sensor repeats the last value. Empty means a deterministic ramp.
	Values []int
	// Interval is the mh.Sleep tick count between emissions.
	Interval int
	// Limit stops after this many emissions (0 = until deleted).
	Limit int
}

// Sensor returns a native sensor module: it produces temperature values at
// regular intervals on its "out" interface.
func Sensor(cfg SensorConfig) func(rt *mh.Runtime) {
	if cfg.Interval <= 0 {
		cfg.Interval = 1
	}
	return func(rt *mh.Runtime) {
		rt.Init()
		i := 0
		for cfg.Limit == 0 || i < cfg.Limit {
			var v int
			switch {
			case len(cfg.Values) == 0:
				v = 50 + i // unbounded ramp: any window identifies its start
			case i < len(cfg.Values):
				v = cfg.Values[i]
			default:
				v = cfg.Values[len(cfg.Values)-1]
			}
			rt.Write("out", v)
			i++
			rt.Sleep(cfg.Interval)
		}
	}
}

// DisplayRequest is one request/response pair observed by the display.
type DisplayRequest struct {
	N        int
	Response float64
	Elapsed  time.Duration
}

// Display returns a native display module that issues count requests, each
// asking for the average of n temperatures, and reports each response on
// the results channel.
func Display(n, count int, interval int, results chan<- DisplayRequest) func(rt *mh.Runtime) {
	return func(rt *mh.Runtime) {
		rt.Init()
		for i := 0; i < count; i++ {
			start := rt.Clock().Now()
			rt.Write("temper", n)
			var response float64
			rt.Read("temper", &response)
			if results != nil {
				results <- DisplayRequest{N: n, Response: response, Elapsed: rt.Clock().Now().Sub(start)}
			}
			if interval > 0 {
				rt.Sleep(interval)
			}
		}
	}
}

// ExpectedAverage computes the answer the monitor must produce for a
// request of n temperatures drawn from values (repeating the last one),
// starting at offset consumed.
func ExpectedAverage(values []int, consumed, n int) float64 {
	total := 0.0
	for i := 0; i < n; i++ {
		idx := consumed + i
		var v int
		switch {
		case len(values) == 0:
			v = 50 + idx
		case idx < len(values):
			v = values[idx]
		default:
			v = values[len(values)-1]
		}
		total += float64(v) / float64(n)
	}
	return total
}

// Describe renders a request for example output.
func (r DisplayRequest) Describe() string {
	return fmt.Sprintf("avg(%d) = %.3f (%.1fms)", r.N, r.Response, float64(r.Elapsed.Microseconds())/1000)
}
