// Hotswap: software maintenance by dynamic update.
//
// A v1 statistics module is replaced by a v2 implementation while the
// application runs. The v2 module has the same procedures and capture sets
// — so it can accept the v1 module's divulged state — but computes a
// calibrated result. The update happens mid-call: the running total built
// by v1 is inherited by v2.
//
//	go run ./examples/hotswap
package main

import (
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/mh"
	"repro/internal/reconfig"
)

const spec = `
module stats {
  source = "./stats" ::
  server interface query pattern = {^integer} returns {float} ::
  use interface feed pattern = {^float} ::
  reconfiguration point = {R} ::
}

module statsV2 {
  source = "./stats_v2" ::
  server interface query pattern = {^integer} returns {float} ::
  use interface feed pattern = {^float} ::
  reconfiguration point = {R} ::
}

module client {
  source = "./client" ::
  client interface ask pattern = {integer} accepts {-float} ::
}

module feeder {
  source = "./feeder" ::
  define interface out pattern = {float} ::
}

module app {
  instance stats on "machineA"
  instance client
  instance feeder
  bind "client ask" "stats query"
  bind "feeder out" "stats feed"
}
`

// statsV1 accumulates a running sum; each query answers the mean of the
// next n feed values.
const statsV1 = `package stats

func main() {
	var n int
	var mean float64
	mh.Init()
	for {
		if mh.QueryIfMsgs("query") {
			mh.Read("query", &n)
			observe(n, n, &mean)
			mh.Write("query", mean)
		}
		mh.Sleep(1)
	}
}

func observe(total int, n int, mp *float64) {
	var sample float64
	if n <= 0 {
		*mp = 0.0
		return
	}
	observe(total, n-1, mp)
	mh.ReconfigPoint("R")
	mh.Read("feed", &sample)
	*mp = *mp + sample/float64(total)
}
`

// statsV2 is shape-identical (same procedures, parameters and locals, so
// the v1 abstract state restores into it) but reports a calibrated mean.
const statsV2 = `package stats

func main() {
	var n int
	var mean float64
	mh.Init()
	for {
		if mh.QueryIfMsgs("query") {
			mh.Read("query", &n)
			observe(n, n, &mean)
			mh.Log("v2 calibrated mean:", mean+0.5)
			mh.Write("query", mean+0.5)
		}
		mh.Sleep(1)
	}
}

func observe(total int, n int, mp *float64) {
	var sample float64
	if n <= 0 {
		*mp = 0.0
		return
	}
	observe(total, n-1, mp)
	mh.ReconfigPoint("R")
	mh.Read("feed", &sample)
	*mp = *mp + sample/float64(total)
}
`

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hotswap:", err)
		os.Exit(1)
	}
}

func run() error {
	type answer struct {
		n    int
		mean float64
	}
	answers := make(chan answer, 8)

	app, err := reconf.Load(reconf.Config{
		SpecText: spec,
		Sources: map[string]reconf.ModuleSource{
			"stats":   {Files: map[string]string{"stats.go": statsV1}},
			"statsV2": {Files: map[string]string{"stats.go": statsV2}},
		},
		Native: map[string]reconf.NativeModule{
			"feeder": func(rt *mh.Runtime) {
				rt.Init()
				v := 1.0
				for {
					rt.Write("out", v)
					v += 1.0
					rt.Sleep(1)
				}
			},
			"client": func(rt *mh.Runtime) {
				rt.Init()
				for i := 0; i < 6; i++ {
					rt.Write("ask", 4)
					var mean float64
					rt.Read("ask", &mean)
					answers <- answer{n: 4, mean: mean}
					rt.Sleep(2)
				}
			},
		},
		SleepUnit: time.Millisecond,
		Timeouts:  reconfig.Timeouts{StateMove: 10 * time.Second},
	})
	if err != nil {
		return err
	}
	if err := app.Start(); err != nil {
		return err
	}
	defer app.Stop()

	fmt.Println("== v1 serving ==")
	for i := 0; i < 2; i++ {
		a := <-answers
		fmt.Printf("  mean of %d samples: %.3f\n", a.n, a.mean)
	}

	fmt.Println("\n== updating stats -> statsV2 (mid-call, state carried) ==")
	start := time.Now()
	if err := app.Update("stats", "stats2", "statsV2"); err != nil {
		return err
	}
	fmt.Printf("update completed in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Println(app.Topology())

	fmt.Println("\n== v2 serving (answers now calibrated +0.5) ==")
	for i := 0; i < 4; i++ {
		select {
		case a := <-answers:
			fmt.Printf("  mean of %d samples: %.3f\n", a.n, a.mean)
		case <-time.After(10 * time.Second):
			return fmt.Errorf("answer %d never arrived", i)
		}
	}
	return nil
}
