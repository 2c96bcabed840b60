package reconf

import (
	"strings"
	"testing"
	"time"

	"repro/internal/fixtures"
	"repro/internal/mh"
	"repro/internal/reconfig"
)

// incompatibleV2 has a different procedure shape (extra local, different
// recursion procedure name), so v1's divulged state cannot restore into it.
const incompatibleV2 = `package compute

func main() {
	var n int
	var response float64
	mh.Init()
	for {
		for mh.QueryIfMsgs("display") {
			mh.Read("display", &n)
			tally(n, n, &response)
			mh.Write("display", response)
		}
		mh.Sleep(2)
	}
}

func tally(num int, n int, rp *float64) {
	var temper int
	if n <= 0 {
		*rp = 0.0
		return
	}
	tally(num, n-1, rp)
	mh.ReconfigPoint("R")
	mh.Read("sensor", &temper)
	*rp = *rp + float64(temper)/float64(num)
}
`

// TestIncompatibleUpdateFailsLoudly (failure injection): hot-updating to a
// module whose procedures do not match the divulged frames must not
// corrupt anything silently — the clone's restoration aborts with a frame
// mismatch, the update script reports it, and the transaction rolls back:
// the old instance is resurrected from its own divulged state, its queued
// messages are returned, and it finishes the interrupted computation.
func TestIncompatibleUpdateFailsLoudly(t *testing.T) {
	specText := fixtures.MonitorSpec + `
module computeV2 {
  source = "./computeV2" ::
  server interface display pattern = {^integer} returns {float} ::
  use interface sensor pattern = {^integer} ::
  reconfiguration point = {R} ::
}
`
	app, err := Load(Config{
		SpecText: specText,
		Sources: map[string]ModuleSource{
			"compute":   {Files: map[string]string{"compute.go": fixtures.ComputeSource}},
			"computeV2": {Files: map[string]string{"compute.go": incompatibleV2}},
		},
		Native: map[string]NativeModule{
			"display": func(rt *mh.Runtime) {},
			"sensor":  func(rt *mh.Runtime) {},
		},
		SleepUnit: time.Microsecond,
		Timeouts:  reconfig.Timeouts{StateMove: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	d := newDriver(t, app)
	if err := app.Launch("compute"); err != nil {
		t.Fatal(err)
	}

	// Interrupt mid-recursion, then install the state into the
	// incompatible v2.
	d.requestTaken("compute", 3)
	go func() {
		time.Sleep(30 * time.Millisecond)
		d.temperature(60)
	}()
	err = app.Update("compute", "compute2", "computeV2")
	if err == nil {
		t.Fatal("incompatible update reported no error")
	}
	if !strings.Contains(err.Error(), "frame") {
		t.Errorf("error %v does not mention the frame mismatch", err)
	}
	if !strings.Contains(err.Error(), "rolled back") {
		t.Errorf("error %v does not report the rollback", err)
	}

	// The failed clone is gone and the original configuration is back.
	topo := app.Topology()
	if strings.Contains(topo, "compute2") {
		t.Errorf("failed clone still present:\n%s", topo)
	}
	if !strings.Contains(topo, "instance compute (module compute)") {
		t.Errorf("old instance missing after rollback:\n%s", topo)
	}

	// The resurrected old instance still answers traffic: it resumes at
	// its reconfiguration point, reads the queued temperature, and
	// finishes the interrupted computation — nothing was lost.
	d.temperature(70)
	d.temperature(80)
	want := 60.0/3 + 70.0/3 + 80.0/3
	if got := d.response(); got != want {
		t.Errorf("answer after rollback = %g, want %g", got, want)
	}
}

// TestCompatibleUpdateCarriesState is the counterpart: a shape-identical
// v2 accepts the state (the hotswap example's scenario, asserted here).
func TestCompatibleUpdateCarriesState(t *testing.T) {
	v2 := strings.Replace(fixtures.ComputeSource,
		`mh.Write("display", response)`,
		`mh.Write("display", response+1000.0)`, 1)
	specText := fixtures.MonitorSpec + `
module computeV2 {
  source = "./computeV2" ::
  server interface display pattern = {^integer} returns {float} ::
  use interface sensor pattern = {^integer} ::
  reconfiguration point = {R} ::
  state R = {num, n, rp} ::
}
`
	app, err := Load(Config{
		SpecText: specText,
		Sources: map[string]ModuleSource{
			"compute":   {Files: map[string]string{"compute.go": fixtures.ComputeSource}},
			"computeV2": {Files: map[string]string{"compute.go": v2}},
		},
		Native: map[string]NativeModule{
			"display": func(rt *mh.Runtime) {},
			"sensor":  func(rt *mh.Runtime) {},
		},
		SleepUnit: time.Microsecond,
		Timeouts:  reconfig.Timeouts{StateMove: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	d := newDriver(t, app)
	if err := app.Launch("compute"); err != nil {
		t.Fatal(err)
	}

	d.requestTaken("compute", 3)
	go func() {
		time.Sleep(30 * time.Millisecond)
		d.temperature(60)
	}()
	if err := app.Update("compute", "compute2", "computeV2"); err != nil {
		t.Fatal(err)
	}
	d.temperature(70)
	d.temperature(80)
	// v1 built 60/3 of the average; v2 finishes it and adds its marker.
	want := 60.0/3 + 70.0/3 + 80.0/3 + 1000
	if got := d.response(); got != want {
		t.Errorf("updated answer = %g, want %g", got, want)
	}
}
