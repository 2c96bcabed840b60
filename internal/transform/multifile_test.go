package transform

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/codec"
	"repro/internal/interp"
	"repro/internal/mh"
)

// TestMultiFileModule: the transformation operates on whole modules, not
// single files — procedures on the reconfiguration path may live in
// different source files.
func TestMultiFileModule(t *testing.T) {
	files := map[string]string{
		"main.go": `package split

func main() {
	var x int
	mh.Init()
	for {
		if mh.QueryIfMsgs("in") {
			mh.Read("in", &x)
			r := outer(x)
			mh.Write("in", r)
		}
		mh.Sleep(1)
	}
}
`,
		"worker.go": `package split

func outer(x int) int {
	return inner(x * 2)
}

func inner(x int) int {
	var d int
	mh.ReconfigPoint("R")
	mh.Read("delta", &d)
	return x + d
}
`,
		"util.go": `package split

func unrelated(a int) int {
	return a * a
}
`,
	}
	out, err := Prepare(files, Options{})
	if err != nil {
		t.Fatal(err)
	}
	woven, err := out.Files()
	if err != nil {
		t.Fatal(err)
	}
	if len(woven) != 3 {
		t.Fatalf("output files = %d", len(woven))
	}
	// main.go and worker.go are instrumented; util.go untouched.
	if !strings.Contains(woven["main.go"], "mh.Restore(\"main\"") {
		t.Errorf("main.go not instrumented:\n%s", woven["main.go"])
	}
	for _, fn := range []string{"outer", "inner"} {
		if !strings.Contains(woven["worker.go"], "mh.Restore(\""+fn+"\"") {
			t.Errorf("worker.go missing restore for %s:\n%s", fn, woven["worker.go"])
		}
	}
	if strings.Contains(woven["util.go"], "mh.") {
		t.Errorf("util.go was instrumented:\n%s", woven["util.go"])
	}
	if _, ok := out.Funcs["unrelated"]; ok {
		t.Error("unrelated procedure in report")
	}

	// Standalone emission covers multi-file packages too.
	standalone, err := out.Standalone()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(standalone["main.go"], "func mhModuleMain()") {
		t.Error("standalone rename missed")
	}
	if name := out.Prog.Funcs["main"].Decl.Name.Name; name != "main" {
		t.Errorf("Standalone renamed the lowered program's main to %s", name)
	}
	if !strings.Contains(standalone["mh_main.go"], "package main") {
		t.Error("bootstrap missing")
	}
	for name, src := range standalone {
		if name == "mh_main.go" {
			continue
		}
		if !strings.HasPrefix(src, "package main") {
			t.Errorf("%s not package main", name)
		}
	}
}

// TestMultiFileMigration: the split module migrates mid-call across the
// desugared return path — the interrupted `return inner(x*2)` resumes by
// re-executing the generated temp assignment.
func TestMultiFileMigration(t *testing.T) {
	files := map[string]string{
		"main.go": `package split

func main() {
	var x int
	mh.Init()
	for {
		if mh.QueryIfMsgs("in") {
			mh.Read("in", &x)
			r := outer(x)
			mh.Write("in", r)
		}
		mh.Sleep(1)
	}
}
`,
		"worker.go": `package split

func outer(x int) int {
	return inner(x * 2)
}

func inner(x int) int {
	var d int
	mh.ReconfigPoint("R")
	mh.Read("delta", &d)
	return x + d
}
`,
	}
	out, err := Prepare(files, Options{})
	if err != nil {
		t.Fatal(err)
	}

	b := newBus(t)
	spec := bus.InstanceSpec{
		Name: "s", Module: "split",
		Interfaces: []bus.IfaceSpec{{Name: "in", Dir: bus.InOut}, {Name: "delta", Dir: bus.In}},
	}
	if err := b.AddInstance(spec); err != nil {
		t.Fatal(err)
	}
	if err := b.AddInstance(bus.InstanceSpec{
		Name:       "drv",
		Interfaces: []bus.IfaceSpec{{Name: "io", Dir: bus.InOut}, {Name: "d", Dir: bus.Out}},
	}); err != nil {
		t.Fatal(err)
	}
	for _, bd := range [][2]bus.Endpoint{
		{{Instance: "drv", Interface: "io"}, {Instance: "s", Interface: "in"}},
		{{Instance: "drv", Interface: "d"}, {Instance: "s", Interface: "delta"}},
	} {
		if err := b.AddBinding(bd[0], bd[1]); err != nil {
			t.Fatal(err)
		}
	}
	drvPort, err := b.Attach("drv")
	if err != nil {
		t.Fatal(err)
	}
	drv := mh.New(drvPort)
	drv.Init()
	launch := func(name string) {
		port, err := b.Attach(name)
		if err != nil {
			t.Fatal(err)
		}
		rt := mh.New(port, mh.WithSleepUnit(time.Microsecond))
		runModule(t, b, interp.New(out.Prog, out.Info, rt))
	}
	launch("s")

	// Block inside inner (waiting for delta), then interrupt: the stack
	// is main -> outer (at the desugared return call) -> inner.
	drv.Write("io", 21)
	waitBlocked(t, b, "s", "delta")
	if err := b.SignalReconfig("s"); err != nil {
		t.Fatal(err)
	}
	drv.Write("io", 0) // queue a second request to trigger the point
	divulged, err := b.AwaitDivulged("s", 300*time.Millisecond)
	if err == nil {
		// First request is still blocked on delta; the signal is only
		// polled when inner's point next executes — unblock it.
		t.Fatal("divulged before the point could run")
	}
	drv.Write("d", 100)
	var r int
	drv.Read("io", &r)
	if r != 21*2+100 {
		t.Fatalf("first answer = %d", r)
	}
	// Second request runs inner's point with the flag set -> capture with
	// stack depth 3 (main, outer, inner).
	divulged, err = b.AwaitDivulged("s", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	st, err := codec.Default().DecodeState(divulged)
	if err != nil {
		t.Fatal(err)
	}
	if st.Depth() != 3 {
		t.Fatalf("depth = %d\n%s", st.Depth(), st)
	}

	if err := b.AddInstance(bus.InstanceSpec{
		Name: "s2", Module: "split", Status: bus.StatusClone, Interfaces: spec.Interfaces,
	}); err != nil {
		t.Fatal(err)
	}
	edits := []bus.BindEdit{}
	for _, pair := range [][2]string{{"io", "in"}, {"d", "delta"}} {
		from := bus.Endpoint{Instance: "drv", Interface: pair[0]}
		edits = append(edits,
			bus.BindEdit{Op: "del", From: from, To: bus.Endpoint{Instance: "s", Interface: pair[1]}},
			bus.BindEdit{Op: "add", From: from, To: bus.Endpoint{Instance: "s2", Interface: pair[1]}},
			bus.BindEdit{Op: "cq", From: bus.Endpoint{Instance: "s", Interface: pair[1]}, To: bus.Endpoint{Instance: "s2", Interface: pair[1]}},
		)
	}
	if err := b.Rebind(edits); err != nil {
		t.Fatal(err)
	}
	if err := b.InstallState("s2", divulged); err != nil {
		t.Fatal(err)
	}
	if err := b.DeleteInstance("s"); err != nil {
		t.Fatal(err)
	}
	launch("s2")

	drv.Write("d", 7)
	drv.Read("io", &r)
	if err := drv.Err(); err != nil {
		t.Fatal(err)
	}
	if r != 0*2+7 {
		t.Errorf("migrated answer = %d, want 7", r)
	}
	b.DeleteInstance("s2")
}
