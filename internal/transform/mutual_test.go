package transform

import (
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/codec"
	"repro/internal/interp"
	"repro/internal/mh"
)

// TestMutualRecursionMigration: the activation-record stack alternates
// between two mutually recursive procedures when the capture happens; the
// restore blocks rebuild the interleaved stack exactly.
func TestMutualRecursionMigration(t *testing.T) {
	src := `package zigzag

func main() {
	var n int
	mh.Init()
	for {
		if mh.QueryIfMsgs("in") {
			mh.Read("in", &n)
			var total float64
			zig(n, &total)
			mh.Write("in", total)
		}
		mh.Sleep(1)
	}
}

func zig(n int, tp *float64) {
	var v int
	if n <= 0 {
		return
	}
	zag(n-1, tp)
	mh.ReconfigPoint("RZ")
	mh.Read("vals", &v)
	*tp = *tp + float64(v)*2.0
}

func zag(n int, tp *float64) {
	var v int
	if n <= 0 {
		return
	}
	zig(n-1, tp)
	mh.Read("vals", &v)
	*tp = *tp - float64(v)
}
`
	out := prepare(t, src, Options{})
	// Both procedures are instrumented; only zig has a reconfiguration
	// point, but zag sits on stack paths to it.
	for _, fn := range []string{"main", "zig", "zag"} {
		if _, ok := out.Funcs[fn]; !ok {
			t.Fatalf("%s not instrumented", fn)
		}
	}

	b := bus.New()
	spec := bus.InstanceSpec{
		Name: "z", Module: "zigzag",
		Interfaces: []bus.IfaceSpec{{Name: "in", Dir: bus.InOut}, {Name: "vals", Dir: bus.In}},
	}
	if err := b.AddInstance(spec); err != nil {
		t.Fatal(err)
	}
	if err := b.AddInstance(bus.InstanceSpec{
		Name:       "drv",
		Interfaces: []bus.IfaceSpec{{Name: "io", Dir: bus.InOut}, {Name: "v", Dir: bus.Out}},
	}); err != nil {
		t.Fatal(err)
	}
	for _, bd := range [][2]bus.Endpoint{
		{{Instance: "drv", Interface: "io"}, {Instance: "z", Interface: "in"}},
		{{Instance: "drv", Interface: "v"}, {Instance: "z", Interface: "vals"}},
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
	launch := func(name string) chan error {
		port, err := b.Attach(name)
		if err != nil {
			t.Fatal(err)
		}
		rt := mh.New(port, mh.WithSleepUnit(time.Microsecond))
		in := interp.New(out.Prog, out.Info, rt)
		done := make(chan error, 1)
		go func() {
			_, err := in.Run()
			done <- err
		}()
		return done
	}
	done := launch("z")

	// n=5: zig(5)->zag(4)->zig(3)->zag(2)->zig(1)->zag(0) returns; the
	// unwind reads one value per live level, innermost first:
	// zig(1) +2*v1, zag(2) -v2, zig(3) +2*v3, zag(4) -v4, zig(5) +2*v5.
	expected := func(vals []int) float64 {
		total := 0.0
		for i, v := range vals {
			if i%2 == 0 {
				total += float64(v) * 2
			} else {
				total -= float64(v)
			}
		}
		return total
	}

	drv.Write("io", 5)
	time.Sleep(30 * time.Millisecond)
	// Feed two values (zig(1) and zag(2) levels pop), then interrupt: the
	// next zig level (zig(3)) tests the flag at RZ after its read... the
	// flag is polled at the next reconfiguration point *execution*, which
	// is zig(3)'s capture block after zag(2) returns.
	drv.Write("v", 10)
	time.Sleep(30 * time.Millisecond)
	if err := b.SignalReconfig("z"); err != nil {
		t.Fatal(err)
	}
	drv.Write("v", 20)

	divulged, err := b.AwaitDivulged("z", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("module did not exit")
	}
	st, err := codec.Default().DecodeState(divulged)
	if err != nil {
		t.Fatal(err)
	}
	// Live frames: main, zig(5), zag(4), zig(3) -> depth 4, alternating
	// procedure names.
	if st.Depth() != 4 {
		t.Fatalf("depth = %d\n%s", st.Depth(), st)
	}
	wantFuncs := []string{"main", "zig", "zag", "zig"}
	for i, f := range st.Frames {
		if f.Func != wantFuncs[i] {
			t.Errorf("frame %d = %s, want %s", i, f.Func, wantFuncs[i])
		}
	}

	// Clone, rebind, restore, feed the remaining values.
	if err := b.AddInstance(bus.InstanceSpec{
		Name: "z2", Module: "zigzag", Status: bus.StatusClone, Interfaces: spec.Interfaces,
	}); err != nil {
		t.Fatal(err)
	}
	edits := []bus.BindEdit{}
	for _, pair := range [][2]string{{"io", "in"}, {"v", "vals"}} {
		from := bus.Endpoint{Instance: "drv", Interface: pair[0]}
		edits = append(edits,
			bus.BindEdit{Op: "del", From: from, To: bus.Endpoint{Instance: "z", Interface: pair[1]}},
			bus.BindEdit{Op: "add", From: from, To: bus.Endpoint{Instance: "z2", Interface: pair[1]}},
			bus.BindEdit{Op: "cq", From: bus.Endpoint{Instance: "z", Interface: pair[1]}, To: bus.Endpoint{Instance: "z2", Interface: pair[1]}},
		)
	}
	if err := b.Rebind(edits); err != nil {
		t.Fatal(err)
	}
	if err := b.InstallState("z2", divulged); err != nil {
		t.Fatal(err)
	}
	if err := b.DeleteInstance("z"); err != nil {
		t.Fatal(err)
	}
	launch("z2")

	drv.Write("v", 30)
	drv.Write("v", 40)
	drv.Write("v", 50)
	var total float64
	drv.Read("io", &total)
	if err := drv.Err(); err != nil {
		t.Fatal(err)
	}
	if want := expected([]int{10, 20, 30, 40, 50}); total != want {
		t.Errorf("zigzag total = %v, want %v", total, want)
	}
	b.DeleteInstance("z2")
}
