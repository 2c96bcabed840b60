package transform

import (
	"errors"
	"go/format"
	"go/scanner"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/mh"
)

// commentedSrc has a comment everywhere one can stand: before the package
// clause, between declarations, as doc comments, inside two instrumented
// procedures (main, work) and inside an untouched one (scale).
const commentedSrc = `// A licence header.

// Package commented exercises comment placement.
package commented

// Sample is one reading.
type Sample struct {
	Value int // raw reading
	Seq   int
}

// main feeds work forever.
func main() {
	var x int // the request
	mh.Init() // init first
	for {
		// between requests
		mh.Read("in", &x)
		x = work(x /* inline */, scale(x))
	}
}

// A note that belongs to no declaration.

// work holds the reconfiguration point.
func work(x int, k int) int {
	count := 0
	// point
	mh.ReconfigPoint("R")
	count = count + x*k // accumulate
	return count
}

// scale is not on a path to the point and stays as written.
func scale(x int) int {
	// keep small
	if x > 100 { // clamp
		return 100
	}
	return x /* as is */
}

// The end.
`

// TestCommentsAndWeaving pins where a module's comments go. Instrumented
// bodies are generated code: doc comments stay on their procedures, no
// comment lands inside an instrumented body, an untouched procedure keeps
// its own, and the text is what gofmt would leave alone. (With the whole
// file printed from one comment list, "init first" ended up inside
// mh.Status's argument list and work's doc comment inside main.)
func TestCommentsAndWeaving(t *testing.T) {
	for _, mode := range []CaptureMode{CaptureAll, CaptureLive} {
		src, err := prepare(t, commentedSrc, Options{Mode: mode}).Source()
		if err != nil {
			t.Fatal(err)
		}
		if formatted, err := format.Source([]byte(src)); err != nil || string(formatted) != src {
			t.Errorf("mode %v: output is not a gofmt fixed point (err %v)", mode, err)
		}
		for _, want := range []string{
			"// A licence header.\n\n// Package commented exercises comment placement.\npackage commented\n",
			"// Sample is one reading.\ntype Sample struct {\n\tValue int // raw reading\n\tSeq   int\n}\n",
			"\n// main feeds work forever.\nfunc main() {\n",
			"}\n\n// A note that belongs to no declaration.\n\n// work holds the reconfiguration point.\nfunc work(x int, k int) int {\n",
			"// scale is not on a path to the point and stays as written.\nfunc scale(x int) int {\n\t// keep small\n\tif x > 100 { // clamp\n\t\treturn 100\n\t}\n\treturn x /* as is */\n}\n",
			"}\n\n// The end.\n",
		} {
			if !strings.Contains(src, want) {
				t.Errorf("mode %v: output lacks %q", mode, want)
			}
		}
		for _, interior := range []string{"the request", "init first", "between requests", "inline", "// point", "accumulate"} {
			if strings.Contains(src, interior) {
				t.Errorf("mode %v: comment %q of an instrumented body survived", mode, interior)
			}
		}
		if t.Failed() {
			t.Logf("output:\n%s", src)
		}
	}
}

// errorSrc raises a run-time error where a test asks it to (mode n): in a
// flattened loop of main, in an argument hoisted out of a call to the
// instrumented step, or in scale, which no pass touches.
const errorSrc = `package p

func main() {
	var mode int
	mh.Init()
	mh.Read("in", &mode)
	for {
		mh.ReconfigPoint("R")
		if mode == 0 {
			mode = 7 / mode
		}
		step(9 % (mode - 1))
	}
}

func step(k int) {
	mh.ReconfigPoint("S")
	mh.Write("out", scale(k, 0))
}

func scale(x int, by int) int {
	return x / by
}
`

// TestRuntimeErrorCitesSource: Load lowers the woven AST, whose passes kept
// the positions of every node they reused, so a run-time error cites the
// line of the source as the programmer wrote it — from a flattened loop, a
// hoisted argument and an untouched procedure alike. An error raised by a
// statement only the weaver made has no position to cite and prints none.
func TestRuntimeErrorCitesSource(t *testing.T) {
	out := prepare(t, errorSrc, Options{})
	lines := strings.Split(errorSrc, "\n")
	low := interp.Lower(out.Prog, out.Info)
	for mode, want := range []string{"mode = 7 / mode", "step(9 % (mode - 1))", "return x / by"} {
		b := newBus(t)
		for _, spec := range []bus.InstanceSpec{
			{Name: "m", Module: "p", Interfaces: []bus.IfaceSpec{{Name: "in", Dir: bus.In}, {Name: "out", Dir: bus.Out}}},
			{Name: "drv", Interfaces: []bus.IfaceSpec{{Name: "to", Dir: bus.Out}}},
		} {
			if err := b.AddInstance(spec); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.AddBinding(bus.Endpoint{Instance: "drv", Interface: "to"}, bus.Endpoint{Instance: "m", Interface: "in"}); err != nil {
			t.Fatal(err)
		}
		drv, err := b.Attach("drv")
		if err != nil {
			t.Fatal(err)
		}
		drt := mh.New(drv)
		if drt.Write("to", mode); drt.Err() != nil {
			t.Fatal(drt.Err())
		}
		port, err := b.Attach("m")
		if err != nil {
			t.Fatal(err)
		}
		_, err = low.Bind(mh.New(port)).Run()
		var rerr *scanner.Error
		if !errors.As(err, &rerr) {
			t.Fatalf("mode %d: Run error = %v, want a *scanner.Error", mode, err)
		}
		if rerr.Pos.Filename != "mod.go" || rerr.Pos.Line < 1 || rerr.Pos.Line > len(lines) ||
			!strings.Contains(lines[rerr.Pos.Line-1], want) {
			t.Errorf("mode %d: error %v does not point at %q in the source", mode, err, want)
		}
	}

	// With no runtime attached, the first mh call main makes is the
	// weaver's clone check.
	_, err := low.Bind(nil).Run()
	var rerr *scanner.Error
	if !errors.As(err, &rerr) || !strings.Contains(rerr.Msg, "mh.Status called but no runtime") {
		t.Fatalf("Run without a runtime = %v, want the clone check's error", err)
	}
	if rerr.Pos.IsValid() || err.Error() != "interp: "+rerr.Msg {
		t.Errorf("an error on a generated statement cites %v (%q)", rerr.Pos, err)
	}
}

// TestWovenTextRunsAsLowered: the modules Prepare's cost is stated on serve
// the same responses lowered from the woven AST, as Load runs them, and from
// the text Files prints, parsed and checked afresh, as mhgen's reader would.
// A pass that builds an AST go/printer renders as a different program (a
// missing ParenExpr, say) fails here.
func TestWovenTextRunsAsLowered(t *testing.T) {
	for _, tc := range workCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			out := prepare(t, tc.src, tc.opts)
			_, reprog, reinfo := reparse(t, out)
			drive := driveStage
			if tc.name == "compute" {
				drive = driveCompute
			}
			ast, text := drive(t, out.Prog, out.Info), drive(t, reprog, reinfo)
			if len(ast) == 0 || !reflect.DeepEqual(ast, text) {
				t.Errorf("the woven AST serves %v, the printed text %v", ast, text)
			}
		})
	}
}

// driveStage feeds bench's stage a few requests and returns its (3x+1,
// count) answers.
func driveStage(t *testing.T, prog *lang.Program, info *lang.Info) []any {
	var got []any
	serve(t, prog, info,
		[]bus.IfaceSpec{{Name: "in", Dir: bus.In}, {Name: "out", Dir: bus.Out}},
		[]bus.IfaceSpec{{Name: "to", Dir: bus.Out}, {Name: "from", Dir: bus.In}},
		[][2]string{{"to", "in"}, {"from", "out"}},
		func(_ *bus.Bus, drt *mh.Runtime) {
			for _, x := range []int{0, 1, 7, 42, -13} {
				var y, count int
				drt.Write("to", x)
				drt.Read("from", &y, &count)
				if err := drt.Err(); err != nil {
					t.Fatal(err)
				}
				got = append(got, y, count)
			}
		})
	return got
}

// driveCompute asks Figure 3's compute for the average of n sensor values,
// n = 1..3. The values are sent once compute has taken the request, so main's
// idle-path compute(1, 1) cannot take one.
func driveCompute(t *testing.T, prog *lang.Program, info *lang.Info) []any {
	var got []any
	serve(t, prog, info,
		[]bus.IfaceSpec{{Name: "display", Dir: bus.InOut}, {Name: "sensor", Dir: bus.In}},
		[]bus.IfaceSpec{{Name: "temper", Dir: bus.InOut}, {Name: "sens", Dir: bus.Out}},
		[][2]string{{"temper", "display"}, {"sens", "sensor"}},
		func(b *bus.Bus, drt *mh.Runtime) {
			for n := 1; n <= 3; n++ {
				drt.Write("temper", n)
				for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
					if info, err := b.Info("m"); err != nil || info.Pending["display"] == 0 {
						break
					}
					if time.Now().After(deadline) {
						t.Fatal("compute never took its request")
					}
				}
				for i := 1; i <= n; i++ {
					drt.Write("sens", 10*i+n)
				}
				var avg float64
				drt.Read("temper", &avg)
				if err := drt.Err(); err != nil {
					t.Fatal(err)
				}
				got = append(got, avg)
			}
		})
	return got
}
