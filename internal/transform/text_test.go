package transform

import (
	"errors"
	"go/format"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/interp"
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

// TestRuntimeErrorCitesWovenText: Prog and Info come from parsing the
// printed output, so the position of a run-time error is a position in
// Files — also inside an instrumented body, whose statements were printed
// without any.
func TestRuntimeErrorCitesWovenText(t *testing.T) {
	out := prepare(t, `package p

func main() {
	d := 0
	mh.Init()
	for {
		mh.ReconfigPoint("R")
		d = 7 / d
	}
}
`, Options{})
	b := bus.New()
	if err := b.AddInstance(bus.InstanceSpec{Name: "m", Module: "p"}); err != nil {
		t.Fatal(err)
	}
	port, err := b.Attach("m")
	if err != nil {
		t.Fatal(err)
	}
	_, err = interp.New(out.Prog, out.Info, mh.New(port)).Run()
	var rerr *interp.Error
	if !errors.As(err, &rerr) {
		t.Fatalf("Run error = %v, want an *interp.Error", err)
	}
	lines := strings.Split(out.Files[rerr.Pos.Filename], "\n")
	if rerr.Pos.Line < 1 || rerr.Pos.Line > len(lines) || !strings.Contains(lines[rerr.Pos.Line-1], "d = 7 / d") {
		t.Errorf("error %v does not point at the division in\n%s", err, out.Files[rerr.Pos.Filename])
	}
}
