package transform

import (
	"fmt"
	"go/format"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/mh"
)

// genWorkerModule builds a random module: main reads an int request, runs
// it through a randomly generated pure computation that contains a
// reconfiguration point, and writes the result. The generated control flow
// exercises if/for/switch/break/continue through the whole pipeline
// (flatten + hoist + weave).
func genWorkerModule(seed int64) string {
	r := rand.New(rand.NewSource(seed))
	var body strings.Builder
	vars := []string{"x", "acc"}
	expr := func(depth int) string {
		var gen func(d int) string
		gen = func(d int) string {
			if d <= 0 || r.Intn(3) == 0 {
				if r.Intn(2) == 0 {
					return vars[r.Intn(len(vars))]
				}
				return fmt.Sprintf("%d", r.Intn(9)+1)
			}
			op := []string{"+", "-", "*"}[r.Intn(3)]
			return fmt.Sprintf("((%s) %s (%s))", gen(d-1), op, gen(d-1))
		}
		return gen(depth)
	}
	var stmt func(ind, depth int)
	stmts := func(n, ind, depth int) {
		for i := 0; i < n; i++ {
			stmt(ind, depth)
		}
	}
	indent := func(n int) {
		for i := 0; i < n; i++ {
			body.WriteByte('\t')
		}
	}
	loopVar := 0
	inLoop := 0
	stmt = func(ind, depth int) {
		choices := 4
		if inLoop > 0 {
			choices = 5
		}
		if depth <= 0 {
			choices = 2
		}
		switch r.Intn(choices) {
		case 0:
			indent(ind)
			fmt.Fprintf(&body, "acc = ((%s) %% 100003)\n", expr(2))
		case 1:
			indent(ind)
			fmt.Fprintf(&body, "x += %s\n", expr(1))
		case 2:
			indent(ind)
			fmt.Fprintf(&body, "if (%s) %% 2 == 0 {\n", expr(1))
			stmts(1+r.Intn(2), ind+1, depth-1)
			indent(ind)
			body.WriteString("} else {\n")
			stmts(1, ind+1, depth-1)
			indent(ind)
			body.WriteString("}\n")
		case 3:
			loopVar++
			v := fmt.Sprintf("i%d", loopVar)
			indent(ind)
			fmt.Fprintf(&body, "for %s := 0; %s < %d; %s++ {\n", v, v, r.Intn(4)+1, v)
			vars = append(vars, v)
			inLoop++
			stmts(1+r.Intn(2), ind+1, depth-1)
			inLoop--
			vars = vars[:len(vars)-1]
			indent(ind)
			body.WriteString("}\n")
		case 4:
			indent(ind)
			fmt.Fprintf(&body, "if (%s) %% 7 == 0 {\n", expr(1))
			indent(ind + 1)
			if r.Intn(2) == 0 {
				body.WriteString("break\n")
			} else {
				body.WriteString("continue\n")
			}
			indent(ind)
			body.WriteString("}\n")
		}
	}
	var pre, post strings.Builder
	tmp := body
	body = pre
	stmts(2+r.Intn(3), 1, 3)
	pre = body
	body = post
	stmts(2+r.Intn(3), 1, 3)
	post = body
	body = tmp

	return fmt.Sprintf(`package worker

func main() {
	var x int
	mh.Init()
	for {
		if mh.QueryIfMsgs("in") {
			mh.Read("in", &x)
			r := step(x)
			mh.Write("in", r)
		}
		mh.Sleep(1)
	}
}

func step(x int) int {
	acc := 0
%s	mh.ReconfigPoint("R")
%s	return acc + x
}
`, pre.String(), post.String())
}

// runWorker serves the request stream through prog and returns the
// responses.
func runWorker(t *testing.T, prog *lang.Program, info *lang.Info, inputs []int) []int {
	t.Helper()
	b := bus.New()
	if err := b.AddInstance(bus.InstanceSpec{
		Name: "w", Module: "worker",
		Interfaces: []bus.IfaceSpec{{Name: "in", Dir: bus.InOut}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddInstance(bus.InstanceSpec{
		Name: "drv", Interfaces: []bus.IfaceSpec{{Name: "io", Dir: bus.InOut}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddBinding(bus.Endpoint{Instance: "drv", Interface: "io"}, bus.Endpoint{Instance: "w", Interface: "in"}); err != nil {
		t.Fatal(err)
	}
	drv, err := b.Attach("drv")
	if err != nil {
		t.Fatal(err)
	}
	port, err := b.Attach("w")
	if err != nil {
		t.Fatal(err)
	}
	rt := mh.New(port, mh.WithSleepUnit(time.Microsecond))
	in := interp.New(prog, info, rt, interp.WithMaxSteps(50_000_000))
	done := make(chan error, 1)
	go func() {
		_, err := in.Run()
		done <- err
	}()

	drt := mh.New(drv)
	drt.Init()
	out := make([]int, 0, len(inputs))
	for _, x := range inputs {
		drt.Write("io", x)
		var r int
		drt.Read("io", &r)
		if err := drt.Err(); err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	if err := b.DeleteInstance("w"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("module error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("module did not stop")
	}
	return out
}

// TestPipelineEquivalenceProperty: for randomly generated modules, the
// fully transformed program (flatten + hoist + weave, under each capture
// mode) serves exactly the same responses as the original when no
// reconfiguration is requested, and its text is a gofmt fixed point (what
// running format.Source over it used to guarantee).
func TestPipelineEquivalenceProperty(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 5
	}
	inputs := []int{0, 1, 7, 42, 1001, -13}
	for seed := 0; seed < seeds; seed++ {
		src := genWorkerModule(int64(seed))
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			prog, err := lang.ParseSource("worker.go", src)
			if err != nil {
				t.Fatalf("%v\n%s", err, src)
			}
			info, err := lang.Check(prog)
			if err != nil {
				t.Fatalf("%v\n%s", err, src)
			}
			want := runWorker(t, prog, info, inputs)

			for _, mode := range []CaptureMode{CaptureAll, CaptureLive} {
				out, err := PrepareSource("worker.go", src, Options{Mode: mode})
				if err != nil {
					t.Fatalf("prepare (%v): %v\n%s", mode, err, src)
				}
				gen, _ := out.Source()
				if formatted, err := format.Source([]byte(gen)); err != nil || string(formatted) != gen {
					t.Errorf("mode %v: output is not a gofmt fixed point (err %v):\n%s", mode, err, gen)
				}
				got := runWorker(t, out.Prog, out.Info, inputs)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("mode %v: responses %v, want %v\noriginal:\n%s\ninstrumented:\n%s",
						mode, got, want, src, gen)
				}
			}
		})
	}
}

// TestMigrationSweep parametrizes the Section 2 scenario over recursion
// depth and interrupt position: for every (n, k) with 0 <= k < n, the
// module is interrupted after consuming k of n sensor values and the final
// average must be exact. This sweeps capture depths 2..n+1 and both
// resume-edge dispatch paths.
func TestMigrationSweep(t *testing.T) {
	depths := []int{2, 3, 5, 8}
	if testing.Short() {
		depths = []int{2}
	}
	out := prepare(t, computeSrc, Options{Mode: CaptureLive})
	// k values are consumed before the interrupt; k <= n-2 keeps the
	// interrupt strictly mid-recursion (at k == n-1 the last read pops the
	// whole call before the flag is tested again, so the capture waits for
	// a later point execution — covered by TestInstrumentedIdlePath).
	for _, n := range depths {
		for k := 0; k <= n-2; k++ {
			t.Run(fmt.Sprintf("n%d-k%d", n, k), func(t *testing.T) {
				h := newHarness(t)
				_, done := h.start(out, "compute")

				h.sendInt(h.disp, "temper", n)
				// Feed k values; the module consumes them and blocks on
				// value k+1.
				for i := 0; i < k; i++ {
					h.sendInt(h.sens, "out", 10*(i+1))
				}
				time.Sleep(50 * time.Millisecond)
				if err := h.b.SignalReconfig("compute"); err != nil {
					t.Fatal(err)
				}
				// Unblock one read; the next reconfiguration point tests
				// the flag and the capture happens.
				h.sendInt(h.sens, "out", 10*(k+1))

				divulged, err := h.b.AwaitDivulged("compute", 5*time.Second)
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

				st, err := h.c.DecodeState(divulged)
				if err != nil {
					t.Fatal(err)
				}
				// After consuming k+1 values, recursion levels 1..k+1
				// have popped; the capture triggers at level k+2, leaving
				// compute frames for levels k+2..n plus main: n-k frames.
				wantDepth := n - k
				if st.Depth() != wantDepth {
					t.Fatalf("depth = %d, want %d\n%s", st.Depth(), wantDepth, st)
				}

				h.migrate(divulged)
				_, done2 := h.start(out, "compute2")
				for i := k + 1; i < n; i++ {
					h.sendInt(h.sens, "out", 10*(i+1))
				}
				want := 0.0
				for i := 1; i <= n; i++ {
					want += float64(10*i) / float64(n)
				}
				if got := h.readFloat(); got != want {
					t.Errorf("answer = %g, want %g", got, want)
				}
				h.b.DeleteInstance("compute2")
				select {
				case <-done2:
				case <-time.After(5 * time.Second):
					t.Fatal("clone did not stop")
				}
			})
		}
	}
}
