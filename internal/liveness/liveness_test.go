package liveness

import (
	"go/ast"
	"reflect"
	"strings"
	"testing"

	"repro/internal/flatten"
	"repro/internal/lang"
)

// loadFlat parses, checks, flattens every function, and re-checks in place.
func loadFlat(t *testing.T, src string) (*lang.Program, *lang.Info) {
	t.Helper()
	prog, err := lang.ParseSource("mod.go", src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := lang.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range prog.FuncOrder {
		if _, err := flatten.Function(prog, info, name); err != nil {
			t.Fatal(err)
		}
		flatten.PruneLabels(prog.Funcs[name].Decl, nil)
	}
	if info, err = lang.Check(prog); err != nil {
		t.Fatal(err)
	}
	return prog, info
}

// markerIndex finds the flat index of the mh.ReconfigPoint call.
func markerIndex(t *testing.T, a *Analysis, info *lang.Info, fn string) int {
	t.Helper()
	pts := info.Points
	if len(pts) != 1 || pts[0].Func != fn {
		t.Fatalf("expected the module's one point to be in %s, got %+v", fn, pts)
	}
	idx := a.IndexOf(pts[0].Stmt)
	if idx < 0 {
		t.Fatal("marker statement not found in flat list")
	}
	return idx
}

func TestDeadVariableOmitted(t *testing.T) {
	prog, info := loadFlat(t, `package p
func main() { work() }
func work() {
	a := 1
	b := 2
	c := 3
	mh.ReconfigPoint("R")
	b = 10
	mh.Write("out", a+b)
	_ = c
}
`)
	a, err := Analyze(prog, info, "work")
	if err != nil {
		t.Fatal(err)
	}
	idx := markerIndex(t, a, info, "work")
	live := a.LiveAfter(idx)
	// a is read after the point; b is overwritten before its next read
	// (dead at the point); c is only discarded.
	if !reflect.DeepEqual(live, []string{"a"}) {
		t.Errorf("live at R = %v, want [a]", live)
	}
}

func TestLoopCarriedVariableLive(t *testing.T) {
	prog, info := loadFlat(t, `package p
func main() { work() }
func work() {
	total := 0
	for i := 0; i < 10; i++ {
		mh.ReconfigPoint("R")
		total += i
	}
	mh.Write("out", total)
}
`)
	a, err := Analyze(prog, info, "work")
	if err != nil {
		t.Fatal(err)
	}
	idx := markerIndex(t, a, info, "work")
	live := a.LiveAfter(idx)
	// Both the accumulator and the loop counter are live across the
	// point (the counter via the back edge).
	if !reflect.DeepEqual(live, []string{"i", "total"}) {
		t.Errorf("live at R = %v, want [i total]", live)
	}
}

func TestAddressTakenPinned(t *testing.T) {
	prog, info := loadFlat(t, `package p
func main() { work() }
func work() {
	x := 1
	y := 2
	bump(&x)
	mh.ReconfigPoint("R")
	mh.Write("out", y)
}
func bump(p *int) { *p = *p + 1 }
`)
	a, err := Analyze(prog, info, "work")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Pinned("x") {
		t.Error("address-taken x not pinned")
	}
	idx := markerIndex(t, a, info, "work")
	live := a.LiveAfter(idx)
	// x is dead by data flow but pinned by the address-taken rule.
	if !reflect.DeepEqual(live, []string{"x", "y"}) {
		t.Errorf("live at R = %v, want [x y]", live)
	}
}

func TestPointerParamStaysLive(t *testing.T) {
	prog, info := loadFlat(t, `package p
func main() {
	var r float64
	work(3, &r)
}
func work(n int, rp *float64) {
	var temper int
	mh.ReconfigPoint("R")
	mh.Read("sensor", &temper)
	*rp = *rp + float64(temper)/float64(n)
}
`)
	a, err := Analyze(prog, info, "work")
	if err != nil {
		t.Fatal(err)
	}
	idx := markerIndex(t, a, info, "work")
	live := a.LiveAfter(idx)
	// n and rp are read after the point; temper is written before read
	// (dead), though &temper pins it.
	want := []string{"n", "rp", "temper"}
	if !reflect.DeepEqual(live, want) {
		t.Errorf("live at R = %v, want %v", live, want)
	}
}

func TestLiveAfterCallSite(t *testing.T) {
	// The capture set for a call edge is what is live at the resume
	// point: here `result` flows into the write, `scratch` does not.
	prog, info := loadFlat(t, `package p
func main() {
	scratch := 5
	result := 0
	helper(&result)
	mh.Write("out", result)
	_ = scratch
}
func helper(p *int) {
	mh.ReconfigPoint("R")
	*p = 42
}
`)
	a, err := Analyze(prog, info, "main")
	if err != nil {
		t.Fatal(err)
	}
	// Find the helper call statement.
	callIdx := -1
	for i, s := range a.Stmts {
		if es, ok := s.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "helper" {
					callIdx = i
				}
			}
		}
	}
	if callIdx < 0 {
		t.Fatal("helper call not found")
	}
	live := a.LiveAfter(callIdx)
	// result is pinned (address taken) and read; scratch is dead.
	if !reflect.DeepEqual(live, []string{"result"}) {
		t.Errorf("live after call = %v, want [result]", live)
	}
}

func TestBranchJoinLiveness(t *testing.T) {
	prog, info := loadFlat(t, `package p
func main() { work(1) }
func work(k int) {
	a := 1
	b := 2
	mh.ReconfigPoint("R")
	if k > 0 {
		mh.Write("out", a)
	} else {
		mh.Write("out", b)
	}
}
`)
	a, err := Analyze(prog, info, "work")
	if err != nil {
		t.Fatal(err)
	}
	idx := markerIndex(t, a, info, "work")
	live := a.LiveAfter(idx)
	// Either branch may run: a, b and k are all live.
	if !reflect.DeepEqual(live, []string{"a", "b", "k"}) {
		t.Errorf("live at R = %v", live)
	}
}

func TestIndirectStoresAreUses(t *testing.T) {
	prog, info := loadFlat(t, `package p
func main() { work() }
func work() {
	s := make([]int, 3)
	i := 1
	mh.ReconfigPoint("R")
	s[i] = 9
	mh.Write("out", s[0])
}
`)
	a, err := Analyze(prog, info, "work")
	if err != nil {
		t.Fatal(err)
	}
	idx := markerIndex(t, a, info, "work")
	live := a.LiveAfter(idx)
	// s[i] = 9 uses both s and i and does not kill s.
	if !reflect.DeepEqual(live, []string{"i", "s"}) {
		t.Errorf("live at R = %v, want [i s]", live)
	}
}

func TestComputeModuleLiveness(t *testing.T) {
	// The monitor compute procedure: at R, num / n / rp are live (rp via
	// pin + use, num and n in the average update); temper is pinned only.
	prog, info := loadFlat(t, `package compute
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
`)
	a, err := Analyze(prog, info, "compute")
	if err != nil {
		t.Fatal(err)
	}
	idx := markerIndex(t, a, info, "compute")
	live := a.LiveAfter(idx)
	want := []string{"num", "rp", "temper"}
	if !reflect.DeepEqual(live, want) {
		t.Errorf("live at R = %v, want %v", live, want)
	}

	// In main, at the first compute call's resume point, n and response
	// are live (response is written through the pointer and then read).
	am, err := Analyze(prog, info, "main")
	if err != nil {
		t.Fatal(err)
	}
	callIdx := -1
	for i, s := range am.Stmts {
		if es, ok := s.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "compute" {
					callIdx = i
					break
				}
			}
		}
	}
	if callIdx < 0 {
		t.Fatal("compute call not found in flattened main")
	}
	live = am.LiveAfter(callIdx)
	if !reflect.DeepEqual(live, []string{"n", "response"}) {
		t.Errorf("live after compute call = %v, want [n response]", live)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	prog, info := loadFlat(t, `package p
func main() {}
`)
	if _, err := Analyze(prog, info, "ghost"); err == nil {
		t.Error("unknown function accepted")
	}

	// Unflattened input (a raw for loop) is rejected by the successor
	// computation only if a non-goto branch appears at top level; build
	// one directly.
	prog2, err := lang.ParseSource("mod.go", `package p
func main() {
	for i := 0; i < 3; i++ {
		break
	}
}
`)
	if err != nil {
		t.Fatal(err)
	}
	info2, err := lang.Check(prog2)
	if err != nil {
		t.Fatal(err)
	}
	// A for statement at top level is treated as an opaque statement with
	// fallthrough successor — Analyze tolerates it (no panic) since only
	// flat forms matter in the pipeline.
	if _, err := Analyze(prog2, info2, "main"); err != nil {
		t.Logf("non-flat input reported: %v", err)
	}
}

func TestIndexOfMissing(t *testing.T) {
	prog, info := loadFlat(t, `package p
func main() { mh.Init() }
`)
	a, err := Analyze(prog, info, "main")
	if err != nil {
		t.Fatal(err)
	}
	if a.IndexOf(nil) != -1 {
		t.Error("IndexOf(nil) should be -1")
	}
	if len(a.Stmts) == 0 {
		t.Fatal("no statements")
	}
	if a.IndexOf(a.Stmts[0]) != 0 {
		t.Error("IndexOf(first) != 0")
	}
}

func TestMHOutParamOption(t *testing.T) {
	prog, info := loadFlat(t, `package p
func main() { work(3) }
func work(n int) {
	var temper int
	mh.ReconfigPoint("R")
	mh.Read("sensor", &temper)
	mh.Write("out", temper+n)
}
`)
	// Default (transform) semantics: &temper counts as a use and pins
	// temper, so it appears in the capture set at R.
	a, err := Analyze(prog, info, "work")
	if err != nil {
		t.Fatal(err)
	}
	idx := markerIndex(t, a, info, "work")
	if live := a.LiveAfter(idx); !reflect.DeepEqual(live, []string{"n", "temper"}) {
		t.Errorf("default live at R = %v, want [n temper]", live)
	}
	if !a.Pinned("temper") {
		t.Error("default analysis should pin temper")
	}

	// With MHOutParams the mh.Read out-argument is a definition: temper is
	// neither pinned nor live across the point.
	ao, err := AnalyzeOpts(prog, info, "work", Options{MHOutParams: true})
	if err != nil {
		t.Fatal(err)
	}
	idx = markerIndex(t, ao, info, "work")
	if live := ao.LiveAfter(idx); !reflect.DeepEqual(live, []string{"n"}) {
		t.Errorf("MHOutParams live at R = %v, want [n]", live)
	}
	if ao.Pinned("temper") {
		t.Error("MHOutParams analysis should not pin temper")
	}
}

func TestMHOutParamExemptsOnlyMHCalls(t *testing.T) {
	// The exemption is scoped to mh out-parameter slots: an address that
	// also escapes to an ordinary call stays pinned.
	prog, info := loadFlat(t, `package p
func main() { work() }
func work() {
	var x int
	bump(&x)
	mh.ReconfigPoint("R")
	mh.Read("in", &x)
	mh.Write("out", x)
}
func bump(p *int) { *p = *p + 1 }
`)
	ao, err := AnalyzeOpts(prog, info, "work", Options{MHOutParams: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ao.Pinned("x") {
		t.Error("x escapes via bump(&x) and must stay pinned")
	}
}

func TestGotoIntoLoopBody(t *testing.T) {
	// A goto that jumps into a loop body exercises label resolution across
	// the lowered loop: the back edge and the entry edge must both reach
	// Body, keeping the loop-carried state live at the jump.
	prog, info := loadFlat(t, `package p
func main() { work() }
func work() {
	x := 1
	s := 0
	i := 0
	goto Body
	for i = 0; i < 3; i = i + 1 {
	Body:
		s = s + x
	}
	mh.ReconfigPoint("R")
	mh.Write("out", s)
}
`)
	a, err := Analyze(prog, info, "work")
	if err != nil {
		t.Fatal(err)
	}
	gotoIdx := -1
	for i, s := range a.Stmts {
		if br, ok := s.(*ast.BranchStmt); ok && br.Label != nil && br.Label.Name == "Body" {
			gotoIdx = i
			break
		}
	}
	if gotoIdx < 0 {
		t.Fatal("goto Body not found in flat list")
	}
	// Entering at Body runs s = s + x, then the post statement and the
	// condition: all three variables are live at the jump.
	if live := a.LiveBefore(gotoIdx); !reflect.DeepEqual(live, []string{"i", "s", "x"}) {
		t.Errorf("live before goto = %v, want [i s x]", live)
	}
	idx := markerIndex(t, a, info, "work")
	if live := a.LiveAfter(idx); !reflect.DeepEqual(live, []string{"s"}) {
		t.Errorf("live at R = %v, want [s]", live)
	}
}

func TestStringsSortedDeterministic(t *testing.T) {
	prog, info := loadFlat(t, `package p
func main() { work() }
func work() {
	z := 1
	a := 2
	m := 3
	mh.ReconfigPoint("R")
	mh.Write("out", z+a+m)
}
`)
	a, err := Analyze(prog, info, "work")
	if err != nil {
		t.Fatal(err)
	}
	idx := markerIndex(t, a, info, "work")
	live := a.LiveAfter(idx)
	if strings.Join(live, ",") != "a,m,z" {
		t.Errorf("live = %v, want sorted [a m z]", live)
	}
}
