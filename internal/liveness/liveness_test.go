package liveness

import (
	"fmt"
	"go/ast"
	"go/token"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/flatten"
	"repro/internal/lang"
	"repro/internal/lang/langtest"
)

// loadFlat parses, checks, flattens every function, and re-checks in place.
func loadFlat(t *testing.T, src string) (*lang.Program, *lang.Info) {
	t.Helper()
	prog, err := lang.ParseFiles(map[string]string{"mod.go": src})
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
	// (dead), and an mh.Read out-parameter does not pin it.
	want := []string{"n", "rp"}
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
	// The monitor compute procedure: at R, num and rp are live (rp via pin
	// + use, num in the average update); mh.Read refills temper.
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
	want := []string{"num", "rp"}
	if !reflect.DeepEqual(live, want) {
		t.Errorf("live at R = %v, want %v", live, want)
	}

	// In main, at the first compute call's resume point, response is live
	// (written through the pointer and then read); mh.Read refills n.
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
	if !reflect.DeepEqual(live, []string{"response"}) {
		t.Errorf("live after compute call = %v, want [response]", live)
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
	prog2, err := lang.ParseFiles(map[string]string{"mod.go": `package p
func main() {
	for i := 0; i < 3; i++ {
		break
	}
}
`})
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
	// An `&x` in an out-parameter slot of an mh primitive is a definition
	// of x, not a use, and does not pin x: the runtime fills the pointee and
	// keeps no address. So temper, which the mh.Read after the point
	// refills, is neither pinned nor live across the point, and a capture
	// set that omits it is sound, as the paper's Figure 2 list {num, n, rp}
	// does.
	a, err := Analyze(prog, info, "work")
	if err != nil {
		t.Fatal(err)
	}
	idx := markerIndex(t, a, info, "work")
	if live := a.LiveAfter(idx); !reflect.DeepEqual(live, []string{"n"}) {
		t.Errorf("live at R = %v, want [n]", live)
	}
	if a.Pinned("temper") {
		t.Error("an mh.Read out-parameter pins temper")
	}

	// Before the point the read has not happened yet, and the marker
	// reads nothing: temper is dead there too, and n live. The Write after
	// the read uses both.
	if live := a.LiveBefore(idx); !reflect.DeepEqual(live, []string{"n"}) {
		t.Errorf("live before R = %v, want [n]", live)
	}
	if live := a.LiveAfter(idx + 1); !reflect.DeepEqual(live, []string{"n", "temper"}) {
		t.Errorf("live after the read = %v, want [n temper]", live)
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
	a, err := Analyze(prog, info, "work")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Pinned("x") {
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

// blankSrc uses the blank identifier everywhere the subset allows it. `_` is
// not one of the procedure's variables: it gets no bit and is never live.
const blankSrc = `package p
func main() {
	x := 1
	var _ = one(x)
	_ = x
	_, y := two(x)
	_, y = two(y)
	var z int
	z, _ = two(y)
	mh.ReconfigPoint("R")
	mh.Write("out", z+skip(y, x))
}
func one(v int) int { return v }
func two(v int) (int, int) { return v, v + 1 }
func skip(_ int, w int) int { return w }
`

// TestLivenessMatchesReference compares the bit-vector analysis with the
// map-based reference below on every procedure of a corpus, flattened and
// as written (where structured statements are opaque and a break is an
// error for both): live-in and live-out at every statement, their unions,
// and pinning of every variable. The corpus is
// every module this file holds (Figure 3's compute and blankSrc among
// them), the two stages the benchmark loads, seeded random modules and one
// procedure of more than 128 variables.
func TestLivenessMatchesReference(t *testing.T) {
	corpus := langtest.EmbeddedModules(t, "liveness_test.go")
	for k, src := range langtest.EmbeddedModules(t, "../../bench/workloads.go") {
		corpus[k] = src
	}
	if len(corpus) < 18 {
		t.Fatalf("corpus holds %d modules: an embedded source went missing", len(corpus))
	}
	seeds := 300
	if testing.Short() {
		seeds = 50
	}
	for seed := 0; seed < seeds; seed++ {
		corpus[fmt.Sprintf("seed%d", seed)] = genModule(int64(seed))
	}
	corpus["chain"] = chainSrc(300, 150) // rows of three words
	keys := make([]string, 0, len(corpus))
	for k := range corpus {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		t.Run(key, func(t *testing.T) {
			written, err := lang.ParseFiles(map[string]string{"mod.go": corpus[key]})
			if err != nil {
				t.Fatal(err)
			}
			writtenInfo, err := lang.Check(written)
			if err != nil {
				t.Fatal(err)
			}
			flat, flatInfo := loadFlat(t, corpus[key])
			for _, name := range flat.FuncOrder {
				if !matchesReference(t, written, writtenInfo, name) || !matchesReference(t, flat, flatInfo, name) {
					t.Fatalf("module:\n%s", corpus[key])
				}
			}
		})
	}
}

func matchesReference(t *testing.T, prog *lang.Program, info *lang.Info, name string) bool {
	t.Helper()
	where := name
	a, err := Analyze(prog, info, name)
	ref, refErr := refAnalyze(prog, info, name)
	if err != nil || refErr != nil {
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Errorf("%s: error %v, reference %v", where, err, refErr)
			return false
		}
		return true
	}
	if len(a.Stmts) != len(ref.stmts) {
		t.Errorf("%s: %d statements, reference %d", where, len(a.Stmts), len(ref.stmts))
		return false
	}
	ok := true
	all := make([]int, len(a.Stmts))
	unionOut, unionIn := map[string]bool{}, map[string]bool{}
	for i := range a.Stmts {
		all[i] = i
		for v := range ref.liveOut[i] {
			unionOut[v] = true
		}
		for v := range ref.liveIn[i] {
			unionIn[v] = true
		}
		for _, c := range []struct {
			what      string
			got, want []string
		}{
			{"before", a.LiveBefore(i), ref.sorted(ref.liveIn[i])},
			{"after", a.LiveAfter(i), ref.sorted(ref.liveOut[i])},
		} {
			if !reflect.DeepEqual(c.got, c.want) || slices.Contains(c.got, "_") {
				t.Errorf("%s: live %s statement %d: %v, reference %v", where, c.what, i, c.got, c.want)
				ok = false
			}
		}
	}
	if got, want := a.LiveAny(all, nil), ref.sorted(unionOut); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: live after any statement: %v, reference %v", where, got, want)
		ok = false
	}
	if got, want := a.LiveAny(nil, all), ref.sorted(unionIn); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: live before any statement: %v, reference %v", where, got, want)
		ok = false
	}
	names := []string{"_", "nosuch"}
	for _, v := range info.FuncVars[name] {
		names = append(names, v.Name)
	}
	for _, v := range names {
		if a.Pinned(v) != ref.pinned[v] {
			t.Errorf("%s: Pinned(%s) = %v, reference %v", where, v, a.Pinned(v), ref.pinned[v])
			ok = false
		}
	}
	return ok
}

// genModule writes a random module whose procedure work mixes what the
// analysis must get right: loops, gotos out of nested blocks, branches,
// switches, returns, address-taken locals and slice elements, `&x` in
// mh.Read and mh.Restore, indirect stores, shadowing declarations and the
// blank identifier. The modules are analysed, never run, so a loop need not
// end.
func genModule(seed int64) string {
	g := &modGen{r: rand.New(rand.NewSource(seed))}
	g.labels = 3 + g.r.Intn(6)
	g.b.WriteString("package p\n\nfunc main() {\n\tvar r int\n\twork(2, &r)\n\tmh.Write(\"out\", r)\n}\n\n" +
		"func bump(p *int) { *p = *p + 1 }\n\nfunc two(v int) (int, int) { return v, v + 1 }\n\n" +
		"func work(n int, rp *int) {\n\tvar a int\n\tb := n\n\tc := 0\n\ts := make([]int, 3)\n")
	for k := 0; k < g.labels; k++ {
		fmt.Fprintf(&g.b, "L%d:\n", k)
		g.stmt(1)
	}
	g.b.WriteString("\t*rp = a + b + c + s[0]\n}\n")
	return g.b.String()
}

type modGen struct {
	r      *rand.Rand
	b      strings.Builder
	labels int // top-level statements, labeled L0, L1, ...
	loops  int // enclosing loops: break and continue are legal inside one
}

func (g *modGen) v() string { return []string{"a", "b", "c", "n"}[g.r.Intn(4)] }

func (g *modGen) expr() string {
	switch g.r.Intn(4) {
	case 0:
		return strconv.Itoa(g.r.Intn(9))
	case 1:
		return g.v()
	case 2:
		return g.v() + " + " + g.v()
	default:
		return "s[" + g.v() + "%3] * " + g.v()
	}
}

func (g *modGen) line(depth int, format string, args ...any) {
	g.b.WriteString(strings.Repeat("\t", depth))
	fmt.Fprintf(&g.b, format+"\n", args...)
}

func (g *modGen) block(depth int) {
	for k := 1 + g.r.Intn(3); k > 0; k-- {
		g.stmt(depth)
	}
}

func (g *modGen) stmt(depth int) {
	kinds := 13
	if depth == 4 {
		kinds = 8 // no more nesting
	}
	switch g.r.Intn(kinds) {
	case 0:
		g.line(depth, "%s = %s", g.v(), g.expr())
	case 1:
		g.line(depth, "%s += %s", g.v(), g.expr())
	case 2:
		g.line(depth, "%s++", g.v())
	case 3:
		g.line(depth, "s[%s%%3] = %s", g.v(), g.expr())
	case 4:
		if g.r.Intn(2) == 0 {
			g.line(depth, "bump(&%s)", g.v())
		} else {
			g.line(depth, "bump(&s[%d])", g.r.Intn(3))
		}
	case 5:
		switch g.r.Intn(3) {
		case 0:
			g.line(depth, "mh.Read(\"in\", &%s)", g.v())
		case 1:
			g.line(depth, "mh.Read(\"in\", &s[%s%%3], &%s)", g.v(), g.v())
		default:
			g.line(depth, "mh.Restore(\"work\", \"lii\", &%s, &%s)", g.v(), g.v())
		}
	case 6:
		switch g.r.Intn(3) {
		case 0:
			g.line(depth, "_ = %s", g.v())
		case 1:
			g.line(depth, "_, %s = two(%s)", g.v(), g.expr())
		default:
			g.line(depth, "%s, _ = two(%s)", g.v(), g.expr())
		}
	case 7:
		switch {
		case g.loops > 0 && g.r.Intn(2) == 0:
			g.line(depth, "if %s < %s {", g.v(), g.expr())
			g.line(depth+1, []string{"break", "continue"}[g.r.Intn(2)])
			g.line(depth, "}")
		case g.r.Intn(2) == 0:
			g.line(depth, "if %s > %s {", g.v(), g.expr())
			g.line(depth+1, "goto L%d", g.r.Intn(g.labels))
			g.line(depth, "}")
		default:
			g.line(depth, "mh.Write(\"out\", %s)", g.expr())
		}
	case 8:
		g.line(depth, "if %s < %s {", g.v(), g.expr())
		g.block(depth + 1)
		g.line(depth, "} else {")
		g.block(depth + 1)
		g.line(depth, "}")
	case 9:
		if v := g.v(); g.r.Intn(2) == 0 {
			g.line(depth, "for %s = 0; %s < 3; %s++ {", v, v, v)
		} else {
			g.line(depth, "for {")
		}
		g.loops++
		g.block(depth + 1)
		g.loops--
		g.line(depth, "}")
	case 10:
		g.line(depth, "{")
		switch g.r.Intn(4) {
		case 0:
			g.line(depth+1, "%s := %s", g.v(), g.expr())
		case 1:
			g.line(depth+1, "var %s = %s", g.v(), g.expr())
		case 2:
			g.line(depth+1, "_, %s := two(%s)", g.v(), g.expr())
		default:
			g.line(depth+1, "var _ = %s", g.expr())
		}
		g.block(depth + 1)
		g.line(depth, "}")
	case 11:
		v := g.v()
		g.line(depth, "if %s := %s; %s > 1 {", v, g.expr(), v)
		if g.r.Intn(2) == 0 {
			g.line(depth+1, "return")
		} else {
			g.block(depth + 1)
		}
		g.line(depth, "}")
	default:
		g.line(depth, "switch %s %% 3 {", g.v())
		g.line(depth, "case 0:")
		g.block(depth + 1)
		g.line(depth, "default:")
		g.block(depth + 1)
		g.line(depth, "}")
	}
}

// chainSrc is a procedure of one loop over vars variables and stmts
// assignments, each reading two variables and writing a third.
func chainSrc(stmts, vars int) string {
	var b strings.Builder
	b.WriteString("package p\nfunc main() { work() }\nfunc work() {\n")
	for i := 0; i < vars; i++ {
		fmt.Fprintf(&b, "\tv%d := %d\n", i, i)
	}
	b.WriteString("\tfor {\n\t\tmh.ReconfigPoint(\"R\")\n")
	for i := 0; i < stmts; i++ {
		fmt.Fprintf(&b, "\t\tv%d = v%d + v%d\n", i%vars, (i+1)%vars, (7*i+3)%vars)
	}
	b.WriteString("\t}\n}\n")
	return b.String()
}

// TestAnalyzeWork bounds what analysing one procedure allocates. Every row
// comes from one backing array and the fixpoint runs in place, so the count
// does not grow with statements × variables; the map-based reference
// allocates two maps per statement on every sweep.
func TestAnalyzeWork(t *testing.T) {
	var deep string
	for _, src := range langtest.EmbeddedModules(t, "../../bench/workloads.go") {
		if strings.Contains(src, "func hold(") {
			deep = src
		}
	}
	allocs := func(src, name string) (got, ref float64) {
		prog, info := loadFlat(t, src)
		got = testing.AllocsPerRun(20, func() {
			if _, err := Analyze(prog, info, name); err != nil {
				t.Fatal(err)
			}
		})
		ref = testing.AllocsPerRun(20, func() {
			if _, err := refAnalyze(prog, info, name); err != nil {
				t.Fatal(err)
			}
		})
		return got, ref
	}
	got, ref := allocs(deep, "hold")
	t.Logf("deep stage's hold: %.0f allocations (reference %.0f)", got, ref)
	if got > 20 {
		t.Errorf("analysing hold allocates %.0f times, limit 20", got)
	}
	small, smallRef := allocs(chainSrc(16, 8), "work")
	large, largeRef := allocs(chainSrc(256, 128), "work")
	t.Logf("16 statements × 8 variables: %.0f (reference %.0f); 256 × 128: %.0f (reference %.0f)", small, smallRef, large, largeRef)
	if large > small+4 {
		t.Errorf("16× the statements and variables take %.0f allocations against %.0f", large, small)
	}
}

// ---- reference: the map-based analysis the bit-vector one replaced ----

// refAnalysis is liveness on sets keyed by variable name, with fresh sets
// for every statement on every sweep of the fixpoint.
type refAnalysis struct {
	stmts   []ast.Stmt
	liveIn  []map[string]bool
	liveOut []map[string]bool
	pinned  map[string]bool
}

func refAnalyze(prog *lang.Program, info *lang.Info, name string) (*refAnalysis, error) {
	fn, ok := prog.Funcs[name]
	if !ok {
		return nil, fmt.Errorf("liveness: no function %s", name)
	}
	a := &refAnalysis{pinned: map[string]bool{}}
	labels := map[string]int{}
	for _, s := range fn.Decl.Body.List {
		inner := s
		for {
			ls, ok := inner.(*ast.LabeledStmt)
			if !ok {
				break
			}
			labels[ls.Label.Name] = len(a.stmts)
			inner = ls.Stmt
		}
		a.stmts = append(a.stmts, inner)
	}

	exempt := map[*ast.UnaryExpr]bool{}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range mhOutParamArgs(call) {
			if ue, ok := arg.(*ast.UnaryExpr); ok && ue.Op == token.AND {
				exempt[ue] = true
			}
		}
		return true
	})
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		ue, ok := n.(*ast.UnaryExpr)
		if !ok || ue.Op != token.AND || exempt[ue] {
			return true
		}
		if base := baseIdent(ue.X); base != nil {
			if d := info.VarOf(base); d != nil {
				a.pinned[d.Name] = true
			}
		}
		return true
	})

	n := len(a.stmts)
	succ := make([][]int, n)
	for i, s := range a.stmts {
		sc, err := refSuccessors(prog, s, i, n, labels)
		if err != nil {
			return nil, err
		}
		succ[i] = sc
	}

	use := make([]map[string]bool, n)
	def := make([]map[string]bool, n)
	for i, s := range a.stmts {
		use[i], def[i] = refUsesAndDefs(info, s)
	}

	a.liveIn = make([]map[string]bool, n)
	a.liveOut = make([]map[string]bool, n)
	for i := range a.liveIn {
		a.liveIn[i] = map[string]bool{}
		a.liveOut[i] = map[string]bool{}
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			out := map[string]bool{}
			for _, s := range succ[i] {
				for v := range a.liveIn[s] {
					out[v] = true
				}
			}
			in := map[string]bool{}
			for v := range out {
				if !def[i][v] {
					in[v] = true
				}
			}
			for v := range use[i] {
				in[v] = true
			}
			if !refSameSet(out, a.liveOut[i]) || !refSameSet(in, a.liveIn[i]) {
				a.liveOut[i] = out
				a.liveIn[i] = in
				changed = true
			}
		}
	}
	return a, nil
}

func refSameSet(x, y map[string]bool) bool {
	if len(x) != len(y) {
		return false
	}
	for k := range x {
		if !y[k] {
			return false
		}
	}
	return true
}

func refSuccessors(prog *lang.Program, s ast.Stmt, i, n int, labels map[string]int) ([]int, error) {
	next := func() []int {
		if i+1 < n {
			return []int{i + 1}
		}
		return nil
	}
	switch st := s.(type) {
	case *ast.ReturnStmt:
		return nil, nil
	case *ast.BranchStmt:
		if st.Tok != token.GOTO {
			return nil, prog.Errorf(st.Pos(), "unflattened branch %s", st.Tok)
		}
		idx, ok := labels[st.Label.Name]
		if !ok {
			return nil, prog.Errorf(st.Pos(), "goto to unknown label %s", st.Label.Name)
		}
		return []int{idx}, nil
	case *ast.IfStmt:
		out := next()
		ast.Inspect(st, func(nd ast.Node) bool {
			if br, ok := nd.(*ast.BranchStmt); ok && br.Tok == token.GOTO {
				if idx, ok := labels[br.Label.Name]; ok {
					out = append(out, idx)
				}
			}
			return true
		})
		return out, nil
	default:
		return next(), nil
	}
}

func refUsesAndDefs(info *lang.Info, s ast.Stmt) (use, def map[string]bool) {
	use = map[string]bool{}
	def = map[string]bool{}
	addUses := func(e ast.Expr) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && refMHCallUsesAndDefs(info, call, use, def) {
				return false
			}
			if id, ok := n.(*ast.Ident); ok {
				if d := info.VarOf(id); d != nil {
					use[d.Name] = true
				}
			}
			return true
		})
	}
	switch st := s.(type) {
	case *ast.AssignStmt:
		for i, rhs := range st.Rhs {
			if i < len(st.Lhs) && len(st.Lhs) == len(st.Rhs) {
				if lid, ok := st.Lhs[i].(*ast.Ident); ok && lid.Name == "_" {
					if _, bare := rhs.(*ast.Ident); bare {
						continue
					}
				}
			}
			addUses(rhs)
		}
		for _, lhs := range st.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
					if d := info.VarOf(id); d != nil {
						use[d.Name] = true
					}
				}
				if d := info.VarOf(id); d != nil && d.Name != "_" {
					def[d.Name] = true
				}
				continue
			}
			addUses(lhs)
		}
	case *ast.IncDecStmt:
		addUses(st.X)
		if id, ok := st.X.(*ast.Ident); ok {
			if d := info.VarOf(id); d != nil {
				def[d.Name] = true
			}
		}
	case *ast.ExprStmt:
		addUses(st.X)
	case *ast.IfStmt:
		addUses(st.Cond)
		for _, inner := range st.Body.List {
			u, _ := refUsesAndDefs(info, inner)
			for v := range u {
				use[v] = true
			}
		}
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			addUses(r)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						addUses(v)
					}
					for _, id := range vs.Names {
						if d := info.VarOf(id); d != nil && len(vs.Values) > 0 {
							def[d.Name] = true
						}
					}
				}
			}
		}
	}
	return use, def
}

func refMHCallUsesAndDefs(info *lang.Info, call *ast.CallExpr, use, def map[string]bool) bool {
	outs := mhOutParamArgs(call)
	if outs == nil {
		return false
	}
	isOut := map[ast.Expr]bool{}
	for _, o := range outs {
		isOut[o] = true
	}
	for _, arg := range call.Args {
		if isOut[arg] {
			if ue, ok := arg.(*ast.UnaryExpr); ok && ue.Op == token.AND {
				if id, ok := ue.X.(*ast.Ident); ok {
					if d := info.VarOf(id); d != nil {
						def[d.Name] = true
					}
					continue
				}
			}
		}
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if d := info.VarOf(id); d != nil {
					use[d.Name] = true
				}
			}
			return true
		})
	}
	return true
}

// sorted returns the names in set or pinned, sorted.
func (a *refAnalysis) sorted(set map[string]bool) []string {
	out := make([]string, 0, len(set)+len(a.pinned))
	seen := map[string]bool{}
	for v := range set {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for v := range a.pinned {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}
