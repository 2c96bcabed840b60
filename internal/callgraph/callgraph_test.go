package callgraph

import (
	"errors"
	"fmt"
	"go/scanner"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lang"
)

// figure6Src mirrors the sample program of Figure 6: main calls a twice and
// c once; a calls b; a contains R1 and b contains R2; c is reachable from
// main but cannot reach a reconfiguration point, so it is excluded from the
// reconfiguration graph; orphan is unreachable entirely.
const figure6Src = `package sample

func main() {
	a(1)
	c()
	a(2)
}

func a(x int) {
	mh.ReconfigPoint("R1")
	b(x)
}

func b(x int) {
	if x > 0 {
		mh.ReconfigPoint("R2")
	}
}

func c() {
	var y int
	y = 1
	_ = y
}

func orphan() {
	c()
}
`

func load(t *testing.T, src string) (*lang.Program, *lang.Info, *Graph) {
	t.Helper()
	prog, err := lang.ParseFiles(map[string]string{"mod.go": src})
	if err != nil {
		t.Fatal(err)
	}
	info, err := lang.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	return prog, info, Build(prog)
}

func TestStaticCallGraph(t *testing.T) {
	_, _, g := load(t, figure6Src)
	if !reflect.DeepEqual(g.Nodes, []string{"main", "a", "b", "c", "orphan"}) {
		t.Errorf("nodes = %v", g.Nodes)
	}
	var mainCalls []string // Calls is in declaration-then-source order
	for _, c := range g.Calls {
		if c.Caller == "main" {
			mainCalls = append(mainCalls, c.Callee)
		}
	}
	if !reflect.DeepEqual(mainCalls, []string{"a", "c", "a"}) {
		t.Errorf("main calls = %v, want a c a", mainCalls)
	}
	for _, c := range g.Calls {
		if c.Caller == "b" {
			t.Errorf("b calls %s", c.Callee)
		}
		if c.Line == 0 {
			t.Errorf("call %s->%s has no line", c.Caller, c.Callee)
		}
	}
}

func TestReachability(t *testing.T) {
	_, _, g := load(t, figure6Src)
	from := g.ReachableFrom("main")
	for _, n := range []string{"main", "a", "b", "c"} {
		if !from[n] {
			t.Errorf("%s not reachable from main", n)
		}
	}
	if from["orphan"] {
		t.Error("orphan reachable from main")
	}
	to := g.CanReach(map[string]bool{"a": true, "b": true})
	if !to["main"] || !to["a"] || !to["b"] {
		t.Errorf("CanReach = %v", to)
	}
	if to["c"] || to["orphan"] {
		t.Errorf("CanReach includes excluded nodes: %v", to)
	}
	if len(g.ReachableFrom("ghost")) != 0 {
		t.Error("ReachableFrom(ghost) not empty")
	}
}

func TestRecursive(t *testing.T) {
	_, _, g := load(t, `package p
func main() { f(1); g(); }
func f(n int) { if n > 0 { f(n - 1) } }
func g() { h() }
func h() { g() }
`)
	// Self-recursion and mutual recursion each make a cyclic component;
	// main is in none.
	if got := g.CyclicSCCs(); !reflect.DeepEqual(got, [][]string{{"f"}, {"g", "h"}}) {
		t.Errorf("CyclicSCCs = %v", got)
	}
}

func TestReconfigurationGraph(t *testing.T) {
	_, info, g := load(t, figure6Src)
	rg, err := BuildReconfig(g, info)
	if err != nil {
		t.Fatal(err)
	}
	// c and orphan are excluded: c cannot reach a point, orphan is
	// unreachable from main.
	if !reflect.DeepEqual(rg.Nodes, []string{"main", "a", "b"}) {
		t.Errorf("nodes = %v", rg.Nodes)
	}
	// Edges, numbered: main->a (first call), main->a (second call),
	// a->reconfig (R1), a->b, b->reconfig (R2). The main->c call edge is
	// not in the graph.
	if len(rg.Edges) != 5 {
		t.Fatalf("edges = %d, want 5:\n%s", len(rg.Edges), rg)
	}
	type shape struct {
		caller, callee, point string
	}
	var got []shape
	for _, e := range rg.Edges {
		s := shape{caller: e.Caller, callee: e.Callee}
		if e.IsReconfig() {
			s.point = e.Point.Label
		}
		got = append(got, s)
	}
	want := []shape{
		{"main", "a", ""},
		{"main", "a", ""},
		{"a", ReconfigNode, "R1"},
		{"a", "b", ""},
		{"b", ReconfigNode, "R2"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("edges = %+v\nwant %+v", got, want)
	}
	for i, e := range rg.Edges {
		if e.Index != i+1 {
			t.Errorf("edge %d has index %d", i, e.Index)
		}
	}

	// Two edges from main to a — "if procedure main calls a in two
	// different statements, there are two edges from main to a".
	fromMain := rg.EdgesFrom("main")
	if len(fromMain) != 2 {
		t.Errorf("EdgesFrom(main) = %d", len(fromMain))
	}

	// EdgeForCall resolves a call expression to its numbered edge.
	firstCall := g.Calls[0].Expr // main is declared first
	e, ok := rg.EdgeForCall(firstCall)
	if !ok || e.Index != 1 {
		t.Errorf("EdgeForCall = %+v %t", e, ok)
	}
	if _, ok := rg.EdgeForCall(nil); ok {
		t.Error("EdgeForCall(nil) found an edge")
	}
}

func TestReconfigGraphMonitor(t *testing.T) {
	// The monitor example: edges 1 (main->compute at L1), 2 (main->compute
	// at L2), 3 (compute->compute), 4 (compute->reconfig) — exactly the
	// integers Figure 4 passes to mh_capture.
	_, info, g := load(t, `package compute

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
	rg, err := BuildReconfig(g, info)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rg.Nodes, []string{"main", "compute"}) {
		t.Errorf("nodes = %v", rg.Nodes)
	}
	if len(rg.Edges) != 4 {
		t.Fatalf("edges:\n%s", rg)
	}
	if rg.Edges[0].Caller != "main" || rg.Edges[1].Caller != "main" {
		t.Error("edges 1,2 should be main's calls")
	}
	if rg.Edges[2].Caller != "compute" || rg.Edges[2].Callee != "compute" {
		t.Error("edge 3 should be the recursion")
	}
	if !rg.Edges[3].IsReconfig() || rg.Edges[3].Point.Label != "R" {
		t.Error("edge 4 should be the reconfiguration edge")
	}
}

func TestBuildReconfigErrors(t *testing.T) {
	_, info, g := load(t, `package p
func main() { f() }
func f() {}
`)
	if _, err := BuildReconfig(g, info); err == nil {
		t.Error("no points accepted")
	}

	// Every unreachable point is refused, each at its marker.
	_, info2, g2 := load(t, `package p
func main() {}
func unreachable() { mh.ReconfigPoint("R") }
func orphan() { mh.ReconfigPoint("S") }
`)
	_, err := BuildReconfig(g2, info2)
	var list scanner.ErrorList
	if !errors.As(err, &list) || len(list) != 2 {
		t.Fatalf("unreachable points: %v, want 2 refusals", err)
	}
	for i, at := range []string{"3:22", "4:17"} {
		if !strings.HasSuffix(list[i].Pos.String(), at) || !strings.Contains(list[i].Msg, "unreachable from main") {
			t.Errorf("refusal %d = %v, want one at %s", i, list[i], at)
		}
	}
}

func TestDOTOutput(t *testing.T) {
	_, info, g := load(t, figure6Src)
	dot := g.DOT()
	for _, want := range []string{`"main" -> "a"`, `"main" -> "c"`, `"a" -> "b"`, `"orphan" -> "c"`} {
		if !strings.Contains(dot, want) {
			t.Errorf("static DOT missing %s:\n%s", want, dot)
		}
	}
	rg, err := BuildReconfig(g, info)
	if err != nil {
		t.Fatal(err)
	}
	rdot := rg.DOT()
	for _, want := range []string{`"a" -> "reconfig"`, `label="(3, R1)"`, `label="(5, R2)"`, "doublecircle"} {
		if !strings.Contains(rdot, want) {
			t.Errorf("reconfig DOT missing %s:\n%s", want, rdot)
		}
	}
	if strings.Contains(rdot, `"c"`) {
		t.Error("reconfig DOT includes excluded node c")
	}
	// Deterministic.
	if rg.DOT() != rdot || g.DOT() != dot {
		t.Error("DOT output not deterministic")
	}
}

func TestRGraphString(t *testing.T) {
	_, info, g := load(t, figure6Src)
	rg, err := BuildReconfig(g, info)
	if err != nil {
		t.Fatal(err)
	}
	s := rg.String()
	for _, want := range []string{"nodes: main a b", "edge 1: main -> a", "edge 3: a -> reconfig (point R1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
}

func TestCyclicSCCs(t *testing.T) {
	_, _, g := load(t, `package p

func main() {
	solo()
	ping(3)
	deep(2)
}

func solo() { solo() }

func ping(n int) {
	if n > 0 {
		pong(n - 1)
	}
}

func pong(n int) { ping(n) }

func deep(n int) {
	mid(n)
}

func mid(n int) {
	if n > 0 {
		deep(n - 1)
	}
	leaf()
}

func leaf() {}
`)
	got := g.CyclicSCCs()
	want := [][]string{
		{"solo"},
		{"ping", "pong"},
		{"deep", "mid"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CyclicSCCs = %v, want %v", got, want)
	}
}

func TestCyclicSCCsAcyclic(t *testing.T) {
	_, _, g := load(t, figure6Src)
	if got := g.CyclicSCCs(); len(got) != 0 {
		t.Errorf("acyclic graph reported cycles: %v", got)
	}
}

func TestCyclicSCCsDeepChain(t *testing.T) {
	// A long call chain ending in a self-loop: the iterative Tarjan must
	// neither overflow nor mis-propagate low links through the chain.
	var b strings.Builder
	b.WriteString("package p\n\nfunc main() { f0() }\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "func f%d() { f%d() }\n", i, i+1)
	}
	b.WriteString("func f200() { f200() }\n")
	_, _, g := load(t, b.String())
	got := g.CyclicSCCs()
	if !reflect.DeepEqual(got, [][]string{{"f200"}}) {
		t.Errorf("CyclicSCCs = %v, want [[f200]]", got)
	}
}
