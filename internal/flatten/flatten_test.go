package flatten

import (
	"fmt"
	"go/ast"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lang/langtest"
)

func load(t *testing.T, src string) (*lang.Program, *lang.Info) {
	t.Helper()
	prog, err := lang.ParseFiles(map[string]string{"mod.go": src})
	if err != nil {
		t.Fatal(err)
	}
	info, err := lang.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	return prog, info
}

// format prints a program in which every function has been flattened.
func format(t *testing.T, prog *lang.Program) string {
	t.Helper()
	rewritten := map[string]bool{}
	for _, name := range prog.FuncOrder {
		rewritten[name] = true
	}
	files, err := lang.FormatProgram(prog, rewritten)
	if err != nil {
		t.Fatalf("format flattened program: %v", err)
	}
	return files["mod.go"]
}

// flattenAll flattens every function of src, checks that the Info the pass
// kept is what a fresh check of the flat program finds, re-checks it in
// place once pruned, and returns the printed, reparsed and rechecked
// program — proving the output is valid Go and still in the module subset.
func flattenAll(t *testing.T, src string) (*lang.Program, *lang.Info, string) {
	t.Helper()
	prog, info := load(t, src)
	for _, name := range prog.FuncOrder {
		if _, err := Function(prog, info, name); err != nil {
			t.Fatalf("flatten %s: %v", name, err)
		}
	}
	if err := langtest.DiffInfo(prog, info); err != nil {
		t.Fatalf("%v\nflattened:\n%s", err, format(t, prog))
	}
	for _, name := range prog.FuncOrder {
		PruneLabels(prog.Funcs[name].Decl, nil)
	}
	if _, err := lang.Check(prog); err != nil {
		t.Fatalf("flattened program does not re-check in place: %v", err)
	}
	out := format(t, prog)
	nprog, ninfo := load(t, out)
	return nprog, ninfo, out
}

// equivCheck compares fn(args) between the original and flattened programs.
func equivCheck(t *testing.T, src, fn string, argSets [][]any) {
	t.Helper()
	prog, info := load(t, src)
	orig := interp.New(prog, info, nil, interp.WithMaxSteps(2_000_000))
	fprog, finfo, fsrc := flattenAll(t, src)
	flat := interp.New(fprog, finfo, nil, interp.WithMaxSteps(2_000_000))
	for _, args := range argSets {
		want, werr := orig.Call(fn, args...)
		got, gerr := flat.Call(fn, args...)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s(%v): original err=%v, flattened err=%v\nflattened source:\n%s", fn, args, werr, gerr, fsrc)
		}
		if werr != nil {
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s(%v): original=%v flattened=%v\nflattened source:\n%s", fn, args, want, got, fsrc)
		}
	}
}

func intArgs(sets ...[]int) [][]any {
	out := make([][]any, len(sets))
	for i, s := range sets {
		args := make([]any, len(s))
		for j, v := range s {
			args[j] = v
		}
		out[i] = args
	}
	return out
}

func TestFlattenIfElse(t *testing.T) {
	equivCheck(t, `package p
func main() {}
func f(x int) int {
	r := 0
	if x > 10 {
		r = 1
	} else if x > 5 {
		r = 2
	} else {
		r = 3
	}
	if x == 7 {
		r += 100
	}
	return r
}
`, "f", intArgs([]int{0}, []int{6}, []int{7}, []int{11}))
}

func TestFlattenLoops(t *testing.T) {
	equivCheck(t, `package p
func main() {}
func f(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			continue
		}
		if i > 7 {
			break
		}
		total += i
	}
	j := 0
	for j < 4 {
		total += 100
		j++
	}
	k := 0
	for {
		k++
		if k >= 2 {
			break
		}
	}
	return total + k
}
`, "f", intArgs([]int{0}, []int{3}, []int{10}, []int{20}))
}

func TestFlattenNestedLabeledLoops(t *testing.T) {
	equivCheck(t, `package p
func main() {}
func f(n int) int {
	count := 0
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j > i {
				continue outer
			}
			if count > 50 {
				break outer
			}
			count++
		}
		count += 1000
	}
	return count
}
`, "f", intArgs([]int{0}, []int{2}, []int{5}, []int{10}))
}

func TestFlattenSwitch(t *testing.T) {
	equivCheck(t, `package p
func main() {}
func f(x int) int {
	r := 0
	switch x {
	case 1, 2:
		r = 10
	case 3:
		r = 20
		break
	default:
		r = 30
	}
	switch {
	case x > 100:
		r += 1
	case x > 10:
		r += 2
	}
	switch y := x * 2; y {
	case 4:
		r += 1000
	}
	return r
}
`, "f", intArgs([]int{1}, []int{2}, []int{3}, []int{4}, []int{50}, []int{200}))
}

func TestFlattenSwitchEvaluatesTagOnce(t *testing.T) {
	// The tag is hoisted into a temp; calls in the tag run exactly once.
	equivCheck(t, `package p
func main() {}
func g(p *int) int {
	*p = *p + 1
	return *p
}
func f(x int) int {
	calls := 0
	switch g(&calls) {
	case 1:
		x += 10
	case 2:
		x += 20
	}
	return x*100 + calls
}
`, "f", intArgs([]int{0}, []int{5}))
}

func TestFlattenRange(t *testing.T) {
	equivCheck(t, `package p
func main() {}
func f(n int) int {
	var s []int
	for i := 0; i < n; i++ {
		s = append(s, i*i)
	}
	total := 0
	for i, v := range s {
		if v > 20 {
			break
		}
		total += i + v
	}
	for _, v := range s {
		total += v
	}
	for i := range s {
		total += i
	}
	return total
}
`, "f", intArgs([]int{0}, []int{3}, []int{8}))
}

func TestFlattenShadowing(t *testing.T) {
	equivCheck(t, `package p
func main() {}
func f(x int) int {
	r := x
	{
		r := 100
		r += x
		{
			var r int
			r = 7
			x += r
		}
		x += r
	}
	return r + x
}
`, "f", intArgs([]int{1}, []int{5}))
}

func TestFlattenBlockReentryRezeros(t *testing.T) {
	// A var declared inside a loop body must be fresh each iteration.
	equivCheck(t, `package p
func main() {}
func f(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		var x int
		x += i
		var s string
		s += "a"
		total += x + len(s)
	}
	return total
}
`, "f", intArgs([]int{0}, []int{1}, []int{4}))
}

func TestFlattenGotoPreserved(t *testing.T) {
	equivCheck(t, `package p
func main() {}
func f(a int, b int) int {
loop:
	if b != 0 {
		a, b = b, a%b
		goto loop
	}
	return a
}
`, "f", intArgs([]int{48, 36}, []int{17, 5}, []int{0, 9}))
}

func TestFlattenStructsAndPointers(t *testing.T) {
	equivCheck(t, `package p
type Pt struct {
	X int
	Y int
}
func main() {}
func bump(p *Pt, d int) {
	p.X += d
}
func f(n int) int {
	var pts []Pt
	for i := 0; i < n; i++ {
		pts = append(pts, Pt{X: i, Y: i * 2})
	}
	total := 0
	for i := range pts {
		bump(&pts[i], 10)
	}
	for _, p := range pts {
		total += p.X + p.Y
	}
	var q Pt
	q.X = 5
	r := q
	r.X = 50
	return total + q.X + r.X
}
`, "f", intArgs([]int{0}, []int{2}, []int{5}))
}

func TestFlattenMultiReturn(t *testing.T) {
	equivCheck(t, `package p
func main() {}
func divmod(a int, b int) (int, int) {
	return a / b, a % b
}
func f(a int, b int) int {
	q, r := divmod(a, b)
	for i := 0; i < 2; i++ {
		q, r = divmod(q+i, b)
	}
	return q*1000 + r
}
`, "f", intArgs([]int{100, 7}, []int{17, 3}))
}

// TestFlattenedComputeStillServes (checkpoint for the transform): the
// Figure 3 module, flattened, still runs as a module and answers requests.
func TestFlattenedComputeStillServes(t *testing.T) {
	src := `package compute

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
`
	nprog, _, out := flattenAll(t, src)
	// The reconfiguration point marker must survive flattening.
	if !strings.Contains(out, `mh.ReconfigPoint("R")`) {
		t.Errorf("marker lost:\n%s", out)
	}
	// All labels are at the top level: no label may appear inside an if
	// body (the only block form the flattener emits).
	for _, name := range nprog.FuncOrder {
		fn := nprog.Funcs[name]
		for _, s := range fn.Decl.Body.List {
			checkNoNestedLabels(t, s, false)
		}
	}
}

// TestFlattenKeepsPointsInFlatOrder: a switch's default arm is emitted last,
// so a point in it moves behind the points of the arms after it, and the
// kept Info must list the points as a check of the flat body does
// (flattenAll diffs it), since the reconfiguration graph numbers its edges
// in that order.
func TestFlattenKeepsPointsInFlatOrder(t *testing.T) {
	_, info, out := flattenAll(t, `package p
func main() {
	var x int
	mh.Read("in", &x)
	switch x {
	default:
		mh.ReconfigPoint("A")
	case 1:
		mh.ReconfigPoint("B")
	}
	mh.ReconfigPoint("C")
}
`)
	var got []string
	for _, pt := range info.Points {
		got = append(got, pt.Label)
	}
	if want := []string{"B", "A", "C"}; !reflect.DeepEqual(got, want) {
		t.Errorf("points %v, want %v in:\n%s", got, want, out)
	}
}

func checkNoNestedLabels(t *testing.T, s ast.Stmt, inside bool) {
	switch st := s.(type) {
	case *ast.LabeledStmt:
		if inside {
			t.Errorf("label %s nested inside a block", st.Label.Name)
		}
		checkNoNestedLabels(t, st.Stmt, inside)
	case *ast.IfStmt:
		for _, inner := range st.Body.List {
			checkNoNestedLabels(t, inner, true)
		}
	case *ast.BlockStmt:
		for _, inner := range st.List {
			checkNoNestedLabels(t, inner, true)
		}
	}
}

func TestPruneLabels(t *testing.T) {
	prog, info := load(t, `package p
func main() {}
func f(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += i
	}
	return total
}
`)
	if _, err := Function(prog, info, "f"); err != nil {
		t.Fatal(err)
	}
	// Before pruning, generated labels exist; after pruning with an empty
	// keep set, only goto-targeted ones remain.
	PruneLabels(prog.Funcs["f"].Decl, nil)
	src := format(t, prog)
	// The loop-exit label of a loop with no break is unused and pruned.
	used := map[string]bool{}
	ast.Inspect(prog.Funcs["f"].Decl, func(n ast.Node) bool {
		if br, ok := n.(*ast.BranchStmt); ok && br.Label != nil {
			used[br.Label.Name] = true
		}
		return true
	})
	ast.Inspect(prog.Funcs["f"].Decl, func(n ast.Node) bool {
		if ls, ok := n.(*ast.LabeledStmt); ok && !used[ls.Label.Name] {
			t.Errorf("unused label %s survived pruning:\n%s", ls.Label.Name, src)
		}
		return true
	})
}

func TestPruneKeepsRequestedLabels(t *testing.T) {
	prog, info := load(t, `package p
func main() {}
func f() int {
	x := 0
	if x == 0 {
		x = 1
	}
	return x
}
`)
	res, err := Function(prog, info, "f")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) == 0 {
		t.Fatal("no generated labels")
	}
	keep := map[string]bool{res.Labels[0]: true}
	PruneLabels(prog.Funcs["f"].Decl, keep)
	found := false
	ast.Inspect(prog.Funcs["f"].Decl, func(n ast.Node) bool {
		if ls, ok := n.(*ast.LabeledStmt); ok && ls.Label.Name == res.Labels[0] {
			found = true
		}
		return true
	})
	if !found {
		t.Errorf("kept label %s was pruned", res.Labels[0])
	}
}

func TestResultLocals(t *testing.T) {
	prog, info := load(t, `package p
func main() {}
func f(a int, b *float64) int {
	x := 1
	var y string
	_ = y
	for i := 0; i < 3; i++ {
		x += i
	}
	return x
}
`)
	res, err := Function(prog, info, "f")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, l := range res.Locals {
		names = append(names, l.Name)
	}
	want := []string{"a", "b", "x", "y", "i"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("locals = %v, want %v", names, want)
	}
	if !res.Locals[0].IsParam || res.Locals[2].IsParam {
		t.Error("param flags wrong")
	}
	if !res.Locals[1].Type.Equal(lang.Pointer{Elem: lang.FloatType}) {
		t.Errorf("b type = %s", res.Locals[1].Type)
	}
}

func TestFlattenUnknownFunction(t *testing.T) {
	prog, info := load(t, `package p
func main() {}
`)
	if _, err := Function(prog, info, "ghost"); err == nil {
		t.Error("flattening unknown function succeeded")
	}
}

// ---- randomized equivalence property test ----

type progGen struct {
	r      *rand.Rand
	vars   []string
	loopN  int
	depth  int
	inLoop int
	labels []string // of the enclosing labeled loops
	b      *strings.Builder
}

// loopHead writes a loop's optional label and returns it ("" for none).
func (g *progGen) loopHead(ind int) string {
	if g.r.Intn(2) == 0 {
		return ""
	}
	label := fmt.Sprintf("L%d", g.loopN)
	g.indent(ind)
	g.b.WriteString(label + ":\n")
	return label
}

// loopBody writes a loop's body with vars in scope and its label, if any,
// a target of break and continue.
func (g *progGen) loopBody(ind int, label string, vars ...string) {
	g.inLoop++
	g.vars = append(g.vars, vars...)
	if label != "" {
		g.labels = append(g.labels, label)
	}
	g.stmts(1+g.r.Intn(2), ind+1)
	if label != "" {
		g.labels = g.labels[:len(g.labels)-1]
	}
	g.vars = g.vars[:len(g.vars)-len(vars)]
	g.inLoop--
	g.indent(ind)
	g.b.WriteString("}\n")
}

// branch writes break or continue, naming an enclosing loop half the time.
func (g *progGen) branch(ind int, tok string) {
	g.indent(ind)
	g.b.WriteString("if " + g.cond() + " {\n")
	g.indent(ind + 1)
	g.b.WriteString(tok)
	if len(g.labels) > 0 && g.r.Intn(2) == 0 {
		g.b.WriteString(" " + g.labels[g.r.Intn(len(g.labels))])
	}
	g.b.WriteString("\n")
	g.indent(ind)
	g.b.WriteString("}\n")
}

func (g *progGen) expr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		if g.r.Intn(2) == 0 {
			return g.vars[g.r.Intn(len(g.vars))]
		}
		return fmt.Sprintf("%d", g.r.Intn(20)-5)
	}
	ops := []string{"+", "-", "*", "%%safe", "/safe"}
	op := ops[g.r.Intn(len(ops))]
	a, b := g.expr(depth-1), g.expr(depth-1)
	switch op {
	case "%%safe":
		return fmt.Sprintf("((%s) %% %d)", a, g.r.Intn(6)+1)
	case "/safe":
		return fmt.Sprintf("((%s) / %d)", a, g.r.Intn(6)+1)
	default:
		return fmt.Sprintf("((%s) %s (%s))", a, op, b)
	}
}

func (g *progGen) cond() string {
	cmp := []string{"<", "<=", ">", ">=", "==", "!="}[g.r.Intn(6)]
	return fmt.Sprintf("(%s) %s (%s)", g.expr(1), cmp, g.expr(1))
}

func (g *progGen) indent(n int) {
	for i := 0; i < n; i++ {
		g.b.WriteString("\t")
	}
}

func (g *progGen) stmts(n, ind int) {
	for i := 0; i < n; i++ {
		g.stmt(ind)
	}
}

func (g *progGen) stmt(ind int) {
	g.depth++
	defer func() { g.depth-- }()
	choices := 7
	if g.inLoop > 0 {
		choices = 9
	}
	if g.depth > 4 {
		choices = 2 // only assignments deep down
	}
	switch g.r.Intn(choices) {
	case 0:
		g.indent(ind)
		fmt.Fprintf(g.b, "%s = %s\n", g.vars[g.r.Intn(len(g.vars))], g.expr(2))
	case 1:
		g.indent(ind)
		fmt.Fprintf(g.b, "%s += %s\n", g.vars[g.r.Intn(len(g.vars))], g.expr(1))
	case 2: // if/else
		g.indent(ind)
		fmt.Fprintf(g.b, "if %s {\n", g.cond())
		g.stmts(1+g.r.Intn(2), ind+1)
		if g.r.Intn(2) == 0 {
			g.indent(ind)
			g.b.WriteString("} else {\n")
			g.stmts(1+g.r.Intn(2), ind+1)
		}
		g.indent(ind)
		g.b.WriteString("}\n")
	case 3: // bounded for
		g.loopN++
		v := fmt.Sprintf("i%d", g.loopN)
		label := g.loopHead(ind)
		g.indent(ind)
		fmt.Fprintf(g.b, "for %s := 0; %s < %d; %s++ {\n", v, v, g.r.Intn(5)+1, v)
		g.loopBody(ind, label, v)
	case 4: // switch
		g.indent(ind)
		fmt.Fprintf(g.b, "switch (%s) %% 3 {\n", g.expr(1))
		for c := 0; c < 2; c++ {
			g.indent(ind)
			fmt.Fprintf(g.b, "case %d:\n", c)
			g.stmts(1, ind+1)
		}
		g.indent(ind)
		g.b.WriteString("default:\n")
		g.stmts(1, ind+1)
		g.indent(ind)
		g.b.WriteString("}\n")
	case 5: // nested block with shadowing decl
		g.indent(ind)
		g.b.WriteString("{\n")
		g.indent(ind + 1)
		fmt.Fprintf(g.b, "var acc int\n")
		g.indent(ind + 1)
		fmt.Fprintf(g.b, "acc = %s\n", g.expr(1))
		g.indent(ind + 1)
		fmt.Fprintf(g.b, "x += acc\n")
		g.indent(ind)
		g.b.WriteString("}\n")
	case 6: // range over a literal, the key sometimes blank
		g.loopN++
		k, v := fmt.Sprintf("k%d", g.loopN), fmt.Sprintf("v%d", g.loopN)
		label := g.loopHead(ind)
		g.indent(ind)
		key, vars := k, []string{k, v}
		if g.r.Intn(3) == 0 {
			key, vars = "_", vars[1:]
		}
		fmt.Fprintf(g.b, "for %s, %s := range []int{%s, %s, %s} {\n", key, v, g.expr(1), g.expr(1), g.expr(1))
		g.loopBody(ind, label, vars...)
	case 7:
		g.branch(ind, "break")
	case 8:
		g.branch(ind, "continue")
	}
}

func genProgram(seed int64) string {
	g := &progGen{
		r:    rand.New(rand.NewSource(seed)),
		vars: []string{"x", "y", "z"},
		b:    &strings.Builder{},
	}
	g.b.WriteString("package p\n\nfunc main() {}\n\nfunc f(x int, y int) int {\n\tz := 0\n")
	g.stmts(4+g.r.Intn(4), 1)
	g.b.WriteString("\treturn x + 31*y + 1009*z\n}\n")
	return g.b.String()
}

// TestFlattenEquivalenceProperty: for randomly generated subset programs —
// if/else, for and range loops, labeled or not, break and continue to the
// nearest or a named loop, switches, shadowing blocks — the flattened form
// computes exactly what the original computes, and the Info the pass kept
// is the one a fresh check of it finds (flattenAll).
func TestFlattenEquivalenceProperty(t *testing.T) {
	// A goto to a labeled top-level switch, which the generator of
	// internal/liveness's property test produced once flatten lowered such
	// a label only as a break target ("goto to undeclared label").
	t.Run("goto-labeled-switch", func(t *testing.T) {
		equivCheck(t, `package p

func main() {}

func f(x int, y int) int {
	z := 0
L0:
	switch z % 3 {
	case 0:
		z += x
	default:
		if z > y {
			break L0
		}
		z++
	}
	if z < 7 {
		goto L0
	}
	return x + 31*y + 1009*z
}
`, "f", intArgs([]int{1, 2}, []int{2, 9}, []int{3, 100}))
	})
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		src := genProgram(int64(seed))
		argSets := intArgs([]int{0, 0}, []int{1, 2}, []int{-3, 7}, []int{13, -5}, []int{100, 100})
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on seed %d: %v\nprogram:\n%s", seed, r, src)
				}
			}()
			equivCheck(t, src, "f", argSets)
		})
	}
}
