package lang

import (
	"go/scanner"
	"strings"
	"testing"

	"repro/internal/state"
)

// computeSrc is the Figure 3 compute module in the module language. The
// reconfiguration point R is marked with mh.ReconfigPoint (a bare label
// would be rejected by Go as unused).
const computeSrc = `package compute

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

func mustCheck(t *testing.T, src string) (*Program, *Info) {
	t.Helper()
	prog, err := ParseFiles(map[string]string{"mod.go": src})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return prog, info
}

func checkErr(t *testing.T, src string, wantSubstr string) {
	t.Helper()
	prog, err := ParseFiles(map[string]string{"mod.go": src})
	if err == nil {
		_, err = Check(prog)
	}
	if err == nil {
		t.Fatalf("no error for source:\n%s", src)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Errorf("error %q does not mention %q", err.Error(), wantSubstr)
	}
}

func TestCheckComputeModule(t *testing.T) {
	prog, info := mustCheck(t, computeSrc)
	if prog.Package != "compute" {
		t.Errorf("package = %s", prog.Package)
	}
	if len(prog.FuncOrder) != 2 || prog.FuncOrder[0] != "main" || prog.FuncOrder[1] != "compute" {
		t.Errorf("FuncOrder = %v", prog.FuncOrder)
	}
	fn := prog.Funcs["compute"]
	if len(fn.Params) != 3 {
		t.Fatalf("compute params = %d", len(fn.Params))
	}
	if !fn.Params[2].Type.Equal(Pointer{Elem: FloatType}) {
		t.Errorf("rp type = %s", fn.Params[2].Type)
	}
	if pts := info.Points; len(pts) != 1 || pts[0].Label != "R" || pts[0].Func != "compute" {
		t.Fatalf("points = %+v, want the one point R in compute (main has none)", pts)
	}
	// main's vars: n, response. compute's: num, n, rp, temper.
	mainVars := info.FuncVars["main"]
	if len(mainVars) != 2 || mainVars[0].Name != "n" || mainVars[1].Name != "response" {
		t.Errorf("main vars = %v", varNames(mainVars))
	}
	compVars := info.FuncVars["compute"]
	if got := varNames(compVars); !equalStrings(got, []string{"num", "n", "rp", "temper"}) {
		t.Errorf("compute vars = %v", got)
	}
	if !compVars[0].IsParam || compVars[3].IsParam {
		t.Error("param flags wrong")
	}
}

func varNames(vars []*VarDef) []string {
	out := make([]string, len(vars))
	for i, v := range vars {
		out[i] = v.Name
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTypeBasics(t *testing.T) {
	if IntType.String() != "int" || FloatType.String() != "float64" ||
		BoolType.String() != "bool" || StringType.String() != "string" {
		t.Error("basic type names wrong")
	}
	sl := Slice{Elem: IntType}
	if sl.String() != "[]int" || !sl.Equal(Slice{Elem: IntType}) || sl.Equal(Slice{Elem: FloatType}) {
		t.Error("slice type identity wrong")
	}
	pt := Pointer{Elem: FloatType}
	if pt.String() != "*float64" || pt.Kind() != state.KindFloat {
		t.Error("pointer type wrong")
	}
	st := &Struct{Name: "P", Fields: []StructField{{Name: "X", Type: IntType}}}
	if st.Kind() != state.KindStruct || st.Field("X") == nil || st.Field("Y") != nil {
		t.Error("struct type wrong")
	}
	if !strings.Contains(st.Describe(), "X int") {
		t.Errorf("Describe = %s", st.Describe())
	}
	if IntType.Kind() != state.KindInt || BoolType.Kind() != state.KindBool ||
		StringType.Kind() != state.KindString || sl.Kind() != state.KindList {
		t.Error("kind mapping wrong")
	}
	tup := Tuple{Elems: []Type{IntType, FloatType}}
	if tup.String() != "(int, float64)" || !tup.Equal(Tuple{Elems: []Type{IntType, FloatType}}) {
		t.Error("tuple type wrong")
	}
	if tup.Equal(IntType) || tup.Equal(Tuple{Elems: []Type{IntType}}) {
		t.Error("tuple equality wrong")
	}
}

func TestZeroValue(t *testing.T) {
	if v := ZeroValue(IntType); v.Kind != state.KindInt || v.Int != 0 {
		t.Errorf("zero int = %v", v)
	}
	if v := ZeroValue(StringType); v.Kind != state.KindString {
		t.Errorf("zero string = %v", v)
	}
	if v := ZeroValue(Slice{Elem: IntType}); v.Kind != state.KindList || len(v.List) != 0 {
		t.Errorf("zero slice = %v", v)
	}
	if v := ZeroValue(Pointer{Elem: FloatType}); v.Kind != state.KindFloat {
		t.Errorf("zero pointer = %v", v)
	}
	st := &Struct{Name: "P", Fields: []StructField{{Name: "X", Type: IntType}, {Name: "S", Type: StringType}}}
	v := ZeroValue(st)
	if v.Kind != state.KindStruct || v.NumFields() != 2 || v.List[0].Str != "X" {
		t.Errorf("zero struct = %v", v)
	}
}

func TestFormatRune(t *testing.T) {
	cases := map[string]Type{
		"i": IntType, "F": FloatType, "b": BoolType, "s": StringType,
		"L": Slice{Elem: IntType}, "S": &Struct{Name: "P"},
	}
	for want, typ := range cases {
		r, ok := FormatRune(typ)
		if !ok || string(r) != want {
			t.Errorf("FormatRune(%s) = %q %t, want %s", typ, r, ok, want)
		}
	}
}

func TestCheckRichProgram(t *testing.T) {
	src := `package rich

type Point struct {
	X int
	Y float64
}

func main() {
	var pts []Point
	pts = append(pts, Point{X: 1, Y: 2.5}, Point{3, 4.0})
	total := 0.0
	for i, p := range pts {
		total = total + p.Y + float64(i)
	}
	s := make([]int, 2, 4)
	s[0] = len(pts)
	s = s[0:1]
	name := "pts: " + itoa(len(pts))
	q, r := divmod(7, 2)
	switch q {
	case 3:
		total += float64(r)
	default:
		total -= 1
	}
	if total > 0 && name != "" {
		mh.Write("out", total)
	}
	_ = cap(s)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var out string
	for n > 0 {
		d := n % 10
		out = string_digit(d) + out
		n = n / 10
	}
	return out
}

func string_digit(d int) string {
	var digits []string
	digits = append(digits, "0", "1", "2", "3", "4", "5", "6", "7", "8", "9")
	return digits[d]
}

func divmod(a int, b int) (int, int) {
	return a / b, a % b
}
`
	_, info := mustCheck(t, src)
	if len(info.Points) != 0 {
		t.Error("spurious points")
	}
}

func TestLiteralAdoptsFloatHint(t *testing.T) {
	src := `package p
func main() {
	var f float64
	f = f + 1
	f = 2 * f
	var g float64 = 3
	f = g - 1
	mh.Write("out", f)
}
`
	mustCheck(t, src)
}

func TestSubsetViolations(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"no main", `package p
func helper() {}`, "no main function"},
		{"goroutine", `package p
func main() { go f() }
func f() {}`, "not in the module subset"},
		{"defer", `package p
func main() { defer f() }
func f() {}`, "not in the module subset"},
		{"map type", `package p
func main() { var m map[string]int; _ = m }`, "unsupported type"},
		{"chan type", `package p
func main() { var c chan int; _ = c }`, "unsupported type"},
		{"func lit", `package p
func main() { f := func() {}; f() }`, "not in the module subset"},
		{"import", `package p
import "fmt"
func main() { fmt.Println() }`, "imports are not allowed"},
		{"method", `package p
type T struct{ X int }
func (t T) M() {}
func main() {}`, "methods are not allowed"},
		{"pkg var", `package p
var x int
func main() {}`, "package-level"},
		{"array", `package p
func main() { var a [3]int; _ = a }`, "fixed-size arrays"},
		{"ptr to ptr", `package p
func main() { var p **int; _ = p }`, "pointer-to-pointer"},
		{"undeclared", `package p
func main() { x = 1 }`, "undeclared variable"},
		{"redeclared", `package p
func main() { var x int; var x int; _ = x }`, "redeclared"},
		{"type mismatch", `package p
func main() { var x int; x = "s" }`, "cannot assign"},
		{"cond not bool", `package p
func main() { if 1 { } }`, "condition must be bool"},
		{"mixed arith", `package p
func main() { var i int; var f float64; f = f + i }`, "mismatched types"},
		{"undefined func", `package p
func main() { nope() }`, "undefined function"},
		{"arity", `package p
func main() { f(1) }
func f(a int, b int) {}`, "takes 2 arguments"},
		{"void in expr", `package p
func main() { x := f(); _ = x }
func f() {}`, "returns no value"},
		{"return arity", `package p
func main() {}
func f() int { return }`, "must return 1"},
		{"return type", `package p
func main() {}
func f() int { return "s" }`, "cannot return"},
		{"bad goto", `package p
func main() { goto L }`, "undeclared label"},
		{"break outside", `package p
func main() { break }`, "outside loop"},
		{"fallthrough", `package p
func main() { switch { default: fallthrough } }`, "fallthrough"},
		{"bool ordering", `package p
func main() { var a bool; var b bool; if a < b {} }`, "only == and !="},
		{"mod float", `package p
func main() { var f float64; f = f % f }`, "not defined on float64"},
		{"mh reserved", `package p
func main() { var mh int; _ = mh }`, "reserved"},
		{"mh value", `package p
func main() { x := mh; _ = x }`, "mh"},
		{"read non-ptr", `package p
func main() { var n int; mh.Read("in", n) }`, "must be a pointer"},
		{"unknown mh", `package p
func main() { mh.Frobnicate() }`, "unknown mh primitive"},
		{"mh arg type", `package p
func main() { mh.Sleep("long") }`, "mh.Sleep"},
		{"point dup", `package p
func main() { mh.ReconfigPoint("R") }
func f() { mh.ReconfigPoint("R") }`, "already declared"},
		{"index non int", `package p
func main() { var s []int; var f float64; _ = s[f] }`, "index must be int"},
		{"index non slice", `package p
func main() { var n int; _ = n[0] }`, "cannot index"},
		{"deref non ptr", `package p
func main() { var n int; _ = *n }`, "cannot dereference"},
		{"field on non struct", `package p
func main() { var n int; _ = n.X }`, "has no fields"},
		{"unknown field", `package p
type T struct{ X int }
func main() { var t T; _ = t.Y }`, "has no field Y"},
		{"named results", `package p
func main() {}
func f() (x int) { return 0 }`, "named results"},
		{"unnamed params", `package p
func main() {}
func f(int) {}`, "parameters must be named"},
		{"append non slice", `package p
func main() { var n int; _ = append(n, 1) }`, "append requires a slice"},
		{"make non slice", `package p
func main() { _ = make(int, 1) }`, "make of int"},
		{"3-index slice", `package p
func main() { var s []int; _ = s[0:1:2] }`, "3-index"},
		{"string conv", `package p
func main() { var n int; _ = string(n) }`, "undefined function string"},
		{"tuple misuse", `package p
func main() { x := f(); _ = x }
func f() (int, int) { return 1, 2 }`, "multi-value call"},
		{"destructure arity", `package p
func main() { a, b, c := f(); _ = a; _ = b; _ = c }
func f() (int, int) { return 1, 2 }`, "cannot destructure"},
		{"const decl", `package p
func main() { const k = 1; _ = k }`, "only var declarations"},
		{"struct redecl", `package p
type T struct{}
type T struct{}
func main() {}`, "redeclared"},
		{"var no type", `package p
func main() { var x; _ = x }`, "mod.go:2:20: expected type"},
		{"assign to literal", `package p
func main() { 1 = 2 }`, "not an assignable expression"},
		{"label redeclared", `package p
func main() {
	L: for { break L }
	L: for { break L }
}`, "label L redeclared"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			checkErr(t, tt.src, tt.want)
		})
	}
}

func TestGotoAndLabels(t *testing.T) {
	src := `package p
func main() {
	var i int
loop:
	if i < 10 {
		i++
		goto loop
	}
outer:
	for {
		for {
			break outer
		}
	}
	mh.Write("out", i)
}
`
	_, info := mustCheck(t, src)
	labels := info.Labels["main"]
	if !equalStrings(labels, []string{"loop", "outer"}) {
		t.Errorf("labels = %v", labels)
	}
}

// TestLabelErrorsInPlace: the checker declares labels as its walk meets
// them and resolves a branch to a label further down at the end of the
// function, yet reports what it did when it collected the labels first: a
// redeclared label before everything else in its function, a branch to a
// missing label where the branch is, and a label inside a statement it
// rejects still declared.
func TestLabelErrorsInPlace(t *testing.T) {
	prog, err := ParseFiles(map[string]string{"mod.go": `package p
func f(a int, a int) {}
func main() {
	x = 1
	goto M
L:
	for {
		break L
	}
L:
	for {
		continue L
	}
	y = 2
	goto N
	break Later
	for i = range 3 {
	N:
	}
Later:
	for {
	}
}
`})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Check(prog)
	errs, ok := err.(scanner.ErrorList)
	if !ok {
		t.Fatalf("Check: %v", err)
	}
	var got []string
	for _, e := range errs {
		got = append(got, e.Msg)
	}
	want := []string{
		"parameter a redeclared",
		"label L redeclared",
		"undeclared variable x",
		"goto to undeclared label",
		"undeclared variable y",
		"break outside loop or switch",
		"range with = is not in the subset; use :=",
	}
	if !equalStrings(got, want) {
		t.Errorf("errors\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestMultiFileProgram(t *testing.T) {
	prog, err := ParseFiles(map[string]string{
		"a.go": "package m\nfunc main() { helper() }",
		"b.go": "package m\nfunc helper() {}",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Check(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseFiles(map[string]string{
		"a.go": "package m1\nfunc main() {}",
		"b.go": "package m2\nfunc f() {}",
	}); err == nil || !strings.Contains(err.Error(), "mixed packages") {
		t.Errorf("mixed packages: %v", err)
	}
}

func TestInfoLookups(t *testing.T) {
	prog, info := mustCheck(t, computeSrc)
	fn := prog.Funcs["compute"]
	// The declaring ident of a param maps to its def.
	p0 := fn.Params[0]
	if info.VarOf(p0.Ident) != p0 {
		t.Error("VarOf(param ident) broken")
	}
	if info.TypeOf(nil) != nil {
		t.Error("TypeOf(nil) should be nil")
	}
}

// TestErrorListRendering: a refusal renders as go/scanner renders its
// list, the first error at its position and a count of the rest, with no
// package name (the caller that wraps it adds its own).
func TestErrorListRendering(t *testing.T) {
	prog, err := ParseFiles(map[string]string{"mod.go": "package p\nfunc main() {\n\tx = 1\n\ty = 2\n}"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Check(prog)
	if want := "mod.go:3:2: undeclared variable x (and 1 more errors)"; err == nil || err.Error() != want {
		t.Errorf("Check: %v, want %q", err, want)
	}
	if err := prog.Errorf(prog.Funcs["main"].Decl.Pos(), "one"); err.Error() != "mod.go:2:1: one" {
		t.Errorf("Errorf renders %q", err)
	}
	if _, err := ParseFiles(map[string]string{"mod.go": "package p\nfunc main() {\n\tx := \n}\n"}); err == nil || err.Error() != "mod.go:4:1: expected operand, found '}'" {
		t.Errorf("parse error renders %q", err)
	}
}

func TestMultipleErrorsCollected(t *testing.T) {
	src := `package p
func main() {
	x = 1
	y = 2
}`
	prog, err := ParseFiles(map[string]string{"mod.go": src})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Check(prog)
	if err == nil {
		t.Fatal("no error")
	}
	el, ok := err.(scanner.ErrorList)
	if !ok || len(el) < 2 {
		t.Errorf("expected multiple errors, got %v", err)
	}
}

func TestCallTargets(t *testing.T) {
	prog, _ := mustCheck(t, computeSrc)
	calls := CallTargets(prog, prog.Funcs["main"])
	if len(calls) != 2 {
		t.Errorf("main calls = %d, want 2 (two compute calls)", len(calls))
	}
	calls = CallTargets(prog, prog.Funcs["compute"])
	if len(calls) != 1 {
		t.Errorf("compute calls = %d, want 1 (the recursion)", len(calls))
	}
}

func TestIsNumLiteral(t *testing.T) { // named for the export that wrapped isUntypedNumLit
	prog, _ := mustCheck(t, `package p
func main() { f(1, -2, (3), 2.5) }
func f(a int, b int, c int, d float64) {}
`)
	calls := CallTargets(prog, prog.Funcs["main"])
	for _, a := range calls[0].Args {
		if !isUntypedNumLit(a) {
			t.Errorf("arg %v not recognized as literal", a)
		}
	}
}
