package interp

import (
	"errors"
	"fmt"
	"go/ast"
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/codec"
	"repro/internal/fixtures"
	"repro/internal/lang"
	"repro/internal/lang/langtest"
	"repro/internal/mh"
	"repro/internal/state"
	"repro/internal/transform"
)

// These tests pin what lowering makes risky — everything the tree-walker
// got for free from a map per scope, a fresh cell per declaration and a
// label map per statement list — through New, Run and Call only.

func TestShadowingResolvesToDistinctSlots(t *testing.T) {
	in := pureInterp(t, `package p
func main() {}

func inIf(x int) int {
	r := x
	if x := x * 2; x > 10 {
		x := x + 1
		r = r*1000 + x
	} else {
		x := -x
		r = r*1000 + x
	}
	return r*10 + x
}

func inFor(n int) int {
	i := 100
	total := 0
	for i := 0; i < n; i++ {
		i := i * 10
		total += i
	}
	return total*1000 + i
}

func inSwitch(x int) int {
	y := 1
	switch x := x + 1; x {
	case 3:
		y := x * 100
		return y + 1
	default:
		x := 7
		y += x
	}
	return y*10 + x
}

func inRange(s []int) int {
	v := 9
	total := 0
	for i, v := range s {
		v := v + i
		total += v
	}
	return total*10 + v
}
`)
	tests := []struct {
		fn   string
		args []any
		want int
	}{
		{"inIf", []any{3}, (3*1000-6)*10 + 3},
		{"inIf", []any{6}, (6*1000+13)*10 + 6},
		{"inFor", []any{4}, 60*1000 + 100},
		{"inSwitch", []any{2}, 301},
		{"inSwitch", []any{5}, 8*10 + 5},
		{"inRange", []any{[]any{5, 6, 7}}, (5+7+9)*10 + 9},
	}
	for _, tt := range tests {
		if got := callOne(t, in, tt.fn, tt.args...); got != tt.want {
			t.Errorf("%s(%v) = %v, want %d", tt.fn, tt.args, got, tt.want)
		}
	}
}

func TestGotoOutOfNestedBlocks(t *testing.T) {
	in := pureInterp(t, `package p
func main() {}

// backward: leaves two loops and an if for a label above them.
func retry(limit int) int {
	attempts := 0
again:
	attempts++
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if i*j > limit && attempts < 3 {
				goto again
			}
		}
	}
	return attempts
}

// forward: leaves a switch inside a loop for a label below them.
func find(s []int, want int) int {
	at := -1
	for i, v := range s {
		switch {
		case v == want:
			at = i
			goto found
		}
	}
	return -1
found:
	return at * 10
}
`)
	tests := []struct {
		fn   string
		args []any
		want int
	}{
		{"retry", []any{5}, 3},
		{"retry", []any{1000}, 1},
		{"find", []any{[]any{4, 5, 6}, 6}, 20},
		{"find", []any{[]any{4, 5, 6}, 7}, -1},
	}
	for _, tt := range tests {
		if got := callOne(t, in, tt.fn, tt.args...); got != tt.want {
			t.Errorf("%s(%v) = %v, want %d", tt.fn, tt.args, got, tt.want)
		}
	}
}

func TestAddressTakenVariables(t *testing.T) {
	in := pureInterp(t, `package p

type T struct {
	X int
	Y int
}

func main() {}

func bump(p *int) { *p = *p + 1 }

func swap(p *int, q *int) {
	*p, *q = *q, *p
}

// Each execution of v's declaration must yield its own variable: first
// keeps pointing at iteration 0's v while later iterations run.
func perIteration(n int) int {
	var first *int
	total := 0
	for i := 0; i < n; i++ {
		v := i * 10
		p := &v
		if i == 0 {
			first = p
		}
		bump(p)
		total += v
	}
	bump(first)
	return total*100 + *first
}

func swapped(a int, b int) int {
	swap(&a, &b)
	return a*10 + b
}

func element() int {
	s := []int{1, 2, 3}
	bump(&s[1])
	swap(&s[0], &s[2])
	return s[0]*100 + s[1]*10 + s[2]
}

func field() int {
	t := T{X: 1, Y: 2}
	bump(&t.X)
	swap(&t.X, &t.Y)
	return t.X*10 + t.Y
}

// The pointee outlives the call that declared it.
func escape() int {
	p := fresh(5)
	q := fresh(6)
	bump(p)
	return *p*10 + *q
}

func fresh(v int) *int {
	x := v
	return &x
}

func opAssignThrough() int {
	s := []int{1, 2, 3}
	i := 0
	s[next(&i)] += 10
	s[2]++
	t := T{X: 4}
	p := &t
	p.X *= 3
	return s[0]*1000 + s[1]*100 + s[2]*10 + i + t.X*10000
}

func next(p *int) int {
	*p = *p + 1
	return *p
}
`)
	tests := []struct {
		fn   string
		args []any
		want int
	}{
		{"perIteration", []any{3}, (1+11+21)*100 + 2},
		{"swapped", []any{3, 7}, 73},
		{"element", nil, 331},
		{"field", nil, 22},
		{"escape", nil, 66},
		{"opAssignThrough", nil, 12*10000 + 1*1000 + 12*100 + 4*10 + 1},
	}
	for _, tt := range tests {
		if got := callOne(t, in, tt.fn, tt.args...); got != tt.want {
			t.Errorf("%s(%v) = %v, want %d", tt.fn, tt.args, got, tt.want)
		}
	}
}

func TestMultiValueAndNaryAssignment(t *testing.T) {
	in := pureInterp(t, `package p

type T struct {
	A int
	B float64
}

func main() {}

func three(x int) (int, float64, string) {
	return x + 1, float64(x) / 2, "s"
}

func define(x int) float64 {
	a, f, s := three(x)
	return float64(a*100+len(s)) + f
}

func assign(x int) float64 {
	var t T
	s := []string{"", ""}
	t.A, t.B, s[1] = three(x)
	_, t.B, _ = three(t.A)
	return float64(t.A*10+len(s[1])) + t.B
}

func rotate(a int, b int, c int) int {
	a, b, c = b, c, a
	return a*100 + b*10 + c
}

func swapElems() int {
	s := []int{1, 2}
	i := 0
	i, s[i] = 1, 9
	return s[0]*10 + s[1] + i*100
}

// A scalar's new value may depend on its old one.
func toggle(ok bool, f float64) float64 {
	ok = !ok
	f = -f
	if ok {
		return 0
	}
	ok, f = f < 0, f*2
	if ok {
		return f
	}
	return 1
}
`)
	if got := callOne(t, in, "toggle", true, 1.5); got != -3.0 {
		t.Errorf("toggle(true, 1.5) = %v", got)
	}
	if got := callOne(t, in, "define", 7); got != 801+3.5 {
		t.Errorf("define(7) = %v", got)
	}
	if got := callOne(t, in, "assign", 7); got != 81+4.0 {
		t.Errorf("assign(7) = %v", got)
	}
	if got := callOne(t, in, "rotate", 1, 2, 3); got != 231 {
		t.Errorf("rotate(1, 2, 3) = %v", got)
	}
	// Go evaluates the index operands of the left side before assigning;
	// the interpreter (like its predecessor) resolves them after — s[i]
	// sees the new i. Pinned so that a change is a decision, not an accident.
	if got := callOne(t, in, "swapElems"); got != 1*10+9+100 {
		t.Errorf("swapElems() = %v", got)
	}
}

// TestNumericLiterals is the regression test for integer literals in float
// context: the tree-walker ran ParseFloat over the token and dropped the
// error, so f + 0x10 evaluated to f + 0 and f + 010 to f + 10.
func TestNumericLiterals(t *testing.T) {
	in := pureInterp(t, `package p
func main() {}
func hexi() int { return 0x10 }
func octi() int { return 010 }
func oct2i() int { return 0o17 }
func bini() int { return 0b101 }
func undi() int { return 1_000_000 }
func hexf(f float64) float64 { return f + 0x10 }
func octf(f float64) float64 { return f + 010 }
func oct2f(f float64) float64 { return f + 0o17 }
func binf(f float64) float64 { return f + 0b101 }
func undf(f float64) float64 { return f + 1_000 }
func negf(f float64) float64 { return f * -0x2 }
func cmpf(f float64) bool { return f < 0x10 }
func hugef(f float64) float64 { return f + 100000000000000000000 }
func expf(f float64) float64 { return f + 1e3 + 0x1p-1 }
`)
	tests := []struct {
		fn   string
		args []any
		want any
	}{
		{"hexi", nil, 16},
		{"octi", nil, 8},
		{"oct2i", nil, 15},
		{"bini", nil, 5},
		{"undi", nil, 1000000},
		{"hexf", []any{1.5}, 17.5},
		{"octf", []any{1.5}, 9.5},
		{"oct2f", []any{1.5}, 16.5},
		{"binf", []any{1.5}, 6.5},
		{"undf", []any{1.5}, 1001.5},
		{"negf", []any{1.5}, -3.0},
		{"cmpf", []any{15.5}, true},
		{"hugef", []any{1.0}, 1e20},
		{"expf", []any{1.0}, 1001.5},
	}
	for _, tt := range tests {
		if got := callOne(t, in, tt.fn, tt.args...); got != tt.want {
			t.Errorf("%s(%v) = %v, want %v", tt.fn, tt.args, got, tt.want)
		}
	}
}

// TestUnparsableLiteralIsAnError: a literal that cannot be folded raises an
// *Error with its position when reached, instead of computing on zero.
func TestUnparsableLiteralIsAnError(t *testing.T) {
	prog, info := loadProgram(t, `package p
func main() {}
func ok() float64 { return 1 }
func bad(f float64) float64 {
	return f + 1
}
`)
	// The checker rejects every malformed literal the parser lets through,
	// so damage one after checking.
	lit := prog.Funcs["bad"].Decl.Body.List[0].(*ast.ReturnStmt).Results[0].(*ast.BinaryExpr).Y.(*ast.BasicLit)
	lit.Value = "0x"
	in := New(prog, info, nil)
	if got := callOne(t, in, "ok"); got != 1.0 {
		t.Errorf("ok() = %v: a bad literal elsewhere must not matter until reached", got)
	}
	_, err := in.Call("bad", 1.5)
	var ie *scanner.Error
	if !errors.As(err, &ie) || !strings.Contains(ie.Msg, "literal 0x") || ie.Pos.Line != 5 {
		t.Errorf("bad(1.5): err = %#v, want a *scanner.Error at line 5 naming the literal", err)
	}
}

func TestStepLimitStopsEmptyLoop(t *testing.T) {
	prog, info := loadProgram(t, `package p
func main() {
	for {
	}
}
`)
	_, err := New(prog, info, nil, WithMaxSteps(10_000)).Run()
	want := "step limit of 10000 exceeded (non-terminating program?)"
	if err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Errorf("err = %v, want ...%s", err, want)
	}
}

func TestDeepRecursion(t *testing.T) {
	in := pureInterp(t, `package p
func main() {}
func sum(n int) int {
	if n == 0 {
		return 0
	}
	return n + sum(n-1)
}
`)
	if got := callOne(t, in, "sum", 10_000); got != 10_000*10_001/2 {
		t.Errorf("sum(10000) = %v", got)
	}
}

// TestCallsRunBeforeOperands: the calls of an expression run first, left
// to right, and the remaining operands are read after them, as in the
// compiled module. Each want is what go run prints for the same source.
// && and || still skip their right operand, a call in a for condition runs
// on every iteration and one in a switch case only when the case is
// reached.
func TestCallsRunBeforeOperands(t *testing.T) {
	in := pureInterp(t, `package p

func main() {}

func set5(p *int) int {
	*p = 5
	return 1
}

func bump(p *int) bool {
	*p = *p + 10
	return true
}

func operandAfterCall() int {
	y := 1
	return y + set5(&y)
}

func indexAfterCall() int {
	arr := []int{20, 30, 40, 50, 0, 60}
	w := 0
	return arr[w] + set5(&w)
}

func andCalls() int {
	z := 1
	if z == 1 && bump(&z) {
		return z
	}
	return -1
}

func andSkips() int {
	z := 1
	if false && bump(&z) {
		return -1
	}
	return z
}

func orSkips() int {
	z := 1
	if z == 1 || bump(&z) {
		return z
	}
	return -1
}

func orCalls() int {
	z := 1
	ok := z == 2 || bump(&z)
	if ok {
		return z
	}
	return -1
}

func below(n int, calls *int) bool {
	*calls = *calls + 1
	return n < 3
}

func forCond() int {
	calls := 0
	i := 0
	for below(i, &calls) {
		i++
	}
	return 10*calls + i
}

func hit(v int, want int, calls *int) bool {
	*calls = *calls + 1
	return v == want
}

func switchCase(v int) int {
	calls := 0
	switch {
	case hit(v, 1, &calls):
		return 100 + calls
	case hit(v, 2, &calls):
		return 200 + calls
	}
	return calls
}

func note(d int, log *int) int {
	*log = *log*10 + d
	return d
}

func leftToRight() int {
	log := 0
	x := note(1, &log) + note(2, &log)*note(3, &log)
	return 100*log + x
}

func argAfterCall() int {
	y := 1
	return pair(set5(&y), y)
}

func pair(a int, b int) int { return 10*a + b }

func targetFirst() int {
	log := 0
	xs := []int{0, 0, 0}
	xs[note(1, &log)] = note(2, &log)
	return 100*log + 10*xs[1] + xs[2]
}

func indexTargetAfterCall() int {
	xs := []int{7, 8, 9, 0, 0, 0}
	w := 0
	xs[w] = set5(&w)
	return 10*xs[0] + xs[5]
}

func opAssignAfterCall() int {
	y := 1
	y += set5(&y)
	return y
}

func opTargetFirst() int {
	log := 0
	xs := []int{0, 0, 0}
	xs[note(1, &log)] += note(2, &log)
	return 100*log + 10*xs[1] + xs[2]
}

func tupleTargetFirst() int {
	log := 0
	xs := []int{0, 0, 0}
	y := 0
	xs[note(1, &log)], y = note(2, &log), note(3, &log)
	return 1000*log + 10*xs[1] + y
}

func sum(n int) int {
	if n == 0 {
		return 0
	}
	return n + sum(n-1)
}
`)
	tests := []struct {
		fn   string
		args []any
		want int
	}{
		{"operandAfterCall", nil, 6}, // y + set5(&y)
		{"indexAfterCall", nil, 61},  // arr[w] + set5(&w)
		{"andCalls", nil, 11},        // z == 1 && bump(&z)
		{"andSkips", nil, 1},         // false && bump(&z)
		{"orSkips", nil, 1},          // z == 1 || bump(&z)
		{"orCalls", nil, 11},         // z == 2 || bump(&z)
		{"forCond", nil, 43},         // four calls of below, three iterations
		{"switchCase", []any{1}, 101},
		{"switchCase", []any{2}, 202},
		{"switchCase", []any{9}, 2},
		{"leftToRight", nil, 12307},       // note 1, 2, 3 in that order; 1 + 2*3
		{"argAfterCall", nil, 15},         // pair(set5(&y), y)
		{"targetFirst", nil, 1220},        // xs[note(1)] = note(2)
		{"indexTargetAfterCall", nil, 71}, // xs[w] = set5(&w)
		{"opAssignAfterCall", nil, 6},     // y += set5(&y)
		{"opTargetFirst", nil, 1220},      // xs[note(1)] += note(2)
		{"tupleTargetFirst", nil, 123023}, // xs[note(1)], y = note(2), note(3)
		{"sum", []any{10}, 55},            // return n + sum(n-1)
	}
	for _, tt := range tests {
		if got := callOne(t, in, tt.fn, tt.args...); got != tt.want {
			t.Errorf("%s(%v) = %v, want %d", tt.fn, tt.args, got, tt.want)
		}
	}
}

// deepSource is a 128-deep descent of plain calls, one frame of each class
// of slot per level.
const deepSource = `package p

func main() {}

func deep(n int) int {
	f := float64(n)
	ok := n > 0
	s := "level"
	if !ok {
		return len(s)
	}
	return deep(n-1) + int(f) - n
}
`

// TestCallWork pins what a call costs the interpreter: no allocation once
// its frame stack is as deep as the descent (what is left is Call's result
// slice), and on a fresh interpreter only the stack's growths, a number
// logarithmic in its depth.
func TestCallWork(t *testing.T) {
	prog, info := loadProgram(t, deepSource)
	low := Lower(prog, info)
	run := func(in *Interp) {
		if got := callOne(t, in, "deep", 128); got != 5 {
			t.Fatalf("deep(128) = %v, want 5", got)
		}
	}
	fresh := testing.AllocsPerRun(20, func() { run(low.Bind(nil)) })
	if fresh > 32 {
		t.Errorf("a 128-deep Call on a fresh Interp allocates %v times, want <= 32", fresh)
	}
	in := low.Bind(nil)
	reused := testing.AllocsPerRun(20, func() { run(in) })
	if reused > 2 {
		t.Errorf("a 128-deep Call on a reused Interp allocates %v times, want <= 2", reused)
	}
	t.Logf("allocations of a 128-deep Call: %v on a fresh Interp, %v on a reused one", fresh, reused)
}

// TestStackSurvivesUnwinding: a Call that fails deep in a descent leaves
// the frame stack where it failed; the next Call on the same Interp starts
// from an empty one.
func TestStackSurvivesUnwinding(t *testing.T) {
	in := pureInterp(t, `package p

func main() {}

func down(n int, at int) int {
	if n == at {
		return n / (n - at)
	}
	if n == 0 {
		return 0
	}
	return n + down(n-1, at)
}
`)
	_, err := in.Call("down", 100, 50)
	if err == nil || !strings.Contains(err.Error(), "integer division by zero") {
		t.Fatalf("down(100, 50): err = %v, want division by zero at depth 50", err)
	}
	if got := callOne(t, in, "down", 100, -1); got != 5050 {
		t.Errorf("down(100, -1) after the failure = %v, want 5050", got)
	}
}

// BenchmarkDeepDescent is the shape of the deep stage's first message: a
// fresh goroutine and a fresh Interp run a 128-deep descent.
func BenchmarkDeepDescent(b *testing.B) {
	prog, err := lang.ParseFiles(map[string]string{"mod.go": deepSource})
	if err != nil {
		b.Fatal(err)
	}
	info, err := lang.Check(prog)
	if err != nil {
		b.Fatal(err)
	}
	low := Lower(prog, info)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan error)
		go func() {
			_, err := low.Bind(nil).Call("deep", 128)
			done <- err
		}()
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
}

// ---- the stage of the benchmark's pipelines, over a stub port ----

const flatStageSource = `package stage

func main() {
	var x int
	var count int
	mh.Init()
	for {
		mh.ReconfigPoint("R")
		mh.Read("in", &x)
		count = count + 1
		mh.Write("out", 3*x+1, count)
	}
}
`

// deepStageSource runs the same loop under a recursion of the given depth,
// with locals of every class in each frame.
func deepStageSource(depth int) string {
	return fmt.Sprintf(`package stage

type Acc struct {
	N    int
	Tags []string
}

func main() {
	mh.Init()
	hold(%d, 0)
}

func hold(n int, acc int) int {
	var a int
	var f float64
	var ok bool
	var s string
	var t Acc
	a = n * 2
	f = float64(n) / 4
	ok = n%%2 == 0
	s = "frame"
	t = Acc{N: acc, Tags: []string{s, s}}
	if n > 0 {
		acc = hold(n-1, acc+a)
		return acc + a + t.N + len(s)
	}
	var x int
	var count int
	for {
		mh.ReconfigPoint("R")
		mh.Read("in", &x)
		count = count + 1
		if ok && f == 0 {
			mh.Write("out", 3*x+1, count)
		}
	}
	return a
}
`, depth)
}

// stubPort feeds a module canned messages, reports the instance stopped
// when they run out, and keeps what it wrote and divulged. A clone's stub
// has the state to install.
type stubPort struct {
	status   string
	msgs     []bus.Message
	next     int
	signal   *bus.Signal // delivered once, with message signalAt
	signalAt int
	wrote    [][]byte
	divulged []byte
	install  []byte
	restored chan error
}

func (p *stubPort) Name() string    { return "stage" }
func (p *stubPort) Machine() string { return "machineA" }
func (p *stubPort) Status() string  { return p.status }
func (p *stubPort) Write(_ string, data []byte) error {
	p.wrote = append(p.wrote, data)
	return nil
}
func (p *stubPort) SendBatch(_ string, batch [][]byte) error {
	p.wrote = append(p.wrote, batch...)
	return nil
}
func (p *stubPort) Read(string) (bus.Message, error) {
	if p.next == len(p.msgs) {
		return bus.Message{}, bus.ErrStopped
	}
	p.next++
	return p.msgs[p.next-1], nil
}
func (p *stubPort) TryRead(iface string) (bus.Message, bool, error) {
	m, err := p.Read(iface)
	return m, err == nil, err
}
func (p *stubPort) Pending(string) (int, error) { return len(p.msgs) - p.next, nil }
func (p *stubPort) TakeSignal() (bus.Signal, bool) {
	if p.signal == nil || p.next < p.signalAt {
		return bus.Signal{}, false
	}
	s := *p.signal
	p.signal = nil
	return s, true
}
func (p *stubPort) Divulge(data []byte) error {
	p.divulged = data
	return nil
}
func (p *stubPort) AwaitState(time.Duration) ([]byte, error) {
	if p.install == nil {
		return nil, bus.ErrTimeout
	}
	return p.install, nil
}
func (p *stubPort) Done() bool { return p.next == len(p.msgs) }
func (p *stubPort) ConfirmRestore(err error) error {
	p.restored <- err
	return nil
}

func stageMessages(t testing.TB, n int) []bus.Message {
	t.Helper()
	msgs := make([]bus.Message, n)
	for i := range msgs {
		data, err := codec.Default().EncodeValue(state.IntValue(int64(i)<<20 | 0xabcde))
		if err != nil {
			t.Fatal(err)
		}
		msgs[i] = bus.Message{Data: data}
	}
	return msgs
}

func prepareStage(t testing.TB, src string) *Lowered {
	t.Helper()
	out, err := transform.Prepare(map[string]string{"stage.go": src}, transform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return Lower(out.Prog, out.Info)
}

// checkStageOutput verifies the (3x+1, count) tuples a stage wrote for
// messages first..first+len(wrote)-1, count continuing from first.
func checkStageOutput(t *testing.T, wrote [][]byte, first int) {
	t.Helper()
	for i, data := range wrote {
		v, err := codec.Default().DecodeValue(data)
		if err != nil {
			t.Fatal(err)
		}
		x := int64(first+i)<<20 | 0xabcde
		if len(v.List) != 2 || v.List[0].Int != 3*x+1 || v.List[1].Int != int64(first+i+1) {
			t.Fatalf("message %d: wrote %v, want [%d %d]", first+i, v, 3*x+1, first+i+1)
		}
	}
}

// runStage runs a lowered stage to the end of its input on a fresh port.
func runStage(t testing.TB, low *Lowered, port *stubPort) {
	t.Helper()
	rt := mh.New(port)
	if _, err := low.Bind(rt).Run(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Err(); err != nil && !strings.Contains(err.Error(), "stopped") {
		t.Fatal(err)
	}
}

// TestStageAllocationsPerMessage pins the machine-independent half of the
// stage's cost: the transformed flat stage, interpreted, allocates exactly
// once per message — the outgoing payload, which the bus retains (the
// tree-walker: 11 to 12 times). Two run lengths separate the per-message
// count from what a run allocates once. The payloads are checked too — the
// stub retains them like a queue would, so a reused encode buffer shows as
// wrong values.
func TestStageAllocationsPerMessage(t *testing.T) {
	const n = 2000
	low := prepareStage(t, flatStageSource)
	msgs := stageMessages(t, 2*n)
	var port *stubPort
	perRun := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			port = &stubPort{status: bus.StatusAdd, msgs: msgs[:n], wrote: make([][]byte, 0, n)}
			runStage(t, low, port)
		})
	}
	// AllocsPerRun counts the whole process's mallocs, so a straggling
	// goroutine of an earlier test can move one sample; a real per-message
	// allocation moves all of them.
	var perMsg float64
	for try := 0; try < 3 && perMsg != 1; try++ {
		perMsg = (perRun(2*n) - perRun(n)) / n
	}
	if perMsg != 1 {
		t.Errorf("interpreted stage allocates %v times per message, want 1 (the payload)", perMsg)
	}
	if len(port.wrote) != n {
		t.Fatalf("stage wrote %d of %d messages", len(port.wrote), n)
	}
	checkStageOutput(t, port.wrote, 0)
}

// TestDeepStackDivulgeRestore: a stage interrupted under a 128-deep
// recursion divulges 130 frames; a clone restored from them has every slot
// of every frame back — it carries on with the right count, and when it is
// interrupted in turn it divulges the same state again, value for value.
func TestDeepStackDivulgeRestore(t *testing.T) {
	const depth, before, after = 128, 5, 7
	low := prepareStage(t, deepStageSource(depth))
	msgs := stageMessages(t, before+after)

	orig := &stubPort{status: bus.StatusAdd, msgs: msgs[:before+1],
		signal: &bus.Signal{Kind: bus.SignalReconfig}, signalAt: before}
	runStage(t, low, orig)
	if orig.divulged == nil {
		t.Fatal("the original did not divulge")
	}
	checkStageOutput(t, orig.wrote, 0)
	if len(orig.wrote) != before {
		t.Fatalf("the original wrote %d messages before divulging, want %d", len(orig.wrote), before)
	}
	st, err := codec.Default().DecodeState(orig.divulged)
	if err != nil {
		t.Fatal(err)
	}
	if st.Depth() != depth+2 {
		t.Fatalf("divulged %d frames, want %d", st.Depth(), depth+2)
	}
	// The innermost frame holds hold(0, ...)'s slots, one of each class.
	inner := st.Frames[depth+1]
	for name, want := range map[string]string{
		"n": "0", "a": "0", "f": "0", "ok": "true", "s": `"frame"`, "count": fmt.Sprint(before),
		"t": fmt.Sprintf(`Acc{N:%d Tags:["frame" "frame"]}`, depth*(depth+1)),
	} {
		if v, ok := inner.Var(name); !ok || v.String() != want {
			t.Errorf("innermost frame: %s = %v (captured: %v), want %s", name, v, ok, want)
		}
	}

	// The clone resumes at the Read the original was interrupted before and
	// is interrupted itself once it has served the rest of the input.
	clone := &stubPort{status: bus.StatusClone, msgs: msgs[before:], install: orig.divulged,
		restored: make(chan error, 1), signal: &bus.Signal{Kind: bus.SignalReconfig}, signalAt: after}
	runStage(t, low, clone)
	select {
	case err := <-clone.restored:
		if err != nil {
			t.Fatalf("restoration failed: %v", err)
		}
	default:
		t.Fatal("the clone never confirmed its restoration")
	}
	checkStageOutput(t, clone.wrote, before)
	if len(clone.wrote) != after {
		t.Fatalf("the clone wrote %d messages, want %d", len(clone.wrote), after)
	}
	st2, err := codec.Default().DecodeState(clone.divulged)
	if err != nil {
		t.Fatalf("the clone did not divulge in turn: %v", err)
	}
	// Same stack, except the two slots the extra messages moved.
	last := &st.Frames[depth+1]
	for i := range last.Vars {
		switch last.Vars[i].Name {
		case "count":
			last.Vars[i].Value = state.IntValue(before + after)
		case "x":
			last.Vars[i].Value = state.IntValue(int64(before+after-1)<<20 | 0xabcde)
		}
	}
	if !st2.Equal(st) {
		t.Errorf("state divulged by the restored clone differs from the original's:\n%s\nwant\n%s", st2, st)
	}
}

// TestLoweredProgramSharedAcrossGoroutines runs one lowered program under
// eight interpreters at once — a module and its clones, the members of a
// replica group — for the race detector (scripts/check.sh: -race -count=10).
func TestLoweredProgramSharedAcrossGoroutines(t *testing.T) {
	const n = 300
	low := prepareStage(t, deepStageSource(8))
	msgs := stageMessages(t, n)
	var wg sync.WaitGroup
	ports := make([]*stubPort, 8)
	for i := range ports {
		ports[i] = &stubPort{status: bus.StatusAdd, msgs: msgs}
		wg.Add(1)
		go func(port *stubPort) {
			defer wg.Done()
			rt := mh.New(port)
			if _, err := low.Bind(rt).Run(); err != nil {
				t.Error(err)
			}
		}(ports[i])
	}
	wg.Wait()
	for _, port := range ports {
		if len(port.wrote) != n {
			t.Fatalf("an interpreter wrote %d of %d messages", len(port.wrote), n)
		}
		checkStageOutput(t, port.wrote, 0)
	}
}

func BenchmarkStage(b *testing.B) {
	low := prepareStage(b, flatStageSource)
	msgs := stageMessages(b, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	runStage(b, low, &stubPort{status: bus.StatusAdd, msgs: msgs, wrote: make([][]byte, 0, b.N)})
}

func BenchmarkLower(b *testing.B) {
	out, err := transform.Prepare(map[string]string{"stage.go": deepStageSource(128)}, transform.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Lower(out.Prog, out.Info)
	}
}

// BenchmarkDeepMigrate descends 128 frames, is interrupted on the first
// message, divulges, and restores a clone from the state: one Move of the
// benchmark's deep-stack stage, without the bus.
func BenchmarkDeepMigrate(b *testing.B) {
	low := prepareStage(b, deepStageSource(128))
	msgs := stageMessages(b, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orig := &stubPort{status: bus.StatusAdd, msgs: msgs, signal: &bus.Signal{Kind: bus.SignalReconfig}, signalAt: 1}
		runStage(b, low, orig)
		clone := &stubPort{status: bus.StatusClone, msgs: msgs[1:], install: orig.divulged, restored: make(chan error, 1)}
		runStage(b, low, clone)
	}
}

// TestCaptureFormatMismatch: the format string is checked against the
// captured values without building a value list; a mismatch still reports
// codec.ValidateFormat's diagnosis.
func TestCaptureFormatMismatch(t *testing.T) {
	prog, info := loadProgram(t, `package p
func main() {
	x := 5
	mh.Capture("main", "lF", 1, x)
}
`)
	_, err := New(prog, info, mh.New(&stubPort{status: bus.StatusAdd})).Run()
	if err == nil || !strings.Contains(err.Error(), `mh.Capture main: codec: format "lF" position 1 wants float, got int`) {
		t.Errorf("err = %v", err)
	}
	for _, format := range []string{"l", "lii"} {
		if formatFits(format, []state.Var{{Value: state.IntValue(1)}}) {
			t.Errorf("format %q fits one variable", format)
		}
	}
}

// addressTaken is the syntactic rule Lower boxed variables by before the
// checker recorded Info.AddrTaken, kept as its reference: the variables of
// one procedure whose address is taken anywhere but directly as a target of
// mh.Read or mh.Restore.
func addressTaken(body *ast.BlockStmt, info *lang.Info) map[*lang.VarDef]bool {
	boxed := map[*lang.VarDef]bool{}
	direct := map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if name, ok := mhPrimitive(x); ok && (name == "Read" || name == "Restore") {
				for _, a := range x.Args {
					direct[a] = true
				}
			}
		case *ast.UnaryExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && x.Op == token.AND && !direct[x] {
				if def := info.VarOf(id); def != nil {
					boxed[def] = true
				}
			}
		}
		return true
	})
	return boxed
}

// TestAddrTakenMatchesReference compares the checker's AddrTaken, the
// variables Lower puts in cells, with addressTaken for every procedure of a
// corpus: every module this package's tests hold, every woven golden of
// internal/transform and Figure 3's compute as written.
func TestAddrTakenMatchesReference(t *testing.T) {
	corpus := map[string]string{"fixtures.ComputeSource": fixtures.ComputeSource}
	for _, file := range []string{"interp_test.go", "lower_test.go", "extra_test.go"} {
		for k, src := range langtest.EmbeddedModules(t, file) {
			corpus[k] = src
		}
	}
	goldens, err := filepath.Glob("../transform/testdata/*.golden")
	if err != nil || len(goldens) < 10 {
		t.Fatalf("%d woven goldens (%v)", len(goldens), err)
	}
	for _, path := range goldens {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		corpus[path] = string(src)
	}
	keys := make([]string, 0, len(corpus))
	for k := range corpus {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	checked, boxed := 0, 0
	for _, key := range keys {
		prog, err := lang.ParseFiles(map[string]string{"mod.go": corpus[key]})
		if err != nil {
			continue
		}
		info, err := lang.Check(prog)
		if err != nil {
			continue // an error test's program: nothing lowers it
		}
		checked++
		want := 0
		for _, name := range prog.FuncOrder {
			ref := addressTaken(prog.Funcs[name].Decl.Body, info)
			want += len(ref)
			for _, d := range info.FuncVars[name] {
				if info.AddrTaken[d] != ref[d] {
					t.Errorf("%s: %s.%s: checker says address-taken %v, reference %v", key, name, d.Name, info.AddrTaken[d], ref[d])
				}
			}
		}
		if len(info.AddrTaken) != want {
			t.Errorf("%s: checker records %d address-taken variables, reference %d", key, len(info.AddrTaken), want)
		}
		boxed += want
	}
	if checked < 30 || boxed == 0 {
		t.Errorf("corpus: %d programs check, %d boxed variables: a source went missing", checked, boxed)
	}
	t.Logf("%d programs, %d boxed variables", checked, boxed)
}
