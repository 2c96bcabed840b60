package interp

import (
	"go/ast"
	"go/constant"
	"go/token"
	"math"
	"strconv"

	"repro/internal/lang"
)

// expr is a lowered expression: a closure returning its value, typed by
// the expression's static class so that numbers and booleans flow between
// operators unboxed. At least one field is set; the accessors convert.
type expr struct {
	i func(*frame) int
	f func(*frame) float64
	b func(*frame) bool
	a func(*frame) any
}

func (e expr) int() func(*frame) int {
	if e.i != nil {
		return e.i
	}
	a := e.any()
	return func(fr *frame) int { return a(fr).(int) }
}

func (e expr) float() func(*frame) float64 {
	if e.f != nil {
		return e.f
	}
	a := e.any()
	return func(fr *frame) float64 { return a(fr).(float64) }
}

func (e expr) bool() func(*frame) bool {
	if e.b != nil {
		return e.b
	}
	a := e.any()
	return func(fr *frame) bool { return a(fr).(bool) }
}

func (e expr) any() func(*frame) any {
	switch {
	case e.a != nil:
		return e.a
	case e.i != nil:
		return func(fr *frame) any { return e.i(fr) }
	case e.f != nil:
		return func(fr *frame) any { return e.f(fr) }
	default:
		return func(fr *frame) any { return e.b(fr) }
	}
}

func (e expr) string() func(*frame) string {
	a := e.any()
	return func(fr *frame) string { return a(fr).(string) }
}

// discard evaluates the expression for its effects.
func (e expr) discard() func(*frame) {
	a := e.any()
	return func(fr *frame) { a(fr) }
}

func (e expr) isZero() bool { return e.i == nil && e.f == nil && e.b == nil && e.a == nil }

// konst lowers a value known at lower time.
func konst(v any) expr {
	switch x := v.(type) {
	case int:
		return expr{i: func(*frame) int { return x }}
	case float64:
		return expr{f: func(*frame) float64 { return x }}
	case bool:
		return expr{b: func(*frame) bool { return x }}
	}
	return expr{a: func(*frame) any { return v }}
}

// zeroExpr yields the zero value of t, fresh each time for structs.
func zeroExpr(t lang.Type) expr {
	zero := zeroValue(t)
	if _, ok := t.(*lang.Struct); ok {
		return expr{a: func(*frame) any { return copyVal(zero) }}
	}
	return konst(zero)
}

// copied gives a struct-typed value Go's value semantics at a store;
// every other type passes through.
func copied(t lang.Type, e expr) expr {
	if _, ok := t.(*lang.Struct); !ok {
		return e
	}
	a := e.any()
	return expr{a: func(fr *frame) any { return copyVal(a(fr)) }}
}

// value lowers an expression about to be stored.
func (fl *funcLowerer) value(e ast.Expr) expr {
	return copied(fl.info.TypeOf(e), fl.expr(e))
}

// bad is an expression that raises a module error when evaluated.
func (fl *funcLowerer) bad(pos token.Pos, format string, args ...any) expr {
	return expr{a: func(fr *frame) any {
		fr.in.failf(pos, format, args...)
		return nil
	}}
}

// load reads a variable.
func (fl *funcLowerer) load(v *variable) expr {
	k := v.slot
	switch {
	case v.boxed:
		return expr{a: func(fr *frame) any { return fr.s[k].r.(*varCell).v }}
	case v.cls == intClass:
		return expr{i: func(fr *frame) int { return fr.s[k].n }}
	case v.cls == floatClass:
		return expr{f: func(fr *frame) float64 { return math.Float64frombits(uint64(fr.s[k].n)) }}
	case v.cls == boolClass:
		return expr{b: func(fr *frame) bool { return fr.s[k].n != 0 }}
	}
	return expr{a: func(fr *frame) any { return fr.s[k].r }}
}

func (fl *funcLowerer) expr(e ast.Expr) expr {
	switch x := e.(type) {
	case *ast.BasicLit:
		return fl.literal(x)
	case *ast.Ident:
		switch x.Name {
		case "true":
			return konst(true)
		case "false":
			return konst(false)
		}
		def := fl.info.VarOf(x)
		if def == nil {
			return fl.bad(x.Pos(), "undeclared variable %s", x.Name)
		}
		return fl.load(fl.variable(def))
	case *ast.ParenExpr:
		return fl.expr(x.X)
	case *ast.UnaryExpr:
		return fl.unary(x)
	case *ast.BinaryExpr:
		if (x.Op == token.LAND || x.Op == token.LOR) && fl.callsIn(x.Y) {
			return fl.shortCircuit(x)
		}
		l, r := fl.expr(x.X), fl.expr(x.Y)
		switch x.Op {
		case token.LAND:
			lb, rb := l.bool(), r.bool()
			return expr{b: func(fr *frame) bool { return lb(fr) && rb(fr) }}
		case token.LOR:
			lb, rb := l.bool(), r.bool()
			return expr{b: func(fr *frame) bool { return lb(fr) || rb(fr) }}
		}
		return fl.binary(x.Pos(), x.Op, fl.info.TypeOf(x.X), l, r)
	case *ast.CallExpr:
		return fl.call(x)
	case *ast.IndexExpr:
		xs, idx, pos := fl.expr(x.X).any(), fl.expr(x.Index).int(), x.Pos()
		return expr{a: func(fr *frame) any {
			sl, i := indexOperands(fr, pos, xs, idx)
			return sl[i]
		}}
	case *ast.SliceExpr:
		return fl.slice(x)
	case *ast.StarExpr:
		at := fl.deref(x)
		return expr{a: func(fr *frame) any { return at(fr).get() }}
	case *ast.SelectorExpr:
		sv, i := fl.structOperand(x.X), fl.fieldIndex(x)
		if i < 0 {
			return fl.bad(x.Sel.Pos(), "no field %s", x.Sel.Name)
		}
		return expr{a: func(fr *frame) any { return sv(fr).fields[i] }}
	case *ast.CompositeLit:
		return fl.composite(x)
	}
	return fl.bad(e.Pos(), "unsupported expression %T", e)
}

// literal parses a literal once. An integer token the checker typed as
// float (f + 0x10) is an integer constant converted, as in Go.
func (fl *funcLowerer) literal(lit *ast.BasicLit) expr {
	switch lit.Kind {
	case token.INT, token.FLOAT:
		v := constant.MakeFromLiteral(lit.Value, lit.Kind, 0)
		if classOf(fl.info.TypeOf(lit)) == floatClass || lit.Kind == token.FLOAT {
			if f, _ := constant.Float64Val(v); v.Kind() != constant.Unknown && !math.IsInf(f, 0) {
				return konst(f)
			}
		} else if n, exact := constant.Int64Val(v); exact {
			return konst(int(n))
		}
		return fl.bad(lit.Pos(), "bad %s literal %s", lit.Kind, lit.Value)
	case token.STRING:
		s, err := strconv.Unquote(lit.Value)
		if err != nil {
			return fl.bad(lit.Pos(), "bad string literal")
		}
		return konst(s)
	}
	return fl.bad(lit.Pos(), "unsupported literal %s", lit.Kind)
}

func (fl *funcLowerer) unary(x *ast.UnaryExpr) expr {
	switch x.Op {
	case token.ADD:
		return fl.expr(x.X)
	case token.SUB:
		switch v := fl.expr(x.X); classOf(fl.info.TypeOf(x.X)) {
		case intClass:
			i := v.int()
			return expr{i: func(fr *frame) int { return -i(fr) }}
		case floatClass:
			f := v.float()
			return expr{f: func(fr *frame) float64 { return -f(fr) }}
		}
		return fl.bad(x.Pos(), "negation of a non-numeric value")
	case token.NOT:
		b := fl.expr(x.X).bool()
		return expr{b: func(fr *frame) bool { return !b(fr) }}
	case token.AND:
		at := fl.address(x.X)
		return expr{a: func(fr *frame) any { return at(fr) }}
	}
	return fl.bad(x.Pos(), "unsupported unary %s", x.Op)
}

// ---- operators ----

// shortCircuit lowers x && y or x || y whose right operand calls a
// procedure: the call is an instruction, so it is skipped by a jump rather
// than by Go's own && and ||.
func (fl *funcLowerer) shortCircuit(x *ast.BinaryExpr) expr {
	v, end := fl.temp(lang.BoolType), &label{}
	fl.do(x.X.Pos(), adapt(fl.storeVar(v, fl.expr(x.X), false)))
	needY := fl.load(v).b // x && y needs y when x holds
	if k := v.slot; x.Op == token.LOR {
		needY = func(fr *frame) bool { return fr.s[k].n == 0 } // x || y when it does not
	}
	fl.jumpUnless(x.OpPos, needY, end)
	fl.do(x.Y.Pos(), adapt(fl.storeVar(v, fl.expr(x.Y), false)))
	fl.place(end)
	return fl.load(v)
}

// binary applies a non-short-circuit operator to operands of static type t.
func (fl *funcLowerer) binary(pos token.Pos, op token.Token, t lang.Type, x, y expr) expr {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return expr{b: fl.compare(pos, op, t, x, y)}
	}
	var out expr
	switch b, _ := t.(lang.Basic); b.B {
	case lang.Int:
		out.i = fl.intOp(pos, op, x.int(), y.int())
	case lang.Float64:
		if l, r := x.float(), y.float(); op == token.QUO {
			out.f = func(fr *frame) float64 { return l(fr) / r(fr) }
		} else {
			out.f = arith(op, l, r)
		}
	case lang.String:
		if l, r := x.string(), y.string(); op == token.ADD {
			out.a = func(fr *frame) any { return l(fr) + r(fr) }
		}
	}
	if out.isZero() {
		return fl.bad(pos, "operator %s not defined on %s", op, typeString(t))
	}
	return out
}

func typeString(t lang.Type) string {
	if t == nil {
		return "an untyped operand"
	}
	return t.String()
}

// compare lowers a comparison of two operands of static type t.
func (fl *funcLowerer) compare(pos token.Pos, op token.Token, t lang.Type, x, y expr) func(*frame) bool {
	var out func(*frame) bool
	switch b, _ := t.(lang.Basic); b.B {
	case lang.Int:
		out = ordered(op, x.int(), y.int())
	case lang.Float64:
		out = ordered(op, x.float(), y.float())
	case lang.String:
		out = ordered(op, x.string(), y.string())
	case lang.Bool:
		switch l, r := x.bool(), y.bool(); op {
		case token.EQL:
			out = func(fr *frame) bool { return l(fr) == r(fr) }
		case token.NEQ:
			out = func(fr *frame) bool { return l(fr) != r(fr) }
		}
	}
	if out == nil {
		return fl.bad(pos, "operator %s not defined on %s", op, typeString(t)).bool()
	}
	return out
}

func ordered[T int | float64 | string](op token.Token, x, y func(*frame) T) func(*frame) bool {
	switch op {
	case token.EQL:
		return func(fr *frame) bool { return x(fr) == y(fr) }
	case token.NEQ:
		return func(fr *frame) bool { return x(fr) != y(fr) }
	case token.LSS:
		return func(fr *frame) bool { return x(fr) < y(fr) }
	case token.LEQ:
		return func(fr *frame) bool { return x(fr) <= y(fr) }
	case token.GTR:
		return func(fr *frame) bool { return x(fr) > y(fr) }
	case token.GEQ:
		return func(fr *frame) bool { return x(fr) >= y(fr) }
	}
	return nil
}

// arith covers the operators int and float64 share and that cannot fail.
func arith[T int | float64](op token.Token, x, y func(*frame) T) func(*frame) T {
	switch op {
	case token.ADD:
		return func(fr *frame) T { return x(fr) + y(fr) }
	case token.SUB:
		return func(fr *frame) T { return x(fr) - y(fr) }
	case token.MUL:
		return func(fr *frame) T { return x(fr) * y(fr) }
	}
	return nil
}

func (fl *funcLowerer) intOp(pos token.Pos, op token.Token, x, y func(*frame) int) func(*frame) int {
	switch op {
	case token.QUO:
		return func(fr *frame) int {
			a, b := x(fr), y(fr)
			if b == 0 {
				fr.in.failf(pos, "integer division by zero")
			}
			return a / b
		}
	case token.REM:
		return func(fr *frame) int {
			a, b := x(fr), y(fr)
			if b == 0 {
				fr.in.failf(pos, "integer modulo by zero")
			}
			return a % b
		}
	case token.AND:
		return func(fr *frame) int { return x(fr) & y(fr) }
	case token.OR:
		return func(fr *frame) int { return x(fr) | y(fr) }
	case token.XOR:
		return func(fr *frame) int { return x(fr) ^ y(fr) }
	case token.AND_NOT:
		return func(fr *frame) int { return x(fr) &^ y(fr) }
	case token.SHL, token.SHR:
		left := op == token.SHL
		return func(fr *frame) int {
			a, b := x(fr), y(fr)
			if b < 0 || b > 63 {
				fr.in.failf(pos, "shift count %d out of range", b)
			}
			if left {
				return a << b
			}
			return a >> b
		}
	}
	return arith(op, x, y)
}

// ---- locations ----

// indexOperands evaluates xs[idx] up to the bounds check.
func indexOperands(fr *frame, pos token.Pos, xs func(*frame) any, idx func(*frame) int) ([]any, int) {
	v := xs(fr)
	sl, ok := v.([]any)
	if !ok {
		fr.in.failf(pos, "index of non-slice %s", formatValue(v))
	}
	i := idx(fr)
	if i < 0 || i >= len(sl) {
		fr.in.failf(pos, "index %d out of range [0:%d]", i, len(sl))
	}
	return sl, i
}

// deref evaluates the pointer operand of *p to the location it denotes.
func (fl *funcLowerer) deref(x *ast.StarExpr) func(*frame) cell {
	p, pos := fl.expr(x.X).any(), x.Pos()
	return func(fr *frame) cell {
		v := p(fr)
		c, ok := v.(cell)
		if !ok || c == nil {
			fr.in.failf(pos, "dereference of nil or non-pointer %s", formatValue(v))
		}
		return c
	}
}

// structOperand resolves the struct value an expression denotes, following
// one pointer level (Go's auto-deref in selectors).
func (fl *funcLowerer) structOperand(e ast.Expr) func(*frame) *structVal {
	x, pos := fl.expr(e).any(), e.Pos()
	_, viaPointer := fl.info.TypeOf(e).(lang.Pointer)
	return func(fr *frame) *structVal {
		v := x(fr)
		if viaPointer {
			c, ok := v.(cell)
			if !ok || c == nil {
				fr.in.failf(pos, "field access through nil pointer")
			}
			v = c.get()
		}
		sv, ok := v.(*structVal)
		if !ok {
			fr.in.failf(pos, "field access on non-struct %s", formatValue(v))
		}
		return sv
	}
}

// fieldIndex resolves x.Sel against the static struct type (-1 if absent).
func (fl *funcLowerer) fieldIndex(x *ast.SelectorExpr) int {
	t := fl.info.TypeOf(x.X)
	if p, ok := t.(lang.Pointer); ok {
		t = p.Elem
	}
	if st, ok := t.(*lang.Struct); ok {
		for i, f := range st.Fields {
			if f.Name == x.Sel.Name {
				return i
			}
		}
	}
	return -1
}

// address lowers &e: the location an assignable expression denotes.
func (fl *funcLowerer) address(e ast.Expr) func(*frame) cell {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return fl.address(x.X)
	case *ast.Ident:
		if def := fl.info.VarOf(x); def != nil {
			// The checker's AddrTaken put this variable in a cell.
			k := fl.variable(def).slot
			return func(fr *frame) cell { return fr.s[k].r.(*varCell) }
		}
	case *ast.StarExpr:
		return fl.deref(x)
	case *ast.IndexExpr:
		xs, idx, pos := fl.expr(x.X).any(), fl.expr(x.Index).int(), x.Pos()
		return func(fr *frame) cell {
			sl, i := indexOperands(fr, pos, xs, idx)
			return sliceCell{s: sl, i: i}
		}
	case *ast.SelectorExpr:
		if i := fl.fieldIndex(x); i >= 0 {
			sv := fl.structOperand(x.X)
			return func(fr *frame) cell { return fieldCell{sv: sv(fr), i: i} }
		}
	}
	pos := e.Pos()
	return func(fr *frame) cell {
		fr.in.failf(pos, "not an assignable expression")
		return nil
	}
}

// ---- calls, slices, composites ----

func (fl *funcLowerer) call(x *ast.CallExpr) expr {
	if name, ok := mhPrimitive(x); ok {
		if _, val := fl.mhCall(x, name); !val.isZero() {
			return val
		}
		return fl.bad(x.Pos(), "mh.%s returns no value", name)
	}
	if callee := fl.procedure(x); callee != nil {
		if len(callee.results) != 1 {
			return fl.bad(x.Pos(), "%s does not return exactly one value", callee.name)
		}
		// The call runs now, ahead of the instruction that reads the rest
		// of the expression; its result waits in a temporary.
		fl.invoke(x, callee)
		res := fl.temp(callee.results[0].typ)
		st := fl.storeVar(res, fl.load(callee.results[0]), false)
		fl.do(x.Pos(), func(fr *frame) { st(fr.in.returned(), fr) })
		return fl.load(res)
	}
	id, ok := x.Fun.(*ast.Ident)
	if !ok {
		return fl.bad(x.Pos(), "unsupported call")
	}
	return fl.builtin(x, id.Name)
}

// procedure resolves a call of one of the module's procedures to the
// callee (nil for a builtin, an mh primitive or anything else).
func (fl *funcLowerer) procedure(x *ast.CallExpr) *code {
	if id, ok := x.Fun.(*ast.Ident); ok {
		return fl.funcs[id.Name]
	}
	return nil
}

// callsIn reports whether evaluating e calls a procedure of the module.
func (fl *funcLowerer) callsIn(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if x, ok := n.(*ast.CallExpr); ok && fl.procedure(x) != nil {
			found = true
		}
		return !found
	})
	return found
}

// invoke emits the call instruction of a procedure call. The arguments are
// lowered first, so the calls among them are instructions before it; the
// instruction evaluates the rest of each argument in the caller's frame,
// binds it straight into the callee's frame one level up and has exec
// switch to that frame. The callee's results stay in its frame for the
// instruction after the call to read (Interp.returned).
func (fl *funcLowerer) invoke(x *ast.CallExpr, callee *code) {
	if len(x.Args) != len(callee.params) {
		fl.fail(x.Pos(), "%s takes %d arguments, got %d", callee.name, len(callee.params), len(x.Args))
		return
	}
	args := make([]store, len(x.Args))
	for i, a := range x.Args {
		args[i] = fl.storeVar(callee.params[i], fl.value(a), true)
	}
	fl.emit(x.Pos(), func(fr *frame) int {
		in := fr.in
		nf := in.enter(in.depth+1, callee)
		for _, bind := range args {
			bind(fr, nf)
		}
		return callPC
	})
}

func (fl *funcLowerer) builtin(x *ast.CallExpr, name string) expr {
	pos := x.Pos()
	arg := func(i int) expr { return fl.expr(x.Args[i]) }
	argClass := func(i int) class { return classOf(fl.info.TypeOf(x.Args[i])) }
	switch name {
	case "int":
		if argClass(0) == floatClass {
			f := arg(0).float()
			return expr{i: func(fr *frame) int { return int(f(fr)) }}
		}
		return expr{i: arg(0).int()}
	case "float64":
		if argClass(0) == intClass {
			i := arg(0).int()
			return expr{f: func(fr *frame) float64 { return float64(i(fr)) }}
		}
		return expr{f: arg(0).float()}
	case "len", "cap":
		operand, isLen := arg(0).any(), name == "len"
		return expr{i: func(fr *frame) int {
			v := operand(fr)
			switch v := v.(type) {
			case []any:
				if isLen {
					return len(v)
				}
				return cap(v)
			case string:
				if isLen {
					return len(v)
				}
			}
			fr.in.failf(pos, "%s of %s", name, formatValue(v))
			return 0
		}}
	case "append":
		base := arg(0).any()
		elems := make([]func(*frame) any, len(x.Args)-1)
		for i, a := range x.Args[1:] {
			elems[i] = fl.value(a).any()
		}
		return expr{a: func(fr *frame) any {
			sl, _ := base(fr).([]any)
			for _, e := range elems {
				sl = append(sl, e(fr))
			}
			return sl
		}}
	case "make":
		t, err := fl.prog.ResolveType(x.Args[0])
		st, ok := t.(lang.Slice)
		if err != nil || !ok {
			return fl.bad(pos, "make of a non-slice type")
		}
		size := arg(1).int()
		room := size
		if len(x.Args) == 3 {
			room = arg(2).int()
		}
		zero := zeroExpr(st.Elem).any()
		return expr{a: func(fr *frame) any {
			n, c := size(fr), room(fr)
			if n < 0 || c < n {
				fr.in.failf(pos, "make with invalid sizes %d, %d", n, c)
			}
			out := make([]any, n, c)
			for i := range out {
				out[i] = zero(fr)
			}
			return out
		}}
	}
	return fl.bad(pos, "call to undefined function %s", name)
}

func (fl *funcLowerer) slice(x *ast.SliceExpr) expr {
	xs, pos := fl.expr(x.X).any(), x.Pos()
	low, high := konst(0).int(), konst(0).int()
	if x.Low != nil {
		low = fl.expr(x.Low).int()
	}
	toEnd := x.High == nil
	if !toEnd {
		high = fl.expr(x.High).int()
	}
	return expr{a: func(fr *frame) any {
		v := xs(fr)
		lo, hi := low(fr), high(fr)
		switch v := v.(type) {
		case []any:
			if toEnd {
				hi = len(v)
			}
			if lo < 0 || hi < lo || hi > cap(v) {
				fr.in.failf(pos, "slice bounds [%d:%d] out of range (len %d cap %d)", lo, hi, len(v), cap(v))
			}
			return v[lo:hi]
		case string:
			if toEnd {
				hi = len(v)
			}
			if lo < 0 || hi < lo || hi > len(v) {
				fr.in.failf(pos, "string bounds [%d:%d] out of range (len %d)", lo, hi, len(v))
			}
			return v[lo:hi]
		}
		fr.in.failf(pos, "slice of %s", formatValue(v))
		return nil
	}}
}

func (fl *funcLowerer) composite(x *ast.CompositeLit) expr {
	t, err := fl.prog.ResolveType(x.Type)
	if err != nil {
		return fl.bad(x.Pos(), "%v", err)
	}
	// fields pairs each element with the index it initializes.
	type field struct {
		i   int
		val func(*frame) any
	}
	var fields []field
	for i, el := range x.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			st, _ := t.(*lang.Struct)
			key, _ := kv.Key.(*ast.Ident)
			i = -1
			for j := 0; st != nil && key != nil && j < len(st.Fields); j++ {
				if st.Fields[j].Name == key.Name {
					i = j
				}
			}
			if i < 0 {
				return fl.bad(kv.Pos(), "unsupported composite literal key")
			}
			el = kv.Value
		}
		fields = append(fields, field{i: i, val: fl.value(el).any()})
	}
	switch t.(type) {
	case lang.Slice:
		return expr{a: func(fr *frame) any {
			out := make([]any, len(fields))
			for _, f := range fields {
				out[f.i] = f.val(fr)
			}
			return out
		}}
	case *lang.Struct:
		zero := zeroValue(t)
		return expr{a: func(fr *frame) any {
			sv := copyVal(zero).(*structVal)
			for _, f := range fields {
				sv.fields[f.i] = f.val(fr)
			}
			return sv
		}}
	}
	return fl.bad(x.Pos(), "unsupported composite literal")
}
