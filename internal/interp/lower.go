package interp

import (
	"go/ast"
	"go/token"
	"math"

	"repro/internal/lang"
)

// Lowered is a module program resolved for execution: one flat instruction
// array per procedure. It is immutable once Lower returns.
type Lowered struct {
	fset  *token.FileSet
	funcs map[string]*code
}

// code is one lowered procedure. A frame of nslots slots holds, in order,
// its parameters, its results, and every local and temporary of its body.
type code struct {
	name    string
	params  []*variable
	results []*variable
	nslots  int
	ins     []instr
	pos     []token.Pos // source position of each instruction
}

// instr executes one instruction and returns the index of the next one,
// or retPC or callPC.
type instr func(fr *frame) int

const (
	retPC  = -1 // return from the procedure
	callPC = -2 // switch to the callee frame the instruction readied
)

// frame is one activation record, an element of the interpreter's stack.
type frame struct {
	in *Interp
	c  *code
	pc int // where the activation resumes when its callee returns
	s  []slot
}

// slot holds one variable: n for int (the value), float64 (its bits) and
// bool (0 or 1); r for everything else — and, for an address-taken
// variable of any type, its *varCell.
type slot struct {
	n int
	r any
}

type class uint8

const (
	refClass class = iota // string, slice, struct, pointer
	intClass
	floatClass
	boolClass
)

func classOf(t lang.Type) class {
	if b, ok := t.(lang.Basic); ok {
		switch b.B {
		case lang.Int:
			return intClass
		case lang.Float64:
			return floatClass
		case lang.Bool:
			return boolClass
		}
	}
	return refClass
}

// variable is a parameter, result, local or temporary with its frame slot.
type variable struct {
	slot  int
	cls   class
	boxed bool // address-taken: the slot holds a *varCell
	typ   lang.Type
}

// setAny and getAny move a variable across the Call boundary, where values
// are boxed; lowered code uses the typed loads and stores of expr.go.
func (v *variable) setAny(fr *frame, val any) bool {
	s := &fr.s[v.slot]
	ok := true
	switch {
	case v.boxed:
		s.r = &varCell{v: val}
	case v.cls == intClass:
		s.n, ok = val.(int)
	case v.cls == floatClass:
		var f float64
		f, ok = val.(float64)
		s.n = int(math.Float64bits(f))
	case v.cls == boolClass:
		var b bool
		if b, ok = val.(bool); b {
			s.n = 1
		}
	default:
		s.r = val
	}
	return ok
}

func (v *variable) getAny(fr *frame) any {
	s := fr.s[v.slot]
	switch {
	case v.boxed:
		return s.r.(*varCell).v
	case v.cls == intClass:
		return s.n
	case v.cls == floatClass:
		return math.Float64frombits(uint64(s.n))
	case v.cls == boolClass:
		return s.n != 0
	}
	return s.r
}

// label is a jump target, placed once its instruction index is known.
type label struct{ pc int }

// Lower resolves a checked program into slot-indexed code. It never fails:
// a construct that cannot execute (an unparsable literal, a statement
// outside the subset) lowers to an instruction that raises a *scanner.Error with
// its position when — and only if — control reaches it.
func Lower(prog *lang.Program, info *lang.Info) *Lowered {
	out := &Lowered{fset: prog.Fset, funcs: map[string]*code{}}
	// Signatures first, so a call can bind to a callee lowered after it.
	fls := make([]*funcLowerer, len(prog.FuncOrder))
	for i, name := range prog.FuncOrder {
		fn := prog.Funcs[name]
		fl := &funcLowerer{
			prog: prog, info: info, funcs: out.funcs, fn: fn,
			c:      &code{name: name},
			vars:   map[*lang.VarDef]*variable{},
			labels: map[string]*label{},
		}
		for _, p := range fn.Params {
			fl.c.params = append(fl.c.params, fl.variable(p))
		}
		for _, t := range fn.Results {
			fl.c.results = append(fl.c.results, fl.temp(t))
		}
		out.funcs[name] = fl.c
		fls[i] = fl
	}
	for _, fl := range fls {
		fl.block(fl.fn.Decl.Body.List)
		fl.emit(fl.fn.Decl.Body.Rbrace, func(*frame) int { return retPC })
	}
	return out
}

// mhPrimitive recognizes mh.<name>(...).
func mhPrimitive(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if id, ok := sel.X.(*ast.Ident); !ok || id.Name != lang.MHName {
		return "", false
	}
	return sel.Sel.Name, true
}

// funcLowerer lowers one procedure.
type funcLowerer struct {
	prog  *lang.Program
	info  *lang.Info
	funcs map[string]*code
	fn    *lang.Func
	c     *code

	vars   map[*lang.VarDef]*variable
	labels map[string]*label
	loops  []loopCtx // enclosing break/continue targets, innermost last
}

// loopCtx is one enclosing for, range or switch (cont is nil for a switch).
type loopCtx struct {
	name      string
	brk, cont *label
}

// variable returns the slot of a declared variable, assigning one on first
// sight: the checker gives every declaration its own VarDef, so shadowed
// names in nested blocks get distinct slots with no scope stack. A variable
// the checker found address-taken lives in a cell; &x directly as a target
// of mh.Read or mh.Restore, which store through the slot without ever
// holding a pointer, does not count.
func (fl *funcLowerer) variable(def *lang.VarDef) *variable {
	v, ok := fl.vars[def]
	if !ok {
		v = fl.temp(def.Type)
		v.boxed = fl.info.AddrTaken[def]
		fl.vars[def] = v
	}
	return v
}

// temp allocates an anonymous slot of type t.
func (fl *funcLowerer) temp(t lang.Type) *variable {
	v := &variable{slot: fl.c.nslots, cls: classOf(t), typ: t}
	fl.c.nslots++
	return v
}

func (fl *funcLowerer) label(name string) *label {
	l, ok := fl.labels[name]
	if !ok {
		l = &label{pc: -1}
		fl.labels[name] = l
	}
	return l
}

// place binds a label to the next instruction to be emitted.
func (fl *funcLowerer) place(l *label) { l.pc = len(fl.c.ins) }

func (fl *funcLowerer) emit(pos token.Pos, in instr) {
	fl.c.ins = append(fl.c.ins, in)
	fl.c.pos = append(fl.c.pos, pos)
}

// do emits a straight-line instruction.
func (fl *funcLowerer) do(pos token.Pos, run func(*frame)) {
	next := len(fl.c.ins) + 1
	fl.emit(pos, func(fr *frame) int {
		run(fr)
		return next
	})
}

func (fl *funcLowerer) jump(pos token.Pos, to *label) {
	fl.emit(pos, func(*frame) int { return to.pc })
}

// jumpUnless falls through when cond holds and jumps to otherwise.
func (fl *funcLowerer) jumpUnless(pos token.Pos, cond func(*frame) bool, to *label) {
	next := len(fl.c.ins) + 1
	fl.emit(pos, func(fr *frame) int {
		if cond(fr) {
			return next
		}
		return to.pc
	})
}

// fail emits an instruction that raises a module error when reached.
func (fl *funcLowerer) fail(pos token.Pos, format string, args ...any) {
	fl.do(pos, func(fr *frame) { fr.in.failf(pos, format, args...) })
}

// ---- statements ----

func (fl *funcLowerer) block(list []ast.Stmt) {
	for _, s := range list {
		fl.stmt(s, "")
	}
}

// stmt lowers one statement; name is the label directly on it, which a
// labeled break or continue inside a loop or switch refers to.
func (fl *funcLowerer) stmt(s ast.Stmt, name string) {
	switch st := s.(type) {
	case *ast.LabeledStmt:
		fl.place(fl.label(st.Label.Name))
		fl.stmt(st.Stmt, st.Label.Name)
	case *ast.DeclStmt:
		fl.decl(st)
	case *ast.AssignStmt:
		fl.assign(st)
	case *ast.IncDecStmt:
		op := token.ADD
		if st.Tok == token.DEC {
			op = token.SUB
		}
		one := konst(1)
		if classOf(fl.info.TypeOf(st.X)) == floatClass {
			one = konst(1.0)
		}
		fl.opAssign(st.Pos(), st.X, op, func() expr { return one })
	case *ast.ExprStmt:
		fl.exprStmt(st)
	case *ast.IfStmt:
		if st.Init != nil {
			fl.stmt(st.Init, "")
		}
		els, end := &label{}, &label{}
		fl.jumpUnless(st.Pos(), fl.expr(st.Cond).bool(), els)
		fl.block(st.Body.List)
		if st.Else != nil {
			fl.jump(st.Else.Pos(), end)
		}
		fl.place(els)
		if st.Else != nil {
			fl.stmt(st.Else, "")
		}
		fl.place(end)
	case *ast.ForStmt:
		if st.Init != nil {
			fl.stmt(st.Init, "")
		}
		top, post, end := &label{}, &label{}, &label{}
		fl.place(top)
		if st.Cond != nil {
			fl.jumpUnless(st.Pos(), fl.expr(st.Cond).bool(), end)
		}
		fl.loops = append(fl.loops, loopCtx{name: name, brk: end, cont: post})
		fl.block(st.Body.List)
		fl.loops = fl.loops[:len(fl.loops)-1]
		fl.place(post)
		if st.Post != nil {
			fl.stmt(st.Post, "")
		}
		fl.jump(st.Pos(), top)
		fl.place(end)
	case *ast.RangeStmt:
		fl.rangeStmt(st, name)
	case *ast.SwitchStmt:
		fl.switchStmt(st, name)
	case *ast.BranchStmt:
		fl.branch(st)
	case *ast.ReturnStmt:
		stores := make([]store, len(st.Results))
		for i, e := range st.Results {
			if i >= len(fl.c.results) {
				fl.fail(st.Pos(), "too many results for %s", fl.c.name)
				return
			}
			stores[i] = fl.storeVar(fl.c.results[i], fl.value(e), false)
		}
		fl.emit(st.Pos(), func(fr *frame) int {
			for _, set := range stores {
				set(fr, fr)
			}
			return retPC
		})
	case *ast.BlockStmt:
		fl.block(st.List)
	case *ast.EmptyStmt:
	default:
		fl.fail(s.Pos(), "unsupported statement %T", s)
	}
}

func (fl *funcLowerer) exprStmt(st *ast.ExprStmt) {
	call, ok := st.X.(*ast.CallExpr)
	if !ok {
		fl.fail(st.Pos(), "unsupported statement %T", st.X)
		return
	}
	if name, ok := mhPrimitive(call); ok {
		run, val := fl.mhCall(call, name)
		if run == nil {
			run = val.discard()
		}
		fl.do(st.Pos(), run)
		return
	}
	if callee := fl.procedure(call); callee != nil {
		fl.invoke(call, callee)
		return
	}
	fl.do(st.Pos(), fl.expr(call).discard())
}

func (fl *funcLowerer) branch(st *ast.BranchStmt) {
	if st.Tok == token.GOTO {
		fl.jump(st.Pos(), fl.label(st.Label.Name))
		return
	}
	// break leaves the innermost loop or switch, continue the innermost
	// loop; a label selects the enclosing statement that carries it.
	for i := len(fl.loops) - 1; i >= 0; i-- {
		ctx := fl.loops[i]
		if st.Label != nil && st.Label.Name != ctx.name {
			continue
		}
		switch {
		case st.Tok == token.BREAK:
			fl.jump(st.Pos(), ctx.brk)
			return
		case st.Tok == token.CONTINUE && ctx.cont != nil:
			fl.jump(st.Pos(), ctx.cont)
			return
		}
	}
	fl.fail(st.Pos(), "unsupported branch %s", st.Tok)
}

func (fl *funcLowerer) rangeStmt(st *ast.RangeStmt, name string) {
	// The range expression is evaluated once; its length is fixed then.
	idx := fl.temp(lang.IntType)
	xs, i, n := fl.temp(lang.Slice{}).slot, idx.slot, fl.temp(lang.IntType).slot
	x := fl.expr(st.X).any()
	pos := st.X.Pos()
	fl.do(st.Pos(), func(fr *frame) {
		v := x(fr)
		sl, ok := v.([]any)
		if !ok && v != nil {
			fr.in.failf(pos, "range over non-slice %s", formatValue(v))
		}
		fr.s[xs].r, fr.s[i].n, fr.s[n].n = sl, 0, len(sl)
	})
	top, next, end := &label{}, &label{}, &label{}
	fl.place(top)
	fl.jumpUnless(st.Pos(), func(fr *frame) bool { return fr.s[i].n < fr.s[n].n }, end)
	// Key and value are declared afresh each iteration.
	if def := fl.rangeVar(st.Key); def != nil {
		fl.do(st.Key.Pos(), adapt(fl.storeVar(fl.variable(def), fl.load(idx), true)))
	}
	if def := fl.rangeVar(st.Value); def != nil {
		elem := copied(def.Type, expr{a: func(fr *frame) any { return fr.s[xs].r.([]any)[fr.s[i].n] }})
		fl.do(st.Value.Pos(), adapt(fl.storeVar(fl.variable(def), elem, true)))
	}
	fl.loops = append(fl.loops, loopCtx{name: name, brk: end, cont: next})
	fl.block(st.Body.List)
	fl.loops = fl.loops[:len(fl.loops)-1]
	fl.place(next)
	fl.emit(st.Pos(), func(fr *frame) int {
		fr.s[i].n++
		return top.pc
	})
	fl.place(end)
}

// rangeVar resolves a range key or value to its definition (nil for an
// absent or blank one).
func (fl *funcLowerer) rangeVar(e ast.Expr) *lang.VarDef {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return fl.info.VarOf(id)
}

func (fl *funcLowerer) switchStmt(st *ast.SwitchStmt, name string) {
	if st.Init != nil {
		fl.stmt(st.Init, "")
	}
	var tag expr
	var tagType lang.Type
	if st.Tag != nil {
		tagType = fl.info.TypeOf(st.Tag)
		tmp := fl.temp(tagType)
		fl.do(st.Tag.Pos(), adapt(fl.storeVar(tmp, fl.expr(st.Tag), false)))
		tag = fl.load(tmp)
	}
	end := &label{}
	deflt := end
	bodies := make([]*label, len(st.Body.List))
	for i, clause := range st.Body.List {
		cc := clause.(*ast.CaseClause)
		bodies[i] = &label{}
		if cc.List == nil {
			deflt = bodies[i]
		}
		for _, e := range cc.List {
			var match func(*frame) bool
			if st.Tag != nil {
				match = fl.compare(e.Pos(), token.EQL, tagType, tag, fl.expr(e))
			} else {
				match = fl.expr(e).bool()
			}
			body, next := bodies[i], len(fl.c.ins)+1
			fl.emit(e.Pos(), func(fr *frame) int {
				if match(fr) {
					return body.pc
				}
				return next
			})
		}
	}
	fl.jump(st.Pos(), deflt)
	fl.loops = append(fl.loops, loopCtx{name: name, brk: end})
	for i, clause := range st.Body.List {
		fl.place(bodies[i])
		fl.block(clause.(*ast.CaseClause).Body)
		fl.jump(clause.End(), end)
	}
	fl.loops = fl.loops[:len(fl.loops)-1]
	fl.place(end)
}

func (fl *funcLowerer) decl(st *ast.DeclStmt) {
	gd, ok := st.Decl.(*ast.GenDecl)
	if !ok {
		fl.fail(st.Pos(), "unsupported declaration")
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, id := range vs.Names {
			var init ast.Expr
			if i < len(vs.Values) {
				init = vs.Values[i]
			}
			def := fl.info.VarOf(id)
			switch {
			case id.Name == "_" || def == nil:
				if init != nil {
					fl.do(id.Pos(), fl.expr(init).discard())
				}
			case init != nil:
				fl.do(id.Pos(), adapt(fl.storeVar(fl.variable(def), fl.value(init), true)))
			default:
				fl.do(id.Pos(), adapt(fl.storeVar(fl.variable(def), zeroExpr(def.Type), true)))
			}
		}
	}
}

func (fl *funcLowerer) assign(st *ast.AssignStmt) {
	declare := st.Tok == token.DEFINE
	call, _ := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
	var callee *code
	if call != nil && len(st.Rhs) == 1 {
		callee = fl.procedure(call)
	}
	switch {
	case st.Tok != token.DEFINE && st.Tok != token.ASSIGN:
		// go/token declares the op-assign tokens in the order of their operators.
		fl.opAssign(st.Pos(), st.Lhs[0], st.Tok-token.ADD_ASSIGN+token.ADD, func() expr { return fl.expr(st.Rhs[0]) })

	case len(st.Rhs) == 1 && (len(st.Lhs) > 1 || callee != nil):
		// x = f(), a, b = f(): the instruction after the call moves the
		// callee's result slots into the targets.
		if callee == nil || len(callee.results) != len(st.Lhs) {
			fl.fail(st.Pos(), "cannot destructure a single value into %d targets", len(st.Lhs))
			return
		}
		to := fl.targets(st.Lhs, declare)
		fl.invoke(call, callee)
		stores := make([]store, len(st.Lhs))
		for i, r := range callee.results {
			stores[i] = to[i](copied(r.typ, fl.load(r)))
		}
		fl.do(st.Pos(), func(fr *frame) {
			res := fr.in.returned()
			for _, set := range stores {
				set(res, fr)
			}
		})

	case len(st.Lhs) == 1:
		to := fl.target(st.Lhs[0], declare)
		fl.do(st.Pos(), adapt(to(fl.value(st.Rhs[0]))))

	default:
		// Go evaluates every right-hand side before assigning (a, b = b, a).
		to := fl.targets(st.Lhs, declare)
		stores := make([]store, 0, 2*len(st.Lhs))
		temps := make([]*variable, len(st.Rhs))
		for i, rhs := range st.Rhs {
			temps[i] = fl.temp(fl.info.TypeOf(rhs))
			stores = append(stores, fl.storeVar(temps[i], fl.value(rhs), false))
		}
		for i := range st.Lhs {
			stores = append(stores, to[i](fl.load(temps[i])))
		}
		fl.do(st.Pos(), func(fr *frame) {
			for _, set := range stores {
				set(fr, fr)
			}
		})
	}
}

// opAssign lowers lhs = lhs op rhs with lhs located once. rhs is lowered
// after the operands of lhs, so their calls run first.
func (fl *funcLowerer) opAssign(pos token.Pos, lhs ast.Expr, op token.Token, rhs func() expr) {
	t := fl.info.TypeOf(lhs)
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if def := fl.info.VarOf(id); def != nil {
			v := fl.variable(def)
			fl.do(pos, adapt(fl.storeVar(v, fl.binary(pos, op, t, fl.load(v), rhs()), false)))
			return
		}
	}
	// Anything else: hold the location in a temporary, then *tmp = *tmp op rhs.
	loc, at := fl.temp(lang.Pointer{Elem: t}).slot, fl.address(lhs)
	cur := expr{a: func(fr *frame) any { return fr.s[loc].r.(cell).get() }}
	val := fl.binary(pos, op, t, cur, rhs()).any()
	fl.do(pos, func(fr *frame) { fr.s[loc].r = at(fr) })
	fl.do(pos, func(fr *frame) { fr.s[loc].r.(cell).set(val(fr)) })
}

// ---- stores ----

// store evaluates a value in frame src and stores it into a location of
// frame dst. The two differ only when a call binds its arguments or hands
// back its results; adapt turns a store into a same-frame statement.
type store func(src, dst *frame)

func adapt(st store) func(*frame) { return func(fr *frame) { st(fr, fr) } }

// storeVar stores into a variable. declare marks an executing declaration,
// which gives an address-taken variable a fresh cell.
func (fl *funcLowerer) storeVar(v *variable, e expr, declare bool) store {
	k := v.slot
	switch {
	case v.boxed && declare:
		val := e.any()
		return func(src, dst *frame) { dst.s[k].r = &varCell{v: val(src)} }
	case v.boxed:
		val := e.any()
		return func(src, dst *frame) { dst.s[k].r.(*varCell).v = val(src) }
	case v.cls == intClass:
		val := e.int()
		return func(src, dst *frame) { dst.s[k].n = val(src) }
	case v.cls == floatClass:
		val := e.float()
		return func(src, dst *frame) { dst.s[k].n = int(math.Float64bits(val(src))) }
	case v.cls == boolClass:
		val := e.bool()
		return func(src, dst *frame) {
			n := 0
			if val(src) { // evaluated before the slot is touched: ok = !ok
				n = 1
			}
			dst.s[k].n = n
		}
	default:
		val := e.any()
		return func(src, dst *frame) { dst.s[k].r = val(src) }
	}
}

// target lowers the operands of an assignable expression — first, so that
// their calls run before those of the value — and returns the store into
// it of a value lowered after them. The value is evaluated before the
// operands of the target.
func (fl *funcLowerer) target(lhs ast.Expr, declare bool) func(expr) store {
	switch x := lhs.(type) {
	case *ast.ParenExpr:
		return fl.target(x.X, declare)
	case *ast.Ident:
		if x.Name == "_" {
			return func(e expr) store {
				run := e.discard()
				return func(src, _ *frame) { run(src) }
			}
		}
		def := fl.info.VarOf(x)
		if def == nil {
			return fl.badTarget(x.Pos(), "undeclared variable %s", x.Name)
		}
		v := fl.variable(def)
		return func(e expr) store { return fl.storeVar(v, e, declare) }
	case *ast.IndexExpr:
		xs, idx, pos := fl.expr(x.X).any(), fl.expr(x.Index).int(), x.Pos()
		return func(e expr) store {
			val := e.any()
			return func(src, dst *frame) {
				v := val(src)
				sl, i := indexOperands(dst, pos, xs, idx)
				sl[i] = v
			}
		}
	case *ast.SelectorExpr:
		i := fl.fieldIndex(x)
		if i < 0 {
			return fl.badTarget(x.Sel.Pos(), "no field %s", x.Sel.Name)
		}
		sv := fl.structOperand(x.X)
		return func(e expr) store {
			val := e.any()
			return func(src, dst *frame) {
				v := val(src)
				sv(dst).fields[i] = v
			}
		}
	case *ast.StarExpr:
		at := fl.deref(x)
		return func(e expr) store {
			val := e.any()
			return func(src, dst *frame) {
				v := val(src)
				at(dst).set(v)
			}
		}
	}
	return fl.badTarget(lhs.Pos(), "not an assignable expression")
}

// targets lowers the operands of every target of an assignment, in order.
func (fl *funcLowerer) targets(lhs []ast.Expr, declare bool) []func(expr) store {
	to := make([]func(expr) store, len(lhs))
	for i, x := range lhs {
		to[i] = fl.target(x, declare)
	}
	return to
}

func (fl *funcLowerer) badTarget(pos token.Pos, format string, args ...any) func(expr) store {
	return func(expr) store {
		return func(_, dst *frame) { dst.in.failf(pos, format, args...) }
	}
}
