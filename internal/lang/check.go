package lang

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"
	"strings"

	"repro/internal/state"
)

// Tuple is the type of a multi-value function result. It appears only as
// the momentary type of a call consumed by a multi-assignment or return.
type Tuple struct{ Elems []Type }

// String implements Type.
func (t Tuple) String() string {
	parts := make([]string, len(t.Elems))
	for i, e := range t.Elems {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Equal implements Type.
func (t Tuple) Equal(o Type) bool {
	ot, ok := o.(Tuple)
	if !ok || len(ot.Elems) != len(t.Elems) {
		return false
	}
	for i := range t.Elems {
		if !t.Elems[i].Equal(ot.Elems[i]) {
			return false
		}
	}
	return true
}

// Kind implements Type. Tuples never enter the abstract state.
func (t Tuple) Kind() state.Kind { return state.KindInvalid }

// Point is a reconfiguration point found in the source: a statement of the
// form mh.ReconfigPoint("R"). The paper's programmer "inserts a label R
// into the source code"; a bare Go label would be rejected by the compiler
// as unused, so the module language marks points with this no-op call,
// which the transform replaces with the capture block and label.
type Point struct {
	Label string
	Func  string
	Call  *ast.CallExpr // the marker call
	Stmt  *ast.ExprStmt // the statement wrapping it
}

// Info is the checker's output: types, definitions and uses, per-function
// variables, labels, and reconfiguration points.
type Info struct {
	Types    map[ast.Expr]Type
	Defs     map[*ast.Ident]*VarDef
	Uses     map[*ast.Ident]*VarDef
	FuncVars map[string][]*VarDef // params then locals, in declaration order
	Labels   map[string][]string
	Points   []Point
}

// TypeOf returns the recorded type of an expression, or nil.
func (i *Info) TypeOf(e ast.Expr) Type { return i.Types[e] }

// VarOf resolves an identifier to its variable definition (def or use).
func (i *Info) VarOf(id *ast.Ident) *VarDef {
	if d, ok := i.Defs[id]; ok {
		return d
	}
	return i.Uses[id]
}

// Check type-checks a module program against the subset rules and returns
// the collected information. All violations are reported together.
func Check(p *Program) (*Info, error) {
	c := &checker{
		prog: p,
		info: &Info{
			Types:    map[ast.Expr]Type{},
			Defs:     map[*ast.Ident]*VarDef{},
			Uses:     map[*ast.Ident]*VarDef{},
			FuncVars: map[string][]*VarDef{},
			Labels:   map[string][]string{},
		},
	}
	for _, name := range p.FuncOrder {
		c.checkFunc(p.Funcs[name])
	}
	c.checkPointLabels()
	if len(c.errs) > 0 {
		return nil, c.errs
	}
	return c.info, nil
}

// MHName is the identifier module programs use for the participation
// runtime (mh.Read, mh.Write, ...).
const MHName = "mh"

type checker struct {
	prog *Program
	info *Info
	errs ErrorList

	fn     *Func
	scopes []map[string]*VarDef
	labels map[string]bool
	loops  int
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	c.errs = append(c.errs, &Error{Pos: c.prog.Fset.Position(pos), Msg: fmt.Sprintf(format, args...)})
}

func (c *checker) push() { c.scopes = append(c.scopes, map[string]*VarDef{}) }
func (c *checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }
func (c *checker) top() map[string]*VarDef {
	return c.scopes[len(c.scopes)-1]
}

func (c *checker) lookup(name string) *VarDef {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if d, ok := c.scopes[i][name]; ok {
			return d
		}
	}
	return nil
}

func (c *checker) declare(id *ast.Ident, t Type, isParam bool) *VarDef {
	if id.Name == MHName {
		c.errorf(id.Pos(), "%s is reserved for the participation runtime", MHName)
	}
	if id.Name == "_" {
		d := &VarDef{Name: "_", Type: t, Ident: id}
		c.info.Defs[id] = d
		return d
	}
	if _, dup := c.top()[id.Name]; dup {
		c.errorf(id.Pos(), "%s redeclared in this block", id.Name)
	}
	d := &VarDef{Name: id.Name, Type: t, IsParam: isParam, Ident: id}
	c.top()[id.Name] = d
	c.info.Defs[id] = d
	c.info.FuncVars[c.fn.Name] = append(c.info.FuncVars[c.fn.Name], d)
	return d
}

func (c *checker) checkFunc(fn *Func) {
	c.fn = fn
	c.scopes = nil
	c.labels = map[string]bool{}
	c.loops = 0
	c.push()
	defer c.pop()

	// Pre-collect labels so forward gotos resolve.
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch l := n.(type) {
		case *ast.LabeledStmt:
			if c.labels[l.Label.Name] {
				c.errorf(l.Pos(), "label %s redeclared", l.Label.Name)
			}
			c.labels[l.Label.Name] = true
			c.info.Labels[fn.Name] = append(c.info.Labels[fn.Name], l.Label.Name)
		case *ast.FuncLit:
			return false
		}
		return true
	})

	for _, p := range fn.Params {
		if _, dup := c.top()[p.Name]; dup {
			c.errorf(p.Ident.Pos(), "parameter %s redeclared", p.Name)
			continue
		}
		c.top()[p.Name] = p
		c.info.Defs[p.Ident] = p
		c.info.FuncVars[fn.Name] = append(c.info.FuncVars[fn.Name], p)
	}
	c.checkBlock(fn.Decl.Body)
}

func (c *checker) checkBlock(b *ast.BlockStmt) {
	c.push()
	for _, s := range b.List {
		c.checkStmt(s)
	}
	c.pop()
}

func (c *checker) checkStmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.DeclStmt:
		c.checkDecl(st)
	case *ast.AssignStmt:
		c.checkAssign(st)
	case *ast.IncDecStmt:
		t := c.checkExpr(st.X, nil)
		if !isNumeric(t) {
			c.errorf(st.Pos(), "%s requires a numeric operand, got %s", st.Tok, typeName(t))
		}
		c.requireLvalue(st.X)
	case *ast.ExprStmt:
		call, ok := st.X.(*ast.CallExpr)
		if !ok {
			c.errorf(st.Pos(), "expression statement must be a call")
			return
		}
		c.checkCall(call, true)
		if label, ok := reconfigPointLabel(call); ok {
			c.info.Points = append(c.info.Points, Point{Label: label, Func: c.fn.Name, Call: call, Stmt: st})
		}
	case *ast.IfStmt:
		c.push()
		if st.Init != nil {
			c.checkStmt(st.Init)
		}
		c.requireBool(st.Cond)
		c.checkBlock(st.Body)
		if st.Else != nil {
			c.checkStmt(st.Else)
		}
		c.pop()
	case *ast.ForStmt:
		c.push()
		if st.Init != nil {
			c.checkStmt(st.Init)
		}
		if st.Cond != nil {
			c.requireBool(st.Cond)
		}
		if st.Post != nil {
			c.checkStmt(st.Post)
		}
		c.loops++
		c.checkBlock(st.Body)
		c.loops--
		c.pop()
	case *ast.RangeStmt:
		c.checkRange(st)
	case *ast.SwitchStmt:
		c.checkSwitch(st)
	case *ast.BranchStmt:
		c.checkBranch(st)
	case *ast.LabeledStmt:
		c.checkStmt(st.Stmt)
	case *ast.ReturnStmt:
		c.checkReturn(st)
	case *ast.BlockStmt:
		c.checkBlock(st)
	case *ast.EmptyStmt:
	default:
		c.errorf(s.Pos(), "statement %T is not in the module subset (no go/defer/select/channels/maps)", s)
	}
}

func (c *checker) checkDecl(st *ast.DeclStmt) {
	gd, ok := st.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		c.errorf(st.Pos(), "only var declarations are allowed inside functions")
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		var declared Type
		if vs.Type != nil {
			t, err := c.prog.ResolveType(vs.Type)
			if err != nil {
				c.errs = append(c.errs, err.(*Error))
				continue
			}
			declared = t
		}
		if len(vs.Values) == 0 {
			if declared == nil {
				c.errorf(vs.Pos(), "var declaration needs a type or initializer")
				continue
			}
			for _, id := range vs.Names {
				c.declare(id, declared, false)
			}
			continue
		}
		if len(vs.Values) != len(vs.Names) {
			c.errorf(vs.Pos(), "var declaration arity mismatch (tuple initialization is only allowed with :=)")
			continue
		}
		for i, id := range vs.Names {
			vt := c.checkExpr(vs.Values[i], declared)
			if declared != nil {
				if vt != nil && !assignable(vt, declared) {
					c.errorf(vs.Values[i].Pos(), "cannot initialize %s (%s) with %s", id.Name, declared, typeName(vt))
				}
				c.declare(id, declared, false)
			} else {
				if vt == nil {
					continue
				}
				c.declare(id, vt, false)
			}
		}
	}
}

func (c *checker) checkAssign(st *ast.AssignStmt) {
	switch st.Tok {
	case token.DEFINE:
		// Multi-value form: a, b := f().
		if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
			rt := c.checkExpr(st.Rhs[0], nil)
			tup, ok := rt.(Tuple)
			if !ok || len(tup.Elems) != len(st.Lhs) {
				c.errorf(st.Pos(), "cannot destructure %s into %d variables", typeName(rt), len(st.Lhs))
				return
			}
			for i, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					c.errorf(lhs.Pos(), ":= target must be an identifier")
					continue
				}
				c.declare(id, tup.Elems[i], false)
			}
			return
		}
		if len(st.Lhs) != len(st.Rhs) {
			c.errorf(st.Pos(), ":= arity mismatch")
			return
		}
		for i, lhs := range st.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				c.errorf(lhs.Pos(), ":= target must be an identifier")
				continue
			}
			t := c.checkExpr(st.Rhs[i], nil)
			if t == nil {
				continue
			}
			if _, isTuple := t.(Tuple); isTuple {
				c.errorf(st.Rhs[i].Pos(), "multi-value call in single assignment")
				continue
			}
			c.declare(id, t, false)
		}
	case token.ASSIGN:
		if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
			rt := c.checkExpr(st.Rhs[0], nil)
			tup, ok := rt.(Tuple)
			if !ok || len(tup.Elems) != len(st.Lhs) {
				c.errorf(st.Pos(), "cannot assign %s to %d targets", typeName(rt), len(st.Lhs))
				return
			}
			for i, lhs := range st.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
					continue
				}
				lt := c.checkExpr(lhs, nil)
				c.requireLvalue(lhs)
				if lt != nil && !assignable(tup.Elems[i], lt) {
					c.errorf(lhs.Pos(), "cannot assign %s to %s", tup.Elems[i], lt)
				}
			}
			return
		}
		if len(st.Lhs) != len(st.Rhs) {
			c.errorf(st.Pos(), "assignment arity mismatch")
			return
		}
		for i, lhs := range st.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
				// Discard assignment: only the RHS is checked.
				c.checkExpr(st.Rhs[i], nil)
				continue
			}
			lt := c.checkExpr(lhs, nil)
			c.requireLvalue(lhs)
			rt := c.checkExpr(st.Rhs[i], lt)
			if lt != nil && rt != nil && !assignable(rt, lt) {
				c.errorf(st.Rhs[i].Pos(), "cannot assign %s to %s", rt, lt)
			}
		}
	default: // op-assign: +=, -=, ...
		if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
			c.errorf(st.Pos(), "compound assignment must have one operand")
			return
		}
		lt := c.checkExpr(st.Lhs[0], nil)
		c.requireLvalue(st.Lhs[0])
		rt := c.checkExpr(st.Rhs[0], lt)
		if lt == nil || rt == nil {
			return
		}
		if !assignable(rt, lt) {
			c.errorf(st.Pos(), "invalid %s: %s and %s", st.Tok, lt, rt)
			return
		}
		op := assignOpToBinary(st.Tok)
		if !binaryDefined(op, lt) {
			c.errorf(st.Pos(), "operator %s not defined on %s", op, lt)
		}
	}
}

func (c *checker) checkRange(st *ast.RangeStmt) {
	c.push()
	defer c.pop()
	if st.Tok == token.ASSIGN {
		c.errorf(st.Pos(), "range with = is not in the subset; use :=")
		return
	}
	rt := c.checkExpr(st.X, nil)
	sl, ok := rt.(Slice)
	if !ok {
		c.errorf(st.X.Pos(), "range requires a slice, got %s", typeName(rt))
		return
	}
	if st.Key != nil {
		id, ok := st.Key.(*ast.Ident)
		if !ok {
			c.errorf(st.Key.Pos(), "range key must be an identifier")
			return
		}
		c.declare(id, IntType, false)
	}
	if st.Value != nil {
		id, ok := st.Value.(*ast.Ident)
		if !ok {
			c.errorf(st.Value.Pos(), "range value must be an identifier")
			return
		}
		c.declare(id, sl.Elem, false)
	}
	c.loops++
	c.checkBlock(st.Body)
	c.loops--
}

func (c *checker) checkSwitch(st *ast.SwitchStmt) {
	c.push()
	defer c.pop()
	if st.Init != nil {
		c.checkStmt(st.Init)
	}
	var tagType Type
	if st.Tag != nil {
		tagType = c.checkExpr(st.Tag, nil)
		if tagType != nil && !isComparable(tagType) {
			c.errorf(st.Tag.Pos(), "switch tag must be a comparable basic type, got %s", tagType)
		}
	}
	seenDefault := false
	c.loops++ // switch is breakable
	for _, clause := range st.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			c.errorf(clause.Pos(), "malformed switch clause")
			continue
		}
		if cc.List == nil {
			if seenDefault {
				c.errorf(cc.Pos(), "duplicate default case")
			}
			seenDefault = true
		}
		for _, e := range cc.List {
			if st.Tag != nil {
				et := c.checkExpr(e, tagType)
				if et != nil && tagType != nil && !assignable(et, tagType) {
					c.errorf(e.Pos(), "case type %s does not match switch tag %s", et, tagType)
				}
			} else {
				c.requireBool(e)
			}
		}
		c.push()
		for _, s := range cc.Body {
			if br, ok := s.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				c.errorf(s.Pos(), "fallthrough is not in the module subset")
				continue
			}
			c.checkStmt(s)
		}
		c.pop()
	}
	c.loops--
}

func (c *checker) checkBranch(st *ast.BranchStmt) {
	switch st.Tok {
	case token.GOTO:
		if st.Label == nil || !c.labels[st.Label.Name] {
			c.errorf(st.Pos(), "goto to undeclared label")
		}
	case token.BREAK, token.CONTINUE:
		if st.Label != nil && !c.labels[st.Label.Name] {
			c.errorf(st.Pos(), "%s to undeclared label %s", st.Tok, st.Label.Name)
		}
		if c.loops == 0 {
			c.errorf(st.Pos(), "%s outside loop or switch", st.Tok)
		}
	case token.FALLTHROUGH:
		c.errorf(st.Pos(), "fallthrough is not in the module subset")
	}
}

func (c *checker) checkReturn(st *ast.ReturnStmt) {
	want := c.fn.Results
	if len(st.Results) == 0 {
		if len(want) != 0 {
			c.errorf(st.Pos(), "function %s must return %d values", c.fn.Name, len(want))
		}
		return
	}
	if len(st.Results) != len(want) {
		c.errorf(st.Pos(), "function %s returns %d values, want %d", c.fn.Name, len(st.Results), len(want))
		return
	}
	for i, e := range st.Results {
		t := c.checkExpr(e, want[i])
		if t != nil && !assignable(t, want[i]) {
			c.errorf(e.Pos(), "cannot return %s as %s", t, want[i])
		}
	}
}

func (c *checker) requireBool(e ast.Expr) {
	t := c.checkExpr(e, BoolType)
	if t != nil && !t.Equal(BoolType) {
		c.errorf(e.Pos(), "condition must be bool, got %s", t)
	}
}

func (c *checker) requireLvalue(e ast.Expr) {
	switch x := e.(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return
		}
		if c.lookup(x.Name) == nil {
			// already reported by checkExpr
		}
	case *ast.StarExpr, *ast.IndexExpr:
	case *ast.SelectorExpr:
		c.requireLvalue(x.X)
	case *ast.ParenExpr:
		c.requireLvalue(x.X)
	default:
		c.errorf(e.Pos(), "not an assignable expression")
	}
}

// checkExpr type-checks e and records its type. hint propagates the
// expected type into untyped numeric literals (so `f + 1` works with f
// float64, matching Go's untyped constants).
func (c *checker) checkExpr(e ast.Expr, hint Type) Type {
	t := c.exprType(e, hint)
	if t != nil {
		c.info.Types[e] = t
	}
	return t
}

func (c *checker) exprType(e ast.Expr, hint Type) Type {
	switch x := e.(type) {
	case *ast.BasicLit:
		return c.litType(x, hint)
	case *ast.Ident:
		switch x.Name {
		case "true", "false":
			return BoolType
		case "_":
			c.errorf(x.Pos(), "cannot use _ as a value")
			return nil
		case MHName:
			c.errorf(x.Pos(), "mh may only be used as mh.<primitive>(...)")
			return nil
		}
		d := c.lookup(x.Name)
		if d == nil {
			c.errorf(x.Pos(), "undeclared variable %s", x.Name)
			return nil
		}
		c.info.Uses[x] = d
		return d.Type
	case *ast.ParenExpr:
		return c.checkExpr(x.X, hint)
	case *ast.UnaryExpr:
		return c.unaryType(x, hint)
	case *ast.BinaryExpr:
		return c.binaryType(x, hint)
	case *ast.CallExpr:
		return c.checkCall(x, false)
	case *ast.IndexExpr:
		xt := c.checkExpr(x.X, nil)
		c.intIndex(x.Index)
		switch tt := xt.(type) {
		case Slice:
			return tt.Elem
		case nil:
			return nil
		default:
			c.errorf(x.Pos(), "cannot index %s", xt)
			return nil
		}
	case *ast.SliceExpr:
		if x.Slice3 {
			c.errorf(x.Pos(), "3-index slices are not in the subset")
			return nil
		}
		xt := c.checkExpr(x.X, nil)
		if x.Low != nil {
			c.intIndex(x.Low)
		}
		if x.High != nil {
			c.intIndex(x.High)
		}
		switch xt.(type) {
		case Slice:
			return xt
		case Basic:
			if xt.Equal(StringType) {
				return StringType
			}
		case nil:
			return nil
		}
		c.errorf(x.Pos(), "cannot slice %s", xt)
		return nil
	case *ast.StarExpr:
		xt := c.checkExpr(x.X, nil)
		pt, ok := xt.(Pointer)
		if !ok {
			if xt != nil {
				c.errorf(x.Pos(), "cannot dereference %s", xt)
			}
			return nil
		}
		return pt.Elem
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok && id.Name == MHName {
			c.errorf(x.Pos(), "mh primitives must be called")
			return nil
		}
		xt := c.checkExpr(x.X, nil)
		if xt == nil {
			return nil
		}
		// Auto-deref one pointer level, like Go.
		if pt, ok := xt.(Pointer); ok {
			xt = pt.Elem
		}
		st, ok := xt.(*Struct)
		if !ok {
			c.errorf(x.Pos(), "%s has no fields", xt)
			return nil
		}
		ft := st.Field(x.Sel.Name)
		if ft == nil {
			c.errorf(x.Sel.Pos(), "%s has no field %s", st.Name, x.Sel.Name)
			return nil
		}
		return ft
	case *ast.CompositeLit:
		return c.compositeType(x)
	default:
		c.errorf(e.Pos(), "expression %T is not in the module subset", e)
		return nil
	}
}

func (c *checker) litType(lit *ast.BasicLit, hint Type) Type {
	switch lit.Kind {
	case token.INT:
		if hint != nil && hint.Equal(FloatType) {
			return FloatType
		}
		if _, err := strconv.ParseInt(lit.Value, 0, 64); err != nil {
			c.errorf(lit.Pos(), "integer literal out of range: %s", lit.Value)
			return nil
		}
		return IntType
	case token.FLOAT:
		return FloatType
	case token.STRING:
		if _, err := strconv.Unquote(lit.Value); err != nil {
			c.errorf(lit.Pos(), "bad string literal")
			return nil
		}
		return StringType
	default:
		c.errorf(lit.Pos(), "%s literals are not in the subset", lit.Kind)
		return nil
	}
}

func (c *checker) unaryType(x *ast.UnaryExpr, hint Type) Type {
	switch x.Op {
	case token.SUB, token.ADD:
		t := c.checkExpr(x.X, hint)
		if t != nil && !isNumeric(t) {
			c.errorf(x.Pos(), "operator %s requires a numeric operand", x.Op)
			return nil
		}
		return t
	case token.NOT:
		t := c.checkExpr(x.X, BoolType)
		if t != nil && !t.Equal(BoolType) {
			c.errorf(x.Pos(), "operator ! requires bool")
			return nil
		}
		return BoolType
	case token.AND:
		t := c.checkExpr(x.X, nil)
		if t == nil {
			return nil
		}
		c.requireLvalue(x.X)
		if _, nested := t.(Pointer); nested {
			c.errorf(x.Pos(), "pointer-to-pointer values are not in the subset")
			return nil
		}
		return Pointer{Elem: t}
	default:
		c.errorf(x.Pos(), "unary operator %s is not in the subset", x.Op)
		return nil
	}
}

func (c *checker) binaryType(x *ast.BinaryExpr, hint Type) Type {
	// Type the non-literal side first so untyped literals can adopt it.
	var lt, rt Type
	operandHint := hint
	if isComparison(x.Op) || x.Op == token.LAND || x.Op == token.LOR {
		operandHint = nil
	}
	if isUntypedNumLit(x.X) && !isUntypedNumLit(x.Y) {
		rt = c.checkExpr(x.Y, operandHint)
		lt = c.checkExpr(x.X, rt)
	} else {
		lt = c.checkExpr(x.X, operandHint)
		h := operandHint
		if lt != nil {
			h = lt
		}
		rt = c.checkExpr(x.Y, h)
	}
	if lt == nil || rt == nil {
		return nil
	}
	switch x.Op {
	case token.LAND, token.LOR:
		if !lt.Equal(BoolType) || !rt.Equal(BoolType) {
			c.errorf(x.Pos(), "operator %s requires bool operands", x.Op)
			return nil
		}
		return BoolType
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		if !lt.Equal(rt) {
			c.errorf(x.Pos(), "comparison of mismatched types %s and %s", lt, rt)
			return nil
		}
		if !isComparable(lt) {
			c.errorf(x.Pos(), "%s is not comparable", lt)
			return nil
		}
		if (x.Op != token.EQL && x.Op != token.NEQ) && lt.Equal(BoolType) {
			c.errorf(x.Pos(), "bool supports only == and !=")
			return nil
		}
		return BoolType
	default:
		if !lt.Equal(rt) {
			c.errorf(x.Pos(), "operator %s on mismatched types %s and %s", x.Op, lt, rt)
			return nil
		}
		if !binaryDefined(x.Op, lt) {
			c.errorf(x.Pos(), "operator %s not defined on %s", x.Op, lt)
			return nil
		}
		return lt
	}
}

func (c *checker) compositeType(x *ast.CompositeLit) Type {
	if x.Type == nil {
		c.errorf(x.Pos(), "composite literal needs an explicit type")
		return nil
	}
	t, err := c.prog.ResolveType(x.Type)
	if err != nil {
		c.errs = append(c.errs, err.(*Error))
		return nil
	}
	switch tt := t.(type) {
	case Slice:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				c.errorf(kv.Pos(), "keyed slice literals are not in the subset")
				continue
			}
			et := c.checkExpr(el, tt.Elem)
			if et != nil && !assignable(et, tt.Elem) {
				c.errorf(el.Pos(), "slice element %s is not %s", et, tt.Elem)
			}
		}
		return tt
	case *Struct:
		keyed := len(x.Elts) > 0
		if len(x.Elts) > 0 {
			_, keyed = x.Elts[0].(*ast.KeyValueExpr)
		}
		if keyed {
			for _, el := range x.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					c.errorf(el.Pos(), "mixed keyed and positional struct literal")
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					c.errorf(kv.Pos(), "struct literal key must be a field name")
					continue
				}
				ft := tt.Field(key.Name)
				if ft == nil {
					c.errorf(kv.Pos(), "%s has no field %s", tt.Name, key.Name)
					continue
				}
				vt := c.checkExpr(kv.Value, ft)
				if vt != nil && !assignable(vt, ft) {
					c.errorf(kv.Value.Pos(), "field %s: %s is not %s", key.Name, vt, ft)
				}
			}
		} else if len(x.Elts) > 0 {
			if len(x.Elts) != len(tt.Fields) {
				c.errorf(x.Pos(), "%s literal needs %d values", tt.Name, len(tt.Fields))
				return tt
			}
			for i, el := range x.Elts {
				vt := c.checkExpr(el, tt.Fields[i].Type)
				if vt != nil && !assignable(vt, tt.Fields[i].Type) {
					c.errorf(el.Pos(), "field %s: %s is not %s", tt.Fields[i].Name, vt, tt.Fields[i].Type)
				}
			}
		}
		return tt
	default:
		c.errorf(x.Pos(), "composite literal of %s is not in the subset", t)
		return nil
	}
}

func (c *checker) intIndex(e ast.Expr) {
	t := c.checkExpr(e, IntType)
	if t != nil && !t.Equal(IntType) {
		c.errorf(e.Pos(), "index must be int, got %s", t)
	}
}

func isComparison(op token.Token) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return true
	}
	return false
}

func isUntypedNumLit(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.BasicLit:
		return x.Kind == token.INT || x.Kind == token.FLOAT
	case *ast.ParenExpr:
		return isUntypedNumLit(x.X)
	case *ast.UnaryExpr:
		return (x.Op == token.SUB || x.Op == token.ADD) && isUntypedNumLit(x.X)
	}
	return false
}

func isNumeric(t Type) bool {
	b, ok := t.(Basic)
	return ok && (b.B == Int || b.B == Float64)
}

func isComparable(t Type) bool {
	_, ok := t.(Basic)
	return ok
}

func assignable(from, to Type) bool {
	if from == nil || to == nil {
		return false
	}
	return from.Equal(to)
}

func binaryDefined(op token.Token, t Type) bool {
	b, ok := t.(Basic)
	if !ok {
		return false
	}
	switch op {
	case token.ADD:
		return b.B == Int || b.B == Float64 || b.B == String
	case token.SUB, token.MUL, token.QUO:
		return b.B == Int || b.B == Float64
	case token.REM, token.AND, token.OR, token.XOR, token.SHL, token.SHR, token.AND_NOT:
		return b.B == Int
	default:
		return false
	}
}

func assignOpToBinary(tok token.Token) token.Token {
	switch tok {
	case token.ADD_ASSIGN:
		return token.ADD
	case token.SUB_ASSIGN:
		return token.SUB
	case token.MUL_ASSIGN:
		return token.MUL
	case token.QUO_ASSIGN:
		return token.QUO
	case token.REM_ASSIGN:
		return token.REM
	case token.AND_ASSIGN:
		return token.AND
	case token.OR_ASSIGN:
		return token.OR
	case token.XOR_ASSIGN:
		return token.XOR
	case token.SHL_ASSIGN:
		return token.SHL
	case token.SHR_ASSIGN:
		return token.SHR
	case token.AND_NOT_ASSIGN:
		return token.AND_NOT
	default:
		return token.ILLEGAL
	}
}

func typeName(t Type) string {
	if t == nil {
		return "<error>"
	}
	return t.String()
}

// reconfigPointLabel recognizes the marker call mh.ReconfigPoint("R").
func reconfigPointLabel(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "ReconfigPoint" {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != MHName {
		return "", false
	}
	if len(call.Args) != 1 {
		return "", false
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	label, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return label, true
}

func (c *checker) checkPointLabels() {
	seen := map[string]*Point{}
	for i := range c.info.Points {
		pt := &c.info.Points[i]
		if pt.Label == "" {
			c.errorf(pt.Call.Pos(), "reconfiguration point with empty label")
			continue
		}
		if prev, dup := seen[pt.Label]; dup {
			c.errorf(pt.Call.Pos(), "reconfiguration point %s already declared in %s", pt.Label, prev.Func)
			continue
		}
		seen[pt.Label] = pt
	}
}
