package transform

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"

	"repro/internal/flatten"
	"repro/internal/lang"
)

// hoistUnsafeArgs rewrites every statement-position call to an instrumented
// procedure so that argument expressions whose re-evaluation could fault or
// diverge are computed into fresh locals before the call:
//
//	compute(acc/n, data[i], &r)   becomes   mhArg1 = acc / n
//	                                        mhArg2 = data[i]
//	                                        compute(mhArg1, mhArg2, &r)
//
// Section 3 of the paper observes that repeating the original call during
// restoration can fault, because the restored local state may differ from
// the state at the original call, and substitutes dummy arguments. Hoisting
// is strictly stronger: the temporaries are ordinary locals, so they are
// captured and restored with the frame, and the re-issued call passes the
// *original* argument values.
func hoistUnsafeArgs(prog *lang.Program, info *lang.Info, nodeSet map[string]bool) error {
	for _, name := range prog.FuncOrder {
		if !nodeSet[name] {
			continue
		}
		fn := prog.Funcs[name]
		h := &hoister{prog: prog, info: info, fn: fn, nodeSet: nodeSet, taken: map[string]bool{}}
		for _, v := range info.FuncVars[name] {
			h.taken[v.Name] = true
		}
		if err := h.run(); err != nil {
			return err
		}
	}
	return nil
}

type hoister struct {
	prog    *lang.Program
	info    *lang.Info
	fn      *lang.Func
	nodeSet map[string]bool
	taken   map[string]bool
	tmpN    int
	// newLocals accumulates hoisted temporaries to declare.
	newLocals []flatten.Local
}

func (h *hoister) run() error {
	body := h.fn.Decl.Body
	var out []ast.Stmt
	for _, s := range body.List {
		pre0, repl0, err := h.desugarReturn(s)
		if err != nil {
			return err
		}
		for _, p := range pre0 {
			pre, repl, err := h.stmt(p)
			if err != nil {
				return err
			}
			out = append(out, pre...)
			out = append(out, repl)
		}
		pre, repl, err := h.stmt(repl0)
		if err != nil {
			return err
		}
		out = append(out, pre...)
		out = append(out, repl)
	}

	// Any instrumented call not at statement position is unsupported.
	if err := h.checkNoNestedInstrumentedCalls(out); err != nil {
		return err
	}

	if len(h.newLocals) > 0 {
		specs := make([]ast.Spec, len(h.newLocals))
		for i, l := range h.newLocals {
			specs[i] = &ast.ValueSpec{
				Names: []*ast.Ident{ast.NewIdent(l.Name)},
				Type:  flatten.TypeExpr(l.Type),
			}
		}
		decl := &ast.DeclStmt{Decl: &ast.GenDecl{Tok: token.VAR, Specs: specs}}
		// Place after the existing hoisted declaration group if present.
		if len(out) > 0 {
			if _, ok := out[0].(*ast.DeclStmt); ok {
				out = append([]ast.Stmt{out[0], decl}, out[1:]...)
			} else {
				out = append([]ast.Stmt{decl}, out...)
			}
		} else {
			out = []ast.Stmt{decl}
		}
	}
	body.List = out
	return nil
}

// stmt returns the temp assignments to insert before s and the (possibly
// relabeled) statement, rewriting the instrumented call's arguments in
// place. When a labeled call needs hoisting, the labels move onto the first
// temp assignment so every control path reaching the call computes the
// temps; during restoration the resume goto targets the call directly and
// the temps arrive from the restored frame instead.
func (h *hoister) stmt(s ast.Stmt) ([]ast.Stmt, ast.Stmt, error) {
	labels, inner := unlabel(s)
	call := h.instrumentedCallOf(inner)
	if call == nil {
		return nil, s, nil
	}
	var pre []ast.Stmt
	for i, a := range call.Args {
		if argSafe(a) {
			continue
		}
		t := h.info.TypeOf(a)
		if t == nil {
			return nil, s, h.errf(a, "cannot type argument for hoisting")
		}
		if _, isPtr := t.(lang.Pointer); isPtr {
			return nil, s, h.errf(a, "pointer-valued argument expressions to instrumented calls must be &variable")
		}
		name := h.newTemp(t)
		pre = append(pre, &ast.AssignStmt{
			Lhs: []ast.Expr{ast.NewIdent(name)},
			Tok: token.ASSIGN,
			Rhs: []ast.Expr{a},
		})
		call.Args[i] = ast.NewIdent(name)
	}
	if len(pre) == 0 || len(labels) == 0 {
		return pre, s, nil
	}
	head := pre[0]
	for i := len(labels) - 1; i >= 0; i-- {
		head = &ast.LabeledStmt{Label: ast.NewIdent(labels[i]), Stmt: head}
	}
	pre[0] = head
	return pre, inner, nil
}

// desugarReturn rewrites `return f(args)` — where f is instrumented and is
// the entire returned expression — into `mhRetN... = f(args); return
// mhRetN...`, so the call sits at statement position and can carry its
// resume label. Labels stay on the first emitted statement.
func (h *hoister) desugarReturn(s ast.Stmt) ([]ast.Stmt, ast.Stmt, error) {
	labels, inner := unlabel(s)
	ret, ok := inner.(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return nil, s, nil
	}
	call, ok := ret.Results[0].(*ast.CallExpr)
	if !ok || !h.isInstrumented(call) {
		return nil, s, nil
	}
	callee := h.prog.Funcs[call.Fun.(*ast.Ident).Name]
	if len(callee.Results) == 0 {
		return nil, s, h.errf(call, "instrumented call with no results cannot be a return expression")
	}
	lhs := make([]ast.Expr, len(callee.Results))
	rets := make([]ast.Expr, len(callee.Results))
	for i, rt := range callee.Results {
		name := h.newTemp(rt)
		lhs[i] = ast.NewIdent(name)
		rets[i] = ast.NewIdent(name)
	}
	assign := ast.Stmt(&ast.AssignStmt{Lhs: lhs, Tok: token.ASSIGN, Rhs: []ast.Expr{call}})
	for i := len(labels) - 1; i >= 0; i-- {
		assign = &ast.LabeledStmt{Label: ast.NewIdent(labels[i]), Stmt: assign}
	}
	return []ast.Stmt{assign}, &ast.ReturnStmt{Results: rets}, nil
}

// instrumentedCallOf recognizes the two statement forms an instrumented
// call may take: a call statement, or an assignment whose single RHS is the
// call.
func (h *hoister) instrumentedCallOf(s ast.Stmt) *ast.CallExpr {
	if call := lang.StmtCall(h.prog, s); call != nil && h.isInstrumented(call) {
		return call
	}
	return nil
}

func (h *hoister) isInstrumented(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && h.nodeSet[id.Name]
}

// checkNoNestedInstrumentedCalls rejects instrumented calls in expression
// position: their interruption could not resume by re-executing a whole
// statement.
func (h *hoister) checkNoNestedInstrumentedCalls(body []ast.Stmt) error {
	var err error
	for _, s := range body {
		top := h.instrumentedCallOf(s)
		ast.Inspect(s, func(n ast.Node) bool {
			if err != nil {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok || call == top || !h.isInstrumented(call) {
				return true
			}
			err = h.errf(call, "call to instrumented procedure %s must be a whole statement (call statement or x = f(...))",
				call.Fun.(*ast.Ident).Name)
			return false
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// unlabel splits a statement into its labels, outermost first, and the
// statement under them.
func unlabel(s ast.Stmt) (labels []string, inner ast.Stmt) {
	for {
		ls, ok := s.(*ast.LabeledStmt)
		if !ok {
			return labels, s
		}
		labels = append(labels, ls.Label.Name)
		s = ls.Stmt
	}
}

func (h *hoister) newTemp(t lang.Type) string {
	for {
		h.tmpN++
		name := "mhArg" + strconv.Itoa(h.tmpN)
		if !h.taken[name] {
			h.taken[name] = true
			h.newLocals = append(h.newLocals, flatten.Local{Name: name, Type: t})
			return name
		}
	}
}

func (h *hoister) errf(n ast.Node, format string, args ...any) error {
	pos := h.prog.Fset.Position(n.Pos())
	return fmt.Errorf("transform: %s: %s", pos, fmt.Sprintf(format, args...))
}

// argSafe reports whether re-evaluating the expression during restoration
// is guaranteed to neither fault nor diverge: identifiers, literals, &ident,
// *ident, and fault-free arithmetic (+, -, *, comparisons, !) over safe
// operands. Division, modulo, shifts, indexing and calls can fault or
// diverge, so they are hoisted — the paper's "expressions whose evaluation
// could result in a run-time error".
func argSafe(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident, *ast.BasicLit:
		return true
	case *ast.ParenExpr:
		return argSafe(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND || x.Op == token.SUB || x.Op == token.ADD || x.Op == token.NOT {
			return argSafe(x.X)
		}
		return false
	case *ast.BinaryExpr:
		switch x.Op {
		case token.ADD, token.SUB, token.MUL,
			token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			return argSafe(x.X) && argSafe(x.Y)
		default:
			return false
		}
	case *ast.StarExpr:
		_, ok := x.X.(*ast.Ident)
		return ok
	default:
		return false
	}
}
