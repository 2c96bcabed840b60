package archlint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotpathPass enforces AL007: functions annotated //archlint:hotpath stay
// free of allocating constructs. This is the static complement of the
// allocs/msg=0 benchmark artifacts: the benchmarks prove the paths were
// allocation-free at measurement time, the annotation keeps them that way.
//
// Flagged constructs: closures capturing enclosing variables, explicit and
// implicit interface conversions (calls, assignments, returns), any call
// into fmt, make/new, the address of a composite literal, append except the
// amortized self-append form x = append(x, ...), non-constant string
// concatenation, and string<->[]byte/[]rune conversions. The check is
// intra-procedural by contract: cold branches belong in separate,
// unannotated helpers.
func (a *analysis) hotpathPass() {
	for _, p := range a.checked() {
		for _, fd := range funcDecls(p) {
			if isHotpath(fd) {
				a.checkHotpath(p, fd)
			}
		}
	}
}

func (a *analysis) checkHotpath(p *pkg, fd *ast.FuncDecl) {
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch x := n.(type) {
		case *ast.FuncLit:
			if capt := capturedVar(p, fd, x); capt != "" {
				a.diag(CodeHotpathAlloc, x.Pos(),
					"closure capturing %q allocates in hot path %s", capt, fd.Name.Name)
			}
		case *ast.CallExpr:
			a.checkHotpathCall(p, fd, x, stack)
		case *ast.UnaryExpr:
			if _, lit := ast.Unparen(x.X).(*ast.CompositeLit); lit && x.Op == token.AND {
				a.diag(CodeHotpathAlloc, x.Pos(),
					"&composite literal allocates in hot path %s", fd.Name.Name)
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(p, x) && p.info.Types[x].Value == nil {
				a.diag(CodeHotpathAlloc, x.OpPos,
					"string concatenation allocates in hot path %s", fd.Name.Name)
			}
		case *ast.AssignStmt:
			if x.Tok == token.ASSIGN && len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					if tv, ok := p.info.Types[x.Lhs[i]]; ok {
						a.checkIfaceConv(p, fd, tv.Type, x.Rhs[i])
					}
				}
			}
		case *ast.ValueSpec:
			if x.Type != nil {
				if tv, ok := p.info.Types[x.Type]; ok {
					for _, v := range x.Values {
						a.checkIfaceConv(p, fd, tv.Type, v)
					}
				}
			}
		case *ast.ReturnStmt:
			a.checkHotpathReturn(p, fd, x)
		}
		return true
	})
}

// capturedVar returns the name of a variable the literal captures from the
// enclosing function, or "". Captures force the closure (and often the
// captured variables) to escape to the heap.
func capturedVar(p *pkg, fd *ast.FuncDecl, lit *ast.FuncLit) string {
	found := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		pos := v.Pos()
		if pos >= fd.Pos() && pos < fd.End() && (pos < lit.Pos() || pos >= lit.End()) {
			found = v.Name()
		}
		return true
	})
	return found
}

func isStringType(p *pkg, e ast.Expr) bool {
	tv, ok := p.info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// checkIfaceConv flags a concrete (non-nil) value converted into an
// interface-typed slot.
func (a *analysis) checkIfaceConv(p *pkg, fd *ast.FuncDecl, dst types.Type, src ast.Expr) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	tv, ok := p.info.Types[src]
	if !ok || tv.IsNil() || tv.Type == nil || types.IsInterface(tv.Type) {
		return
	}
	a.diag(CodeHotpathAlloc, src.Pos(),
		"interface conversion (%s to %s) allocates in hot path %s",
		types.TypeString(tv.Type, nil), types.TypeString(dst, nil), fd.Name.Name)
}

func (a *analysis) checkHotpathReturn(p *pkg, fd *ast.FuncDecl, ret *ast.ReturnStmt) {
	if fd.Type.Results == nil || len(ret.Results) == 0 {
		return
	}
	var resTypes []types.Type
	for _, field := range fd.Type.Results.List {
		tv, ok := p.info.Types[field.Type]
		if !ok {
			return
		}
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for j := 0; j < n; j++ {
			resTypes = append(resTypes, tv.Type)
		}
	}
	if len(ret.Results) != len(resTypes) {
		return // multi-value call forwarding: types already match
	}
	for i, r := range ret.Results {
		a.checkIfaceConv(p, fd, resTypes[i], r)
	}
}

func (a *analysis) checkHotpathCall(p *pkg, fd *ast.FuncDecl, call *ast.CallExpr, stack []ast.Node) {
	fun := ast.Unparen(call.Fun)

	// Builtins: make and new allocate; append is allowed only in the
	// amortized self-append form x = append(x, ...).
	if id, ok := fun.(*ast.Ident); ok {
		if _, ok := p.info.Uses[id].(*types.Builtin); ok {
			switch id.Name {
			case "make", "new":
				a.diag(CodeHotpathAlloc, call.Pos(), "%s allocates in hot path %s", id.Name, fd.Name.Name)
			case "append":
				if !isSelfAppend(call, stack) {
					a.diag(CodeHotpathAlloc, call.Pos(),
						"append outside the amortized x = append(x, ...) form allocates in hot path %s", fd.Name.Name)
				}
			}
			return
		}
	}

	// Conversions: interface targets and string<->byte/rune-slice copies.
	if tv, ok := p.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) != 1 {
			return
		}
		dst := tv.Type
		if types.IsInterface(dst) {
			a.checkIfaceConv(p, fd, dst, call.Args[0])
			return
		}
		if stringByteConv(p, dst, call.Args[0]) {
			a.diag(CodeHotpathAlloc, call.Pos(),
				"string/byte-slice conversion copies in hot path %s", fd.Name.Name)
		}
		return
	}

	// Calls into fmt are formatting, reflection and allocation all at once.
	if fn := calleeFunc(p, call); fn != nil && pkgPathOf(fn) == "fmt" {
		a.diag(CodeHotpathAlloc, call.Pos(),
			"call into fmt (%s) allocates in hot path %s; extract the cold branch into an unannotated helper", fn.Name(), fd.Name.Name)
		return
	}

	// Implicit interface conversions at the call boundary.
	sig, ok := funcSig(p, call)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				continue // the slice is passed through, no per-element conversion
			}
			pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		a.checkIfaceConv(p, fd, pt, arg)
	}
}

// funcSig resolves the signature a call invokes, for ordinary and
// method calls alike.
func funcSig(p *pkg, call *ast.CallExpr) (*types.Signature, bool) {
	tv, ok := p.info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil, false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	return sig, ok
}

// isSelfAppend reports whether call (a builtin append) appears as
// x = append(x, ...) with a structurally identical left-hand side.
func isSelfAppend(call *ast.CallExpr, stack []ast.Node) bool {
	if len(call.Args) == 0 || len(stack) < 2 {
		return false
	}
	asg, ok := stack[len(stack)-2].(*ast.AssignStmt)
	if !ok || asg.Tok != token.ASSIGN || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 || asg.Rhs[0] != call {
		return false
	}
	return types.ExprString(asg.Lhs[0]) == types.ExprString(call.Args[0])
}

// stringByteConv reports a conversion between string and []byte/[]rune.
func stringByteConv(p *pkg, dst types.Type, arg ast.Expr) bool {
	tv, ok := p.info.Types[arg]
	if !ok || tv.Type == nil {
		return false
	}
	// Constant string conversions are folded at compile time.
	if tv.Value != nil {
		return false
	}
	return (isString(dst) && isByteOrRuneSlice(tv.Type)) ||
		(isByteOrRuneSlice(dst) && isString(tv.Type))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
