package lang

import (
	"go/ast"
	"go/scanner"
)

// mhArity describes one mh primitive's call shape for the checker. Variadic
// tails are described by tail: "ptr" (pointer-typed values), "val"
// (capturable values), or "" (fixed arity).
type mhArity struct {
	fixed   []Type // leading fixed parameter types (nil entry = any capturable)
	tail    string
	results []Type
}

// mhAPI lists every mh primitive callable from module programs, both the
// programmer-facing communication calls and the calls emitted by the source
// transformation (Figure 4's slanted-typeface statements).
var mhAPI = map[string]mhArity{
	// Programmer-facing.
	"Init":          {},
	"Status":        {results: []Type{StringType}},
	"Read":          {fixed: []Type{StringType}, tail: "ptr"},
	"Write":         {fixed: []Type{StringType}, tail: "val"},
	"QueryIfMsgs":   {fixed: []Type{StringType}, results: []Type{BoolType}},
	"Sleep":         {fixed: []Type{IntType}},
	"ReconfigPoint": {fixed: []Type{StringType}},
	"Log":           {tail: "val"},

	// Emitted by the transformation.
	"Reconfig":             {results: []Type{BoolType}},
	"ClearReconfig":        {},
	"CaptureStack":         {results: []Type{BoolType}},
	"SetCaptureStack":      {fixed: []Type{BoolType}},
	"Restoring":            {results: []Type{BoolType}},
	"SetRestoring":         {fixed: []Type{BoolType}},
	"InstallSignalHandler": {},
	"Capture":              {fixed: []Type{StringType, StringType}, tail: "val"},
	"Encode":               {},
	"Decode":               {},
	"Restore":              {fixed: []Type{StringType, StringType}, tail: "ptr"},
	"FinishRestore":        {},
}

// checkCall validates a call expression and returns its result type: nil
// for void calls (legal only as statements), a Type for single results, or
// a Tuple. stmtCtx reports whether the call is an expression statement.
func (c *checker) checkCall(call *ast.CallExpr, stmtCtx bool) Type {
	if call.Ellipsis.IsValid() {
		c.errorf(call.Pos(), "... call arguments are not in the subset")
		return nil
	}
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok && id.Name == MHName {
			return c.checkMHCall(call, fun.Sel.Name, stmtCtx)
		}
		c.errorf(call.Pos(), "only mh.<primitive> calls may use a selector")
		return nil
	case *ast.Ident:
		return c.checkNamedCall(call, fun, stmtCtx)
	case *ast.ArrayType:
		// Conversion like []int(x) — not in the subset.
		c.errorf(call.Pos(), "slice conversions are not in the subset")
		return nil
	default:
		c.errorf(call.Pos(), "call target %T is not in the subset", call.Fun)
		return nil
	}
}

func (c *checker) checkNamedCall(call *ast.CallExpr, fun *ast.Ident, stmtCtx bool) Type {
	switch fun.Name {
	case "int", "float64":
		if len(call.Args) != 1 {
			c.errorf(call.Pos(), "%s conversion takes one argument", fun.Name)
			return nil
		}
		at := c.checkExpr(call.Args[0], nil)
		if at != nil && !isNumeric(at) {
			c.errorf(call.Args[0].Pos(), "cannot convert %s to %s", at, fun.Name)
			return nil
		}
		if fun.Name == "int" {
			return IntType
		}
		return FloatType
	case "len", "cap":
		if len(call.Args) != 1 {
			c.errorf(call.Pos(), "%s takes one argument", fun.Name)
			return nil
		}
		at := c.checkExpr(call.Args[0], nil)
		switch at.(type) {
		case Slice:
			return IntType
		case Basic:
			if fun.Name == "len" && at.Equal(StringType) {
				return IntType
			}
		case nil:
			return nil
		}
		c.errorf(call.Pos(), "%s of %s is not in the subset", fun.Name, typeName(at))
		return nil
	case "append":
		if len(call.Args) < 2 {
			c.errorf(call.Pos(), "append needs a slice and at least one element")
			return nil
		}
		st := c.checkExpr(call.Args[0], nil)
		sl, ok := st.(Slice)
		if !ok {
			if st != nil {
				c.errorf(call.Args[0].Pos(), "append requires a slice, got %s", st)
			}
			return nil
		}
		for _, a := range call.Args[1:] {
			at := c.checkExpr(a, sl.Elem)
			if at != nil && !assignable(at, sl.Elem) {
				c.errorf(a.Pos(), "appending %s to %s", at, sl)
			}
		}
		return sl
	case "make":
		if len(call.Args) < 2 || len(call.Args) > 3 {
			c.errorf(call.Pos(), "make takes a slice type and 1 or 2 sizes")
			return nil
		}
		t, err := c.prog.ResolveType(call.Args[0])
		if err != nil {
			c.errs = append(c.errs, err.(scanner.ErrorList)...)
			return nil
		}
		sl, ok := t.(Slice)
		if !ok {
			c.errorf(call.Pos(), "make of %s is not in the subset", t)
			return nil
		}
		c.info.Types[call.Args[0]] = sl
		for _, a := range call.Args[1:] {
			c.intIndex(a)
		}
		return sl
	}
	// User-defined function.
	fn, ok := c.prog.Funcs[fun.Name]
	if !ok {
		if _, isStruct := c.prog.Structs[fun.Name]; isStruct {
			c.errorf(call.Pos(), "struct conversions are not in the subset; use a composite literal")
			return nil
		}
		c.errorf(call.Pos(), "call to undefined function %s", fun.Name)
		return nil
	}
	if len(call.Args) != len(fn.Params) {
		c.errorf(call.Pos(), "%s takes %d arguments, got %d", fn.Name, len(fn.Params), len(call.Args))
		return nil
	}
	for i, a := range call.Args {
		at := c.checkExpr(a, fn.Params[i].Type)
		if at != nil && !assignable(at, fn.Params[i].Type) {
			c.errorf(a.Pos(), "argument %d of %s: %s is not %s", i+1, fn.Name, at, fn.Params[i].Type)
		}
	}
	switch len(fn.Results) {
	case 0:
		if !stmtCtx {
			c.errorf(call.Pos(), "%s returns no value", fn.Name)
		}
		return nil
	case 1:
		return fn.Results[0]
	default:
		return Tuple{Elems: fn.Results}
	}
}

func (c *checker) checkMHCall(call *ast.CallExpr, name string, stmtCtx bool) Type {
	sig, ok := mhAPI[name]
	if !ok {
		c.errorf(call.Pos(), "unknown mh primitive %s", name)
		return nil
	}
	if len(call.Args) < len(sig.fixed) || (sig.tail == "" && len(call.Args) != len(sig.fixed)) {
		c.errorf(call.Pos(), "mh.%s: wrong argument count", name)
		return nil
	}
	for i, want := range sig.fixed {
		at := c.checkExpr(call.Args[i], want)
		if at != nil && want != nil && !assignable(at, want) {
			c.errorf(call.Args[i].Pos(), "mh.%s argument %d: %s is not %s", name, i+1, at, want)
		}
	}
	// mh.Read and mh.Restore store through a direct &x argument and keep no
	// pointer, so it does not put x in AddrTaken.
	outParams := name == "Read" || name == "Restore"
	for _, a := range call.Args[len(sig.fixed):] {
		direct := c.direct
		if outParams {
			c.direct = a
		}
		at := c.checkExpr(a, nil)
		c.direct = direct
		if at == nil {
			continue
		}
		switch sig.tail {
		case "ptr":
			if _, ok := at.(Pointer); !ok {
				c.errorf(a.Pos(), "mh.%s: argument must be a pointer (use &x), got %s", name, at)
			}
		case "val":
			if _, ok := at.(Tuple); ok {
				c.errorf(a.Pos(), "mh.%s: multi-value call as argument", name)
			}
		}
	}
	switch len(sig.results) {
	case 0:
		if !stmtCtx {
			c.errorf(call.Pos(), "mh.%s returns no value", name)
		}
		return nil
	case 1:
		return sig.results[0]
	default:
		return Tuple{Elems: sig.results}
	}
}

// CallTargets returns the user-defined functions that fn calls, each with
// the call expression, in source order. Used by the call-graph builder.
func CallTargets(prog *Program, fn *Func) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if _, isFn := prog.Funcs[id.Name]; isFn {
				out = append(out, call)
			}
		}
		return true
	})
	return out
}

// StmtCall returns the call to a module procedure that a statement of a
// flattened body consists of — a call statement or an assignment whose
// single right-hand side is the call, under any labels — or nil.
func StmtCall(prog *Program, s ast.Stmt) *ast.CallExpr {
	var x ast.Expr
	switch st := s.(type) {
	case *ast.LabeledStmt:
		return StmtCall(prog, st.Stmt)
	case *ast.ExprStmt:
		x = st.X
	case *ast.AssignStmt:
		if len(st.Rhs) == 1 {
			x = st.Rhs[0]
		}
	}
	if call, ok := x.(*ast.CallExpr); ok {
		if id, ok := call.Fun.(*ast.Ident); ok && prog.Funcs[id.Name] != nil {
			return call
		}
	}
	return nil
}
