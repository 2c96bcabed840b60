// Package flatten lowers the structured control flow of module procedures
// into flat label+goto form.
//
// Why this pass exists: the paper's restore blocks (Figure 8) jump from the
// top of a procedure to resume labels that sit inside loops — legal in K&R C,
// but Go rejects any goto that jumps into a block. Flattening rewrites a
// procedure so that every statement, and therefore every resume label the
// transform later needs, is at the top level of the function body:
//
//   - all local variable declarations are hoisted (alpha-renamed when block
//     scoping reused a name) to a single declaration group at the top, with
//     explicit zero-assignments at the original declaration sites so block
//     re-entry semantics are preserved;
//   - if/else, all for forms, range and switch are lowered to conditional
//     gotos (`if !cond { goto L }`) and labels;
//   - break/continue (labeled or not) become gotos.
//
// The output is still a module-subset program (it re-checks), still valid
// Go, and observationally equivalent to the input — the equivalence is
// property-tested against the interpreter in flatten_test.go.
//
// Known, documented deviations (irrelevant to instrumented code and
// unobservable within the subset): a hoisted slice variable without
// initializer is re-zeroed to an empty (not nil) slice, and a pointer local
// declared without initializer is not re-zeroed on block re-entry.
package flatten

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"

	"repro/internal/lang"
)

// Result describes one flattened function.
type Result struct {
	// Locals lists every function-scoped variable after hoisting and
	// renaming: parameters first, then locals in declaration order. This
	// is exactly the candidate capture set for the transform.
	Locals []Local
	// Labels lists the labels the pass generated (for pruning).
	Labels []string
}

// Local is one hoisted variable.
type Local struct {
	Name    string
	Type    lang.Type
	IsParam bool
}

// Function flattens the named procedure in place. The program must be
// checked; info is consumed for identifier resolution and expression types.
// After flattening, the program's AST no longer matches info — run
// lang.Check on it again before further analysis.
func Function(prog *lang.Program, info *lang.Info, name string) (*Result, error) {
	fn, ok := prog.Funcs[name]
	if !ok {
		return nil, fmt.Errorf("flatten: no function %s", name)
	}
	f := &flattener{
		prog:    prog,
		info:    info,
		fn:      fn,
		renames: map[*lang.VarDef]string{},
		taken:   map[string]bool{},
	}
	return f.run()
}

type flattener struct {
	prog *lang.Program
	info *lang.Info
	fn   *lang.Func

	renames map[*lang.VarDef]string
	taken   map[string]bool
	labelN  int
	tmpN    int

	out    []ast.Stmt
	labels []string
	locals []Local

	// pendingLabel holds a label to attach to the next emitted statement.
	pendingLabels []string

	loops []loopCtx
	err   error
}

type loopCtx struct {
	userLabel string
	breakLbl  string
	contLbl   string
}

func (f *flattener) run() (*Result, error) {
	// Reserve existing names: all variables of this function and all user
	// labels, so generated names cannot collide.
	for _, v := range f.info.FuncVars[f.fn.Name] {
		f.taken[v.Name] = true
	}
	for _, l := range f.info.Labels[f.fn.Name] {
		f.taken[l] = true
	}
	for _, p := range f.fn.Params {
		f.locals = append(f.locals, Local{Name: p.Name, Type: p.Type, IsParam: true})
	}

	// Pass 1: assign unique names to every local (params keep theirs; the
	// checker already rejects param shadowing at the top scope only, so
	// locals may shadow params and each other across blocks).
	f.renameLocals()
	if f.err != nil {
		return nil, f.err
	}

	// Pass 2: lower the body.
	f.stmts(f.fn.Decl.Body.List)
	if f.err != nil {
		return nil, f.err
	}
	f.flushLabels()

	// Assemble: hoisted declarations, then the flattened statements.
	var body []ast.Stmt
	if decl := f.hoistedDecl(); decl != nil {
		body = append(body, decl)
	}
	body = append(body, f.out...)
	f.fn.Decl.Body.List = body
	return &Result{Locals: f.locals, Labels: f.labels}, nil
}

// renameLocals walks the body re-resolving declarations the way the checker
// scoped them, assigning each local VarDef a function-unique name.
func (f *flattener) renameLocals() {
	seen := map[string]int{}
	for _, p := range f.fn.Params {
		seen[p.Name] = 1
	}
	for _, v := range f.info.FuncVars[f.fn.Name] {
		if v.IsParam || v.Name == "_" {
			continue
		}
		n := seen[v.Name]
		seen[v.Name] = n + 1
		newName := v.Name
		if n > 0 {
			for {
				newName = v.Name + "_" + strconv.Itoa(n+1)
				if !f.taken[newName] {
					break
				}
				n++
			}
			f.taken[newName] = true
			f.renames[v] = newName
		}
		f.locals = append(f.locals, Local{Name: newName, Type: v.Type})
	}
	// Apply renames to every identifier occurrence.
	ast.Inspect(f.fn.Decl.Body, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		if d := f.info.VarOf(id); d != nil {
			if nn, ok := f.renames[d]; ok {
				id.Name = nn
			}
		}
		return true
	})
}

func (f *flattener) hoistedDecl() ast.Stmt {
	var specs []ast.Spec
	for _, l := range f.locals {
		if l.IsParam {
			continue
		}
		specs = append(specs, &ast.ValueSpec{
			Names: []*ast.Ident{ast.NewIdent(l.Name)},
			Type:  TypeExpr(l.Type),
		})
	}
	if len(specs) == 0 {
		return nil
	}
	return &ast.DeclStmt{Decl: &ast.GenDecl{Tok: token.VAR, Specs: specs}}
}

func (f *flattener) failf(pos token.Pos, format string, args ...any) {
	if f.err == nil {
		p := f.prog.Fset.Position(pos)
		f.err = fmt.Errorf("flatten: %s: %s", p, fmt.Sprintf(format, args...))
	}
}

func (f *flattener) newLabel() string {
	for {
		f.labelN++
		name := "mhF" + strconv.Itoa(f.labelN)
		if !f.taken[name] {
			f.taken[name] = true
			f.labels = append(f.labels, name)
			return name
		}
	}
}

func (f *flattener) newTemp(t lang.Type) string {
	for {
		f.tmpN++
		name := "mhTmp" + strconv.Itoa(f.tmpN)
		if !f.taken[name] {
			f.taken[name] = true
			f.locals = append(f.locals, Local{Name: name, Type: t})
			return name
		}
	}
}

// emit appends a statement, attaching any pending labels.
func (f *flattener) emit(s ast.Stmt) {
	for i := len(f.pendingLabels) - 1; i >= 0; i-- {
		s = &ast.LabeledStmt{Label: ast.NewIdent(f.pendingLabels[i]), Stmt: s}
	}
	f.pendingLabels = nil
	f.out = append(f.out, s)
}

// mark queues a label for the next statement.
func (f *flattener) mark(label string) {
	f.pendingLabels = append(f.pendingLabels, label)
}

// flushLabels materializes trailing labels onto an empty statement.
func (f *flattener) flushLabels() {
	if len(f.pendingLabels) > 0 {
		f.emit(&ast.EmptyStmt{Implicit: false})
	}
}

func (f *flattener) gotoStmt(label string) ast.Stmt {
	return &ast.BranchStmt{Tok: token.GOTO, Label: ast.NewIdent(label)}
}

// condGoto emits `if !(cond) { goto label }` (or the positive form).
func (f *flattener) condGoto(cond ast.Expr, negate bool, label string) {
	if negate {
		cond = &ast.UnaryExpr{Op: token.NOT, X: &ast.ParenExpr{X: cond}}
	}
	f.emit(&ast.IfStmt{
		Cond: cond,
		Body: &ast.BlockStmt{List: []ast.Stmt{f.gotoStmt(label)}},
	})
}

func (f *flattener) stmts(list []ast.Stmt) {
	for _, s := range list {
		f.stmt(s)
		if f.err != nil {
			return
		}
	}
}

func (f *flattener) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		f.stmts(st.List)
	case *ast.DeclStmt:
		f.lowerDecl(st)
	case *ast.AssignStmt:
		f.lowerAssign(st)
	case *ast.LabeledStmt:
		f.lowerLabeled(st)
	case *ast.IfStmt:
		f.lowerIf(st)
	case *ast.ForStmt:
		f.lowerFor(st, "")
	case *ast.RangeStmt:
		f.lowerRange(st, "")
	case *ast.SwitchStmt:
		f.lowerSwitch(st, "")
	case *ast.BranchStmt:
		f.lowerBranch(st)
	case *ast.ReturnStmt, *ast.ExprStmt, *ast.IncDecStmt:
		f.emit(s)
	case *ast.EmptyStmt:
		// drop
	default:
		f.failf(s.Pos(), "cannot flatten statement %T", s)
	}
}

func (f *flattener) lowerDecl(st *ast.DeclStmt) {
	gd := st.Decl.(*ast.GenDecl)
	for _, spec := range gd.Specs {
		vs := spec.(*ast.ValueSpec)
		for i, id := range vs.Names {
			if len(vs.Values) > i {
				f.emit(&ast.AssignStmt{
					Lhs: []ast.Expr{ast.NewIdent(id.Name)},
					Tok: token.ASSIGN,
					Rhs: []ast.Expr{vs.Values[i]},
				})
				continue
			}
			// Re-zero at the declaration site so block re-entry behaves
			// like a fresh declaration.
			d := f.info.Defs[id]
			if d == nil {
				f.failf(id.Pos(), "no definition recorded for %s", id.Name)
				return
			}
			if z := ZeroExpr(d.Type); z != nil {
				f.emit(&ast.AssignStmt{
					Lhs: []ast.Expr{ast.NewIdent(id.Name)},
					Tok: token.ASSIGN,
					Rhs: []ast.Expr{z},
				})
			}
		}
	}
}

func (f *flattener) lowerAssign(st *ast.AssignStmt) {
	if st.Tok == token.DEFINE {
		// After hoisting, := is a plain assignment.
		f.emit(&ast.AssignStmt{Lhs: st.Lhs, Tok: token.ASSIGN, Rhs: st.Rhs})
		return
	}
	f.emit(st)
}

func (f *flattener) lowerLabeled(st *ast.LabeledStmt) {
	switch inner := st.Stmt.(type) {
	case *ast.ForStmt:
		f.lowerFor(inner, st.Label.Name)
	case *ast.RangeStmt:
		f.lowerRange(inner, st.Label.Name)
	case *ast.SwitchStmt:
		f.lowerSwitch(inner, st.Label.Name)
	default:
		f.mark(st.Label.Name)
		f.stmt(st.Stmt)
	}
}

func (f *flattener) lowerIf(st *ast.IfStmt) {
	if st.Init != nil {
		f.stmt(st.Init)
	}
	end := f.newLabel()
	if st.Else == nil {
		f.condGoto(st.Cond, true, end)
		f.stmts(st.Body.List)
		f.mark(end)
		return
	}
	elseL := f.newLabel()
	f.condGoto(st.Cond, true, elseL)
	f.stmts(st.Body.List)
	f.emit(f.gotoStmt(end))
	f.mark(elseL)
	f.stmt(st.Else)
	f.mark(end)
}

func (f *flattener) lowerFor(st *ast.ForStmt, userLabel string) {
	if st.Init != nil {
		f.stmt(st.Init)
	}
	loop := f.newLabel()
	end := f.newLabel()
	cont := loop
	if st.Post != nil {
		cont = f.newLabel()
	}
	if userLabel != "" {
		// goto <userLabel> re-enters at the condition (init already ran,
		// matching Go, where the label is on the for statement itself and
		// a goto to it re-runs init; module programs do not goto loop
		// labels, and the checker's Go output compiles either way).
		f.mark(userLabel)
	}
	f.mark(loop)
	if st.Cond != nil {
		f.condGoto(st.Cond, true, end)
	} else {
		f.flushLabels()
	}
	f.loops = append(f.loops, loopCtx{userLabel: userLabel, breakLbl: end, contLbl: cont})
	f.stmts(st.Body.List)
	f.loops = f.loops[:len(f.loops)-1]
	if st.Post != nil {
		f.mark(cont)
		f.stmt(st.Post)
	}
	f.emit(f.gotoStmt(loop))
	f.mark(end)
}

func (f *flattener) lowerRange(st *ast.RangeStmt, userLabel string) {
	elemType, ok := f.rangeElemType(st)
	if !ok {
		return
	}
	sliceTmp := f.newTemp(lang.Slice{Elem: elemType})
	idxTmp := f.newTemp(lang.IntType)
	f.emit(&ast.AssignStmt{
		Lhs: []ast.Expr{ast.NewIdent(sliceTmp)},
		Tok: token.ASSIGN,
		Rhs: []ast.Expr{st.X},
	})
	f.emit(&ast.AssignStmt{
		Lhs: []ast.Expr{ast.NewIdent(idxTmp)},
		Tok: token.ASSIGN,
		Rhs: []ast.Expr{&ast.BasicLit{Kind: token.INT, Value: "0"}},
	})
	loop := f.newLabel()
	end := f.newLabel()
	cont := f.newLabel()
	if userLabel != "" {
		f.mark(userLabel)
	}
	f.mark(loop)
	f.condGoto(&ast.BinaryExpr{
		X:  ast.NewIdent(idxTmp),
		Op: token.LSS,
		Y:  &ast.CallExpr{Fun: ast.NewIdent("len"), Args: []ast.Expr{ast.NewIdent(sliceTmp)}},
	}, true, end)
	if st.Key != nil {
		if name := st.Key.(*ast.Ident).Name; name != "_" {
			f.emit(&ast.AssignStmt{
				Lhs: []ast.Expr{ast.NewIdent(name)},
				Tok: token.ASSIGN,
				Rhs: []ast.Expr{ast.NewIdent(idxTmp)},
			})
		}
	}
	if st.Value != nil {
		if name := st.Value.(*ast.Ident).Name; name != "_" {
			f.emit(&ast.AssignStmt{
				Lhs: []ast.Expr{ast.NewIdent(name)},
				Tok: token.ASSIGN,
				Rhs: []ast.Expr{&ast.IndexExpr{X: ast.NewIdent(sliceTmp), Index: ast.NewIdent(idxTmp)}},
			})
		}
	}
	f.loops = append(f.loops, loopCtx{userLabel: userLabel, breakLbl: end, contLbl: cont})
	f.stmts(st.Body.List)
	f.loops = f.loops[:len(f.loops)-1]
	f.mark(cont)
	f.emit(&ast.IncDecStmt{X: ast.NewIdent(idxTmp), Tok: token.INC})
	f.emit(f.gotoStmt(loop))
	f.mark(end)
}

// rangeElemType recovers the element type of the ranged slice from the
// declared key/value variables (their defs carry checked types).
func (f *flattener) rangeElemType(st *ast.RangeStmt) (lang.Type, bool) {
	if t := f.info.TypeOf(st.X); t != nil {
		if sl, ok := t.(lang.Slice); ok {
			return sl.Elem, true
		}
	}
	if st.Value != nil {
		if d := f.info.Defs[st.Value.(*ast.Ident)]; d != nil {
			return d.Type, true
		}
	}
	f.failf(st.Pos(), "cannot determine range element type")
	return nil, false
}

func (f *flattener) lowerSwitch(st *ast.SwitchStmt, userLabel string) {
	if st.Init != nil {
		f.stmt(st.Init)
	}
	end := f.newLabel()
	tag := "" // the temporary holding the tag; a fresh identifier per comparison
	if st.Tag != nil {
		tagType := f.info.TypeOf(st.Tag)
		if tagType == nil {
			f.failf(st.Tag.Pos(), "switch tag has no recorded type")
			return
		}
		tmp := f.newTemp(tagType)
		f.emit(&ast.AssignStmt{
			Lhs: []ast.Expr{ast.NewIdent(tmp)},
			Tok: token.ASSIGN,
			Rhs: []ast.Expr{st.Tag},
		})
		tag = tmp
	}

	type armInfo struct {
		label string
		cc    *ast.CaseClause
	}
	var arms []armInfo
	defaultLbl := end
	var defaultCC *ast.CaseClause
	for _, clause := range st.Body.List {
		cc := clause.(*ast.CaseClause)
		if cc.List == nil {
			defaultCC = cc
			defaultLbl = f.newLabel()
			continue
		}
		arm := armInfo{label: f.newLabel(), cc: cc}
		arms = append(arms, arm)
		for _, e := range cc.List {
			if tag != "" {
				f.condGoto(&ast.BinaryExpr{X: ast.NewIdent(tag), Op: token.EQL, Y: e}, false, arm.label)
			} else {
				f.condGoto(e, false, arm.label)
			}
		}
	}
	f.emit(f.gotoStmt(defaultLbl))

	_ = userLabel
	f.loops = append(f.loops, loopCtx{userLabel: userLabel, breakLbl: end, contLbl: ""})
	for _, arm := range arms {
		f.mark(arm.label)
		f.flushLabels()
		f.stmts(arm.cc.Body)
		f.emit(f.gotoStmt(end))
	}
	if defaultCC != nil {
		f.mark(defaultLbl)
		f.flushLabels()
		f.stmts(defaultCC.Body)
		f.emit(f.gotoStmt(end))
	}
	f.loops = f.loops[:len(f.loops)-1]
	f.mark(end)
}

func (f *flattener) lowerBranch(st *ast.BranchStmt) {
	switch st.Tok {
	case token.GOTO:
		f.emit(st)
	case token.BREAK:
		lbl := f.findLoop(st, "", true)
		if st.Label != nil {
			lbl = f.findLoop(st, st.Label.Name, true)
		}
		if lbl != "" {
			f.emit(f.gotoStmt(lbl))
		}
	case token.CONTINUE:
		lbl := f.findLoop(st, "", false)
		if st.Label != nil {
			lbl = f.findLoop(st, st.Label.Name, false)
		}
		if lbl != "" {
			f.emit(f.gotoStmt(lbl))
		}
	default:
		f.failf(st.Pos(), "cannot flatten branch %s", st.Tok)
	}
}

// findLoop resolves break/continue to the matching enclosing construct's
// label. For unlabeled continue, switches (contLbl == "") are skipped, as
// continue inside a switch targets the loop around it.
func (f *flattener) findLoop(st *ast.BranchStmt, userLabel string, isBreak bool) string {
	for i := len(f.loops) - 1; i >= 0; i-- {
		ctx := f.loops[i]
		if userLabel != "" && ctx.userLabel != userLabel {
			continue
		}
		if !isBreak && ctx.contLbl == "" {
			if userLabel != "" {
				break
			}
			continue
		}
		if isBreak {
			return ctx.breakLbl
		}
		return ctx.contLbl
	}
	f.failf(st.Pos(), "no enclosing construct for %s %s", st.Tok, userLabel)
	return ""
}

// TypeExpr renders a module-subset type as a type expression.
func TypeExpr(t lang.Type) ast.Expr {
	switch tt := t.(type) {
	case lang.Basic:
		return ast.NewIdent(tt.String())
	case lang.Slice:
		return &ast.ArrayType{Elt: TypeExpr(tt.Elem)}
	case lang.Pointer:
		return &ast.StarExpr{X: TypeExpr(tt.Elem)}
	case *lang.Struct:
		return ast.NewIdent(tt.Name)
	default:
		return ast.NewIdent("int")
	}
}

// ZeroExpr renders the zero value of a type as an expression, or nil when
// the subset cannot express it (pointers, which have no nil literal in the
// module language).
func ZeroExpr(t lang.Type) ast.Expr {
	switch tt := t.(type) {
	case lang.Basic:
		switch tt.B {
		case lang.Int:
			return &ast.BasicLit{Kind: token.INT, Value: "0"}
		case lang.Float64:
			return &ast.BasicLit{Kind: token.FLOAT, Value: "0.0"}
		case lang.Bool:
			return ast.NewIdent("false")
		case lang.String:
			return &ast.BasicLit{Kind: token.STRING, Value: `""`}
		}
	case lang.Slice:
		return &ast.CallExpr{
			Fun:  ast.NewIdent("make"),
			Args: []ast.Expr{TypeExpr(tt), &ast.BasicLit{Kind: token.INT, Value: "0"}},
		}
	case *lang.Struct:
		return &ast.CompositeLit{Type: ast.NewIdent(tt.Name)}
	case lang.Pointer:
		return nil
	}
	return nil
}

// PruneLabels removes labels in fn's body that no goto targets. Go rejects
// unused labels, so this must run before emitting compilable source. keep
// lists labels to preserve regardless (e.g. the transform's resume labels,
// added later).
func PruneLabels(fn *ast.FuncDecl, keep map[string]bool) {
	used := map[string]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if br, ok := n.(*ast.BranchStmt); ok && br.Label != nil {
			used[br.Label.Name] = true
		}
		return true
	})
	fn.Body.List = pruneStmtList(fn.Body.List, used, keep)
}

func pruneStmtList(list []ast.Stmt, used, keep map[string]bool) []ast.Stmt {
	out := make([]ast.Stmt, 0, len(list))
	for _, s := range list {
		s = pruneStmt(s, used, keep)
		if s == nil {
			continue
		}
		out = append(out, s)
	}
	return out
}

func pruneStmt(s ast.Stmt, used, keep map[string]bool) ast.Stmt {
	switch st := s.(type) {
	case *ast.LabeledStmt:
		inner := pruneStmt(st.Stmt, used, keep)
		if used[st.Label.Name] || keep[st.Label.Name] {
			if inner == nil {
				inner = &ast.EmptyStmt{}
			}
			st.Stmt = inner
			return st
		}
		if inner == nil {
			return nil
		}
		if _, isEmpty := inner.(*ast.EmptyStmt); isEmpty {
			return nil
		}
		return inner
	case *ast.BlockStmt:
		st.List = pruneStmtList(st.List, used, keep)
		return st
	case *ast.IfStmt:
		st.Body.List = pruneStmtList(st.Body.List, used, keep)
		if st.Else != nil {
			st.Else = pruneStmt(st.Else, used, keep)
		}
		return st
	case *ast.EmptyStmt:
		return nil
	default:
		return s
	}
}
