package transform

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"

	"repro/internal/callgraph"
	"repro/internal/flatten"
	"repro/internal/lang"
	"repro/internal/liveness"
)

// weaver inserts the capture and restore blocks into flattened procedures.
type weaver struct {
	prog *lang.Program
	info *lang.Info
	rg   *callgraph.RGraph
	live map[string]*liveness.Analysis
	opts Options
	out  *Output

	keepLabels map[string]map[string]bool
}

func (w *weaver) weaveFunc(name string) error {
	if w.keepLabels == nil {
		w.keepLabels = map[string]map[string]bool{}
	}
	fn := w.prog.Funcs[name]
	isMain := name == "main"
	labels := collectLabels(fn.Decl)
	a := w.live[name]
	edges := w.rg.EdgesFrom(name)

	capSet, err := w.captureSet(name, a, edges)
	if err != nil {
		return err
	}
	format := "l"
	for _, cv := range capSet {
		r, ok := lang.FormatRune(cv.Type)
		if !ok {
			return fmt.Errorf("transform: %s: variable %s has uncapturable type %s", name, cv.Name, cv.Type)
		}
		format += string(r)
	}

	if _, err := zeroReturns(fn); err != nil {
		return err
	}
	// Every capture block gets its own result expressions: the passes edit
	// the AST in place, so it has to stay a tree.
	zeros := func() []ast.Expr { z, _ := zeroReturns(fn); return z }

	// Location variable.
	locName := "mhLoc"
	taken := map[string]bool{}
	for _, v := range w.info.FuncVars[name] {
		taken[v.Name] = true
	}
	for n := 2; taken[locName]; n++ {
		locName = "mhLoc" + strconv.Itoa(n)
	}

	// Resume label per edge.
	edgeLabel := map[int]string{}
	keep := map[string]bool{}
	for _, e := range edges {
		if e.IsReconfig() {
			if labels[e.Point.Label] {
				return fmt.Errorf("transform: %s: reconfiguration point label %s collides with an existing label", name, e.Point.Label)
			}
			labels[e.Point.Label] = true
			edgeLabel[e.Index] = e.Point.Label
		} else {
			l := "L" + strconv.Itoa(e.Index)
			for labels[l] {
				l = "mh" + l
			}
			labels[l] = true
			edgeLabel[e.Index] = l
		}
		keep[edgeLabel[e.Index]] = true
	}
	w.keepLabels[name] = keep

	// Statement → edge mapping.
	markerEdge := map[ast.Stmt]callgraph.Edge{}
	for _, e := range edges {
		if e.IsReconfig() {
			markerEdge[ast.Stmt(e.Point.Stmt)] = e
		}
	}

	// Split hoisted declarations from the executable body.
	body := fn.Decl.Body.List
	var decls []ast.Stmt
	for len(body) > 0 {
		if _, ok := body[0].(*ast.DeclStmt); !ok {
			break
		}
		decls = append(decls, body[0])
		body = body[1:]
	}
	decls = append(decls, &ast.DeclStmt{Decl: &ast.GenDecl{
		Tok: token.VAR,
		Specs: []ast.Spec{&ast.ValueSpec{
			Names: []*ast.Ident{ast.NewIdent(locName)},
			Type:  ast.NewIdent("int"),
		}},
	}})

	// Weave the body.
	var woven []ast.Stmt
	var pendingLabel string
	emit := func(s ast.Stmt) {
		if pendingLabel != "" {
			s = &ast.LabeledStmt{Label: ast.NewIdent(pendingLabel), Stmt: s}
			pendingLabel = ""
		}
		woven = append(woven, s)
	}
	wovenEdges := 0
	for _, s := range body {
		wrappers, inner := unlabel(s)

		if e, ok := markerEdge[inner]; ok {
			// Replace the marker with the reconfiguration-point capture
			// block (Figure 7, reconfiguration edge); the point label
			// moves onto the following statement.
			block := w.reconfigCaptureBlock(name, format, e.Index, capSet, isMain, zeros())
			for i := len(wrappers) - 1; i >= 0; i-- {
				block = &ast.LabeledStmt{Label: ast.NewIdent(wrappers[i]), Stmt: block}
			}
			emit(block)
			pendingLabel = edgeLabel[e.Index]
			wovenEdges++
			continue
		}

		if call := lang.StmtCall(w.prog, inner); call != nil {
			if e, ok := w.rg.EdgeForCall(call); ok && e.Caller == name {
				// Label the call statement Li (the restore block's goto
				// re-issues the call, Figure 4 style) and install the
				// capture block immediately after it (Figure 7).
				labeled := ast.Stmt(&ast.LabeledStmt{Label: ast.NewIdent(edgeLabel[e.Index]), Stmt: inner})
				for i := len(wrappers) - 1; i >= 0; i-- {
					labeled = &ast.LabeledStmt{Label: ast.NewIdent(wrappers[i]), Stmt: labeled}
				}
				emit(labeled)
				emit(w.callCaptureBlock(name, format, e.Index, capSet, isMain, zeros()))
				wovenEdges++
				continue
			}
		}
		emit(s)
	}
	if pendingLabel != "" {
		emit(&ast.EmptyStmt{})
	}
	if wovenEdges != len(edges) {
		return fmt.Errorf("transform: %s: wove %d of %d reconfiguration edges (instrumented call not at statement position?)", name, wovenEdges, len(edges))
	}

	// Restore block (Figure 8), preceded in main by the clone check.
	var prologue []ast.Stmt
	if isMain {
		prologue = append(prologue, &ast.IfStmt{
			Cond: &ast.BinaryExpr{
				X:  mhCallExpr("Status"),
				Op: token.EQL,
				Y:  &ast.BasicLit{Kind: token.STRING, Value: `"clone"`},
			},
			Body: &ast.BlockStmt{List: []ast.Stmt{mhCall("Decode")}},
		})
	}
	prologue = append(prologue, w.restoreBlock(name, format, locName, capSet, edges, edgeLabel))

	fn.Decl.Body.List = append(append(decls, prologue...), woven...)

	idxs := make([]int, 0, len(edges))
	for _, e := range edges {
		idxs = append(idxs, e.Index)
	}
	w.out.Funcs[name] = &FuncReport{Name: name, Captured: capSet, Format: format, Edges: idxs}
	return nil
}

// captureSet derives the procedure's captured variables per the options.
func (w *weaver) captureSet(name string, a *liveness.Analysis, edges []callgraph.Edge) ([]CapturedVar, error) {
	vars := w.info.FuncVars[name]

	edgeIdx := func(e callgraph.Edge) (int, error) {
		var target ast.Stmt
		if e.IsReconfig() {
			target = e.Point.Stmt
		} else {
			for _, s := range a.Stmts {
				if lang.StmtCall(w.prog, s) == e.Call {
					target = s
					break
				}
			}
		}
		i := a.IndexOf(target)
		if i < 0 {
			return 0, fmt.Errorf("transform: %s: cannot locate edge %d in flattened body", name, e.Index)
		}
		return i, nil
	}

	// Union of live-at-resume sets (needed for pointer-local validation in
	// every mode).
	liveUnion := map[string]bool{}
	for _, e := range edges {
		i, err := edgeIdx(e)
		if err != nil {
			return nil, err
		}
		for _, v := range a.LiveAfter(i) {
			liveUnion[v] = true
		}
	}

	selected := map[string]bool{}
	switch w.opts.Mode {
	case CaptureLive:
		selected = liveUnion
	case CaptureSpec:
		specVars, ok := w.specVarsFor(name, edges)
		if ok {
			for _, v := range specVars {
				found := false
				for _, d := range vars {
					if d.Name == v {
						found = true
						break
					}
				}
				if !found {
					return nil, fmt.Errorf("transform: %s: specification names unknown state variable %s", name, v)
				}
				selected[v] = true
			}
			break
		}
		fallthrough
	default: // CaptureAll
		for _, d := range vars {
			selected[d.Name] = true
		}
	}

	var out []CapturedVar
	for _, d := range vars {
		if !selected[d.Name] {
			continue
		}
		if pt, isPtr := d.Type.(lang.Pointer); isPtr {
			if !d.IsParam {
				if liveUnion[d.Name] {
					return nil, fmt.Errorf("transform: %s: pointer-typed local %s is live at a reconfiguration edge; addresses cannot enter the abstract state (paper §3)", name, d.Name)
				}
				continue // dead pointer local: safely omitted
			}
			out = append(out, CapturedVar{Name: d.Name, Type: pt, Pointer: true})
			continue
		}
		out = append(out, CapturedVar{Name: d.Name, Type: d.Type})
	}
	return out, nil
}

// specVarsFor returns the union of the specification-declared variable
// lists for the reconfiguration points of this procedure.
func (w *weaver) specVarsFor(name string, edges []callgraph.Edge) ([]string, bool) {
	var out []string
	found := false
	seen := map[string]bool{}
	for _, e := range edges {
		if !e.IsReconfig() {
			continue
		}
		vars, ok := w.opts.PointVars[e.Point.Label]
		if !ok {
			continue
		}
		found = true
		for _, v := range vars {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out, found
}

func zeroReturns(fn *lang.Func) ([]ast.Expr, error) {
	var out []ast.Expr
	for _, rt := range fn.Results {
		z := flatten.ZeroExpr(rt)
		if z == nil {
			return nil, fmt.Errorf("transform: %s: result type %s has no expressible zero value", fn.Name, rt)
		}
		out = append(out, z)
	}
	return out, nil
}

// ---- block constructors ----

func mhCallExpr(name string, args ...ast.Expr) *ast.CallExpr {
	return &ast.CallExpr{
		Fun:  &ast.SelectorExpr{X: ast.NewIdent(lang.MHName), Sel: ast.NewIdent(name)},
		Args: args,
	}
}

func mhCall(name string, args ...ast.Expr) ast.Stmt {
	return &ast.ExprStmt{X: mhCallExpr(name, args...)}
}

func strLit(s string) ast.Expr {
	return &ast.BasicLit{Kind: token.STRING, Value: strconv.Quote(s)}
}

func intLit(i int) ast.Expr {
	return &ast.BasicLit{Kind: token.INT, Value: strconv.Itoa(i)}
}

// captureArgs builds the value expressions for mh.Capture: pointer
// parameters are captured by pointee (*rp), everything else by name.
func captureArgs(fnName, format string, edge int, capSet []CapturedVar) []ast.Expr {
	args := []ast.Expr{strLit(fnName), strLit(format), intLit(edge)}
	for _, cv := range capSet {
		if cv.Pointer {
			args = append(args, &ast.StarExpr{X: ast.NewIdent(cv.Name)})
		} else {
			args = append(args, ast.NewIdent(cv.Name))
		}
	}
	return args
}

// callCaptureBlock builds Figure 7's capture block for a call edge:
//
//	if mh.CaptureStack() {
//	    mh.Capture(fn, format, i, vars...)
//	    mh.Encode()   // main only
//	    return zeros
//	}
func (w *weaver) callCaptureBlock(fnName, format string, edge int, capSet []CapturedVar, isMain bool, zeros []ast.Expr) ast.Stmt {
	var body []ast.Stmt
	body = append(body, &ast.ExprStmt{X: mhCallExpr("Capture", captureArgs(fnName, format, edge, capSet)...)})
	if isMain {
		body = append(body, mhCall("Encode"))
	}
	body = append(body, &ast.ReturnStmt{Results: zeros})
	return &ast.IfStmt{Cond: mhCallExpr("CaptureStack"), Body: &ast.BlockStmt{List: body}}
}

// reconfigCaptureBlock builds Figure 7's capture block for a
// reconfiguration edge:
//
//	if mh.Reconfig() {
//	    mh.ClearReconfig()
//	    mh.SetCaptureStack(true)
//	    mh.Capture(fn, format, j, vars...)
//	    mh.Encode()   // main only
//	    return zeros
//	}
func (w *weaver) reconfigCaptureBlock(fnName, format string, edge int, capSet []CapturedVar, isMain bool, zeros []ast.Expr) ast.Stmt {
	var body []ast.Stmt
	body = append(body,
		mhCall("ClearReconfig"),
		mhCall("SetCaptureStack", ast.NewIdent("true")),
		&ast.ExprStmt{X: mhCallExpr("Capture", captureArgs(fnName, format, edge, capSet)...)},
	)
	if isMain {
		body = append(body, mhCall("Encode"))
	}
	body = append(body, &ast.ReturnStmt{Results: zeros})
	return &ast.IfStmt{Cond: mhCallExpr("Reconfig"), Body: &ast.BlockStmt{List: body}}
}

// restoreBlock builds Figure 8's restore block:
//
//	if mh.Restoring() {
//	    mh.Restore(fn, format, &mhLoc, ptrs...)
//	    if mhLoc == i { goto Li }
//	    if mhLoc == j { mh.SetRestoring(false); mh.InstallSignalHandler(); goto R }
//	}
func (w *weaver) restoreBlock(fnName, format, locName string, capSet []CapturedVar, edges []callgraph.Edge, edgeLabel map[int]string) ast.Stmt {
	restoreArgs := []ast.Expr{
		strLit(fnName), strLit(format),
		&ast.UnaryExpr{Op: token.AND, X: ast.NewIdent(locName)},
	}
	for _, cv := range capSet {
		if cv.Pointer {
			restoreArgs = append(restoreArgs, ast.NewIdent(cv.Name))
		} else {
			restoreArgs = append(restoreArgs, &ast.UnaryExpr{Op: token.AND, X: ast.NewIdent(cv.Name)})
		}
	}
	body := []ast.Stmt{&ast.ExprStmt{X: mhCallExpr("Restore", restoreArgs...)}}
	for _, e := range edges {
		cond := &ast.BinaryExpr{X: ast.NewIdent(locName), Op: token.EQL, Y: intLit(e.Index)}
		var dispatch []ast.Stmt
		if e.IsReconfig() {
			dispatch = append(dispatch,
				mhCall("SetRestoring", ast.NewIdent("false")),
				mhCall("InstallSignalHandler"),
			)
		}
		dispatch = append(dispatch, &ast.BranchStmt{Tok: token.GOTO, Label: ast.NewIdent(edgeLabel[e.Index])})
		body = append(body, &ast.IfStmt{Cond: cond, Body: &ast.BlockStmt{List: dispatch}})
	}
	return &ast.IfStmt{Cond: mhCallExpr("Restoring"), Body: &ast.BlockStmt{List: body}}
}
