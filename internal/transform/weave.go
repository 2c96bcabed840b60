package transform

import (
	"go/ast"
	"go/token"
	"slices"
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
	// added is what the woven check will record beyond info's entries, which
	// match the program before weaving.
	added lang.Sizes
}

func (w *weaver) weaveFunc(name string) error {
	if w.keepLabels == nil {
		w.keepLabels = map[string]map[string]bool{}
	}
	fn := w.prog.Funcs[name]
	isMain := name == "main"
	labels := make(map[string]bool, len(w.info.Labels[name]))
	for _, l := range w.info.Labels[name] {
		labels[l] = true
	}
	edges := w.rg.EdgesFrom(name)
	fr := &FuncReport{Name: name}
	if err := w.captureSet(fr, w.live[name], edges); err != nil {
		return err
	}
	capSet, format := fr.Captured, fr.Format

	if _, err := w.zeroReturns(fn); err != nil {
		return err
	}
	// Every capture block gets its own result expressions: the passes edit
	// the AST in place, so it has to stay a tree.
	zeros := func() []ast.Expr { z, _ := w.zeroReturns(fn); return z }

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
				return w.prog.Errorf(e.Point.Call.Pos(), "reconfiguration point label %s collides with an existing label of %s", e.Point.Label, name)
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
		return w.prog.Errorf(fn.Decl.Pos(), "wove %d of %d reconfiguration edges of %s (instrumented call not at statement position?)", wovenEdges, len(edges), name)
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

	for _, e := range edges {
		fr.Edges = append(fr.Edges, e.Index)
	}
	w.out.Funcs[name] = fr
	s := wovenSize(fn, capSet, edges)
	w.added.Types += s.Types
	w.added.Defs += s.Defs
	w.added.Uses += s.Uses
	return nil
}

// captureSet derives the procedure's captured variables per the options,
// and records them, with their format string and the liveness facts they
// were chosen from.
func (w *weaver) captureSet(fr *FuncReport, a *liveness.Analysis, edges []callgraph.Edge) error {
	name := fr.Name
	vars := w.info.FuncVars[name]
	// A variable's refusal cites its declaration; one the passes made has
	// none, and cites its procedure's.
	declPos := func(d *lang.VarDef) token.Pos {
		if d.Ident != nil && d.Ident.Pos().IsValid() {
			return d.Ident.Pos()
		}
		return w.prog.Funcs[name].Decl.Pos()
	}

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
			return 0, w.prog.Errorf(w.prog.Funcs[name].Decl.Pos(), "cannot locate edge %d of %s in its flattened body", e.Index, name)
		}
		return i, nil
	}

	// A frame must carry what is live after each edge (needed for
	// pointer-local validation in every mode). An edge's capture reads what
	// is live at its capture instant: after a point marker, and before a
	// call, whose re-issue reads its arguments.
	// stmts holds the edges' statements, the points' before the calls'.
	stmts := make([]int, len(edges))
	points, calls := 0, len(edges)
	for _, e := range edges {
		i, err := edgeIdx(e)
		if err != nil {
			return err
		}
		if e.IsReconfig() {
			stmts[points] = i
			points++
		} else {
			calls--
			stmts[calls] = i
		}
	}
	fr.Live, fr.Read = a.LiveAny(stmts, nil), a.LiveAny(stmts[:points], stmts[points:])

	selected := func(string) bool { return true } // CaptureAll
	switch w.opts.Mode {
	case CaptureLive:
		selected = func(v string) bool { return slices.Contains(fr.Live, v) }
	case CaptureSpec:
		specVars, ok, err := w.specVarsFor(name, edges)
		if err != nil {
			return err
		}
		if ok {
			selected = func(v string) bool { return slices.Contains(specVars, v) }
		}
	}

	fr.Format = "l"
	for _, d := range vars {
		if !selected(d.Name) {
			continue
		}
		cv := CapturedVar{Name: d.Name, Type: d.Type}
		if _, isPtr := d.Type.(lang.Pointer); isPtr {
			if !d.IsParam {
				if slices.Contains(fr.Live, d.Name) {
					return w.prog.Errorf(declPos(d), "pointer-typed local %s of %s is live at a reconfiguration edge; addresses cannot enter the abstract state (paper §3)", d.Name, name)
				}
				continue // dead pointer local: safely omitted
			}
			cv.Pointer = true
		}
		r, ok := lang.FormatRune(cv.Type)
		if !ok {
			return w.prog.Errorf(declPos(d), "variable %s of %s has uncapturable type %s", d.Name, name, d.Type)
		}
		fr.Format += string(r)
		fr.Captured = append(fr.Captured, cv)
	}
	return nil
}

// specVarsFor returns the union of the specification-declared variable
// lists for the reconfiguration points of this procedure. A list naming no
// variable of the procedure is refused at its point's marker.
func (w *weaver) specVarsFor(name string, edges []callgraph.Edge) ([]string, bool, error) {
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
			if !slices.ContainsFunc(w.info.FuncVars[name], func(d *lang.VarDef) bool { return d.Name == v }) {
				return nil, false, w.prog.Errorf(e.Point.Call.Pos(), "specification names unknown state variable %s of %s", v, name)
			}
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out, found, nil
}

func (w *weaver) zeroReturns(fn *lang.Func) ([]ast.Expr, error) {
	var out []ast.Expr
	for i, rt := range fn.Results {
		z := flatten.ZeroExpr(rt)
		if z == nil {
			return nil, w.prog.Errorf(fn.Decl.Type.Results.List[i].Pos(), "result type %s of %s has no expressible zero value", rt, fn.Name)
		}
		out = append(out, z)
	}
	return out, nil
}

// ---- block constructors ----

// wovenSize is what lang.Check records for the nodes weaveFunc adds to one
// procedure, less the marker literals it removes. It follows the
// constructors below; TestPrepareWork holds it exact.
func wovenSize(fn *lang.Func, capSet []CapturedVar, edges []callgraph.Edge) lang.Sizes {
	ptrs := 0
	for _, cv := range capSet {
		if cv.Pointer {
			ptrs++
		}
	}
	zeros := 0
	for _, rt := range fn.Results {
		zeros++
		if _, ok := rt.(lang.Slice); ok {
			zeros += 2 // make's type and length
		}
	}
	capture := 3 + len(capSet) + ptrs // name, format, edge, the values, *p
	s := lang.Sizes{
		Defs: 1, // mhLoc
		// mh.Restoring(), name, format, &mhLoc, &v or p
		Types: 1 + 2 + 2 + 2*len(capSet) - ptrs,
		Uses:  1 + len(capSet),
	}
	for _, e := range edges {
		// mhLoc == i; the capture block's condition, arguments and zeros
		s.Types += 3 + 1 + capture + zeros
		s.Uses += 1 + len(capSet)
		if e.IsReconfig() {
			// mh.SetRestoring(false) and mh.SetCaptureStack(true) in, the
			// mh.ReconfigPoint label out
			s.Types += 1
		}
	}
	if fn.Name == "main" {
		s.Types += 3 // mh.Status() == "clone"
	}
	return s
}

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
