// Package liveness implements live-variable data-flow analysis over
// flattened module procedures.
//
// Section 3 of the paper: "At a reconfiguration point, data-flow analysis
// could be used to determine the set of live variables" — the authors left
// automatic capture-set derivation as future work and had the programmer
// list the variables in the configuration specification. This package
// implements that analysis, so the transform can capture only what is live
// at each reconfiguration-graph edge (experiment A2 measures the state-size
// effect against the conservative all-locals capture).
//
// The analysis runs on the *flattened* form (internal/flatten), where every
// statement of a procedure is at the top level and control transfers are
// explicit: plain fallthrough, `goto L`, `if cond { goto L }` and `return`.
// That makes the control-flow graph one node per top-level statement.
//
// Sets are bit-vectors. Each distinct variable name of the procedure gets
// one bit, numbered in the checker's FuncVars order; the blank identifier
// gets none, since nothing reads it. A set is a row of one word per 64
// variables, and every row — each statement's uses, definitions, live-in
// and live-out, then the pinned set — is carved from one backing array, so
// the backward fixpoint runs in place and allocates nothing per statement
// or per sweep.
//
// Soundness notes:
//   - a variable whose address is taken anywhere in the procedure is pinned
//     always-live (writes through the pointer alias it), except where `&x`
//     is an out-parameter of an mh primitive: the runtime writes the
//     pointee and keeps no address, so mh.Read(iface, &x) defines x. That
//     is what makes the paper's Figure 2 list {num, n, rp}, which omits the
//     temper the re-executed mh.Read refills, a sound capture set;
//   - stores through pointers, slice elements and struct fields are treated
//     as uses of the base variable, not definitions (partial updates keep
//     the rest of the object live).
package liveness

import (
	"fmt"
	"go/ast"
	"go/token"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/lang"
)

// Analysis holds per-statement liveness for one flattened procedure.
type Analysis struct {
	Fn    *lang.Func
	Stmts []ast.Stmt // top-level statements, labels unwrapped

	names []string       // variable name of each bit
	bit   map[string]int // bit of each variable name
	words int            // words per row
	rows  []uint64       // use, def, live-in and live-out rows of every statement, then pinned
	index map[ast.Stmt]int
}

// row returns row r of the backing array.
func (a *Analysis) row(r int) []uint64 { return a.rows[r*a.words : (r+1)*a.words] }

func (a *Analysis) liveIn(i int) []uint64  { return a.row(2*len(a.Stmts) + i) }
func (a *Analysis) liveOut(i int) []uint64 { return a.row(3*len(a.Stmts) + i) }
func (a *Analysis) pinned() []uint64       { return a.row(4 * len(a.Stmts)) }

// Analyze computes liveness for the named (flattened) function.
func Analyze(prog *lang.Program, info *lang.Info, name string) (*Analysis, error) {
	fn, ok := prog.Funcs[name]
	if !ok {
		return nil, fmt.Errorf("liveness: no function %s", name)
	}
	list := fn.Decl.Body.List
	n := len(list)
	a := &Analysis{Fn: fn, Stmts: make([]ast.Stmt, 0, n), index: make(map[ast.Stmt]int, n)}

	vars := info.FuncVars[name]
	a.names = make([]string, 0, len(vars))
	a.bit = make(map[string]int, len(vars))
	for _, v := range vars {
		if _, dup := a.bit[v.Name]; !dup && v.Name != "_" {
			a.bit[v.Name] = len(a.names)
			a.names = append(a.names, v.Name)
		}
	}
	a.words = (len(a.names) + 63) / 64
	// Rows 0..n-1 are uses, n..2n-1 definitions, 2n..3n-1 live-in, 3n..4n-1
	// live-out, 4n the pinned set and 4n+1 a row that discards definitions.
	a.rows = make([]uint64, (4*n+2)*a.words)

	// Collect top-level statements and label targets.
	f := &flow{labels: map[string]int{}, succ: make([]int, 0, 2*n), off: make([]int, 1, n+1)}
	for _, s := range list {
		inner := s
		for {
			ls, ok := inner.(*ast.LabeledStmt)
			if !ok {
				break
			}
			f.labels[ls.Label.Name] = len(a.Stmts)
			inner = ls.Stmt
		}
		a.index[s] = len(a.Stmts)
		a.index[inner] = len(a.Stmts)
		a.Stmts = append(a.Stmts, inner)
	}

	c := &collector{info: info, bit: a.bit, discard: a.row(4*n + 1)}
	c.visit = c.addUse

	// Address-taken pinning. A call is visited before its arguments, so
	// c.outs holds an mh primitive's out-parameter arguments by the time
	// the walk reaches them, and an `&x` there does not pin x.
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if outs := mhOutParamArgs(n); outs != nil {
				c.outs = outs
			}
		case *ast.UnaryExpr:
			if base := baseIdent(n.X); n.Op == token.AND && base != nil && !slices.Contains(c.outs, ast.Expr(n)) {
				c.set(a.pinned(), base)
			}
		}
		return true
	})

	for i, s := range a.Stmts {
		if err := f.add(prog, s, i, n); err != nil {
			return nil, err
		}
		c.use, c.def = a.row(i), a.row(n+i)
		c.stmt(s)
	}

	// Backward fixpoint, word by word: out = ∪ in[succ], in = use ∪ (out − def).
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			use, def, in, out := a.row(i), a.row(n+i), a.liveIn(i), a.liveOut(i)
			for k := range out {
				var o uint64
				for _, s := range f.succ[f.off[i]:f.off[i+1]] {
					o |= a.rows[(2*n+s)*a.words+k]
				}
				if x := use[k] | o&^def[k]; o != out[k] || x != in[k] {
					out[k], in[k] = o, x
					changed = true
				}
			}
		}
	}
	return a, nil
}

// flow is the control-flow graph of a flat procedure: the successors of
// statement i are succ[off[i]:off[i+1]].
type flow struct {
	labels map[string]int // statement index of each label
	succ   []int
	off    []int
}

// add appends the successors of flat statement i of n. A branch the
// flat form does not allow is refused at the branch.
func (f *flow) add(prog *lang.Program, s ast.Stmt, i, n int) error {
	switch st := s.(type) {
	case *ast.ReturnStmt:
	case *ast.BranchStmt:
		if st.Tok != token.GOTO {
			return prog.Errorf(st.Pos(), "unflattened branch %s", st.Tok)
		}
		idx, ok := f.labels[st.Label.Name]
		if !ok {
			return prog.Errorf(st.Pos(), "goto to unknown label %s", st.Label.Name)
		}
		f.succ = append(f.succ, idx)
	default:
		if i+1 < n {
			f.succ = append(f.succ, i+1)
		}
		if st, ok := s.(*ast.IfStmt); ok {
			// Flat form: the body is a sequence ending in goto/return, with no
			// internal labels. Conservative handling: successors are the
			// fallthrough plus every goto target inside; if the body cannot
			// exit normally (ends in goto/return) that is still safe
			// (over-approximation only adds edges).
			ast.Walk(f, st)
		}
	}
	f.off = append(f.off, len(f.succ))
	return nil
}

// Visit adds the target of every goto in an if statement.
func (f *flow) Visit(nd ast.Node) ast.Visitor {
	if br, ok := nd.(*ast.BranchStmt); ok && br.Tok == token.GOTO {
		if idx, ok := f.labels[br.Label.Name]; ok {
			f.succ = append(f.succ, idx)
		}
	}
	return f
}

// collector fills the use and def rows of one flat statement.
type collector struct {
	info     *lang.Info
	bit      map[string]int
	use, def []uint64
	discard  []uint64            // def row of statements inside an if body
	outs     []ast.Expr          // out-parameter arguments of the last mh primitive the pinning walk met
	visit    func(ast.Node) bool // addUse, bound once: a method value per call allocates
}

// set sets the bit of the variable id names, if it has one.
func (c *collector) set(row []uint64, id *ast.Ident) {
	if d := c.info.VarOf(id); d != nil {
		if b, ok := c.bit[d.Name]; ok {
			row[b/64] |= 1 << (b % 64)
		}
	}
}

func (c *collector) addUses(e ast.Expr) {
	if e != nil {
		ast.Inspect(e, c.visit)
	}
}

func (c *collector) addUse(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		if c.mhCall(n) {
			return false
		}
	case *ast.Ident:
		c.set(c.use, n)
	}
	return true
}

// stmt extracts the used and defined variables of one flat statement.
func (c *collector) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.AssignStmt:
		for i, rhs := range st.Rhs {
			// `_ = x` with a bare identifier is a pure discard (the
			// compile-time "use" has no runtime read); skip it so dead
			// variables silenced this way stay dead.
			if i < len(st.Lhs) && len(st.Lhs) == len(st.Rhs) {
				if lid, ok := st.Lhs[i].(*ast.Ident); ok && lid.Name == "_" {
					if _, bare := rhs.(*ast.Ident); bare {
						continue
					}
				}
			}
			c.addUses(rhs)
		}
		for _, lhs := range st.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
					c.set(c.use, id) // op-assign reads the target too
				}
				c.set(c.def, id)
				continue
			}
			// Indirect target (x[i], *p, x.F): uses of everything in it,
			// no definition.
			c.addUses(lhs)
		}
	case *ast.IncDecStmt:
		c.addUses(st.X)
		if id, ok := st.X.(*ast.Ident); ok {
			c.set(c.def, id)
		}
	case *ast.ExprStmt:
		c.addUses(st.X)
	case *ast.IfStmt:
		c.addUses(st.Cond)
		def := c.def
		c.def = c.discard
		for _, inner := range st.Body.List {
			c.stmt(inner)
		}
		c.def = def
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			c.addUses(r)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.addUses(v)
					}
					for _, id := range vs.Names {
						if len(vs.Values) > 0 {
							c.set(c.def, id)
						}
					}
				}
			}
		}
	}
}

// mhOutParamArgs returns the arguments of an mh-primitive call that the
// runtime writes through (out-parameters): mh.Read(iface, &x...) fills
// every argument after the interface name; mh.Restore(fn, format, &loc,
// &vars...) fills everything after the format string. Returns nil for any
// other call.
func mhOutParamArgs(call *ast.CallExpr) []ast.Expr {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	recv, ok := sel.X.(*ast.Ident)
	if !ok || recv.Name != lang.MHName {
		return nil
	}
	switch sel.Sel.Name {
	case "Read":
		if len(call.Args) > 1 {
			return call.Args[1:]
		}
	case "Restore":
		if len(call.Args) > 2 {
			return call.Args[2:]
		}
	}
	return nil
}

// mhCall handles an mh call with out-parameters: `&x` in an out slot is a
// definition of x; every other argument contributes uses. Out-arguments
// that are not a plain `&ident` (e.g. &x.f, &x[i]) are partial updates and
// count as uses of the base variable. Reports whether the call was handled
// (true only for out-parameter primitives).
func (c *collector) mhCall(call *ast.CallExpr) bool {
	outs := mhOutParamArgs(call)
	if outs == nil {
		return false
	}
	firstOut := len(call.Args) - len(outs)
	for i, arg := range call.Args {
		if i >= firstOut {
			if ue, ok := arg.(*ast.UnaryExpr); ok && ue.Op == token.AND {
				if id, ok := ue.X.(*ast.Ident); ok {
					c.set(c.def, id)
					continue
				}
			}
		}
		c.addUses(arg)
	}
	return true
}

func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// IndexOf returns the flat index of a top-level statement (either the
// labeled wrapper or the inner statement), or -1.
func (a *Analysis) IndexOf(s ast.Stmt) int {
	if i, ok := a.index[s]; ok {
		return i
	}
	return -1
}

// LiveAfter returns the sorted variables live immediately after statement
// i, with address-taken variables pinned in.
func (a *Analysis) LiveAfter(i int) []string {
	return a.sorted(a.liveOut(i))
}

// LiveAny returns the sorted variables live immediately after any statement
// of after or immediately before any of before, with address-taken
// variables pinned in.
func (a *Analysis) LiveAny(after, before []int) []string {
	live := make([]uint64, a.words)
	for _, i := range after {
		for k, w := range a.liveOut(i) {
			live[k] |= w
		}
	}
	for _, i := range before {
		for k, w := range a.liveIn(i) {
			live[k] |= w
		}
	}
	return a.sorted(live)
}

// LiveBefore returns the sorted variables live immediately before
// statement i, with address-taken variables pinned in.
func (a *Analysis) LiveBefore(i int) []string {
	return a.sorted(a.liveIn(i))
}

// Pinned reports whether the variable is address-taken (always captured).
func (a *Analysis) Pinned(name string) bool {
	b, ok := a.bit[name]
	return ok && a.pinned()[b/64]&(1<<(b%64)) != 0
}

// sorted returns the names of the variables in row or pinned.
func (a *Analysis) sorted(row []uint64) []string {
	pinned, count := a.pinned(), 0
	for k, w := range row {
		count += bits.OnesCount64(w | pinned[k])
	}
	out := make([]string, 0, count)
	for k, w := range row {
		for w |= pinned[k]; w != 0; w &= w - 1 {
			out = append(out, a.names[64*k+bits.TrailingZeros64(w)])
		}
	}
	sort.Strings(out)
	return out
}
