package archlint

import (
	"go/ast"
	"go/token"
	"path"
	"strings"
)

// pkgByPath returns the type-checked package with the given import path,
// or nil if it is absent or failed to check.
func (a *analysis) pkgByPath(importPath string) *pkg {
	for _, p := range a.checked() {
		if p.path == importPath {
			return p
		}
	}
	return nil
}

// netPkgs are the packages whose calls mean network I/O: never legal while
// the control-plane lock is held.
var netPkgs = map[string]bool{
	"net":      true,
	"net/http": true,
	"net/rpc":  true,
}

// blockingBusMethods are module-internal methods known to block (condition
// waits, deadline waits). Keyed by "Recv.Name".
var blockingBusMethods = map[string]bool{
	"msgQueue.pop":      true,
	"stateBox.await":    true,
	"Bus.AwaitDivulged": true,
	"Bus.AwaitRestored": true,
}

// muAcquiringBusMethods are the two Bus methods that take Bus.mu — every
// topology change goes through edit, every fenced write through writeSlow.
// Calling one with the lock held deadlocks, and calling one with a queue
// lock held inverts the sanctioned Bus.mu -> queue-lock order.
var muAcquiringBusMethods = map[string]bool{
	"edit":      true,
	"writeSlow": true,
}

// mutexPass enforces the control-plane locking discipline of the bus:
//
//	AL003  Bus.mu is referenced only from bus.go — the facade owns the
//	       writer lock; routing, queueing and transport never see it.
//	AL004  nothing blocking runs while Bus.mu is held: no channel sends or
//	       receives outside a select with default, no blocking selects, no
//	       condition/WaitGroup waits, sleeps or network calls, no
//	       known-blocking or mu-reacquiring bus methods.
//	AL005  lock order: Bus.mu is taken before queue locks, never after —
//	       while a msgQueue lock (the consumer mu or the segment-growth
//	       growMu) is held, neither Bus.mu nor any mu-acquiring Bus
//	       method may be entered.
//
// The held-region analysis is intra-procedural and linear: Lock/Unlock
// statements toggle the held state, toggles inside nested blocks do not
// leak out (so an early-unlock-and-return branch does not end the outer
// region), and a deferred Unlock holds the region to the end of the
// function. Bus.mu is also held from the first statement of a *Locked
// method and of a function literal passed to edit, which runs it under the
// lock.
func (a *analysis) mutexPass() {
	p := a.pkgByPath(a.rules.busPkg)
	if p == nil {
		return
	}

	// AL003: Bus.mu outside bus.go.
	for i, f := range p.files {
		if path.Base(p.names[i]) == "bus.go" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "mu" {
				return true
			}
			if owner := fieldOwner(p, sel); owner != nil &&
				owner.Obj().Name() == "Bus" && owner.Obj().Pkg() == p.tpkg {
				a.diag(CodeMuConfine, sel.Sel.Pos(),
					"Bus.mu referenced outside bus.go: the control-plane lock is confined to the facade")
			}
			return true
		})
	}

	// AL004 + AL005: region scans per function.
	for _, f := range p.files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			blocking := func(n ast.Node) { a.checkBlocking(p, n) }
			a.lockRegions(p, fd.Body, "Bus", "mu", fd.Recv != nil && strings.HasSuffix(fd.Name.Name, "Locked"), blocking)
			for _, lit := range editLiterals(p, fd.Body) {
				a.lockRegions(p, lit.Body, "Bus", "mu", true, blocking)
			}
			a.lockRegions(p, fd.Body, "msgQueue", "mu", false, func(n ast.Node) { a.checkLockOrder(p, n) })
			a.lockRegions(p, fd.Body, "msgQueue", "growMu", false, func(n ast.Node) { a.checkLockOrder(p, n) })
		}
	}
}

// editLiterals returns the function literals body passes to the bus
// package's edit.
func editLiterals(p *pkg, body *ast.BlockStmt) []*ast.FuncLit {
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(p, call); fn == nil || fn.Name() != "edit" || fn.Pkg() != p.tpkg {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				lits = append(lits, lit)
			}
		}
		return true
	})
	return lits
}

// selectHasDefault reports whether sel carries a default clause.
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// lockRegions walks body linearly tracking whether owner's named mutex
// field (owner being a named type of the bus package) is held — held says
// whether it is on entry — and applies visit to every node reached while
// it is. Function literals are skipped: their bodies run on other
// goroutines or after the region (the caller scans the ones edit runs).
func (a *analysis) lockRegions(p *pkg, body *ast.BlockStmt, owner, field string, held bool, visit func(ast.Node)) {
	scanExpr := func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			if m != nil {
				visit(m)
			}
			return true
		})
	}
	var scan func(stmts []ast.Stmt, held bool) bool
	scan = func(stmts []ast.Stmt, held bool) bool {
		for _, st := range stmts {
			switch s := st.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					if op, ok := isMuOp(p, call, p.tpkg, owner, field); ok {
						held = op == "Lock"
						continue
					}
				}
				if held {
					scanExpr(s)
				}
			case *ast.DeferStmt:
				// defer mu.Unlock() keeps the region held to the end;
				// other deferred work runs outside the scanned region.
			case *ast.GoStmt:
				// spawned work does not run under the caller's lock.
			case *ast.BlockStmt:
				scan(s.List, held)
			case *ast.LabeledStmt:
				scan([]ast.Stmt{s.Stmt}, held)
			case *ast.IfStmt:
				if held {
					scanExpr(s.Init)
					scanExpr(s.Cond)
				}
				scan(s.Body.List, held)
				switch e := s.Else.(type) {
				case *ast.BlockStmt:
					scan(e.List, held)
				case *ast.IfStmt:
					scan([]ast.Stmt{e}, held)
				}
			case *ast.ForStmt:
				if held {
					scanExpr(s.Init)
					scanExpr(s.Cond)
					scanExpr(s.Post)
				}
				scan(s.Body.List, held)
			case *ast.RangeStmt:
				if held {
					scanExpr(s.X)
				}
				scan(s.Body.List, held)
			case *ast.SwitchStmt:
				if held {
					scanExpr(s.Init)
					scanExpr(s.Tag)
				}
				for _, c := range s.Body.List {
					cc := c.(*ast.CaseClause)
					if held {
						for _, e := range cc.List {
							scanExpr(e)
						}
					}
					scan(cc.Body, held)
				}
			case *ast.TypeSwitchStmt:
				if held {
					scanExpr(s.Init)
					scanExpr(s.Assign)
				}
				for _, c := range s.Body.List {
					scan(c.(*ast.CaseClause).Body, held)
				}
			case *ast.SelectStmt:
				if held && !selectHasDefault(s) {
					visit(s)
					continue
				}
				// A select with default is non-blocking: its comm clauses
				// are exempt, the clause bodies still run under the lock.
				for _, c := range s.Body.List {
					scan(c.(*ast.CommClause).Body, held)
				}
			default:
				if held {
					scanExpr(st)
				}
			}
		}
		return held
	}
	scan(body.List, held)
}

// checkBlocking is the AL004 visitor for nodes reached under Bus.mu.
func (a *analysis) checkBlocking(p *pkg, n ast.Node) {
	switch x := n.(type) {
	case *ast.SendStmt:
		a.diag(CodeBlockUnderMu, x.Arrow,
			"channel send while Bus.mu is held: use a select with default or move it outside the lock")
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			a.diag(CodeBlockUnderMu, x.OpPos, "channel receive while Bus.mu is held")
		}
	case *ast.SelectStmt:
		a.diag(CodeBlockUnderMu, x.Select, "blocking select (no default case) while Bus.mu is held")
	case *ast.CallExpr:
		if what, ok := a.blockingCall(p, x); ok {
			a.diag(CodeBlockUnderMu, x.Pos(), "%s while Bus.mu is held", what)
		}
	}
}

// blockingCall classifies a call as blocking (or mu-reacquiring) for AL004.
func (a *analysis) blockingCall(p *pkg, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(p, call)
	if fn == nil {
		return "", false
	}
	name := fn.Name()
	recv := recvNamed(fn)
	if recv == nil {
		switch pp := pkgPathOf(fn); {
		case pp == "time" && name == "Sleep":
			return "time.Sleep", true
		case netPkgs[pp]:
			return pp + "." + name + " (network I/O)", true
		}
		return "", false
	}
	rn := recv.Obj().Name()
	rp := ""
	if recv.Obj().Pkg() != nil {
		rp = recv.Obj().Pkg().Path()
	}
	switch {
	case rp == "sync" && name == "Wait" && (rn == "Cond" || rn == "WaitGroup"):
		return "sync." + rn + ".Wait", true
	case netPkgs[rp]:
		return rp + "." + rn + "." + name + " (network I/O)", true
	case rp == a.rules.busPkg && blockingBusMethods[rn+"."+name]:
		return "blocking call " + rn + "." + name, true
	case rp == a.rules.busPkg && rn == "Bus" && muAcquiringBusMethods[name]:
		return "(*Bus)." + name + " (re-acquires Bus.mu)", true
	}
	return "", false
}

// checkLockOrder is the AL005 visitor for nodes reached under a msgQueue
// lock.
func (a *analysis) checkLockOrder(p *pkg, n ast.Node) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return
	}
	if op, ok := isMuOp(p, call, p.tpkg, "Bus", "mu"); ok && op == "Lock" {
		a.diag(CodeLockOrder, call.Pos(),
			"Bus.mu acquired while a queue lock is held: the sanctioned order is Bus.mu before queue locks")
		return
	}
	fn := calleeFunc(p, call)
	if fn == nil {
		return
	}
	if recv := recvNamed(fn); recv != nil && recv.Obj().Name() == "Bus" &&
		recv.Obj().Pkg() == p.tpkg && muAcquiringBusMethods[fn.Name()] {
		a.diag(CodeLockOrder, call.Pos(),
			"(*Bus).%s called while a queue lock is held: it takes Bus.mu, inverting the sanctioned lock order", fn.Name())
	}
}
