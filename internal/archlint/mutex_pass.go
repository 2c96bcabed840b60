package archlint

import (
	"go/ast"
	"go/token"
	"go/types"
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
// the routing writer lock is held.
var netPkgs = map[string]bool{
	"net":      true,
	"net/http": true,
	"net/rpc":  true,
}

// blockingBusMethods are methods of the bus and its queue package known to
// block (condition waits, deadline waits). Keyed by "Recv.Name".
var blockingBusMethods = map[string]bool{
	"Queue.Pop":         true,
	"stateBox.await":    true,
	"Bus.AwaitDivulged": true,
	"Bus.AwaitRestored": true,
}

// lockTakers are the methods that take the routing writer lock: the
// committer's two locked entry points and the bus's fenced-write retry,
// which waits in Settled. Calling one with the lock held deadlocks.
var lockTakers = map[string]bool{
	"Committer.Edit":    true,
	"Committer.Settled": true,
	"Bus.writeSlow":     true,
}

// mutexPass enforces AL004: nothing blocking runs while the routing writer
// lock is held — no channel sends or receives outside a select with
// default, no blocking selects, no condition/WaitGroup waits, sleeps or
// network calls, no known-blocking or lock-taking bus methods.
//
// The lock is unexported in the routing package and only the Committer's
// methods take it, so the held code is known without tracking Lock and
// Unlock: the whole bodies of the Committer's methods (the commit among
// them), and of every callback the bus hands to one of them, as a function
// literal or as a function or method value. A scan skips function literals
// and go statements, whose bodies run elsewhere, and the comm clauses of a
// select with default, which do not block.
//
// Lock order (the writer lock before queue locks) needs no pass: the
// queue's locks are unexported in its own package, which runs no code of
// the bus's.
func (a *analysis) mutexPass() {
	rt := a.pkgByPath(a.rules.routingPkg)
	if rt == nil {
		return
	}
	scanned := map[*ast.BlockStmt]bool{}
	scan := func(p *pkg, body *ast.BlockStmt) {
		if !scanned[body] {
			scanned[body] = true
			a.scanHeld(p, body)
		}
	}
	for _, fd := range funcDecls(rt) {
		if fn, _ := rt.info.Defs[fd.Name].(*types.Func); fn != nil && a.isCommitter(recvNamed(fn)) {
			scan(rt, fd.Body)
		}
	}

	p := a.pkgByPath(a.rules.busPkg)
	if p == nil {
		return
	}
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, fd := range funcDecls(p) {
		if fn, _ := p.info.Defs[fd.Name].(*types.Func); fn != nil {
			decls[fn] = fd
		}
	}
	for _, fd := range funcDecls(p) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeFunc(p, call); fn == nil || !a.isCommitter(recvNamed(fn)) {
				return true
			}
			for _, arg := range call.Args {
				switch x := ast.Unparen(arg).(type) {
				case *ast.FuncLit:
					scan(p, x.Body)
				default:
					if cb := decls[funcOf(p, x)]; cb != nil {
						scan(p, cb.Body)
					}
				}
			}
			return true
		})
	}
}

// isCommitter reports whether n is the routing package's Committer.
func (a *analysis) isCommitter(n *types.Named) bool {
	return n != nil && n.Obj().Name() == "Committer" && n.Obj().Pkg() != nil &&
		n.Obj().Pkg().Path() == a.rules.routingPkg
}

// scanHeld reports every blocking construct of body, which runs whole with
// the routing writer lock held.
func (a *analysis) scanHeld(p *pkg, body *ast.BlockStmt) {
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			if !selectHasDefault(x) {
				a.diag(CodeBlockUnderLock, x.Select, "blocking select (no default case) while the routing writer lock is held")
				return false
			}
			// Non-blocking: the comm clauses are exempt, their bodies still
			// run under the lock.
			for _, c := range x.Body.List {
				for _, st := range c.(*ast.CommClause).Body {
					ast.Inspect(st, visit)
				}
			}
			return false
		case *ast.SendStmt:
			a.diag(CodeBlockUnderLock, x.Arrow,
				"channel send while the routing writer lock is held: use a select with default or move it outside the lock")
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				a.diag(CodeBlockUnderLock, x.OpPos, "channel receive while the routing writer lock is held")
			}
		case *ast.CallExpr:
			if what, ok := a.blockingCall(p, x); ok {
				a.diag(CodeBlockUnderLock, x.Pos(), "%s while the routing writer lock is held", what)
			}
		}
		return true
	}
	ast.Inspect(body, visit)
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

// blockingCall classifies a call as blocking (or lock-taking) for AL004.
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
	ours := rp == a.rules.busPkg || rp == a.rules.queuePkg || rp == a.rules.routingPkg
	switch {
	case rp == "sync" && name == "Wait" && (rn == "Cond" || rn == "WaitGroup"):
		return "sync." + rn + ".Wait", true
	case netPkgs[rp]:
		return rp + "." + rn + "." + name + " (network I/O)", true
	case ours && blockingBusMethods[rn+"."+name]:
		return "blocking call " + rn + "." + name, true
	case ours && lockTakers[rn+"."+name]:
		return rn + "." + name + " (re-acquires the routing writer lock)", true
	}
	return "", false
}
