package archlint

import (
	"go/ast"
	"go/token"
)

// ringPass enforces AL013: the lock-free message ring's atomic protocol.
// The queue's exactly-once and fencing arguments rest on invariants the
// type system cannot express:
//
//  1. Publish-last. A producer claims a slot, writes its message fields,
//     and only then flips the publication flag: the slot's state Store is
//     the last touch, and the flag is only ever Stored — never CAS'd or
//     swapped — because exactly one producer owns a claimed slot. A field
//     write positioned after the state Store would let the consumer read a
//     torn message.
//  2. Fence discipline. Only Detach advances the fence word. Detach is a
//     method of the queue's fence half, which only the routing package's
//     commit holds, so who may call it is the compiler's to check.
//
// The ring's slots, segments and fence word are unexported in the queue
// package, so no bus file can reach them: the scan covers the queue
// package alone.
func (a *analysis) ringPass() {
	p := a.pkgByPath(a.rules.queuePkg)
	if p == nil {
		return
	}
	for _, fd := range funcDecls(p) {
		a.ringProtocolCheck(p, fd)
	}
}

// ringProtocolCheck scans one queue function for publish-protocol
// violations: non-Store mutations of a slot's publication flag, fence
// mutations outside Detach, and slot field writes positioned after the
// slot's state Store (publish must be the last touch).
func (a *analysis) ringProtocolCheck(p *pkg, fd *ast.FuncDecl) {
	inDetach := fd.Name.Name == "Detach" && fd.Recv != nil

	// published maps a slot-holding identifier name to the position of its
	// LAST state Store in this function — the publish (earlier Stores are
	// abandon-and-return branches). Source order is claim -> write ->
	// publish, so any msg/ver write textually after that Store breaks the
	// protocol (a loop body keeps the order within each iteration, so the
	// positional comparison stays exact).
	published := map[string]token.Pos{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		owner := fieldOwner(p, inner)
		if owner == nil || owner.Obj().Pkg() != p.tpkg {
			return true
		}
		switch {
		case owner.Obj().Name() == "slot" && inner.Sel.Name == "state":
			if sel.Sel.Name != "Store" && sel.Sel.Name != "Load" {
				a.diag(CodeRingProtocol, call.Pos(),
					"slot publication flag mutated with %s: a claimed slot has exactly one owner, the flag is Stored and Loaded only", sel.Sel.Name)
				return true
			}
			if sel.Sel.Name == "Store" {
				if id, ok := ast.Unparen(inner.X).(*ast.Ident); ok {
					if call.Pos() > published[id.Name] {
						published[id.Name] = call.Pos()
					}
				}
			}
		case owner.Obj().Name() == "Queue" && inner.Sel.Name == "fence":
			if !inDetach && sel.Sel.Name != "Load" {
				a.diag(CodeRingProtocol, call.Pos(),
					"queue fence mutated (%s) outside Detach: only Detach advances the fence word", sel.Sel.Name)
			}
		}
		return true
	})
	if len(published) == 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			owner := fieldOwner(p, sel)
			if owner == nil || owner.Obj().Name() != "slot" || owner.Obj().Pkg() != p.tpkg {
				continue
			}
			id, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok {
				continue
			}
			if storePos, seen := published[id.Name]; seen && as.Pos() > storePos {
				a.diag(CodeRingProtocol, as.Pos(),
					"slot field %s written after the slot's publication Store: publish must be the slot's last touch or the consumer can read a torn message", sel.Sel.Name)
			}
		}
		return true
	})
}
