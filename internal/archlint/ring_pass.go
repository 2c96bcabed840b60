package archlint

import (
	"go/ast"
	"go/token"
	"path"
)

// ringPass enforces AL013: the lock-free message ring's atomic protocol.
// The queue's exactly-once and fencing arguments rest on three structural
// invariants the type system cannot express:
//
//  1. Publish-last. A producer claims a slot, writes its message fields,
//     and only then flips the publication flag: the slot's state Store is
//     the last touch, and the flag is only ever Stored — never CAS'd or
//     swapped — because exactly one producer owns a claimed slot. A field
//     write positioned after the state Store would let the consumer read a
//     torn message.
//  2. Confinement. Slot and segment internals (qslot and chunk fields) and
//     the queue's fence word are implementation details of queue.go; any
//     other file reaching into them bypasses the protocol.
//  3. Fence discipline. Only msgQueue.detach advances the fence word; who
//     may call detach is a row of the confinement table (confine_pass.go).
func (a *analysis) ringPass() {
	p := a.pkgByPath(a.rules.busPkg)
	if p == nil {
		return
	}
	for i, f := range p.files {
		base := path.Base(p.names[i])
		if base == "queue.go" {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					a.ringProtocolCheck(p, fd)
				}
			}
			continue
		}
		a.ringConfinementCheck(p, f)
	}
}

// ringConfinementCheck flags references to ring internals in a bus file
// other than queue.go.
func (a *analysis) ringConfinementCheck(p *pkg, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		x, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		owner := fieldOwner(p, x)
		if owner == nil || owner.Obj().Pkg() != p.tpkg {
			return true
		}
		switch owner.Obj().Name() {
		case "qslot", "chunk":
			a.diag(CodeRingProtocol, x.Sel.Pos(),
				"ring internals (%s.%s) referenced outside queue.go: slot and segment state is the queue protocol's private vocabulary", owner.Obj().Name(), x.Sel.Name)
		case "msgQueue":
			if x.Sel.Name == "fence" {
				a.diag(CodeRingProtocol, x.Sel.Pos(),
					"queue fence word referenced outside queue.go: fencing is part of the ring protocol, raise it through msgQueue.detach")
			}
		}
		return true
	})
}

// ringProtocolCheck scans one queue.go function for publish-protocol
// violations: non-Store mutations of a slot's publication flag, fence
// mutations outside detach, and slot field writes positioned after the
// slot's state Store (publish must be the last touch).
func (a *analysis) ringProtocolCheck(p *pkg, fd *ast.FuncDecl) {
	inDetach := fd.Name.Name == "detach" && fd.Recv != nil

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
		case owner.Obj().Name() == "qslot" && inner.Sel.Name == "state":
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
		case owner.Obj().Name() == "msgQueue" && inner.Sel.Name == "fence":
			if !inDetach && sel.Sel.Name != "Load" {
				a.diag(CodeRingProtocol, call.Pos(),
					"queue fence mutated (%s) outside msgQueue.detach: only detach advances the fence word", sel.Sel.Name)
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
			if owner == nil || owner.Obj().Name() != "qslot" || owner.Obj().Pkg() != p.tpkg {
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
