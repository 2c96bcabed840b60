package archlint

import (
	"go/ast"
	"path"
	"strconv"
)

// layeringPass enforces the two layering invariants:
//
//	AL010  the package-level DAG. Packages are assigned layers (leaf
//	       utilities 10, the bus 20, the layers composed on top of it 30);
//	       a layered package may import only its own layer or below. This
//	       is what keeps telemetry ignorant of the bus it measures and the
//	       bus ignorant of the reconfiguration protocol driving it.
//	AL011  the file-level decomposition inside internal/bus. routing.go is
//	       the bottom (pure snapshot algebra) and uses nothing of the queue
//	       package but the message vocabulary, and the transport files
//	       reach routing state only through the Bus facade and the
//	       published snapshot. (Queueing is a package of its own that
//	       cannot import the bus, so the compiler keeps it below.)
//
// AL010 needs only the ASTs, so it also covers packages that failed to
// type-check; AL011 resolves references through go/types.
func (a *analysis) layeringPass() {
	for _, p := range a.mod.pkgs {
		lp, ok := a.rules.layers[p.path]
		if !ok {
			continue
		}
		for _, f := range p.files {
			for _, imp := range f.Imports {
				ip, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if lq, ok := a.rules.layers[ip]; ok && lq > lp {
					a.diag(CodeImportLayer, imp.Pos(),
						"%s (layer %d) imports %s (layer %d): the architectural DAG points the other way",
						p.path, lp, ip, lq)
				}
			}
		}
	}

	p := a.pkgByPath(a.rules.busPkg)
	if p == nil {
		return
	}
	for i, f := range p.files {
		base := path.Base(p.names[i])
		ruleSet, ok := a.rules.busFiles[base]
		if !ok {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := p.info.Uses[id]
			if obj == nil || obj.Pkg() == nil || !obj.Pos().IsValid() {
				return true
			}
			declFile := obj.Pkg().Path()
			if obj.Pkg() == p.tpkg {
				declFile = a.mod.fileBase(obj.Pos())
			}
			allow, restricted := ruleSet[declFile]
			if !restricted || declFile == base {
				return true
			}
			for _, name := range allow {
				if name == obj.Name() {
					return true
				}
			}
			a.diag(CodeBusFileLayer, id.Pos(),
				"%s references %s (declared in %s): the %s layer may not depend on it",
				base, obj.Name(), declFile, busLayerName(base))
			return true
		})
	}
}

func busLayerName(base string) string {
	if base == "routing.go" {
		return "routing"
	}
	return "transport"
}
