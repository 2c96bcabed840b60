package archlint

import "strconv"

// layeringPass enforces AL010, the package-level DAG. Packages are assigned
// layers (leaf utilities 10, the bus's queue 15 and routing 17, the bus 20,
// the layers composed on top of it 30); a layered package may import only
// its own layer or below. This is what keeps telemetry ignorant of the bus
// it measures and the bus ignorant of the reconfiguration protocol driving
// it. Inside the bus the compiler does the rest: the queue and routing
// packages cannot import the bus (an import cycle), and what they keep to
// themselves is unexported.
//
// AL010 needs only the ASTs, so it also covers packages that failed to
// type-check.
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
}
