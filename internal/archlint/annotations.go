package archlint

import (
	"go/ast"
	"strings"
)

// Annotation contract. archlint understands two line-comment directives:
//
//	//archlint:hotpath
//	    In a function's doc comment: the function is a proven hot path and
//	    must stay free of allocating constructs (AL007).
//
//	//archlint:spawn <reason>
//	    On the line of a go statement or the line above: the spawn site is
//	    allowlisted; the reason documents who stops the goroutine (AL009).
type annotations struct {
	// spawn maps file name -> lines carrying an //archlint:spawn directive.
	spawn map[string]map[int]bool
}

// collectAnnotations scans every comment of every loaded file.
func collectAnnotations(m *module) *annotations {
	a := &annotations{spawn: map[string]map[int]bool{}}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if word, _, _ := strings.Cut(c.Text, " "); word != "//archlint:spawn" {
						continue
					}
					pos := m.fset.Position(c.Pos())
					lines := a.spawn[pos.Filename]
					if lines == nil {
						lines = map[int]bool{}
						a.spawn[pos.Filename] = lines
					}
					lines[pos.Line] = true
				}
			}
		}
	}
	return a
}

// spawnAllowed reports whether a go statement at the given line carries a
// spawn directive on its own line or the line above.
func (a *annotations) spawnAllowed(file string, line int) bool {
	lines := a.spawn[file]
	return lines != nil && (lines[line] || lines[line-1])
}

// isHotpath reports whether fd's doc comment carries the hotpath directive.
func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == "//archlint:hotpath" || strings.HasPrefix(c.Text, "//archlint:hotpath ") {
			return true
		}
	}
	return false
}

// spawnPass enforces AL009: every go statement is an allowlisted spawn
// site, annotated //archlint:spawn <reason> on its line or the line above.
// Unannotated goroutines are how leaks and orphaned workers enter a
// long-lived reconfigurable process.
func (a *analysis) spawnPass() {
	for _, p := range a.mod.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				pos := a.mod.fset.Position(g.Pos())
				if !a.ann.spawnAllowed(pos.Filename, pos.Line) {
					a.diag(CodeSpawn, g.Pos(),
						"go statement without //archlint:spawn annotation: goroutine spawn sites are allowlisted")
				}
				return true
			})
		}
	}
}
