// Package langtest holds what the tests of several packages share about
// module programs: the sources Go files embed, and a check that an Info a
// pass kept while it rewrote a program in place is the one a fresh check
// finds.
package langtest

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"strings"

	"repro/internal/lang"
)

// DiffInfo checks prog afresh and reports where info differs from what the
// check finds: the type of an expression; whether an identifier defines or
// uses a variable, and that variable's name and type; each function's
// variables in order and its labels; the reconfiguration points; and the
// size of each table, so that an entry left behind for a node the pass
// removed counts too. It returns nil when they agree.
func DiffInfo(prog *lang.Program, info *lang.Info) error {
	fresh, err := lang.Check(prog)
	if err != nil {
		return fmt.Errorf("the program does not check: %w", err)
	}
	var diffs []string
	diff := func(format string, args ...any) { diffs = append(diffs, fmt.Sprintf(format, args...)) }
	for _, name := range prog.FuncOrder {
		if kept, want := info.FuncVars[name], fresh.FuncVars[name]; !slices.EqualFunc(kept, want, sameVar) {
			diff("%s: variables %s, a fresh check %s", name, varList(kept...), varList(want...))
		}
		if kept, want := info.Labels[name], fresh.Labels[name]; !slices.Equal(kept, want) {
			diff("%s: labels %v, a fresh check %v", name, kept, want)
		}
		ast.Inspect(prog.Funcs[name].Decl, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			at := types.ExprString(e)
			if p := prog.Fset.Position(e.Pos()); p.IsValid() {
				at += " at " + p.String()
			}
			if kt, wt := info.Types[e], fresh.Types[e]; (kt == nil) != (wt == nil) || kt != nil && !kt.Equal(wt) {
				diff("%s: %s has type %v, a fresh check %v", name, at, kt, wt)
			}
			if id, ok := e.(*ast.Ident); ok {
				if kd, wd := info.Defs[id], fresh.Defs[id]; !sameVar(kd, wd) {
					diff("%s: %s defines %s, a fresh check %s", name, at, varList(kd), varList(wd))
				}
				if ku, wu := info.Uses[id], fresh.Uses[id]; !sameVar(ku, wu) {
					diff("%s: %s uses %s, a fresh check %s", name, at, varList(ku), varList(wu))
				}
			}
			return true
		})
	}
	if !slices.Equal(info.Points, fresh.Points) {
		diff("points %v, a fresh check %v", info.Points, fresh.Points)
	}
	kept := lang.Sizes{Types: len(info.Types), Defs: len(info.Defs), Uses: len(info.Uses)}
	if want := (lang.Sizes{Types: len(fresh.Types), Defs: len(fresh.Defs), Uses: len(fresh.Uses)}); kept != want {
		diff("tables hold %+v, a fresh check's %+v", kept, want)
	}
	if len(diffs) == 0 {
		return nil
	}
	if len(diffs) > 20 {
		diffs = append(diffs[:20], fmt.Sprintf("and %d more", len(diffs)-20))
	}
	return fmt.Errorf("the kept Info differs from a fresh check:\n%s", strings.Join(diffs, "\n"))
}

func sameVar(a, b *lang.VarDef) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Name == b.Name && a.IsParam == b.IsParam && a.Type.Equal(b.Type)
}

func varList(vs ...*lang.VarDef) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = "nothing"
		if v != nil {
			parts[i] = v.Name + " " + v.Type.String()
		}
	}
	return strings.Join(parts, ", ")
}
