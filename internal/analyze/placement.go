package analyze

import (
	"go/token"
	"strings"

	"repro/internal/callgraph"
	"repro/internal/diag"
	"repro/internal/lang"
)

// checkPlacement verifies reconfiguration-point placement on the original
// (unflattened) program, where every diagnostic has a true source position,
// and reports whether Prepare can run on it:
//
//   - MH010: the module declares no points at all — it can never divulge
//     state, so it can never be replaced while running. Prepare refuses
//     it, but such a module is still a valid one to run, so this is a
//     warning checked before Prepare rather than its refusal;
//   - MH008: a point sits in a procedure unreachable from main — it will
//     never execute. These are the refusals of the callgraph.BuildReconfig
//     call Prepare makes first, one at each such point's marker;
//   - MH009: a recursive cycle reachable from main contains no point — a
//     computation stuck in that cycle delays reconfiguration indefinitely
//     (the paper's Discussion bounds the delay by the time to the *next*
//     point, which here never comes).
func checkPlacement(r *diag.Report, prog *lang.Program, info *lang.Info) bool {
	if len(info.Points) == 0 {
		r.Add(CodeNoPoints, diag.SevWarning, declPos(prog, "main"),
			"module declares no reconfiguration points; it cannot be replaced while running")
		return false
	}

	g := callgraph.Build(prog)
	_, err := callgraph.BuildReconfig(g, info)
	refusals(r, CodePointUnreachable, "", "", err)
	reach := g.ReachableFrom("main")

	pointFuncs := map[string]bool{}
	for _, pt := range info.Points {
		pointFuncs[pt.Func] = true
	}
	for _, comp := range g.CyclicSCCs() {
		// A strongly connected component is reachable iff any member is.
		if !reach[comp[0]] {
			continue
		}
		hasPoint := false
		for _, fn := range comp {
			if pointFuncs[fn] {
				hasPoint = true
				break
			}
		}
		if hasPoint {
			continue
		}
		r.Add(CodeCycleNoPoint, diag.SevWarning, declPos(prog, comp[0]),
			"recursive cycle {%s} is reachable from main but contains no reconfiguration point; a computation inside it delays reconfiguration indefinitely",
			strings.Join(comp, ", "))
	}
	return err == nil
}

// declPos returns the declaration position of a function, or a zero
// position when it does not exist.
func declPos(prog *lang.Program, fn string) token.Position {
	if f, ok := prog.Funcs[fn]; ok && f.Decl != nil {
		return prog.Fset.Position(f.Decl.Pos())
	}
	return token.Position{}
}
