package analyze

import (
	"go/token"
	"sort"
	"strings"

	"repro/internal/callgraph"
	"repro/internal/flatten"
	"repro/internal/lang"
	"repro/internal/liveness"
	"repro/internal/mil"
	"repro/internal/transform"
)

// checkCapture cross-checks the specification's reconfiguration points
// against the source (MH003–MH005) and, when the configuration uses
// declared state lists, diffs them against the liveness analysis
// (MH006, MH007).
func checkCapture(r *Report, cfg Config, mod *mil.Module, prog *lang.Program, info *lang.Info) {
	srcPoints := map[string]lang.Point{}
	for _, pt := range info.Points {
		if _, dup := srcPoints[pt.Label]; !dup {
			srcPoints[pt.Label] = pt
		}
	}

	for i := range mod.ReconfigPoints {
		spt := &mod.ReconfigPoints[i]
		src, ok := srcPoints[spt.Label]
		if !ok {
			r.Add(CodePointNoMarker, SevError, milPos(cfg.SpecFile, spt.Pos),
				"specification point %s has no mh.ReconfigPoint(%q) marker in the source of module %s",
				spt.Label, spt.Label, mod.Name)
			continue
		}
		names := map[string]bool{}
		for _, v := range info.FuncVars[src.Func] {
			names[v.Name] = true
		}
		for _, v := range spt.Vars {
			if !names[v] {
				r.Add(CodeUnknownStateVar, SevError, milPos(cfg.SpecFile, spt.Pos),
					"state list for point %s names %s, which is not a parameter or local of %s",
					spt.Label, v, src.Func)
			}
		}
	}

	for _, pt := range info.Points {
		if mod.Point(pt.Label) == nil {
			r.Add(CodeMarkerNotInSpec, SevWarning, prog.Fset.Position(pt.Call.Pos()),
				"source reconfiguration point %s is not declared in the specification of module %s",
				pt.Label, mod.Name)
		}
	}

	// Declared capture lists only matter under specification mode; the
	// other modes derive the set and are sound by construction.
	if pvars := mod.PointVars(); len(pvars) == 0 || transform.ResolveMode(cfg.Mode, pvars) != transform.CaptureSpec {
		return
	}
	checkCaptureSoundness(r, cfg, mod)
}

// checkCaptureSoundness re-runs the transform's analysis pipeline — flatten
// the instrumented procedures, rebuild the reconfiguration graph, compute
// liveness, all on the one check of the source — and diffs each procedure's
// declared capture set against it.
//
// The soundness criterion is asymmetric, mirroring how restoration works
// (Section 3). Restore re-issues the original calls, and each callee
// restores its own frame, so what a frame must carry is exactly what is
// live *after* each of the procedure's reconfiguration-graph edges: a live
// variable missing there is unrecoverable state (MH006, error). A declared
// variable, however, is not waste just because it is dead after an edge —
// at a call edge it may exist to feed the re-issued call — so the dead
// warning (MH007) requires the variable to be dead at the capture
// *instant* of every edge: before each call, after each point marker.
//
// Liveness runs with MHOutParams so that runtime out-parameters
// (mh.Read(iface, &x)) count as definitions: the paper's own Figure 2 list
// {num, n, rp} — which omits temper — checks as sound.
func checkCaptureSoundness(r *Report, cfg Config, mod *mil.Module) {
	prog, err := lang.ParseFiles(cfg.Sources)
	if err != nil {
		return // reported as MH002 by the main pass
	}
	info, err := lang.Check(prog)
	if err != nil {
		return
	}
	rg, err := callgraph.BuildReconfig(callgraph.Build(prog), info)
	if err != nil {
		return // no points / unreachable point: reported by placement
	}
	for _, name := range rg.Nodes {
		if _, err := flatten.Function(prog, info, name); err != nil {
			return
		}
	}
	// flatten.Function kept info matching the flat program; pruning labels
	// changes nothing liveness or the graph reads, and flattening adds or
	// removes no call, so the static graph is the source's.
	for _, name := range rg.Nodes {
		flatten.PruneLabels(prog.Funcs[name].Decl, nil)
	}
	if rg, err = callgraph.BuildReconfig(rg.Graph, info); err != nil {
		return
	}

	pvars := mod.PointVars()
	for _, name := range rg.Nodes {
		edges := rg.EdgesFrom(name)

		// The declared set is the union of the state lists of the
		// procedure's specification points — the same rule the weaver
		// applies in spec mode. Procedures without declared lists fall
		// back to all-locals, which is always sound.
		declared := map[string]bool{}
		var order []string
		var anchor token.Position
		for _, e := range edges {
			if !e.IsReconfig() {
				continue
			}
			vars, ok := pvars[e.Point.Label]
			if !ok {
				continue
			}
			if !anchor.IsValid() && anchor.Filename == "" {
				if spt := mod.Point(e.Point.Label); spt != nil {
					anchor = milPos(cfg.SpecFile, spt.Pos)
				}
			}
			for _, v := range vars {
				if !declared[v] {
					declared[v] = true
					order = append(order, v)
				}
			}
		}
		if len(declared) == 0 {
			continue
		}

		a, err := liveness.AnalyzeOpts(prog, info, name, liveness.Options{MHOutParams: true})
		if err != nil {
			continue
		}

		required := map[string]bool{} // must be captured: live after some edge
		useful := map[string]bool{}   // read at some edge's capture instant
		for _, e := range edges {
			idx := edgeStmtIndex(a, prog, e)
			if idx < 0 {
				continue
			}
			for _, v := range a.LiveAfter(idx) {
				required[v] = true
			}
			if e.IsReconfig() {
				for _, v := range a.LiveAfter(idx) {
					useful[v] = true
				}
			} else {
				for _, v := range a.LiveBefore(idx) {
					useful[v] = true
				}
			}
		}

		for _, v := range sortedKeys(required) {
			if !declared[v] {
				r.Add(CodeCaptureMissing, SevError, anchor,
					"procedure %s: variable %s is live at a reconfiguration edge but missing from the declared capture set {%s}; restoring from it would lose state",
					name, v, strings.Join(order, ", "))
			}
		}

		procVars := map[string]bool{}
		for _, v := range info.FuncVars[name] {
			procVars[v.Name] = true
		}
		for _, v := range order {
			if procVars[v] && !useful[v] {
				r.Add(CodeCaptureDead, SevWarning, anchor,
					"procedure %s: captured variable %s is dead at every reconfiguration edge; capturing it only grows the abstract state",
					name, v)
			}
		}
	}
}

// edgeStmtIndex locates a reconfiguration-graph edge's statement in the
// flattened body, matching the weaver's notion of where capture happens.
func edgeStmtIndex(a *liveness.Analysis, prog *lang.Program, e callgraph.Edge) int {
	if e.IsReconfig() {
		return a.IndexOf(e.Point.Stmt)
	}
	for i, s := range a.Stmts {
		if lang.StmtCall(prog, s) == e.Call {
			return i
		}
	}
	return -1
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
