package analyze

import (
	"go/token"
	"slices"
	"strings"

	"repro/internal/diag"
	"repro/internal/lang"
	"repro/internal/mil"
	"repro/internal/transform"
)

// checkPoints cross-checks the specification's reconfiguration points
// against the source (MH003–MH005). MH005 is checked here, before Prepare,
// so that it anchors at the specification and Prepare goes on: the state
// lists returned leave out the names it reported, which Prepare would
// refuse, so the capture-set check (MH006, MH007) still runs.
func checkPoints(r *diag.Report, cfg Config, mod *mil.Module, prog *lang.Program, info *lang.Info) map[string][]string {
	srcPoints := map[string]lang.Point{}
	for _, pt := range info.Points {
		if _, dup := srcPoints[pt.Label]; !dup {
			srcPoints[pt.Label] = pt
		}
	}

	pvars := mod.PointVars()
	for i := range mod.ReconfigPoints {
		spt := &mod.ReconfigPoints[i]
		src, ok := srcPoints[spt.Label]
		if !ok {
			r.Add(CodePointNoMarker, diag.SevError, milPos(cfg.SpecFile, spt.Pos),
				"specification point %s has no mh.ReconfigPoint(%q) marker in the source of module %s",
				spt.Label, spt.Label, mod.Name)
			continue
		}
		names := map[string]bool{}
		for _, v := range info.FuncVars[src.Func] {
			names[v.Name] = true
		}
		var known []string
		for _, v := range spt.Vars {
			if !names[v] {
				r.Add(CodeUnknownStateVar, diag.SevError, milPos(cfg.SpecFile, spt.Pos),
					"state list for point %s names %s, which is not a parameter or local of %s",
					spt.Label, v, src.Func)
				continue
			}
			known = append(known, v)
		}
		if len(known) < len(spt.Vars) {
			pvars[spt.Label] = known
		}
	}

	for _, pt := range info.Points {
		if mod.Point(pt.Label) == nil {
			r.Add(CodeMarkerNotInSpec, diag.SevWarning, prog.Fset.Position(pt.Call.Pos()),
				"source reconfiguration point %s is not declared in the specification of module %s",
				pt.Label, mod.Name)
		}
	}
	return pvars
}

// checkCaptureSoundness diffs each procedure's declared capture set against
// the liveness facts Prepare recorded for it.
//
// The soundness criterion is asymmetric, mirroring how restoration works
// (Section 3). Restore re-issues the original calls, and each callee
// restores its own frame, so what a frame must carry is exactly what is
// live *after* each of the procedure's reconfiguration-graph edges
// (FuncReport.Live): a live variable missing there is unrecoverable state
// (MH006, error). A declared variable, however, is not waste just because
// it is dead after an edge — at a call edge it may exist to feed the
// re-issued call — so the dead warning (MH007) requires the variable to be
// dead at the capture *instant* of every edge, before each call and after
// each point marker (FuncReport.Read).
//
// Runtime out-parameters (mh.Read(iface, &x)) count as definitions, so the
// paper's own Figure 2 list {num, n, rp}, which omits temper, checks as
// sound.
func checkCaptureSoundness(r *diag.Report, cfg Config, mod *mil.Module, out *transform.Output) {
	pvars := mod.PointVars()
	for _, name := range out.Graph.Nodes {
		// The declared set is the union of the state lists of the
		// procedure's specification points, in specification order — the
		// same rule the weaver applies in spec mode. Procedures without
		// declared lists fall back to all-locals, which is always sound.
		var declared []string
		var anchor token.Position
		for _, e := range out.Graph.EdgesFrom(name) {
			if !e.IsReconfig() {
				continue
			}
			vars, ok := pvars[e.Point.Label]
			if !ok {
				continue
			}
			if len(declared) == 0 {
				anchor = milPos(cfg.SpecFile, mod.Point(e.Point.Label).Pos)
			}
			for _, v := range vars {
				if !slices.Contains(declared, v) {
					declared = append(declared, v)
				}
			}
		}
		if len(declared) == 0 {
			continue
		}

		fr := out.Funcs[name]
		for _, v := range fr.Live {
			if !slices.Contains(declared, v) {
				r.Add(CodeCaptureMissing, diag.SevError, anchor,
					"procedure %s: variable %s is live at a reconfiguration edge but missing from the declared capture set {%s}; restoring from it would lose state",
					name, v, strings.Join(declared, ", "))
			}
		}
		for _, v := range declared {
			// A name that is no variable of the procedure is MH005's.
			known := slices.ContainsFunc(out.Info.FuncVars[name], func(d *lang.VarDef) bool { return d.Name == v })
			if known && !slices.Contains(fr.Read, v) {
				r.Add(CodeCaptureDead, diag.SevWarning, anchor,
					"procedure %s: captured variable %s is dead at every reconfiguration edge; capturing it only grows the abstract state",
					name, v)
			}
		}
	}
}
