package analyze

import (
	"slices"

	"repro/internal/diag"
	"repro/internal/lang"
	"repro/internal/transform"
)

// checkReplacement verifies that a proposed replacement module can accept
// the running module's abstract state (Section 4: the new version is
// "prepared for replacement" with the *same* reconfiguration structure).
// It prepares the replacement under the options old was prepared with and
// compares, procedure by procedure:
//
//   - MH013: every instrumented procedure of the old module must exist in
//     the new one — its activation records name that procedure;
//   - MH014: the capture sets must agree in arity and (deeply) in type, or
//     a captured frame cannot be installed; a pure rename is a warning,
//     because frames carry values positionally;
//   - MH015: the procedure's reconfiguration-graph edge numbers and the
//     module's point labels must match, or resume locations in restored
//     frames would name different program points.
//
// Prepare rewrites bodies but no declaration, so the prepared programs'
// declarations keep their source positions for the diagnostics.
func checkReplacement(r *diag.Report, old *transform.Output, replacement map[string]string, opts transform.Options) {
	neu, err := transform.Prepare(replacement, opts)
	if err != nil {
		// A refusal of the source itself is MH002, any other MH016.
		if _, _, ok := checked(r, replacement, "replacement: "); ok {
			refusals(r, CodeCannotPrepare, "", "replacement module cannot be prepared: ", err)
		}
		return
	}

	for _, name := range old.Graph.Nodes {
		oldFr := old.Funcs[name]
		newFr := neu.Funcs[name]
		if newFr == nil {
			r.Add(CodeReplacementDropsProc, diag.SevError, declPos(old.Prog, name),
				"replacement module has no instrumented procedure %s; its activation records cannot be mapped", name)
			continue
		}
		pos := declPos(neu.Prog, name)
		if len(oldFr.Captured) != len(newFr.Captured) {
			r.Add(CodeReplacementShape, diag.SevError, pos,
				"procedure %s: capture set has %d variable(s) but the replacement's has %d; frames cannot be installed",
				name, len(oldFr.Captured), len(newFr.Captured))
			continue
		}
		for i := range oldFr.Captured {
			ov, nv := oldFr.Captured[i], newFr.Captured[i]
			if !compatibleTypes(ov.Type, nv.Type) || ov.Pointer != nv.Pointer {
				r.Add(CodeReplacementShape, diag.SevError, pos,
					"procedure %s: capture slot %d is %s %s but %s %s in the replacement; the value cannot be converted",
					name, i+1, ov.Name, describeVar(ov), nv.Name, describeVar(nv))
				continue
			}
			if ov.Name != nv.Name {
				r.Add(CodeReplacementShape, diag.SevWarning, pos,
					"procedure %s: capture slot %d renames %s to %s; values transfer positionally but the mapping deserves review",
					name, i+1, ov.Name, nv.Name)
			}
		}
		if !slices.Equal(oldFr.Edges, newFr.Edges) {
			r.Add(CodeReplacementEdges, diag.SevError, pos,
				"procedure %s: reconfiguration edges %v differ from the replacement's %v; restored resume locations would not align",
				name, oldFr.Edges, newFr.Edges)
		}
	}

	newLabels := neu.PointLabels()
	for _, l := range old.PointLabels() {
		if !slices.Contains(newLabels, l) {
			r.Add(CodeReplacementEdges, diag.SevError, declPos(neu.Prog, "main"),
				"replacement module drops reconfiguration point %s; state captured there has no installation site", l)
		}
	}
}

// compatibleTypes reports deep structural compatibility of two
// module-subset types. lang.Type.Equal compares named structs by name
// only, so replacement checking walks the shape instead: a struct may be
// renamed, but its fields must agree in name, order, and type for the
// captured value to install.
func compatibleTypes(a, b lang.Type) bool {
	switch at := a.(type) {
	case lang.Basic:
		bb, ok := b.(lang.Basic)
		return ok && at.B == bb.B
	case lang.Slice:
		bs, ok := b.(lang.Slice)
		return ok && compatibleTypes(at.Elem, bs.Elem)
	case lang.Pointer:
		bp, ok := b.(lang.Pointer)
		return ok && compatibleTypes(at.Elem, bp.Elem)
	case *lang.Struct:
		bst, ok := b.(*lang.Struct)
		if !ok || len(at.Fields) != len(bst.Fields) {
			return false
		}
		for i := range at.Fields {
			if at.Fields[i].Name != bst.Fields[i].Name ||
				!compatibleTypes(at.Fields[i].Type, bst.Fields[i].Type) {
				return false
			}
		}
		return true
	}
	return false
}

// describeVar renders a captured variable's type for diagnostics. A
// pointer parameter's Type already carries the * (it is captured by
// pointee value, restored through the pointer).
func describeVar(v transform.CapturedVar) string {
	return v.Type.String()
}
