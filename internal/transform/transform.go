// Package transform implements the paper's contribution: the automatic
// source transformation that prepares a module for participation in dynamic
// reconfiguration (Section 3).
//
// Given a module program with programmer-designated reconfiguration points
// (mh.ReconfigPoint markers), Prepare:
//
//  1. builds the static call graph and the reconfiguration graph
//     (internal/callgraph) — only procedures on a path from main to a
//     reconfiguration point are instrumented;
//  2. flattens those procedures (internal/flatten) so every resume label is
//     at the top level, making the restore-block gotos legal Go;
//  3. hoists call arguments that could fault when re-evaluated into
//     captured temporaries — this reproduction's stronger version of the
//     paper's dummy-argument substitution: the re-issued call sees the
//     *original* argument values, restored from the frame, instead of
//     dummies;
//  4. chooses each procedure's capture set (all locals, the liveness-
//     trimmed union, or the specification-supplied lists);
//  5. weaves one restore block per procedure (Figure 8) and one capture
//     block per reconfiguration-graph edge (Figure 7), with resume labels
//     Li at call sites and the point label at each reconfiguration point;
//  6. prunes unused labels, prints the program once and parses and checks
//     that text, so the output provably parses, checks, and remains in the
//     module subset.
//
// The output runs under the interpreter and compiles as real Go against
// the mh runtime (cmd/mhgen emits a standalone package).
package transform

import (
	"fmt"
	"go/ast"
	"sort"

	"repro/internal/callgraph"
	"repro/internal/flatten"
	"repro/internal/lang"
	"repro/internal/liveness"
)

// CaptureMode selects how per-procedure capture sets are derived.
type CaptureMode int

const (
	// CaptureAll captures every parameter and local of an instrumented
	// procedure — the conservative default, "the relevant variables are
	// the parameters and local variables of a procedure".
	CaptureAll CaptureMode = iota + 1
	// CaptureLive trims the set to the union, over the procedure's
	// reconfiguration-graph edges, of the variables live at the resume
	// point (the paper's suggested data-flow analysis, implemented).
	CaptureLive
	// CaptureSpec uses the variable lists declared with each
	// reconfiguration point in the configuration specification (Figure 2)
	// for the procedures that contain points, and all locals elsewhere.
	CaptureSpec
)

// String names the mode.
func (m CaptureMode) String() string {
	switch m {
	case CaptureAll:
		return "all"
	case CaptureLive:
		return "live"
	case CaptureSpec:
		return "spec"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Options configures Prepare.
type Options struct {
	Mode CaptureMode
	// PointVars supplies the per-point variable lists for CaptureSpec,
	// keyed by point label (from mil.ReconfigPoint.Vars).
	PointVars map[string][]string
}

// CapturedVar is one variable of a procedure's capture set.
type CapturedVar struct {
	Name    string
	Type    lang.Type
	Pointer bool // pointer parameter: captured as *name, restored through name
}

// FuncReport describes the instrumentation of one procedure.
type FuncReport struct {
	Name     string
	Captured []CapturedVar
	Format   string // mh_capture/mh_restore format string (location first)
	Edges    []int  // reconfiguration-graph edge numbers owned by this node
}

// Output is the result of Prepare.
type Output struct {
	// Prog and Info describe the instrumented program, parsed and checked
	// from the printed output.
	Prog *lang.Program
	Info *lang.Info
	// Files holds the formatted instrumented sources.
	Files map[string]string
	// Graph is the reconfiguration graph the instrumentation follows
	// (built on the flattened program; edge numbers match the integers in
	// the woven mh.Capture calls).
	Graph *callgraph.RGraph
	// Funcs reports per-procedure capture sets, keyed by name.
	Funcs map[string]*FuncReport
	// source is the reconfiguration graph of the source as written.
	source *callgraph.RGraph
}

// inspect is a test seam: it is shown the one AST after each in-place pass.
var inspect = func(pass string, prog *lang.Program) {}

// Prepare transforms a module program for reconfiguration participation.
// It is one pipeline over one AST: the sources are parsed once, every pass
// rewrites the instrumented procedures in place and is followed by a fresh
// lang.Check of the whole program (no pass touches a declaration or a
// signature, so the declaration tables stay valid), and the result is printed
// once and parsed once more, so that Prog, Info and every run-time error
// position describe the text in Files.
func Prepare(sources map[string]string, opts Options) (*Output, error) {
	if opts.Mode == 0 {
		opts.Mode = CaptureAll
	}
	prog, err := lang.ParseFiles(sources)
	if err != nil {
		return nil, err
	}
	info, err := lang.Check(prog)
	if err != nil {
		return nil, fmt.Errorf("transform: %w", err)
	}

	// The graph of the untouched source determines the node set (and is
	// what Figure 6 draws).
	rg0, err := callgraph.BuildReconfig(callgraph.Build(prog), info)
	if err != nil {
		return nil, fmt.Errorf("transform: %w", err)
	}
	nodeSet := map[string]bool{}
	for _, n := range rg0.Nodes {
		nodeSet[n] = true
	}

	// Flatten every instrumented procedure.
	for _, name := range rg0.Nodes {
		if _, err := flatten.Function(prog, info, name); err != nil {
			return nil, fmt.Errorf("transform: %w", err)
		}
	}
	inspect("flatten", prog)
	if info, err = lang.Check(prog); err != nil {
		return nil, fmt.Errorf("transform: after flatten: %w", err)
	}

	// Hoist unsafe arguments of instrumented calls into captured temps.
	if err := hoistUnsafeArgs(prog, info, nodeSet); err != nil {
		return nil, err
	}
	inspect("hoist", prog)
	if info, err = lang.Check(prog); err != nil {
		return nil, fmt.Errorf("transform: after hoisting: %w", err)
	}

	// Rebuild the graph on the flattened program; its edge numbers are
	// the integers woven into the capture/restore blocks.
	rg, err := callgraph.BuildReconfig(callgraph.Build(prog), info)
	if err != nil {
		return nil, fmt.Errorf("transform: %w", err)
	}
	if err := sameNodes(rg0, rg); err != nil {
		return nil, err
	}

	// Per-procedure liveness (capture-set trimming and pointer-local
	// validation).
	live := map[string]*liveness.Analysis{}
	for _, name := range rg.Nodes {
		a, err := liveness.Analyze(prog, info, name)
		if err != nil {
			return nil, fmt.Errorf("transform: %w", err)
		}
		live[name] = a
	}

	out := &Output{Graph: rg, Funcs: map[string]*FuncReport{}, source: rg0}
	w := &weaver{prog: prog, info: info, rg: rg, live: live, opts: opts, out: out}
	for _, name := range rg.Nodes {
		if err := w.weaveFunc(name); err != nil {
			return nil, err
		}
	}

	// Prune generated labels nothing targets; keep the resume labels.
	for _, name := range rg.Nodes {
		flatten.PruneLabels(prog.Funcs[name].Decl, w.keepLabels[name])
	}
	inspect("weave", prog)

	if out.Files, err = lang.FormatProgram(prog, nodeSet); err != nil {
		return nil, fmt.Errorf("transform: format output: %w", err)
	}
	if out.Prog, err = lang.ParseFiles(out.Files); err == nil {
		out.Info, err = lang.Check(out.Prog)
	}
	if err != nil {
		return nil, fmt.Errorf("transform: output does not re-check: %w", err)
	}
	return out, nil
}

// StaticDOT and ReconfigDOT render the static call graph and the
// reconfiguration graph of the untouched source in Graphviz format
// (Figure 6).
func (o *Output) StaticDOT() string   { return o.source.Graph.DOT() }
func (o *Output) ReconfigDOT() string { return o.source.DOT() }

func sameNodes(a, b *callgraph.RGraph) error {
	if len(a.Nodes) != len(b.Nodes) {
		return fmt.Errorf("transform: node set changed across flattening (%v vs %v)", a.Nodes, b.Nodes)
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return fmt.Errorf("transform: node set changed across flattening (%v vs %v)", a.Nodes, b.Nodes)
		}
	}
	return nil
}

// PrepareSource is Prepare for a single-file module.
func PrepareSource(name, src string, opts Options) (*Output, error) {
	return Prepare(map[string]string{name: src}, opts)
}

// Source returns the single instrumented source file (convenience for
// single-file modules).
func (o *Output) Source() (string, error) {
	if len(o.Files) != 1 {
		return "", fmt.Errorf("transform: output has %d files", len(o.Files))
	}
	for _, src := range o.Files {
		return src, nil
	}
	return "", nil
}

// ReportString summarizes the instrumentation deterministically.
func (o *Output) ReportString() string {
	names := make([]string, 0, len(o.Funcs))
	for n := range o.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for _, n := range names {
		fr := o.Funcs[n]
		s += fmt.Sprintf("func %s: format %q, edges %v, captures", n, fr.Format, fr.Edges)
		for _, cv := range fr.Captured {
			if cv.Pointer {
				s += " *" + cv.Name
			} else {
				s += " " + cv.Name
			}
		}
		s += "\n"
	}
	return s
}

// collectLabels returns every label declared in fn.
func collectLabels(fn *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if ls, ok := n.(*ast.LabeledStmt); ok {
			out[ls.Label.Name] = true
		}
		return true
	})
	return out
}
