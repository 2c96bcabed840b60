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
//  6. prunes unused labels and checks the woven AST in place, so the
//     program the interpreter lowers is the one the checker accepted. This
//     is the second of two checks: the first is of the source as written,
//     and flatten and hoist keep its Info matching what they rewrite, so
//     the steps between read an Info without checking again.
//
// The woven program is never printed on the way: Output.Files prints it on
// request, and parses and checks that text, so whoever reads it (cmd/mhgen,
// Output.Standalone) gets a program that provably parses, checks and stays
// in the module subset. It runs under the interpreter and compiles as real
// Go against the mh runtime (cmd/mhgen emits a standalone package).
package transform

import (
	"fmt"
	"slices"
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
	// Mode is the capture mode; zero is ResolveMode's default.
	Mode CaptureMode
	// PointVars supplies the per-point variable lists for CaptureSpec,
	// keyed by point label (mil.Module.PointVars).
	PointVars map[string][]string
}

// ResolveMode returns the capture mode Prepare runs for mode and the
// per-point variable lists pointVars: mode when it is set, otherwise the
// paper's convention — the specification's state lists (CaptureSpec) when
// it declares any, every local (CaptureAll) when it declares none.
func ResolveMode(mode CaptureMode, pointVars map[string][]string) CaptureMode {
	switch {
	case mode != 0:
		return mode
	case len(pointVars) > 0:
		return CaptureSpec
	default:
		return CaptureAll
	}
}

// CapturedVar is one variable of a procedure's capture set.
type CapturedVar struct {
	Name    string
	Type    lang.Type
	Pointer bool // pointer parameter: captured as *name, restored through name
}

// FuncReport describes the instrumentation of one procedure, and the
// liveness facts its capture set was chosen from: whatever mode ran, Live
// and Read are the data-flow answer, so a declared list can be checked
// against them (internal/analyze does).
type FuncReport struct {
	Name     string
	Captured []CapturedVar
	Format   string // mh_capture/mh_restore format string (location first)
	Edges    []int  // reconfiguration-graph edge numbers owned by this node
	// Live is what is live after some edge: what a frame must carry for the
	// procedure to resume. Read is what some edge's capture reads: what is
	// live after a reconfiguration point, or before a call, whose re-issue
	// reads its arguments. Both are sorted, address-taken variables in.
	Live, Read []string
}

// Output is the result of Prepare.
type Output struct {
	// Prog and Info are the instrumented program: the woven AST, checked in
	// place. Nodes the passes kept carry their source positions; statements
	// the weaver made have none.
	Prog *lang.Program
	Info *lang.Info
	// Graph is the reconfiguration graph the instrumentation follows
	// (built on the flattened program; edge numbers match the integers in
	// the woven mh.Capture calls).
	Graph *callgraph.RGraph
	// Funcs reports per-procedure capture sets, keyed by name.
	Funcs map[string]*FuncReport
	// source is the reconfiguration graph of the source as written.
	source *callgraph.RGraph
}

// Test seams. inspect is shown the one AST after each in-place pass, with
// the Info the pass kept (nil after weave, whose check follows); every
// lang check Prepare runs goes through check.
var (
	inspect = func(pass string, prog *lang.Program, info *lang.Info) {}
	check   = lang.CheckSized
)

// Prepare transforms a module program for reconfiguration participation.
// It is one pipeline over one AST: the sources are parsed once and checked
// once as written, so an error cites the programmer's line. Flatten and
// hoist rewrite the instrumented procedures in place and keep that check's
// Info matching what they leave (no pass touches a declaration or a
// signature, so the declaration tables stay valid). The woven program is
// checked once more, with tables sized for it; that check's program and
// Info are the output, so the program the interpreter lowers is the one the
// checker accepted, and a pass that made an ill-typed program fails here.
// Nothing is printed until Files is called.
//
// A refusal is a go/scanner error list, whichever pass made it, wrapped
// once with this package's name: errors.As finds each entry's position in
// the source as written.
func Prepare(sources map[string]string, opts Options) (*Output, error) {
	out, err := pipeline(sources, opts)
	if err != nil {
		return nil, fmt.Errorf("transform: %w", err)
	}
	return out, nil
}

// pipeline is Prepare less the wrapping.
func pipeline(sources map[string]string, opts Options) (*Output, error) {
	opts.Mode = ResolveMode(opts.Mode, opts.PointVars)
	prog, err := lang.ParseFiles(sources)
	if err != nil {
		return nil, err
	}
	info, err := check(prog, lang.Sizes{})
	if err != nil {
		return nil, err
	}

	// The graph of the untouched source determines the node set (and is
	// what Figure 6 draws).
	rg0, err := callgraph.BuildReconfig(callgraph.Build(prog), info)
	if err != nil {
		return nil, err
	}
	nodeSet := map[string]bool{}
	for _, n := range rg0.Nodes {
		nodeSet[n] = true
	}

	// Flatten every instrumented procedure.
	for _, name := range rg0.Nodes {
		if _, err := flatten.Function(prog, info, name); err != nil {
			return nil, err
		}
	}
	inspect("flatten", prog, info)

	// Hoist unsafe arguments of instrumented calls into captured temps.
	if err := hoistUnsafeArgs(prog, info, nodeSet); err != nil {
		return nil, err
	}
	inspect("hoist", prog, info)

	// Number the edges again on the flattened program; its edge numbers are
	// the integers woven into the capture/restore blocks. Flatten and hoist
	// move calls but add or remove none, so the static call graph, and with
	// it the node set, is the source's.
	rg, err := callgraph.BuildReconfig(rg0.Graph, info)
	if err != nil {
		return nil, err
	}

	// Per-procedure liveness (capture-set trimming, pointer-local
	// validation and the facts each FuncReport keeps).
	live := map[string]*liveness.Analysis{}
	for _, name := range rg.Nodes {
		a, err := liveness.Analyze(prog, info, name)
		if err != nil {
			return nil, err
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
	inspect("weave", prog, nil)
	sizes := lang.Sizes{
		Types: len(info.Types) + w.added.Types,
		Defs:  len(info.Defs) + w.added.Defs,
		Uses:  len(info.Uses) + w.added.Uses,
	}
	if info, err = check(prog, sizes); err != nil {
		return nil, fmt.Errorf("after weaving: %w", err)
	}
	out.Prog, out.Info = prog, info
	return out, nil
}

// Files prints the instrumented program, one gofmt-formatted source per
// file, and parses and checks what it printed, so the text is a module
// program in its own right. It prints afresh on every call.
func (o *Output) Files() (map[string]string, error) {
	files, _, err := o.text()
	return files, err
}

// text is Files together with the program parsed from the printed text:
// a fresh AST, shared with nothing.
func (o *Output) text() (map[string]string, *lang.Program, error) {
	rewritten := make(map[string]bool, len(o.Graph.Nodes))
	for _, name := range o.Graph.Nodes {
		rewritten[name] = true
	}
	files, err := lang.FormatProgram(o.Prog, rewritten)
	if err != nil {
		return nil, nil, fmt.Errorf("transform: format output: %w", err)
	}
	prog, err := lang.ParseFiles(files)
	if err == nil {
		_, err = lang.Check(prog)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("transform: output does not re-check: %w", err)
	}
	return files, prog, nil
}

// PointLabels lists the module's reconfiguration point labels, each once,
// in edge order. The woven program has no markers left; the graph's
// reconfiguration edges keep the labels.
func (o *Output) PointLabels() []string {
	var labels []string
	for _, e := range o.Graph.Edges {
		if e.IsReconfig() && !slices.Contains(labels, e.Point.Label) {
			labels = append(labels, e.Point.Label)
		}
	}
	return labels
}

// StaticDOT and ReconfigDOT render the static call graph and the
// reconfiguration graph of the untouched source in Graphviz format
// (Figure 6).
func (o *Output) StaticDOT() string   { return o.source.Graph.DOT() }
func (o *Output) ReconfigDOT() string { return o.source.DOT() }

// Source returns the single instrumented source file (convenience for
// single-file modules).
func (o *Output) Source() (string, error) {
	files, err := o.Files()
	if err != nil {
		return "", err
	}
	if len(files) != 1 {
		return "", fmt.Errorf("transform: output has %d files", len(files))
	}
	for _, src := range files {
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
