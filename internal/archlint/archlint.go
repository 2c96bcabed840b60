// Package archlint is the architectural-invariant analyzer for the
// bus/reconfig substrate. Where internal/analyze checks a *module
// program's* reconfiguration safety (the paper's programmer obligations),
// archlint checks the *runtime's own source* for the structural invariants
// its safe-replacement argument rests on and the compiler cannot: the
// message hot path wait-free and allocation-free, and the
// routing/queueing/transport layering acyclic. Who may mint a trace, fence
// a queue, commit a routing table or append to a log is the compiler's to
// check: only the holder of the value can. Whether the queue's claim,
// publish and fence protocol keeps every message exactly once is checked by
// running it: internal/bus's TestBusLinearizable.
//
// The analyzer parses and type-checks the whole module with go/parser and
// go/types (stdlib only — go.mod stays dependency-free) and reports every
// violation as a Diagnostic with a stable ALxxx code, rendered via the
// shared internal/diag package in the same text and JSON forms as
// cmd/mhlint. The suite is self-hosting: `archlint ./...` must exit clean
// on this repository, and scripts/check.sh enforces that before the
// race-detector runs.
package archlint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/diag"
)

// Diagnostic codes. Codes are stable across releases: tools may match on
// them, and the README documents each one. Every archlint finding is an
// error: an architectural invariant either holds or it does not.
const (
	// CodeTypeError: a package fails to parse or type-check; deep passes
	// are skipped for it.
	CodeTypeError = "AL001"
	// CodeBlockUnderLock: a blocking construct (channel operation, Wait,
	// sleep, network call, lock-taking bus or routing method) while the
	// routing writer lock is held — in a method of the routing Committer
	// or in a callback the bus hands one.
	CodeBlockUnderLock = "AL004"
	// CodeHotpathAlloc: an allocating construct (capturing closure,
	// interface conversion, fmt call, make/new, non-amortized append,
	// string concatenation or conversion) inside a function annotated
	// //archlint:hotpath.
	CodeHotpathAlloc = "AL007"
	// CodeSpawn: a go statement without an //archlint:spawn annotation on
	// the same line or the line above.
	CodeSpawn = "AL009"
	// CodeImportLayer: a package imports a package of a higher
	// architectural layer (e.g. telemetry importing bus).
	CodeImportLayer = "AL010"
)

// Config parameterizes a run.
type Config struct {
	// Dir is the module root (the directory holding go.mod).
	Dir string
}

// rules binds the invariant passes to the module's package layout. Paths
// are derived from the module path so the fixtures (module "repro") and the
// real repository share one rule set.
type rules struct {
	busPkg     string // the message bus
	queuePkg   string // the bus's message queue, importable only by the bus
	routingPkg string // the bus's routing tables, their commit and its lock

	// layers is the architectural DAG for AL010: a package may import only
	// packages at its own layer or below. Unlisted packages (top-level
	// composition, cmd/, examples, the analyzers) are unconstrained.
	layers map[string]int
}

func defaultRules(modPath string) *rules {
	p := func(s string) string { return modPath + "/" + s }
	return &rules{
		busPkg:     p("internal/bus"),
		queuePkg:   p("internal/bus/internal/queue"),
		routingPkg: p("internal/bus/internal/routing"),
		layers: map[string]int{
			p("internal/clock"):                5,
			p("internal/ring"):                 5,
			p("internal/telemetry"):            10,
			p("internal/telemetry/trace"):      10,
			p("internal/telemetry/evlog"):      10,
			p("internal/telemetry/timeseries"): 10,
			p("internal/telemetry/health"):     10,
			p("internal/faultinject"):          10,
			p("internal/codec"):                10,
			p("internal/state"):                10,
			p("internal/replay"):               10,
			p("internal/bus/internal/queue"):   15,
			p("internal/bus/internal/routing"): 17,
			p("internal/bus"):                  20,
			p("internal/mh"):                   30,
			p("internal/reconfig"):             30,
			p("internal/replay/rerun"):         30,
		},
	}
}

// analysis is the state of one run over a loaded module.
type analysis struct {
	mod    *module
	rules  *rules
	report *diag.Report
	ann    *annotations
}

// Run loads the module at cfg.Dir and applies every invariant pass,
// returning the sorted report. The returned error covers only failures to
// load at all (missing go.mod, unreadable tree, import cycle); source that
// parses or checks badly is reported as AL001 diagnostics instead.
func Run(cfg Config) (*diag.Report, error) {
	dir := cfg.Dir
	if dir == "" {
		dir = "."
	}
	m, err := loadModule(dir)
	if err != nil {
		return nil, err
	}
	a := &analysis{
		mod:    m,
		rules:  defaultRules(m.path),
		report: &diag.Report{},
		ann:    collectAnnotations(m),
	}
	a.typeErrorPass()
	a.mutexPass()
	a.hotpathPass()
	a.spawnPass()
	a.layeringPass()
	a.report.Sort()
	return a.report, nil
}

// diag records a finding.
func (a *analysis) diag(code string, pos token.Pos, format string, args ...any) {
	a.report.Add(code, diag.SevError, a.mod.fset.Position(pos), format, args...)
}

// typeErrorPass reports packages that failed to parse or type-check.
func (a *analysis) typeErrorPass() {
	const cap = 20
	for _, p := range a.mod.pkgs {
		for i, err := range p.typeErrs {
			if i == cap {
				a.report.Add(CodeTypeError, diag.SevError, token.Position{},
					"%s: further errors omitted", p.path)
				break
			}
			if terr, ok := err.(types.Error); ok {
				a.report.Add(CodeTypeError, diag.SevError, terr.Fset.Position(terr.Pos),
					"%s", terr.Msg)
				continue
			}
			a.report.Add(CodeTypeError, diag.SevError, token.Position{}, "%s: %v", p.path, err)
		}
	}
}

// checked returns the packages whose deep (type-sensitive) passes may run.
func (a *analysis) checked() []*pkg {
	var out []*pkg
	for _, p := range a.mod.pkgs {
		if len(p.typeErrs) == 0 && p.tpkg != nil {
			out = append(out, p)
		}
	}
	return out
}

// --- shared type helpers -------------------------------------------------

// funcDecls returns p's function and method declarations that have bodies.
func funcDecls(p *pkg) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range p.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// namedOf unwraps pointers and returns the named type of t, or nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// recvNamed returns the receiver's named type of fn, or nil for
// package-level functions.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedOf(sig.Recv().Type())
}

// calleeFunc resolves the function or method a call invokes, or nil for
// builtins, conversions, and calls of function-typed values.
func calleeFunc(p *pkg, call *ast.CallExpr) *types.Func { return funcOf(p, call.Fun) }

// funcOf resolves an expression naming a function or method (a method
// value among them), or returns nil.
func funcOf(p *pkg, e ast.Expr) *types.Func {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := p.info.Uses[x].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.info.Uses[x.Sel].(*types.Func)
		return fn
	}
	return nil
}

// pkgPathOf returns the import path of fn's package, or "" for objects in
// the universe scope.
func pkgPathOf(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}
