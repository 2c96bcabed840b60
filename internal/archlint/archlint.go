// Package archlint is the architectural-invariant analyzer for the
// bus/reconfig substrate. Where internal/analyze checks a *module
// program's* reconfiguration safety (the paper's programmer obligations),
// archlint checks the *runtime's own source* for the structural invariants
// its safe-replacement argument rests on: causal bookkeeping confined to
// the transport layer, the message hot path wait-free and allocation-free,
// and the routing/queueing/transport layering acyclic.
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
	// CodeTraceMint: trace minting (Tracer.MintTrace/ChildSpan/StampBatch)
	// outside internal/bus and internal/telemetry/trace.
	CodeTraceMint = "AL002"
	// CodeMuConfine: the Bus.mu control-plane lock referenced outside
	// bus.go.
	CodeMuConfine = "AL003"
	// CodeBlockUnderMu: a blocking construct (channel operation, Wait,
	// sleep, network call, mu-reacquiring Bus method) while Bus.mu is
	// held — in a locked region, a *Locked method or an edit callback.
	CodeBlockUnderMu = "AL004"
	// CodeLockOrder: Bus.mu (or a Bus method that takes it) acquired while
	// a message-queue lock is held — the sanctioned order is Bus.mu before
	// queue locks.
	CodeLockOrder = "AL005"
	// CodeSnapshot: the routing snapshot pointer accessed other than via
	// atomic Load/Store, published outside bus.go, or a routingTable field
	// written outside the copy-on-write builder in routing.go.
	CodeSnapshot = "AL006"
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
	// CodeBusFileLayer: a bus source file references a declaration of a
	// file higher in the routing -> queueing -> transport decomposition
	// than its layer permits.
	CodeBusFileLayer = "AL011"
	// CodeRecordAppend: a record-log append (replay.QueueLog.Append)
	// outside msgQueue's consumer-drain hook (msgQueue.record in queue.go)
	// — recorded QSeq is the true delivery order only because appends
	// happen at consumption, where ring slot-claim order is delivery order.
	CodeRecordAppend = "AL012"
	// CodeRingProtocol: a violation of the lock-free ring's atomic
	// protocol — slot publication flags written after the publish or
	// CAS'd, ring internals (slot/segment fields, the fence word) touched
	// outside queue.go, or the fence raised outside the routing layer.
	CodeRingProtocol = "AL013"
	// CodeObsRing: an observability-ring write outside its designated
	// feeder — an event-log append (evlog.Log.Append) from a layer other
	// than the reconfig supervisor or the top-level observer bridge, or a
	// window roll (timeseries.Roller.Roll) outside the roller's own
	// background loop.
	CodeObsRing = "AL014"
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
	busPkg string // the message bus: owns routing snapshots and Bus.mu

	// layers is the architectural DAG for AL010: a package may import only
	// packages at its own layer or below. Unlisted packages (top-level
	// composition, cmd/, examples, the analyzers) are unconstrained.
	layers map[string]int

	// busFiles is the intra-package layering for AL011, keyed by the
	// referencing file's base name. Each entry maps a declaring file to
	// the allowlist of its declarations the referencing file may use; a
	// nil allowlist forbids every reference.
	busFiles map[string]map[string][]string
}

func defaultRules(modPath string) *rules {
	p := func(s string) string { return modPath + "/" + s }
	return &rules{
		busPkg: p("internal/bus"),
		layers: map[string]int{
			p("internal/ring"):                 5,
			p("internal/telemetry"):            10,
			p("internal/telemetry/trace"):      10,
			p("internal/telemetry/evlog"):      10,
			p("internal/telemetry/timeseries"): 10,
			p("internal/telemetry/health"):     10,
			p("internal/faultinject"):          10,
			p("internal/codec"):                10,
			p("internal/state"):                10,
			p("internal/checkpoint"):           10,
			p("internal/quiesce"):              10,
			p("internal/replay"):               10,
			p("internal/bus"):                  20,
			p("internal/mh"):                   30,
			p("internal/reconfig"):             30,
			p("internal/replay/rerun"):         30,
		},
		busFiles: map[string]map[string][]string{
			// Routing is the bottom of the decomposition: it may not know
			// about queueing or transport.
			"routing.go": {
				"queue.go":  nil,
				"attach.go": nil,
				"tcp.go":    nil,
				"port.go":   nil,
			},
			// Queueing sits above routing: it may use the shared message
			// vocabulary (the Message type and what the record hook reads
			// to describe a delivery: payload, trace context and the
			// sender's interned name) and the stale-route sentinel, nothing
			// else.
			"queue.go": {
				"bus.go":     {"Message", "Data", "Trace", "sender"},
				"routing.go": {"errStaleRoute"},
				"attach.go":  nil,
				"tcp.go":     nil,
				"port.go":    nil,
				"event.go":   nil,
			},
			// Transport consults routing only through the Bus facade and
			// the published snapshot — never the mutation internals.
			"attach.go": {"routing.go": nil},
			"tcp.go":    {"routing.go": nil},
			"port.go":   {"routing.go": nil},
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
	a.confinePass()
	a.ringPass()
	a.mutexPass()
	a.snapshotPass()
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
func calleeFunc(p *pkg, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// fieldOwner reports the named type declaring the field selected by sel,
// or nil if sel is not a field selection.
func fieldOwner(p *pkg, sel *ast.SelectorExpr) *types.Named {
	s, ok := p.info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	return namedOf(s.Recv())
}

// isMuOp reports whether call is owner.<field>.Lock() or
// owner.<field>.Unlock() for a mutex field named field on the named type
// ownerName declared in ownerPkg.
func isMuOp(p *pkg, call *ast.CallExpr, ownerPkg *types.Package, ownerName, field string) (op string, ok bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if sel.Sel.Name != "Lock" && sel.Sel.Name != "Unlock" {
		return "", false
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok || inner.Sel.Name != field {
		return "", false
	}
	owner := fieldOwner(p, inner)
	if owner == nil || owner.Obj().Name() != ownerName || owner.Obj().Pkg() != ownerPkg {
		return "", false
	}
	return sel.Sel.Name, true
}

// pkgPathOf returns the import path of fn's package, or "" for objects in
// the universe scope.
func pkgPathOf(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}
