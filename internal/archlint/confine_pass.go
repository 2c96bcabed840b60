package archlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// confinement is one "these methods may only be called from there" rule:
// every use of recv's methods, resolved by type — a comment or string
// naming the method, or a same-named method on an unrelated type, does not
// match — must come from a caller the row allows.
type confinement struct {
	code    string
	pkg     string // package declaring recv
	recv    string
	methods []string
	// allowed judges a use by the calling package's path, the calling file's
	// base name and the enclosing method's name ("" outside a method).
	allowed func(pkg, file, method string) bool
	message string // Printf format taking recv and the method name
}

// confinements is the table behind AL002, AL012, AL014 and AL013's third
// rule.
func confinements(modPath string) []confinement {
	p := func(s string) string { return modPath + "/" + s }
	busPkg, tracePkg, replayPkg := p("internal/bus"), p("internal/telemetry/trace"), p("internal/replay")
	evlogPkg, timeseriesPkg, reconfigPkg := p("internal/telemetry/evlog"), p("internal/telemetry/timeseries"), p("internal/reconfig")
	return []confinement{
		// AL002: the causal clock is advanced only inside the transport
		// layer; every package but internal/bus and the trace package itself
		// must carry contexts opaquely.
		{
			code: CodeTraceMint, pkg: tracePkg, recv: "Tracer",
			methods: []string{"MintTrace", "ChildSpan", "StampBatch"},
			allowed: func(pkg, _, _ string) bool { return pkg == busPkg || pkg == tracePkg },
			message: "trace minting (%s.%s) outside the bus layer: only internal/bus and internal/telemetry/trace may advance the causal clock",
		},
		// AL013, rule 3: a topology change meets traffic in one function, the
		// commit. It alone fences a queue, takes what the fenced queue holds
		// and puts it back — always with a successor snapshot published
		// behind the fence, without which a refused writer would be refused
		// on the slow path too.
		{
			code: CodeRingProtocol, pkg: busPkg, recv: "msgQueue",
			methods: []string{"detach", "drain", "restore"},
			allowed: func(_, file, method string) bool {
				return file == "queue.go" || file == "bus.go" && method == "editLocked"
			},
			message: "queue fenced or emptied (%s.%s) outside the commit: only (*Bus).editLocked fences, drains and restores queues, and publishes a successor snapshot behind every fence",
		},
		// AL012: a recorded window's QSeq order is the queue's true delivery
		// order only because QueueLog.Append runs inside msgQueue.record, the
		// single hook the consumer-side pop/tryPop path calls as it removes a
		// message: ring slot-claim order is delivery order. An append from a
		// producer path or any other layer would interleave records outside
		// that order and silently break every downstream consumer (the
		// preflight gate, cmd/mhreplay, the replay op).
		{
			code: CodeRecordAppend, pkg: replayPkg, recv: "QueueLog",
			methods: []string{"Append"},
			allowed: func(pkg, file, method string) bool {
				return pkg == replayPkg || pkg == busPkg && file == "queue.go" && method == "record"
			},
			message: "record-log append (%s.%s) outside the consumer drain: only msgQueue.record in queue.go may record, at consumption where ring slot order is delivery order",
		},
		// AL014, event log: fed only from the control plane's serialized
		// choke points — the reconfig supervisor (Poll is pollMu-serialized)
		// and the top-level composition (the bus observer bridge and the
		// transaction wrapper). An append from a lower layer would put ring
		// writes on paths with no ordering relationship to the topology
		// changes the log narrates, and make that layer depend on the
		// observability vocabulary the DAG keeps above it.
		{
			code: CodeObsRing, pkg: evlogPkg, recv: "Log",
			methods: []string{"Append"},
			allowed: func(pkg, _, _ string) bool { return pkg == evlogPkg || pkg == reconfigPkg || pkg == modPath },
			message: "event-log append (evlog.%s.%s) outside its feeders: only the reconfig supervisor and the top-level observer bridge append, from their serialized control paths",
		},
		// AL014, window roller: Roll samples the registry's cumulative
		// atomics from exactly one place, its own background loop; a roll
		// from anywhere else would close windows early, skewing every
		// per-window delta and quantile the health checker and the timeseries
		// op report. Tests (excluded from analysis) may roll by hand.
		{
			code: CodeObsRing, pkg: timeseriesPkg, recv: "Roller",
			methods: []string{"Roll"},
			allowed: func(pkg, _, _ string) bool { return pkg == timeseriesPkg },
			message: "window roll (timeseries.%s.%s) outside the roller's background loop: an out-of-band roll closes windows early and skews every per-window delta and quantile",
		},
	}
}

// confinePass enforces every row of the confinement table in one walk over
// each package's resolved identifiers.
func (a *analysis) confinePass() {
	table := confinements(a.mod.path)
	for _, p := range a.checked() {
		for id, obj := range p.info.Uses {
			fn, _ := obj.(*types.Func)
			if fn == nil || recvNamed(fn) == nil {
				continue
			}
			recv := recvNamed(fn).Obj().Name()
			for _, c := range table {
				if pkgPathOf(fn) != c.pkg || recv != c.recv || !slices.Contains(c.methods, fn.Name()) {
					continue
				}
				if !c.allowed(p.path, a.mod.fileBase(id.Pos()), enclosingMethod(p, id.Pos())) {
					a.diag(c.code, id.Pos(), c.message, c.recv, fn.Name())
				}
			}
		}
	}
}

// enclosingMethod returns the name of the top-level method of p whose
// declaration spans pos, or "" when pos is not inside a method.
func enclosingMethod(p *pkg, pos token.Pos) string {
	for _, f := range p.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Pos() <= pos && pos <= fd.End() {
				return fd.Name.Name
			}
		}
	}
	return ""
}
