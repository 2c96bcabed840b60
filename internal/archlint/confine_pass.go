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

// confinements is the table behind AL002, AL012, AL014 and AL013's
// commit-only rule.
func confinements(modPath string) []confinement {
	p := func(s string) string { return modPath + "/" + s }
	busPkg, queuePkg, routingPkg := p("internal/bus"), p("internal/bus/internal/queue"), p("internal/bus/internal/routing")
	tracePkg, replayPkg := p("internal/telemetry/trace"), p("internal/replay")
	evlogPkg, reconfigPkg := p("internal/telemetry/evlog"), p("internal/reconfig")
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
		// AL013, commit-only: a topology change meets traffic in one
		// function, the routing package's commit. It alone fences a queue,
		// takes what the fenced queue holds and puts it back — always with a
		// successor table published behind the fence, without which a
		// refused writer would be refused on the slow path too. The bus runs
		// it from its own commit only, under the writer lock its slow path
		// waits on.
		{
			code: CodeRingProtocol, pkg: queuePkg, recv: "Queue",
			methods: []string{"Detach", "Drain", "Restore"},
			allowed: func(pkg, _, method string) bool {
				return pkg == queuePkg || pkg == routingPkg && method == "Commit"
			},
			message: "queue fenced or emptied (%s.%s) outside the commit: only (*Published).Commit fences, drains and restores queues, and publishes a successor table behind every fence",
		},
		{
			code: CodeRingProtocol, pkg: routingPkg, recv: "Published",
			methods: []string{"Commit"},
			allowed: func(pkg, file, method string) bool {
				return pkg == routingPkg || pkg == busPkg && file == "bus.go" && method == "editLocked"
			},
			message: "routing table committed (%s.%s) outside the bus's commit: only (*Bus).editLocked commits, under the writer lock the fenced writers wait on",
		},
		// AL012: a recorded window's QSeq order is the queue's true delivery
		// order only because QueueLog.Append runs inside Queue.record, the
		// single hook the consumer-side Pop/TryPop path calls as it removes a
		// message: ring slot-claim order is delivery order. An append from a
		// producer path or any other layer would interleave records outside
		// that order and silently break every downstream consumer (the
		// preflight gate, cmd/mhreplay, the replay op).
		{
			code: CodeRecordAppend, pkg: replayPkg, recv: "QueueLog",
			methods: []string{"Append"},
			allowed: func(pkg, file, method string) bool {
				return pkg == replayPkg || pkg == queuePkg && file == "queue.go" && method == "record"
			},
			message: "record-log append (%s.%s) outside the consumer drain: only Queue.record in the queue package's queue.go may record, at consumption where ring slot order is delivery order",
		},
		// AL014: the event log is an ordered trace of what the bus
		// committed, so the bus appends from one function, (*Bus).emit,
		// which the commit calls under Bus.mu in commit order and each
		// hand-off calls before its counterpart can observe it. The other
		// feeders are the control plane's serialized choke points: the
		// reconfig supervisor (its passes run on its one loop) and the
		// top-level transaction wrapper. An append from anywhere else would
		// interleave records outside the order they narrate.
		{
			code: CodeObsRing, pkg: evlogPkg, recv: "Log",
			methods: []string{"Append"},
			allowed: func(pkg, file, method string) bool {
				return pkg == evlogPkg || pkg == reconfigPkg || pkg == modPath || pkg == busPkg && file == "event.go" && method == "emit"
			},
			message: "event-log append (evlog.%s.%s) outside its feeders: only (*Bus).emit, the reconfig supervisor and the top-level transaction wrapper append, each in the order of what it records",
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
