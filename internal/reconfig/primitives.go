// Package reconfig implements the application-level reconfiguration layer:
// the parameterized reconfiguration scripts — Replace (and with it Move and
// Update), self-heal, Replicate, Remove — each a table of the primitive
// operations of Figure 5 (the mh_* control calls added to POLYLITH by the
// authors' earlier ICDCS '91 work), run by one transaction engine (runTx).
//
// A transaction's completed step names are its audit trail, so a script's
// primitive sequence can be golden-tested against Figure 5 and inspected by
// operators (cmd/reconfigctl prints it).
//
// The layer keeps no clock of its own: transaction timelines and the
// supervisor's detection and recovery times read the bus's (bus.Bus.Clock),
// and the supervisor keeps no timer — its passes follow exit reports and
// its health checker's window rolls — so a test that runs the bus and the
// roller on a virtual clock runs them on it too.
package reconfig

import (
	"sync"
	"sync/atomic"

	"repro/internal/bus"
	"repro/internal/telemetry"
	"repro/internal/telemetry/evlog"
)

// Launcher starts the runtime of a registered module instance. The facade
// supplies one that attaches an interpreter; cmd/polybus supplies one that
// tracks TCP-attached processes.
type Launcher interface {
	// Launch begins executing the named instance's module body.
	Launch(instance string) error
}

// Primitives is the reconfiguration authority over one bus: what every
// script runs against.
type Primitives struct {
	bus *bus.Bus
	// events is the bus's event log, which the supervisors append to.
	events *evlog.Log

	// txMu serializes transactional scripts: concurrent reconfigurations
	// of one application are refused with ErrReconfigBusy rather than
	// interleaved (the paper assumes one reconfiguration at a time).
	txMu sync.Mutex

	// tracer assigns each transactional script a transaction ID and retains
	// its span timeline (quiesce wait, state move, rebind, restore wait,
	// commit or rollback) and its completed steps for reconfigctl trace.
	tracer *telemetry.Tracer

	// active mirrors txMu for lock-free observation: true while a
	// transactional script holds the lock. The readiness probe (/readyz)
	// reads it to report "reconfiguring" without contending for txMu.
	active atomic.Bool
}

// NewPrimitives wraps a bus and the event log it writes (bus.WithEvents),
// which the supervisors append to. Transaction span durations aggregate
// into the bus's telemetry registry (reconfig.span.*_ns,
// reconfig.tx_total_ns).
func NewPrimitives(b *bus.Bus, events *evlog.Log) *Primitives {
	return &Primitives{bus: b, events: events, tracer: telemetry.NewTracer(b.Clock(), b.Telemetry())}
}

// ReconfigActive reports whether a transactional reconfiguration is in
// flight right now.
func (p *Primitives) ReconfigActive() bool { return p.active.Load() }

// Tracer returns the reconfiguration tracer (retained span timelines and
// step trails keyed by transaction ID).
func (p *Primitives) Tracer() *telemetry.Tracer { return p.tracer }
