// Package quiesce implements the module-level-atomicity baseline: dynamic
// reconfiguration WITHOUT module participation, as in the authors' earlier
// work ([9], and SURGEON [5]).
//
// "If the reconfiguration is atomic at the module level, it means that
// modules execute atomically with respect to reconfiguration; a module
// cannot be updated while it is executing."
//
// A Guard brackets the module's units of work. The coordinator asks for
// quiescence and waits until the module is between units; only then may it
// be replaced — and because there is no state capture, any in-progress
// computation must first run to completion. Experiment C4 measures the
// resulting reconfiguration latency against the paper's reconfiguration-
// point approach, where capture can happen *inside* a unit of work at the
// next point.
package quiesce

import (
	"errors"
	"sync"
	"time"

	"repro/internal/clock"
)

// ErrTimeout indicates quiescence was not reached in time.
var ErrTimeout = errors.New("quiesce: timed out waiting for quiescence")

// Guard tracks whether a module is inside a unit of work. The module calls
// Enter/Exit around each unit; the coordinator calls Quiesce.
type Guard struct {
	mu      sync.Mutex
	cond    *sync.Cond
	busy    bool
	wanted  bool // a quiesce request is pending; new units yield to it
	holding bool // quiescence granted; module blocked out of new work
	clk     clock.Clock

	// Units counts completed units of work.
	Units int64
}

// NewGuard returns an idle guard whose Quiesce times out on clk.
func NewGuard(clk clock.Clock) *Guard {
	g := &Guard{clk: clk}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Enter marks the start of a unit of work. If the coordinator holds the
// module quiescent — or is waiting to — Enter blocks until Release.
func (g *Guard) Enter() {
	g.mu.Lock()
	for g.holding || g.wanted {
		g.cond.Wait()
	}
	g.busy = true
	g.mu.Unlock()
}

// Exit marks the end of a unit of work.
func (g *Guard) Exit() {
	g.mu.Lock()
	g.busy = false
	g.Units++
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Busy reports whether a unit of work is in progress.
func (g *Guard) Busy() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.busy
}

// Quiesce blocks until the module is between units of work (or the timeout
// expires), then holds it there. On success the module is frozen: Enter
// blocks until Release is called. This is the "passivate" of Conic and the
// no-participation model of [9].
func (g *Guard) Quiesce(timeout time.Duration) error {
	done := make(chan struct{})
	abandoned := false
	g.mu.Lock()
	g.wanted = true
	g.mu.Unlock()
	go func() { //archlint:spawn quiescence waiter; closes done when the guard settles or ctx ends
		defer close(done)
		g.mu.Lock()
		defer g.mu.Unlock()
		for g.busy && !abandoned {
			g.cond.Wait()
		}
		if !abandoned {
			g.holding = true
		}
		g.wanted = false
		g.cond.Broadcast()
	}()
	timer := g.clk.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-done:
		return nil
	case <-timer.C:
		g.mu.Lock()
		abandoned = true
		g.cond.Broadcast()
		g.mu.Unlock()
		<-done
		g.mu.Lock()
		took := g.holding
		g.mu.Unlock()
		if took {
			// The module went idle in the race window; honor the hold.
			return nil
		}
		return ErrTimeout
	}
}

// Release lifts the quiescence hold.
func (g *Guard) Release() {
	g.mu.Lock()
	g.holding = false
	g.cond.Broadcast()
	g.mu.Unlock()
}
