package reconf

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

// This file is the module-level-atomicity baseline of
// BenchmarkAtomicityLevels: dynamic reconfiguration WITHOUT module
// participation, as in the authors' earlier work ([9], and SURGEON [5]).
//
// "If the reconfiguration is atomic at the module level, it means that
// modules execute atomically with respect to reconfiguration; a module
// cannot be updated while it is executing."
//
// A quiesceGuard brackets the module's units of work. The coordinator asks
// for quiescence and waits until the module is between units; only then may
// it be replaced — and because there is no state capture, any in-progress
// computation must first run to completion. Experiment C4 measures the
// resulting reconfiguration latency against the paper's reconfiguration-
// point approach, where capture can happen *inside* a unit of work at the
// next point.

// errQuiesceTimeout indicates quiescence was not reached in time.
var errQuiesceTimeout = errors.New("quiesce: timed out waiting for quiescence")

// quiesceGuard tracks whether a module is inside a unit of work. The module
// calls Enter/Exit around each unit; the coordinator calls Quiesce.
type quiesceGuard struct {
	mu      sync.Mutex
	cond    *sync.Cond
	busy    bool
	wanted  bool // a quiesce request is pending; new units yield to it
	holding bool // quiescence granted; module blocked out of new work
	clk     clock.Clock

	// Units counts completed units of work.
	Units int64
}

// newQuiesceGuard returns an idle guard whose Quiesce times out on clk.
func newQuiesceGuard(clk clock.Clock) *quiesceGuard {
	g := &quiesceGuard{clk: clk}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Enter marks the start of a unit of work. If the coordinator holds the
// module quiescent — or is waiting to — Enter blocks until Release.
func (g *quiesceGuard) Enter() {
	g.mu.Lock()
	for g.holding || g.wanted {
		g.cond.Wait()
	}
	g.busy = true
	g.mu.Unlock()
}

// Exit marks the end of a unit of work.
func (g *quiesceGuard) Exit() {
	g.mu.Lock()
	g.busy = false
	g.Units++
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Busy reports whether a unit of work is in progress.
func (g *quiesceGuard) Busy() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.busy
}

// Quiesce blocks until the module is between units of work (or the timeout
// expires), then holds it there. On success the module is frozen: Enter
// blocks until Release is called. This is the "passivate" of Conic and the
// no-participation model of [9].
func (g *quiesceGuard) Quiesce(timeout time.Duration) error {
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
		return errQuiesceTimeout
	}
}

// Release lifts the quiescence hold.
func (g *quiesceGuard) Release() {
	g.mu.Lock()
	g.holding = false
	g.cond.Broadcast()
	g.mu.Unlock()
}

func TestQuiesceIdleModule(t *testing.T) {
	g := newQuiesceGuard(clock.Clock{})
	if err := g.Quiesce(time.Second); err != nil {
		t.Fatalf("idle quiesce: %v", err)
	}
	// The module is held: Enter must block until Release.
	entered := make(chan struct{})
	go func() {
		g.Enter()
		close(entered)
	}()
	select {
	case <-entered:
		t.Fatal("Enter proceeded while held")
	case <-time.After(50 * time.Millisecond):
	}
	g.Release()
	select {
	case <-entered:
	case <-time.After(time.Second):
		t.Fatal("Enter never proceeded after Release")
	}
	g.Exit()
	if g.Units != 1 {
		t.Errorf("Units = %d", g.Units)
	}
}

func TestQuiesceWaitsForUnitCompletion(t *testing.T) {
	v := clock.NewVirtual(time.Unix(1000, 0))
	g := newQuiesceGuard(v.Clock())
	g.Enter()
	if !g.Busy() {
		t.Fatal("not busy inside unit")
	}
	quiesced := make(chan error, 1)
	go func() { quiesced <- g.Quiesce(5 * time.Second) }()
	v.BlockUntil(1) // Quiesce is waiting, its timeout armed
	select {
	case err := <-quiesced:
		t.Fatalf("quiesce returned (%v) before the unit finished", err)
	default:
	}
	g.Exit()
	if err := <-quiesced; err != nil {
		t.Fatal(err)
	}
	g.Release()
}

func TestQuiesceTimeout(t *testing.T) {
	v := clock.NewVirtual(time.Unix(1000, 0))
	g := newQuiesceGuard(v.Clock())
	g.Enter() // never exits
	quiesced := make(chan error, 1)
	go func() { quiesced <- g.Quiesce(50 * time.Millisecond) }()
	v.BlockUntil(1)
	v.Advance(50 * time.Millisecond)
	if err := <-quiesced; !errors.Is(err, errQuiesceTimeout) {
		t.Fatalf("err = %v", err)
	}
	// The failed quiesce must not hold the module.
	g.Exit()
	done := make(chan struct{})
	go func() {
		g.Enter()
		g.Exit()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("module blocked after abandoned quiesce")
	}
}

func TestManyUnitsUnderContention(t *testing.T) {
	g := newQuiesceGuard(clock.Clock{})
	var stop atomic.Bool
	workerDone := make(chan struct{})
	progressed := make(chan struct{}, 1)
	go func() {
		defer close(workerDone)
		for !stop.Load() {
			g.Enter()
			g.Exit()
			select {
			case progressed <- struct{}{}:
			default:
			}
		}
	}()
	// Repeatedly quiesce and release while the worker churns, and let the
	// worker finish a unit between holds.
	for i := 0; i < 10; i++ {
		if err := g.Quiesce(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if g.Busy() {
			t.Fatal("busy while quiescent")
		}
		select {
		case <-progressed: // a unit from before the hold
		default:
		}
		g.Release()
		<-progressed
	}
	stop.Store(true)
	select {
	case <-workerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("worker stuck")
	}
	if g.Units == 0 {
		t.Error("no units completed")
	}
}
