package quiesce

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestQuiesceIdleModule(t *testing.T) {
	g := NewGuard(clock.Clock{})
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
	g := NewGuard(v.Clock())
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
	g := NewGuard(v.Clock())
	g.Enter() // never exits
	quiesced := make(chan error, 1)
	go func() { quiesced <- g.Quiesce(50 * time.Millisecond) }()
	v.BlockUntil(1)
	v.Advance(50 * time.Millisecond)
	if err := <-quiesced; !errors.Is(err, ErrTimeout) {
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
	g := NewGuard(clock.Clock{})
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
