package bus

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestEventNamesExhaustive walks every EventKind up to the numEventKinds
// sentinel and fails if eventNames has drifted: a kind without an entry, a
// duplicate name, or a stale map entry for a removed kind.
func TestEventNamesExhaustive(t *testing.T) {
	seen := map[string]EventKind{}
	for k := EventKind(1); k < numEventKinds; k++ {
		name, ok := eventNames[k]
		if !ok {
			t.Errorf("EventKind %d has no eventNames entry (String() = %q)", int(k), k.String())
			continue
		}
		if name == "" {
			t.Errorf("EventKind %d has empty name", int(k))
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("name %q used by both kind %d and %d", name, int(prev), int(k))
		}
		seen[name] = k
		if strings.HasPrefix(k.String(), "event(") {
			t.Errorf("EventKind %d renders as fallback %q", int(k), k.String())
		}
	}
	if len(eventNames) != int(numEventKinds)-1 {
		t.Errorf("eventNames has %d entries, want %d — stale entry for a removed kind?",
			len(eventNames), int(numEventKinds)-1)
	}
	if !strings.HasPrefix(numEventKinds.String(), "event(") {
		t.Errorf("sentinel numEventKinds should have no name, got %q", numEventKinds.String())
	}
}

// TestSlowObserverDoesNotBlockBus registers an observer that parks on a
// channel, then drives bus operations to completion while the observer is
// stuck. With synchronous dispatch this deadlocks (the test would time out);
// with per-observer mailboxes the bus never waits on an observer.
func TestSlowObserverDoesNotBlockBus(t *testing.T) {
	b := New()
	release := make(chan struct{})
	var mu sync.Mutex
	var slowSeen []string
	first := true
	b.Observe(func(e Event) {
		if first {
			first = false
			<-release // park on the very first event
		}
		mu.Lock()
		slowSeen = append(slowSeen, e.String())
		mu.Unlock()
	})
	rec := NewRecorder()
	b.Observe(rec.Record)

	// Every one of these emits an event while the slow observer is parked.
	done := make(chan error, 1)
	go func() {
		if err := b.AddInstance(InstanceSpec{Name: "a", Interfaces: []IfaceSpec{{Name: "o", Dir: Out}}}); err != nil {
			done <- err
			return
		}
		if err := b.AddInstance(InstanceSpec{Name: "b", Interfaces: []IfaceSpec{{Name: "i", Dir: In}}}); err != nil {
			done <- err
			return
		}
		if err := b.AddBinding(Endpoint{"a", "o"}, Endpoint{"b", "i"}); err != nil {
			done <- err
			return
		}
		if err := writerFor(b, "a").Write("o", []byte("x")); err != nil {
			done <- err
			return
		}
		if err := b.SignalReconfig("b"); err != nil {
			done <- err
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bus operations blocked behind a slow observer")
	}

	// The fast observer got everything already despite its sibling's stall.
	b2 := func() int {
		// Only the recorder can be synced while the slow observer is parked.
		deadline := time.Now().Add(5 * time.Second)
		for {
			if n := len(rec.Events()); n >= 4 {
				return n
			}
			if time.Now().After(deadline) {
				t.Fatal("fast observer starved by slow sibling")
			}
			time.Sleep(time.Millisecond)
		}
	}()
	if b2 < 4 {
		t.Fatalf("fast observer saw %d events", b2)
	}

	// Unpark; all queued events drain in order.
	close(release)
	b.SyncObservers()
	mu.Lock()
	defer mu.Unlock()
	if len(slowSeen) != len(rec.Events()) {
		t.Fatalf("slow observer saw %d events, fast saw %d", len(slowSeen), len(rec.Events()))
	}
	for i, s := range rec.Strings() {
		if slowSeen[i] != s {
			t.Fatalf("event order diverged at %d: slow %q vs fast %q", i, slowSeen[i], s)
		}
	}
}

// TestObserverOrderingUnderLoad hammers emit from several goroutines and
// checks each observer's per-emitter FIFO ordering is preserved.
func TestObserverOrderingUnderLoad(t *testing.T) {
	b := New()
	if err := b.AddInstance(InstanceSpec{Name: "n", Interfaces: []IfaceSpec{{Name: "i", Dir: In}}}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	count := 0
	b.Observe(func(Event) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	const emitters, per = 4, 100
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := b.SignalReconfig("n"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.SyncObservers()
	mu.Lock()
	defer mu.Unlock()
	if count != emitters*per {
		t.Fatalf("observer saw %d events, want %d", count, emitters*per)
	}
}
