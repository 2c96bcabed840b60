package mh

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/state"
)

func TestCheckpointEveryKOpsPublishesToSink(t *testing.T) {
	b := newMonitorBus(t)
	var mu sync.Mutex
	var published [][]byte
	var fromInstance string
	sink := func(instance string, encoded []byte) {
		mu.Lock()
		defer mu.Unlock()
		fromInstance = instance
		published = append(published, encoded)
	}
	rt := attachRT(t, b, "compute", WithCheckpoint(4, sink))
	counter := 0
	rt.RegisterSnapshot(func() (*state.State, error) {
		st := state.New("compute")
		st.PushFrame(state.Frame{Func: "main", Location: 1,
			Vars: []state.Var{{Name: "counter", Value: state.IntValue(int64(counter))}}})
		return st, nil
	})
	display, err := b.Attach("display")
	if err != nil {
		t.Fatal(err)
	}

	// A baseline checkpoint publishes at registration, then 10 operations at
	// interval 4 → checkpoints after ops 4 and 8.
	for i := 0; i < 10; i++ {
		counter = i
		rt.Write("display", float64(i))
	}
	if err := rt.Err(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(published) != 3 {
		t.Fatalf("published %d checkpoints, want 3 (baseline + ops 4 and 8)", len(published))
	}
	if fromInstance != "compute" {
		t.Errorf("sink saw instance %q", fromInstance)
	}
	// The latest checkpoint decodes back to the state at op 8 (counter=7).
	st, err := codec.Portable{}.DecodeState(rt.Checkpointer().Latest())
	if err != nil {
		t.Fatal(err)
	}
	if replay := rt.Checkpointer().PendingOps(); replay != 2 {
		t.Errorf("replay = %d, want 2 (ops 9,10 after the op-8 checkpoint)", replay)
	}
	if st.Frames[0].Vars[0].Value.Int != 7 {
		t.Errorf("restored counter = %d, want 7", st.Frames[0].Vars[0].Value.Int)
	}
	// Drain what the module wrote so the queue test below is meaningful.
	for i := 0; i < 10; i++ {
		if _, err := display.Read("temper"); err != nil {
			t.Fatal(err)
		}
	}
	// A Read is an operation too: the one after the op-8 checkpoint is
	// charged as the third to replay.
	if err := display.Write("temper", intMsg(t, 3)); err != nil {
		t.Fatal(err)
	}
	var n int
	rt.Read("display", &n)
	if err := rt.Err(); err != nil || n != 3 {
		t.Fatalf("Read: n = %d, err = %v", n, err)
	}
	if got := rt.Checkpointer().PendingOps(); got != 3 {
		t.Errorf("PendingOps() = %d after a Read, want 3 (Read counts)", got)
	}
}

func TestCheckpointOffWithoutOption(t *testing.T) {
	b := newMonitorBus(t)
	rt := attachRT(t, b, "compute")
	rt.RegisterSnapshot(func() (*state.State, error) { return state.New("compute"), nil })
	if rt.Checkpointer() != nil {
		t.Error("checkpointer armed without WithCheckpoint")
	}
	display, err := b.Attach("display")
	if err != nil {
		t.Fatal(err)
	}
	if err := display.Write("temper", intMsg(t, 3)); err != nil {
		t.Fatal(err)
	}
	var n int
	rt.Read("display", &n)
	if err := rt.Err(); err != nil || n != 3 {
		t.Errorf("Read without a checkpointer: n = %d, err = %v", n, err)
	}
}

// intMsg encodes n as a message payload.
func intMsg(t *testing.T, n int64) []byte {
	t.Helper()
	data, err := codec.Default().EncodeValue(state.IntValue(n))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func snapOf(counter *int) Snapshot {
	return func() (*state.State, error) {
		st := state.New("m")
		st.PushFrame(state.Frame{Func: "main", Location: 1, Vars: []state.Var{
			{Name: "counter", Value: state.IntValue(int64(*counter))},
		}})
		return st, nil
	}
}

func TestNewValidation(t *testing.T) {
	counter := 0
	if _, err := NewCheckpointer(0, snapOf(&counter)); err == nil {
		t.Error("interval 0 accepted")
	}
	if _, err := NewCheckpointer(1, nil); err == nil {
		t.Error("nil snapshot accepted")
	}
	cp, err := NewCheckpointer(1, snapOf(&counter))
	if err != nil || cp == nil {
		t.Fatalf("New: %v", err)
	}
}

func TestCheckpointEveryInterval(t *testing.T) {
	counter := 0
	cp, err := NewCheckpointer(3, snapOf(&counter))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		counter = i
		if err := cp.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	st := cp.Stats()
	if st.Ops != 10 {
		t.Errorf("Ops = %d", st.Ops)
	}
	// Checkpoints at op 3, 6, 9.
	if st.Checkpoints != 3 {
		t.Errorf("Checkpoints = %d", st.Checkpoints)
	}
	if st.Bytes <= 0 {
		t.Errorf("Bytes = %d", st.Bytes)
	}
	if len(cp.Latest()) == 0 {
		t.Error("no latest checkpoint")
	}
	// One op (op 10) since the last checkpoint: a rollback replays 1.
	if cp.PendingOps() != 1 {
		t.Errorf("PendingOps = %d", cp.PendingOps())
	}
	restored, err := codec.Portable{}.DecodeState(cp.Latest())
	if err != nil {
		t.Fatal(err)
	}
	v, ok := restored.Frames[0].Var("counter")
	if !ok || v.Int != 9 {
		t.Errorf("restored counter = %v (rolled back to op 9)", v)
	}
}

func TestRestoreBeforeAnyCheckpoint(t *testing.T) {
	counter := 0
	cp, err := NewCheckpointer(100, snapOf(&counter))
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Tick(); err != nil {
		t.Fatal(err)
	}
	if cp.Latest() != nil || cp.PendingOps() != 1 {
		t.Errorf("before the first interval: latest %v, %d pending; want nothing to restore from, 1 op to replay", cp.Latest(), cp.PendingOps())
	}
}

func TestSnapshotFailurePropagates(t *testing.T) {
	boom := errors.New("boom")
	cp, err := NewCheckpointer(1, func() (*state.State, error) { return nil, boom })
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Tick(); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

// TestWorkLostGrowsWithInterval quantifies the rollback cost the paper's
// approach avoids: the larger the checkpoint interval, the more completed
// work a reconfiguration discards.
func TestWorkLostGrowsWithInterval(t *testing.T) {
	for _, interval := range []int{1, 5, 25} {
		counter := 0
		cp, err := NewCheckpointer(interval, snapOf(&counter))
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 99; i++ {
			counter = i
			if err := cp.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		wantPending := 99 % interval
		if cp.PendingOps() != wantPending {
			t.Errorf("interval %d: pending = %d, want %d", interval, cp.PendingOps(), wantPending)
		}
		wantCheckpoints := int64(99 / interval)
		if cp.Stats().Checkpoints != wantCheckpoints {
			t.Errorf("interval %d: checkpoints = %d, want %d", interval, cp.Stats().Checkpoints, wantCheckpoints)
		}
	}
}

// TestConcurrentTickAndRestore pins the concurrency contract: the module
// thread Ticks while a supervisor goroutine reads Stats and PendingOps and
// decodes Latest, as a rebuild does. Run under -race (scripts/check.sh
// does).
func TestConcurrentTickAndRestore(t *testing.T) {
	counter := 0
	cp, err := NewCheckpointer(2, snapOf(&counter))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { //archlint:spawn test reader goroutine; joined via done channel
		defer close(done)
		for i := 0; i < 500; i++ {
			cp.Stats()
			cp.PendingOps()
			if data := cp.Latest(); data != nil {
				if _, err := (codec.Portable{}).DecodeState(data); err != nil {
					t.Errorf("decode latest: %v", err)
					return
				}
			}
		}
	}()
	for i := 1; i <= 1000; i++ {
		counter = i
		if err := cp.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if cp.Latest() == nil {
		t.Error("no checkpoint after 1000 ticks at interval 2")
	}
	if st := cp.Stats(); st.Checkpoints != 500 {
		t.Errorf("Checkpoints = %d, want 500", st.Checkpoints)
	}
}
