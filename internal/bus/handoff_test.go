package bus

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// The hand-off rule: a write that wakes a parked reader yields the
// processor once, after the whole batch, when the writing module has a
// receiving interface and nothing queued on any. These tests run on one
// processor, where the order is the scheduler's and not a race: without
// the yield the woken reader waits until the writer blocks.

// handOffWorld is a pipeline drv → stage → sink: drv is a driver (no
// receiving interface), stage and sink are modules.
func handOffWorld(t *testing.T) (drv, stage, sink *Attachment) {
	t.Helper()
	b := New()
	for _, spec := range []InstanceSpec{
		{Name: "drv", Interfaces: []IfaceSpec{{Name: "out", Dir: Out}}},
		{Name: "stage", Interfaces: []IfaceSpec{{Name: "in", Dir: In}, {Name: "out", Dir: Out}}},
		{Name: "sink", Interfaces: []IfaceSpec{{Name: "in", Dir: In}}},
	} {
		if err := b.AddInstance(spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, bd := range [][2]Endpoint{
		{{Instance: "drv", Interface: "out"}, {Instance: "stage", Interface: "in"}},
		{{Instance: "stage", Interface: "out"}, {Instance: "sink", Interface: "in"}},
	} {
		if err := b.AddBinding(bd[0], bd[1]); err != nil {
			t.Fatal(err)
		}
	}
	return attach(t, b, "drv"), attach(t, b, "stage"), attach(t, b, "sink")
}

// onOneP runs the test body with GOMAXPROCS 1, restored afterwards.
func onOneP(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// reader reads n messages of a's "in" on its own goroutine, counting them
// in taken; after the first it records what was left pending. done closes
// when it has read all n.
type reader struct {
	a            *Attachment
	taken        atomic.Int64
	pendingFirst atomic.Int64
	done         chan struct{}
}

func startReader(t *testing.T, a *Attachment, n int) *reader {
	t.Helper()
	r := &reader{a: a, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		for i := 0; i < n; i++ {
			if _, err := a.Read("in"); err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
			if i == 0 {
				p, _ := a.Pending("in")
				r.pendingFirst.Store(int64(p))
			}
			r.taken.Add(1)
		}
	}()
	return r
}

// awaitParked yields until the reader is blocked in Read with nothing to
// take, and has taken want messages.
func (r *reader) awaitParked(want int64) {
	q := r.a.iface("in").ifc.Queue()
	for r.taken.Load() < want || !q.Parked() {
		runtime.Gosched()
	}
}

// TestHandOffFromIdleModule: a module with nothing queued to read writes
// to a parked reader, and the reader has taken the message by the time
// Write returns. The scheduler's fairness check picks a yielder over a
// woken goroutine once in 61 schedules, so the test asks it of most
// trials, not of every one; with no hand-off none of them passes.
func TestHandOffFromIdleModule(t *testing.T) {
	onOneP(t)
	_, stage, sink := handOffWorld(t)
	const trials = 20
	r := startReader(t, sink, trials)
	handed := 0
	for i := int64(0); i < trials; i++ {
		r.awaitParked(i)
		if err := stage.Write("out", []byte("m")); err != nil {
			t.Fatal(err)
		}
		if r.taken.Load() == i+1 {
			handed++
		}
	}
	<-r.done
	if handed < trials*3/4 {
		t.Errorf("the reader had taken the message when Write returned in %d of %d trials, want at least %d", handed, trials, trials*3/4)
	}
}

// TestNoHandOffWithInputQueued: the same module with a message queued on
// its own input keeps its processor; the reader has not run when Write
// returns.
func TestNoHandOffWithInputQueued(t *testing.T) {
	onOneP(t)
	drv, stage, sink := handOffWorld(t)
	if err := drv.Write("out", []byte("queued")); err != nil {
		t.Fatal(err)
	}
	r := startReader(t, sink, 1)
	r.awaitParked(0)
	if err := stage.Write("out", []byte("m")); err != nil {
		t.Fatal(err)
	}
	if n := r.taken.Load(); n != 0 {
		t.Errorf("the reader had taken %d messages when Write returned, want 0: a module with input queued handed off", n)
	}
	<-r.done
}

// TestNoHandOffFromDriver: an attachment with no receiving interface never
// hands off, whatever its write wakes.
func TestNoHandOffFromDriver(t *testing.T) {
	onOneP(t)
	drv, stage, _ := handOffWorld(t)
	const trials = 10
	r := startReader(t, stage, trials)
	for i := int64(0); i < trials; i++ {
		r.awaitParked(i)
		if err := drv.Write("out", []byte("m")); err != nil {
			t.Fatal(err)
		}
		if n := r.taken.Load(); n != i {
			t.Fatalf("trial %d: the reader had taken %d messages when the driver's Write returned, want %d", i, n, i)
		}
	}
	<-r.done
}

// TestHandOffAfterWholeBatch: a SendBatch of 16 from an idle module yields
// once, after the whole batch, so the woken reader's first Read leaves 15
// pending.
func TestHandOffAfterWholeBatch(t *testing.T) {
	onOneP(t)
	_, stage, sink := handOffWorld(t)
	r := startReader(t, sink, 1)
	r.awaitParked(0)
	batch := make([][]byte, 16)
	for i := range batch {
		batch[i] = []byte{byte(i)}
	}
	if err := stage.SendBatch("out", batch); err != nil {
		t.Fatal(err)
	}
	<-r.done
	if p := r.pendingFirst.Load(); p != 15 {
		t.Errorf("the reader's first Read left %d pending, want 15", p)
	}
}
