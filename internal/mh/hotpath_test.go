package mh

import (
	"math"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/codec"
	"repro/internal/state"
)

// loopPort is a bus.Port with no bus behind it: Read hands out the same
// encoded message for ever and Write keeps the last payload, so what a test
// or benchmark over it measures is the runtime alone.
type loopPort struct {
	in   bus.Message
	last []byte
}

func (p *loopPort) Name() string    { return "stage" }
func (p *loopPort) Machine() string { return "machineA" }
func (p *loopPort) Status() string  { return bus.StatusAdd }
func (p *loopPort) Write(_ string, data []byte) error {
	p.last = data
	return nil
}
func (p *loopPort) SendBatch(_ string, batch [][]byte) error {
	p.last = batch[len(batch)-1]
	return nil
}
func (p *loopPort) Read(string) (bus.Message, error)          { return p.in, nil }
func (p *loopPort) TryRead(string) (bus.Message, bool, error) { return p.in, true, nil }
func (p *loopPort) Pending(string) (int, error)               { return 1, nil }
func (p *loopPort) TakeSignal() (bus.Signal, bool)            { return bus.Signal{}, false }
func (p *loopPort) Divulge([]byte) error                      { return nil }
func (p *loopPort) AwaitState(time.Duration) ([]byte, error)  { return nil, bus.ErrTimeout }
func (p *loopPort) Done() bool                                { return false }

func newLoopPort(t testing.TB, x int64) *loopPort {
	t.Helper()
	data, err := codec.Default().EncodeValue(state.IntValue(x))
	if err != nil {
		t.Fatal(err)
	}
	return &loopPort{in: bus.Message{Data: data}}
}

// TestReadWriteAllocateOnlyThePayload pins the runtime's share of a
// message: a native Read of one integer and Write of a two-integer tuple
// allocate the outgoing payload — which the bus retains, so it cannot be
// pooled — and nothing else. The previous payload must survive the next
// Write: a reused buffer would show here as a changed value.
func TestReadWriteAllocateOnlyThePayload(t *testing.T) {
	port := newLoopPort(t, 1<<40)
	rt := New(port)
	rt.Init()
	var x, count int
	var prev []byte
	allocs := testing.AllocsPerRun(1000, func() {
		prev = port.last
		rt.Read("in", &x)
		count++
		rt.Write("out", 3*x+1, count+1<<40)
	})
	if err := rt.Err(); err != nil {
		t.Fatal(err)
	}
	if allocs != 1 {
		t.Errorf("Read+Write = %v allocs per message, want 1 (the payload)", allocs)
	}
	v, err := codec.Default().DecodeValue(prev)
	if err != nil || len(v.List) != 2 || v.List[0].Int != 3<<40+1 || v.List[1].Int != int64(count-1+1<<40) {
		t.Errorf("previous payload decodes to %v, %v after the next Write", v, err)
	}
}

// TestWrittenValueEqualsItsDecoding: for every shape Write and
// WriteAbstract emit — a bare value of each kind, a tuple, a slice, a
// struct — what the receiver decodes Equals what the sender held. (A tuple
// used to carry a type hint the encoding dropped, so it never did.)
func TestWrittenValueEqualsItsDecoding(t *testing.T) {
	type point struct {
		X  int
		On bool
	}
	port := newLoopPort(t, 0)
	rt := New(port)
	abstract := func(vals ...any) state.Value {
		t.Helper()
		out := make([]state.Value, len(vals))
		for i, val := range vals {
			v, err := state.FromGo(val)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = v
		}
		if len(out) == 1 {
			return out[0]
		}
		return state.ListValue(out...)
	}
	for _, vals := range [][]any{
		{7}, {math.MinInt64}, {2.5}, {math.NaN()}, {math.Copysign(0, -1)}, {true}, {false}, {"s"}, {""},
		{[]int{1, 2}}, {[]string{}}, {point{3, true}}, {[]point{{1, false}}},
		{1, 2.5, true, "s"}, {[]int{1}, point{2, true}}, {math.NaN(), false},
	} {
		want := abstract(vals...)
		rt.Write("out", vals...)
		native := port.last
		rt.WriteAbstract("out", &want)
		for i, data := range [][]byte{native, port.last} {
			got, err := codec.Default().DecodeValue(data)
			if err != nil || !want.Equal(got) || !got.Equal(want) {
				t.Errorf("%v (abstract: %t) decodes to %v, %v; want %v", vals, i == 1, got, err, want)
			}
		}
	}
	if err := rt.Err(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReadWrite(b *testing.B) {
	rt := New(newLoopPort(b, 1<<40))
	rt.Init()
	var x, count int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rt.Reconfig() {
			return
		}
		rt.Read("in", &x)
		count++
		rt.Write("out", 3*x+1, count)
	}
}
