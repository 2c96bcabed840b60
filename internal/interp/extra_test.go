package interp

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/mh"
)

// TestMoreLanguageCoverage exercises corners of the module language the
// main tests do not reach.
func TestMoreLanguageCoverage(t *testing.T) {
	in := pureInterp(t, `package p

type Pair struct {
	A int
	B int
}

func main() {}

func opAssigns(x int) int {
	x += 3
	x -= 1
	x *= 4
	x /= 2
	x %= 100
	x <<= 2
	x >>= 1
	x &= 255
	x |= 16
	x ^= 3
	return x
}

func stringOps(s string) int {
	t := s + "!"
	u := t[1:3]
	total := len(u) + len(t)
	if "abc" < "abd" {
		total += 100
	}
	return total
}

func sliceOps() int {
	s := []int{5, 6, 7, 8}
	sub := s[1:3]
	sub[0] = 60 // aliases s[1]
	s = append(s, 9)
	total := 0
	for _, v := range s {
		total += v
	}
	return total + cap(sub)
}

func pairSwap(p Pair) Pair {
	p.A, p.B = p.B, p.A
	return p
}

func usePair() int {
	p := pairSwap(Pair{A: 1, B: 2})
	q := &p
	q.A += 10
	return p.A*100 + p.B
}

func multiBranchGoto(n int) int {
	r := 0
	if n > 5 {
		goto big
	}
	r = 1
	goto done
big:
	r = 2
done:
	return r
}

func negatives(x int) int {
	y := -x
	z := +y
	if !(z > 0) {
		return -1
	}
	return z
}

func tagSwitchInit(n int) int {
	switch m := n * 2; m {
	case 4:
		return 40
	case 6:
		return 60
	}
	return 0
}
`)
	tests := []struct {
		fn   string
		args []any
		want any
	}{
		{"opAssigns", []any{10}, ((((10+3-1)*4/2%100)<<2>>1)&255 | 16) ^ 3},
		{"stringOps", []any{"hey"}, 2 + 4 + 100},
		{"sliceOps", nil, 5 + 60 + 7 + 8 + 9 + 3},
		{"usePair", nil, 1201},
		{"multiBranchGoto", []any{3}, 1},
		{"multiBranchGoto", []any{9}, 2},
		{"negatives", []any{-5}, 5},
		{"tagSwitchInit", []any{2}, 40},
		{"tagSwitchInit", []any{3}, 60},
		{"tagSwitchInit", []any{5}, 0},
	}
	for _, tt := range tests {
		if got := callOne(t, in, tt.fn, tt.args...); got != tt.want {
			t.Errorf("%s(%v) = %v, want %v", tt.fn, tt.args, got, tt.want)
		}
	}
}

// TestInterpretedModuleOverTCP runs the instrumented compute module through
// the interpreter attached to the bus over TCP — the Port interface is
// transport-agnostic, so the module behaves identically to in-process.
func TestInterpretedModuleOverTCP(t *testing.T) {
	h := newMonitorHarness(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := bus.NewServer(h.b, l)
	defer srv.Close()

	prog, info := loadProgram(t, instrumentedComputeSrc)
	port, err := bus.DialPort(srv.Addr().String(), "compute")
	if err != nil {
		t.Fatal(err)
	}
	defer port.Close()
	rt := mh.New(port, mh.WithSleepUnit(time.Microsecond))
	in := New(prog, info, rt)
	done := make(chan runResult, 1)
	go func() {
		term, err := in.Run()
		done <- runResult{term: term, err: err}
	}()

	// Over TCP the module's two polls are round trips apart, so the race
	// requestTaken closes is wide here.
	h.requestTaken("compute", 2)
	h.sendInt(h.sens, "out", 10)
	h.sendInt(h.sens, "out", 30)
	if got := h.readFloat(); got != 20 {
		t.Errorf("TCP-attached module answered %g", got)
	}

	// Reconfigure over TCP: signal while blocked, allow the frame to
	// land, then unblock. The server's signal pump forwards the signal on
	// its own goroutine, which takes it straight from the send, so nothing
	// this side observes the frame written and the pause stays: a read
	// reply sent first would pass the point unsignalled.
	h.requestTaken("compute", 2)
	h.descended("compute")
	if err := h.b.SignalReconfig("compute"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	h.sendInt(h.sens, "out", 40)
	divulged, err := h.b.AwaitDivulged("compute", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	st, err := h.c.DecodeState(divulged)
	if err != nil {
		t.Fatal(err)
	}
	if st.Depth() != 2 {
		t.Errorf("depth = %d\n%s", st.Depth(), st)
	}
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("module did not exit")
	}
}

// TestLogBridging: mh.Log output is tagged and printable from interpreted
// modules.
func TestLogBridging(t *testing.T) {
	var buf strings.Builder
	b := bus.New()
	if err := b.AddInstance(bus.InstanceSpec{Name: "m"}); err != nil {
		t.Fatal(err)
	}
	port, err := b.Attach("m")
	if err != nil {
		t.Fatal(err)
	}
	rt := mh.New(port, mh.WithLogWriter(&buf))
	prog, info := loadProgram(t, `package p
func main() {
	x := 42
	s := "txt"
	p := &x
	mh.Log("value", x, s, p)
}
`)
	in := New(prog, info, rt)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "[m] value 42 txt 42") {
		t.Errorf("log output = %q", out)
	}
}
