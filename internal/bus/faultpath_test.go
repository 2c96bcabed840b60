package bus

// Unit tests for the robustness machinery under internal/bus: the client's
// failpoints, the listener's defences (hello deadline, frame-size cap,
// malformed frames), the restore-confirmation RPC, and queue restoration
// when a rebinding batch fails mid-application.

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/faultinject"
)

// TestDialFailpoint: an armed tcp.dial fails DialPort with the injected
// fault, and the next DialPort, the point disarmed, attaches.
func TestDialFailpoint(t *testing.T) {
	_, s := startServer(t)
	armDefault(t, "tcp.dial")
	if _, err := DialPort(s.Addr().String(), "compute"); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("dial with tcp.dial armed = %v, want the injected fault", err)
	}
	p := dial(t, s, "compute")
	if p.Name() != "compute" {
		t.Errorf("attached as %q", p.Name())
	}
}

// TestDialNoRetryByDefault: a failing dial is one attempt. A zero-delay
// point at tcp.dial counts the attempts without failing them; a dial to a
// closed port passes it exactly once before it reports the refusal.
func TestDialNoRetryByDefault(t *testing.T) {
	faults := faultinject.Default()
	faults.Enable("tcp.dial", faultinject.Point{Action: faultinject.Delay})
	t.Cleanup(func() { faults.Disable("tcp.dial") })
	before := faults.Fired("tcp.dial")
	if _, err := DialPort("127.0.0.1:1", "compute"); err == nil {
		t.Fatal("dial to a closed port succeeded")
	}
	if n := faults.Fired("tcp.dial") - before; n != 1 {
		t.Errorf("a failing dial made %d attempts, want 1", n)
	}
}

func TestRemoteCallFaultInjection(t *testing.T) {
	_, s := startServer(t)
	p := dial(t, s, "compute")
	armDefault(t, "tcp.call")
	if _, err := p.Pending("display"); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("faulted rpc error = %v", err)
	}
	// The fault was transient: the next call goes through.
	if n, err := p.Pending("display"); err != nil || n != 0 {
		t.Errorf("rpc after transient fault = %d, %v", n, err)
	}
}

// armDefault arms site in the process-wide set, the one every port reads,
// to fail once, and disarms it when the test ends.
func armDefault(t *testing.T, site string) {
	t.Helper()
	faultinject.Default().Enable(site, faultinject.Point{Action: faultinject.Error, Count: 1})
	t.Cleanup(func() { faultinject.Default().Disable(site) })
}

// startServerWithHello is startServer with a short hello deadline.
func startServerWithHello(t *testing.T, hello time.Duration) *Server {
	t.Helper()
	b := testBusForTCP(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(b, l, hello)
	t.Cleanup(func() { s.Close() })
	return s
}

// rawDial opens a bare connection to the server, optionally saying hello as
// instance and consuming the ack.
func rawDial(t *testing.T, s *Server, instance string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if instance != "" {
		sendRaw(t, conn, appendFrame(nil, &frame{Op: opHello, Name: instance}))
		var ack frame
		body, err := codec.NewFrameReader(conn).Next()
		if err == nil {
			err = decodeFrame(body, &ack, asString)
		}
		if err != nil || ack.Op != rHello {
			t.Fatalf("hello ack = %+v, %v", ack, err)
		}
	}
	return conn
}

func sendRaw(t *testing.T, conn net.Conn, body []byte) {
	t.Helper()
	b := append(codec.BeginFrame(nil), body...)
	if err := codec.EndFrame(b); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
}

// expectClosed waits for the server to close conn and log why — the serving
// goroutine's last act, after the connection has left its table — and
// returns the one conn-closed record's "instance detail".
func expectClosed(t *testing.T, s *Server, conn net.Conn, conns int) string {
	t.Helper()
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("connection not closed by the server: %v", err)
	}
	var reasons []string
	for cursor := uint64(0); len(reasons) == 0; {
		recs := s.bus.Events().Wait(cursor, 2*time.Second)
		if recs == nil {
			t.Fatal("the server logged no conn-closed record")
		}
		for _, r := range recs {
			cursor = r.Seq
			if r.Kind == kindConnClosed {
				reasons = append(reasons, r.Instance+" "+r.Detail)
			}
		}
	}
	s.mu.Lock()
	n := len(s.conns)
	s.mu.Unlock()
	if n != conns || len(reasons) != 1 {
		t.Fatalf("server tracks %d connections (want %d), logged %q", n, conns, reasons)
	}
	return reasons[0]
}

// TestSilentDialClosedByHelloDeadline: a connection that never says hello
// does not hold a goroutine and a socket for ever.
func TestSilentDialClosedByHelloDeadline(t *testing.T) {
	s := startServerWithHello(t, 50*time.Millisecond)
	conn := rawDial(t, s, "")
	reason := expectClosed(t, s, conn, 0)
	if !strings.Contains(reason, "no hello") {
		t.Errorf("close reason = %q", reason)
	}
	// The deadline is the handshake's alone: an attached port may idle.
	p := dial(t, s, "compute")
	time.Sleep(120 * time.Millisecond)
	if _, err := p.Pending("display"); err != nil {
		t.Errorf("attached port after the hello deadline: %v", err)
	}
}

// TestOversizedFramePrefixAllocatesNothing: four lying bytes close the
// connection and cost no buffer.
func TestOversizedFramePrefixAllocatesNothing(t *testing.T) {
	s := startServerWithHello(t, helloTimeout)
	conn := rawDial(t, s, "compute")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], codec.MaxFrame+1)
	if _, err := conn.Write(prefix[:]); err != nil {
		t.Fatal(err)
	}
	reason := expectClosed(t, s, conn, 0)
	runtime.ReadMemStats(&after)
	if !strings.Contains(reason, "compute") || !strings.Contains(reason, "limit") {
		t.Errorf("close reason = %q", reason)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("a %d-byte length prefix made the process allocate %d bytes", codec.MaxFrame+1, grew)
	}
}

// TestGarbageKillsOnlyItsConnection: an unknown opcode ends the connection
// it arrived on; the one next to it keeps serving.
func TestGarbageKillsOnlyItsConnection(t *testing.T) {
	s := startServerWithHello(t, helloTimeout)
	disp := dial(t, s, "display")
	bad := rawDial(t, s, "compute")
	sendRaw(t, bad, appendFrame(nil, &frame{Op: opPending, ID: 1, Name: "display"}))
	sendRaw(t, bad, []byte{0x7f, 0x01, 0x02})
	reason := expectClosed(t, s, bad, 1)
	if !strings.Contains(reason, "compute") || !strings.Contains(reason, "malformed") {
		t.Errorf("close reason = %q", reason)
	}
	if err := disp.Write("temper", []byte("still here")); err != nil {
		t.Fatal(err)
	}
	if n, err := disp.Pending("temper"); err != nil || n != 0 {
		t.Errorf("second connection after the first was killed: %d, %v", n, err)
	}
}

func TestRemoteConfirmRestore(t *testing.T) {
	b, s := startServer(t)
	p := dial(t, s, "compute")
	if err := p.ConfirmRestore(nil); err != nil {
		t.Fatal(err)
	}
	if err := b.AwaitRestored("compute", time.Second); err != nil {
		t.Errorf("AwaitRestored after remote confirmation: %v", err)
	}
}

func TestRemoteConfirmRestoreFailure(t *testing.T) {
	b, s := startServer(t)
	p := dial(t, s, "compute")
	if err := p.ConfirmRestore(errors.New("frame mismatch at level 2")); err != nil {
		t.Fatal(err)
	}
	err := b.AwaitRestored("compute", time.Second)
	if err == nil || !strings.Contains(err.Error(), "frame mismatch at level 2") {
		t.Errorf("AwaitRestored = %v, want the remote restore failure", err)
	}
}

// TestRebindRestoresMovedQueues: a batch that moves queued messages and then
// fails must put the messages back where they were — the transaction layer
// depends on this to guarantee no message loss on rollback.
func TestRebindRestoresMovedQueues(t *testing.T) {
	b := testBus(t)
	if err := b.AddInstance(InstanceSpec{
		Name: "compute2", Module: "compute", Status: StatusClone,
		Interfaces: []IfaceSpec{{Name: "display", Dir: InOut}, {Name: "sensor", Dir: In}},
	}); err != nil {
		t.Fatal(err)
	}
	disp, err := b.Attach("display")
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range []string{"q1", "q2"} {
		if err := disp.Write("temper", []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}

	err = b.Rebind([]BindEdit{
		{Op: "cq", From: Endpoint{Instance: "compute", Interface: "display"}, To: Endpoint{Instance: "compute2", Interface: "display"}},
		{Op: "del", From: Endpoint{Instance: "ghost", Interface: "x"}, To: Endpoint{Instance: "ghost", Interface: "y"}},
	})
	if err == nil {
		t.Fatal("failing batch succeeded")
	}

	info, err := b.Info("compute")
	if err != nil {
		t.Fatal(err)
	}
	if info.Pending["display"] != 2 {
		t.Fatalf("after failed rebind, compute.display holds %d messages, want 2", info.Pending["display"])
	}
	if info2, _ := b.Info("compute2"); info2.Pending["display"] != 0 {
		t.Errorf("after failed rebind, compute2.display holds %d messages, want 0", info2.Pending["display"])
	}
	// Content survived in order, not just the count.
	comp, err := b.Attach("compute")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"q1", "q2"} {
		m, err := comp.Read("display")
		if err != nil || string(m.Data) != want {
			t.Fatalf("restored message = %q, %v; want %q", m.Data, err, want)
		}
	}
}

func TestSignalDropIsSilent(t *testing.T) {
	b := testBus(t)
	faults := faultinject.New()
	faults.Enable("bus.signal", faultinject.Point{Action: faultinject.Drop, Count: 1})
	b.SetFaults(faults)
	comp, err := b.Attach("compute")
	if err != nil {
		t.Fatal(err)
	}
	// The dropped signal reports success but never arrives.
	if err := b.SignalReconfig("compute"); err != nil {
		t.Fatalf("dropped signal surfaced an error: %v", err)
	}
	select {
	case sig := <-comp.Signals():
		t.Fatalf("dropped signal was delivered: %v", sig)
	case <-time.After(50 * time.Millisecond):
	}
	// Dropping still validates the target.
	if err := b.SignalReconfig("ghost"); !errors.Is(err, ErrNoInstance) {
		t.Errorf("signal to ghost = %v", err)
	}
	// Disarmed now: delivery resumes.
	if err := b.SignalReconfig("compute"); err != nil {
		t.Fatal(err)
	}
	select {
	case sig := <-comp.Signals():
		if sig.Kind != SignalReconfig {
			t.Errorf("signal kind = %v", sig.Kind)
		}
	case <-time.After(time.Second):
		t.Error("signal after disarm never arrived")
	}
}
