package bus

// Unit tests for the robustness machinery under internal/bus: dial retry
// with backoff, per-call RPC timeouts, the listener's defences (hello
// deadline, frame-size cap, malformed frames), the restore-confirmation RPC,
// and queue restoration when a rebinding batch fails mid-application.

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

func TestDialRetriesThroughTransientFault(t *testing.T) {
	_, s := startServer(t)
	faults := faultinject.New()
	faults.Enable("tcp.dial", faultinject.Point{Action: faultinject.Error, Count: 1})
	p, err := DialPortWith(s.Addr().String(), "compute", DialOptions{
		Retries: 2,
		Backoff: 5 * time.Millisecond,
		Faults:  faults,
	})
	if err != nil {
		t.Fatalf("dial with one transient fault and two retries failed: %v", err)
	}
	defer p.Close()
	if faults.Fired("tcp.dial") != 1 {
		t.Errorf("tcp.dial fired %d times, want 1 (Count:1 disarms after the fault)", faults.Fired("tcp.dial"))
	}
	if p.Name() != "compute" {
		t.Errorf("attached as %q", p.Name())
	}
}

func TestDialExhaustsRetries(t *testing.T) {
	faults := faultinject.New()
	faults.Enable("tcp.dial", faultinject.Point{Action: faultinject.Error})
	_, err := DialPortWith("127.0.0.1:1", "compute", DialOptions{
		Retries: 2,
		Backoff: time.Millisecond,
		Faults:  faults,
	})
	if err == nil {
		t.Fatal("dial succeeded with a permanent fault")
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("error %v does not wrap the injected fault", err)
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Errorf("error %v does not count the attempts", err)
	}
}

func TestDialNoRetryByDefault(t *testing.T) {
	if _, err := DialPort("127.0.0.1:1", "compute"); err == nil {
		t.Fatal("dial to a closed port succeeded")
	} else if !strings.Contains(err.Error(), "1 attempts") {
		t.Errorf("error %v shows more than one attempt without Retries", err)
	}
}

func TestRemoteCallFaultInjection(t *testing.T) {
	_, s := startServer(t)
	faults := faultinject.New()
	p, err := DialPortWith(s.Addr().String(), "compute", DialOptions{Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	faults.Enable("tcp.call", faultinject.Point{Action: faultinject.Error, Count: 1})
	if _, err := p.Pending("display"); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("faulted rpc error = %v", err)
	}
	// The fault was transient: the next call goes through.
	if n, err := p.Pending("display"); err != nil || n != 0 {
		t.Errorf("rpc after transient fault = %d, %v", n, err)
	}
}

func TestRemoteCallTimeout(t *testing.T) {
	_, s := startServer(t)
	p, err := DialPortWith(s.Addr().String(), "compute", DialOptions{CallTimeout: 80 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Read on an empty queue blocks server-side; the client bound surfaces
	// it as a timeout instead of a stall.
	start := time.Now()
	_, err = p.Read("sensor")
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("blocked read error = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timeout took %v", elapsed)
	}
}

// TestRemoteReadTimeoutKeepsNextMessage: a Read abandoned by CallTimeout
// stays parked at the server and pops the next message. That message must
// reach the next Read or TryRead of the interface (and count as pending
// meanwhile), not be answered to nobody.
func TestRemoteReadTimeoutKeepsNextMessage(t *testing.T) {
	b, s := startServer(t)
	p, err := DialPortWith(s.Addr().String(), "compute", DialOptions{CallTimeout: 80 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Read("display"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("read on an empty queue = %v, want ErrTimeout", err)
	}
	if _, ok, err := p.TryRead("display"); err != nil || ok {
		t.Fatalf("TryRead behind the abandoned read = %t, %v", ok, err)
	}
	disp := attach(t, b, "display")
	for _, payload := range []string{"first", "second"} {
		if err := disp.Write("temper", []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "Pending 2 after two writes (one kept on the port, one still queued at the bus): else the abandoned read's message is gone", func() bool {
		n, err := p.Pending("display")
		if err != nil {
			t.Fatal(err)
		}
		return n == 2
	})
	if m, ok, err := p.TryRead("display"); err != nil || !ok || string(m.Data) != "first" {
		t.Fatalf("TryRead after the timeout = %q %t %v, want the message the abandoned read popped", m.Data, ok, err)
	}
	if m, err := p.Read("display"); err != nil || string(m.Data) != "second" {
		t.Fatalf("Read after the timeout = %q, %v", m.Data, err)
	}
	// And a Read that adopts the abandoned one before its message exists.
	if _, err := p.Read("display"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("read on an empty queue = %v, want ErrTimeout", err)
	}
	got := make(chan Message, 1)
	go func() {
		for {
			m, err := p.Read("display")
			if errors.Is(err, ErrTimeout) {
				continue
			}
			if err != nil {
				t.Errorf("adopting read: %v", err)
			}
			got <- m
			return
		}
	}()
	waitFor(t, "the read adopting the abandoned one", func() bool {
		p.c.mu.Lock()
		defer p.c.mu.Unlock()
		return len(p.orphans["display"]) == 0
	})
	if err := disp.Write("temper", []byte("third")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if string(m.Data) != "third" {
			t.Errorf("adopting read got %q", m.Data)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the read after a timed-out read never got the next message")
	}
}

// TestTryReadBehindAbandonedReadKeepsOrder: a TryRead sent while the reply of
// a Read abandoned by CallTimeout is still on its way must not come back with
// the message behind the one that read took. The proxy holds the server's
// frames, so the interleaving is forced, not waited for.
func TestTryReadBehindAbandonedReadKeepsOrder(t *testing.T) {
	b, s := startServer(t)
	px := newHoldingProxy(t, s.Addr().String())
	dialed := make(chan error, 1)
	var p *RemotePort
	go func() {
		var err error
		p, err = DialPortWith(px.addr, "compute", DialOptions{CallTimeout: 80 * time.Millisecond})
		dialed <- err
	}()
	px.relay(t, px.next(t)) // the hello ack
	if err := <-dialed; err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Read("display"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("read on an empty queue = %v, want ErrTimeout", err)
	}
	disp := attach(t, b, "display")
	for _, payload := range []string{"first", "second"} {
		if err := disp.Write("temper", []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	first := px.next(t) // the abandoned read's reply, held
	type result struct {
		m   Message
		ok  bool
		err error
	}
	tried := make(chan result, 1)
	go func() {
		m, ok, err := p.TryRead("display")
		tried <- result{m, ok, err}
	}()
	px.relay(t, first, px.next(t)) // in the order the server sent them
	if r := <-tried; r.err != nil || !r.ok || string(r.m.Data) != "first" {
		t.Fatalf("TryRead behind the abandoned read = %q %t %v, want first", r.m.Data, r.ok, r.err)
	}
	px.open()
	if m, err := p.Read("display"); err != nil || string(m.Data) != "second" {
		t.Fatalf("Read after it = %q, %v, want second", m.Data, err)
	}
}

// holdingProxy relays one connection to a server: the client's bytes as they
// come, the server's frames only when the test relays them, or all of them
// once it opens the proxy.
type holdingProxy struct {
	addr   string
	frames chan []byte   // the server's, whole, not relayed yet
	client chan net.Conn // the accepted client connection, once
}

func newHoldingProxy(t *testing.T, server string) *holdingProxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	px := &holdingProxy{addr: l.Addr().String(), frames: make(chan []byte, 16), client: make(chan net.Conn, 1)}
	done := make(chan struct{})
	t.Cleanup(func() {
		l.Close()
		close(done)
	})
	go func() {
		cli, err := l.Accept()
		if err != nil {
			return
		}
		srv, err := net.Dial("tcp", server)
		if err != nil {
			cli.Close()
			return
		}
		go func() {
			<-done
			cli.Close()
			srv.Close()
		}()
		px.client <- cli
		go func() { _, _ = io.Copy(srv, cli) }()
		fr := codec.NewFrameReader(srv)
		for {
			body, err := fr.Next()
			if err != nil {
				close(px.frames)
				return
			}
			b := append(codec.BeginFrame(nil), body...)
			_ = codec.EndFrame(b)
			px.frames <- b
		}
	}()
	return px
}

// next returns the server's next frame, unrelayed.
func (px *holdingProxy) next(t *testing.T) []byte {
	t.Helper()
	select {
	case b, ok := <-px.frames:
		if !ok {
			t.Fatal("the server closed the connection")
		}
		return b
	case <-time.After(2 * time.Second):
		t.Fatal("no frame from the server")
	}
	return nil
}

// relay hands frames to the client.
func (px *holdingProxy) relay(t *testing.T, frames ...[]byte) {
	t.Helper()
	cli := <-px.client
	defer func() { px.client <- cli }()
	for _, b := range frames {
		if _, err := cli.Write(b); err != nil {
			t.Fatal(err)
		}
	}
}

// open relays every frame from now on.
func (px *holdingProxy) open() {
	cli := <-px.client
	go func() {
		for b := range px.frames {
			if _, err := cli.Write(b); err != nil {
				return
			}
		}
	}()
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

// TestPostedWriteTimesOutOnStalledPeer: with a CallTimeout a posted write to
// a peer that has stopped reading fails with ErrTimeout once the socket
// buffers are full, instead of blocking for ever.
func TestPostedWriteTimesOutOnStalledPeer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	stalled := make(chan net.Conn, 1)
	go func() { // says hello back, then never reads again
		conn, err := l.Accept()
		if err != nil {
			return
		}
		if _, err := codec.NewFrameReader(conn).Next(); err != nil {
			return
		}
		ack := appendFrame(codec.BeginFrame(nil), &frame{Op: rHello, Hello: &helloAck{
			Name: "w", Ifaces: []IfaceSpec{{Name: "out", Dir: Out}}}})
		_ = codec.EndFrame(ack)
		_, _ = conn.Write(ack)
		stalled <- conn
	}()
	p, err := DialPortWith(l.Addr().String(), "w", DialOptions{CallTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	defer func() { (<-stalled).Close() }()
	payload := make([]byte, 1<<20)
	for i := 0; i < 64; i++ {
		if err = p.Write("out", payload); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("64 MiB posted to a peer that is not reading: %v, want ErrTimeout", err)
	}
	if err := p.Write("out", nil); !errors.Is(err, ErrStopped) {
		t.Errorf("write after the timed-out one: %v, want ErrStopped (half a frame may be on the stream)", err)
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
