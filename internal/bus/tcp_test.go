package bus

import (
	"bytes"
	"encoding/hex"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/replay"
)

func startServer(t *testing.T) (*Bus, *Server) {
	t.Helper()
	b := testBusForTCP(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(b, l)
	t.Cleanup(func() { s.Close() })
	return b, s
}

func testBusForTCP(t *testing.T) *Bus {
	t.Helper()
	b := New()
	specs := []InstanceSpec{
		{Name: "display", Module: "display", Machine: "m1",
			Interfaces: []IfaceSpec{{Name: "temper", Dir: InOut}}},
		{Name: "compute", Module: "compute", Machine: "m2", Status: StatusClone,
			Interfaces: []IfaceSpec{{Name: "display", Dir: InOut}, {Name: "sensor", Dir: In}}},
	}
	for _, s := range specs {
		if err := b.AddInstance(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddBinding(Endpoint{"display", "temper"}, Endpoint{"compute", "display"}); err != nil {
		t.Fatal(err)
	}
	return b
}

func dial(t *testing.T, s *Server, instance string) *RemotePort {
	t.Helper()
	p, err := DialPort(s.Addr().String(), instance)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestRemoteHandshake(t *testing.T) {
	_, s := startServer(t)
	p := dial(t, s, "compute")
	if p.Name() != "compute" || p.Machine() != "m2" || p.Status() != StatusClone {
		t.Errorf("identity = %s %s %s", p.Name(), p.Machine(), p.Status())
	}
}

func TestRemoteAttachUnknownInstance(t *testing.T) {
	_, s := startServer(t)
	if _, err := DialPort(s.Addr().String(), "ghost"); !errors.Is(err, ErrNoInstance) {
		t.Errorf("dial ghost: %v", err)
	}
}

func TestRemoteDoubleAttach(t *testing.T) {
	_, s := startServer(t)
	dial(t, s, "compute")
	if _, err := DialPort(s.Addr().String(), "compute"); err == nil {
		t.Error("second attach accepted")
	}
}

// TestRemoteReadWrite pins the ordering rule: a write is posted, whatever
// follows it on the same port observes it, and a completed round trip on the
// writer's port makes everything posted before it visible to other ports.
func TestRemoteReadWrite(t *testing.T) {
	_, s := startServer(t)
	disp := dial(t, s, "display")
	comp := dial(t, s, "compute")

	const burst = 20
	for i := 0; i < burst; i++ {
		if err := disp.Write("temper", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := disp.Pending("temper"); err != nil { // any round trip is a barrier
		t.Fatal(err)
	}
	if n, err := comp.Pending("display"); err != nil || n != burst {
		t.Fatalf("Pending after the writer's round trip = %d, %v; want %d", n, err, burst)
	}
	for i := 0; i < burst; i++ {
		m, err := comp.Read("display")
		if err != nil || len(m.Data) != 1 || int(m.Data[0]) != i {
			t.Fatalf("Read %d = %+v, %v", i, m, err)
		}
		if m.From != (Endpoint{"display", "temper"}) {
			t.Errorf("From = %v", m.From)
		}
	}

	if err := comp.Write("display", []byte("resp")); err != nil {
		t.Fatal(err)
	}
	if _, err := comp.Pending("display"); err != nil {
		t.Fatal(err)
	}
	m, ok, err := disp.TryRead("temper")
	if err != nil || !ok || string(m.Data) != "resp" {
		t.Fatalf("TryRead = %+v %t %v", m, ok, err)
	}
	if _, ok, err := disp.TryRead("temper"); err != nil || ok {
		t.Errorf("empty TryRead = %t, %v", ok, err)
	}
}

// TestRemoteCloseIsBarrier: Close after a burst of posted writes loses none.
func TestRemoteCloseIsBarrier(t *testing.T) {
	b, s := startServer(t)
	disp, err := DialPort(s.Addr().String(), "display")
	if err != nil {
		t.Fatal(err)
	}
	const burst = 500
	for i := 0; i < burst; i++ {
		if err := disp.Write("temper", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := disp.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := b.Info("compute")
	if err != nil {
		t.Fatal(err)
	}
	if info.Pending["display"] != burst {
		t.Errorf("after Close %d of %d writes are queued", info.Pending["display"], burst)
	}
}

func TestRemoteBlockingRead(t *testing.T) {
	_, s := startServer(t)
	disp := dial(t, s, "display")
	comp := dial(t, s, "compute")

	got := make(chan Message, 1)
	go func() {
		m, err := comp.Read("display")
		if err != nil {
			t.Errorf("read: %v", err)
		}
		got <- m
	}()
	time.Sleep(20 * time.Millisecond)
	// The connection must stay responsive while a read blocks.
	if n, err := comp.Pending("sensor"); err != nil || n != 0 {
		t.Fatalf("Pending during blocked read = %d, %v", n, err)
	}
	if err := disp.Write("temper", []byte("late")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if string(m.Data) != "late" {
			t.Errorf("blocked read got %q", m.Data)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked read never completed")
	}
}

// TestRemoteErrorMapping pins which write failures are synchronous and which
// arrive later: the interface table came with the hello ack, so a bad
// interface or direction is refused on the spot; an unbound interface is
// only known to the bus when it applies the write, so the write returns nil
// and the port's next data call returns ErrUnbound, once.
func TestRemoteErrorMapping(t *testing.T) {
	b, s := startServer(t)
	comp := dial(t, s, "compute")
	if err := comp.Write("sensor", nil); !errors.Is(err, ErrDirection) {
		t.Errorf("direction error: %v", err)
	}
	if err := comp.Write("ghost", nil); !errors.Is(err, ErrNoInterface) {
		t.Errorf("nointerface error: %v", err)
	}
	if err := comp.SendBatch("ghost", [][]byte{nil}); !errors.Is(err, ErrNoInterface) {
		t.Errorf("nointerface error on a batch: %v", err)
	}
	if err := comp.Write("display", nil); err != nil {
		// display.temper receives; this should succeed.
		t.Errorf("bound write: %v", err)
	}
	if _, err := comp.Pending("display"); err != nil {
		t.Errorf("nothing failed, yet the next round trip reports %v", err)
	}
	if _, err := comp.AwaitState(30 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("timeout error: %v", err)
	}

	if err := b.DeleteBinding(Endpoint{"display", "temper"}, Endpoint{"compute", "display"}); err != nil {
		t.Fatal(err)
	}
	if err := comp.Write("display", nil); err != nil {
		t.Fatalf("unbound write: %v, want nil (the failure is the next call's)", err)
	}
	for i := 0; i < 3; i++ {
		_, err := comp.Pending("display")
		if i == 0 && !errors.Is(err, ErrUnbound) {
			t.Errorf("the call after an unbound write: %v, want ErrUnbound", err)
		}
		if i > 0 && err != nil {
			t.Errorf("call %d after an unbound write: %v, want the failure reported once", i+1, err)
		}
	}
	// Control calls never carry a data write's failure.
	if err := comp.Write("display", nil); err != nil {
		t.Fatal(err)
	}
	if err := comp.Divulge([]byte("s")); err != nil {
		t.Errorf("Divulge after an unbound write: %v", err)
	}
	if err := comp.Close(); !errors.Is(err, ErrUnbound) {
		t.Errorf("Close after an unbound write: %v, want ErrUnbound", err)
	}
}

func TestRemoteSignalPush(t *testing.T) {
	b, s := startServer(t)
	comp := dial(t, s, "compute")
	if _, ok := comp.TakeSignal(); ok {
		t.Fatal("spurious signal")
	}
	if err := b.SignalReconfig("compute"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if sig, ok := comp.TakeSignal(); ok {
			if sig.Kind != SignalReconfig {
				t.Errorf("signal = %v", sig.Kind)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("signal never arrived")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRemoteDivulgeAndInstall(t *testing.T) {
	b, s := startServer(t)
	comp := dial(t, s, "compute")

	// Divulge travels remote -> bus.
	if err := comp.Divulge([]byte("stately")); err != nil {
		t.Fatal(err)
	}
	divulged, err := b.AwaitDivulged("compute", time.Second)
	if err != nil || string(divulged) != "stately" {
		t.Fatalf("AwaitDivulged = %q, %v", divulged, err)
	}

	// Install travels bus -> remote.
	if err := b.InstallState("compute", []byte("installed")); err != nil {
		t.Fatal(err)
	}
	data, err := comp.AwaitState(time.Second)
	if err != nil || string(data) != "installed" {
		t.Fatalf("AwaitState = %q, %v", data, err)
	}
}

func TestRemoteDeletionNotice(t *testing.T) {
	b, s := startServer(t)
	comp := dial(t, s, "compute")
	if comp.Done() {
		t.Fatal("Done before delete")
	}
	if err := b.DeleteInstance("compute"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !comp.Done() {
		if time.Now().After(deadline) {
			t.Fatal("Done never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRemoteConnectionLoss(t *testing.T) {
	_, s := startServer(t)
	comp := dial(t, s, "compute")
	errCh := make(chan error, 1)
	go func() {
		_, err := comp.Read("display")
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	comp.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrStopped) {
			t.Errorf("read after close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked read survived connection loss")
	}
	if err := comp.Write("display", nil); !errors.Is(err, ErrStopped) {
		t.Errorf("write after close: %v", err)
	}
	if !comp.Done() {
		t.Error("Done false after close")
	}
}

func TestServerClose(t *testing.T) {
	_, s := startServer(t)
	comp := dial(t, s, "compute")
	if err := s.Close(); err != nil {
		t.Logf("server close: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !comp.Done() {
		if time.Now().After(deadline) {
			t.Fatal("port not Done after server close")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDialPortBadAddr(t *testing.T) {
	if _, err := DialPort("127.0.0.1:1", "x"); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestErrKindRoundTrip(t *testing.T) {
	for _, sentinel := range []error{ErrStopped, ErrTimeout, ErrUnbound, ErrDirection, ErrNoInterface, ErrNoInstance} {
		kind := errKind(sentinel)
		back := errFromKind(kind, sentinel.Error())
		if kind == 0 || !errors.Is(back, sentinel) {
			t.Errorf("sentinel %v did not survive the wire (kind %d)", sentinel, kind)
		}
	}
	if err := errFromKind(0, "boom"); err == nil || err.Error() != "boom" {
		t.Errorf("other kind = %v", err)
	}
	if err := errFromKind(200, "from a newer peer"); err == nil || err.Error() != "from a newer peer" {
		t.Errorf("unknown kind = %v", err)
	}
	if errKind(errors.New("x")) != 0 {
		t.Error("unknown error kind")
	}
}

// ---- wire format ------------------------------------------------------
//
// One frame per opcode each way, the expected bytes written out by hand from
// the grammar in tcp.go's header comment (length prefix included), not
// produced by the encoder: a change of format is a diff of this table.

var goldenTrace = TraceContext{TraceID: 9, SpanID: 4, Parent: 3, Hops: 2, Flags: 1, SentNs: 123}

var goldenFrames = []struct {
	name string
	f    frame
	want string
}{
	// client -> server
	{"hello", frame{Op: opHello, Name: "compute"},
		"00000009  01  07 636f6d70757465"},
	{"write", frame{Op: opWrite, Name: "out", Data: []byte("payload")},
		"0000000e  02  03 6f7574  00  07 7061796c6f6164"},
	{"write traced", frame{Op: opWrite, Name: "out", Data: []byte("payload"), Trace: goldenTrace},
		"00000015  02  03 6f7574  01 09 04 03 02 01 f601  07 7061796c6f6164"}, // zig-zag 123 = 246
	{"writebatch", frame{Op: opWriteBatch, Name: "out", Batch: [][]byte{[]byte("a"), []byte("bc")}},
		"0000000c  03  03 6f7574  00  02  01 61  02 6263"},
	{"read", frame{Op: opRead, ID: 7, Name: "in"}, "00000005  04 07  02 696e"},
	{"tryread", frame{Op: opTryRead, ID: 7, Name: "in"}, "00000005  05 07  02 696e"},
	{"pending", frame{Op: opPending, ID: 300, Name: "in"}, "00000006  06 ac02  02 696e"},
	{"divulge", frame{Op: opDivulge, ID: 7, Data: []byte("st")}, "00000005  07 07  02 7374"},
	{"awaitstate", frame{Op: opAwaitState, ID: 7, N: 250}, "00000004  08 07  f403"}, // zig-zag 250 = 500
	{"confirmrestore ok", frame{Op: opConfirmRestore, ID: 7}, "00000003  09 07  00"},
	{"confirmrestore failed", frame{Op: opConfirmRestore, ID: 7, Data: []byte("no")}, "00000005  09 07  02 6e6f"},
	{"sync", frame{Op: opSync, ID: 7}, "00000002  0a 07"},
	// server -> client
	{"hello ack", frame{Op: rHello, Hello: &helloAck{Name: "compute", Machine: "m2", Status: StatusClone,
		Ifaces: []IfaceSpec{{Name: "display", Dir: InOut}, {Name: "sensor", Dir: In}}}},
		"00000024  0b  07 636f6d70757465  02 6d32  05 636c6f6e65  02  07 646973706c6179 03  06 73656e736f72 01"},
	{"ok", frame{Op: rOK, ID: 7}, "00000002  0c 07"},
	{"msg", frame{Op: rMsg, ID: 7, From: Endpoint{"sensor", "out"}, Data: []byte("payload")},
		"00000016  0d 07  06 73656e736f72  03 6f7574  00  07 7061796c6f6164"},
	{"msg traced", frame{Op: rMsg, ID: 7, From: Endpoint{"sensor", "out"}, Data: []byte("p"), Trace: goldenTrace},
		"00000017  0d 07  06 73656e736f72  03 6f7574  01 09 04 03 02 01 f601  01 70"},
	{"count", frame{Op: rCount, ID: 7, N: 3}, "00000003  0e 07 06"},
	{"data", frame{Op: rData, ID: 7, Data: []byte("st")}, "00000005  0f 07  02 7374"},
	{"err", frame{Op: rErr, ID: 7, N: 2, Text: "late"}, "00000008  10 07 04  04 6c617465"},
	{"posted write failed", frame{Op: rErr, N: 3, Text: "x"}, "00000005  10 00 06  01 78"},
	{"signal", frame{Op: rSignal, N: int64(SignalReconfig)}, "00000002  11 02"},
	{"deleted", frame{Op: rDeleted}, "00000001  12"},
}

func goldenBytes(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.Join(strings.Fields(s), ""))
	if err != nil {
		t.Fatalf("bad hex in the golden table: %v", err)
	}
	return b
}

// sameFrame compares frames as the wire can tell them apart: nil and empty
// payloads are one.
func sameFrame(a, b frame) bool {
	if len(a.Batch) == 0 && len(b.Batch) == 0 {
		a.Batch, b.Batch = nil, nil
	}
	a.Data, b.Data = append([]byte{}, a.Data...), append([]byte{}, b.Data...)
	return reflect.DeepEqual(a, b)
}

func TestWireFormatGolden(t *testing.T) {
	seen := map[byte]bool{}
	for _, tt := range goldenFrames {
		t.Run(tt.name, func(t *testing.T) {
			seen[tt.f.Op] = true
			want := goldenBytes(t, tt.want)
			got := appendFrame(codec.BeginFrame(nil), &tt.f)
			if err := codec.EndFrame(got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("encoded % x\n   want % x", got, want)
			}
			var back frame
			if err := decodeFrame(want[4:], &back, asString); err != nil {
				t.Fatal(err)
			}
			if !sameFrame(back, tt.f) {
				t.Errorf("decoded %+v, want %+v", back, tt.f)
			}
		})
	}
	for op := opHello; op < numOps; op++ {
		if !seen[op] {
			t.Errorf("opcode %#x has no golden frame", op)
		}
	}
}

// FuzzFrame feeds the decoder what a socket can: it may not panic or take
// more than the frame gives it, and whatever it accepts must survive the
// encoder unchanged.
func FuzzFrame(f *testing.F) {
	for _, tt := range goldenFrames {
		f.Add(appendFrame(nil, &tt.f))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var fr, again frame
		if err := decodeFrame(body, &fr, asString); err != nil {
			return
		}
		held := len(fr.Data)
		for _, p := range fr.Batch {
			held += len(p)
		}
		if held > len(body) || len(fr.Batch) > maxWireBatch || (fr.Hello != nil && len(fr.Hello.Ifaces) > maxWireIfaces) {
			t.Fatalf("a %d-byte frame decoded to %+v", len(body), fr)
		}
		if err := decodeFrame(appendFrame(nil, &fr), &again, asString); err != nil || !sameFrame(fr, again) {
			t.Fatalf("frame %+v came back as %+v, %v", fr, again, err)
		}
	})
}

// TestRecordedWireDeliveryRoundTrips closes the loop between the wire
// encoders and the record spill: a payload sent over a TCP attachment is
// recorded by the bus byte-identically, and the recorded window survives a
// spill write/read cycle with the payload and trace context intact — a
// frame produced by today's encoders replays tomorrow.
func TestRecordedWireDeliveryRoundTrips(t *testing.T) {
	log := replay.NewLog(64)
	log.Enable()
	b := New(WithRecorder(log))
	for _, spec := range []InstanceSpec{
		{Name: "display", Module: "display", Machine: "m1",
			Interfaces: []IfaceSpec{{Name: "temper", Dir: InOut}}},
		{Name: "compute", Module: "compute", Machine: "m2",
			Interfaces: []IfaceSpec{{Name: "display", Dir: InOut}}},
	} {
		if err := b.AddInstance(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddBinding(Endpoint{"display", "temper"}, Endpoint{"compute", "display"}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(b, l)
	t.Cleanup(func() { s.Close() })
	remote := dial(t, s, "display")
	local := attach(t, b, "compute")

	payload := []byte{0x00, 'w', 'i', 'r', 'e', 0xFF}
	if err := remote.Write("temper", payload); err != nil {
		t.Fatal(err)
	}
	m, err := local.Read("display")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Data, payload) {
		t.Fatalf("wire delivery mangled the payload: %x", m.Data)
	}
	recs := log.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("recorded %d deliveries, want 1", len(recs))
	}
	if !bytes.Equal(recs[0].Data, payload) {
		t.Errorf("recorded payload %x, sent %x", recs[0].Data, payload)
	}
	if recs[0].From != "display.temper" || recs[0].To != "compute.display" {
		t.Errorf("recorded endpoints %s -> %s", recs[0].From, recs[0].To)
	}

	// Spill the window and read it back: byte-identical payload, identical
	// trace context.
	var buf bytes.Buffer
	spill := replay.NewLog(64)
	if err := spill.SetSpill(&buf); err != nil {
		t.Fatal(err)
	}
	spill.Enable()
	spill.Queue("compute.display").Append("display.temper", recs[0].Data, recs[0].Trace, recs[0].Epoch)
	decoded, err := replay.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 || !bytes.Equal(decoded[0].Data, payload) || decoded[0].Trace != recs[0].Trace {
		t.Errorf("spill round trip = %+v, want payload %x trace %+v", decoded, payload, recs[0].Trace)
	}
}
