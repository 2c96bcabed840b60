package bus

import (
	"bytes"
	"encoding/hex"
	"errors"
	"net"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
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
	if err := b.AddBinding(Endpoint{Instance: "display", Interface: "temper"}, Endpoint{Instance: "compute", Interface: "display"}); err != nil {
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
		if m.From != (Endpoint{Instance: "display", Interface: "temper"}) {
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
	b, s := startServer(t)
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
	waitFor(t, "the remote read parked at the bus", parkedOn(b, "compute", "display"))
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

// TestRemoteConcurrentReadersExactlyOnce: a Read parked at the server and a
// TryRead loop, on one port and one interface, consume one bus queue. Every
// message goes to exactly one of them and none is left queued; their order
// against each other is not promised, as in process.
func TestRemoteConcurrentReadersExactlyOnce(t *testing.T) {
	b, s := startServer(t)
	comp := dial(t, s, "compute")
	disp := attach(t, b, "display")
	const n = 200
	type taken struct {
		payload string
		by      int // 0 Read, 1 TryRead
	}
	got := make(chan taken, 2*n)
	stop := make(chan struct{})
	readDone, tryDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(readDone)
		for {
			m, err := comp.Read("display")
			if err != nil {
				if !errors.Is(err, ErrStopped) {
					t.Errorf("Read: %v", err)
				}
				return
			}
			got <- taken{string(m.Data), 0}
		}
	}()
	go func() {
		defer close(tryDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			m, ok, err := comp.TryRead("display")
			if err != nil {
				t.Errorf("TryRead: %v", err)
				return
			}
			if ok {
				got <- taken{string(m.Data), 1}
			}
		}
	}()
	waitFor(t, "the remote read parked at the bus", parkedOn(b, "compute", "display"))
	for i := 0; i < n; i++ {
		if err := disp.Write("temper", []byte(strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	var by [2]int
	for len(seen) < n {
		select {
		case m := <-got:
			if seen[m.payload] {
				t.Fatalf("message %s delivered twice", m.payload)
			}
			seen[m.payload] = true
			by[m.by]++
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d messages arrived", len(seen), n)
		}
	}
	if q, err := comp.Pending("display"); err != nil || q != 0 {
		t.Errorf("Pending after every message arrived = %d, %v", q, err)
	}
	close(stop)
	<-tryDone
	comp.Close() // ends the parked Read
	<-readDone
	if len(got) != 0 {
		t.Errorf("%d messages beyond the %d written", len(got), n)
	}
	t.Logf("Read took %d, TryRead %d", by[0], by[1])
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

	if err := b.Rebind([]BindEdit{{Op: "del", From: Endpoint{Instance: "display", Interface: "temper"}, To: Endpoint{Instance: "compute", Interface: "display"}}}); err != nil {
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
	var sig Signal
	waitFor(t, "the pushed signal", func() bool {
		var ok bool
		sig, ok = comp.TakeSignal()
		return ok
	})
	if sig.Kind != SignalReconfig {
		t.Errorf("signal = %v", sig.Kind)
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
	waitFor(t, "the deletion notice", comp.Done)
}

func TestRemoteConnectionLoss(t *testing.T) {
	b, s := startServer(t)
	comp := dial(t, s, "compute")
	errCh := make(chan error, 1)
	go func() {
		_, err := comp.Read("display")
		errCh <- err
	}()
	waitFor(t, "the remote read parked at the bus", parkedOn(b, "compute", "display"))
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
	waitFor(t, "the port to end with the server", comp.Done)
}

// TestDialPortBadAddr: a dial to a closed port fails, naming the address.
func TestDialPortBadAddr(t *testing.T) {
	if _, err := DialPort("127.0.0.1:1", "x"); err == nil {
		t.Error("dial to closed port succeeded")
	} else if !strings.Contains(err.Error(), "dial 127.0.0.1:1") {
		t.Errorf("dial error %v does not name the address", err)
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
	{"msg", frame{Op: rMsg, ID: 7, From: Endpoint{Instance: "sensor", Interface: "out"}, Data: []byte("payload")},
		"00000016  0d 07  06 73656e736f72  03 6f7574  00  07 7061796c6f6164"},
	{"msg traced", frame{Op: rMsg, ID: 7, From: Endpoint{Instance: "sensor", Interface: "out"}, Data: []byte("p"), Trace: goldenTrace},
		"00000017  0d 07  06 73656e736f72  03 6f7574  01 09 04 03 02 01 f601  01 70"},
	{"count", frame{Op: rCount, ID: 7, N: 3}, "00000003  0e 07 06"},
	{"data", frame{Op: rData, ID: 7, Data: []byte("st")}, "00000005  0f 07  02 7374"},
	{"err", frame{Op: rErr, ID: 7, N: 2, Text: "late"}, "00000008  10 07 04  04 6c617465"},
	{"posted write failed", frame{Op: rErr, N: 3, Text: "x"}, "00000005  10 00 06  01 78"},
	{"signal", frame{Op: rSignal, N: int64(SignalReconfig)}, "00000002  11 02"},
	{"deleted", frame{Op: rDeleted}, "00000001  12"},
}

// asString is the intern function of a decode that happens once.
func asString(b []byte) string { return string(b) }

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
	b := New(WithRecorder(64, 0))
	log := b.Recorder()
	log.Enable()
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
	if err := b.AddBinding(Endpoint{Instance: "display", Interface: "temper"}, Endpoint{Instance: "compute", Interface: "display"}); err != nil {
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
	spill, spillW := replay.NewLog(64, false)
	if err := spill.SetSpill(&buf); err != nil {
		t.Fatal(err)
	}
	spill.Enable()
	spillW.Queue("compute.display").Append("display.temper", recs[0].Data, recs[0].Trace, recs[0].Epoch, clock.Clock{})
	decoded, err := replay.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 || !bytes.Equal(decoded[0].Data, payload) || decoded[0].Trace != recs[0].Trace {
		t.Errorf("spill round trip = %+v, want payload %x trace %+v", decoded, payload, recs[0].Trace)
	}
}

// ---- the two ends of a connection ---------------------------------------

// TestParkedCallsEndWithConnection: a read or awaitstate parked at the
// server ends with its connection — a module process killed while blocked
// in Read — and takes nothing: the next message stays queued for Rebind to
// move, the next installed state stays boxed, and the connection leaves no
// goroutine behind.
func TestParkedCallsEndWithConnection(t *testing.T) {
	for _, row := range []struct {
		name string
		call frame
	}{
		{"read", frame{Op: opRead, ID: 1, Name: "display"}},
		{"awaitstate", frame{Op: opAwaitState, ID: 1, N: time.Minute.Milliseconds()}},
	} {
		t.Run(row.name, func(t *testing.T) {
			b, s := startServer(t)
			if err := b.AddInstance(InstanceSpec{Name: "compute2", Module: "compute",
				Interfaces: []IfaceSpec{{Name: "display", Dir: InOut}}}); err != nil {
				t.Fatal(err)
			}
			disp := attach(t, b, "display")
			base := runtime.NumGoroutine()
			conn := rawDial(t, s, "compute")
			sendRaw(t, conn, appendFrame(nil, &row.call))
			sendRaw(t, conn, appendFrame(nil, &frame{Op: opSync, ID: 2}))
			var r frame
			body, err := codec.NewFrameReader(conn).Next()
			if err == nil {
				err = decodeFrame(body, &r, asString)
			}
			if err != nil || r.Op != rOK || r.ID != 2 {
				t.Fatalf("the sync behind the parked call: %+v, %v", r, err)
			}
			conn.Close()
			waitFor(t, "the server to let the connection go", func() bool { return serving(s) == 0 })

			if err := disp.Write("temper", []byte("after")); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the connection's goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
			if info, err := b.Info("compute"); err != nil || info.Pending["display"] != 1 {
				t.Errorf("one write after the connection ended: compute.display holds %d, %v; want 1", info.Pending["display"], err)
			}
			if err := b.InstallState("compute", []byte("s")); err != nil {
				t.Fatal(err)
			}
			if err := b.InstallState("compute", []byte("s")); err == nil {
				t.Error("the state installed after the connection ended was taken")
			}
			if err := b.Rebind([]BindEdit{{Op: "cq", From: Endpoint{Instance: "compute", Interface: "display"}, To: Endpoint{Instance: "compute2", Interface: "display"}}}); err != nil {
				t.Fatal(err)
			}
			if info, err := b.Info("compute2"); err != nil || info.Pending["display"] != 1 {
				t.Errorf("Rebind cq moved %d messages, %v; want 1", info.Pending["display"], err)
			}
		})
	}
}

// TestServerRefusesCallParkedTwice: a second call under a parked call's id
// would leave one of the two unanswered, holding whatever it took. The
// server ends the connection instead.
func TestServerRefusesCallParkedTwice(t *testing.T) {
	s := startServerWithHello(t, helloTimeout)
	bad := rawDial(t, s, "compute")
	read := frame{Op: opRead, ID: 1, Name: "display"}
	sendRaw(t, bad, appendFrame(nil, &read))
	sendRaw(t, bad, appendFrame(nil, &read))
	if reason := expectClosed(t, s, bad, 0); !strings.Contains(reason, "parked twice") {
		t.Errorf("close reason = %q", reason)
	}
}

// TestClientRefusesWrongFrames: the client end takes only frames of its
// direction, and a reply only of a kind its call accepts. Anything else
// ends the connection: the call fails and the port is Done.
func TestClientRefusesWrongFrames(t *testing.T) {
	for _, row := range []struct {
		name   string
		answer frame // to a pending, with its id
	}{
		{"a request", frame{Op: opRead, Name: "out"}},
		{"data for a count", frame{Op: rData, Data: []byte("7")}},
		{"a second hello", frame{Op: rHello, Hello: &helloAck{Name: "w"}}},
	} {
		t.Run(row.name, func(t *testing.T) {
			addr := fakeServer(t, func(conn net.Conn, fr *codec.FrameReader) {
				var req frame
				if body, err := fr.Next(); err != nil || decodeFrame(body, &req, asString) != nil {
					return
				}
				answer := row.answer
				answer.ID = req.ID
				writeFrame(conn, &answer)
			})
			p, err := DialPort(addr, "w")
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if n, err := p.Pending("out"); !errors.Is(err, ErrStopped) {
				t.Errorf("Pending answered by %s = %d, %v; want ErrStopped", row.name, n, err)
			}
			if !p.Done() {
				t.Error("port not Done after a wrong frame")
			}
		})
	}
}

// FuzzConn feeds a framed byte stream to each end of a connection after a
// valid handshake over net.Pipe. The server must serve it or close, and
// let the connection go once the peer does; the client, with a pending
// outstanding, must return the count an answer of its kind carries, or an
// error. Neither end may panic, hang past a second or send a frame of the
// wrong direction.
func FuzzConn(f *testing.F) {
	for _, tt := range goldenFrames {
		fr := tt.f
		if fr.ID != 0 {
			fr.ID = 1 // the client's outstanding call
		}
		b := appendFrame(codec.BeginFrame(nil), &fr)
		if err := codec.EndFrame(b); err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		fuzzServerEnd(t, stream)
		fuzzClientEnd(t, stream)
	})
}

func fuzzServerEnd(t *testing.T, stream []byte) {
	l := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	s := NewServer(testBusForTCP(t), l)
	defer s.Close()
	nc := l.dial()
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(time.Second))
	fr := codec.NewFrameReader(nc)
	writeFrame(nc, &frame{Op: opHello, Name: "compute"})
	var ack frame
	if body, err := fr.Next(); err != nil || decodeFrame(body, &ack, asString) != nil || ack.Op != rHello {
		t.Fatalf("hello ack = %+v, %v", ack, err)
	}
	wrong := make(chan []byte, 1)
	go func() { // what the server sends, until the connection ends
		defer close(wrong)
		var f frame
		for {
			body, err := fr.Next()
			if err != nil {
				return
			}
			if err := decodeFrame(body, &f, asString); err != nil || f.Op <= rHello {
				wrong <- append([]byte(nil), body...)
				return
			}
		}
	}()
	_, _ = nc.Write(stream) // fails once the server has closed
	nc.Close()
	waitFor(t, "the server to let the connection go", func() bool { return serving(s) == 0 })
	if body, ok := <-wrong; ok {
		t.Fatalf("the server sent % x", body)
	}
}

func fuzzClientEnd(t *testing.T, stream []byte) {
	srv, cli := net.Pipe()
	defer srv.Close()
	_ = srv.SetDeadline(time.Now().Add(time.Second))
	go func() {
		if _, err := codec.NewFrameReader(srv).Next(); err == nil {
			writeFrame(srv, &frame{Op: rHello, Hello: &helloAck{Name: "compute", Ifaces: []IfaceSpec{{Name: "display", Dir: InOut}}}})
		}
	}()
	p, err := attachPort(cli, "compute")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	type result struct {
		n   int
		err error
	}
	got := make(chan result, 1)
	go func() {
		n, err := p.Pending("display")
		got <- result{n, err}
	}()
	if _, err := codec.NewFrameReader(srv).Next(); err != nil {
		t.Fatalf("the pending request: %v", err)
	}
	want, answered, posted := expectPending(stream)
	_, _ = srv.Write(stream) // fails once the client has closed
	srv.Close()
	select {
	case r := <-got:
		if r.err == nil && (!answered || r.n != want) || r.err != nil && answered && !posted {
			t.Fatalf("Pending = %d, %v; the stream answers %t with %d (posted failure: %t)", r.n, r.err, answered, want, posted)
		}
	case <-time.After(time.Second):
		t.Fatal("the client's call outlived the stream")
	}
}

// expectPending is what the client end must make of stream with call 1, a
// pending, outstanding: the count of the count that answers it, if one does
// before the connection ends, and whether a posted write's failure arrives
// too (Pending returns that instead).
func expectPending(stream []byte) (n int, answered, posted bool) {
	fr := codec.NewFrameReader(bytes.NewReader(stream))
	done := false
	for {
		var f frame
		body, err := fr.Next()
		if err != nil || decodeFrame(body, &f, asString) != nil || f.Op <= rHello {
			return n, answered, posted // the end of the stream, or of the connection
		}
		switch {
		case f.Op == rErr && f.ID == 0:
			posted = true
		case f.ID == 1 && !done:
			if f.Op != rCount && f.Op != rErr {
				return n, answered, posted // the wrong kind ends the connection
			}
			done, answered, n = true, f.Op == rCount, int(f.N)
		}
	}
}

// pipeListener is a net.Listener whose connections are net.Pipes.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error { close(l.done); return nil }

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Net: "pipe", Name: "pipe"} }

// dial hands the listener one end of a new pipe and returns the other.
func (l *pipeListener) dial() net.Conn {
	c, s := net.Pipe()
	l.conns <- s
	return c
}

// fakeServer accepts one connection, acks its hello as an instance "w" with
// an out interface and hands the connection on to serve, keeping it open
// until the test ends.
func fakeServer(t *testing.T, serve func(net.Conn, *codec.FrameReader)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conns := make(chan net.Conn, 1)
	t.Cleanup(func() {
		l.Close()
		select {
		case conn := <-conns:
			conn.Close()
		default:
		}
	})
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		conns <- conn
		fr := codec.NewFrameReader(conn)
		if _, err := fr.Next(); err != nil {
			return
		}
		writeFrame(conn, &frame{Op: rHello, Hello: &helloAck{Name: "w", Ifaces: []IfaceSpec{{Name: "out", Dir: Out}}}})
		serve(conn, fr)
	}()
	return l.Addr().String()
}

// writeFrame is sendRaw for a goroutine other than the test's: a failed
// write is the reader's to notice.
func writeFrame(conn net.Conn, f *frame) {
	b := appendFrame(codec.BeginFrame(nil), f)
	if codec.EndFrame(b) == nil {
		_, _ = conn.Write(b)
	}
}

// serving counts the server's connections.
func serving(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// waitFor polls cond until it holds, failing the test after 10s: how these
// tests wait for a state the bus reaches on its own.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// parkedOn reports whether inst's reader on iface is blocked waiting.
func parkedOn(b *Bus, inst, iface string) func() bool {
	return func() bool {
		info, err := b.Info(inst)
		return err == nil && info.Parked[iface]
	}
}
