package bus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// This file is the wire protocol that lets a module attach to the bus from
// another OS process — the reproduction's stand-in for POLYLITH's
// heterogeneous hosts: one TCP connection per attached instance, a Server
// on the bus's side and a RemotePort (a Port) on the module's.
//
// FRAMES. Both directions carry the length-prefixed frames of
// internal/codec (a 4-byte big-endian body length, at most codec.MaxFrame).
// A body is an opcode byte and that opcode's fields, written with the
// portable format's own primitives (layouts below is this grammar as data):
//
//	str   := len(uvarint) bytes
//	id    := uvarint               names the call a reply answers, never 0
//	n     := zig-zag varint
//	trace := 00                    the zero TraceContext
//	       | 01 traceID(uvarint) spanID(uvarint) parent(uvarint)
//	            hops(uvarint) flags(uvarint) sentNs(n)
//
//	client -> server
//	  01 hello           instance(str)
//	  02 write           iface(str) trace data(str)
//	  03 writebatch      iface(str) trace count(uvarint) data(str)*count
//	  04 read            id iface(str)
//	  05 tryread         id iface(str)
//	  06 pending         id iface(str)
//	  07 divulge         id data(str)
//	  08 awaitstate      id timeoutMs(n)
//	  09 confirmrestore  id errtext(str)      "" = restored
//	  0a sync            id
//	server -> client
//	  0b hello    name(str) machine(str) status(str) count(uvarint) (iface(str) dir(1))*count
//	  0c ok       id                          also a tryread that found nothing
//	  0d msg      id from.instance(str) from.interface(str) trace data(str)
//	  0e count    id queued(n)
//	  0f data     id data(str)
//	  10 err      id errkind(n) text(str)     id 0: a posted write failed
//	  11 signal   kind(n)
//	  12 deleted
//
// A connection opens with hello and its ack (or an err and a close); a
// malformed frame, an unknown opcode or an oversized length prefix closes
// the connection it arrived on and nothing else (EventConnClosed).
//
// ORDER. The server applies a connection's frames strictly in arrival
// order, on the connection's own goroutine: everything that cannot block is
// answered there, and only a read on an empty queue and awaitstate park in a
// goroutine of their own. write and writebatch are posted: they carry no id,
// get no reply, and RemotePort.Write returns once the kernel has the frame.
// So, on one port, whatever follows a write observes it (Write; Pending,
// Write; Divulge, Write; Read) and any completed round trip is a barrier for
// everything posted before it; across ports nothing is promised — a Write
// that has returned may not yet be visible to another port's Pending
// (POLYLITH's mh_write never promised it either). What a write can be
// refused for statically — ErrNoInterface, ErrDirection — the client checks
// against the hello ack's interface table and returns at once; what depends
// on the topology when the write is applied (ErrUnbound, ErrNoInstance)
// comes back as an err frame with id 0 and is returned, once, by the port's
// next Write, SendBatch, Read, TryRead or Pending, or by Close — never by
// Divulge, AwaitState or ConfirmRestore, whose own outcome must not be
// mistaken.
//
// A message leaves a bus queue only for a Read or TryRead the port's caller
// has issued — there is no read-ahead, because Rebind's queue moves,
// Pending and the quiesce drain test all mean "queued at the bus". The one
// exception: a Read abandoned by CallTimeout stays parked at the server, and
// the reply it eventually gets is kept on the port for the next Read or
// TryRead of that interface (Pending counts it).

// Opcodes. The client's double as the bus.rpc.<op> counter vocabulary;
// index 0 counts frames the server could not decode.
const (
	opHello byte = iota + 1
	opWrite
	opWriteBatch
	opRead
	opTryRead
	opPending
	opDivulge
	opAwaitState
	opConfirmRestore
	opSync
	rHello
	rOK
	rMsg
	rCount
	rData
	rErr
	rSignal
	rDeleted
	numOps
)

var opNames = [rHello]string{"unknown", "hello", "write", "writebatch", "read", "tryread",
	"pending", "divulge", "awaitstate", "confirmrestore", "sync"}

// Fields a frame can carry, and which of them each opcode does, in order.
const (
	fID    = iota // frame.ID
	fName         // frame.Name, interned
	fFrom         // frame.From, both halves interned
	fTrace        // frame.Trace
	fData         // frame.Data, a view
	fBatch        // frame.Batch, views
	fN            // frame.N
	fText         // frame.Text
	fHello        // frame.Hello
)

var layouts = [numOps][]byte{
	opHello:          {fName},
	opWrite:          {fName, fTrace, fData},
	opWriteBatch:     {fName, fTrace, fBatch},
	opRead:           {fID, fName},
	opTryRead:        {fID, fName},
	opPending:        {fID, fName},
	opDivulge:        {fID, fData},
	opAwaitState:     {fID, fN},
	opConfirmRestore: {fID, fData},
	opSync:           {fID},
	rHello:           {fHello},
	rOK:              {fID},
	rMsg:             {fID, fFrom, fTrace, fData},
	rCount:           {fID, fN},
	rData:            {fID, fData},
	rErr:             {fID, fN, fText},
	rSignal:          {fN},
	rDeleted:         {},
}

const (
	// helloTimeout is how long an accepted connection may take to say hello
	// (the HTTP plane's ReadHeaderTimeout); closeTimeout bounds Close's
	// barrier on a port without a CallTimeout.
	helloTimeout = 5 * time.Second
	closeTimeout = 2 * time.Second
	// Limits on counts a peer states. A longer batch goes as several frames.
	maxWireBatch  = 1 << 10
	maxWireIfaces = 1 << 10
	// maxIdleWireBuf is the most an encode buffer keeps between frames,
	// maxInterned the most sender names a port remembers.
	maxIdleWireBuf = 64 << 10
	maxInterned    = 256
)

var errMalformed = fmt.Errorf("%w: malformed frame", codec.ErrCorrupt)

// frame is a decoded frame of either direction. Decoded Data and Batch
// alias the connection's read buffer: whoever retains them copies them.
type frame struct {
	Op    byte
	ID    uint64 // round trips and their replies; 0 elsewhere
	Name  string // hello: the instance; requests: the interface
	From  Endpoint
	Trace TraceContext
	Data  []byte // payload, state, or confirmrestore's error text
	Batch [][]byte
	N     int64 // awaitstate: timeout ms; count: queued; err, signal: the kind
	Text  string
	Hello *helloAck
}

type helloAck struct {
	Name, Machine, Status string
	Ifaces                []IfaceSpec
}

//archlint:hotpath
func appendFrame(b []byte, f *frame) []byte {
	b = append(b, f.Op)
	for _, field := range layouts[f.Op] {
		switch field {
		case fID:
			b = binary.AppendUvarint(b, f.ID)
		case fName:
			b = codec.AppendStr(b, f.Name)
		case fFrom:
			b = codec.AppendStr(b, f.From.Instance)
			b = codec.AppendStr(b, f.From.Interface)
		case fTrace:
			b = codec.AppendTrace(b, &f.Trace)
		case fData:
			b = codec.AppendStr(b, f.Data)
		case fBatch:
			b = binary.AppendUvarint(b, uint64(len(f.Batch)))
			for _, data := range f.Batch {
				b = codec.AppendStr(b, data)
			}
		case fN:
			b = binary.AppendVarint(b, f.N)
		case fText:
			b = codec.AppendStr(b, f.Text)
		case fHello:
			b = codec.AppendStr(b, f.Hello.Name)
			b = codec.AppendStr(b, f.Hello.Machine)
			b = codec.AppendStr(b, f.Hello.Status)
			b = binary.AppendUvarint(b, uint64(len(f.Hello.Ifaces)))
			for _, ifc := range f.Hello.Ifaces {
				b = codec.AppendStr(b, ifc.Name)
				b = append(b, byte(ifc.Dir))
			}
		}
	}
	return b
}

// decodeFrame decodes body into f, reusing f.Batch's backing array; intern
// turns the bytes of an instance or interface name into a string, so that
// the steady state allocates none.
//
//archlint:hotpath
func decodeFrame(body []byte, f *frame, intern func([]byte) string) error {
	r := codec.NewReader(body)
	op, err := r.Byte()
	if err != nil {
		return err
	}
	if int(op) >= len(layouts) || layouts[op] == nil {
		return errMalformed
	}
	*f = frame{Op: op, Batch: f.Batch[:0]}
	var name []byte
	for _, field := range layouts[op] {
		switch field {
		case fID:
			f.ID, err = r.Uvarint()
		case fName:
			name, err = r.Bytes()
			f.Name = intern(name)
		case fFrom:
			if name, err = r.Bytes(); err == nil {
				f.From.Instance = intern(name)
				name, err = r.Bytes()
				f.From.Interface = intern(name)
			}
		case fTrace:
			err = r.Trace(&f.Trace)
		case fData:
			f.Data, err = r.Bytes()
		case fBatch:
			var n uint64
			if n, err = r.Uvarint(); err == nil && n > maxWireBatch {
				err = errMalformed
			}
			for ; n > 0 && err == nil; n-- {
				var data []byte
				data, err = r.Bytes()
				f.Batch = append(f.Batch, data)
			}
		case fN:
			f.N, err = r.Varint()
		case fText:
			f.Text, err = r.Str()
		case fHello:
			f.Hello, err = readHelloAck(r)
		}
		if err != nil {
			return err
		}
	}
	if r.Rem() != 0 {
		return errMalformed
	}
	return nil
}

func readHelloAck(r *codec.Reader) (*helloAck, error) {
	h := &helloAck{}
	var err error
	for _, s := range [...]*string{&h.Name, &h.Machine, &h.Status} {
		if *s, err = r.Str(); err != nil {
			return nil, err
		}
	}
	n, err := r.Uvarint()
	if err == nil && n > maxWireIfaces {
		err = errMalformed
	}
	for ; n > 0 && err == nil; n-- {
		var ifc IfaceSpec
		var dir byte
		if ifc.Name, err = r.Str(); err == nil {
			dir, err = r.Byte()
		}
		ifc.Dir = Direction(dir)
		h.Ifaces = append(h.Ifaces, ifc)
	}
	return h, err
}

// asString is the intern function of a decode that happens once.
func asString(b []byte) string { return string(b) }

// retain copies a payload out of a connection's read buffer: the one
// allocation a message costs on its way into a bus queue, which keeps it.
func retain(p []byte) []byte { return append([]byte(nil), p...) }

// retainBatch does retain's job for a whole batch with one allocation,
// carved into the payloads in place.
func retainBatch(batch [][]byte) {
	total := 0
	for _, p := range batch {
		total += len(p)
	}
	buf := make([]byte, total)
	for i, p := range batch {
		n := copy(buf, p)
		batch[i], buf = buf[:n:n], buf[n:]
	}
}

// frameWriter puts one frame at a time on a socket, through one reusable
// encode buffer.
type frameWriter struct {
	conn net.Conn
	mu   sync.Mutex
	buf  []byte
}

// write sends f; a positive timeout bounds the socket write.
//
//archlint:hotpath
func (w *frameWriter) write(f *frame, timeout time.Duration) error {
	w.mu.Lock()
	b := codec.BeginFrame(w.buf)
	b = appendFrame(b, f)
	err := codec.EndFrame(b)
	if err == nil {
		if timeout > 0 {
			_ = w.conn.SetWriteDeadline(time.Now().Add(timeout))
		}
		_, err = w.conn.Write(b)
	}
	if cap(b) > maxIdleWireBuf {
		b = nil
	}
	w.buf = b
	w.mu.Unlock()
	return err
}

// Error kinds of an err frame: bus sentinels cross the wire as a number so
// errors.Is keeps working on the far side; kind 0 carries text alone.
var wireErrs = [...]error{1: ErrStopped, ErrTimeout, ErrUnbound, ErrDirection, ErrNoInterface, ErrNoInstance}

func errKind(err error) int64 {
	for kind := 1; kind < len(wireErrs); kind++ {
		if errors.Is(err, wireErrs[kind]) {
			return int64(kind)
		}
	}
	return 0
}

func errFromKind(kind int64, text string) error {
	if kind <= 0 || kind >= int64(len(wireErrs)) {
		return errors.New(text)
	}
	return fmt.Errorf("%w (remote: %s)", wireErrs[kind], text)
}

// Server accepts TCP attachments for a bus.
type Server struct {
	bus          *Bus
	l            net.Listener
	helloTimeout time.Duration
	rpc          [rHello]*telemetry.Counter // frames handled, by opcode (nil = no-op)

	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	closeOnce sync.Once
}

// NewServer starts serving attachments on l. Close the server to stop.
func NewServer(b *Bus, l net.Listener) *Server { return newServer(b, l, helloTimeout) }

func newServer(b *Bus, l net.Listener, helloTimeout time.Duration) *Server {
	s := &Server{bus: b, l: l, helloTimeout: helloTimeout, conns: map[net.Conn]struct{}{}}
	for op, name := range opNames {
		s.rpc[op] = b.Telemetry().Counter("bus.rpc." + name)
	}
	go s.acceptLoop() //archlint:spawn accept loop; exits when the listener closes
	return s
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.l.Addr() }

// Close stops accepting and closes all connections. It is idempotent.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		err = s.l.Close()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
	})
	return err
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.l.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn) //archlint:spawn per-connection handler; exits on conn close, tracked in s.conns
	}
}

// serverConn is one accepted connection and the attachment it serves.
type serverConn struct {
	s   *Server
	w   frameWriter
	att *Attachment // nil until hello
}

func (s *Server) serveConn(conn net.Conn) {
	c := &serverConn{s: s, w: frameWriter{conn: conn}}
	err := c.serve(codec.NewFrameReader(conn))
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
		e := Event{Kind: EventConnClosed, Detail: fmt.Sprintf("%s: %v", conn.RemoteAddr(), err)}
		if c.att != nil {
			e.Instance = c.att.Name()
		}
		s.bus.emit(e)
	}
}

// serve runs the connection to its end and returns what ended it.
func (c *serverConn) serve(fr *codec.FrameReader) error {
	intern := c.intern
	var f frame

	// Handshake, under the hello deadline.
	_ = c.w.conn.SetReadDeadline(time.Now().Add(c.s.helloTimeout))
	body, err := fr.Next()
	if err != nil {
		return fmt.Errorf("no hello: %w", err)
	}
	if err := decodeFrame(body, &f, intern); err != nil || f.Op != opHello {
		err = errors.New("expected hello")
		c.sendErr(0, err)
		return err
	}
	if c.att, err = c.s.bus.Attach(f.Name); err != nil {
		c.sendErr(0, err) // refused, not malformed: the dialer reports it
		return nil
	}
	_ = c.w.conn.SetReadDeadline(time.Time{})
	c.s.rpc[opHello].Inc()
	c.send(&frame{Op: rHello, Hello: &helloAck{
		Name: c.att.Name(), Machine: c.att.Machine(), Status: c.att.Status(),
		Ifaces: c.att.inst.ifaceSpecs(),
	}})

	stopPush := make(chan struct{})
	defer close(stopPush)
	go c.pushSignals(stopPush) //archlint:spawn signal push pump; exits via stopPush when the connection ends

	for {
		if body, err = fr.Next(); err != nil {
			return err
		}
		if err = decodeFrame(body, &f, intern); err == nil && (f.Op >= rHello || f.Op == opHello) {
			err = errMalformed // a server's frame, or a second hello
		}
		if err != nil {
			c.s.rpc[0].Inc()
			return err
		}
		c.dispatch(&f)
	}
}

// ifaceSpecs returns the instance's declared interfaces, fixed at
// AddInstance (the lock is for spec's one mutable field, the status).
func (in *instance) ifaceSpecs() []IfaceSpec {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.spec.Interfaces
}

// intern names an interface by the attachment's own copy of the string.
func (c *serverConn) intern(b []byte) string {
	if c.att != nil {
		if ifc, ok := c.att.inst.ifaces[string(b)]; ok {
			return ifc.spec.Name
		}
	}
	return string(b)
}

// pushSignals forwards control signals and the deletion notice.
func (c *serverConn) pushSignals(stop <-chan struct{}) {
	for {
		select {
		case sig, ok := <-c.att.Signals():
			if !ok {
				return
			}
			c.send(&frame{Op: rSignal, N: int64(sig.Kind)})
		case <-c.att.doneChan():
			c.send(&frame{Op: rDeleted})
			return
		case <-stop:
			return
		}
	}
}

// dispatch applies one request, on the connection's goroutine: nothing here
// blocks (bus queues are unbounded, and a fenced write's slow path holds
// Bus.mu only across a push), so the next frame is never kept waiting.
//
//archlint:hotpath
func (c *serverConn) dispatch(f *frame) {
	c.s.rpc[f.Op].Inc()
	r := frame{Op: rOK, ID: f.ID}
	var err error
	switch f.Op {
	case opWrite:
		if err = c.att.WriteTraced(f.Name, retain(f.Data), f.Trace); err == nil {
			return
		}
	case opWriteBatch:
		retainBatch(f.Batch)
		if err = c.att.WriteBatchTraced(f.Name, f.Batch, f.Trace); err == nil {
			return
		}
	case opRead, opTryRead:
		var m Message
		var ok bool
		if m, ok, err = c.att.TryRead(f.Name); ok {
			r.Op, r.From, r.Trace, r.Data = rMsg, m.From, m.Trace, m.Data
		} else if err == nil && f.Op == opRead {
			c.park(f.Op, f.ID, f.Name, 0)
			return
		}
	case opPending:
		var n int
		n, err = c.att.Pending(f.Name)
		r.Op, r.N = rCount, int64(n)
	case opDivulge:
		err = c.att.Divulge(retain(f.Data))
	case opAwaitState:
		c.park(f.Op, f.ID, "", f.N)
		return
	case opConfirmRestore:
		err = c.att.ConfirmRestore(restoreOutcome(f.Data))
	case opSync: // nothing to apply: the answer is the barrier
	}
	if err != nil {
		c.sendErr(f.ID, err)
		return
	}
	c.send(&r)
}

func restoreOutcome(text []byte) error {
	if len(text) == 0 {
		return nil
	}
	return errors.New(string(text))
}

// park serves the two calls that can block off the connection's goroutine.
func (c *serverConn) park(op byte, id uint64, iface string, timeoutMs int64) {
	go func() { //archlint:spawn parked read or awaitstate; exits when its wait ends: a message, installed state, the timeout, or the instance's deletion
		r := frame{Op: rMsg, ID: id}
		var err error
		if op == opRead {
			var m Message
			m, err = c.att.Read(iface)
			r.From, r.Trace, r.Data = m.From, m.Trace, m.Data
		} else {
			r.Op = rData
			r.Data, err = c.att.AwaitState(time.Duration(timeoutMs) * time.Millisecond)
		}
		if err != nil {
			c.sendErr(id, err)
			return
		}
		c.send(&r)
	}()
}

func (c *serverConn) sendErr(id uint64, err error) {
	c.send(&frame{Op: rErr, ID: id, N: errKind(err), Text: err.Error()})
}

// send writes one frame. A failed socket write is not reported — the read
// side of the connection sees the same death and ends it — but a reply too
// large to frame ends the connection here rather than leave its caller
// waiting.
//
//archlint:hotpath
func (c *serverConn) send(f *frame) {
	if err := c.w.write(f, 0); err != nil && errors.Is(err, codec.ErrLimit) {
		c.w.conn.Close()
	}
}

// RemotePort is a Port backed by a TCP connection to a bus Server.
type RemotePort struct {
	w           frameWriter
	hello       helloAck
	dirs        map[string]Direction // the hello ack's interface table
	callTimeout time.Duration
	faults      *faultinject.Set

	// postErr is the failure of a posted write, owed to the next data call.
	postErr atomic.Pointer[error]

	mu      sync.Mutex
	nextID  uint64
	waiting map[uint64]chan frame
	spare   chan frame // the last reply channel emptied, for the next call
	// orphans holds, by interface and oldest first, the reply channels of
	// reads whose caller gave up (CallTimeout): still registered in waiting,
	// adopted by the next Read or TryRead instead of asking again.
	orphans map[string][]chan frame
	signals chan Signal
	deleted bool
	closed  bool
}

var _ Port = (*RemotePort)(nil)

// DialOptions tunes the client side of a TCP attachment.
type DialOptions struct {
	// Retries is the number of additional dial attempts after the first
	// fails (connection refused, network error). 0 means dial exactly once.
	Retries int
	// Backoff is the wait before the first retry; it doubles per attempt.
	// Defaults to 50ms when Retries > 0.
	Backoff time.Duration
	// CallTimeout bounds each round trip, the handshake included, and the
	// socket write of every frame, so a hung or partitioned peer — or one
	// that stopped reading — surfaces as ErrTimeout instead of a stall. 0
	// disables the bound: the right choice for module data-plane ports,
	// whose Read legitimately blocks until traffic arrives.
	CallTimeout time.Duration
	// Faults is the failpoint set for the tcp.dial and tcp.call sites;
	// nil means faultinject.Default().
	Faults *faultinject.Set
}

// DialPort attaches to the instance name on the bus server at addr.
func DialPort(addr, instance string) (*RemotePort, error) {
	return DialPortWith(addr, instance, DialOptions{})
}

// DialPortWith attaches like DialPort, retrying the dial with exponential
// backoff and applying a per-call timeout per opts.
func DialPortWith(addr, instance string, opts DialOptions) (*RemotePort, error) {
	faults := opts.Faults
	if faults == nil {
		faults = faultinject.Default()
	}
	backoff := opts.Backoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	var conn net.Conn
	var err error
	for attempt := 0; ; attempt++ {
		if ferr := faults.Fire("tcp.dial"); ferr != nil {
			err = ferr
		} else {
			conn, err = net.Dial("tcp", addr)
		}
		if err == nil {
			break
		}
		if attempt >= opts.Retries {
			return nil, fmt.Errorf("bus: dial %s (%d attempts): %w", addr, attempt+1, err)
		}
		time.Sleep(backoff)
		backoff *= 2
	}
	p := &RemotePort{
		w:           frameWriter{conn: conn},
		callTimeout: opts.CallTimeout,
		faults:      faults,
		dirs:        map[string]Direction{},
		waiting:     map[uint64]chan frame{},
		orphans:     map[string][]chan frame{},
		signals:     make(chan Signal, 16), // signals coalesce past this many unread
	}
	// Handshake synchronously before starting the demux loop.
	if p.callTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(p.callTimeout))
	}
	fr := codec.NewFrameReader(conn)
	var ack frame
	err = p.w.write(&frame{Op: opHello, Name: instance}, p.callTimeout)
	if err == nil {
		var body []byte
		if body, err = fr.Next(); err == nil {
			err = decodeFrame(body, &ack, asString)
		}
	}
	switch {
	case err != nil:
		err = fmt.Errorf("bus: hello: %w", err)
	case ack.Op == rErr:
		err = fmt.Errorf("bus: attach %s: %w", instance, errFromKind(ack.N, ack.Text))
	case ack.Op != rHello:
		err = errors.New("bus: malformed hello ack")
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	_ = conn.SetReadDeadline(time.Time{})
	p.hello = *ack.Hello
	for _, ifc := range p.hello.Ifaces {
		p.dirs[ifc.Name] = ifc.Dir
	}
	go p.demux(fr) //archlint:spawn client demux; exits when the connection closes
	return p, nil
}

// demux reads the server's frames: replies go to the call that waits for
// them, everything unsolicited is recorded on the port.
func (p *RemotePort) demux(fr *codec.FrameReader) {
	names := map[string]string{}
	intern := func(b []byte) string {
		if s, ok := names[string(b)]; ok {
			return s
		}
		if len(names) >= maxInterned {
			clear(names)
		}
		s := string(b)
		names[s] = s
		return s
	}
	var f frame
	for {
		body, err := fr.Next()
		if err == nil {
			err = decodeFrame(body, &f, intern)
		}
		if err != nil {
			break
		}
		switch {
		case f.Op == rSignal:
			select {
			case p.signals <- Signal{Kind: SignalKind(f.N)}:
			default: // coalesce
			}
		case f.Op == rDeleted:
			p.mu.Lock()
			p.deleted = true
			p.mu.Unlock()
		case f.Op == rErr && f.ID == 0:
			werr := errFromKind(f.N, f.Text)
			p.postErr.CompareAndSwap(nil, &werr)
		default:
			f.Data = retain(f.Data)
			p.mu.Lock()
			ch, ok := p.waiting[f.ID]
			delete(p.waiting, f.ID)
			p.mu.Unlock()
			if ok {
				ch <- f // buffered, and an id is answered once
			}
		}
	}
	p.w.conn.Close()
	p.mu.Lock()
	p.closed = true
	for id, ch := range p.waiting {
		close(ch)
		delete(p.waiting, id)
	}
	p.mu.Unlock()
}

// transmit writes one frame to the socket.
//
//archlint:hotpath
func (p *RemotePort) transmit(f *frame) error {
	if err := p.w.write(f, p.callTimeout); err != nil {
		return p.sendFailed(err)
	}
	return nil
}

// sendFailed names a failed transmit. A socket write that timed out may have
// left half a frame on the stream, so the connection goes with it.
func (p *RemotePort) sendFailed(err error) error {
	switch {
	case errors.Is(err, codec.ErrLimit):
		return err
	case errors.Is(err, os.ErrDeadlineExceeded):
		p.w.conn.Close()
		return fmt.Errorf("bus: send: %w after %v: the peer is not reading", ErrTimeout, p.callTimeout)
	}
	return fmt.Errorf("%w: send: %v", ErrStopped, err)
}

func (p *RemotePort) fire(op byte) error {
	if err := p.faults.Fire("tcp.call"); err != nil {
		return fmt.Errorf("bus: rpc %s: %w", opNames[op], err)
	}
	return nil
}

// takePostErr returns, once, the failure of a posted write.
//
//archlint:hotpath
func (p *RemotePort) takePostErr() error {
	if p.postErr.Load() == nil {
		return nil
	}
	if e := p.postErr.Swap(nil); e != nil {
		return *e
	}
	return nil
}

// post sends a write on its way without waiting for anything: it checks
// what can be checked here — the interface against the hello ack's table,
// an earlier write's failure — and hands the frame to the kernel.
//
//archlint:hotpath
func (p *RemotePort) post(f *frame) error {
	if dir, ok := p.dirs[f.Name]; !ok || !dir.Sends() {
		return p.staticWriteErr(f.Name, dir, ok)
	}
	if err := p.takePostErr(); err != nil {
		return err
	}
	if err := p.fire(f.Op); err != nil {
		return err
	}
	return p.transmit(f)
}

// staticWriteErr words the refusals exactly as the bus does.
func (p *RemotePort) staticWriteErr(iface string, dir Direction, known bool) error {
	if !known {
		return fmt.Errorf("%w: %s.%s", ErrNoInterface, p.hello.Name, iface)
	}
	return fmt.Errorf("%w: write on %s.%s (%s)", ErrDirection, p.hello.Name, iface, dir)
}

// start registers a reply channel under a fresh id and sends the request.
func (p *RemotePort) start(f *frame) (chan frame, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: connection closed", ErrStopped)
	}
	ch := p.spare
	if p.spare = nil; ch == nil {
		ch = make(chan frame, 1)
	}
	p.nextID++
	f.ID = p.nextID
	p.waiting[f.ID] = ch
	p.mu.Unlock()
	if err := p.transmit(f); err != nil {
		p.mu.Lock()
		delete(p.waiting, f.ID)
		p.mu.Unlock()
		return nil, err
	}
	return ch, nil
}

// await waits for the reply to f on ch, for at most timeout if positive.
// Giving up on a read does not unregister it: its reply may carry a message
// the server has popped for this port, so the channel is kept for the next
// Read or TryRead of the interface to adopt.
func (p *RemotePort) await(ch chan frame, f *frame, timeout time.Duration) (frame, error) {
	var timeoutC <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	select {
	case r, ok := <-ch:
		if ok { // answered, so unregistered and empty: the next call's
			p.mu.Lock()
			p.spare = ch
			p.mu.Unlock()
		}
		return reply(r, ok)
	case <-timeoutC:
		p.mu.Lock()
		if f.Op == opRead || f.Op == opTryRead {
			p.orphans[f.Name] = append(p.orphans[f.Name], ch)
		} else {
			delete(p.waiting, f.ID)
		}
		p.mu.Unlock()
		return frame{}, fmt.Errorf("bus: rpc %s: %w after %v", opNames[f.Op], ErrTimeout, timeout)
	}
}

// reply interprets what a reply channel yielded.
func reply(r frame, ok bool) (frame, error) {
	switch {
	case !ok:
		return frame{}, fmt.Errorf("%w: connection closed", ErrStopped)
	case r.Op == rErr:
		return frame{}, errFromKind(r.N, r.Text)
	}
	return r, nil
}

// call is one round trip.
func (p *RemotePort) call(f *frame) (frame, error) {
	if err := p.fire(f.Op); err != nil {
		return frame{}, err
	}
	ch, err := p.start(f)
	if err != nil {
		return frame{}, err
	}
	return p.await(ch, f, p.callTimeout)
}

// adopt takes over the oldest abandoned read of iface: wait says whether
// one whose reply has not arrived yet counts (Read) or is left (TryRead).
func (p *RemotePort) adopt(iface string, wait bool) chan frame {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := p.orphans[iface]
	if len(q) == 0 || (!wait && len(q[0]) == 0) {
		return nil
	}
	p.orphans[iface] = q[1:]
	return q[0]
}

// Close is a barrier — a sync round trip, bounded — and then tears the
// connection down: when it returns the bus has applied every write the port
// had posted, and the failure one of them is owed is Close's. (A socket
// closed with unread frames in it is reset, which can take the last writes
// with it.) Blocked calls fail with ErrStopped.
func (p *RemotePort) Close() error {
	timeout := p.callTimeout
	if timeout <= 0 {
		timeout = closeTimeout
	}
	f := frame{Op: opSync}
	ch, err := p.start(&f)
	if err == nil {
		_, err = p.await(ch, &f, timeout)
	}
	if errors.Is(err, ErrStopped) {
		err = nil // a dead connection has no barrier to offer
	}
	if err == nil {
		err = p.takePostErr()
	}
	if cerr := p.w.conn.Close(); err == nil {
		err = cerr
	}
	p.mu.Lock()
	p.closed = true // Done from here on; demux fails the calls still waiting
	p.mu.Unlock()
	return err
}

// Name implements Port.
func (p *RemotePort) Name() string { return p.hello.Name }

// Machine implements Port.
func (p *RemotePort) Machine() string { return p.hello.Machine }

// Status implements Port.
func (p *RemotePort) Status() string { return p.hello.Status }

// Write implements Port. It returns when the frame has been handed to the
// kernel; see the ordering rule at the top of this file.
//
//archlint:hotpath
func (p *RemotePort) Write(iface string, data []byte) error {
	return p.WriteTraced(iface, data, TraceContext{})
}

// WriteTraced implements TracedWriter: the parent context crosses the wire
// in the frame and the serving bus stamps the child span, so causal chains
// survive the TCP hop.
//
//archlint:hotpath
func (p *RemotePort) WriteTraced(iface string, data []byte, parent TraceContext) error {
	f := frame{Op: opWrite, Name: iface, Data: data, Trace: parent}
	return p.post(&f)
}

// SendBatch implements Port: the whole batch crosses the wire in one frame
// and the serving bus routes it in one pass.
//
//archlint:hotpath
func (p *RemotePort) SendBatch(iface string, batch [][]byte) error {
	return p.WriteBatchTraced(iface, batch, TraceContext{})
}

// WriteBatchTraced implements BatchTracedWriter over the wire.
//
//archlint:hotpath
func (p *RemotePort) WriteBatchTraced(iface string, batch [][]byte, parent TraceContext) error {
	for len(batch) > 0 {
		n := min(len(batch), maxWireBatch)
		f := frame{Op: opWriteBatch, Name: iface, Batch: batch[:n], Trace: parent}
		if err := p.post(&f); err != nil {
			return err
		}
		batch = batch[n:]
	}
	return nil
}

// Read implements Port.
func (p *RemotePort) Read(iface string) (Message, error) {
	err := p.takePostErr()
	if err == nil {
		err = p.fire(opRead)
	}
	f := frame{Op: opRead, Name: iface}
	for err == nil {
		ch := p.adopt(iface, true)
		adopted := ch != nil
		if !adopted {
			if ch, err = p.start(&f); err != nil {
				break
			}
		}
		var r frame
		if r, err = p.await(ch, &f, p.callTimeout); err == nil && r.Op == rMsg {
			return Message{From: r.From, Data: r.Data, Trace: r.Trace}, nil
		}
		if err == nil && !adopted {
			err = errors.New("bus: malformed read response")
		}
		// An adopted tryread that had found nothing: ask afresh.
	}
	return Message{}, err
}

// TryRead implements Port.
func (p *RemotePort) TryRead(iface string) (Message, bool, error) {
	if err := p.takePostErr(); err != nil {
		return Message{}, false, err
	}
	var r frame
	var err error
	if ch := p.adopt(iface, false); ch != nil {
		late, ok := <-ch
		r, err = reply(late, ok)
	}
	if err == nil && r.Op != rMsg {
		r, err = p.call(&frame{Op: opTryRead, Name: iface})
	}
	if err == nil && r.Op != rMsg {
		err = p.takePostErr() // a round trip that found nothing is still a barrier
	}
	return Message{From: r.From, Data: r.Data, Trace: r.Trace}, err == nil && r.Op == rMsg, err
}

// Pending implements Port.
func (p *RemotePort) Pending(iface string) (int, error) {
	if err := p.takePostErr(); err != nil {
		return 0, err
	}
	r, err := p.call(&frame{Op: opPending, Name: iface})
	if err == nil {
		err = p.takePostErr()
	}
	if err != nil {
		return 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := int(r.N)
	for _, ch := range p.orphans[iface] {
		n += len(ch) // an abandoned read's reply, waiting for the next Read
	}
	return n, nil
}

// TakeSignal implements Port.
func (p *RemotePort) TakeSignal() (Signal, bool) {
	select {
	case s := <-p.signals:
		return s, true
	default:
		return Signal{}, false
	}
}

// Divulge implements Port.
func (p *RemotePort) Divulge(data []byte) error {
	_, err := p.call(&frame{Op: opDivulge, Data: data})
	return err
}

// ConfirmRestore reports the outcome of this clone's restoration to the
// remote bus (see Attachment.ConfirmRestore).
func (p *RemotePort) ConfirmRestore(restoreErr error) error {
	var text []byte
	if restoreErr != nil {
		text = []byte(restoreErr.Error())
	}
	_, err := p.call(&frame{Op: opConfirmRestore, Data: text})
	return err
}

// AwaitState implements Port.
func (p *RemotePort) AwaitState(timeout time.Duration) ([]byte, error) {
	r, err := p.call(&frame{Op: opAwaitState, N: int64(timeout / time.Millisecond)})
	return r.Data, err
}

// Done implements Port.
func (p *RemotePort) Done() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.deleted || p.closed
}
