package bus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/codec"
	"repro/internal/faultinject"
	"repro/internal/telemetry"
	"repro/internal/telemetry/evlog"
)

// This file is the wire protocol that lets a module attach to the bus from
// another OS process, the stand-in for POLYLITH's heterogeneous hosts: one
// TCP connection per attached instance, whose ends — a Server's on the bus's
// side, a RemotePort (a Port) on the module's — are the same conn.
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
// A connection opens with hello and its ack (or an err and a close), each
// end's first frame, under a deadline. A frame that does not decode, an
// oversized length prefix, a frame of the other end's direction, a second
// hello, a reply its call does not accept (replies) or a parked call's id
// reused closes the connection it arrived on and nothing else.
//
// ORDER. The server applies a connection's frames in arrival order, on its
// read loop; only a read on an empty queue and awaitstate park, each on a
// goroutine of its own and in the connection's call table. write and
// writebatch are posted: no id, no reply, and RemotePort.Write returns once
// the kernel has the frame. So, on one port, whatever follows a write
// observes it, and any completed round trip is a barrier for everything
// posted before it; across ports nothing is promised (nor did POLYLITH's
// mh_write). ErrNoInterface and ErrDirection the client checks itself,
// against the hello ack's interface table; what depends on the topology
// (ErrUnbound, ErrNoInstance) comes back as an err frame with id 0, returned
// once by the port's next Write, SendBatch, Read, TryRead, Pending or Close.
//
// A message leaves a bus queue only for a Read or TryRead the port's caller
// has issued: no read-ahead, because Rebind's queue moves, Pending and the
// quiesce drain test all mean "queued at the bus". A Read waits until it has
// a message or its connection ends; reads of one interface from concurrent
// goroutines are not ordered against each other, as in process. A
// connection's end ends every call outstanding on it: the client's fail with
// ErrStopped, the server's return having taken nothing — nothing is popped,
// nor installed state taken, for a connection after its end. Only a reply
// already in flight is lost with it.

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

// replies is, per request, the reply opcodes (bit op) that answer it; an
// err answers any.
var replies = [rHello]uint32{opHello: 1 << rHello, opRead: 1 << rMsg, opTryRead: 1<<rMsg | 1<<rOK,
	opPending: 1 << rCount, opDivulge: 1 << rOK, opAwaitState: 1 << rData, opConfirmRestore: 1 << rOK, opSync: 1 << rOK}

const (
	// helloTimeout is how long an accepted connection may take to say hello
	// (the HTTP plane's ReadHeaderTimeout); closeTimeout bounds Close's
	// barrier.
	helloTimeout = 5 * time.Second
	closeTimeout = 2 * time.Second
	// Limits on counts a peer states. A longer batch goes as several frames.
	maxWireBatch  = 1 << 10
	maxWireIfaces = 1 << 10
	// maxIdleWireBuf is the most an encode buffer keeps between frames,
	// maxInterned the most names a connection remembers.
	maxIdleWireBuf = 64 << 10
	maxInterned    = 256
)

var errMalformed = fmt.Errorf("%w: malformed frame", codec.ErrCorrupt)
var errRefused = errors.New("bus: attach refused") // the dialer has the reason, the log no use for it

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

// conn is one end of an attachment's connection, the Server's (srv set) or
// a RemotePort's: the ends differ in the opcodes they accept and in handle.
type conn struct {
	nc     net.Conn
	fr     *codec.FrameReader
	srv    *Server
	handle func(*frame) error // the end's, on the loop goroutine
	gone   chan struct{}      // closed when the connection ends
	open   bool               // the first frame has been handled (loop goroutine)
	names  map[string]string  // intern's (loop goroutine)

	wmu  sync.Mutex
	wbuf []byte

	mu     sync.Mutex
	calls  map[uint64]call // outstanding calls by id; nil once ended
	dead   error           // what a call fails with once ended
	nextID uint64
	att    *Attachment // the server's, once hello is answered
}

// call is an entry of a conn's table: a client's request awaiting its reply
// on ch (closed if the connection ends first), or a server's parked call.
type call struct {
	op byte
	ch chan frame
}

func newConn(nc net.Conn) *conn {
	return &conn{nc: nc, fr: codec.NewFrameReader(nc),
		gone: make(chan struct{}), names: map[string]string{}, calls: map[uint64]call{}}
}

// loop runs the connection from its handshake, the peer's first frame
// under the read deadline the end set, to its end.
func (c *conn) loop() {
	var f frame
	err := c.next(&f)
	if err != nil {
		err = fmt.Errorf("no hello: %w", err)
	}
	_ = c.nc.SetReadDeadline(time.Time{})
	for err == nil {
		if err = c.handle(&f); err == nil {
			c.open = true
			err = c.next(&f)
		}
	}
	c.end(err)
}

// next reads and decodes the next frame, refusing one this end may not get.
//
//archlint:hotpath
func (c *conn) next(f *frame) error {
	body, err := c.fr.Next()
	if err != nil {
		return err
	}
	if err = decodeFrame(body, f, c.intern); err == nil && !c.accepts(f.Op) {
		err = errMalformed
	}
	if err != nil && c.srv != nil {
		c.srv.rpc[0].Inc()
	}
	return err
}

// accepts allows requests at the server, replies and pushes at the client,
// and hello first and only first (at the client, or the err refusing it).
func (c *conn) accepts(op byte) bool {
	if c.srv != nil {
		return op < rHello && (op == opHello) != c.open
	}
	return op >= rHello && ((op == rHello) != c.open || op == rErr)
}

// intern turns a name's bytes into a string, allocating only for a name not
// seen lately: it starts from this end's interface table (seed).
func (c *conn) intern(b []byte) string {
	if s, ok := c.names[string(b)]; ok {
		return s
	}
	if len(c.names) >= maxInterned {
		clear(c.names)
	}
	s := string(b)
	c.names[s] = s
	return s
}

func (c *conn) seed(ifaces []IfaceSpec) {
	for _, ifc := range ifaces {
		c.names[ifc.Name] = ifc.Name
	}
}

// send writes a frame: every frame either end writes.
//
//archlint:hotpath
func (c *conn) send(f *frame) error {
	c.wmu.Lock()
	b := codec.BeginFrame(c.wbuf)
	b = appendFrame(b, f)
	err := codec.EndFrame(b)
	if err == nil {
		_, err = c.nc.Write(b)
	}
	if cap(b) > maxIdleWireBuf {
		b = nil
	}
	c.wbuf = b
	c.wmu.Unlock()
	if err != nil {
		return c.sendFailed(err)
	}
	return nil
}

// sendFailed names a failed send: ErrLimit, or ErrStopped.
func (c *conn) sendFailed(err error) error {
	if errors.Is(err, codec.ErrLimit) {
		return err
	}
	return fmt.Errorf("%w: send: %v", ErrStopped, err)
}

// end tears the connection down, once, for the reason err: the socket closes,
// ending the loop; the call table empties — a client call fails with
// ErrStopped, a parked server call wakes to gone; the server forgets the
// connection and logs why, unless the peer left, it closed it or refused it.
func (c *conn) end(err error) {
	c.mu.Lock()
	calls, att := c.calls, c.att
	if calls != nil {
		c.calls, c.dead = nil, fmt.Errorf("%w: connection closed: %v", ErrStopped, err)
	}
	c.mu.Unlock()
	if calls == nil {
		return
	}
	c.nc.Close()
	close(c.gone)
	for _, cl := range calls {
		if cl.ch != nil {
			close(cl.ch)
		}
	}
	if c.srv == nil {
		return
	}
	rec := evlog.Record{Kind: kindConnClosed, Detail: fmt.Sprintf("%s: %v", c.nc.RemoteAddr(), err)}
	if att != nil {
		for i := range att.ifaces { // wake parked reads to see gone
			if q := att.ifaces[i].ifc.Queue(); q != nil {
				q.Wake()
			}
		}
		rec.Instance = att.Name()
	}
	c.srv.mu.Lock()
	delete(c.srv.conns, c)
	c.srv.mu.Unlock()
	if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, errRefused) {
		c.srv.bus.emit(rec)
	}
}

// Server accepts TCP attachments for a bus.
type Server struct {
	bus          *Bus
	l            net.Listener
	helloTimeout time.Duration
	rpc          [rHello]*telemetry.Counter // frames handled, by opcode

	mu    sync.Mutex
	conns map[*conn]struct{} // nil once the server is closed
}

// NewServer starts serving attachments on l. Close the server to stop.
func NewServer(b *Bus, l net.Listener) *Server { return newServer(b, l, helloTimeout) }

func newServer(b *Bus, l net.Listener, helloTimeout time.Duration) *Server {
	s := &Server{bus: b, l: l, helloTimeout: helloTimeout, conns: map[*conn]struct{}{}}
	for op, name := range opNames {
		s.rpc[op] = b.Telemetry().Counter("bus.rpc."+name, telemetry.Labels{})
	}
	go s.acceptLoop() //archlint:spawn accept loop; exits when the listener closes
	return s
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.l.Addr() }

// Close stops accepting and closes all connections. It is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	if conns == nil {
		return nil
	}
	for c := range conns {
		c.end(net.ErrClosed)
	}
	return s.l.Close()
}

func (s *Server) acceptLoop() {
	for {
		nc, err := s.l.Accept()
		if err != nil {
			return
		}
		_ = nc.SetReadDeadline(time.Now().Add(s.helloTimeout)) // a socket deadline: the kernel compares it with real time
		c := newConn(nc)
		c.srv, c.handle = s, c.dispatch
		s.mu.Lock()
		if s.conns == nil { // closed after the accept
			s.mu.Unlock()
			c.end(net.ErrClosed)
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go c.loop() //archlint:spawn server read loop; exits when the connection ends, tracked in s.conns
	}
}

// hello attaches the instance the first frame names and acks, or refuses.
func (c *conn) hello(instance string) error {
	att, err := c.srv.bus.Attach(instance)
	if err != nil {
		c.reply(&frame{}, err)
		return fmt.Errorf("%w: %v", errRefused, err)
	}
	c.mu.Lock()
	c.att, att.gone = att, c.gone
	c.mu.Unlock()
	ack := helloAck{Name: att.Name(), Machine: att.Machine(), Status: att.Status(), Ifaces: att.inst.spec.Interfaces}
	c.seed(ack.Ifaces)
	c.reply(&frame{Op: rHello, Hello: &ack}, nil)
	go c.pushSignals() //archlint:spawn signal push pump; exits when the connection ends
	return nil
}

func (c *conn) pushSignals() {
	for {
		select {
		case sig := <-c.att.Signals():
			c.reply(&frame{Op: rSignal, N: int64(sig.Kind)}, nil)
		case <-c.att.inst.done:
			c.reply(&frame{Op: rDeleted}, nil)
			return
		case <-c.gone:
			return
		}
	}
}

// dispatch is the server end's handler. Nothing here blocks (bus queues are
// unbounded, and a fenced write's slow path holds the routing writer lock
// only across a push).
//
//archlint:hotpath
func (c *conn) dispatch(f *frame) error {
	c.srv.rpc[f.Op].Inc()
	r := frame{Op: rOK, ID: f.ID}
	var err error
	switch f.Op {
	case opHello:
		return c.hello(f.Name)
	case opWrite, opWriteBatch:
		if f.Op == opWrite {
			f.Batch = append(f.Batch, f.Data) // a batch of one
		}
		retainBatch(f.Batch)
		if err = c.att.WriteBatchTraced(f.Name, f.Batch, f.Trace); err == nil {
			return nil
		}
	case opRead, opTryRead:
		var m Message
		var ok bool
		if m, ok, err = c.att.TryRead(f.Name); ok {
			r.Op, r.From, r.Trace, r.Data = rMsg, m.From, m.Trace, m.Data
		} else if err == nil && f.Op == opRead {
			return c.park(f)
		}
	case opPending:
		var n int
		n, err = c.att.Pending(f.Name)
		r.Op, r.N = rCount, int64(n)
	case opDivulge:
		err = c.att.Divulge(retain(f.Data))
	case opAwaitState:
		return c.park(f)
	case opConfirmRestore:
		err = c.att.ConfirmRestore(restoreOutcome(f.Data))
	case opSync: // nothing to apply: the answer is the barrier
	}
	c.reply(&r, err)
	return nil
}

func restoreOutcome(text []byte) error {
	if len(text) == 0 {
		return nil
	}
	return errors.New(string(text))
}

// park serves a read or awaitstate that has to wait, on a goroutine of its
// own and in the call table, which it leaves to answer, and answers only if
// still there. A second call under a parked call's id would go unanswered:
// it ends the connection.
func (c *conn) park(f *frame) error {
	c.mu.Lock()
	_, dup := c.calls[f.ID]
	live := c.calls != nil && !dup
	if live {
		c.calls[f.ID] = call{op: f.Op}
	}
	c.mu.Unlock()
	if dup {
		return fmt.Errorf("%w: call %d parked twice", errMalformed, f.ID)
	}
	if !live {
		return nil
	}
	op, id, iface, ms := f.Op, f.ID, f.Name, f.N
	go func() { //archlint:spawn parked read or awaitstate; exits when its wait ends: a message, installed state, the timeout, the instance's deletion or the connection's end
		r := frame{Op: rMsg, ID: id}
		var err error
		if op == opRead {
			var m Message
			m, err = c.att.Read(iface)
			r.From, r.Trace, r.Data = m.From, m.Trace, m.Data
		} else {
			r.Op = rData
			r.Data, err = c.att.AwaitState(time.Duration(ms) * time.Millisecond)
		}
		c.mu.Lock()
		_, live := c.calls[id]
		delete(c.calls, id)
		c.mu.Unlock()
		if live {
			c.reply(&r, err)
		}
	}()
	return nil
}

// reply sends the server's f, or an err frame for err. A failed write is the
// loop's to meet; a frame too large ends the connection, not the caller's wait.
//
//archlint:hotpath
func (c *conn) reply(f *frame, err error) {
	if err != nil {
		*f = frame{Op: rErr, ID: f.ID, N: errKind(err), Text: err.Error()}
	}
	if err = c.send(f); err != nil && errors.Is(err, codec.ErrLimit) {
		c.end(err)
	}
}

// RemotePort is a Port backed by a TCP connection to a bus Server.
type RemotePort struct {
	c     *conn
	hello helloAck
	dirs  map[string]Direction // the hello ack's interface table

	// postErr is the failure of a posted write, owed to the next data call.
	postErr atomic.Pointer[error]
	signals chan Signal
	deleted chan struct{} // closed by the read loop on the deletion notice
	spare   chan frame    // under c.mu: the last reply channel emptied, for the next call
}

// clientClock times a TCP client's failpoint delays and Close's barrier, and
// is the Clock its port offers a module runtime: a module on another machine
// keeps that machine's time, the real clock.
var clientClock clock.Clock

// DialPort attaches to the instance name on the bus server at addr. It dials
// once, and no call on the port has a deadline: a Read waits until it has a
// message or the connection ends.
func DialPort(addr, instance string) (*RemotePort, error) {
	err := faultinject.Default().Fire("tcp.dial", clientClock)
	if err == nil {
		var nc net.Conn
		if nc, err = net.Dial("tcp", addr); err == nil {
			return attachPort(nc, instance)
		}
	}
	return nil, fmt.Errorf("bus: dial %s: %w", addr, err)
}

// attachPort runs the client end of nc; its hello is call 0, which the ack's
// missing id names.
func attachPort(nc net.Conn, instance string) (*RemotePort, error) {
	p := &RemotePort{c: newConn(nc), dirs: map[string]Direction{},
		signals: make(chan Signal, 16), deleted: make(chan struct{})} // signals coalesce past 16 unread
	p.c.handle = p.receive
	ch, err := p.start(&frame{Op: opHello, Name: instance})
	if err == nil {
		go p.c.loop() //archlint:spawn client read loop; exits when the connection ends
		var ack frame
		if ack, err = p.await(ch, nil); err == nil {
			p.hello = *ack.Hello
			for _, ifc := range p.hello.Ifaces {
				p.dirs[ifc.Name] = ifc.Dir
			}
			return p, nil
		}
	}
	p.c.end(err)
	return nil, fmt.Errorf("bus: attach %s: %w", instance, err)
}

// receive is the client end's handler: replies to their calls, pushes here.
func (p *RemotePort) receive(f *frame) error {
	switch {
	case f.Op == rSignal:
		select {
		case p.signals <- Signal{Kind: SignalKind(f.N)}:
		default: // coalesce
		}
	case f.Op == rDeleted:
		if !isClosed(p.deleted) {
			close(p.deleted)
		}
	case f.Op == rErr && f.ID == 0 && p.c.open:
		werr := errFromKind(f.N, f.Text)
		p.postErr.CompareAndSwap(nil, &werr)
	default:
		if f.Op == rHello {
			p.c.seed(f.Hello.Ifaces)
		}
		return p.c.answer(f)
	}
	return nil
}

// answer hands a reply to its call, or drops one no call awaits. A reply
// of a kind the call does not accept ends the connection.
func (c *conn) answer(f *frame) error {
	c.mu.Lock()
	cl, ok := c.calls[f.ID]
	if ok && f.Op != rErr && replies[cl.op]&(1<<f.Op) == 0 {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s answered by opcode %#x", errMalformed, opNames[cl.op], f.Op)
	}
	delete(c.calls, f.ID)
	c.mu.Unlock()
	if ok {
		f.Data = retain(f.Data)
		cl.ch <- *f // buffered, and an id is answered once
	}
	return nil
}

func (p *RemotePort) fire(op byte) error {
	if err := faultinject.Default().Fire("tcp.call", clientClock); err != nil {
		return fmt.Errorf("bus: rpc %s: %w", opNames[op], err)
	}
	return nil
}

// takePostErr returns, once, the failure of a posted write.
//
//archlint:hotpath
func (p *RemotePort) takePostErr() error {
	if e := p.postErr.Load(); e != nil && p.postErr.CompareAndSwap(e, nil) {
		return *e
	}
	return nil
}

// post checks a write against the hello ack's table and an earlier write's
// failure, and hands it to the kernel.
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
	return p.c.send(f)
}

// staticWriteErr words the refusals exactly as the bus does.
func (p *RemotePort) staticWriteErr(iface string, dir Direction, known bool) error {
	if !known {
		return fmt.Errorf("%w: %s.%s", ErrNoInterface, p.hello.Name, iface)
	}
	return fmt.Errorf("%w: write on %s.%s (%s)", ErrDirection, p.hello.Name, iface, dir)
}

// start enters f in the call table under the next id and sends it.
func (p *RemotePort) start(f *frame) (chan frame, error) {
	c := p.c
	c.mu.Lock()
	if c.calls == nil {
		err := c.dead
		c.mu.Unlock()
		return nil, err
	}
	ch := p.spare
	if p.spare = nil; ch == nil {
		ch = make(chan frame, 1)
	}
	f.ID = c.nextID
	c.nextID++
	c.calls[f.ID] = call{op: f.Op, ch: ch}
	c.mu.Unlock()
	if err := c.send(f); err != nil {
		c.mu.Lock()
		delete(c.calls, f.ID)
		c.mu.Unlock()
		return nil, err
	}
	return ch, nil
}

// await waits for the reply on ch, or until timeout fires: only Close's
// barrier has one.
func (p *RemotePort) await(ch chan frame, timeout <-chan time.Time) (frame, error) {
	select {
	case r, ok := <-ch:
		if !ok { // the end wrote dead before it closed ch
			return frame{}, p.c.dead
		}
		p.c.mu.Lock()
		p.spare = ch // answered, so out of the table and empty: the next call's
		p.c.mu.Unlock()
		if r.Op == rErr {
			return frame{}, errFromKind(r.N, r.Text)
		}
		return r, nil
	case <-timeout:
		return frame{}, fmt.Errorf("bus: close: %w after %v", ErrTimeout, closeTimeout)
	}
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
	return p.await(ch, nil)
}

// Close is a barrier — a sync round trip, bounded by closeTimeout — and then
// the end: the bus has applied every write posted before it (a socket closed
// with unread frames is reset), whose owed failure is Close's. Blocked calls
// fail with ErrStopped.
func (p *RemotePort) Close() error {
	ch, err := p.start(&frame{Op: opSync})
	if err == nil {
		timer := clientClock.NewTimer(closeTimeout)
		_, err = p.await(ch, timer.C)
		timer.Stop()
	}
	if errors.Is(err, ErrStopped) {
		err = nil // a dead connection has no barrier to offer
	}
	if err == nil {
		err = p.takePostErr()
	}
	p.c.end(net.ErrClosed)
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
// and the serving bus stamps the child span.
//
//archlint:hotpath
func (p *RemotePort) WriteTraced(iface string, data []byte, parent TraceContext) error {
	f := frame{Op: opWrite, Name: iface, Data: data, Trace: parent}
	return p.post(&f)
}

// SendBatch implements Port: the whole batch crosses the wire in one frame
// (maxWireBatch messages at most) and the serving bus routes it in one pass.
//
//archlint:hotpath
func (p *RemotePort) SendBatch(iface string, batch [][]byte) error {
	for len(batch) > 0 {
		n := min(len(batch), maxWireBatch)
		f := frame{Op: opWriteBatch, Name: iface, Batch: batch[:n]}
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
	var r frame
	if err == nil {
		r, err = p.call(&frame{Op: opRead, Name: iface})
	}
	return Message{From: r.From, Data: r.Data, Trace: r.Trace}, err
}

// TryRead implements Port.
func (p *RemotePort) TryRead(iface string) (Message, bool, error) {
	if err := p.takePostErr(); err != nil {
		return Message{}, false, err
	}
	r, err := p.call(&frame{Op: opTryRead, Name: iface})
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
	return int(r.N), nil
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

// ConfirmRestore reports this clone's restoration (Attachment.ConfirmRestore).
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
func (p *RemotePort) Done() bool { return isClosed(p.deleted) || isClosed(p.c.gone) }

// Clock returns the client's clock, the real one.
func (p *RemotePort) Clock() clock.Clock { return clientClock }

// Ended returns the channels closed on the deletion notice and when the
// connection ends.
func (p *RemotePort) Ended() (deleted, gone <-chan struct{}) { return p.deleted, p.c.gone }
