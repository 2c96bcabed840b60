package bus

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRebindUnderTraffic: a writer streams messages while the binding is
// atomically flipped between two receivers with queue transfer; every
// message must arrive exactly once, in order.
func TestRebindUnderTraffic(t *testing.T) {
	b := New()
	for _, spec := range []InstanceSpec{
		{Name: "w", Interfaces: []IfaceSpec{{Name: "out", Dir: Out}}},
		{Name: "a", Interfaces: []IfaceSpec{{Name: "in", Dir: In}}},
		{Name: "b", Interfaces: []IfaceSpec{{Name: "in", Dir: In}}},
	} {
		if err := b.AddInstance(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddBinding(Endpoint{Instance: "w", Interface: "out"}, Endpoint{Instance: "a", Interface: "in"}); err != nil {
		t.Fatal(err)
	}
	w, err := b.Attach("w")
	if err != nil {
		t.Fatal(err)
	}
	ra, err := b.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Attach("b")
	if err != nil {
		t.Fatal(err)
	}

	const total = 5000
	var sent atomic.Int64
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; i < total; i++ {
			payload := []byte(fmt.Sprintf("%06d", i))
			// During the rebind window the write may race binding
			// deletion; retry until routed.
			for {
				if err := w.Write("out", payload); err == nil {
					break
				}
				runtime.Gosched()
			}
			sent.Add(1)
		}
	}()

	// Flip the binding back and forth with queue transfer. In a real
	// replacement the old instance has stopped consuming before cq runs
	// (it divulged its state and returned); the shared mutex models that:
	// a drain's pop+record and a flip's rebind+cq are mutually exclusive,
	// and each drain only consumes while it is the active receiver.
	var mu sync.Mutex
	active := "a"
	received := 0
	last := -1

	flips := 20
	go func() {
		current := "a"
		for i := 0; i < flips; i++ {
			// Spread the flips over the stream: each waits for its share
			// of the writes.
			for sent.Load() < int64((i+1)*total/(flips+1)) {
				runtime.Gosched()
			}
			next := "b"
			if current == "b" {
				next = "a"
			}
			mu.Lock()
			err := b.Rebind([]BindEdit{
				{Op: "del", From: Endpoint{Instance: "w", Interface: "out"}, To: Endpoint{Instance: current, Interface: "in"}},
				{Op: "add", From: Endpoint{Instance: "w", Interface: "out"}, To: Endpoint{Instance: next, Interface: "in"}},
				{Op: "cq", From: Endpoint{Instance: current, Interface: "in"}, To: Endpoint{Instance: next, Interface: "in"}},
			})
			active = next
			mu.Unlock()
			if err != nil {
				t.Errorf("flip %d: %v", i, err)
				return
			}
			current = next
		}
	}()

	// Order must be globally monotonic because cq preserves FIFO across
	// flips.
	var wg sync.WaitGroup
	drain := func(name string, att *Attachment) {
		defer wg.Done()
		for {
			mu.Lock()
			if received >= total {
				mu.Unlock()
				return
			}
			if active != name {
				mu.Unlock()
				runtime.Gosched()
				continue
			}
			m, ok, err := att.TryRead("in")
			if err != nil {
				mu.Unlock()
				return
			}
			if ok {
				var n int
				fmt.Sscanf(string(m.Data), "%d", &n)
				received++
				if n <= last {
					t.Errorf("message %d after %d (reordered)", n, last)
				}
				last = n
			}
			mu.Unlock()
			if !ok {
				runtime.Gosched()
			}
		}
	}
	wg.Add(2)
	go drain("a", ra)
	go drain("b", rb)
	<-writerDone
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(30 * time.Second):
		mu.Lock()
		t.Fatalf("drain stalled: received %d of %d", received, total)
	}
	if received != total {
		t.Errorf("received %d of %d", received, total)
	}
}

// TestManyTCPClients: dozens of concurrent TCP attachments exchanging
// messages through one bus server.
func TestManyTCPClients(t *testing.T) {
	b := New()
	const pairs = 16
	for i := 0; i < pairs; i++ {
		if err := b.AddInstance(InstanceSpec{
			Name:       fmt.Sprintf("src%d", i),
			Interfaces: []IfaceSpec{{Name: "out", Dir: Out}},
		}); err != nil {
			t.Fatal(err)
		}
		if err := b.AddInstance(InstanceSpec{
			Name:       fmt.Sprintf("dst%d", i),
			Interfaces: []IfaceSpec{{Name: "in", Dir: In}},
		}); err != nil {
			t.Fatal(err)
		}
		if err := b.AddBinding(
			Endpoint{Instance: fmt.Sprintf("src%d", i), Interface: "out"},
			Endpoint{Instance: fmt.Sprintf("dst%d", i), Interface: "in"},
		); err != nil {
			t.Fatal(err)
		}
	}
	l, err := netListenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(b, l)
	defer srv.Close()

	const perPair = 50
	var wg sync.WaitGroup
	errs := make(chan error, pairs*2)
	for i := 0; i < pairs; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			p, err := DialPort(srv.Addr().String(), fmt.Sprintf("src%d", i))
			if err != nil {
				errs <- err
				return
			}
			defer p.Close()
			for j := 0; j < perPair; j++ {
				if err := p.Write("out", []byte{byte(j)}); err != nil {
					errs <- err
					return
				}
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			p, err := DialPort(srv.Addr().String(), fmt.Sprintf("dst%d", i))
			if err != nil {
				errs <- err
				return
			}
			defer p.Close()
			for j := 0; j < perPair; j++ {
				m, err := p.Read("in")
				if err != nil {
					errs <- err
					return
				}
				if int(m.Data[0]) != j {
					errs <- fmt.Errorf("pair %d: got %d want %d", i, m.Data[0], j)
					return
				}
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("TCP stress stalled")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func netListenLoopback() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}
