package bus

import "testing"

// Wire-path allocation ceilings, client and server together (they share the
// test's heap). One message is a posted write frame, a read request and its
// reply: the server copies the payload out of its read buffer for the queue
// to keep, the reading port copies it out of its own for the caller, and the
// read's round trip makes its reply channel — 3 allocations. In a batch of
// 16 the server's copies are one allocation, so a message costs about 2.1.
// The ceilings leave room for runtime drift and still catch a per-frame
// buffer, an uninterned name or a boxed frame coming back.
const (
	maxWireAllocsPerMsg        = 6.0
	maxBatchedWireAllocsPerMsg = 4.0
	wireBatchSize              = 16
)

// TestWirePathAllocs measures a Write and the Read that takes it as a pair:
// a posted write measured alone would race the server applying it.
func TestWirePathAllocs(t *testing.T) {
	_, s := startServer(t)
	disp := dial(t, s, "display")
	comp := dial(t, s, "compute")
	payload := []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
	read := func() {
		if _, err := comp.Read("display"); err != nil {
			t.Fatal(err)
		}
	}

	single := testing.AllocsPerRun(2000, func() {
		if err := disp.Write("temper", payload); err != nil {
			t.Fatal(err)
		}
		read()
	})

	batch := make([][]byte, wireBatchSize)
	for i := range batch {
		batch[i] = payload
	}
	batched := testing.AllocsPerRun(200, func() {
		if err := disp.SendBatch("temper", batch); err != nil {
			t.Fatal(err)
		}
		for range batch {
			read()
		}
	}) / wireBatchSize

	if single > maxWireAllocsPerMsg {
		t.Errorf("Write + Read = %.1f allocs/msg, ceiling %.0f", single, maxWireAllocsPerMsg)
	}
	if batched > maxBatchedWireAllocsPerMsg {
		t.Errorf("SendBatch(%d) + Reads = %.2f allocs/msg, ceiling %.0f", wireBatchSize, batched, maxBatchedWireAllocsPerMsg)
	}
	t.Logf("wire path: single %.1f allocs/msg, batched %.2f allocs/msg (batch %d)", single, batched, wireBatchSize)
}
