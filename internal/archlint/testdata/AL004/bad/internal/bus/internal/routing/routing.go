package routing

import (
	"sync"
	"time"
)

// Published holds the current routing table and the writer lock.
type Published struct{ mu sync.Mutex }

// Committer is the table's one writer.
type Committer struct{ p *Published }

// Draft is a topology change being staged.
type Draft struct{}

// Edit stages a change and commits it under the writer lock.
func (c Committer) Edit(stage func(*Draft) error, committed func(n int)) error {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	if err := stage(&Draft{}); err != nil {
		return err
	}
	committed(c.commit(nil))
	return nil
}

// Settled runs fn under the writer lock.
func (c Committer) Settled(fn func() error) error {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	return fn()
}

// commit runs under the writer lock Edit holds, so it may not wait.
func (c Committer) commit(done chan struct{}) int {
	time.Sleep(time.Millisecond)
	<-done
	return 0
}

// Load runs without the lock and may block.
func (p *Published) Load(ready chan struct{}) {
	<-ready
}
