package routing

import "time"

// Published holds the current routing table.
type Published struct{}

// Commit runs under the bus's writer lock (editLocked calls it), so it may
// not wait.
func (p *Published) Commit(done chan struct{}) {
	time.Sleep(time.Millisecond)
	<-done
}

// Load runs without the lock and may block.
func (p *Published) Load(ready chan struct{}) {
	<-ready
}
