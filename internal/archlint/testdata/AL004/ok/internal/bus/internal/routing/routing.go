package routing

// Published holds the current routing table.
type Published struct{}

// Commit runs under the bus's writer lock and signals without blocking.
func (p *Published) Commit(done chan struct{}) {
	select {
	case done <- struct{}{}:
	default:
	}
}
