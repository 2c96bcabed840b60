package queue

import "repro/internal/mh"

// Deliver hands a queued message to the module runtime: the bus's buffer
// depending on a layer built on top of the bus.
func Deliver() { mh.Run() }
