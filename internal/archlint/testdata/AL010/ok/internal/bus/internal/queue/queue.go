package queue

import "repro/internal/telemetry"

// Len depends downward on telemetry: the queue sits between the leaves and
// the bus.
func Len() int { return telemetry.Count() }
