package bus

import (
	"repro/internal/bus/internal/queue"
	"repro/internal/telemetry"
)

// Ping depends downward on its queue and on telemetry: the sanctioned
// direction.
func Ping() int { return telemetry.Count() + queue.Len() }
