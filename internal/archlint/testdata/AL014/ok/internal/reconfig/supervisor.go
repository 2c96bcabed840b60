package reconfig

import "repro/internal/telemetry/evlog"

// Supervisor narrates detections and recoveries into the event log from
// its one loop — a sanctioned feeder.
type Supervisor struct{ events *evlog.Log }

func (s *Supervisor) event(kind string) {
	s.events.Append(evlog.Record{Source: "supervisor", Kind: kind})
}
