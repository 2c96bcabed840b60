package mh

import "repro/internal/telemetry/evlog"

// Report appends from the module runtime: what a module does reaches the
// log through the bus that carries it, never around it.
func Report(l *evlog.Log) {
	l.Append(evlog.Record{Source: "mh", Kind: "report"})
}
