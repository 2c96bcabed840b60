package bus

import "repro/internal/telemetry/trace"

// Mentioning t.MintTrace() in a comment is fine; so is the string below.
var doc = "t.MintTrace()"

// Stamp advances the clock from inside the bus layer, where it belongs.
func Stamp(t *trace.Tracer, parent trace.Context) trace.Context {
	return t.StampBatch(parent, 1)
}
