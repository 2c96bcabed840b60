package mh

import "repro/internal/telemetry/trace"

// Mentioning t.MintTrace() in a comment is fine; so is the string below.
var doc = "t.MintTrace()"

// Emit stamps outside the bus layer: the module runtime must carry
// contexts opaquely, never advance the clock itself.
func Emit(t *trace.Tracer, parent trace.Context) trace.Context {
	return t.StampBatch(parent, 1)
}
