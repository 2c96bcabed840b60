// Package analyze is the static reconfiguration-safety analyzer: a
// multi-pass diagnostics engine over a module's source, its configuration
// specification, and (optionally) a proposed replacement module.
//
// The paper leaves two correctness obligations to the programmer: listing
// the variables that comprise the process state at each reconfiguration
// point (Section 3 notes data-flow analysis "could be used" and defers it)
// and placing reconfiguration points so that replacement is not delayed
// indefinitely (the Discussion's delay bounds). This package checks both
// before the module is loaded, against the liveness facts the transform
// itself computes, plus the inter-module obligations the paper's runtime
// would only discover mid-swap: binding type compatibility and old/new
// abstract-state mapping compatibility.
//
// Every finding is a diag.Diagnostic with a stable code, a severity, and
// a source position, collected in a diag.Report that renders as human text
// or JSON (internal/diag, shared with the architectural analyzer). A
// refusal of the passes this package runs — mil.Validate, lang, the
// callgraph and transform.Prepare — is a go/scanner error; the analyzer
// classifies each one under a code, at the position the refusal names.
package analyze

// Diagnostic codes. Codes are stable across releases: tools may match on
// them, and the README documents each one.
const (
	// CodeSpecInvalid: the MIL specification fails validation.
	CodeSpecInvalid = "MH001"
	// CodeSourceInvalid: the module source fails to parse or check.
	CodeSourceInvalid = "MH002"
	// CodePointNoMarker: a spec reconfiguration point has no source marker.
	CodePointNoMarker = "MH003"
	// CodeMarkerNotInSpec: a source marker is not declared in the spec.
	CodeMarkerNotInSpec = "MH004"
	// CodeUnknownStateVar: a spec state list names no variable of the
	// procedure containing the point.
	CodeUnknownStateVar = "MH005"
	// CodeCaptureMissing: a live variable is missing from the declared
	// capture set (restore would be unsound).
	CodeCaptureMissing = "MH006"
	// CodeCaptureDead: a declared capture variable is dead at every
	// reconfiguration edge (wasted state).
	CodeCaptureDead = "MH007"
	// CodePointUnreachable: a reconfiguration point sits in a procedure
	// unreachable from main.
	CodePointUnreachable = "MH008"
	// CodeCycleNoPoint: a reachable recursive cycle contains no
	// reconfiguration point (unbounded reconfiguration delay).
	CodeCycleNoPoint = "MH009"
	// CodeNoPoints: the module declares no reconfiguration points at all.
	CodeNoPoints = "MH010"
	// CodeBindingMismatch: a binding connects interfaces whose message
	// signatures disagree.
	CodeBindingMismatch = "MH011"
	// CodeUnknownMILType: a MIL interface names a message type the
	// analyzer cannot map to an abstract-state kind.
	CodeUnknownMILType = "MH012"
	// CodeReplacementDropsProc: the replacement module lacks an
	// instrumented procedure of the old module.
	CodeReplacementDropsProc = "MH013"
	// CodeReplacementShape: old and new capture sets for a procedure
	// disagree in arity or type (the AR-stack frames cannot be mapped).
	CodeReplacementShape = "MH014"
	// CodeReplacementEdges: old and new reconfiguration graphs disagree
	// on a procedure's edge numbers or point labels (resume locations
	// would not align).
	CodeReplacementEdges = "MH015"
	// CodeCannotPrepare: the transform refuses the module or its
	// replacement for a reason no other code names (a pointer-typed local
	// live at a reconfiguration edge, for one).
	CodeCannotPrepare = "MH016"
	// CodeReplicasNotRebuilt: the specification replicates the module, but
	// a module-language module publishes no checkpoint, so the supervisor
	// cannot rebuild a crashed member.
	CodeReplicasNotRebuilt = "MH017"
)
