// Package codec serializes abstract process state (and bus messages) into
// machine-independent byte streams.
//
// Section 1.2 of the paper requires that "the characterization of the
// process state must be in an abstract, not machine-specific, format" so
// that modules can be moved across heterogeneous hosts. POLYLITH realized
// this with its own coercion layer; ours is Portable: a hand-written,
// self-describing binary format (varint integers, IEEE-754 big-endian
// floats, length-prefixed strings) with hard decode limits. The top-level
// harness benchmarks it against encoding/gob (experiment A1 in DESIGN.md).
package codec

import (
	"errors"
	"fmt"

	"repro/internal/state"
)

// Codec converts abstract state to and from bytes. Implementations must be
// safe for concurrent use.
type Codec interface {
	// Name identifies the codec ("portable").
	Name() string
	// EncodeState serializes s.
	EncodeState(s *state.State) ([]byte, error)
	// DecodeState parses a serialized state.
	DecodeState(data []byte) (*state.State, error)
	// EncodeValue serializes a single abstract value (bus message payload).
	EncodeValue(v state.Value) ([]byte, error)
	// DecodeValue parses a single abstract value.
	DecodeValue(data []byte) (state.Value, error)
}

// Decode limits guard against corrupt or hostile input.
const (
	maxStringLen = 1 << 24 // 16 MiB per string
	maxListLen   = 1 << 20
	maxFrames    = 1 << 16
	maxVars      = 1 << 12
	maxDepth     = 64
)

// Errors shared by the codec implementations.
var (
	// ErrTruncated indicates the input ended mid-value.
	ErrTruncated = errors.New("codec: truncated input")
	// ErrCorrupt indicates structurally invalid input.
	ErrCorrupt = errors.New("codec: corrupt input")
	// ErrLimit indicates input exceeding a decode limit.
	ErrLimit = errors.New("codec: decode limit exceeded")
)

// Default is the codec used when none is specified.
func Default() Codec { return Portable{} }

// ValidateFormat checks a Polylith-style format string ("iiF", "llF", ...)
// against a list of values, returning an error on arity or kind mismatch.
// The paper's mh_capture/mh_restore calls carry such strings; they are
// redundant with the self-describing encoding but retained as a programmer-
// visible contract, exactly as in Figure 4.
func ValidateFormat(format string, vals []state.Value) error {
	runes := []rune(format)
	if len(runes) != len(vals) {
		return fmt.Errorf("codec: format %q describes %d values, got %d", format, len(runes), len(vals))
	}
	for i, r := range runes {
		want, ok := state.KindForFormatRune(r)
		if !ok {
			return fmt.Errorf("codec: format %q has unknown specifier %q at %d", format, r, i)
		}
		if vals[i].Kind != want {
			return fmt.Errorf("codec: format %q position %d wants %v, got %v", format, i, want, vals[i].Kind)
		}
	}
	return nil
}
