package mh

import (
	"fmt"

	"repro/internal/state"
)

// This file exposes the runtime's primitives at the abstract-value level,
// for hosts (the module-subset interpreter) that hold state.Value operands
// directly instead of native Go variables. They are entry points to the
// same paths as the native API in mh.go (receive; WriteAbstract sits next
// to Write there and is its path), not copies of them.

// ReadAbstract blocks for the next message on iface and returns its decoded
// abstract value by address: the runtime owns it and overwrites it at the
// next read. The result is nil if an error was recorded.
func (r *Runtime) ReadAbstract(iface string) *state.Value {
	v := r.receive(iface)
	if v != nil {
		r.tickOp()
	}
	return v
}

// CaptureAbstract appends one frame with named abstract variables.
func (r *Runtime) CaptureAbstract(fn string, loc int, vars []state.Var) {
	r.beginCapture()
	r.capturing.PushFrame(state.Frame{Func: fn, Location: loc, Vars: vars})
}

// NextRestoreFrame pops the next frame to replay (bottom-first), verifying
// it belongs to fn. The result is nil after a fatal mismatch.
func (r *Runtime) NextRestoreFrame(fn string) *state.Frame {
	if r.restoreIdx >= len(r.restore) {
		r.failRestore(fmt.Errorf("%w: %s restoring beyond frame %d", ErrWrongFrame, fn, r.restoreIdx))
		return nil
	}
	frame := &r.restore[r.restoreIdx]
	r.restoreIdx++
	if frame.Func != fn {
		r.failRestore(fmt.Errorf("%w: frame %d belongs to %s, %s is restoring", ErrWrongFrame, r.restoreIdx-1, frame.Func, fn))
		return nil
	}
	return frame
}
