package mh

import (
	"fmt"
	"time"

	"repro/internal/state"
)

// This file exposes the runtime's primitives at the abstract-value level,
// for hosts (the module-subset interpreter) that hold state.Value operands
// directly instead of native Go variables. They are entry points to the
// same paths as the native API in mh.go (receive and send; WriteAbstract
// sits next to Write there), not copies of them.

// ReadAbstract blocks for the next message on iface and returns its decoded
// abstract value. The bool result is false if an error was recorded.
func (r *Runtime) ReadAbstract(iface string) (state.Value, bool) {
	v, ok := r.receive(iface)
	if ok {
		r.tickOp()
	}
	return v, ok
}

// CaptureAbstract appends one frame with named abstract variables.
func (r *Runtime) CaptureAbstract(fn string, loc int, vars []state.Var) {
	if r.capturing == nil {
		r.capturing = state.New(r.port.Name())
		r.capturing.Machine = r.port.Machine()
		r.captureStart = time.Now()
	}
	r.capturing.PushFrame(state.Frame{Func: fn, Location: loc, Vars: vars})
}

// NextRestoreFrame pops the next frame to replay (bottom-first), verifying
// it belongs to fn. The bool result is false after a fatal mismatch.
func (r *Runtime) NextRestoreFrame(fn string) (state.Frame, bool) {
	if r.restoreIdx >= len(r.restore) {
		r.failRestore(fmt.Errorf("%w: %s restoring beyond frame %d", ErrWrongFrame, fn, r.restoreIdx))
		return state.Frame{}, false
	}
	frame := r.restore[r.restoreIdx]
	r.restoreIdx++
	if frame.Func != fn {
		r.failRestore(fmt.Errorf("%w: frame %d belongs to %s, %s is restoring", ErrWrongFrame, r.restoreIdx-1, frame.Func, fn))
		return state.Frame{}, false
	}
	return frame, true
}
