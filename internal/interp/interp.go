package interp

import (
	"fmt"
	"go/token"
	"math"
	"runtime"

	"repro/internal/lang"
	"repro/internal/mh"
	"repro/internal/state"
)

// Interp runs one lowered module program against one participation
// runtime. It holds everything that changes while the program runs; the
// Lowered program it executes is shared and immutable.
type Interp struct {
	low   *Lowered
	rt    *mh.Runtime
	limit int64 // on steps; MaxInt64 when unbounded
	steps int64
	tuple []state.Value // stack of outgoing mh.Write tuples under construction
}

// Option configures the interpreter.
type Option func(*Interp)

// WithMaxSteps bounds the number of executed instructions (0 = unbounded).
// Tests use it to catch accidental non-termination.
func WithMaxSteps(n int64) Option { return func(in *Interp) { in.limit = n } }

// New lowers a checked program and binds an interpreter to it. rt may be
// nil for pure programs that never touch mh (the property-test harness).
// Hosts that run one program many times Lower it once and Bind per run.
func New(prog *lang.Program, info *lang.Info, rt *mh.Runtime, opts ...Option) *Interp {
	return Lower(prog, info).Bind(rt, opts...)
}

// Bind builds an interpreter that runs the lowered program against rt.
func (l *Lowered) Bind(rt *mh.Runtime, opts ...Option) *Interp {
	in := &Interp{low: l, rt: rt}
	for _, o := range opts {
		o(in)
	}
	if in.limit <= 0 {
		in.limit = math.MaxInt64
	}
	return in
}

// Error is a module runtime error (index out of range, division by zero,
// step limit, ...).
type Error struct {
	Pos token.Position
	Msg string
}

// Error implements error.
func (e *Error) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("interp: %s: %s", e.Pos, e.Msg)
	}
	return "interp: " + e.Msg
}

func (in *Interp) failf(pos token.Pos, format string, args ...any) {
	panic(&Error{Pos: in.low.fset.Position(pos), Msg: fmt.Sprintf(format, args...)})
}

// recovered sorts a recovered panic value into a termination or a module
// error; anything that is neither is re-raised. A Go run-time fault inside
// lowered code (a make with an absurd size, a value of the wrong kind
// handed to Call) is the module's fault, not the host's.
func recovered(rec any) (*mh.Termination, error) {
	switch v := rec.(type) {
	case mh.Termination:
		return &v, nil
	case *Error:
		return nil, v
	case runtime.Error:
		return nil, &Error{Msg: v.Error()}
	}
	panic(rec)
}

// Run executes the program's main procedure. A clean exit (main returned or
// the runtime unwound with a Termination, e.g. after divulging state or
// being deleted) yields a nil error; the Termination, if any, is returned.
func (in *Interp) Run() (term *mh.Termination, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			term, err = recovered(rec)
		}
	}()
	_, err = in.call("main", nil)
	return nil, err
}

// Call invokes a named function with runtime values (int, float64, bool,
// string, []any, *structVal) and returns its results. Used by tests and the
// equivalence harness.
func (in *Interp) Call(fn string, args ...any) (results []any, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			var term *mh.Termination
			if term, err = recovered(rec); term != nil {
				err = *term
			}
		}
	}()
	return in.call(fn, args)
}

func (in *Interp) call(name string, args []any) ([]any, error) {
	c, ok := in.low.funcs[name]
	if !ok {
		return nil, fmt.Errorf("interp: no function %s", name)
	}
	if len(args) != len(c.params) {
		return nil, fmt.Errorf("interp: %s takes %d arguments, got %d", name, len(c.params), len(args))
	}
	in.steps = 0
	in.tuple = in.tuple[:0]
	fr := in.newFrame(c)
	for i, p := range c.params {
		if !p.setAny(fr, copyVal(args[i])) {
			return nil, fmt.Errorf("interp: %s argument %d is %s, want %s", name, i+1, formatValue(args[i]), p.typ)
		}
	}
	in.exec(c, fr)
	var results []any
	for _, r := range c.results {
		results = append(results, r.getAny(fr))
	}
	return results, nil
}

func (in *Interp) newFrame(c *code) *frame {
	return &frame{in: in, s: make([]slot, c.nslots)}
}

// exec runs one activation of c to its return.
func (in *Interp) exec(c *code, fr *frame) {
	ins := c.ins
	for pc := 0; pc >= 0; {
		if in.steps++; in.steps > in.limit {
			in.failf(c.pos[pc], "step limit of %d exceeded (non-terminating program?)", in.limit)
		}
		pc = ins[pc](fr)
	}
}
