package interp

import (
	"fmt"
	"go/scanner"
	"go/token"
	"math"
	"runtime"
	"slices"

	"repro/internal/lang"
	"repro/internal/mh"
	"repro/internal/state"
)

// Interp runs one lowered module program against one participation
// runtime. It holds everything that changes while the program runs; the
// Lowered program it executes is shared and immutable.
//
// frames is the activation stack: frames[0] is the entry procedure's
// record, frames[depth] the running one's. A call readies the frame one
// level up and exec switches to it; a return switches back. The frames and
// their slots are reused by depth, so a descent allocates only where it
// goes deeper than any before it.
type Interp struct {
	low    *Lowered
	rt     *mh.Runtime
	limit  int64 // on steps; MaxInt64 when unbounded
	steps  int64
	frames []*frame
	depth  int
	free   []slot        // the rest of the chunk frames take new slots from
	tuple  []state.Value // the outgoing mh.Write tuple under construction
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

// failf raises a module runtime error (index out of range, division by
// zero, step limit, ...): a *scanner.Error, the repository's one positioned
// error, that Run and Call return wrapped with this package's name. Its Pos
// is where the instruction that raised it stands in the source the program
// was parsed from. For an instrumented module that is the source as the
// programmer wrote it: the transformation's passes keep the position of
// every node they reuse, so an error in a flattened loop, a hoisted
// argument or an untouched procedure cites the line it was written on. A
// statement only the transformation made has no position, and an error it
// raises prints without one rather than with a wrong one.
func (in *Interp) failf(pos token.Pos, format string, args ...any) {
	panic(&scanner.Error{Pos: in.low.fset.Position(pos), Msg: fmt.Sprintf(format, args...)})
}

// recovered sorts a recovered panic value into a termination or a module
// error; anything that is neither is re-raised. A Go run-time fault inside
// lowered code (a make with an absurd size, a value of the wrong kind
// handed to Call) is the module's fault, not the host's.
func recovered(rec any) (*mh.Termination, error) {
	switch v := rec.(type) {
	case mh.Termination:
		return &v, nil
	case *scanner.Error, runtime.Error:
		return nil, fmt.Errorf("interp: %w", v.(error))
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
	// Start from an empty stack: a run that a panic unwound left it at the
	// depth where it failed.
	in.steps, in.depth = 0, 0
	fr := in.enter(0, c)
	for i, p := range c.params {
		if !p.setAny(fr, copyVal(args[i])) {
			return nil, fmt.Errorf("interp: %s argument %d is %s, want %s", name, i+1, formatValue(args[i]), p.typ)
		}
	}
	in.exec(fr)
	var results []any
	for _, r := range c.results {
		results = append(results, r.getAny(fr))
	}
	return results, nil
}

// enter readies the frame of an activation of c at depth d, its slots
// cleared. It is the only place the stack grows, where a descent goes
// deeper, or needs more slots at a depth, than any before it. Neither
// frames nor slots ever move: frames come in blocks, and a frame's slots
// are carved from chunks, each sized for twice the frames up to the one
// that needs it, so a descent allocates a number of times logarithmic in
// its depth.
func (in *Interp) enter(d int, c *code) *frame {
	grow := 2 * (d + 1)
	if d == len(in.frames) {
		block := make([]frame, grow)
		in.frames = slices.Grow(in.frames, grow)
		for i := range block {
			block[i].in = in
			in.frames = append(in.frames, &block[i])
		}
	}
	fr, n := in.frames[d], c.nslots
	if cap(fr.s) < n {
		if len(in.free) < n {
			in.free = make([]slot, max(n, min(slotChunk, grow*n)))
		}
		fr.s, in.free = in.free[:n:n], in.free[n:]
	}
	fr.c, fr.s = c, fr.s[:n]
	clear(fr.s)
	return fr
}

// slotChunk caps a chunk at 24 KB, below the 32 KB from which the Go heap
// allocates an object under its lock.
const slotChunk = 1024

// returned is the frame of the activation that returned last, one level
// above the running one. Its results stay there until the next call at
// that depth, which the instruction after a call never makes first.
func (in *Interp) returned() *frame { return in.frames[in.depth+1] }

// exec runs the activation readied at depth 0 to its return, and every
// activation it calls on the way: one loop over the frame stack. An
// instruction returns the index of the next one, retPC, or callPC once it
// has readied its callee's frame one level up; exec then records where the
// caller resumes and switches to the callee, and a return switches back.
//
//archlint:hotpath
func (in *Interp) exec(fr *frame) {
	c, pc := fr.c, 0
	ins := c.ins
	for {
		if in.steps++; in.steps > in.limit {
			in.overLimit(c.pos[pc])
		}
		next := ins[pc](fr)
		switch {
		case next >= 0:
			pc = next
			continue
		case next == callPC:
			fr.pc = pc + 1
			in.depth++
			fr = in.frames[in.depth]
			pc = 0
		case in.depth == 0:
			return
		default:
			in.depth--
			fr = in.frames[in.depth]
			pc = fr.pc
		}
		c = fr.c
		ins = c.ins
	}
}

// overLimit is exec's cold branch, kept out of it because failf boxes its
// arguments.
func (in *Interp) overLimit(pos token.Pos) {
	in.failf(pos, "step limit of %d exceeded (non-terminating program?)", in.limit)
}
