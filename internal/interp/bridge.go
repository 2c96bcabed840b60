package interp

import (
	"go/ast"
	"go/token"

	"repro/internal/codec"
	"repro/internal/lang"
	"repro/internal/mh"
	"repro/internal/state"
)

// This file binds mh.<primitive>(...) calls to the participation runtime.
// Everything the call's text determines — the primitive, the targets and
// pointee types of &x arguments, the names of captured variables — is
// resolved here, once; the closures convert between slot values and
// abstract values and call the runtime method.

// guard wraps a primitive's body with the checks every one shares: a
// runtime must be attached, and an error the call records on it surfaces
// at once rather than letting the module compute on garbage. (Fatal errors
// unwind as a Termination panic and never reach the second check.)
func guard[T any](pos token.Pos, name string, body func(*frame, *mh.Runtime) T) func(*frame) T {
	return func(fr *frame) T {
		in := fr.in
		rt := in.rt
		if rt == nil {
			in.failf(pos, "mh.%s called but no runtime is attached", name)
		}
		before := rt.Err()
		out := body(fr, rt)
		if err := rt.Err(); err != nil && err != before {
			in.failf(pos, "mh.%s: %v", name, err)
		}
		return out
	}
}

// mhCall lowers one primitive: to run for those that return nothing, to
// val for those that return a value.
func (fl *funcLowerer) mhCall(call *ast.CallExpr, name string) (run func(*frame), val expr) {
	pos := call.Pos()
	void := func(body func(*frame, *mh.Runtime)) {
		g := guard(pos, name, func(fr *frame, rt *mh.Runtime) struct{} {
			body(fr, rt)
			return struct{}{}
		})
		run = func(fr *frame) { g(fr) }
	}
	flag := func(get func(*mh.Runtime) bool) {
		val.b = guard(pos, name, func(_ *frame, rt *mh.Runtime) bool { return get(rt) })
	}
	arg := func(i int) expr { return fl.expr(call.Args[i]) } // the checker has verified the arity

	switch name {
	case "Init":
		void(func(_ *frame, rt *mh.Runtime) { rt.Init() })
	case "Status":
		val.a = guard(pos, name, func(_ *frame, rt *mh.Runtime) any { return rt.Status() })
	case "ReconfigPoint":
		// The untransformed marker is a no-op; the transform replaces it
		// with a capture block.
		void(func(*frame, *mh.Runtime) {})
	case "Sleep":
		ticks := arg(0).int()
		void(func(fr *frame, rt *mh.Runtime) { rt.Sleep(ticks(fr)) })
	case "Log":
		args := make([]func(*frame) any, len(call.Args))
		for i := range args {
			args[i] = arg(i).any()
		}
		void(func(fr *frame, rt *mh.Runtime) {
			vals := make([]any, len(args))
			for i, a := range args {
				v := a(fr)
				if c, ok := v.(cell); ok && c != nil {
					v = c.get()
				}
				if _, ok := v.(string); !ok {
					v = formatValue(v)
				}
				vals[i] = v
			}
			rt.Log(vals...)
		})
	case "QueryIfMsgs":
		iface := arg(0).string()
		val.b = guard(pos, name, func(fr *frame, rt *mh.Runtime) bool { return rt.QueryIfMsgs(iface(fr)) })
	case "Reconfig":
		flag((*mh.Runtime).Reconfig)
	case "ClearReconfig":
		void(func(_ *frame, rt *mh.Runtime) { rt.ClearReconfig() })
	case "CaptureStack":
		flag((*mh.Runtime).CaptureStack)
	case "SetCaptureStack":
		on := arg(0).bool()
		void(func(fr *frame, rt *mh.Runtime) { rt.SetCaptureStack(on(fr)) })
	case "Restoring":
		flag((*mh.Runtime).Restoring)
	case "SetRestoring":
		on := arg(0).bool()
		void(func(fr *frame, rt *mh.Runtime) { rt.SetRestoring(on(fr)) })
	case "InstallSignalHandler":
		void(func(_ *frame, rt *mh.Runtime) { rt.InstallSignalHandler() })
	case "Encode":
		void(func(_ *frame, rt *mh.Runtime) { rt.Encode() })
	case "Decode":
		void(func(_ *frame, rt *mh.Runtime) { rt.Decode() })
	case "FinishRestore":
		void(func(_ *frame, rt *mh.Runtime) { rt.FinishRestore() })
	case "Read":
		void(fl.bridgeRead(call, arg(0).string()))
	case "Write":
		void(fl.bridgeWrite(call, arg(0).string()))
	case "Capture":
		void(fl.bridgeCapture(call, arg(0).string(), arg(1).string()))
	case "Restore":
		void(fl.bridgeRestore(call, arg(0).string(), arg(1).string()))
	default:
		void(func(fr *frame, _ *mh.Runtime) { fr.in.failf(pos, "unknown mh primitive %s", name) })
	}
	return run, val
}

func (fl *funcLowerer) bridgeRead(call *ast.CallExpr, iface func(*frame) string) func(*frame, *mh.Runtime) {
	pos := call.Pos()
	var into []install
	for _, a := range call.Args[1:] {
		into = append(into, fl.installer(a))
	}
	return func(fr *frame, rt *mh.Runtime) {
		name := iface(fr)
		v := rt.ReadAbstract(name)
		if v == nil {
			return // the recorded error surfaces in guard
		}
		if len(into) == 1 {
			into[0](fr, v)
			return
		}
		// The runtime overwrites *v at its next read, which evaluating a
		// pointer argument may perform; the elements are this message's own.
		elems := v.List
		if v.Kind != state.KindList || len(elems) != len(into) {
			fr.in.failf(pos, "mh.Read on %s: message arity %d does not match %d pointers", name, len(elems), len(into))
		}
		for i, set := range into {
			set(fr, &elems[i])
		}
	}
}

func (fl *funcLowerer) bridgeWrite(call *ast.CallExpr, iface func(*frame) string) func(*frame, *mh.Runtime) {
	var vals []func(*frame) state.Value
	for _, a := range call.Args[1:] {
		vals = append(vals, fl.abstract(a))
	}
	if len(vals) == 1 {
		return func(fr *frame, rt *mh.Runtime) {
			name, v := iface(fr), vals[0](fr)
			rt.WriteAbstract(name, &v)
		}
	}
	return func(fr *frame, rt *mh.Runtime) {
		// The tuple is built on the interpreter's scratch stack (an argument
		// may call a procedure that writes a tuple of its own); the codec
		// does not retain it.
		in := fr.in
		base := len(in.tuple)
		for _, val := range vals {
			in.tuple = append(in.tuple, val(fr))
		}
		rt.WriteAbstract(iface(fr), &state.Value{Kind: state.KindList, List: in.tuple[base:]})
		in.tuple = in.tuple[:base]
	}
}

func (fl *funcLowerer) bridgeCapture(call *ast.CallExpr, fn, format func(*frame) string) func(*frame, *mh.Runtime) {
	pos := call.Pos()
	args := call.Args[2:]
	if len(args) == 0 {
		return func(fr *frame, _ *mh.Runtime) { fr.in.failf(pos, "mh.Capture without a location") }
	}
	loc := fl.expr(args[0]).int()
	names := make([]string, len(args)-1)
	vals := make([]func(*frame) state.Value, len(args)-1)
	for i, a := range args[1:] {
		names[i], vals[i] = exprName(a), fl.abstract(a)
	}
	return func(fr *frame, rt *mh.Runtime) {
		// The frame's variables are read off its slots against the name
		// list fixed above; the Vars slice is the one allocation, and the
		// captured state keeps it.
		at, name := loc(fr), fn(fr)
		vars := make([]state.Var, len(vals))
		for i, val := range vals {
			vars[i] = state.Var{Name: names[i], Value: val(fr)}
		}
		if err := checkFormat(format(fr), at, vars); err != nil {
			fr.in.failf(pos, "mh.Capture %s: %v", name, err)
		}
		rt.CaptureAbstract(name, at, vars)
	}
}

func (fl *funcLowerer) bridgeRestore(call *ast.CallExpr, fn, format func(*frame) string) func(*frame, *mh.Runtime) {
	pos := call.Pos()
	args := call.Args[2:]
	if len(args) == 0 {
		return func(fr *frame, _ *mh.Runtime) { fr.in.failf(pos, "mh.Restore without a location pointer") }
	}
	into := make([]install, len(args))
	for i, a := range args {
		into[i] = fl.installer(a)
	}
	return func(fr *frame, rt *mh.Runtime) {
		name := fn(fr)
		frame := rt.NextRestoreFrame(name)
		if frame == nil {
			return
		}
		if len(into)-1 != len(frame.Vars) {
			fr.in.failf(pos, "mh.Restore %s: frame has %d vars, %d pointers supplied", name, len(frame.Vars), len(into)-1)
		}
		if f := format(fr); f != "" {
			if err := checkFormat(f, frame.Location, frame.Vars); err != nil {
				fr.in.failf(pos, "mh.Restore %s: %v", name, err)
			}
		}
		loc := state.IntValue(int64(frame.Location))
		into[0](fr, &loc)
		for i := range frame.Vars {
			into[i+1](fr, &frame.Vars[i].Value)
		}
	}
}

// checkFormat validates a Figure 4 format string — one specifier for the
// location, then one per variable — without building the value list
// codec.ValidateFormat takes; that is left to the failing path, for its
// message.
func checkFormat(format string, loc int, vars []state.Var) error {
	if formatFits(format, vars) {
		return nil
	}
	vals := []state.Value{state.IntValue(int64(loc))}
	for _, v := range vars {
		vals = append(vals, v.Value)
	}
	return codec.ValidateFormat(format, vals)
}

func formatFits(format string, vars []state.Var) bool {
	n := 0 // specifiers matched so far
	for _, r := range format {
		if n > len(vars) {
			return false
		}
		kind := state.KindInt // the location
		if n > 0 {
			kind = vars[n-1].Value.Kind
		}
		if want, ok := state.KindForFormatRune(r); !ok || want != kind {
			return false
		}
		n++
	}
	return n == len(vars)+1
}

// abstract lowers an expression to its abstract (state.Value) form, picked
// by static class so that scalars are never boxed on the way out.
func (fl *funcLowerer) abstract(e ast.Expr) func(*frame) state.Value {
	x, pos := fl.expr(e), e.Pos()
	switch classOf(fl.info.TypeOf(e)) {
	case intClass:
		i := x.int()
		return func(fr *frame) state.Value { return state.IntValue(int64(i(fr))) }
	case floatClass:
		f := x.float()
		return func(fr *frame) state.Value { return state.FloatValue(f(fr)) }
	case boolClass:
		b := x.bool()
		return func(fr *frame) state.Value { return state.BoolValue(b(fr)) }
	}
	a := x.any()
	return func(fr *frame) state.Value {
		v, err := toAbstract(a(fr))
		if err != nil {
			fr.in.failf(pos, "%v", err)
		}
		return v
	}
}

// install stores the abstract value at v through one pointer argument of
// mh.Read or mh.Restore. It does not keep v.
type install func(fr *frame, v *state.Value)

// installer lowers a pointer argument. &x of a variable that lives in its
// slot is stored into directly, with the kind check the pointee type
// implies; any other pointer is evaluated to the location it denotes.
func (fl *funcLowerer) installer(a ast.Expr) install {
	pos := a.Pos()
	pt, ok := fl.info.TypeOf(a).(lang.Pointer)
	if !ok {
		return func(fr *frame, _ *state.Value) { fr.in.failf(pos, "argument has no pointer type info") }
	}
	t := pt.Elem
	convert := func(fr *frame, v *state.Value) any {
		rv, err := fromAbstract(v, t)
		if err != nil {
			fr.in.failf(pos, "%v", err)
		}
		return rv
	}
	if v := fl.slotTarget(a); v != nil {
		k, want := v.slot, t.Kind()
		// Every scalar kind travels in Value.Int exactly as its slot holds
		// it: the int, the float's bits, the bool as 0 or 1.
		if v.cls == intClass || v.cls == floatClass || v.cls == boolClass {
			return func(fr *frame, v *state.Value) {
				if v.Kind != want {
					fr.in.failf(pos, "%v", kindErr(v, t))
				}
				fr.s[k].n = int(v.Int)
			}
		}
		return func(fr *frame, v *state.Value) { fr.s[k].r = convert(fr, v) }
	}
	p := fl.expr(a).any()
	return func(fr *frame, v *state.Value) {
		// Converted before the pointer is evaluated: that may read a
		// message, and the runtime decodes every message into the cell v
		// points at.
		rv := convert(fr, v)
		c, ok := p(fr).(cell)
		if !ok || c == nil {
			fr.in.failf(pos, "argument is not a pointer")
		}
		c.set(rv)
	}
}

// slotTarget recognizes &x written directly as an argument, x a variable
// held in its slot (addressTaken leaves exactly these unboxed unless the
// address is also taken elsewhere).
func (fl *funcLowerer) slotTarget(a ast.Expr) *variable {
	u, ok := a.(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil
	}
	id, ok := ast.Unparen(u.X).(*ast.Ident)
	if !ok {
		return nil
	}
	def := fl.info.VarOf(id)
	if def == nil {
		return nil
	}
	if v := fl.variable(def); !v.boxed {
		return v
	}
	return nil
}

// exprName renders a short name for a captured expression (the variable
// name for idents, a best-effort rendering otherwise).
func exprName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return exprName(x.X)
	case *ast.ParenExpr:
		return exprName(x.X)
	case *ast.SelectorExpr:
		return exprName(x.X) + "." + x.Sel.Name
	default:
		return "expr"
	}
}
