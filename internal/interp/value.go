// Package interp executes module-language programs (internal/lang) —
// original or transformed — as bus-attached, single-threaded modules
// entirely in-process. It works in two phases: Lower resolves a checked
// program once into slot-indexed closures, and an Interp runs that lowered
// program against one participation runtime.
//
// Lowering does everything that depends only on the program text. Every
// parameter and local becomes a frame-slot index (block scoping and
// shadowing are already resolved by the checker's definitions, so a scope
// push costs nothing at run time); literals are parsed once; operators are
// picked from the checker's static types; mh.<primitive> calls are bound to
// their runtime method with interface names, &local targets, pointee types,
// capture-variable names and format strings fixed; structured control
// flow, labels, goto, break and continue all become jumps inside one flat
// instruction array per procedure. A call of a procedure is an instruction
// too: a call nested in an expression is taken out of it into a temporary,
// so the calls of an expression run first, left to right, and its remaining
// operands are read after them, as in the compiled module. A Lowered
// program is immutable and may be run by any number of interpreters
// concurrently (a module and its clone, the members of a replica group, a
// replay sandbox): the frame stack, the step counter and the runtime live
// in the Interp.
//
// An Interp runs a call on a frame stack of its own, not as a Go call: exec
// is one loop that switches frames at a call and back at a return, and the
// frames and their slots are reused by depth. A recursion costs the
// goroutine no stack and, once the stack has been that deep, no
// allocation; its depth is bounded by memory alone.
//
// The address-taken rule: a variable whose address is taken (&v anywhere
// but directly as an mh.Read/mh.Restore target) lives in a heap cell of its
// own rather than in its frame slot, and gets a fresh cell each time its
// declaration executes — so a pointer kept across loop iterations keeps
// pointing at that iteration's variable, and a pointer that outlives the
// call keeps its pointee alive without pinning the frame.
//
// The interpreter exists for two reasons. First, it makes the whole
// distributed application of the paper hermetic: every example and test
// runs the real program text, the real bus, and the real capture/restore
// protocol without shelling out to a compiler. Second, it is the oracle for
// the semantics-preservation property tests: a program, its flattened form,
// and its instrumented form must be observationally equivalent, and the
// interpreter is where that is checked.
//
// Module programs remain valid Go: anything the interpreter runs can also
// be compiled against the real mh runtime (cmd/mhgen emits such packages).
package interp

import (
	"fmt"

	"repro/internal/lang"
	"repro/internal/state"
)

// Runtime values:
//
//	int            -> Go int
//	float64        -> Go float64
//	bool, string   -> Go bool, string
//	[]T            -> []any (reference semantics, like Go slices)
//	struct         -> *structVal (value semantics enforced by copyVal)
//	*T             -> cell (an assignable location)
//
// In a frame slot (lower.go) int, float64 and bool variables are held
// unboxed; everything else is held as one of the values above.

// structVal is a struct value. It is heap-allocated so interior pointers
// (&t.X) work; value semantics are restored by copying at every store.
type structVal struct {
	typ    string
	names  []string
	fields []any
}

// cell is an assignable storage location — what a pointer value denotes.
type cell interface {
	get() any
	set(any)
}

// varCell holds an address-taken variable (see the package comment).
type varCell struct{ v any }

func (c *varCell) get() any  { return c.v }
func (c *varCell) set(v any) { c.v = v }

// sliceCell aliases one element of a slice.
type sliceCell struct {
	s []any
	i int
}

func (c sliceCell) get() any  { return c.s[c.i] }
func (c sliceCell) set(v any) { c.s[c.i] = v }

// fieldCell aliases one field of a struct value.
type fieldCell struct {
	sv *structVal
	i  int
}

func (c fieldCell) get() any  { return c.sv.fields[c.i] }
func (c fieldCell) set(v any) { c.sv.fields[c.i] = v }

// copyVal deep-copies struct values so that stores have Go's value
// semantics; scalars, slices (reference types in Go) and pointers pass
// through.
func copyVal(v any) any {
	sv, ok := v.(*structVal)
	if !ok {
		return v
	}
	out := &structVal{typ: sv.typ, names: sv.names, fields: make([]any, len(sv.fields))}
	for i, f := range sv.fields {
		out.fields[i] = copyVal(f)
	}
	return out
}

// zeroValue builds the runtime zero value of a type.
func zeroValue(t lang.Type) any {
	switch tt := t.(type) {
	case lang.Basic:
		switch tt.B {
		case lang.Int:
			return 0
		case lang.Float64:
			return 0.0
		case lang.Bool:
			return false
		case lang.String:
			return ""
		}
	case lang.Slice:
		return []any(nil)
	case lang.Pointer:
		return cell(nil)
	case *lang.Struct:
		sv := &structVal{typ: tt.Name}
		for _, f := range tt.Fields {
			sv.names = append(sv.names, f.Name)
			sv.fields = append(sv.fields, zeroValue(f.Type))
		}
		return sv
	}
	return nil
}

// toAbstract converts a runtime value to its abstract (state.Value) form.
// Pointers are dereferenced — addresses never leave the module.
func toAbstract(v any) (state.Value, error) {
	switch x := v.(type) {
	case int:
		return state.IntValue(int64(x)), nil
	case float64:
		return state.FloatValue(x), nil
	case bool:
		return state.BoolValue(x), nil
	case string:
		return state.StringValue(x), nil
	case []any:
		out := state.Value{Kind: state.KindList, List: make([]state.Value, len(x))}
		for i, e := range x {
			ev, err := toAbstract(e)
			if err != nil {
				return state.Value{}, err
			}
			out.List[i] = ev
		}
		return out, nil
	case *structVal:
		out := state.NewStruct(x.typ, len(x.fields))
		for i, f := range x.fields {
			fv, err := toAbstract(f)
			if err != nil {
				return state.Value{}, err
			}
			*out.AddField(x.names[i]) = fv
		}
		return out, nil
	case cell:
		if x == nil {
			return state.Value{}, fmt.Errorf("interp: cannot capture nil pointer")
		}
		return toAbstract(x.get())
	default:
		return state.Value{}, fmt.Errorf("interp: cannot capture value of type %T", v)
	}
}

// fromAbstract converts an abstract value into the runtime value of type t.
func fromAbstract(v *state.Value, t lang.Type) (any, error) {
	switch tt := t.(type) {
	case lang.Basic:
		switch tt.B {
		case lang.Int:
			if v.Kind != state.KindInt {
				return nil, kindErr(v, t)
			}
			return int(v.Int), nil
		case lang.Float64:
			if v.Kind != state.KindFloat {
				return nil, kindErr(v, t)
			}
			return v.Float(), nil
		case lang.Bool:
			if v.Kind != state.KindBool {
				return nil, kindErr(v, t)
			}
			return v.Bool(), nil
		case lang.String:
			if v.Kind != state.KindString {
				return nil, kindErr(v, t)
			}
			return v.Str, nil
		}
	case lang.Slice:
		if v.Kind != state.KindList {
			return nil, kindErr(v, t)
		}
		out := make([]any, len(v.List))
		for i := range v.List {
			ev, err := fromAbstract(&v.List[i], tt.Elem)
			if err != nil {
				return nil, err
			}
			out[i] = ev
		}
		return out, nil
	case lang.Pointer:
		// A pointer's abstract form is its pointee value; installing it
		// needs an existing cell, which the caller handles.
		return fromAbstract(v, tt.Elem)
	case *lang.Struct:
		if v.Kind != state.KindStruct {
			return nil, kindErr(v, t)
		}
		sv := &structVal{typ: tt.Name}
		for _, f := range tt.Fields {
			sv.names = append(sv.names, f.Name)
			var got *state.Value
			for i := 0; i < v.NumFields(); i++ {
				if name, fv := v.Field(i); name == f.Name {
					got = fv
					break
				}
			}
			if got == nil {
				return nil, fmt.Errorf("interp: abstract struct %s lacks field %s", tt.Name, f.Name)
			}
			fv, err := fromAbstract(got, f.Type)
			if err != nil {
				return nil, err
			}
			sv.fields = append(sv.fields, fv)
		}
		return sv, nil
	}
	return nil, fmt.Errorf("interp: cannot restore into type %s", t)
}

func kindErr(v *state.Value, t lang.Type) error {
	return fmt.Errorf("interp: abstract %s value does not fit %s", v.Kind, t)
}

// formatValue renders a runtime value for error messages and traces.
func formatValue(v any) string {
	switch x := v.(type) {
	case nil:
		return "<nil>"
	case string:
		return fmt.Sprintf("%q", x)
	case []any:
		s := "["
		for i, e := range x {
			if i > 0 {
				s += " "
			}
			s += formatValue(e)
		}
		return s + "]"
	case *structVal:
		s := x.typ + "{"
		for i, f := range x.fields {
			if i > 0 {
				s += " "
			}
			s += x.names[i] + ":" + formatValue(f)
		}
		return s + "}"
	case cell:
		if x == nil {
			return "<nil ptr>"
		}
		return "&" + formatValue(x.get())
	default:
		return fmt.Sprintf("%v", x)
	}
}
