// Package lang defines the module language of the reproduction: the
// statically-scoped, single-threaded Go subset that module programs
// (Figure 3) are written in, together with a parser front end and a type
// checker.
//
// The paper assumes "a module is written in a statically-scoped language and
// has a single thread of control" (Section 1). Our module language is a Go
// subset chosen so that (a) every module program is also a valid Go program
// against the real mh runtime, and (b) the subset is small enough to
// interpret and analyze precisely:
//
//   - types: int, float64, bool, string, []T, *T, and package-level named
//     struct types;
//   - declarations: var with explicit type and/or initializer, :=, const
//     (untyped literal only), type (struct only);
//   - statements: assignment (including n-ary and op-assign), if/else, for
//     (all three forms and range over slices/strings), switch (tagged and
//     tagless), break/continue (optionally labeled), goto/labels, return,
//     inc/dec, expression statements (calls);
//   - expressions: literals, identifiers, unary/binary operators, calls to
//     package functions and to the mh API, conversions int()/float64()/
//     string(), len/cap/append, index, slice expressions, selector on struct
//     values, &x, *p, composite literals for slices and structs;
//   - no goroutines, channels, closures, function values, maps, interfaces,
//     methods, defer, or imports other than the implicit mh runtime.
//
// The checker (check.go) enforces the subset and produces the type and
// def/use information that control-flow flattening, liveness analysis, the
// source transformation and the interpreter all share.
package lang

import (
	"fmt"
	"strings"

	"repro/internal/state"
)

// Type is a module-subset type.
type Type interface {
	// String renders Go syntax for the type.
	String() string
	// Equal reports structural equality.
	Equal(Type) bool
	// Kind maps the type to its abstract-state kind.
	Kind() state.Kind
}

// BasicKind enumerates the scalar types.
type BasicKind int

// Scalar types of the module subset.
const (
	Int BasicKind = iota + 1
	Float64
	Bool
	String
)

// Basic is a scalar type.
type Basic struct{ B BasicKind }

// Predefined basic types.
var (
	IntType    = Basic{B: Int}
	FloatType  = Basic{B: Float64}
	BoolType   = Basic{B: Bool}
	StringType = Basic{B: String}
)

// String implements Type.
func (b Basic) String() string {
	switch b.B {
	case Int:
		return "int"
	case Float64:
		return "float64"
	case Bool:
		return "bool"
	case String:
		return "string"
	default:
		return fmt.Sprintf("basic(%d)", int(b.B))
	}
}

// Equal implements Type.
func (b Basic) Equal(o Type) bool {
	ob, ok := o.(Basic)
	return ok && ob.B == b.B
}

// Kind implements Type.
func (b Basic) Kind() state.Kind {
	switch b.B {
	case Int:
		return state.KindInt
	case Float64:
		return state.KindFloat
	case Bool:
		return state.KindBool
	case String:
		return state.KindString
	default:
		return state.KindInvalid
	}
}

// Slice is []Elem.
type Slice struct{ Elem Type }

// String implements Type.
func (s Slice) String() string { return "[]" + s.Elem.String() }

// Equal implements Type.
func (s Slice) Equal(o Type) bool {
	os, ok := o.(Slice)
	return ok && s.Elem.Equal(os.Elem)
}

// Kind implements Type.
func (s Slice) Kind() state.Kind { return state.KindList }

// Pointer is *Elem. In the module subset pointers appear as parameters (the
// paper's out-parameters, e.g. rp *float64 in compute) and as &x arguments.
type Pointer struct{ Elem Type }

// String implements Type.
func (p Pointer) String() string { return "*" + p.Elem.String() }

// Equal implements Type.
func (p Pointer) Equal(o Type) bool {
	op, ok := o.(Pointer)
	return ok && p.Elem.Equal(op.Elem)
}

// Kind implements Type. A pointer is captured by pointee value (Section 3:
// addresses never enter the abstract state), so its abstract kind is the
// pointee's.
func (p Pointer) Kind() state.Kind { return p.Elem.Kind() }

// StructField is one field of a named struct type.
type StructField struct {
	Name string
	Type Type
}

// Struct is a package-level named struct type.
type Struct struct {
	Name   string
	Fields []StructField
}

// String implements Type.
func (s *Struct) String() string { return s.Name }

// Equal implements Type.
func (s *Struct) Equal(o Type) bool {
	os, ok := o.(*Struct)
	return ok && os.Name == s.Name
}

// Kind implements Type.
func (s *Struct) Kind() state.Kind { return state.KindStruct }

// Field returns the named field's type, or nil.
func (s *Struct) Field(name string) Type {
	for _, f := range s.Fields {
		if f.Name == name {
			return f.Type
		}
	}
	return nil
}

// Describe renders a struct with its fields (for diagnostics).
func (s *Struct) Describe() string {
	var b strings.Builder
	b.WriteString("struct " + s.Name + " {")
	for i, f := range s.Fields {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(f.Name + " " + f.Type.String())
	}
	b.WriteString("}")
	return b.String()
}

// FormatRune returns the Polylith format character for a type, used when
// the transform builds mh_capture/mh_restore format strings.
func FormatRune(t Type) (rune, bool) {
	r, ok := t.Kind().FormatRune()
	return r, ok
}

// ZeroValue returns the abstract zero value of a type (what a restored
// dummy argument carries, and what var declarations initialize to).
func ZeroValue(t Type) state.Value {
	switch tt := t.(type) {
	case Basic:
		switch tt.B {
		case Int:
			return state.IntValue(0)
		case Float64:
			return state.FloatValue(0)
		case Bool:
			return state.BoolValue(false)
		case String:
			return state.StringValue("")
		}
	case Slice:
		return state.Value{Kind: state.KindList}
	case Pointer:
		return ZeroValue(tt.Elem)
	case *Struct:
		v := state.NewStruct(tt.Name, len(tt.Fields))
		for _, f := range tt.Fields {
			*v.AddField(f.Name) = ZeroValue(f.Type)
		}
		return v
	}
	return state.Value{}
}
