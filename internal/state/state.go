// Package state models the abstract process state of a module, as defined in
// Section 1.2 of Hofmeister & Purtilo (ICDCS '93): the information a module
// divulges at a reconfiguration point and installs into a dynamically created
// replacement.
//
// The abstract state is deliberately machine-independent. It contains:
//
//   - the captured activation-record stack, bottom-most frame first, where
//     each frame records the procedure name, the resume location (the edge
//     number in the reconfiguration graph), and the values of the captured
//     parameters and locals;
//   - programmer-registered heap objects (the paper leaves heap data and file
//     descriptors to the programmer; the HeapRegistry in heap.go is the API
//     for that obligation);
//   - free-form metadata (module name, source version, machine of origin).
//
// Addresses never appear in the abstract state: pointer-typed parameters are
// captured by pointee value and are re-established during restoration when
// the restore blocks re-issue the original procedure calls (Section 3).
package state

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Version is the abstract state format version. A restoring module refuses
// state whose version it does not understand.
const Version = 1

// Common errors reported while assembling or validating abstract state.
var (
	// ErrEmptyState indicates a state with no captured frames.
	ErrEmptyState = errors.New("state: no frames captured")
	// ErrBadVersion indicates a state written by an incompatible format.
	ErrBadVersion = errors.New("state: unsupported format version")
	// ErrFrameOrder indicates frames that do not form a valid stack.
	ErrFrameOrder = errors.New("state: frames out of stack order")
)

// Kind enumerates the machine-independent value kinds the abstract state can
// carry. The set mirrors what the paper's format strings ("iif", "llF", ...)
// could express, extended with the composite kinds the module subset allows.
type Kind int

// Value kinds. KindInvalid is deliberately the zero value so that an unset
// Value is detectably invalid.
const (
	KindInvalid Kind = iota
	KindBool
	KindInt    // any integer width; carried as int64
	KindFloat  // float64
	KindString // UTF-8
	KindList   // ordered sequence of values (module-subset slices)
	KindStruct // named fields (module-subset structs)
)

var kindNames = map[Kind]string{
	KindInvalid: "invalid",
	KindBool:    "bool",
	KindInt:     "int",
	KindFloat:   "float",
	KindString:  "string",
	KindList:    "list",
	KindStruct:  "struct",
}

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// FormatRune returns the Polylith-style format character for the kind, as
// used in the paper's mh_capture/mh_restore format strings.
func (k Kind) FormatRune() (rune, bool) {
	switch k {
	case KindBool:
		return 'b', true
	case KindInt:
		return 'i', true
	case KindFloat:
		return 'F', true
	case KindString:
		return 's', true
	case KindList:
		return 'L', true
	case KindStruct:
		return 'S', true
	default:
		return 0, false
	}
}

// KindForFormatRune is the inverse of Kind.FormatRune. The paper's examples
// use 'l' (long) and 'i' interchangeably for integers; both are accepted.
func KindForFormatRune(r rune) (Kind, bool) {
	switch r {
	case 'b':
		return KindBool, true
	case 'i', 'l':
		return KindInt, true
	case 'F', 'f':
		return KindFloat, true
	case 's':
		return KindString, true
	case 'L':
		return KindList, true
	case 'S':
		return KindStruct, true
	default:
		return KindInvalid, false
	}
}

// Value is one machine-independent datum in seven words, so it moves in
// registers rather than through a block copy. Kind says which fields carry
// it: Int holds an int, a bool (0 or 1) or a float (its IEEE-754 bits); Str
// holds a string or a struct's type name; List holds a list's elements or a
// struct's fields, each as a KindString name followed by its value, in
// declaration order. The rest stay zero. The layout is ours; the abstract
// format of Section 1.2 is what internal/codec writes.
type Value struct {
	Kind Kind
	Int  int64
	Str  string
	List []Value
}

// Field is a named struct member inside a KindStruct value.
type Field struct {
	Name  string
	Value Value
}

// Constructors for the scalar kinds keep call sites terse.

// BoolValue returns a KindBool value.
func BoolValue(b bool) Value {
	v := Value{Kind: KindBool}
	if b {
		v.Int = 1
	}
	return v
}

// IntValue returns a KindInt value.
func IntValue(i int64) Value { return Value{Kind: KindInt, Int: i} }

// FloatValue returns a KindFloat value.
func FloatValue(f float64) Value { return Value{Kind: KindFloat, Int: int64(math.Float64bits(f))} }

// StringValue returns a KindString value.
func StringValue(s string) Value { return Value{Kind: KindString, Str: s} }

// ListValue returns a KindList value holding elems.
func ListValue(elems ...Value) Value { return Value{Kind: KindList, List: elems} }

// StructValue returns a KindStruct value with the given type name and fields.
func StructValue(typeName string, fields ...Field) Value {
	v := NewStruct(typeName, len(fields))
	for _, f := range fields {
		*v.AddField(f.Name) = f.Value
	}
	return v
}

// NewStruct returns a KindStruct value with no fields yet and room for n.
func NewStruct(typeName string, n int) Value {
	v := Value{Kind: KindStruct, Str: typeName}
	if n > 0 {
		v.List = make([]Value, 0, 2*n)
	}
	return v
}

// AddField appends a field to a KindStruct value and returns the address of
// its (still invalid) value, for the caller to fill before the next AddField.
func (v *Value) AddField(name string) *Value {
	v.List = append(v.List, StringValue(name), Value{})
	return &v.List[len(v.List)-1]
}

// Bool returns the datum of a KindBool value.
func (v Value) Bool() bool { return v.Int != 0 }

// Float returns the datum of a KindFloat value.
func (v Value) Float() float64 { return math.Float64frombits(uint64(v.Int)) }

// Type returns the type name of a KindStruct value.
func (v Value) Type() string { return v.Str }

// NumFields returns the number of fields of a KindStruct value.
func (v Value) NumFields() int { return len(v.List) / 2 }

// Field returns the name of the i'th field of a KindStruct value and the
// address of its value.
func (v Value) Field(i int) (string, *Value) { return v.List[2*i].Str, &v.List[2*i+1] }

// Equal reports deep equality of two values: kind, datum and, for structs,
// type and field names — exactly what the encoding carries. Floats compare
// with == (so +0 equals -0), except that NaN equals NaN.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindBool:
		return v.Bool() == o.Bool()
	case KindInt:
		return v.Int == o.Int
	case KindFloat:
		a, b := v.Float(), o.Float()
		return a == b || (a != a && b != b)
	case KindString:
		return v.Str == o.Str
	case KindList, KindStruct:
		// A struct's names are elements of List, so one walk compares both.
		if len(v.List) != len(o.List) || (v.Kind == KindStruct && v.Str != o.Str) {
			return false
		}
		for i := range v.List {
			if !v.List[i].Equal(o.List[i]) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// String renders the value for debugging and golden tests.
func (v Value) String() string {
	switch v.Kind {
	case KindBool:
		return fmt.Sprintf("%t", v.Bool())
	case KindInt:
		return fmt.Sprintf("%d", v.Int)
	case KindFloat:
		return fmt.Sprintf("%g", v.Float())
	case KindString:
		return fmt.Sprintf("%q", v.Str)
	case KindList:
		parts := make([]string, len(v.List))
		for i, e := range v.List {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, " ") + "]"
	case KindStruct:
		parts := make([]string, v.NumFields())
		for i := range parts {
			name, fv := v.Field(i)
			parts[i] = name + ":" + fv.String()
		}
		return v.Type() + "{" + strings.Join(parts, " ") + "}"
	default:
		return "<invalid>"
	}
}

// Var is a named captured variable within a frame.
type Var struct {
	Name  string
	Value Value
}

// Frame is the abstract image of one activation record: which procedure it
// belongs to, where execution resumes inside it (the reconfiguration-graph
// edge number passed to mh_capture), and the captured variables in capture
// order.
type Frame struct {
	Func     string
	Location int
	Vars     []Var
}

// Var returns the value of the named variable and whether it was captured.
func (f *Frame) Var(name string) (Value, bool) {
	for _, v := range f.Vars {
		if v.Name == name {
			return v.Value, true
		}
	}
	return Value{}, false
}

// Format returns the Polylith-style format string describing this frame's
// captured variables, e.g. "iiF" for (int, int, float). The paper prefixes
// an integer location to every capture; the location is not part of the
// returned format.
func (f *Frame) Format() string {
	var b strings.Builder
	for _, v := range f.Vars {
		if r, ok := v.Value.Kind.FormatRune(); ok {
			b.WriteRune(r)
		} else {
			b.WriteRune('?')
		}
	}
	return b.String()
}

// State is the complete abstract process state divulged by a module. Frames
// run bottom-of-stack (the main procedure) first: index 0 was pushed first
// and is consumed first during restoration, exactly as the paper's restore
// blocks rebuild the stack from main downward.
type State struct {
	Version int
	Module  string            // module instance name that divulged the state
	Machine string            // logical machine of origin
	Frames  []Frame           // bottom-most first
	Heap    []HeapObject      // programmer-registered heap data
	Meta    map[string]string // free-form attributes (source hash, etc.)
}

// New returns an empty state for the named module instance.
func New(module string) *State {
	return &State{Version: Version, Module: module, Meta: map[string]string{}}
}

// PushFrame appends a frame to the state. Capture proceeds top-of-stack
// first (the innermost procedure returns first), so callers typically build
// the frame list in reverse; PushFrame appends and Reverse fixes the order
// once the bottom frame has been captured.
func (s *State) PushFrame(f Frame) { s.Frames = append(s.Frames, f) }

// Reverse reverses the frame order in place. The mh runtime captures frames
// innermost-first as the capture blocks pop the stack; restoration needs
// them outermost-first.
func (s *State) Reverse() {
	for i, j := 0, len(s.Frames)-1; i < j; i, j = i+1, j-1 {
		s.Frames[i], s.Frames[j] = s.Frames[j], s.Frames[i]
	}
}

// Depth returns the number of captured frames.
func (s *State) Depth() int { return len(s.Frames) }

// Validate checks the structural invariants of the state: a known version,
// at least one frame, and every frame named with a nonzero location.
func (s *State) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("%w: got %d want %d", ErrBadVersion, s.Version, Version)
	}
	if len(s.Frames) == 0 {
		return ErrEmptyState
	}
	for i, f := range s.Frames {
		if f.Func == "" {
			return fmt.Errorf("%w: frame %d has no procedure name", ErrFrameOrder, i)
		}
		if f.Location <= 0 {
			return fmt.Errorf("%w: frame %d (%s) has location %d", ErrFrameOrder, i, f.Func, f.Location)
		}
		for _, v := range f.Vars {
			if err := validateValue(v.Value, 0); err != nil {
				return fmt.Errorf("frame %d (%s) var %s: %w", i, f.Func, v.Name, err)
			}
		}
	}
	return nil
}

const maxValueDepth = 64

func validateValue(v Value, depth int) error {
	if depth > maxValueDepth {
		return errors.New("value nested too deeply")
	}
	switch v.Kind {
	case KindBool, KindInt, KindFloat, KindString:
		return nil
	case KindList:
		for i, e := range v.List {
			if err := validateValue(e, depth+1); err != nil {
				return fmt.Errorf("elem %d: %w", i, err)
			}
		}
		return nil
	case KindStruct:
		if len(v.List)%2 != 0 {
			return errors.New("struct field without a value")
		}
		for i := 0; i < v.NumFields(); i++ {
			name, fv := v.Field(i)
			if name == "" || v.List[2*i].Kind != KindString {
				return errors.New("struct field with empty name")
			}
			if err := validateValue(*fv, depth+1); err != nil {
				return fmt.Errorf("field %s: %w", name, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("invalid value kind %v", v.Kind)
	}
}

// Equal reports deep equality of two states, ignoring metadata ordering.
func (s *State) Equal(o *State) bool {
	if s == nil || o == nil {
		return s == o
	}
	if s.Version != o.Version || s.Module != o.Module || s.Machine != o.Machine {
		return false
	}
	if len(s.Frames) != len(o.Frames) || len(s.Heap) != len(o.Heap) || len(s.Meta) != len(o.Meta) {
		return false
	}
	for i := range s.Frames {
		a, b := s.Frames[i], o.Frames[i]
		if a.Func != b.Func || a.Location != b.Location || len(a.Vars) != len(b.Vars) {
			return false
		}
		for j := range a.Vars {
			if a.Vars[j].Name != b.Vars[j].Name || !a.Vars[j].Value.Equal(b.Vars[j].Value) {
				return false
			}
		}
	}
	for i := range s.Heap {
		if s.Heap[i].Key != o.Heap[i].Key || !s.Heap[i].Value.Equal(o.Heap[i].Value) {
			return false
		}
	}
	for k, v := range s.Meta {
		if ov, ok := o.Meta[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

// String renders a compact, deterministic description of the state, used by
// golden tests and the reconfigctl tool.
func (s *State) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "state v%d module=%s machine=%s depth=%d\n", s.Version, s.Module, s.Machine, len(s.Frames))
	for i, f := range s.Frames {
		fmt.Fprintf(&b, "  frame[%d] %s @%d", i, f.Func, f.Location)
		for _, v := range f.Vars {
			fmt.Fprintf(&b, " %s=%s", v.Name, v.Value.String())
		}
		b.WriteByte('\n')
	}
	for _, h := range s.Heap {
		fmt.Fprintf(&b, "  heap %s=%s\n", h.Key, h.Value.String())
	}
	keys := make([]string, 0, len(s.Meta))
	for k := range s.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  meta %s=%s\n", k, s.Meta[k])
	}
	return b.String()
}
