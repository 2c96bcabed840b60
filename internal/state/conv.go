package state

import (
	"fmt"
	"reflect"
)

// FromGo converts a native Go value into its abstract representation. It
// accepts the module-subset types: booleans, all integer widths, float32/64,
// strings, slices of subset types, and structs whose exported fields are of
// subset types. Pointers are dereferenced — addresses never enter the
// abstract state (Section 3 of the paper: pointers must be translated into
// an abstract format; we capture the pointee).
func FromGo(v any) (Value, error) {
	// The scalars every message is made of skip reflection.
	switch x := v.(type) {
	case nil:
		return Value{}, fmt.Errorf("state: cannot capture nil value")
	case int:
		return IntValue(int64(x)), nil
	case float64:
		return FloatValue(x), nil
	case bool:
		return BoolValue(x), nil
	case string:
		return StringValue(x), nil
	}
	return fromReflect(reflect.ValueOf(v), 0)
}

func fromReflect(rv reflect.Value, depth int) (Value, error) {
	if depth > maxValueDepth {
		return Value{}, fmt.Errorf("state: value nested too deeply")
	}
	switch rv.Kind() {
	case reflect.Bool:
		return BoolValue(rv.Bool()), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return IntValue(rv.Int()), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		u := rv.Uint()
		if u > 1<<63-1 {
			return Value{}, fmt.Errorf("state: uint value %d overflows abstract int", u)
		}
		return IntValue(int64(u)), nil
	case reflect.Float32, reflect.Float64:
		return FloatValue(rv.Float()), nil
	case reflect.String:
		return StringValue(rv.String()), nil
	case reflect.Pointer:
		if rv.IsNil() {
			return Value{}, fmt.Errorf("state: cannot capture nil pointer")
		}
		return fromReflect(rv.Elem(), depth+1)
	case reflect.Slice, reflect.Array:
		out := Value{Kind: KindList, List: make([]Value, rv.Len())}
		for i := 0; i < rv.Len(); i++ {
			ev, err := fromReflect(rv.Index(i), depth+1)
			if err != nil {
				return Value{}, fmt.Errorf("elem %d: %w", i, err)
			}
			out.List[i] = ev
		}
		return out, nil
	case reflect.Struct:
		t := rv.Type()
		out := NewStruct(t.Name(), t.NumField())
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				return Value{}, fmt.Errorf("state: struct %s has unexported field %s", t.Name(), f.Name)
			}
			fv, err := fromReflect(rv.Field(i), depth+1)
			if err != nil {
				return Value{}, fmt.Errorf("field %s: %w", f.Name, err)
			}
			*out.AddField(f.Name) = fv
		}
		return out, nil
	default:
		return Value{}, fmt.Errorf("state: unsupported Go kind %s", rv.Kind())
	}
}

// ToGo installs an abstract value into the Go variable pointed to by ptr.
// ptr must be a non-nil pointer to a module-subset type; the abstract value
// must be assignable to it (ints narrow with overflow checking).
func ToGo(val Value, ptr any) error {
	// As in FromGo: a pointer to a scalar of the value's own kind is stored
	// through directly; everything else, mismatches included, takes the
	// reflective path and its diagnostics.
	switch p := ptr.(type) {
	case *int:
		if p != nil && val.Kind == KindInt && int64(int(val.Int)) == val.Int {
			*p = int(val.Int)
			return nil
		}
	case *float64:
		if p != nil && val.Kind == KindFloat {
			*p = val.Float()
			return nil
		}
	case *bool:
		if p != nil && val.Kind == KindBool {
			*p = val.Bool()
			return nil
		}
	case *string:
		if p != nil && val.Kind == KindString {
			*p = val.Str
			return nil
		}
	}
	rv := reflect.ValueOf(ptr)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("state: restore target must be a non-nil pointer, got %T", ptr)
	}
	return toReflect(val, rv.Elem(), 0)
}

func toReflect(val Value, dst reflect.Value, depth int) error {
	if depth > maxValueDepth {
		return fmt.Errorf("state: value nested too deeply")
	}
	if !dst.CanSet() {
		return fmt.Errorf("state: restore target is not settable")
	}
	switch dst.Kind() {
	case reflect.Bool:
		if val.Kind != KindBool {
			return kindMismatch(val, "bool")
		}
		dst.SetBool(val.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if val.Kind != KindInt {
			return kindMismatch(val, "int")
		}
		if dst.OverflowInt(val.Int) {
			return fmt.Errorf("state: int value %d overflows %s", val.Int, dst.Type())
		}
		dst.SetInt(val.Int)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if val.Kind != KindInt {
			return kindMismatch(val, "uint")
		}
		if val.Int < 0 || dst.OverflowUint(uint64(val.Int)) {
			return fmt.Errorf("state: int value %d does not fit %s", val.Int, dst.Type())
		}
		dst.SetUint(uint64(val.Int))
	case reflect.Float32, reflect.Float64:
		if val.Kind != KindFloat {
			return kindMismatch(val, "float")
		}
		dst.SetFloat(val.Float())
	case reflect.String:
		if val.Kind != KindString {
			return kindMismatch(val, "string")
		}
		dst.SetString(val.Str)
	case reflect.Pointer:
		if dst.IsNil() {
			dst.Set(reflect.New(dst.Type().Elem()))
		}
		return toReflect(val, dst.Elem(), depth+1)
	case reflect.Slice:
		if val.Kind != KindList {
			return kindMismatch(val, "list")
		}
		out := reflect.MakeSlice(dst.Type(), len(val.List), len(val.List))
		for i, ev := range val.List {
			if err := toReflect(ev, out.Index(i), depth+1); err != nil {
				return fmt.Errorf("elem %d: %w", i, err)
			}
		}
		dst.Set(out)
	case reflect.Struct:
		if val.Kind != KindStruct {
			return kindMismatch(val, "struct")
		}
		t := dst.Type()
		for i := 0; i < val.NumFields(); i++ {
			name, fv := val.Field(i)
			sf, ok := t.FieldByName(name)
			if !ok || len(sf.Index) != 1 {
				return fmt.Errorf("state: struct %s has no field %s", t.Name(), name)
			}
			if err := toReflect(*fv, dst.Field(sf.Index[0]), depth+1); err != nil {
				return fmt.Errorf("field %s: %w", name, err)
			}
		}
	default:
		return fmt.Errorf("state: unsupported restore target kind %s", dst.Kind())
	}
	return nil
}

func kindMismatch(val Value, want string) error {
	return fmt.Errorf("state: cannot restore %s value into %s target", val.Kind, want)
}
