package state

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindInvalid: "invalid",
		KindBool:    "bool",
		KindInt:     "int",
		KindFloat:   "float",
		KindString:  "string",
		KindList:    "list",
		KindStruct:  "struct",
		Kind(99):    "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestFormatRuneRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindBool, KindInt, KindFloat, KindString, KindList, KindStruct} {
		r, ok := k.FormatRune()
		if !ok {
			t.Fatalf("kind %v has no format rune", k)
		}
		back, ok := KindForFormatRune(r)
		if !ok || back != k {
			t.Errorf("format rune %q maps to %v, want %v", r, back, k)
		}
	}
	if _, ok := KindInvalid.FormatRune(); ok {
		t.Error("KindInvalid should have no format rune")
	}
	// The paper's examples use both 'l' and 'i' for integers.
	if k, ok := KindForFormatRune('l'); !ok || k != KindInt {
		t.Errorf("'l' should decode to KindInt, got %v %t", k, ok)
	}
	if k, ok := KindForFormatRune('f'); !ok || k != KindFloat {
		t.Errorf("'f' should decode to KindFloat, got %v %t", k, ok)
	}
	if _, ok := KindForFormatRune('?'); ok {
		t.Error("'?' should not decode")
	}
}

func TestValueEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b Value
		want bool
	}{
		{"bools equal", BoolValue(true), BoolValue(true), true},
		{"bools differ", BoolValue(true), BoolValue(false), false},
		{"ints equal", IntValue(42), IntValue(42), true},
		{"ints differ", IntValue(42), IntValue(43), false},
		{"kind mismatch", IntValue(1), FloatValue(1), false},
		{"floats equal", FloatValue(2.5), FloatValue(2.5), true},
		{"nan equals nan", FloatValue(math.NaN()), FloatValue(math.NaN()), true},
		{"strings equal", StringValue("x"), StringValue("x"), true},
		{"strings differ", StringValue("x"), StringValue("y"), false},
		{"lists equal", ListValue(IntValue(1), IntValue(2)), ListValue(IntValue(1), IntValue(2)), true},
		{"lists differ len", ListValue(IntValue(1)), ListValue(IntValue(1), IntValue(2)), false},
		{"lists differ elem", ListValue(IntValue(1)), ListValue(IntValue(2)), false},
		{
			"structs equal",
			StructValue("P", Field{"X", IntValue(1)}),
			StructValue("P", Field{"X", IntValue(1)}),
			true,
		},
		{
			"structs differ type",
			StructValue("P", Field{"X", IntValue(1)}),
			StructValue("Q", Field{"X", IntValue(1)}),
			false,
		},
		{
			"structs differ field name",
			StructValue("P", Field{"X", IntValue(1)}),
			StructValue("P", Field{"Y", IntValue(1)}),
			false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Equal(tt.b); got != tt.want {
				t.Errorf("Equal(%v, %v) = %t, want %t", tt.a, tt.b, got, tt.want)
			}
			if got := tt.b.Equal(tt.a); got != tt.want {
				t.Errorf("Equal is not symmetric for %v, %v", tt.a, tt.b)
			}
		})
	}
}

// TestValueMovesInRegisters pins the sizes the message path was built
// around: at seven words a Value travels in registers (a larger one goes
// through a block copy at every call), and a captured variable is nine.
func TestValueMovesInRegisters(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 56 {
		t.Errorf("state.Value is %d bytes, want <= 56", n)
	}
	if n := unsafe.Sizeof(Var{}); n > 72 {
		t.Errorf("state.Var is %d bytes, want <= 72", n)
	}
}

// TestValueEqualComparesWhatIsEncoded: Equal sees the datum the kind
// implies and nothing else, with == on floats except that NaN equals NaN.
func TestValueEqualComparesWhatIsEncoded(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tt := range []struct {
		name string
		a, b Value
		want bool
	}{
		{"+0 and -0", FloatValue(0), FloatValue(negZero), true},
		{"NaNs of different payload", FloatValue(math.NaN()), FloatValue(math.Float64frombits(0x7ff8000000000123)), true},
		{"NaN and a number", FloatValue(math.NaN()), FloatValue(1), false},
		{"float bits that are an int's", FloatValue(math.Float64frombits(5)), IntValue(5), false},
		{"true however spelled", BoolValue(true), Value{Kind: KindBool, Int: 7}, true},
		{"a list's stray name", ListValue(IntValue(1)), Value{Kind: KindList, Str: "tuple", List: []Value{IntValue(1)}}, true},
		{"struct and list of the same elements", StructValue("P", Field{"X", IntValue(1)}), ListValue(StringValue("X"), IntValue(1)), false},
		{"min int", IntValue(math.MinInt64), IntValue(math.MinInt64), true},
	} {
		if got := tt.a.Equal(tt.b); got != tt.want {
			t.Errorf("%s: Equal(%v, %v) = %t, want %t", tt.name, tt.a, tt.b, got, tt.want)
		}
		if got := tt.b.Equal(tt.a); got != tt.want {
			t.Errorf("%s: Equal is not symmetric", tt.name)
		}
	}
	if f := FloatValue(negZero).Float(); !math.Signbit(f) {
		t.Errorf("FloatValue(-0).Float() = %v, lost the sign", f)
	}
	if f := FloatValue(math.NaN()).Float(); f == f {
		t.Errorf("FloatValue(NaN).Float() = %v", f)
	}
}

// TestStructFields covers the field accessors over the shared List.
func TestStructFields(t *testing.T) {
	v := StructValue("Pt", Field{"X", IntValue(3)}, Field{"Y", FloatValue(0.5)})
	if v.Type() != "Pt" || v.NumFields() != 2 {
		t.Fatalf("Type, NumFields = %q, %d", v.Type(), v.NumFields())
	}
	name, fv := v.Field(1)
	if name != "Y" || fv.Float() != 0.5 {
		t.Errorf("Field(1) = %s, %v", name, fv)
	}
	*fv = IntValue(9) // the address is the field itself
	if name, fv := v.Field(1); name != "Y" || fv.Int != 9 || v.String() != "Pt{X:3 Y:9}" {
		t.Errorf("after a store through Field(1): %v", v)
	}
	s := New("m")
	s.PushFrame(Frame{Func: "main", Location: 1, Vars: []Var{{"p", Value{Kind: KindStruct, Str: "P", List: []Value{StringValue("X")}}}}})
	if err := s.Validate(); err == nil {
		t.Error("struct field without a value accepted")
	}
}

func TestValueString(t *testing.T) {
	v := StructValue("Pt",
		Field{"X", IntValue(3)},
		Field{"S", StringValue("hi")},
		Field{"L", ListValue(BoolValue(true), FloatValue(1.5))},
	)
	want := `Pt{X:3 S:"hi" L:[true 1.5]}`
	if got := v.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got := (Value{}).String(); got != "<invalid>" {
		t.Errorf("invalid String() = %q", got)
	}
}

func TestFrameVarAndFormat(t *testing.T) {
	f := Frame{
		Func:     "compute",
		Location: 3,
		Vars: []Var{
			{"num", IntValue(5)},
			{"n", IntValue(2)},
			{"rp", FloatValue(17.25)},
		},
	}
	if got := f.Format(); got != "iiF" {
		t.Errorf("Format() = %q, want %q", got, "iiF")
	}
	v, ok := f.Var("n")
	if !ok || v.Int != 2 {
		t.Errorf("Var(n) = %v, %t", v, ok)
	}
	if _, ok := f.Var("missing"); ok {
		t.Error("Var(missing) should not be found")
	}
	bad := Frame{Vars: []Var{{"x", Value{}}}}
	if got := bad.Format(); got != "?" {
		t.Errorf("Format of invalid var = %q, want ?", got)
	}
}

func TestStateStackOperations(t *testing.T) {
	s := New("compute")
	if s.Depth() != 0 || s.Top() != nil {
		t.Fatal("fresh state should be empty")
	}
	// Capture order is innermost-first, per the paper's capture blocks
	// popping the AR stack from the top.
	s.PushFrame(Frame{Func: "compute", Location: 4})
	s.PushFrame(Frame{Func: "compute", Location: 3})
	s.PushFrame(Frame{Func: "main", Location: 1})
	s.Reverse()
	if s.Frames[0].Func != "main" {
		t.Errorf("after Reverse, bottom frame is %s, want main", s.Frames[0].Func)
	}
	top := s.Top()
	if top == nil || top.Location != 4 {
		t.Errorf("Top() = %+v, want innermost compute@4", top)
	}
	if s.Depth() != 3 {
		t.Errorf("Depth() = %d, want 3", s.Depth())
	}
}

func TestStateValidate(t *testing.T) {
	valid := func() *State {
		s := New("m")
		s.PushFrame(Frame{Func: "main", Location: 1, Vars: []Var{{"n", IntValue(1)}}})
		return s
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}

	s := valid()
	s.Version = 99
	if err := s.Validate(); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: got %v", err)
	}

	if err := New("m").Validate(); !errors.Is(err, ErrEmptyState) {
		t.Errorf("empty state: got %v", err)
	}

	s = valid()
	s.Frames[0].Func = ""
	if err := s.Validate(); !errors.Is(err, ErrFrameOrder) {
		t.Errorf("unnamed frame: got %v", err)
	}

	s = valid()
	s.Frames[0].Location = 0
	if err := s.Validate(); !errors.Is(err, ErrFrameOrder) {
		t.Errorf("zero location: got %v", err)
	}

	s = valid()
	s.Frames[0].Vars[0].Value = Value{}
	if err := s.Validate(); err == nil {
		t.Error("invalid var kind accepted")
	}

	// Deeply nested value exceeds maxValueDepth.
	v := IntValue(1)
	for i := 0; i < maxValueDepth+2; i++ {
		v = ListValue(v)
	}
	s = valid()
	s.Frames[0].Vars[0].Value = v
	if err := s.Validate(); err == nil {
		t.Error("over-deep value accepted")
	}
}

func TestStateEqual(t *testing.T) {
	mk := func() *State {
		s := New("m")
		s.Machine = "host1"
		s.PushFrame(Frame{Func: "main", Location: 1, Vars: []Var{{"n", IntValue(7)}}})
		s.Heap = []HeapObject{{Key: "buf", Value: ListValue(IntValue(1))}}
		s.Meta["k"] = "v"
		return s
	}
	a, b := mk(), mk()
	if !a.Equal(b) {
		t.Fatal("identical states not Equal")
	}
	b.Frames[0].Vars[0].Value = IntValue(8)
	if a.Equal(b) {
		t.Error("differing var value still Equal")
	}
	b = mk()
	b.Meta["k"] = "w"
	if a.Equal(b) {
		t.Error("differing meta still Equal")
	}
	b = mk()
	b.Machine = "host2"
	if a.Equal(b) {
		t.Error("differing machine still Equal")
	}
	if a.Equal(nil) {
		t.Error("state Equal(nil) should be false")
	}
	var nilState *State
	if !nilState.Equal(nil) {
		t.Error("nil.Equal(nil) should be true")
	}
}

func TestStateString(t *testing.T) {
	s := New("compute")
	s.Machine = "m2"
	s.PushFrame(Frame{Func: "main", Location: 1, Vars: []Var{{"n", IntValue(3)}}})
	s.Heap = []HeapObject{{Key: "cache", Value: StringValue("warm")}}
	s.Meta["origin"] = "m1"
	out := s.String()
	for _, want := range []string{"module=compute", "machine=m2", "frame[0] main @1 n=3", `heap cache="warm"`, "meta origin=m1"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q in:\n%s", want, out)
		}
	}
}

func TestFromGoScalars(t *testing.T) {
	tests := []struct {
		in   any
		want Value
	}{
		{true, BoolValue(true)},
		{int(5), IntValue(5)},
		{int8(-3), IntValue(-3)},
		{int64(1 << 40), IntValue(1 << 40)},
		{uint16(9), IntValue(9)},
		{3.5, FloatValue(3.5)},
		{float32(0.5), FloatValue(0.5)},
		{"hi", StringValue("hi")},
	}
	for _, tt := range tests {
		got, err := FromGo(tt.in)
		if err != nil {
			t.Errorf("FromGo(%v): %v", tt.in, err)
			continue
		}
		if !got.Equal(tt.want) {
			t.Errorf("FromGo(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestFromGoComposite(t *testing.T) {
	type Point struct {
		X int
		Y float64
	}
	got, err := FromGo([]Point{{1, 2.5}, {3, 4.5}})
	if err != nil {
		t.Fatal(err)
	}
	want := ListValue(
		StructValue("Point", Field{"X", IntValue(1)}, Field{"Y", FloatValue(2.5)}),
		StructValue("Point", Field{"X", IntValue(3)}, Field{"Y", FloatValue(4.5)}),
	)
	if !got.Equal(want) {
		t.Errorf("FromGo = %v, want %v", got, want)
	}

	// Pointers dereference.
	n := 42
	got, err = FromGo(&n)
	if err != nil || !got.Equal(IntValue(42)) {
		t.Errorf("FromGo(&int) = %v, %v", got, err)
	}
}

func TestFromGoRejects(t *testing.T) {
	if _, err := FromGo(nil); err == nil {
		t.Error("nil accepted")
	}
	var p *int
	if _, err := FromGo(p); err == nil {
		t.Error("nil pointer accepted")
	}
	if _, err := FromGo(make(chan int)); err == nil {
		t.Error("chan accepted")
	}
	if _, err := FromGo(uint64(math.MaxUint64)); err == nil {
		t.Error("overflowing uint accepted")
	}
	type hidden struct{ x int } //nolint:unused
	if _, err := FromGo(hidden{}); err == nil {
		t.Error("unexported field accepted")
	}
}

func TestToGoRoundTrip(t *testing.T) {
	type Point struct {
		X int
		Y float64
	}
	var (
		b  bool
		i  int
		i8 int8
		u  uint32
		f  float64
		s  string
		sl []int
		pt Point
		pp *int
	)
	check := func(v Value, ptr any) {
		t.Helper()
		if err := ToGo(v, ptr); err != nil {
			t.Fatalf("ToGo(%v): %v", v, err)
		}
	}
	check(BoolValue(true), &b)
	check(IntValue(-7), &i)
	check(IntValue(100), &i8)
	check(IntValue(9), &u)
	check(FloatValue(2.25), &f)
	check(StringValue("ok"), &s)
	check(ListValue(IntValue(1), IntValue(2)), &sl)
	check(StructValue("Point", Field{"X", IntValue(4)}, Field{"Y", FloatValue(0.5)}), &pt)
	check(IntValue(11), &pp)
	if !b || i != -7 || i8 != 100 || u != 9 || f != 2.25 || s != "ok" {
		t.Errorf("scalar restore wrong: %v %v %v %v %v %v", b, i, i8, u, f, s)
	}
	if !reflect.DeepEqual(sl, []int{1, 2}) {
		t.Errorf("slice restore = %v", sl)
	}
	if pt != (Point{4, 0.5}) {
		t.Errorf("struct restore = %+v", pt)
	}
	if pp == nil || *pp != 11 {
		t.Errorf("pointer restore = %v", pp)
	}
}

func TestToGoErrors(t *testing.T) {
	var i int
	if err := ToGo(IntValue(1), i); err == nil {
		t.Error("non-pointer target accepted")
	}
	if err := ToGo(IntValue(1), (*int)(nil)); err == nil {
		t.Error("nil pointer target accepted")
	}
	if err := ToGo(StringValue("x"), &i); err == nil {
		t.Error("kind mismatch accepted")
	}
	var i8 int8
	if err := ToGo(IntValue(1000), &i8); err == nil {
		t.Error("overflow accepted")
	}
	var u uint8
	if err := ToGo(IntValue(-1), &u); err == nil {
		t.Error("negative into uint accepted")
	}
	var ch chan int
	if err := ToGo(IntValue(1), &ch); err == nil {
		t.Error("chan target accepted")
	}
	type P struct{ X int }
	var p P
	if err := ToGo(StructValue("P", Field{"Nope", IntValue(1)}), &p); err == nil {
		t.Error("unknown field accepted")
	}
}

// TestFromToGoProperty: FromGo then ToGo must reproduce the original value
// for randomly generated subset values.
func TestFromToGoProperty(t *testing.T) {
	type Inner struct {
		A int64
		B string
	}
	type Outer struct {
		N  int
		F  float64
		S  string
		L  []Inner
		OK bool
	}
	f := func(o Outer) bool {
		if o.L == nil {
			o.L = []Inner{}
		}
		av, err := FromGo(o)
		if err != nil {
			return false
		}
		var back Outer
		if err := ToGo(av, &back); err != nil {
			return false
		}
		if back.L == nil {
			back.L = []Inner{}
		}
		return reflect.DeepEqual(o, back)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestHeapRegistry(t *testing.T) {
	r := NewHeapRegistry()
	if err := r.Register("", func() (Value, error) { return IntValue(1), nil }, nil); err == nil {
		t.Error("empty key accepted")
	}
	if err := r.Register("x", nil, nil); err == nil {
		t.Error("nil capture accepted")
	}

	cache := []int{1, 2, 3}
	var restored []int
	err := r.Register("cache",
		func() (Value, error) { return FromGo(cache) },
		func(v Value) error { return ToGo(v, &restored) },
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Register("drop", func() (Value, error) { return IntValue(9), nil }, nil); err != nil {
		t.Fatal(err)
	}
	if got := r.Keys(); !reflect.DeepEqual(got, []string{"cache", "drop"}) {
		t.Errorf("Keys() = %v", got)
	}

	objs, err := r.CaptureAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 || objs[0].Key != "cache" || objs[1].Key != "drop" {
		t.Fatalf("CaptureAll = %+v", objs)
	}
	if err := r.RestoreAll(objs); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored, []int{1, 2, 3}) {
		t.Errorf("restored = %v", restored)
	}

	// Restoring an object nobody registered for must fail loudly.
	if err := r.RestoreAll([]HeapObject{{Key: "ghost", Value: IntValue(1)}}); err == nil {
		t.Error("unregistered heap object restored silently")
	}

	r.Unregister("cache")
	if got := r.Keys(); !reflect.DeepEqual(got, []string{"drop"}) {
		t.Errorf("Keys after Unregister = %v", got)
	}
}

func TestHeapRegistryErrors(t *testing.T) {
	r := NewHeapRegistry()
	boom := errors.New("boom")
	if err := r.Register("bad", func() (Value, error) { return Value{}, boom }, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CaptureAll(); !errors.Is(err, boom) {
		t.Errorf("CaptureAll error = %v, want wrapped boom", err)
	}

	r2 := NewHeapRegistry()
	if err := r2.Register("x", func() (Value, error) { return IntValue(1), nil }, func(Value) error { return boom }); err != nil {
		t.Fatal(err)
	}
	if err := r2.RestoreAll([]HeapObject{{Key: "x", Value: IntValue(1)}}); !errors.Is(err, boom) {
		t.Errorf("RestoreAll error = %v, want wrapped boom", err)
	}
}
