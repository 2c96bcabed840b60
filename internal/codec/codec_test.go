package codec

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/state"
)

func sampleState() *state.State {
	s := state.New("compute")
	s.Machine = "machineA"
	s.Frames = []state.Frame{
		{Func: "main", Location: 1, Vars: []state.Var{
			{Name: "n", Value: state.IntValue(5)},
			{Name: "response", Value: state.FloatValue(0)},
		}},
		{Func: "compute", Location: 3, Vars: []state.Var{
			{Name: "num", Value: state.IntValue(5)},
			{Name: "n", Value: state.IntValue(3)},
			{Name: "rp", Value: state.FloatValue(12.75)},
		}},
		{Func: "compute", Location: 4, Vars: []state.Var{
			{Name: "num", Value: state.IntValue(5)},
			{Name: "n", Value: state.IntValue(2)},
			{Name: "rp", Value: state.FloatValue(12.75)},
			{Name: "temper", Value: state.IntValue(68)},
		}},
	}
	s.Heap = []state.HeapObject{
		{Key: "window", Value: state.ListValue(state.IntValue(67), state.IntValue(70))},
	}
	s.Meta["origin"] = "machineA"
	s.Meta["reason"] = "move"
	return s
}

func allCodecs() []Codec { return []Codec{Portable{}} }

func TestDefaultIsPortable(t *testing.T) {
	if Default().Name() != "portable" {
		t.Errorf("Default() = %s", Default().Name())
	}
}

func TestStateRoundTrip(t *testing.T) {
	for _, c := range allCodecs() {
		t.Run(c.Name(), func(t *testing.T) {
			in := sampleState()
			data, err := c.EncodeState(in)
			if err != nil {
				t.Fatal(err)
			}
			out, err := c.DecodeState(data)
			if err != nil {
				t.Fatal(err)
			}
			if !in.Equal(out) {
				t.Errorf("round trip mismatch:\nin:  %s\nout: %s", in, out)
			}
		})
	}
}

func TestEncodeNilState(t *testing.T) {
	for _, c := range allCodecs() {
		if _, err := c.EncodeState(nil); err == nil {
			t.Errorf("%s: nil state accepted", c.Name())
		}
	}
}

func TestValueRoundTripAllKinds(t *testing.T) {
	vals := []state.Value{
		state.BoolValue(true),
		state.BoolValue(false),
		state.IntValue(0),
		state.IntValue(-1),
		state.IntValue(math.MaxInt64),
		state.IntValue(math.MinInt64),
		state.FloatValue(0),
		state.FloatValue(math.Inf(1)),
		state.FloatValue(math.Inf(-1)),
		state.FloatValue(math.NaN()),
		state.FloatValue(-0.0),
		state.StringValue(""),
		state.StringValue("héllo\x00world"),
		state.ListValue(),
		state.ListValue(state.IntValue(1), state.StringValue("x")),
		state.StructValue("Pt", state.Field{Name: "X", Value: state.IntValue(1)}),
		state.StructValue("Empty"),
		state.ListValue(state.ListValue(state.ListValue(state.BoolValue(true)))),
	}
	for _, c := range allCodecs() {
		for _, v := range vals {
			data, err := c.EncodeValue(v)
			if err != nil {
				t.Errorf("%s: encode %v: %v", c.Name(), v, err)
				continue
			}
			back, err := c.DecodeValue(data)
			if err != nil {
				t.Errorf("%s: decode %v: %v", c.Name(), v, err)
				continue
			}
			if !v.Equal(back) {
				t.Errorf("%s: %v round-tripped to %v", c.Name(), v, back)
			}
		}
	}
}

func TestEncodeInvalidValue(t *testing.T) {
	if _, err := (Portable{}).EncodeValue(state.Value{}); err == nil {
		t.Error("invalid kind accepted")
	}
	deep := state.IntValue(1)
	for i := 0; i < maxDepth+2; i++ {
		deep = state.ListValue(deep)
	}
	if _, err := (Portable{}).EncodeValue(deep); err == nil {
		t.Error("over-deep value accepted")
	}
}

func TestPortableDecodeErrors(t *testing.T) {
	c := Portable{}
	good, err := c.EncodeState(sampleState())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte("XXXX"), good[4:]...)
		if _, err := c.DecodeState(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("truncations", func(t *testing.T) {
		// Every strict prefix must fail cleanly, never panic.
		for i := 4; i < len(good); i++ {
			if _, err := c.DecodeState(good[:i]); err == nil {
				t.Fatalf("prefix of %d bytes decoded successfully", i)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		bad := append(append([]byte{}, good...), 0x01)
		if _, err := c.DecodeState(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("unknown kind byte", func(t *testing.T) {
		if _, err := c.DecodeValue([]byte{0xEE}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("bad bool byte", func(t *testing.T) {
		if _, err := c.DecodeValue([]byte{byte(state.KindBool), 7}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("huge string length", func(t *testing.T) {
		var buf bytes.Buffer
		buf.WriteByte(byte(state.KindString))
		buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}) // uvarint ≫ maxStringLen
		if _, err := c.DecodeValue(buf.Bytes()); !errors.Is(err, ErrLimit) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("huge list length", func(t *testing.T) {
		var buf bytes.Buffer
		buf.WriteByte(byte(state.KindList))
		buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0x7f})
		if _, err := c.DecodeValue(buf.Bytes()); !errors.Is(err, ErrLimit) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("value trailing garbage", func(t *testing.T) {
		data, err := c.EncodeValue(state.IntValue(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.DecodeValue(append(data, 0)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v", err)
		}
	})
}

func TestPortableDeterministic(t *testing.T) {
	// Two encodings of the same state must be byte-identical (metadata maps
	// are sorted), so state can be hashed/compared on the wire.
	c := Portable{}
	a, err := c.EncodeState(sampleState())
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.EncodeState(sampleState())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("portable encoding is not deterministic")
	}
}

func TestValidateFormat(t *testing.T) {
	vals := []state.Value{state.IntValue(1), state.IntValue(2), state.FloatValue(3)}
	if err := ValidateFormat("iiF", vals); err != nil {
		t.Errorf("iiF rejected: %v", err)
	}
	// 'l' is the paper's long; also accepted for ints.
	if err := ValidateFormat("llF", vals); err != nil {
		t.Errorf("llF rejected: %v", err)
	}
	if err := ValidateFormat("ii", vals); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := ValidateFormat("iiX", vals); err == nil {
		t.Error("unknown specifier accepted")
	}
	if err := ValidateFormat("iFi", vals); err == nil {
		t.Error("kind mismatch accepted")
	}
}

func TestFormatFor(t *testing.T) {
	f, err := FormatFor([]state.Value{
		state.IntValue(1), state.FloatValue(2), state.StringValue("x"),
		state.BoolValue(true), state.ListValue(), state.StructValue("T"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if f != "iFsbLS" {
		t.Errorf("FormatFor = %q", f)
	}
	if _, err := FormatFor([]state.Value{{}}); err == nil {
		t.Error("invalid kind accepted")
	}
}

// randomValue builds a random abstract value of bounded depth for the
// property tests.
func randomValue(r *rand.Rand, depth int) state.Value {
	k := r.Intn(6)
	if depth <= 0 {
		k = r.Intn(4) // scalars only at the leaves
	}
	switch k {
	case 0:
		return state.BoolValue(r.Intn(2) == 0)
	case 1:
		return state.IntValue(int64(r.Uint64()))
	case 2:
		return state.FloatValue(math.Float64frombits(r.Uint64()))
	case 3:
		b := make([]byte, r.Intn(20))
		r.Read(b)
		return state.StringValue(string(b))
	case 4:
		n := r.Intn(4)
		elems := make([]state.Value, n)
		for i := range elems {
			elems[i] = randomValue(r, depth-1)
		}
		return state.Value{Kind: state.KindList, List: elems}
	default:
		n := r.Intn(3)
		fields := make([]state.Field, n)
		for i := range fields {
			fields[i] = state.Field{Name: string(rune('A' + i)), Value: randomValue(r, depth-1)}
		}
		return state.StructValue("T", fields...)
	}
}

// TestValueRoundTripProperty: for arbitrary abstract values, encode/decode
// must be the identity.
func TestValueRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		v := randomValue(r, 3)
		for _, c := range allCodecs() {
			data, err := c.EncodeValue(v)
			if err != nil {
				t.Fatalf("%s encode: %v (value %v)", c.Name(), err, v)
			}
			back, err := c.DecodeValue(data)
			if err != nil {
				t.Fatalf("%s decode: %v (value %v)", c.Name(), err, v)
			}
			if !v.Equal(back) {
				t.Fatalf("%s: %v != %v", c.Name(), v, back)
			}
		}
	}
}

// TestPortableFuzzSafety: decoding random garbage must never panic and must
// return an error or a structurally valid value.
func TestPortableFuzzSafety(t *testing.T) {
	c := Portable{}
	f := func(data []byte) bool {
		v, err := c.DecodeValue(data)
		if err != nil {
			return true
		}
		// Re-encoding a successfully decoded value must succeed.
		_, err = c.EncodeValue(v)
		return err == nil
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	g := func(data []byte) bool {
		s, err := c.DecodeState(data)
		if err != nil {
			return true
		}
		_, err = c.EncodeState(s)
		return err == nil
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Error(err)
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]string{"z": "1", "a": "2", "m": "3"}
	if got := sortedKeys(m); !reflect.DeepEqual(got, []string{"a", "m", "z"}) {
		t.Errorf("sortedKeys = %v", got)
	}
	if got := sortedKeys(nil); len(got) != 0 {
		t.Errorf("sortedKeys(nil) = %v", got)
	}
}
