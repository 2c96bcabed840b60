package codec

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/state"
)

// The expected encodings below are written out by hand from the grammar in
// portable.go's header comment, not produced by the encoder: the portable
// format is what modules on different machines agree on, so its bytes are
// pinned independently of the code that writes them.

func fromHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.Join(strings.Fields(s), ""))
	if err != nil {
		t.Fatalf("bad hex in test table: %v", err)
	}
	return b
}

func TestPortableValueBytes(t *testing.T) {
	cases := []struct {
		name string
		v    state.Value
		want string
	}{
		{"bool true", state.BoolValue(true), "01 01"},
		{"bool false", state.BoolValue(false), "01 00"},
		{"int 0", state.IntValue(0), "02 00"},
		{"int 1", state.IntValue(1), "02 02"},   // zigzag: 1 -> 2
		{"int -1", state.IntValue(-1), "02 01"}, // zigzag: -1 -> 1
		{"int -64", state.IntValue(-64), "02 7f"},
		{"int 64", state.IntValue(64), "02 80 01"},   // zigzag 128: two varint bytes
		{"int 300", state.IntValue(300), "02 d8 04"}, // zigzag 600 = 0b100_1011000
		{"float 1.5", state.FloatValue(1.5), "03 3f f8 00 00 00 00 00 00"},
		{"float -2", state.FloatValue(-2), "03 c0 00 00 00 00 00 00 00"},
		{"string empty", state.StringValue(""), "04 00"},
		{"string hi", state.StringValue("hi"), "04 02 68 69"},
		{"string utf8", state.StringValue("é"), "04 02 c3 a9"},
		{"list empty", state.ListValue(), "05 00"},
		{"list nested",
			state.ListValue(state.IntValue(1), state.ListValue(state.StringValue("a"), state.BoolValue(true))),
			"05 02  02 02  05 02  04 01 61  01 01"},
		{"struct",
			state.StructValue("Point",
				state.Field{Name: "X", Value: state.IntValue(3)},
				state.Field{Name: "Y", Value: state.FloatValue(0.5)}),
			"06  05 50 6f 69 6e 74  02  01 58 02 06  01 59 03 3f e0 00 00 00 00 00 00"},
	}
	c := Portable{}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			want := fromHex(t, tt.want)
			got, err := c.EncodeValue(tt.v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("encoded % x, want % x", got, want)
			}
			back, err := c.DecodeValue(want)
			if err != nil {
				t.Fatal(err)
			}
			if !back.Equal(tt.v) {
				t.Errorf("decoded %v, want %v", back, tt.v)
			}
		})
	}
}

// TestPortableValueBytesAtTheEdges: the values whose in-memory form shares
// one word — a float's bits, a bool's 0 or 1, the widest int — are the same
// bytes as ever, and come back bit for bit (a NaN keeps its payload, a zero
// its sign).
func TestPortableValueBytesAtTheEdges(t *testing.T) {
	c := Portable{}
	for _, tt := range []struct {
		name string
		v    state.Value
		want string
	}{
		{"float +0", state.FloatValue(0), "03 00 00 00 00 00 00 00 00"},
		{"float -0", state.FloatValue(math.Copysign(0, -1)), "03 80 00 00 00 00 00 00 00"},
		{"float NaN with a payload", state.FloatValue(math.Float64frombits(0x7ff8000000000123)), "03 7f f8 00 00 00 00 01 23"},
		{"float -Inf", state.FloatValue(math.Inf(-1)), "03 ff f0 00 00 00 00 00 00"},
		{"int min", state.IntValue(math.MinInt64), "02 ff ff ff ff ff ff ff ff ff 01"}, // zigzag: 2^64-1
		{"int max", state.IntValue(math.MaxInt64), "02 fe ff ff ff ff ff ff ff ff 01"}, // zigzag: 2^64-2
		{"bool spelled 7", state.Value{Kind: state.KindBool, Int: 7}, "01 01"},
	} {
		want := fromHex(t, tt.want)
		got, err := c.EncodeValue(tt.v)
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoded % x, want % x", tt.name, got, want)
		}
		back, err := c.DecodeValue(want)
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if again, _ := c.EncodeValue(back); !bytes.Equal(again, want) || !back.Equal(tt.v) {
			t.Errorf("%s: decoded %v (re-encodes to % x), want %v", tt.name, back, again, tt.v)
		}
	}
}

// TestDecodeValueIntoOverwritesWhole: the module runtime decodes every
// message into one cell, so nothing of the last message may show through
// the next, and a failed decode leaves the invalid zero value.
func TestDecodeValueIntoOverwritesWhole(t *testing.T) {
	c := Portable{}
	var v state.Value
	for _, next := range []state.Value{
		state.StructValue("P", state.Field{Name: "X", Value: state.StringValue("x")}),
		state.ListValue(state.IntValue(1), state.IntValue(2)),
		state.FloatValue(2.5),
		state.StringValue("s"),
		state.BoolValue(false),
	} {
		data, err := c.EncodeValue(next)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.DecodeValueInto(&v, data); err != nil {
			t.Fatal(err)
		}
		if fresh, _ := c.DecodeValue(data); !reflect.DeepEqual(v, fresh) || !v.Equal(next) {
			t.Errorf("decoded %+v over the previous message, %+v into a fresh value", v, fresh)
		}
	}
	v = state.ListValue(state.IntValue(1))
	if err := c.DecodeValueInto(&v, []byte{byte(state.KindList), 2, byte(state.KindInt), 2}); err == nil || v.Kind != state.KindInvalid || v.List != nil {
		t.Errorf("truncated list decoded into %+v, %v", v, err)
	}
}

func TestPortableStateBytes(t *testing.T) {
	one := state.New("m")
	one.Machine = "A"
	one.PushFrame(state.Frame{Func: "main", Location: 1, Vars: []state.Var{{Name: "x", Value: state.IntValue(5)}}})

	three := state.New("stage")
	three.Machine = "mB"
	three.PushFrame(state.Frame{Func: "main", Location: 1})
	three.PushFrame(state.Frame{Func: "f", Location: 2, Vars: []state.Var{
		{Name: "n", Value: state.IntValue(3)},
		{Name: "s", Value: state.StringValue("ab")},
	}})
	three.PushFrame(state.Frame{Func: "f", Location: 3, Vars: []state.Var{
		{Name: "ok", Value: state.BoolValue(true)},
	}})
	three.Heap = []state.HeapObject{{Key: "h", Value: state.ListValue(state.IntValue(-1))}}
	three.Meta["b"] = "2" // meta is written in key order: a, then b
	three.Meta["a"] = "1"

	cases := []struct {
		name string
		s    *state.State
		want string
	}{
		{"one frame", one, `
			4d 48 53 54  01                   magic "MHST", version 1
			01 6d  01 41                      module "m", machine "A"
			01                                one frame
			04 6d 61 69 6e  02  01            "main", location 1, one var
			01 78  02 0a                      "x" = int 5
			00  00                            no heap, no meta`},
		{"three frames", three, `
			4d 48 53 54  01
			05 73 74 61 67 65  02 6d 42       module "stage", machine "mB"
			03                                three frames
			04 6d 61 69 6e  02  00            "main", location 1, no vars
			01 66  04  02                     "f", location 2, two vars
			01 6e  02 06                      "n" = int 3
			01 73  04 02 61 62                "s" = "ab"
			01 66  06  01                     "f", location 3, one var
			02 6f 6b  01 01                   "ok" = true
			01  01 68  05 01 02 01            one heap object: "h" = [int -1]
			02  01 61 01 31  01 62 01 32      two meta: a=1, b=2`},
	}
	c := Portable{}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			want := fromHex(t, stripNotes(tt.want))
			got, err := c.EncodeState(tt.s)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("encoded\n% x, want\n% x", got, want)
			}
			back, err := c.DecodeState(want)
			if err != nil {
				t.Fatal(err)
			}
			if !back.Equal(tt.s) {
				t.Errorf("decoded\n%s\nwant\n%s", back, tt.s)
			}
		})
	}
}

// stripNotes drops the commentary to the right of each line of a state
// table: everything from the first run of three or more spaces.
func stripNotes(table string) string {
	var b strings.Builder
	for _, line := range strings.Split(table, "\n") {
		line = strings.TrimSpace(line)
		if i := strings.Index(line, "   "); i >= 0 {
			line = line[:i]
		}
		b.WriteString(line + " ")
	}
	return b.String()
}

// TestEncodeValueAllocatesOnlyThePayload pins the message codec's share of
// the per-message allocation budget: the returned payload, exactly sized
// (the queues and rings a message passes through retain it), and nothing
// else.
func TestEncodeValueAllocatesOnlyThePayload(t *testing.T) {
	c := Portable{}
	for _, v := range []state.Value{
		state.IntValue(1<<40 + 12345),
		state.ListValue(state.IntValue(3<<40+1), state.IntValue(123456)),
	} {
		if data, _ := c.EncodeValue(v); len(data) != cap(data) {
			t.Errorf("EncodeValue(%v): payload has %d bytes of slack", v, cap(data)-len(data))
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := c.EncodeValue(v); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("EncodeValue(%v) = %v allocs, want 1", v, allocs)
		}
	}
}
