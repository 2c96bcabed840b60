package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/iotest"

	"repro/internal/state"
)

// frame builds one frame around body the way a writer does.
func frame(t testing.TB, body []byte) []byte {
	t.Helper()
	b := append(BeginFrame(nil), body...)
	if err := EndFrame(b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFraming: two encoded states written as frames come back separated
// and intact, through a reader that hands the stream over a byte at a time,
// and the stream's end is io.EOF between frames.
func TestFraming(t *testing.T) {
	c := Portable{}
	in := sampleState()
	in2 := sampleState()
	in2.Module = "other"
	var stream []byte
	for _, s := range []*state.State{in, in2} {
		data, err := c.EncodeState(s)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, frame(t, data)...)
	}
	fr := NewFrameReader(iotest.OneByteReader(bytes.NewReader(stream)))
	for _, want := range []*state.State{in, in2} {
		body, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.DecodeState(body)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(out) {
			t.Errorf("framed round trip mismatch for module %s", want.Module)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Errorf("read past end = %v, want io.EOF", err)
	}
}

func TestFrameEmptyAndTruncated(t *testing.T) {
	fr := NewFrameReader(bytes.NewReader(frame(t, nil)))
	if body, err := fr.Next(); err != nil || len(body) != 0 {
		t.Errorf("empty frame = %x, %v", body, err)
	}
	whole := frame(t, []byte("payload"))
	for cut := 1; cut < len(whole); cut++ {
		fr := NewFrameReader(bytes.NewReader(whole[:cut]))
		if _, err := fr.Next(); err != io.ErrUnexpectedEOF {
			t.Errorf("stream cut at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestFrameLengthLimit: a prefix past MaxFrame is refused on the prefix
// alone, and a writer cannot produce one.
func TestFrameLengthLimit(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	fr := NewFrameReader(bytes.NewReader(hdr[:]))
	if _, err := fr.Next(); !errors.Is(err, ErrLimit) {
		t.Errorf("oversized prefix: %v, want ErrLimit", err)
	}
	if len(fr.buf) > minFrameBuf {
		t.Errorf("oversized prefix grew the buffer to %d bytes", len(fr.buf))
	}
}

// TestFrameBufferFollowsArrivedBytes: a prefix that promises a large frame
// and a stream that delivers little of it costs a buffer proportional to what
// arrived, and a large frame that does arrive is not kept once consumed.
func TestFrameBufferFollowsArrivedBytes(t *testing.T) {
	const promised = 32 << 20
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], promised)
	lying := append(hdr[:], make([]byte, 10<<10)...)
	fr := NewFrameReader(bytes.NewReader(lying))
	if _, err := fr.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("short stream: %v", err)
	}
	if len(fr.buf) > 2*len(lying) {
		t.Errorf("%d bytes arrived, buffer grew to %d", len(lying), len(fr.buf))
	}

	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	stream := append(frame(t, big), frame(t, []byte("next"))...)
	fr = NewFrameReader(iotest.HalfReader(bytes.NewReader(stream)))
	body, err := fr.Next()
	if err != nil || !bytes.Equal(body, big) {
		t.Fatalf("large frame: %d bytes, %v", len(body), err)
	}
	if len(fr.buf) > 2*len(stream) {
		t.Errorf("1 MiB frame grew the buffer to %d", len(fr.buf))
	}
	if body, err = fr.Next(); err != nil || string(body) != "next" {
		t.Fatalf("frame after the large one = %q, %v", body, err)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v", err)
	}
	if len(fr.buf) > maxIdleFrameBuf {
		t.Errorf("idle reader keeps a %d-byte buffer", len(fr.buf))
	}
}

// FuzzDecodeValue: every wire payload reaches Portable.DecodeValue. It must
// not panic, and whatever it accepts must survive re-encoding unchanged.
func FuzzDecodeValue(f *testing.F) {
	c := Portable{}
	for _, v := range []state.Value{
		state.BoolValue(true), state.IntValue(-300), state.FloatValue(1.5), state.StringValue("hi"),
		state.ListValue(state.IntValue(1), state.ListValue(state.StringValue("a"))),
		state.StructValue("Point", state.Field{Name: "X", Value: state.IntValue(3)}),
	} {
		data, err := c.EncodeValue(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := c.DecodeValue(data)
		if err != nil {
			return
		}
		again, err := c.EncodeValue(v)
		if err != nil {
			t.Fatalf("decoded value does not re-encode: %v", err)
		}
		// Compared as bytes: a NaN float is not Equal to itself.
		if v2, err := c.DecodeValue(again); err != nil {
			t.Fatalf("re-encoded value does not decode: %v", err)
		} else if twice, _ := c.EncodeValue(v2); !bytes.Equal(again, twice) {
			t.Fatalf("encoding is not a fixed point: % x then % x", again, twice)
		}
	})
}

// FuzzDecodeState: every divulged state reaches Portable.DecodeState.
func FuzzDecodeState(f *testing.F) {
	c := Portable{}
	data, err := c.EncodeState(sampleState())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := c.DecodeState(data)
		if err != nil {
			return
		}
		again, err := c.EncodeState(s)
		if err != nil {
			t.Fatalf("decoded state does not re-encode: %v", err)
		}
		if s2, err := c.DecodeState(again); err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		} else if twice, _ := c.EncodeState(s2); !bytes.Equal(again, twice) {
			t.Fatalf("encoding is not a fixed point: % x then % x", again, twice)
		}
	})
}
