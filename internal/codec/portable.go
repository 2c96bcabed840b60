package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/state"
	"repro/internal/telemetry/trace"
)

// Portable is the hand-written self-describing binary codec. The format:
//
//	state   := magic(4) version(uvarint) module(str) machine(str)
//	           nframes(uvarint) frame* nheap(uvarint) heap* nmeta(uvarint) meta*
//	frame   := func(str) location(varint) nvars(uvarint) var*
//	var     := name(str) value
//	heap    := key(str) value
//	meta    := key(str) val(str)
//	value   := kind(1) payload
//	payload := bool: 1 byte | int: zigzag varint | float: 8-byte BE IEEE bits
//	           | string: str | list: n(uvarint) value*
//	           | struct: type(str) n(uvarint) (name(str) value)*
//	str     := len(uvarint) bytes
//
// All multi-byte quantities are either varints or big-endian, so the stream
// is identical on every architecture — the "abstract format" the paper
// requires.
type Portable struct{}

var _ Codec = Portable{}

var portableMagic = [4]byte{'M', 'H', 'S', 'T'}

// Name implements Codec.
func (Portable) Name() string { return "portable" }

// EncodeState implements Codec.
func (Portable) EncodeState(s *state.State) ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("codec: nil state")
	}
	var err error
	b := append(make([]byte, 0, 256), portableMagic[:]...)
	b = binary.AppendUvarint(b, uint64(s.Version))
	b = AppendStr(b, s.Module)
	b = AppendStr(b, s.Machine)
	b = binary.AppendUvarint(b, uint64(len(s.Frames)))
	for _, f := range s.Frames {
		b = AppendStr(b, f.Func)
		b = binary.AppendVarint(b, int64(f.Location))
		b = binary.AppendUvarint(b, uint64(len(f.Vars)))
		for i := range f.Vars {
			if b, err = appendValue(AppendStr(b, f.Vars[i].Name), &f.Vars[i].Value, 0); err != nil {
				return nil, err
			}
		}
	}
	b = binary.AppendUvarint(b, uint64(len(s.Heap)))
	for i := range s.Heap {
		if b, err = appendValue(AppendStr(b, s.Heap[i].Key), &s.Heap[i].Value, 0); err != nil {
			return nil, err
		}
	}
	b = binary.AppendUvarint(b, uint64(len(s.Meta)))
	for _, k := range sortedKeys(s.Meta) {
		b = AppendStr(AppendStr(b, k), s.Meta[k])
	}
	return b, nil
}

// DecodeState implements Codec.
func (Portable) DecodeState(data []byte) (*state.State, error) {
	if len(data) < len(portableMagic) || !bytes.Equal(data[:4], portableMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	r := NewReader(data[4:])
	s := &state.State{Meta: map[string]string{}}
	ver, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	s.Version = int(ver)
	if s.Module, err = r.Str(); err != nil {
		return nil, err
	}
	if s.Machine, err = r.Str(); err != nil {
		return nil, err
	}
	nframes, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if nframes > maxFrames {
		return nil, fmt.Errorf("%w: %d frames", ErrLimit, nframes)
	}
	s.Frames = make([]state.Frame, nframes)
	for i := range s.Frames {
		f := &s.Frames[i]
		if f.Func, err = r.Str(); err != nil {
			return nil, err
		}
		loc, err := r.Varint()
		if err != nil {
			return nil, err
		}
		f.Location = int(loc)
		nvars, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		if nvars > maxVars {
			return nil, fmt.Errorf("%w: %d vars", ErrLimit, nvars)
		}
		f.Vars = make([]state.Var, nvars)
		for j := range f.Vars {
			if f.Vars[j].Name, err = r.Str(); err != nil {
				return nil, err
			}
			if err = r.value(&f.Vars[j].Value, 0); err != nil {
				return nil, err
			}
		}
	}
	nheap, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if nheap > maxVars {
		return nil, fmt.Errorf("%w: %d heap objects", ErrLimit, nheap)
	}
	if nheap > 0 {
		s.Heap = make([]state.HeapObject, nheap)
		for i := range s.Heap {
			if s.Heap[i].Key, err = r.Str(); err != nil {
				return nil, err
			}
			if err = r.value(&s.Heap[i].Value, 0); err != nil {
				return nil, err
			}
		}
	}
	nmeta, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if nmeta > maxVars {
		return nil, fmt.Errorf("%w: %d meta entries", ErrLimit, nmeta)
	}
	for i := uint64(0); i < nmeta; i++ {
		k, err := r.Str()
		if err != nil {
			return nil, err
		}
		v, err := r.Str()
		if err != nil {
			return nil, err
		}
		s.Meta[k] = v
	}
	if r.Rem() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Rem())
	}
	return s, nil
}

// EncodeValue implements Codec.
func (p Portable) EncodeValue(v state.Value) ([]byte, error) { return p.EncodeValueAt(&v) }

// EncodeValueAt is EncodeValue of the value at v. The encoding is built in
// a scratch buffer on the stack and leaves as one exact-size allocation: the
// payload of a bus message is retained by the queues and rings it passes
// through.
func (Portable) EncodeValueAt(v *state.Value) ([]byte, error) {
	var scratch [64]byte
	b, err := appendValue(scratch[:0], v, 0)
	if err != nil {
		return nil, err
	}
	return append(make([]byte, 0, len(b)), b...), nil
}

// DecodeValue implements Codec.
func (p Portable) DecodeValue(data []byte) (v state.Value, err error) {
	err = p.DecodeValueInto(&v, data)
	return v, err
}

// DecodeValueInto is DecodeValue into the value at v, which it overwrites
// whole (with the invalid zero value when it fails).
func (Portable) DecodeValueInto(v *state.Value, data []byte) error {
	r := Reader{data: data}
	err := r.value(v, 0)
	if err == nil && r.Rem() != 0 {
		err = fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Rem())
	}
	if err != nil {
		*v = state.Value{}
	}
	return err
}

// ---- low-level writer ----

// AppendStr appends the grammar's str: a uvarint length and the bytes. The
// bus wire frames (internal/bus/tcp.go) are built from the same primitive.
func AppendStr[T ~string | ~[]byte](b []byte, s T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendTrace appends a trace context the way the wire frames and the
// record spill both carry one: a zero byte for the zero context (an untraced
// message costs one byte), else 01 and the six fields.
func AppendTrace(b []byte, t *trace.Context) []byte {
	if *t == (trace.Context{}) {
		return append(b, 0)
	}
	b = append(b, 1)
	for _, u := range [...]uint64{t.TraceID, t.SpanID, t.Parent, uint64(t.Hops), uint64(t.Flags)} {
		b = binary.AppendUvarint(b, u)
	}
	return binary.AppendVarint(b, t.SentNs)
}

// appendValue walks the value by address: lists and struct fields are
// encoded where they lie.
func appendValue(b []byte, v *state.Value, depth int) ([]byte, error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("codec: value nested deeper than %d", maxDepth)
	}
	var err error
	b = append(b, byte(v.Kind))
	switch v.Kind {
	case state.KindBool:
		if v.Bool() {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case state.KindInt:
		b = binary.AppendVarint(b, v.Int)
	case state.KindFloat:
		b = binary.BigEndian.AppendUint64(b, uint64(v.Int)) // already the IEEE bits
	case state.KindString:
		b = AppendStr(b, v.Str)
	case state.KindList:
		b = binary.AppendUvarint(b, uint64(len(v.List)))
		for i := range v.List {
			if b, err = appendValue(b, &v.List[i], depth+1); err != nil {
				return nil, err
			}
		}
	case state.KindStruct:
		if len(v.List)%2 != 0 {
			return nil, fmt.Errorf("codec: struct %s has a field without a value", v.Type())
		}
		b = binary.AppendUvarint(AppendStr(b, v.Type()), uint64(v.NumFields()))
		for i := 0; i < v.NumFields(); i++ {
			name, fv := v.Field(i)
			if b, err = appendValue(AppendStr(b, name), fv, depth+1); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("codec: cannot encode value of kind %v", v.Kind)
	}
	return b, nil
}

// ---- low-level reader ----

// Reader walks an encoded buffer with the format's bounds checks: every
// method fails with ErrTruncated, ErrCorrupt or ErrLimit instead of reading
// past the end. The value and state decoders and the bus's frame decoders
// all read through it, so there is one set of checks.
type Reader struct {
	data []byte
	off  int
}

// NewReader returns a Reader over data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Rem returns the number of unread bytes.
func (r *Reader) Rem() int { return len(r.data) - r.off }

// Byte reads one byte.
func (r *Reader) Byte() (byte, error) {
	if r.off >= len(r.data) {
		return 0, ErrTruncated
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

func (r *Reader) take(n int) ([]byte, error) {
	if n < 0 || r.Rem() < n {
		return nil, ErrTruncated
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	u, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		if n == 0 {
			return 0, ErrTruncated
		}
		return 0, fmt.Errorf("%w: uvarint overflow", ErrCorrupt)
	}
	r.off += n
	return u, nil
}

// Varint reads a zig-zag varint.
func (r *Reader) Varint() (int64, error) {
	i, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		if n == 0 {
			return 0, ErrTruncated
		}
		return 0, fmt.Errorf("%w: varint overflow", ErrCorrupt)
	}
	r.off += n
	return i, nil
}

// Bytes reads a str as a view into the buffer: valid only as long as the
// buffer is, so a caller that retains it copies it. A view allocates
// nothing, so the buffer's own length is the only bound it needs.
func (r *Reader) Bytes() ([]byte, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	return r.take(int(n)) // a length past the buffer, or past int, is truncation
}

// Str reads a str into a string of its own.
func (r *Reader) Str() (string, error) {
	n, err := r.Uvarint()
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("%w: string of %d bytes", ErrLimit, n)
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

var errTrace = fmt.Errorf("%w: malformed trace context", ErrCorrupt)

// Trace reads what AppendTrace wrote into t, which the caller has zeroed.
func (r *Reader) Trace(t *trace.Context) error {
	tag, err := r.Byte()
	if err != nil || tag == 0 {
		return err
	}
	var hops, flags uint64
	for _, u := range [...]*uint64{&t.TraceID, &t.SpanID, &t.Parent, &hops, &flags} {
		if *u, err = r.Uvarint(); err != nil {
			return err
		}
	}
	if tag != 1 || hops > 1<<32-1 || flags > 1<<32-1 {
		return errTrace
	}
	t.Hops, t.Flags = uint32(hops), uint32(flags)
	t.SentNs, err = r.Varint()
	return err
}

// value decodes one value into v, overwriting it whole; what v holds after
// an error is unspecified.
func (r *Reader) value(v *state.Value, depth int) error {
	if depth > maxDepth {
		return fmt.Errorf("%w: value nested deeper than %d", ErrLimit, maxDepth)
	}
	kb, err := r.Byte()
	if err != nil {
		return err
	}
	*v = state.Value{Kind: state.Kind(kb)}
	switch v.Kind {
	case state.KindBool:
		b, err := r.Byte()
		if err != nil {
			return err
		}
		if b > 1 {
			return fmt.Errorf("%w: bool byte %d", ErrCorrupt, b)
		}
		v.Int = int64(b)
	case state.KindInt:
		v.Int, err = r.Varint()
	case state.KindFloat:
		b, err := r.take(8)
		if err != nil {
			return err
		}
		v.Int = int64(binary.BigEndian.Uint64(b))
	case state.KindString:
		v.Str, err = r.Str()
	case state.KindList:
		n, err := r.Uvarint()
		if err != nil {
			return err
		}
		if n > maxListLen {
			return fmt.Errorf("%w: list of %d", ErrLimit, n)
		}
		if n > 0 {
			v.List = make([]state.Value, n)
			for i := range v.List {
				if err = r.value(&v.List[i], depth+1); err != nil {
					return err
				}
			}
		}
	case state.KindStruct:
		typeName, err := r.Str()
		if err != nil {
			return err
		}
		n, err := r.Uvarint()
		if err != nil {
			return err
		}
		if n > maxVars {
			return fmt.Errorf("%w: struct of %d fields", ErrLimit, n)
		}
		*v = state.NewStruct(typeName, int(n))
		for i := uint64(0); i < n; i++ {
			name, err := r.Str()
			if err != nil {
				return err
			}
			if err = r.value(v.AddField(name), depth+1); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("%w: unknown kind byte %d", ErrCorrupt, kb)
	}
	return err
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// insertion sort: metadata maps are tiny and this avoids an import.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
