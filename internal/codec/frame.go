package codec

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Length-prefixed framing, the one framing of the repository: a stream is a
// sequence of
//
//	frame := len(4 bytes, big-endian) body
//
// with len counting the body alone. The bus's TCP attachment (internal/bus/
// tcp.go) writes its frames with BeginFrame/EndFrame and reads them with a
// FrameReader; what a body holds is the caller's grammar.

// MaxFrame is the largest body a frame may carry: room for the largest
// encoded state (strings are capped at maxStringLen) with headroom for the
// frames around it. A reader refuses a longer prefix before allocating
// anything, a writer refuses to produce one.
const MaxFrame = maxStringLen * 4

const (
	frameHeader = 4
	// minFrameBuf is a FrameReader's buffer while frames are small; a
	// larger frame grows it and maxIdleFrameBuf is the most it keeps once
	// that frame has been consumed.
	minFrameBuf     = 4 << 10
	maxIdleFrameBuf = 64 << 10
)

// BeginFrame starts a frame in buf, reusing its storage: the length prefix's
// placeholder, behind which the body follows by plain appends until EndFrame
// completes the frame.
func BeginFrame(buf []byte) []byte {
	return append(buf[:0], 0, 0, 0, 0)
}

// EndFrame fills in the length prefix of the frame that b holds.
func EndFrame(b []byte) error {
	n := len(b) - frameHeader
	if n > MaxFrame {
		return fmt.Errorf("%w: frame of %d bytes", ErrLimit, n)
	}
	binary.BigEndian.PutUint32(b, uint32(n))
	return nil
}

// FrameReader reads frames off a stream through one reusable buffer. It
// trusts nothing the stream says: a length prefix past MaxFrame fails with
// ErrLimit before a byte is allocated for it, and the buffer grows only as
// the bytes of a large frame actually arrive (geometrically, so a frame of n
// bytes costs at most 2n of buffer), never on the prefix's word alone.
type FrameReader struct {
	r        io.Reader
	buf      []byte
	off, end int // buf[off:end] has been read from r and not yet returned
}

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Next returns the body of the next frame. The slice aliases the reader's
// buffer and is valid until the following call. A stream that ends between
// frames fails with io.EOF, one that ends inside a frame with
// io.ErrUnexpectedEOF.
func (fr *FrameReader) Next() ([]byte, error) {
	if err := fr.fill(frameHeader); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(fr.buf[fr.off:]))
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: frame of %d bytes", ErrLimit, n)
	}
	if err := fr.fill(frameHeader + n); err != nil {
		return nil, err
	}
	body := fr.buf[fr.off+frameHeader : fr.off+frameHeader+n]
	fr.off += frameHeader + n
	return body, nil
}

// fill blocks until buf[off:end] holds at least need bytes.
func (fr *FrameReader) fill(need int) error {
	if fr.off == fr.end {
		fr.off, fr.end = 0, 0
		if len(fr.buf) > maxIdleFrameBuf {
			fr.buf = nil // a large frame has come and gone
		}
	}
	for fr.end-fr.off < need {
		if fr.end == len(fr.buf) || (fr.off > 0 && len(fr.buf)-fr.off < need) {
			fr.makeRoom(need)
		}
		n, err := fr.r.Read(fr.buf[fr.end:])
		fr.end += n
		if err != nil && fr.end-fr.off < need {
			if err == io.EOF && fr.end > fr.off {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// makeRoom gives the buffer free space behind the unread bytes, moved to
// its front: in place when need fits or more of it can still arrive,
// otherwise in a new buffer of at most twice what has arrived.
func (fr *FrameReader) makeRoom(need int) {
	have := fr.end - fr.off
	if size := max(minFrameBuf, min(need, 2*have)); size > len(fr.buf) {
		nb := make([]byte, size)
		copy(nb, fr.buf[fr.off:fr.end])
		fr.buf = nb
	} else {
		copy(fr.buf, fr.buf[fr.off:fr.end])
	}
	fr.off, fr.end = 0, have
}
