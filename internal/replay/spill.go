package replay

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/codec"
)

// The spill file is a sequence of the repository's length-prefixed frames
// (internal/codec: a 4-byte big-endian body length, at most codec.MaxFrame),
// their bodies written with the portable format's primitives:
//
//	header := magic(str) version(uvarint)
//	record := seq(uvarint) qseq(uvarint) epoch(uvarint) from(str) to(str)
//	          trace data(str)
//
// one header, then one frame per Record in global-sequence order (appends
// are serialized by the log's spill mutex). trace is the wire frames'
// encoding of a trace context (codec.AppendTrace). A reader trusts nothing
// the file says: ReadLog reads through codec.FrameReader and codec.Reader,
// and FuzzReadLog feeds it noise.

// spillMagic identifies a record spill stream; spillVersion is bumped when
// the record grammar changes.
const (
	spillMagic   = "mh-record"
	spillVersion = 2
)

// SetSpill starts spilling every subsequent append to w, one frame per
// record, writing the stream header immediately. Pass nil to stop spilling.
// The log does not close w.
func (l *Log) SetSpill(w io.Writer) error {
	if l == nil {
		return errors.New("replay: SetSpill on nil log")
	}
	l.spillMu.Lock()
	defer l.spillMu.Unlock()
	if w == nil {
		l.spill = nil
		l.spilling.Store(false)
		return nil
	}
	l.spillBuf = binary.AppendUvarint(codec.AppendStr(codec.BeginFrame(l.spillBuf), spillMagic), spillVersion)
	if err := l.writeFrame(w); err != nil {
		return fmt.Errorf("replay: spill header: %w", err)
	}
	l.spill, l.spillErr = w, nil
	l.spilling.Store(true)
	return nil
}

// writeFrame completes the frame in spillBuf and writes it to w. Caller
// holds spillMu.
func (l *Log) writeFrame(w io.Writer) error {
	if err := codec.EndFrame(l.spillBuf); err != nil {
		return err
	}
	_, err := w.Write(l.spillBuf)
	return err
}

// spillRecord writes one appended record to the spill stream, if one is
// (still) set. The cold half of QueueLog.Append: it runs only while
// spilling is on.
func (l *Log) spillRecord(r *Record) {
	l.spillMu.Lock()
	defer l.spillMu.Unlock()
	if l.spill == nil || l.spillErr != nil {
		return
	}
	b := codec.BeginFrame(l.spillBuf)
	for _, u := range [...]uint64{r.Seq, r.QSeq, r.Epoch} {
		b = binary.AppendUvarint(b, u)
	}
	b = codec.AppendStr(codec.AppendStr(b, r.From), r.To)
	l.spillBuf = codec.AppendStr(codec.AppendTrace(b, &r.Trace), r.Data)
	l.spillErr = l.writeFrame(l.spill)
}

// SpillErr returns the sticky first spill-write error, if any.
func (l *Log) SpillErr() error {
	if l == nil {
		return nil
	}
	l.spillMu.Lock()
	defer l.spillMu.Unlock()
	return l.spillErr
}

// ReadLog decodes a spill stream back into records, in recorded order. On a
// stream that breaks off or turns malformed it returns the records before
// the break along with the error.
func ReadLog(r io.Reader) ([]Record, error) {
	fr := codec.NewFrameReader(r)
	body, err := fr.Next()
	if err != nil {
		return nil, fmt.Errorf("replay: spill header: %w", err)
	}
	hdr := codec.NewReader(body)
	magic, _ := hdr.Bytes()
	if string(magic) != spillMagic {
		return nil, fmt.Errorf("replay: not a record spill (magic %q)", magic)
	}
	if version, err := hdr.Uvarint(); err != nil || version != spillVersion {
		return nil, fmt.Errorf("replay: spill version %d, this reader reads %d", version, spillVersion)
	}
	var out []Record
	for {
		body, err := fr.Next()
		if err == io.EOF {
			return out, nil
		}
		var rec Record
		if err == nil {
			err = readRecord(codec.NewReader(body), &rec)
		}
		if err != nil {
			return out, fmt.Errorf("replay: spill frame %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
}

// readRecord decodes one record frame's body.
func readRecord(r *codec.Reader, rec *Record) (err error) {
	for _, u := range [...]*uint64{&rec.Seq, &rec.QSeq, &rec.Epoch} {
		if *u, err = r.Uvarint(); err != nil {
			return err
		}
	}
	for _, s := range [...]*string{&rec.From, &rec.To} {
		if *s, err = r.Str(); err != nil {
			return err
		}
	}
	if err = r.Trace(&rec.Trace); err != nil {
		return err
	}
	data, err := r.Bytes()
	if err == nil && r.Rem() != 0 {
		err = fmt.Errorf("%w: %d bytes behind the record", codec.ErrCorrupt, r.Rem())
	}
	rec.Data = append([]byte(nil), data...) // the frame reader's buffer is reused
	return err
}

// ReadLogFile decodes a spill file.
func ReadLogFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadLog(f)
}
