package replay

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
)

// The spill file is a single gob stream: one spillHeader frame followed by
// one frame per Record, in global-sequence order (appends are serialized
// by the log's spill mutex). Gob's self-describing encoding gives the
// format the same forward/backward latitude as the TCP wire frames: new
// fields decode as zero values against old readers, absent fields are
// skipped — pinned by the golden-bytes tests next to the TCP ones.

// spillMagic identifies a record spill stream; spillVersion is bumped only
// for changes gob cannot absorb.
const (
	spillMagic   = "mh-record"
	spillVersion = 1
)

// spillHeader is the stream's first frame.
type spillHeader struct {
	Magic   string
	Version int
}

// SetSpill starts spilling every subsequent append to w as gob frames,
// writing the stream header immediately. Pass nil to stop spilling. The
// log does not close w.
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
	enc := gob.NewEncoder(w)
	if err := enc.Encode(spillHeader{Magic: spillMagic, Version: spillVersion}); err != nil {
		return fmt.Errorf("replay: spill header: %w", err)
	}
	l.spill, l.spillErr = enc, nil
	l.spilling.Store(true)
	return nil
}

// spillRecord writes one appended record to the spill stream, if one is
// (still) set. The cold half of QueueLog.Append: it runs only while
// spilling is on.
func (l *Log) spillRecord(r *Record) {
	l.spillMu.Lock()
	if l.spill != nil && l.spillErr == nil {
		l.spillErr = l.spill.Encode(r)
	}
	l.spillMu.Unlock()
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

// ReadLog decodes a spill stream back into records, in recorded order.
func ReadLog(r io.Reader) ([]Record, error) {
	dec := gob.NewDecoder(r)
	var hdr spillHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("replay: spill header: %w", err)
	}
	if hdr.Magic != spillMagic {
		return nil, fmt.Errorf("replay: not a record spill (magic %q)", hdr.Magic)
	}
	if hdr.Version > spillVersion {
		return nil, fmt.Errorf("replay: spill version %d newer than reader (%d)", hdr.Version, spillVersion)
	}
	var out []Record
	for {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return out, fmt.Errorf("replay: spill frame %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
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
