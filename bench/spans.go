package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
)

// span is one timed call into a layer, recorded by the harness from the
// outside: the program under test is not instrumented by this package.
// Times are nanoseconds since the run started; Parent is the ID of the span
// that caused this one (0 for a root); Seq is the message sequence number or
// the Replace ordinal the span belongs to (-1 when neither applies).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Trial  int    `json:"trial"`
	Seq    int64  `json:"seq"`
}

// maxSpans bounds the in-memory span buffer (about 30 MB); spans past it are
// counted, not kept, and the count is written into the trace file.
const maxSpans = 400000

// msgSpanEvery is the per-message sampling stride: every call is timed in a
// traced trial, but only one message in msgSpanEvery keeps its spans.
const msgSpanEvery = 64

// tracer collects spans in memory and writes them out when the run ends. A
// nil *tracer is tracing switched off: every method is a no-op.
type tracer struct {
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func (t *tracer) add(name string, start, end int64, parent, trial int, seq int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start, End: end, Parent: parent, Trial: trial, Seq: seq})
	return id
}

// open records a span whose end is not known yet; close it with end.
func (t *tracer) open(name string, start int64, parent, trial int, seq int64) int {
	return t.add(name, start, 0, parent, trial, seq)
}

func (t *tracer) end(id int, end int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	t.mu.Lock()
	doc := struct {
		Workload string `json:"workload"`
		Dropped  int64  `json:"dropped_spans"`
		Spans    []span `json:"spans"`
	}{workload, t.dropped, t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
