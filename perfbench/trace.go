package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// laneSpans bounds the spans one lane keeps in memory; later spans are
// timed the same way (so the tracing cost stays uniform) but not stored.
const laneSpans = 1 << 14

// span is one benchmark call into a layer. Times are nanoseconds since
// the tracer started; parent is the index of the enclosing span within
// its lane, -1 for a root; spans of one operation share op.
type span struct {
	Name   string `json:"name"`
	Lane   int    `json:"lane"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     uint64 `json:"op"`
}

// tracer records spans in memory for the traced run. Each goroutine
// that calls into a layer records into its own lane, so tracing adds no
// shared lock to the loops it observes. A nil *tracer (and the nil lane
// it hands out) is the untraced run: every method is a no-op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	lanes []*lane
}

type lane struct {
	t0      time.Time
	id      int
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// lane hands out a span buffer owned by one goroutine.
func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &lane{t0: t.t0, id: len(t.lanes), spans: make([]span, 0, 1024)}
	t.lanes = append(t.lanes, l)
	return l
}

// begin opens a span and returns its handle for end.
func (l *lane) begin(name string, parent int32, op uint64) int32 {
	if l == nil {
		return -1
	}
	now := int64(time.Since(l.t0))
	if len(l.spans) >= laneSpans {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Lane: l.id, Start: now, End: -1, Parent: parent, Op: op})
	return int32(len(l.spans) - 1)
}

// end closes a span opened by begin.
func (l *lane) end(id int32) {
	if l == nil {
		return
	}
	now := int64(time.Since(l.t0))
	if id >= 0 {
		l.spans[id].End = now
	}
}

// write stores the spans as JSON lines after a header line. It runs
// once every lane's goroutine has finished.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	var kept, dropped int64
	for _, l := range t.lanes {
		kept += int64(len(l.spans))
		dropped += l.dropped
	}
	// Encode errors are sticky in the bufio.Writer and surface at Flush.
	_ = enc.Encode(map[string]int64{"lanes": int64(len(t.lanes)), "spans": kept, "dropped": dropped})
	for _, l := range t.lanes {
		for i := range l.spans {
			_ = enc.Encode(&l.spans[i])
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
