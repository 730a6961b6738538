package obs

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"lrseluge/internal/ring"
)

// FlightRecorder keeps a bounded ring of recent record lines (typically
// trace-event JSONL) plus a small key/value state board, and renders both as
// a post-mortem dump when a run panics or times out.
//
// Unlike the phase timers, the recorder is mutex-guarded: the harness dumps
// it from its supervisor goroutine while a timed-out job's abandoned
// goroutine may still be appending lines.
type FlightRecorder struct {
	mu    sync.Mutex
	lines ring.Buffer[[]byte]
	state map[string]string
	path  string
}

// NewFlightRecorder returns a recorder retaining the most recent cap lines
// (minimum 1).
func NewFlightRecorder(cap int) *FlightRecorder {
	return &FlightRecorder{lines: ring.New[[]byte](cap), state: make(map[string]string)}
}

// RecordLine appends one record, evicting the oldest when full. The line is
// copied, so callers may reuse their buffer. Safe for concurrent use.
func (f *FlightRecorder) RecordLine(line []byte) {
	if f == nil {
		return
	}
	cp := make([]byte, len(line))
	copy(cp, line)
	f.mu.Lock()
	f.lines.Push(cp)
	f.mu.Unlock()
}

// SetState records a key/value on the dump's state board (e.g. job index,
// current virtual time, last completed node count). Safe for concurrent use.
func (f *FlightRecorder) SetState(key, val string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.state[key] = val
	f.mu.Unlock()
}

// SetOutput sets the file path Dump writes to.
func (f *FlightRecorder) SetOutput(path string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.path = path
	f.mu.Unlock()
}

// Len reports how many lines are currently retained.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lines.Len()
}

// Dropped reports how many lines were evicted from the ring.
func (f *FlightRecorder) Dropped() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lines.Dropped()
}

// WriteDump renders the dump — a header with the reason, the sorted state
// board, then the retained lines oldest-first — to w. Safe for concurrent
// use with RecordLine/SetState.
//
//lrlint:effects(maporder) state keys are collected and sorted before rendering, so the dump bytes are iteration-order independent
func (f *FlightRecorder) WriteDump(w io.Writer, reason string) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := fmt.Fprintf(w, "=== flight dump: %s ===\n", reason); err != nil {
		return err
	}
	keys := make([]string, 0, len(f.state))
	for k := range f.state {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "state %s=%s\n", k, f.state[k]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "--- last %d events (%d dropped) ---\n", f.lines.Len(), f.lines.Dropped()); err != nil {
		return err
	}
	for _, line := range f.lines.Slice() {
		if _, err := w.Write(line); err != nil {
			return err
		}
		if len(line) == 0 || line[len(line)-1] != '\n' {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

// Dump writes the dump to the path set by SetOutput. A recorder without an
// output path dumps nowhere and returns nil.
//
//lrlint:effects(fs) the post-mortem boundary: a panicking or timed-out job flushes its ring to disk for later diagnosis
func (f *FlightRecorder) Dump(reason string) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	path := f.path
	f.mu.Unlock()
	if path == "" {
		return nil
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := f.WriteDump(out, reason)
	cerr := out.Close()
	if werr != nil {
		return werr
	}
	return cerr
}
