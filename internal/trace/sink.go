package trace

import (
	"bufio"
	"io"

	"lrseluge/internal/ring"
)

// Ring is a bounded in-memory sink keeping the most recent events:
// drop-oldest on overflow, with a counter of what was lost. Useful for
// post-mortem inspection in tests and for tools that only need the tail.
type Ring struct {
	buf ring.Buffer[Event]
}

// NewRing returns a ring retaining at most capacity events (minimum 1).
func NewRing(capacity int) *Ring {
	return &Ring{ring.New[Event](capacity)}
}

// Emit implements Sink, evicting the oldest event when full.
func (r *Ring) Emit(e Event) { r.buf.Push(e) }

// Flush implements Sink; a ring has nothing to flush.
func (r *Ring) Flush() error { return nil }

// Len returns the number of retained events.
func (r *Ring) Len() int { return r.buf.Len() }

// Dropped returns how many events were evicted to make room.
func (r *Ring) Dropped() uint64 { return r.buf.Dropped() }

// Events returns the retained events, oldest first, as a fresh slice.
func (r *Ring) Events() []Event { return r.buf.Slice() }

// JSONLSink streams events as JSONL (see encode.go for the schema). The
// byte stream is a deterministic function of the event sequence, so
// same-seed runs produce byte-identical trace files.
type JSONLSink struct {
	w   *bufio.Writer
	buf []byte
	err error // first write error; Flush reports it
}

// NewJSONLSink returns a sink writing JSON lines to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriter(w), buf: make([]byte, 0, 256)}
}

// Emit implements Sink. Emit cannot return an error (it is called from
// inside the hot simulation loop); the first failure is latched and
// surfaced by Flush.
func (s *JSONLSink) Emit(e Event) {
	if s.err != nil {
		return
	}
	s.buf = AppendJSON(s.buf[:0], e)
	s.buf = append(s.buf, '\n')
	if _, err := s.w.Write(s.buf); err != nil {
		s.err = err
	}
}

// Flush implements Sink, reporting any latched write error.
func (s *JSONLSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// Count discards events and counts them by kind — the cheapest possible
// sink, used to benchmark tracer throughput.
type Count struct {
	total  uint64
	byKind [kindMax]uint64
}

// Emit implements Sink.
func (c *Count) Emit(e Event) {
	c.total++
	if e.Kind > 0 && e.Kind < kindMax {
		c.byKind[e.Kind]++
	}
}

// Flush implements Sink.
func (c *Count) Flush() error { return nil }

// Total returns the number of events seen.
func (c *Count) Total() uint64 { return c.total }

// Of returns the number of events of one kind.
func (c *Count) Of(k Kind) uint64 {
	if k > 0 && k < kindMax {
		return c.byKind[k]
	}
	return 0
}

// LineRecorder receives encoded trace lines; satisfied by
// *obs.FlightRecorder. The interface points this way (trace depends on
// nothing) because obs must stay std-only for the sim engine to import it.
type LineRecorder interface {
	RecordLine(line []byte)
}

// FlightSink encodes each event as a JSON line into a LineRecorder —
// typically an obs.FlightRecorder ring, so a crashed or timed-out run
// leaves its most recent trace events in the post-mortem dump.
type FlightSink struct {
	rec LineRecorder
	buf []byte
}

// NewFlightSink returns a sink recording encoded events into rec.
func NewFlightSink(rec LineRecorder) *FlightSink {
	return &FlightSink{rec: rec, buf: make([]byte, 0, 256)}
}

// Emit implements Sink.
func (s *FlightSink) Emit(e Event) {
	s.buf = AppendJSON(s.buf[:0], e)
	s.rec.RecordLine(s.buf)
}

// Flush implements Sink; the recorder owns persistence.
func (s *FlightSink) Flush() error { return nil }

// Tee fans one event stream out to several sinks in order. Flush flushes
// all of them and returns the first error.
type Tee struct {
	sinks []Sink
}

// NewTee returns a sink duplicating events to each of sinks.
func NewTee(sinks ...Sink) *Tee { return &Tee{sinks: sinks} }

// Emit implements Sink.
func (t *Tee) Emit(e Event) {
	for _, s := range t.sinks {
		s.Emit(e)
	}
}

// Flush implements Sink.
func (t *Tee) Flush() error {
	var first error
	for _, s := range t.sinks {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
