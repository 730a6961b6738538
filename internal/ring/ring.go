// Package ring is the one bounded drop-oldest buffer behind trace.Ring and
// obs.FlightRecorder. It imports nothing, so any package can use it: obs
// must stay stdlib-only because trace depends on sim, which depends on obs.
package ring

// Buffer keeps the most recent values it was given, evicting the oldest
// when full and counting what it evicted. Not safe for concurrent use.
type Buffer[T any] struct {
	buf     []T
	start   int // index of the oldest retained value
	n       int // retained count
	dropped uint64
}

// New returns a buffer retaining at most capacity values (minimum 1).
func New[T any](capacity int) Buffer[T] {
	return Buffer[T]{buf: make([]T, max(capacity, 1))}
}

// Push appends v, evicting the oldest value when the buffer is full.
func (b *Buffer[T]) Push(v T) {
	if b.n == len(b.buf) {
		b.buf[b.start] = v
		b.start = (b.start + 1) % len(b.buf)
		b.dropped++
		return
	}
	b.buf[(b.start+b.n)%len(b.buf)] = v
	b.n++
}

// Len returns the number of retained values.
func (b *Buffer[T]) Len() int { return b.n }

// Dropped returns how many values were evicted to make room.
func (b *Buffer[T]) Dropped() uint64 { return b.dropped }

// Slice returns the retained values, oldest first, as a fresh slice.
func (b *Buffer[T]) Slice() []T {
	out := make([]T, 0, b.n)
	for i := 0; i < b.n; i++ {
		out = append(out, b.buf[(b.start+i)%len(b.buf)])
	}
	return out
}
