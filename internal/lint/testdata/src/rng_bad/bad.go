// Package rngbad holds the rng-stream-discipline violations: package-level
// stream state, exported stream surfaces, a shared source feeding two
// streams, and a constant seed.
package rngbad

import "math/rand"

// want: package-level variable holds an RNG stream
var sharedRNG *rand.Rand

// want: package-level struct var transitively owning a stream is still
// package state
var defaultDraws = struct {
	r *rand.Rand
	n int
}{}

// Component exposes its stream through an exported field. want finding.
type Component struct {
	Stream *rand.Rand // want: exported field exposes a stream
	seed   int64
}

// StreamOf leaks the internal stream to arbitrary callers. want finding.
func StreamOf(c *Component) *rand.Rand {
	return c.stream()
}

func (c *Component) stream() *rand.Rand {
	return rand.New(newSplitMix(c.seed))
}

// Entangled feeds one source into two rand.New streams; their draws
// interleave and become schedule-order-sensitive. want finding on the second
// rand.New.
func Entangled(seed int64) (a, b float64) {
	src := newSplitMix(seed)
	r1 := rand.New(src)
	r2 := rand.New(src) // want: shared source
	return r1.Float64(), r2.Float64()
}

// FixedSeed constructs a stream that ignores the scenario seed, from a
// math/rand source. want two findings: constant seed and source family.
func FixedSeed() float64 {
	r := rand.New(rand.NewSource(42)) // want: constant seed, source family
	return r.Float64()
}

// splitMix stands in for the module's xrand.SplitMix source.
type splitMix struct{ state uint64 }

func newSplitMix(seed int64) *splitMix { return &splitMix{state: uint64(seed)} }

func (s *splitMix) Seed(seed int64) { s.state = uint64(seed) }

func (s *splitMix) Int63() int64 {
	s.state += 0x9e3779b97f4a7c15
	return int64(s.state >> 1)
}
