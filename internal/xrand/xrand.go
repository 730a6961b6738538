// Package xrand provides the simulator's one deterministic random source.
//
// Every random stream in a run (each dissemination node and its Trickle
// timer, radio loss, random topologies, fault generators, adversaries,
// generated images and LT neighbour sets) is built from its own derived
// seed as rand.New(xrand.NewSplitMix(seed)) (a dissemination node holds its
// SplitMix by value), so small runs, goldens and 100k-node runs share one
// stream family. SplitMix64
// (Steele, Lea & Flood, OOPSLA 2013 — the java.util.SplittableRandom
// finalizer) carries 8 bytes, passes BigCrush, and is more than adequate
// for loss emulation, protocol jitter and server selection. math/rand's
// default lagged-Fibonacci source carries ~4.9 KB and seeds 607 words per
// stream; one per node would cost ~500 MB at 100k nodes.
package xrand

// SplitMix is a rand.Source64 implementing SplitMix64.
type SplitMix struct {
	state uint64
}

// NewSplitMix returns a SplitMix64 source seeded with seed.
func NewSplitMix(seed int64) *SplitMix {
	return &SplitMix{state: uint64(seed)}
}

// Seed implements rand.Source.
func (s *SplitMix) Seed(seed int64) { s.state = uint64(seed) }

// Uint64 implements rand.Source64.
func (s *SplitMix) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 implements rand.Source.
func (s *SplitMix) Int63() int64 { return int64(s.Uint64() >> 1) }
