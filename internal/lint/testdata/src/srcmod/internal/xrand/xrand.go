// Package xrand mirrors the module's SplitMix64 source, the one stream
// family every component draws from.
package xrand

// SplitMix is a rand.Source64.
type SplitMix struct{ state uint64 }

// NewSplitMix returns a source seeded with seed.
func NewSplitMix(seed int64) *SplitMix { return &SplitMix{state: uint64(seed)} }

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
