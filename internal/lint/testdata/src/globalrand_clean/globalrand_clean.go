// Package globalrand_clean threads an explicitly seeded stream, the pattern
// the no-global-rand pass requires.
package globalrand_clean

import "math/rand"

// Draw samples from a stream fully determined by seed.
func Draw(seed int64) (int, float64) {
	rng := rand.New(newSplitMix(seed))
	return rng.Intn(10), rng.Float64()
}

// Shuffled permutes a copy of xs deterministically.
func Shuffled(xs []int, rng *rand.Rand) []int {
	out := append([]int(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// splitMix stands in for the module's xrand.SplitMix source.
type splitMix struct{ state uint64 }

func newSplitMix(seed int64) *splitMix { return &splitMix{state: uint64(seed)} }

func (s *splitMix) Seed(seed int64) { s.state = uint64(seed) }

func (s *splitMix) Int63() int64 {
	s.state += 0x9e3779b97f4a7c15
	return int64(s.state >> 1)
}
