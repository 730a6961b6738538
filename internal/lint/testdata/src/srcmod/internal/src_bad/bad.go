// Package src_bad builds streams outside the one SplitMix64 family or
// outside the seed chain.
package src_bad

import (
	"math/rand"

	"srcmod/internal/xrand"
)

// Fixed seeds a SplitMix64 stream with a literal, so the stream ignores the
// scenario seed. want: constant seed.
func Fixed() float64 {
	return rand.New(xrand.NewSplitMix(7)).Float64()
}

// Lagged seeds math/rand's lagged-Fibonacci source, a second stream family
// beside SplitMix64. want: source family.
func Lagged(seed int64) float64 {
	return rand.New(rand.NewSource(seed)).Float64()
}
