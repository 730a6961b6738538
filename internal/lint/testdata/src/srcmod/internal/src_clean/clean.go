// Package src_clean derives every stream from the seed chain through the
// one SplitMix64 constructor; the rng-stream-discipline pass stays silent.
package src_clean

import (
	"math/rand"

	"srcmod/internal/xrand"
)

// Draw seeds its stream from the caller's seed.
func Draw(seed int64) float64 {
	return rand.New(xrand.NewSplitMix(seed)).Float64()
}

// node owns a stream derived per id, like a dissemination node.
type node struct {
	src xrand.SplitMix
	rng *rand.Rand
}

// newNode seeds a source held by value.
func newNode(id, seed int64) *node {
	n := &node{}
	n.src.Seed(seed ^ (id*0x9e3779b9 + 1))
	n.rng = rand.New(&n.src)
	return n
}

// Jitter draws from a node's own stream.
func Jitter(id, seed int64) int { return newNode(id, seed).rng.Intn(100) }
