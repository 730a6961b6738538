// Package prov_clean holds stream shapes the provenance trace must accept:
// constructor-returned streams, locals, and fields filled from seeded calls.
package prov_clean

import (
	"math/rand"

	"prov/internal/xrand"
)

// newStream derives a stream from a seed; callers' consumptions trace
// through this function's return statement.
func newStream(seed int64) *rand.Rand {
	return rand.New(xrand.NewSplitMix(seed))
}

// Draw consumes a stream obtained from a traced constructor call.
func Draw(seed int64, n int) int {
	r := newStream(seed)
	return r.Intn(n)
}

type comp struct {
	rng *rand.Rand
}

func newComp(seed int64) *comp {
	return &comp{rng: newStream(seed)}
}

// Sample consumes a component-owned stream; the field traces through the
// composite literal in newComp.
func Sample(seed int64) float64 {
	c := newComp(seed)
	return c.rng.Float64()
}

// pick consumes a parameter; both call sites below pass seeded streams.
func pick(r *rand.Rand, n int) int {
	return r.Intn(n)
}

// UseBoth exercises the parameter trace through two call sites.
func UseBoth(seed int64) int {
	a := pick(newStream(seed), 10)
	b := pick(rand.New(xrand.NewSplitMix(seed+1)), 10)
	return a + b
}

// valComp holds its stream by value, filled from a seeded construction.
type valComp struct {
	rng rand.Rand
}

// SampleByValue consumes a value-held stream; the field traces through the
// dereferenced construction it was assigned.
func SampleByValue(seed int64) int {
	var c valComp
	c.rng = *newStream(seed)
	return c.rng.Intn(10)
}
