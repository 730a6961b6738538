// Package rngclean holds the blessed RNG ownership idiom: each component
// privately owns one stream constructed from a seed that flowed in as a
// parameter, constructors may return the owning component (not the stream),
// and streams are handed DOWN through parameters at construction time. The
// rng-stream-discipline pass must stay silent here.
package rngclean

import "math/rand"

// Node privately owns its stream — the unexported field is the ownership
// record.
type Node struct {
	id  int
	rng *rand.Rand
}

// NewNode derives the node's stream from the scenario seed chain. Returning
// *Node is fine: the component owns a stream, it does not surface one.
func NewNode(id int, seed int64) *Node {
	return &Node{
		id:  id,
		rng: rand.New(newSplitMix(seed ^ (int64(id)*0x9e3779b9 + 1))),
	}
}

// Jitter consumes the node's own stream.
func (n *Node) Jitter(max int) int {
	if max <= 0 {
		return 0
	}
	return n.rng.Intn(max)
}

// timer receives a stream as a parameter — the blessed hand-DOWN idiom used
// by trickle.New(eng, rng, ...).
type timer struct {
	rng *rand.Rand
}

// newTimer takes ownership of the stream its caller derived.
func newTimer(rng *rand.Rand) *timer {
	return &timer{rng: rng}
}

// Pair derives two INDEPENDENT streams from two sources.
func Pair(seed int64) (a, b int) {
	r1 := rand.New(newSplitMix(seed))
	r2 := rand.New(newSplitMix(seed + 1))
	t := newTimer(r2)
	return r1.Intn(10), t.rng.Intn(10)
}

// splitMix stands in for the module's xrand.SplitMix source.
type splitMix struct{ state uint64 }

func newSplitMix(seed int64) *splitMix { return &splitMix{state: uint64(seed)} }

func (s *splitMix) Seed(seed int64) { s.state = uint64(seed) }

func (s *splitMix) Int63() int64 {
	s.state += 0x9e3779b97f4a7c15
	return int64(s.state >> 1)
}
