// Package radio mirrors the production shape the provenance pass must prove
// clean: a component-owned stream constructed from a seed, consumed behind a
// module-declared interface.
package radio

import (
	"math/rand"

	"prov/internal/xrand"
)

// Loss decides packet drops; implementations draw from the stream handed in.
type Loss interface {
	Drop(quality float64, rng *rand.Rand) bool
}

// Bernoulli drops independently with probability 1-quality.
type Bernoulli struct{}

// Drop implements Loss. The rng parameter resolves through the interface
// call in Network.Deliver back to Network.rng and its seeded construction.
func (Bernoulli) Drop(quality float64, rng *rand.Rand) bool {
	return rng.Float64() > quality
}

// Network owns the channel stream.
type Network struct {
	rng  *rand.Rand
	loss Loss
}

// New seeds the network stream from the scenario seed.
func New(seed int64) *Network {
	return &Network{
		rng:  rand.New(xrand.NewSplitMix(seed)),
		loss: Bernoulli{},
	}
}

// Deliver consults the loss model with the network's own stream.
func (nw *Network) Deliver(quality float64) bool {
	return nw.loss.Drop(quality, nw.rng)
}
