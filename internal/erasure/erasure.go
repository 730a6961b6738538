// Package erasure defines the fixed-rate erasure-code abstraction shared by
// the base station and sensor nodes in LR-Seluge.
//
// LR-Seluge (paper §IV-B) preloads every node with the same instance of a
// k-n-k' erasure code f and a k0-n0-k0' erasure code f0, so that any node can
// re-generate exactly the same n encoded blocks from the same k inputs. The
// Codec interface captures that contract; package rs provides the concrete
// Reed-Solomon implementation with k' = k. Seluge is the rate-1 case: RS(k,k)
// encodes by copying and needs every block.
package erasure

import (
	"fmt"

	"lrseluge/internal/erasure/rs"
)

// Codec is a fixed-rate k-n-k' erasure code: Encode expands k equal-length
// blocks into n, and DecodeInto recovers the k originals from any KPrime of
// the n encoded blocks. Implementations must be deterministic (same inputs,
// same outputs on every node) and safe for concurrent use.
type Codec interface {
	// K is the number of source blocks per codeword.
	K() int
	// N is the number of encoded blocks per codeword.
	N() int
	// KPrime is the number of encoded blocks guaranteed to suffice for
	// recovery (k <= KPrime <= n).
	KPrime() int
	// Encode expands k data blocks into n encoded blocks.
	Encode(data [][]byte) ([][]byte, error)
	// DecodeInto recovers the k data blocks from a length-n shard slice
	// with nil entries for missing shards, into caller-provided storage:
	// out holds k slices of the shards' common length.
	DecodeInto(shards, out [][]byte) error
}

// NewReedSolomon returns the standard LR-Seluge codec: a systematic
// Reed-Solomon code with k' = k.
func NewReedSolomon(k, n int) (Codec, error) {
	c, err := rs.New(k, n)
	if err != nil {
		return nil, fmt.Errorf("erasure: %w", err)
	}
	return c, nil
}
