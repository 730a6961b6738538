// Package erasure defines the fixed-rate erasure-code abstraction shared by
// the base station and sensor nodes in LR-Seluge.
//
// LR-Seluge (paper §IV-B) preloads every node with the same instance of a
// k-n-k' erasure code f and a k0-n0-k0' erasure code f0, so that any node can
// re-generate exactly the same n encoded blocks from the same k inputs. The
// Codec interface captures that contract; package rs provides the concrete
// Reed-Solomon implementation with k' = k.
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

// Identity returns a degenerate k-k-k "codec" that performs no coding. It is
// used to express Deluge/Seluge (no redundancy) through the same machinery.
func Identity(k int) Codec { return identityCodec{k: k} }

type identityCodec struct{ k int }

func (c identityCodec) K() int      { return c.k }
func (c identityCodec) N() int      { return c.k }
func (c identityCodec) KPrime() int { return c.k }

func (c identityCodec) Encode(data [][]byte) ([][]byte, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("erasure: identity codec got %d blocks, want %d", len(data), c.k)
	}
	out := make([][]byte, c.k)
	for i, b := range data {
		out[i] = append([]byte(nil), b...)
	}
	return out, nil
}

func (c identityCodec) DecodeInto(shards, out [][]byte) error {
	if len(shards) != c.k || len(out) != c.k {
		return fmt.Errorf("erasure: identity codec got %d shards and %d outputs, want %d", len(shards), len(out), c.k)
	}
	for i, b := range shards {
		if b == nil {
			return fmt.Errorf("erasure: identity codec missing shard %d", i)
		}
		if len(out[i]) != len(b) {
			return fmt.Errorf("erasure: identity codec output %d has %d bytes, want %d", i, len(out[i]), len(b))
		}
		copy(out[i], b)
	}
	return nil
}
