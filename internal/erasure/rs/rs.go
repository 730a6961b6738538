// Package rs implements a systematic fixed-rate Reed-Solomon erasure code
// over GF(2^8).
//
// A Code with parameters (k, n) transforms k equal-length data blocks into n
// encoded blocks such that the originals can be recovered from ANY k of the
// n encoded blocks (k' = k, the information-theoretic optimum). The code is
// systematic: the first k encoded blocks are the data blocks themselves.
//
// The generator matrix is the k x k identity stacked on an (n-k) x k Cauchy
// matrix; every square submatrix of a Cauchy matrix is invertible, which
// guarantees the any-k-of-n recovery property.
package rs

import (
	"errors"
	"fmt"

	"lrseluge/internal/erasure/gf256"
)

// Limits on code parameters imposed by the GF(2^8) construction.
const (
	MaxShards = 256
)

// Common errors.
var (
	ErrShortData     = errors.New("rs: not enough shards to reconstruct")
	ErrShardSize     = errors.New("rs: shards must be non-empty and equal length")
	ErrShardCount    = errors.New("rs: wrong number of shards")
	ErrInvalidParams = errors.New("rs: invalid code parameters")
)

// Code is a (k, n) systematic Reed-Solomon erasure code. It is safe for
// concurrent use: all state is immutable after construction.
type Code struct {
	k, n int
	// gen is the full n x k generator matrix (identity on top of Cauchy).
	gen gf256.Matrix
}

// New constructs a (k, n) code. It requires 1 <= k <= n <= 256 and
// n + k <= 256+k (i.e., n <= 256).
func New(k, n int) (*Code, error) {
	if k < 1 || n < k || n > MaxShards {
		return nil, fmt.Errorf("%w: k=%d n=%d", ErrInvalidParams, k, n)
	}
	gen := gf256.NewMatrix(n, k)
	for i := 0; i < k; i++ {
		gen.Set(i, i, 1)
	}
	if n > k {
		cauchy := gf256.Cauchy(n-k, k)
		for i := 0; i < n-k; i++ {
			copy(gen.Row(k+i), cauchy.Row(i))
		}
	}
	return &Code{k: k, n: n, gen: gen}, nil
}

// K returns the number of data blocks per codeword.
func (c *Code) K() int { return c.k }

// N returns the total number of encoded blocks per codeword.
func (c *Code) N() int { return c.n }

// KPrime returns the number of encoded blocks sufficient for recovery. For
// Reed-Solomon this equals K.
func (c *Code) KPrime() int { return c.k }

// Encode expands k equal-length data blocks into n encoded blocks. The first
// k outputs are fresh copies of the inputs (systematic part); the remaining
// n-k are parity. The inputs are not modified. All n shards share one backing
// array: two allocations per codeword instead of n+1.
func (c *Code) Encode(data [][]byte) ([][]byte, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("%w: got %d data blocks, want %d", ErrShardCount, len(data), c.k)
	}
	size, err := checkSizes(data)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, c.n)
	buf := make([]byte, c.n*size)
	for i := range out {
		out[i] = buf[i*size : (i+1)*size : (i+1)*size]
	}
	if err := c.EncodeInto(data, out); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeInto encodes into caller-provided shard storage: out must hold n
// slices, each of the data blocks' common length. It allocates nothing, for
// callers that re-encode per simulated transmission and recycle buffers.
func (c *Code) EncodeInto(data, out [][]byte) error {
	if len(data) != c.k {
		return fmt.Errorf("%w: got %d data blocks, want %d", ErrShardCount, len(data), c.k)
	}
	size, err := checkSizes(data)
	if err != nil {
		return err
	}
	if len(out) != c.n {
		return fmt.Errorf("%w: got %d output shards, want %d", ErrShardCount, len(out), c.n)
	}
	for _, o := range out {
		if len(o) != size {
			return ErrShardSize
		}
	}
	for i := 0; i < c.k; i++ {
		copy(out[i], data[i])
	}
	for i := c.k; i < c.n; i++ {
		row := c.gen.Row(i)
		shard := out[i]
		clear(shard)
		for j := 0; j < c.k; j++ {
			gf256.MulSlice(row[j], data[j], shard)
		}
	}
	return nil
}

// Decode recovers the k original data blocks from a length-n slice of shards
// in which missing shards are nil. It succeeds whenever at least k shards are
// present. The input is not modified. The k outputs share one backing array.
func (c *Code) Decode(shards [][]byte) ([][]byte, error) {
	size, err := c.scanShards(shards)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, c.k)
	buf := make([]byte, c.k*size)
	for i := range out {
		out[i] = buf[i*size : (i+1)*size : (i+1)*size]
	}
	if err := c.DecodeInto(shards, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeInto decodes into caller-provided storage: out must hold k slices of
// the shards' common length. When every data shard survived it only copies
// them and allocates nothing. Otherwise it rebuilds just the m lost data
// blocks from the first m surviving parity shards: it inverts the m x m
// Cauchy submatrix those parity rows have on the lost columns, then
// accumulates m x k block products. Its only allocations are the two
// length-m index lists, a length-k coefficient row and the inversion's three
// m x m matrices, once per call and independent of the block size.
func (c *Code) DecodeInto(shards, out [][]byte) error {
	size, err := c.scanShards(shards)
	if err != nil {
		return err
	}
	if len(out) != c.k {
		return fmt.Errorf("%w: got %d output blocks, want %d", ErrShardCount, len(out), c.k)
	}
	for _, o := range out {
		if len(o) != size {
			return ErrShardSize
		}
	}

	m := 0
	for i := 0; i < c.k; i++ {
		if shards[i] == nil {
			m++
		} else {
			copy(out[i], shards[i])
		}
	}
	if m == 0 {
		return nil // systematic fast path: every data shard survived
	}

	// missing lists the lost data indices; parity the first m surviving
	// parity shards (scanShards guaranteed at least k shards, so at least m
	// of them are parity).
	missing := make([]int, m)
	parity := make([]int, m)
	for i, a := 0, 0; i < c.k; i++ {
		if shards[i] == nil {
			missing[a] = i
			a++
		}
	}
	for i, r := c.k, 0; r < m; i++ {
		if shards[i] != nil {
			parity[r] = i
			r++
		}
	}

	// parity_r = sum_a gen[parity_r][missing_a]*d_a + sum_j gen[parity_r][j]*d_j
	// over present data j, so the lost blocks are
	// d_missing = inv * (parity + gen[parity][present] * d_present),
	// with inv the inverse of the square Cauchy submatrix gen[parity][missing].
	sub := gf256.NewMatrix(m, m)
	for r, p := range parity {
		row := c.gen.Row(p)
		for a, j := range missing {
			sub.Set(r, a, row[j])
		}
	}
	inv, err := sub.Invert()
	if err != nil {
		// Unreachable: every square Cauchy submatrix is invertible.
		return fmt.Errorf("rs: decode matrix inversion failed: %w", err)
	}
	// coef is row a of inv * gen[parity]: its present-data entries are the
	// weights of the surviving data blocks in lost block a.
	coef := make([]byte, c.k)
	for a, lost := range missing {
		invRow := inv.Row(a)
		clear(coef)
		block := out[lost]
		clear(block)
		for r, p := range parity {
			gf256.MulSlice(invRow[r], c.gen.Row(p), coef)
			gf256.MulSlice(invRow[r], shards[p], block)
		}
		for j, d := range shards[:c.k] {
			if d != nil {
				gf256.MulSlice(coef[j], d, block)
			}
		}
	}
	return nil
}

// scanShards validates a decode input and returns the common shard length.
func (c *Code) scanShards(shards [][]byte) (int, error) {
	if len(shards) != c.n {
		return 0, fmt.Errorf("%w: got %d shards, want %d", ErrShardCount, len(shards), c.n)
	}
	size := -1
	have := 0
	for _, s := range shards {
		if s == nil {
			continue
		}
		if size < 0 {
			size = len(s)
		} else if len(s) != size {
			return 0, ErrShardSize
		}
		have++
	}
	if have < c.k {
		return 0, fmt.Errorf("%w: have %d of %d required shards", ErrShortData, have, c.k)
	}
	if size <= 0 {
		return 0, ErrShardSize
	}
	return size, nil
}

func checkSizes(blocks [][]byte) (int, error) {
	if len(blocks) == 0 || len(blocks[0]) == 0 {
		return 0, ErrShardSize
	}
	size := len(blocks[0])
	for _, b := range blocks[1:] {
		if len(b) != size {
			return 0, ErrShardSize
		}
	}
	return size, nil
}
