// Package lt implements LT (Luby Transform) rateless codes, the family of
// erasure codes used by the loss-resilient-but-insecure dissemination
// schemes the paper positions itself against (Rateless Deluge [2],
// SYNAPSE [6]).
//
// An LT encoder produces an unbounded stream of encoded symbols; each
// symbol XORs a random subset of the k source blocks, with the subset size
// drawn from a robust soliton distribution. A receiver decodes by belief
// propagation (the "peeling" decoder) once slightly more than k symbols
// arrive.
//
// LR-Seluge deliberately does NOT use rateless codes: because the symbol
// stream is unbounded, per-packet hash chaining cannot be precomputed
// (paper §I). This package exists to quantify that trade-off: the ablation
// benches compare the fixed-rate Reed-Solomon construction against LT
// overhead, and the decoder doubles as a reference for the rateless
// baselines' behavior.
package lt

import (
	"fmt"
	"math"
	"math/rand"

	"lrseluge/internal/xrand"
)

// Symbol is one encoded symbol: the XOR of the source blocks listed in
// Neighbors, identified by the Seed that generated them. Transmitting
// (Seed, Data) suffices: the receiver regenerates Neighbors from Seed.
type Symbol struct {
	Seed      int64
	Neighbors []int
	Data      []byte
}

// Params configures the robust soliton degree distribution.
type Params struct {
	// C is the robust soliton constant (typical 0.03..0.1).
	C float64
	// Delta is the decoder failure probability bound (typical 0.05..0.5).
	Delta float64
}

// DefaultParams returns commonly used robust soliton parameters.
func DefaultParams() Params { return Params{C: 0.05, Delta: 0.5} }

// Encoder produces LT symbols for k equal-length source blocks.
type Encoder struct {
	k      int
	size   int
	blocks [][]byte
	cdf    []float64
}

// NewEncoder builds an encoder over the source blocks.
func NewEncoder(blocks [][]byte, p Params) (*Encoder, error) {
	k := len(blocks)
	if k == 0 {
		return nil, fmt.Errorf("lt: no source blocks")
	}
	size := len(blocks[0])
	if size == 0 {
		return nil, fmt.Errorf("lt: empty source blocks")
	}
	for _, b := range blocks {
		if len(b) != size {
			return nil, fmt.Errorf("lt: unequal block sizes")
		}
	}
	cp := make([][]byte, k)
	for i, b := range blocks {
		cp[i] = append([]byte(nil), b...)
	}
	return &Encoder{k: k, size: size, blocks: cp, cdf: robustSolitonCDF(k, p)}, nil
}

// K returns the number of source blocks.
func (e *Encoder) K() int { return e.k }

// BlockSize returns the symbol payload size.
func (e *Encoder) BlockSize() int { return e.size }

// Symbol deterministically generates the symbol for a seed: the same seed
// produces the same symbol on every node (the property rateless
// dissemination schemes rely on to let any node serve fresh symbols).
func (e *Encoder) Symbol(seed int64) Symbol {
	neighbors := neighborsFor(seed, e.k, e.cdf)
	data := make([]byte, e.size)
	for _, idx := range neighbors {
		for j, v := range e.blocks[idx] {
			data[j] ^= v
		}
	}
	return Symbol{Seed: seed, Neighbors: neighbors, Data: data}
}

// neighborsFor derives the symbol's neighbor set from its seed.
func neighborsFor(seed int64, k int, cdf []float64) []int {
	rng := rand.New(xrand.NewSplitMix(seed))
	degree := sampleDegree(rng, cdf)
	perm := rng.Perm(k)
	neighbors := append([]int(nil), perm[:degree]...)
	return neighbors
}

func sampleDegree(rng *rand.Rand, cdf []float64) int {
	u := rng.Float64()
	for d := 1; d < len(cdf); d++ {
		if u <= cdf[d] {
			return d
		}
	}
	return len(cdf) - 1
}

// robustSolitonCDF computes the cumulative robust soliton distribution
// rho(d)+tau(d) normalized over degrees 1..k.
func robustSolitonCDF(k int, p Params) []float64 {
	if k == 1 {
		return []float64{0, 1}
	}
	r := p.C * math.Log(float64(k)/p.Delta) * math.Sqrt(float64(k))
	if r < 1 {
		r = 1
	}
	pivot := int(math.Floor(float64(k) / r))
	if pivot < 1 {
		pivot = 1
	}
	if pivot > k {
		pivot = k
	}
	weights := make([]float64, k+1)
	total := 0.0
	for d := 1; d <= k; d++ {
		// Ideal soliton rho.
		var rho float64
		if d == 1 {
			rho = 1 / float64(k)
		} else {
			rho = 1 / (float64(d) * float64(d-1))
		}
		// Robust addition tau.
		var tau float64
		switch {
		case d < pivot:
			tau = r / (float64(d) * float64(k))
		case d == pivot:
			tau = r * math.Log(r/p.Delta) / float64(k)
		}
		if tau < 0 {
			tau = 0
		}
		weights[d] = rho + tau
		total += weights[d]
	}
	cdf := make([]float64, k+1)
	acc := 0.0
	for d := 1; d <= k; d++ {
		acc += weights[d] / total
		cdf[d] = acc
	}
	cdf[k] = 1
	return cdf
}

// Decoder runs belief-propagation ("peeling") decoding.
type Decoder struct {
	k       int
	size    int
	cdf     []float64
	decoded [][]byte
	have    int
	// pending symbols still referencing undecoded blocks.
	pending []*pendingSymbol
	seen    map[int64]bool
}

type pendingSymbol struct {
	neighbors map[int]bool
	data      []byte
}

// NewDecoder builds a decoder expecting k blocks of the given size. Params
// must match the encoder's.
func NewDecoder(k, size int, p Params) (*Decoder, error) {
	if k < 1 || size < 1 {
		return nil, fmt.Errorf("lt: invalid decoder shape k=%d size=%d", k, size)
	}
	return &Decoder{
		k:       k,
		size:    size,
		cdf:     robustSolitonCDF(k, p),
		decoded: make([][]byte, k),
		seen:    make(map[int64]bool),
	}, nil
}

// AddSeed ingests a symbol by seed + payload, regenerating its neighbor set
// locally (the wire format of rateless dissemination). Returns true when
// decoding is complete.
func (d *Decoder) AddSeed(seed int64, data []byte) (bool, error) {
	if len(data) != d.size {
		return false, fmt.Errorf("lt: symbol size %d, want %d", len(data), d.size)
	}
	if d.seen[seed] {
		return d.Complete(), nil
	}
	d.seen[seed] = true
	return d.add(neighborsFor(seed, d.k, d.cdf), data)
}

// Add ingests a symbol with an explicit neighbor list.
func (d *Decoder) Add(sym Symbol) (bool, error) {
	if len(sym.Data) != d.size {
		return false, fmt.Errorf("lt: symbol size %d, want %d", len(sym.Data), d.size)
	}
	if d.seen[sym.Seed] {
		return d.Complete(), nil
	}
	d.seen[sym.Seed] = true
	return d.add(sym.Neighbors, sym.Data)
}

func (d *Decoder) add(neighbors []int, data []byte) (bool, error) {
	ps := &pendingSymbol{neighbors: make(map[int]bool, len(neighbors)), data: append([]byte(nil), data...)}
	for _, n := range neighbors {
		if n < 0 || n >= d.k {
			return false, fmt.Errorf("lt: neighbor %d out of range", n)
		}
		if d.decoded[n] != nil {
			xorInto(ps.data, d.decoded[n])
			continue
		}
		ps.neighbors[n] = true
	}
	if len(ps.neighbors) == 0 {
		return d.Complete(), nil // pure redundancy
	}
	d.pending = append(d.pending, ps)
	d.peel()
	return d.Complete(), nil
}

// peel repeatedly releases degree-one symbols.
func (d *Decoder) peel() {
	progress := true
	for progress {
		progress = false
		for _, ps := range d.pending {
			if len(ps.neighbors) != 1 {
				continue
			}
			var idx int
			//lrlint:ignore effect-purity the map has exactly one entry here; the loop extracts its only key
			for n := range ps.neighbors {
				idx = n
			}
			if d.decoded[idx] != nil {
				ps.neighbors = map[int]bool{}
				continue
			}
			d.decoded[idx] = append([]byte(nil), ps.data...)
			d.have++
			ps.neighbors = map[int]bool{}
			progress = true
			// Substitute into every pending symbol referencing idx.
			for _, other := range d.pending {
				if other.neighbors[idx] {
					xorInto(other.data, d.decoded[idx])
					delete(other.neighbors, idx)
				}
			}
		}
		if progress {
			d.compact()
		}
	}
}

func (d *Decoder) compact() {
	kept := d.pending[:0]
	for _, ps := range d.pending {
		if len(ps.neighbors) > 0 {
			kept = append(kept, ps)
		}
	}
	d.pending = kept
}

// Complete reports whether all k blocks are recovered.
func (d *Decoder) Complete() bool { return d.have == d.k }

// Decoded returns the count of recovered blocks.
func (d *Decoder) Decoded() int { return d.have }

// Blocks returns the recovered source blocks; only valid once Complete.
func (d *Decoder) Blocks() ([][]byte, error) {
	if !d.Complete() {
		return nil, fmt.Errorf("lt: decoding incomplete (%d/%d)", d.have, d.k)
	}
	out := make([][]byte, d.k)
	for i, b := range d.decoded {
		out[i] = append([]byte(nil), b...)
	}
	return out, nil
}

func xorInto(dst, src []byte) {
	for i, v := range src {
		dst[i] ^= v
	}
}
