// Package core implements LR-Seluge, the paper's contribution: loss-resilient
// AND attack-resilient code dissemination (paper §IV).
//
// Each page's k plaintext blocks — with the n hash images of the NEXT page's
// encoded packets appended — are expanded by a fixed-rate k-n-k' erasure code
// into n encoded packets, so a receiver recovers the page (and the next
// page's packet hashes) from ANY k' authenticated packets. The hash page M0
// carries the hash images of page 1's n encoded packets, is itself
// erasure-coded (k0-n0-k0') and authenticated by a Merkle tree whose root the
// base station signs, guarded by a message-specific puzzle.
//
// Unit numbering: unit 0 = signature, unit 1 = M0 (any k0' of n0 packets),
// units 2..g+1 = image pages 1..g (any k' of n packets).
package core

import (
	"fmt"

	"lrseluge/internal/crypt/hashx"
	"lrseluge/internal/crypt/merkle"
	"lrseluge/internal/crypt/puzzle"
	"lrseluge/internal/crypt/sign"
	"lrseluge/internal/erasure"
	"lrseluge/internal/image"
	"lrseluge/internal/packet"
)

// m0Geometry describes the hash-page code and Merkle tree, a deterministic
// function of the shared parameters so every node derives the same instance
// of the k0-n0-k0' code f0 (paper §IV-B).
type m0Geometry struct {
	depth     int // Merkle tree depth d; n0 = 2^d
	numEnc    int // n0
	numPlain  int // k0
	blockSize int // bytes per M0 block
}

// geometryFor picks the smallest Merkle depth d such that an M0 block plus
// its d sibling images fits the payload budget and the M0 code is at least
// as redundant as the page code (n0/k0 >= n/k). When no depth achieves that
// ratio (tiny payloads), it falls back to the feasible geometry with the
// highest redundancy.
func geometryFor(p image.Params) (m0Geometry, error) {
	hashPage := p.N * hashx.Size
	var best m0Geometry
	bestRatio := 0.0
	for d := 0; d <= 8; d++ {
		n0 := 1 << d
		block := p.PacketPayload - d*hashx.Size
		if block < 1 {
			break
		}
		k0 := (hashPage + block - 1) / block
		if k0 < 1 || k0 > n0 {
			continue
		}
		geom := m0Geometry{depth: d, numEnc: n0, numPlain: k0, blockSize: block}
		// Match or exceed the page code's redundancy: n0*k >= k0*n.
		if n0*p.K >= k0*p.N {
			return geom, nil
		}
		if ratio := float64(n0) / float64(k0); ratio > bestRatio {
			bestRatio = ratio
			best = geom
		}
	}
	if bestRatio > 0 {
		return best, nil
	}
	return m0Geometry{}, fmt.Errorf("core: no M0 geometry fits payload %d for n=%d", p.PacketPayload, p.N)
}

// BuildInput collects everything the base station needs to preprocess a code
// image (paper §IV-C).
type BuildInput struct {
	Version uint16
	Image   []byte
	Params  image.Params
	Key     *sign.KeyPair
	Chain   *puzzle.Chain
	Puzzle  puzzle.Params
}

// Object is the fully preprocessed code image held by the base station.
type Object struct {
	version   uint16
	params    image.Params
	imageSize int
	g         int

	codec  erasure.Codec // f: the k-n-k' page code
	codec0 erasure.Codec // f0: the k0-n0-k0' hash-page code
	geom   m0Geometry

	// units[0] is the hash page M0 (its k0 plain blocks, the n0 encoded
	// blocks and the Merkle tree); units[i] is page i (its k plaintext
	// blocks — page bytes plus the appended next-page hash images — and its
	// n encoded packets). Each unit's next images authenticate the
	// following unit's packets.
	units []*Unit
	sig   *packet.Sig
}

// Build runs LR-Seluge's base-station preprocessing: pages are constructed
// in reverse order (paper §IV-C, Fig. 1) so each page's plaintext can carry
// the hash images of the next page's encoded packets.
func Build(in BuildInput) (*Object, error) {
	if err := in.Params.Validate(); err != nil {
		return nil, err
	}
	if in.Key == nil || in.Chain == nil {
		return nil, fmt.Errorf("core: missing signing key or puzzle chain")
	}
	p := in.Params
	codec, err := erasure.NewReedSolomon(p.K, p.N)
	if err != nil {
		return nil, err
	}
	geom, err := geometryFor(p)
	if err != nil {
		return nil, err
	}
	codec0, err := erasure.NewReedSolomon(geom.numPlain, geom.numEnc)
	if err != nil {
		return nil, err
	}
	pages, err := image.Partition(in.Image, p.LRPageBytes())
	if err != nil {
		return nil, err
	}
	g := len(pages)
	if g+2 > 250 {
		return nil, fmt.Errorf("core: image needs %d units, exceeding the unit space", g+2)
	}

	units := make([]*Unit, g+1)
	// While building page i, next holds the hash images h_{i+1,1..n} of page
	// i+1's packets and appendix their concatenation: nil and zeros for page
	// g (the final page has no successor to authenticate).
	var next []hashx.Image
	appendix := make([]byte, p.N*hashx.Size)
	for i := g; i >= 1; i-- {
		plain := make([]byte, 0, p.K*p.PacketPayload)
		plain = append(plain, pages[i-1]...)
		plain = append(plain, appendix...)
		blocks, err := image.Blocks(plain, p.K)
		if err != nil {
			return nil, err
		}
		enc, err := codec.Encode(blocks)
		if err != nil {
			return nil, err
		}
		units[i] = &Unit{blocks: blocks, next: next, enc: enc}
		next = make([]hashx.Image, p.N)
		for j := range next {
			next[j] = hashx.Sum(authBody(packet.Unit(i+1), uint8(j), enc[j]))
		}
		appendix = hashx.Concat(next)
	}

	// Hash page M0 = h_{1,1} | ... | h_{1,n}, padded, split into k0 blocks,
	// erasure-coded into n0 blocks, Merkle-authenticated.
	padded := make([]byte, geom.numPlain*geom.blockSize)
	copy(padded, appendix)
	m0Plain := make([][]byte, geom.numPlain)
	for j := range m0Plain {
		m0Plain[j] = padded[j*geom.blockSize : (j+1)*geom.blockSize]
	}
	m0Enc, err := codec0.Encode(m0Plain)
	if err != nil {
		return nil, err
	}
	tree, err := merkle.Build(m0Enc)
	if err != nil {
		return nil, err
	}

	sig := &packet.Sig{Version: in.Version, Pages: uint8(g), Root: tree.Root()}
	sigBytes, err := in.Key.Sign(sig.SignedMessage())
	if err != nil {
		return nil, err
	}
	sig.Signature = sigBytes
	key, err := in.Chain.Key(int(in.Version))
	if err != nil {
		return nil, err
	}
	sig.PuzzleKey = key
	sol, err := puzzle.Solve(in.Puzzle, sig.PuzzleMessage(), key)
	if err != nil {
		return nil, err
	}
	sig.PuzzleSol = sol

	units[0] = &Unit{blocks: m0Plain, next: next, tree: tree, enc: m0Enc}

	return &Object{
		version:   in.Version,
		params:    p,
		imageSize: len(in.Image),
		g:         g,
		codec:     codec,
		codec0:    codec0,
		geom:      geom,
		units:     units,
		sig:       sig,
	}, nil
}

// Version returns the code version.
func (o *Object) Version() uint16 { return o.version }

// NumPages returns g.
func (o *Object) NumPages() int { return o.g }

// TotalUnits returns g+2.
func (o *Object) TotalUnits() int { return o.g + 2 }

// ImageSize returns the original image length.
func (o *Object) ImageSize() int { return o.imageSize }

// M0Packets returns n0.
func (o *Object) M0Packets() int { return o.geom.numEnc }

// M0Needed returns k0', the packets sufficient to recover M0.
func (o *Object) M0Needed() int { return o.geom.numPlain }

// Root returns the signed Merkle root.
func (o *Object) Root() hashx.Image { return o.sig.Root }

// authBody replicates packet.Data.AuthBody for payloads not yet wrapped in
// a packet: the hash image covers (unit, index, payload), binding position
// as well as content.
func authBody(unit packet.Unit, index uint8, payload []byte) []byte {
	b := make([]byte, 0, 2+len(payload))
	b = append(b, byte(unit), index)
	b = append(b, payload...)
	return b
}
