// Package core implements secure code dissemination (paper §IV): LR-Seluge,
// the paper's loss- and attack-resilient protocol, and Seluge, its rate-1
// special case.
//
// Each page's k plaintext blocks — the page's image bytes plus the hash
// images of the NEXT page's n packets — are expanded by a fixed-rate k-n-k'
// erasure code into n packets, so a receiver recovers the page (and the next
// page's packet hashes) from ANY k' authenticated packets. The hash page M0
// carries the hash images of page 1's packets, is itself erasure-coded
// (k0-n0-k0') and authenticated by a Merkle tree whose root the base station
// signs, guarded by a message-specific puzzle. A Scheme fixes the code rate,
// the M0 geometry and where a page's plaintext carries the hash images;
// Seluge is the Scheme with n = k.
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

// Scheme is one configuration of the protocol, a deterministic function of
// the shared parameters, so every node derives the same one. Three things
// separate Seluge from LR-Seluge:
//
//   - code rate: LR-Seluge encodes a page's k blocks into n packets, any k'
//     of which recover it; Seluge is rate 1, RS(k,k), and needs every packet.
//   - M0 geometry: LR-Seluge codes the hash page at least as redundantly as
//     a page; Seluge splits it evenly into n0 = 2^d blocks, with k0 = n0.
//   - hash-image position: a page's plaintext carries the next page's n hash
//     images as a tail appendix (LR-Seluge) or as a prefix of each packet
//     (Seluge).
type Scheme struct {
	params    image.Params
	n         int // packets per page
	pageBytes int // image bytes per page
	// The j-th next-page hash image sits at byte imgOff + j*imgStride of a
	// page's plaintext.
	imgOff, imgStride int
	// skip is the bytes at the head of each plaintext block that are not
	// image bytes.
	skip int
	geom m0Geometry
}

// LRSeluge is the paper's configuration (§IV-B/C): pages coded k-n-k', the
// next page's n hash images appended to each page's plaintext, and M0 coded
// at least as redundantly as the pages.
func LRSeluge(p image.Params) (Scheme, error) {
	if err := p.Validate(); err != nil {
		return Scheme{}, err
	}
	geom, err := geometryFor(p)
	if err != nil {
		return Scheme{}, err
	}
	return Scheme{
		params: p, n: p.N, pageBytes: p.LRPageBytes(),
		imgOff: p.LRPageBytes(), imgStride: hashx.Size, geom: geom,
	}, nil
}

// Seluge is the rate-1 configuration (paper §II-B): packet j of page i opens
// with the hash image of packet j of page i+1, every packet of a unit is
// needed, and M0 is split evenly across its Merkle leaves. p.N is unused.
func Seluge(p image.Params) (Scheme, error) {
	if err := p.Validate(); err != nil {
		return Scheme{}, err
	}
	geom, err := splitGeometry(p.K*hashx.Size, p.PacketPayload)
	if err != nil {
		return Scheme{}, err
	}
	return Scheme{
		params: p, n: p.K, pageBytes: p.SelugePageBytes(),
		imgStride: p.PacketPayload, skip: hashx.Size, geom: geom,
	}, nil
}

// plaintext lays page's image bytes and the next page's hash images out in
// order, leaving zeros at the image positions when next is nil (the final
// page has no successor to authenticate).
func (s Scheme) plaintext(page []byte, next []hashx.Image) []byte {
	plain := make([]byte, s.params.K*s.params.PacketPayload)
	pos := 0
	for j := 0; j < s.n; j++ {
		at := s.imgOff + j*s.imgStride
		page = page[copy(plain[pos:at], page):]
		if next != nil {
			copy(plain[at:], next[j][:])
		}
		pos = at + hashx.Size
	}
	copy(plain[pos:], page)
	return plain
}

// m0Geometry describes the hash-page code and Merkle tree (the k0-n0-k0'
// code f0 of paper §IV-B).
type m0Geometry struct {
	depth     int // Merkle tree depth d; n0 = 2^d
	numEnc    int // n0
	numPlain  int // k0
	blockSize int // bytes per M0 block
}

// geometryFor picks LR-Seluge's M0 geometry: the smallest Merkle depth d
// such that an M0 block plus its d sibling images fits the payload budget
// and the M0 code is at least as redundant as the page code (n0/k0 >= n/k).
// When no depth achieves that ratio (tiny payloads), it falls back to the
// feasible geometry with the highest redundancy.
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

// splitGeometry picks Seluge's M0 geometry: the smallest Merkle tree whose
// per-packet cost (an even share of the hash page plus d sibling images)
// fits the payload budget, with no redundancy (k0 = n0).
func splitGeometry(hashPage, payload int) (m0Geometry, error) {
	for d := 0; d <= 8; d++ {
		n0 := 1 << d
		block := (hashPage + n0 - 1) / n0
		if block+d*hashx.Size <= payload {
			return m0Geometry{depth: d, numEnc: n0, numPlain: n0, blockSize: block}, nil
		}
	}
	return m0Geometry{}, fmt.Errorf("core: hash page of %d bytes does not fit payload %d", hashPage, payload)
}

// BuildInput collects everything the base station needs to preprocess a code
// image (paper §IV-C).
type BuildInput struct {
	Version uint16
	Image   []byte
	Scheme  Scheme
	Key     *sign.KeyPair
	Chain   *puzzle.Chain
	Puzzle  puzzle.Params
}

// Object is the fully preprocessed code image held by the base station.
type Object struct {
	Scheme
	version   uint16
	imageSize int
	g         int

	codec  erasure.Codec // f: the k-n-k' page code
	codec0 erasure.Codec // f0: the k0-n0-k0' hash-page code

	// units[0] is the hash page M0 (its k0 plain blocks, the n0 encoded
	// blocks and the Merkle tree); units[i] is page i (its k plaintext
	// blocks and its n encoded packets). Each unit's next images
	// authenticate the following unit's packets.
	units []*Unit
	sig   *packet.Sig
}

// Build runs the base-station preprocessing: pages are constructed in
// reverse order (paper §IV-C, Fig. 1) so each page's plaintext can carry the
// hash images of the next page's encoded packets.
func Build(in BuildInput) (*Object, error) {
	if in.Key == nil || in.Chain == nil {
		return nil, fmt.Errorf("core: missing signing key or puzzle chain")
	}
	s := in.Scheme
	p := s.params
	codec, err := erasure.NewReedSolomon(p.K, s.n)
	if err != nil {
		return nil, err
	}
	codec0, err := erasure.NewReedSolomon(s.geom.numPlain, s.geom.numEnc)
	if err != nil {
		return nil, err
	}
	pages, err := image.Partition(in.Image, s.pageBytes)
	if err != nil {
		return nil, err
	}
	g := len(pages)
	if g+2 > 250 {
		return nil, fmt.Errorf("core: image needs %d units, exceeding the unit space", g+2)
	}

	units := make([]*Unit, g+1)
	// While building page i, next holds the hash images h_{i+1,1..n} of page
	// i+1's packets: nil for page g.
	var next []hashx.Image
	for i := g; i >= 1; i-- {
		blocks, err := image.Blocks(s.plaintext(pages[i-1], next), p.K)
		if err != nil {
			return nil, err
		}
		enc, err := codec.Encode(blocks)
		if err != nil {
			return nil, err
		}
		units[i] = &Unit{blocks: blocks, next: next, enc: enc}
		next = make([]hashx.Image, s.n)
		for j := range next {
			next[j] = hashx.Sum(authBody(packet.Unit(i+1), uint8(j), enc[j]))
		}
	}

	// Hash page M0 = h_{1,1} | ... | h_{1,n}, padded, split into k0 blocks,
	// erasure-coded into n0 blocks, Merkle-authenticated.
	geom := s.geom
	padded := make([]byte, geom.numPlain*geom.blockSize)
	copy(padded, hashx.Concat(next))
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
		Scheme:    s,
		version:   in.Version,
		imageSize: len(in.Image),
		g:         g,
		codec:     codec,
		codec0:    codec0,
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
