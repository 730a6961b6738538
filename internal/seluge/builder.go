// Package seluge implements Seluge (Hyun, Ning, Liu & Du), the secure code
// dissemination baseline LR-Seluge is compared against (paper §II-B).
//
// Seluge keeps Deluge's page-by-page ARQ transport and adds immediate packet
// authentication: the hash image of the j-th packet of page i+1 is embedded
// in the j-th packet of page i (one-to-one chaining); a hash page M0 carries
// the hash images of page 1's packets; a Merkle tree authenticates M0's
// packets; and the base station signs the Merkle root, guarded by a
// message-specific puzzle.
//
// Unit numbering: unit 0 = signature packet, unit 1 = hash page M0 (all of
// its packets are required), units 2..g+1 = image pages 1..g (all k packets
// of a page are required — Seluge has no erasure coding, which is exactly
// its weakness in lossy networks).
package seluge

import (
	"fmt"

	"lrseluge/internal/core"
	"lrseluge/internal/crypt/hashx"
	"lrseluge/internal/crypt/merkle"
	"lrseluge/internal/crypt/puzzle"
	"lrseluge/internal/crypt/sign"
	"lrseluge/internal/image"
	"lrseluge/internal/packet"
)

// m0Geometry describes how the hash page is packetized.
type m0Geometry struct {
	depth     int // Merkle tree depth d
	numBlocks int // n0 = 2^d
	blockSize int // bytes per M0 block
}

// geometryFor picks the smallest Merkle tree whose per-packet cost (block +
// d sibling images) fits the payload budget.
func geometryFor(hashPageBytes, payload int) (m0Geometry, error) {
	for d := 0; d <= 8; d++ {
		n0 := 1 << d
		block := (hashPageBytes + n0 - 1) / n0
		if block+d*hashx.Size <= payload {
			return m0Geometry{depth: d, numBlocks: n0, blockSize: block}, nil
		}
	}
	return m0Geometry{}, fmt.Errorf("seluge: hash page of %d bytes does not fit payload %d", hashPageBytes, payload)
}

// BuildInput collects everything the base station needs to preprocess a code
// image (paper §IV-C analogue for Seluge).
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

	// units[0] is the hash page M0: its n0 blocks and Merkle tree. units[i]
	// is page i: block j is the payload of packet P_{i,j}, the embedded hash
	// image h_{i+1,j} followed by the image block m_{i,j}. Each unit's next
	// images authenticate the following unit's packets.
	units []*core.Unit
	geom  m0Geometry
	sig   *packet.Sig
}

// Build runs Seluge's base-station preprocessing: pages are packetized in
// reverse order so each page's packets can embed the next page's hash
// images.
func Build(in BuildInput) (*Object, error) {
	if err := in.Params.Validate(); err != nil {
		return nil, err
	}
	if in.Key == nil || in.Chain == nil {
		return nil, fmt.Errorf("seluge: missing signing key or puzzle chain")
	}
	p := in.Params
	pages, err := image.Partition(in.Image, p.SelugePageBytes())
	if err != nil {
		return nil, err
	}
	g := len(pages)
	if g+2 > 250 {
		return nil, fmt.Errorf("seluge: image needs %d units, exceeding the unit space", g+2)
	}
	blockSize := p.PacketPayload - hashx.Size

	units := make([]*core.Unit, g+1)
	// next[j] is h_{i+1,j} while building page i; zero for page g, whose
	// entry carries no next images.
	next := make([]hashx.Image, p.K)
	for i := g; i >= 1; i-- {
		blocks, err := image.Blocks(pages[i-1], p.K)
		if err != nil {
			return nil, err
		}
		pkts := make([][]byte, p.K)
		cur := make([]hashx.Image, p.K)
		for j := 0; j < p.K; j++ {
			payload := make([]byte, 0, p.PacketPayload)
			payload = append(payload, next[j][:]...)
			payload = append(payload, blocks[j]...)
			if len(payload) != blockSize+hashx.Size {
				return nil, fmt.Errorf("seluge: internal payload size mismatch")
			}
			pkts[j] = payload
			cur[j] = hashx.Sum(authBody(packet.Unit(i+1), uint8(j), payload))
		}
		if i == g {
			units[i] = core.NewUnit(pkts, nil, nil)
		} else {
			units[i] = core.NewUnit(pkts, next, nil)
		}
		next = cur
	}

	// Hash page M0: concatenation of page 1's packet hash images.
	m0 := hashx.Concat(next)
	geom, err := geometryFor(len(m0), p.PacketPayload)
	if err != nil {
		return nil, err
	}
	padded := make([]byte, geom.numBlocks*geom.blockSize)
	copy(padded, m0)
	m0Blocks := make([][]byte, geom.numBlocks)
	for j := range m0Blocks {
		m0Blocks[j] = padded[j*geom.blockSize : (j+1)*geom.blockSize]
	}
	tree, err := merkle.Build(m0Blocks)
	if err != nil {
		return nil, err
	}
	units[0] = core.NewUnit(m0Blocks, next, tree)

	sig := &packet.Sig{
		Version: in.Version,
		Pages:   uint8(g),
		Root:    tree.Root(),
	}
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

	return &Object{
		version:   in.Version,
		params:    p,
		imageSize: len(in.Image),
		g:         g,
		units:     units,
		geom:      geom,
		sig:       sig,
	}, nil
}

// Version returns the code version.
func (o *Object) Version() uint16 { return o.version }

// NumPages returns g.
func (o *Object) NumPages() int { return o.g }

// TotalUnits returns g+2 (signature + hash page + g pages).
func (o *Object) TotalUnits() int { return o.g + 2 }

// ImageSize returns the original image length.
func (o *Object) ImageSize() int { return o.imageSize }

// M0Packets returns n0, the hash-page packet count.
func (o *Object) M0Packets() int { return o.geom.numBlocks }

// Root returns the signed Merkle root.
func (o *Object) Root() hashx.Image { return o.sig.Root }

// authBody replicates packet.Data.AuthBody for payloads not yet wrapped in a
// packet: the hash image covers (unit, index, payload).
func authBody(unit packet.Unit, index uint8, payload []byte) []byte {
	b := make([]byte, 0, 2+len(payload))
	b = append(b, byte(unit), index)
	b = append(b, payload...)
	return b
}
