package core

import (
	"bytes"

	"lrseluge/internal/crypt/hashx"
	"lrseluge/internal/crypt/merkle"
	"lrseluge/internal/erasure"
)

// Store is a run's table of authenticated unit content. The hash chain
// admits exactly one content for each (signed Merkle root, unit) pair, so
// every node of a run that holds a unit can share one immutable copy of it
// instead of keeping its own. The store also owns one codec per (k, n)
// geometry and the decode scratch rows.
//
// A node still authenticates every packet and decodes every unit itself;
// only then does it intern the unit (Intern). Nothing else ever enters the
// store, so unverified bytes never do. A store belongs to one run and is not
// safe for concurrent use: a run is single-goroutine.
type Store struct {
	codecs map[[2]int]erasure.Codec
	units  map[unitKey]*Unit

	scratch []byte
	rows    [][]byte
}

type unitKey struct {
	root hashx.Image
	unit int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		codecs: make(map[[2]int]erasure.Codec),
		units:  make(map[unitKey]*Unit),
	}
}

// Codec returns the store's k-n Reed-Solomon codec, building it on first
// use. Codecs are immutable, so every node of the run shares one.
func (s *Store) Codec(k, n int) (erasure.Codec, error) {
	key := [2]int{k, n}
	if c, ok := s.codecs[key]; ok {
		return c, nil
	}
	c, err := erasure.NewReedSolomon(k, n)
	if err != nil {
		return nil, err
	}
	s.codecs[key] = c
	return c, nil
}

// Lookup returns the entry for unit of the object signed with root, or nil.
func (s *Store) Lookup(root hashx.Image, unit int) *Unit {
	return s.units[unitKey{root, unit}]
}

// Intern returns the entry a node holds for unit of the object signed with
// root, once the node has authenticated every packet of the unit and
// rebuilt its blocks itself. An existing entry is returned only when its
// blocks equal the node's; ok is false on a mismatch. Without an entry,
// fresh builds one from the node's blocks (NewUnit copies them) and the
// store keeps it; a nil result means the blocks failed the node's own
// checks, nothing is stored and ok is false.
func (s *Store) Intern(root hashx.Image, unit int, blocks [][]byte, fresh func() *Unit) (*Unit, bool) {
	key := unitKey{root, unit}
	if u, ok := s.units[key]; ok {
		return u, u.Equal(blocks)
	}
	u := fresh()
	if u == nil {
		return nil, false
	}
	s.units[key] = u
	return u, true
}

// scratchRows returns k store-owned rows of size bytes to decode into. The
// next call overwrites them, so the caller interns (copies) or drops the
// decoded blocks before it returns.
func (s *Store) scratchRows(k, size int) [][]byte {
	if cap(s.scratch) < k*size {
		s.scratch = make([]byte, k*size)
	}
	if cap(s.rows) < k {
		s.rows = make([][]byte, k)
	}
	rows := s.rows[:k]
	for i := range rows {
		rows[i] = s.scratch[i*size : (i+1)*size : (i+1)*size]
	}
	return rows
}

// Unit is the authenticated content of one unit of one signed object. It is
// immutable once built, apart from two caches: the encoded packets, filled
// on the first serve by any node, and the image-check memo.
type Unit struct {
	// blocks are the unit's recovered blocks: a page's k plaintext blocks
	// (image bytes and the next page's hash images) or M0's k0 plain
	// blocks.
	blocks [][]byte
	// next holds the hash images of the next unit's packets; nil after the
	// last page.
	next []hashx.Image
	// tree is the Merkle tree over M0's encoded blocks; nil for pages.
	tree *merkle.Tree
	// enc caches the unit's n encoded packets.
	enc [][]byte
	// matched is the image share this unit was last found equal to.
	matched []byte
}

// NewUnit builds an entry from a copy of blocks, which must share one
// length. next and tree are kept as given.
func NewUnit(blocks [][]byte, next []hashx.Image, tree *merkle.Tree) *Unit {
	return &Unit{blocks: copyBlocks(blocks), next: next, tree: tree}
}

// copyBlocks copies equal-length blocks into one backing array.
func copyBlocks(blocks [][]byte) [][]byte {
	size := 0
	if len(blocks) > 0 {
		size = len(blocks[0])
	}
	buf := make([]byte, len(blocks)*size)
	out := make([][]byte, len(blocks))
	for i, b := range blocks {
		out[i] = buf[i*size : (i+1)*size : (i+1)*size]
		copy(out[i], b)
	}
	return out
}

// Equal reports whether blocks are byte-equal to the unit's.
func (u *Unit) Equal(blocks [][]byte) bool {
	if len(blocks) != len(u.blocks) {
		return false
	}
	for i, b := range blocks {
		if !bytes.Equal(b, u.blocks[i]) {
			return false
		}
	}
	return true
}

// Matches reports whether want, the unit's share of the original image, is
// a prefix of the concatenation of the unit's blocks with the first skip
// bytes of each block dropped. A success is remembered on the unit, so
// every later check against the same share is one pointer compare; want
// must not change afterwards.
func (u *Unit) Matches(want []byte, skip int) bool {
	if len(want) == 0 {
		return true
	}
	if len(u.matched) == len(want) && &u.matched[0] == &want[0] {
		return true
	}
	rest := want
	for _, b := range u.blocks {
		if len(rest) == 0 {
			break
		}
		if skip > len(b) {
			return false
		}
		b = b[skip:]
		n := min(len(b), len(rest))
		if !bytes.Equal(b[:n], rest[:n]) {
			return false
		}
		rest = rest[n:]
	}
	if len(rest) > 0 {
		return false
	}
	u.matched = want
	return true
}

// ImageMatches reports whether pages, a completed object's page entries in
// order, hold exactly img when each page contributes pageBytes bytes, read
// after the first skip bytes of each block. It allocates nothing.
func ImageMatches(pages []*Unit, img []byte, pageBytes, skip int) bool {
	if len(pages)*pageBytes < len(img) {
		return false
	}
	for i, u := range pages {
		lo := min(i*pageBytes, len(img))
		if !u.Matches(img[lo:min(lo+pageBytes, len(img))], skip) {
			return false
		}
	}
	return true
}
