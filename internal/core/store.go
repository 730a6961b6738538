package core

import (
	"bytes"

	"lrseluge/internal/crypt/hashx"
	"lrseluge/internal/crypt/merkle"
	"lrseluge/internal/erasure"
	"lrseluge/internal/obs"
)

// Store is a run's table of authenticated unit content. The hash chain
// admits exactly one content for each (signed Merkle root, unit) pair, so
// every node of a run that holds a unit can share one immutable copy of it
// instead of keeping its own. The store also owns one codec per (k, n)
// geometry and the run's page-packet hash memo.
//
// A node still authenticates every packet itself. A unit's first completer
// decodes it from authenticated packets and interns it (Intern); every later
// completer checks its authenticated packets against that entry byte for
// byte and holds it (DESIGN §18). Nothing else ever enters the store, so
// unverified bytes never do. A store belongs to one run and is not safe for
// concurrent use: a run is single-goroutine.
type Store struct {
	codecs map[[2]int]erasure.Codec
	shapes []*shape // one per scheme; a run has one or two
	units  map[unitKey]*Unit

	// hashes computes every handler's page-packet hash images: the
	// receivers of one broadcast check the same bytes in turn, so one
	// remembered body spares all but the first a hash. Each receiver still
	// compares the image with the one its own chain expects.
	hashes hashx.Memo
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

// shape returns the run's one shape for scheme sc, building it on first
// use: every handler of the scheme shares it, codecs included.
func (s *Store) shape(sc Scheme) (*shape, error) {
	for _, sh := range s.shapes {
		if sh.Scheme == sc {
			return sh, nil
		}
	}
	codec, err := s.Codec(sc.params.K, sc.n)
	if err != nil {
		return nil, err
	}
	codec0, err := s.Codec(sc.geom.numPlain, sc.geom.numEnc)
	if err != nil {
		return nil, err
	}
	sh := &shape{Scheme: sc, codec: codec, codec0: codec0}
	s.shapes = append(s.shapes, sh)
	return sh, nil
}

// adopt gives the store object o's codecs for the sizes it has none of,
// then returns the shape of o's scheme: a base station's handler shares
// shape and codecs with the run's receivers.
func (s *Store) adopt(o *Object) *shape {
	for _, c := range []struct {
		k, n  int
		codec erasure.Codec
	}{{o.params.K, o.n, o.codec}, {o.geom.numPlain, o.geom.numEnc, o.codec0}} {
		if _, ok := s.codecs[[2]int{c.k, c.n}]; !ok {
			s.codecs[[2]int{c.k, c.n}] = c.codec
		}
	}
	sh, err := s.shape(o.Scheme)
	if err != nil {
		panic("core: " + err.Error()) // unreachable: the store holds both codecs
	}
	return sh
}

// HeapBytes returns the heap bytes of the store's entries and shapes
// (obs.AllocBytes over struct sizes and counts). Map overhead, M0's Merkle
// tree and the codecs' tables are not counted; rows of one unit are taken
// to share one backing array, as decoded rows do.
func (s *Store) HeapBytes() int64 {
	b := obs.ObjectBytes(s) + obs.SliceBytes(s.shapes) + int64(len(s.shapes))*obs.ObjectBytes(&shape{})
	//lrlint:ignore effect-purity a sum of sizes does not depend on the order it is taken in
	for _, u := range s.units {
		b += obs.ObjectBytes(u) + rowsBytes(u.blocks) + rowsBytes(u.enc) + obs.SliceBytes(u.next)
	}
	return b
}

// rowsBytes is the heap bytes of equal-length rows over one backing array.
func rowsBytes(rows [][]byte) int64 {
	if len(rows) == 0 {
		return 0
	}
	return obs.SliceBytes(rows) + obs.AllocBytes(uintptr(len(rows)*len(rows[0])))
}

// Lookup returns the entry for unit of the object signed with root, or nil.
func (s *Store) Lookup(root hashx.Image, unit int) *Unit {
	return s.units[unitKey{root, unit}]
}

// Intern makes blocks, which the unit's first completer decoded from its
// authenticated packets, the run's entry for unit of the object signed with
// root. The entry keeps blocks themselves, not a copy; fresh builds the rest
// of it (next images, Merkle tree) and runs the node's own checks, and any
// blocks it sets are replaced. Nothing is stored and ok is false when fresh
// returns nil or the unit already has an entry: a node that finds one
// completes by comparison and never interns.
func (s *Store) Intern(root hashx.Image, unit int, blocks [][]byte, fresh func() *Unit) (*Unit, bool) {
	key := unitKey{root, unit}
	if _, held := s.units[key]; held {
		return nil, false
	}
	u := fresh()
	if u == nil {
		return nil, false
	}
	u.blocks = blocks
	s.units[key] = u
	return u, true
}

// Unit is the authenticated content of one unit of one signed object. It is
// immutable once built, apart from two caches: the encoded packets, filled
// on the first serve or parity check by any node, and the image-check memo.
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

// newRows returns k rows of size bytes over one backing array.
func newRows(k, size int) [][]byte {
	buf := make([]byte, k*size)
	rows := make([][]byte, k)
	for i := range rows {
		rows[i] = buf[i*size : (i+1)*size : (i+1)*size]
	}
	return rows
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
