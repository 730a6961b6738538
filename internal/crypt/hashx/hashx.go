// Package hashx provides the truncated cryptographic "hash images" used
// throughout Seluge and LR-Seluge.
//
// Seluge-style protocols chain packets with 64-bit truncated hashes to keep
// per-packet overhead small (8 bytes per image). This package computes them
// as the first 8 bytes of SHA-256. The truncation length is a protocol
// constant: every node and the base station must agree on it.
package hashx

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"hash"
)

// Size is the length in bytes of a hash image.
const Size = 8

// Image is a truncated hash of a packet or block.
type Image [Size]byte

// Zero is the all-zero image, used as a sentinel for "no hash known".
var Zero Image

// Sum computes the hash image of the concatenation of parts.
func Sum(parts ...[]byte) Image {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var full [sha256.Size]byte
	h.Sum(full[:0])
	var img Image
	copy(img[:], full[:Size])
	return img
}

// SumImages hashes the concatenation of images, used for Merkle interior
// nodes.
func SumImages(imgs ...Image) Image {
	h := sha256.New()
	for _, im := range imgs {
		h.Write(im[:])
	}
	var full [sha256.Size]byte
	h.Sum(full[:0])
	var img Image
	copy(img[:], full[:Size])
	return img
}

// SumPair hashes the concatenation of exactly two images. It is byte-for-byte
// identical to SumImages(a, b) but allocates nothing: Merkle verification
// runs once per received M0 packet, and the variadic SumImages materializes
// an argument slice per call.
func SumPair(a, b Image) Image {
	var buf [2 * Size]byte
	copy(buf[:Size], a[:])
	copy(buf[Size:], b[:])
	full := sha256.Sum256(buf[:])
	var img Image
	copy(img[:], full[:Size])
	return img
}

// Memo computes the hash images of data packets: Sum over the packet's
// (unit, index, payload) authentication body, without building that body.
// It remembers the last body it hashed, copied, and returns the remembered
// image only for a body equal to it byte for byte; any other body is hashed.
// A radio broadcast hands one packet to every receiver in turn, so one entry
// turns their identical checks into one hash. A memo keeps one body at a
// time, and its zero value is ready for use. It is not safe for concurrent
// use.
type Memo struct {
	h       hash.Hash
	full    [sha256.Size]byte
	head    [2]byte // unit, index
	payload []byte  // nil until the first body is hashed
	img     Image
}

// SumBody returns Sum over the bytes unit, index, payload: the image a data
// packet's Data.AuthBody hashes to.
func (m *Memo) SumBody(unit, index uint8, payload []byte) Image {
	if m.payload != nil && m.head == [2]byte{unit, index} && bytes.Equal(m.payload, payload) {
		return m.img
	}
	if m.h == nil {
		m.h = sha256.New()
	}
	m.head = [2]byte{unit, index}
	m.h.Reset()
	m.h.Write(m.head[:])
	m.h.Write(payload)
	m.h.Sum(m.full[:0])
	copy(m.img[:], m.full[:Size])
	m.payload = append(m.payload[:0], payload...)
	return m.img
}

// Full computes the untruncated SHA-256 digest, used where the full strength
// is required (signature pre-hash, key chains).
func Full(parts ...[]byte) [sha256.Size]byte {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// Bytes returns the image as a fresh byte slice.
func (im Image) Bytes() []byte { return append([]byte(nil), im[:]...) }

// IsZero reports whether the image is the zero sentinel.
func (im Image) IsZero() bool { return im == Zero }

// String renders the image as lowercase hex.
func (im Image) String() string { return hex.EncodeToString(im[:]) }

// FromBytes parses an image from the first Size bytes of b. It panics if b is
// too short; callers validate packet lengths before parsing.
func FromBytes(b []byte) Image {
	var img Image
	copy(img[:], b[:Size])
	return img
}

// Concat flattens a list of images into a byte slice, the layout of the hash
// page M0 (paper §IV-C: M0 is the concatenation h_{1,1} | ... | h_{1,n}).
func Concat(imgs []Image) []byte {
	out := make([]byte, 0, len(imgs)*Size)
	for _, im := range imgs {
		out = append(out, im[:]...)
	}
	return out
}

// Split parses a concatenation produced by Concat back into images. The
// input length must be a multiple of Size.
func Split(b []byte) []Image {
	if len(b)%Size != 0 {
		panic("hashx: Split input not a multiple of image size")
	}
	out := make([]Image, len(b)/Size)
	for i := range out {
		copy(out[i][:], b[i*Size:])
	}
	return out
}
