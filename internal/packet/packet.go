// Package packet defines the over-the-air formats shared by Deluge, Seluge
// and LR-Seluge, with byte-exact size accounting.
//
// The paper compares schemes by total communication cost in bytes (§VI), so
// every packet type marshals to a deterministic wire image whose length,
// plus a fixed link-layer overhead, is the packet's accounted size.
//
// Packets exchanged inside the simulator are passed by pointer and MUST be
// treated as read-only by receivers; protocol code copies payloads before
// storing them.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"lrseluge/internal/crypt/hashx"
	"lrseluge/internal/crypt/puzzle"
	"lrseluge/internal/crypt/sign"
)

// NodeID identifies a node. The base station is node 0. On the wire, ids
// are serialized as 16-bit mica2-style short addresses (the paper's mote
// address width); the in-memory type is wider so large in-memory
// simulations (internal/scale, WireCheck off) can exceed 2^16 nodes. Wire
// round-trips — Marshal/Parse and radio.Config.WireCheck — are faithful
// only for ids below 1<<16.
type NodeID uint32

// Broadcast is the destination used for local broadcast; packets in these
// protocols are always broadcast, so it appears only in documentation.
const Broadcast NodeID = 0xffffffff

// Unit indexes a dissemination unit: unit 0 is the signature, unit 1 the
// hash page M0, units 2..g+1 the image pages 1..g for the secure protocols.
// Plain Deluge uses units 0..g-1 for pages directly.
type Unit uint8

// Type discriminates wire formats.
type Type uint8

// Packet types.
const (
	TypeAdv Type = iota + 1
	TypeSNACK
	TypeData
	TypeSig
)

// String implements fmt.Stringer for metrics output.
func (t Type) String() string {
	switch t {
	case TypeAdv:
		return "adv"
	case TypeSNACK:
		return "snack"
	case TypeData:
		return "data"
	case TypeSig:
		return "sig"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// LinkOverhead is the fixed per-packet link-layer cost in bytes (preamble,
// sync word, length, addressing, CRC) modeled after a mica2-class radio
// stack.
const LinkOverhead = 12

// header is the common app-layer prefix: type(1) | src(2) | version(2).
const headerSize = 5

// ErrTruncated reports a wire image too short for its declared type.
var ErrTruncated = errors.New("packet: truncated wire image")

// Packet is any over-the-air message.
type Packet interface {
	// Kind returns the wire type.
	Kind() Type
	// Source returns the transmitting node.
	Source() NodeID
	// WireSize returns the accounted size in bytes including LinkOverhead.
	WireSize() int
	// Marshal renders the app-layer wire image (excluding LinkOverhead).
	Marshal() []byte
}

// Adv is a Trickle-paced advertisement (paper §IV-D.1): the sender's code
// version and the number of complete units it possesses.
type Adv struct {
	Src     NodeID
	Version uint16
	Units   Unit // number of fully-possessed units of Version
	Total   Unit // total units of the object, 0 while unknown (object-size summary)
}

// Kind implements Packet.
func (a *Adv) Kind() Type { return TypeAdv }

// Source implements Packet.
func (a *Adv) Source() NodeID { return a.Src }

// WireSize implements Packet.
func (a *Adv) WireSize() int { return LinkOverhead + headerSize + 2 }

// Marshal implements Packet.
func (a *Adv) Marshal() []byte {
	b := make([]byte, 0, headerSize+2)
	b = appendHeader(b, TypeAdv, a.Src, a.Version)
	b = append(b, byte(a.Units), byte(a.Total))
	return b
}

// SNACK is a selective-NACK request for missing packets of one unit,
// addressed to a specific serving neighbor (paper §IV-D.1: "node v ...
// begins requesting the missing pages from node u"). Bits indicates which
// packet indices are still needed. Other neighbors overhear SNACKs for
// suppression but only Dest serves them.
type SNACK struct {
	Src     NodeID
	Dest    NodeID
	Version uint16
	Unit    Unit
	Bits    BitVector
}

// Kind implements Packet.
func (s *SNACK) Kind() Type { return TypeSNACK }

// Source implements Packet.
func (s *SNACK) Source() NodeID { return s.Src }

// WireSize implements Packet.
func (s *SNACK) WireSize() int {
	return LinkOverhead + headerSize + 2 + 1 + 2 + s.Bits.ByteLen()
}

// Marshal implements Packet.
func (s *SNACK) Marshal() []byte {
	b := make([]byte, 0, s.WireSize()-LinkOverhead)
	b = appendHeader(b, TypeSNACK, s.Src, s.Version)
	b = binary.BigEndian.AppendUint16(b, uint16(s.Dest))
	b = append(b, byte(s.Unit))
	b = binary.BigEndian.AppendUint16(b, uint16(s.Bits.Len()))
	b = append(b, s.Bits.Bytes()...)
	return b
}

// Data carries one (possibly erasure-encoded) block of a unit. For hash-page
// (M0) packets, Proof carries the Merkle sibling images bottom-up; for all
// other units Proof is empty.
type Data struct {
	Src     NodeID
	Version uint16
	Unit    Unit
	Index   uint8
	Payload []byte
	Proof   []hashx.Image
}

// Kind implements Packet.
func (d *Data) Kind() Type { return TypeData }

// Source implements Packet.
func (d *Data) Source() NodeID { return d.Src }

// WireSize implements Packet.
func (d *Data) WireSize() int {
	return LinkOverhead + headerSize + 2 + 1 + len(d.Proof)*hashx.Size + 2 + len(d.Payload)
}

// Marshal implements Packet.
func (d *Data) Marshal() []byte {
	b := make([]byte, 0, d.WireSize()-LinkOverhead)
	b = appendHeader(b, TypeData, d.Src, d.Version)
	b = append(b, byte(d.Unit), d.Index)
	b = append(b, byte(len(d.Proof)))
	for _, p := range d.Proof {
		b = append(b, p[:]...)
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(d.Payload)))
	b = append(b, d.Payload...)
	return b
}

// AuthBody returns the byte string covered by the per-packet hash image:
// unit, index and payload. Receivers compare its image with the expected
// image recovered from the previous page (paper §IV-E); they compute it with
// hashx.Memo.SumBody, which hashes the same bytes without building this
// copy. Binding the unit and index prevents an adversary replaying a valid
// block under a different position.
func (d *Data) AuthBody() []byte {
	b := make([]byte, 0, 2+len(d.Payload))
	b = append(b, byte(d.Unit), d.Index)
	b = append(b, d.Payload...)
	return b
}

// Sig is the signature packet that bootstraps authentication: the Merkle
// root over M0's encoded blocks, the base station's signature, and the
// message-specific puzzle acting as weak authenticator (paper §IV-C.3).
type Sig struct {
	Src       NodeID
	Version   uint16
	Pages     uint8 // g, the number of image pages of this version
	Root      hashx.Image
	Signature []byte // fixed sign.SignatureSize bytes
	PuzzleKey puzzle.Key
	PuzzleSol uint64
}

// Kind implements Packet.
func (s *Sig) Kind() Type { return TypeSig }

// Source implements Packet.
func (s *Sig) Source() NodeID { return s.Src }

// WireSize implements Packet.
func (s *Sig) WireSize() int {
	return LinkOverhead + headerSize + 1 + hashx.Size + sign.SignatureSize + puzzle.KeySize + puzzle.SolutionSize
}

// Marshal implements Packet.
func (s *Sig) Marshal() []byte {
	b := make([]byte, 0, s.WireSize()-LinkOverhead)
	b = appendHeader(b, TypeSig, s.Src, s.Version)
	b = append(b, s.Pages)
	b = append(b, s.Root[:]...)
	sigField := make([]byte, sign.SignatureSize)
	copy(sigField, s.Signature)
	b = append(b, sigField...)
	b = append(b, s.PuzzleKey[:]...)
	b = binary.BigEndian.AppendUint64(b, s.PuzzleSol)
	return b
}

// SignedMessage returns the byte string the base station signs: it binds the
// code version, page count and Merkle root so none can be swapped
// independently.
func (s *Sig) SignedMessage() []byte {
	b := make([]byte, 0, 3+hashx.Size)
	b = binary.BigEndian.AppendUint16(b, s.Version)
	b = append(b, s.Pages)
	b = append(b, s.Root[:]...)
	return b
}

// PuzzleMessage returns the byte string the puzzle covers (message-specific:
// it includes the signature itself, so a forged signature needs a fresh
// brute-force search).
func (s *Sig) PuzzleMessage() []byte {
	b := s.SignedMessage()
	b = append(b, s.Signature...)
	return b
}

// appendHeader appends the common app-layer prefix into b. Each Marshal owns
// its buffer with an explicit capacity equal to the wire size, so no append
// below ever reallocates — a property the alloc-hotpath lint checks against
// the visible make.
func appendHeader(b []byte, t Type, src NodeID, version uint16) []byte {
	b = append(b, byte(t))
	b = binary.BigEndian.AppendUint16(b, uint16(src))
	b = binary.BigEndian.AppendUint16(b, version)
	return b
}

// Unmarshal parses an app-layer wire image produced by Marshal.
func Unmarshal(b []byte) (Packet, error) {
	if len(b) < headerSize {
		return nil, ErrTruncated
	}
	t := Type(b[0])
	src := NodeID(binary.BigEndian.Uint16(b[1:3]))
	version := binary.BigEndian.Uint16(b[3:5])
	rest := b[headerSize:]
	switch t {
	case TypeAdv:
		if len(rest) < 2 {
			return nil, ErrTruncated
		}
		return &Adv{Src: src, Version: version, Units: Unit(rest[0]), Total: Unit(rest[1])}, nil
	case TypeSNACK:
		if len(rest) < 5 {
			return nil, ErrTruncated
		}
		dest := NodeID(binary.BigEndian.Uint16(rest[0:2]))
		unit := Unit(rest[2])
		nbits := int(binary.BigEndian.Uint16(rest[3:5]))
		bv, err := BitVectorFromBytes(nbits, rest[5:])
		if err != nil {
			return nil, err
		}
		return &SNACK{Src: src, Dest: dest, Version: version, Unit: unit, Bits: bv}, nil
	case TypeData:
		if len(rest) < 3 {
			return nil, ErrTruncated
		}
		unit := Unit(rest[0])
		index := rest[1]
		nproof := int(rest[2])
		rest = rest[3:]
		if len(rest) < nproof*hashx.Size+2 {
			return nil, ErrTruncated
		}
		proof := make([]hashx.Image, nproof)
		for i := range proof {
			proof[i] = hashx.FromBytes(rest[i*hashx.Size:])
		}
		rest = rest[nproof*hashx.Size:]
		plen := int(binary.BigEndian.Uint16(rest[:2]))
		rest = rest[2:]
		if len(rest) != plen {
			return nil, fmt.Errorf("%w: payload declared %d got %d", ErrTruncated, plen, len(rest))
		}
		return &Data{
			Src: src, Version: version, Unit: unit, Index: index,
			Payload: append([]byte(nil), rest...), Proof: proof,
		}, nil
	case TypeSig:
		want := 1 + hashx.Size + sign.SignatureSize + puzzle.KeySize + puzzle.SolutionSize
		if len(rest) != want {
			return nil, ErrTruncated
		}
		s := &Sig{Src: src, Version: version, Pages: rest[0]}
		rest = rest[1:]
		s.Root = hashx.FromBytes(rest)
		rest = rest[hashx.Size:]
		s.Signature = append([]byte(nil), rest[:sign.SignatureSize]...)
		rest = rest[sign.SignatureSize:]
		copy(s.PuzzleKey[:], rest[:puzzle.KeySize])
		rest = rest[puzzle.KeySize:]
		s.PuzzleSol = binary.BigEndian.Uint64(rest)
		return s, nil
	default:
		return nil, fmt.Errorf("packet: unknown type %d", b[0])
	}
}
