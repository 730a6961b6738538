package core

import (
	"fmt"

	"lrseluge/internal/crypt/hashx"
	"lrseluge/internal/crypt/merkle"
	"lrseluge/internal/dissem"
	"lrseluge/internal/erasure"
	"lrseluge/internal/obs"
	"lrseluge/internal/packet"
)

// Handler is a node's object state under a Scheme, implementing
// dissem.ObjectHandler: immediate per-packet authentication plus
// erasure-decoding once any k' authenticated packets of a page arrive
// (paper §IV-E).
//
// Completed units live in the run's Store, shared with every other node
// that holds them; the handler keeps pointers to its entries, the buffer of
// the unit in progress, and the verified signature.
type Handler struct {
	Scheme
	version uint16
	codec   erasure.Codec
	codec0  erasure.Codec
	store   *Store
	sigCtx  *dissem.SigContext

	// Established by the verified signature packet.
	sig *packet.Sig

	// Flash: the entries this node holds, in unit order. units[0] is the
	// hash page M0 and units[i] image page i; the last entry's next images
	// authenticate the page in progress.
	units []*Unit

	// RAM: the authenticated packets of the unit in progress (nil =
	// missing): n0 slots while M0 assembles, n while a page does, none
	// before the signature or once every unit is held.
	shards [][]byte
	count  int
}

var _ dissem.ObjectHandler = (*Handler)(nil)

// NewHandler creates an empty receiver-side handler whose completed units
// go to store. Every node derives the same code instances f and f0 from the
// preloaded parameters (paper §IV-B); the store hands all of them one.
func NewHandler(version uint16, s Scheme, store *Store, sigCtx *dissem.SigContext) (*Handler, error) {
	if store == nil {
		return nil, fmt.Errorf("core: nil store")
	}
	if sigCtx == nil {
		return nil, fmt.Errorf("core: nil signature context")
	}
	codec, err := store.Codec(s.params.K, s.n)
	if err != nil {
		return nil, err
	}
	codec0, err := store.Codec(s.geom.numPlain, s.geom.numEnc)
	if err != nil {
		return nil, err
	}
	return &Handler{
		Scheme:  s,
		version: version,
		codec:   codec,
		codec0:  codec0,
		store:   store,
		sigCtx:  sigCtx,
	}, nil
}

// Preload creates a handler that already possesses the whole object (the
// base station). It holds the object's own units and never ingests; it
// checks overheard packets through the run's store like every other node.
func Preload(o *Object, store *Store, sigCtx *dissem.SigContext) *Handler {
	return &Handler{
		Scheme:  o.Scheme,
		version: o.version,
		codec:   o.codec,
		codec0:  o.codec0,
		store:   store,
		sigCtx:  sigCtx,
		sig:     o.sig,
		units:   o.units,
	}
}

// WipeVolatile implements dissem.ObjectHandler: a power loss discards the
// RAM-resident packets of the unit in progress (the hash page's, or the
// current page's). The held entries — completed pages, the decoded hash
// page and with them the expected hash images for the current page — and
// the verified signature live in flash and survive.
func (h *Handler) WipeVolatile() {
	clear(h.shards)
	h.count = 0
}

// Version implements dissem.ObjectHandler.
func (h *Handler) Version() uint16 { return h.version }

// TotalUnits implements dissem.ObjectHandler: 0 until the signature is
// verified.
func (h *Handler) TotalUnits() int {
	if h.sig == nil {
		return 0
	}
	return int(h.sig.Pages) + 2
}

// CompleteUnits implements dissem.ObjectHandler.
func (h *Handler) CompleteUnits() int {
	if h.sig == nil {
		return 0
	}
	return 1 + len(h.units)
}

// PacketsInUnit implements dissem.ObjectHandler.
func (h *Handler) PacketsInUnit(u int) int {
	switch u {
	case 0:
		return 1
	case 1:
		return h.geom.numEnc
	default:
		return h.n
	}
}

// NeededInUnit implements dissem.ObjectHandler: k0' for M0, k' for pages —
// the loss resilience the fixed-rate code buys (none at rate 1).
func (h *Handler) NeededInUnit(u int) int {
	switch u {
	case 0:
		return 1
	case 1:
		return h.codec0.KPrime()
	default:
		return h.codec.KPrime()
	}
}

// HasPacket implements dissem.ObjectHandler.
func (h *Handler) HasPacket(u, idx int) bool {
	cu := h.CompleteUnits()
	switch {
	case u < cu:
		return true
	case u > cu, u == 0:
		return false
	default:
		return idx >= 0 && idx < len(h.shards) && h.shards[idx] != nil
	}
}

// LearnTotal implements dissem.ObjectHandler: ignored; only the verified
// signature determines the object extent.
func (h *Handler) LearnTotal(int) {}

// WantsSig implements dissem.ObjectHandler.
func (h *Handler) WantsSig() bool { return h.sig == nil }

// PreVerifySig implements dissem.ObjectHandler.
func (h *Handler) PreVerifySig(s *packet.Sig) bool {
	if h.sig != nil {
		return false
	}
	return h.sigCtx.WeakCheck(s)
}

// IngestSig implements dissem.ObjectHandler.
func (h *Handler) IngestSig(s *packet.Sig) dissem.IngestResult {
	if h.sig != nil {
		return dissem.Duplicate
	}
	if !h.sigCtx.FullVerify(s) || s.Pages == 0 {
		return dissem.Rejected
	}
	h.sig = &packet.Sig{
		Version:   s.Version,
		Pages:     s.Pages,
		Root:      s.Root,
		Signature: append([]byte(nil), s.Signature...),
		PuzzleKey: s.PuzzleKey,
		PuzzleSol: s.PuzzleSol,
	}
	h.shards = make([][]byte, h.geom.numEnc)
	return dissem.UnitComplete
}

// Ingest implements dissem.ObjectHandler: authenticate immediately, store,
// and erasure-decode as soon as k' (or k0') authenticated packets are in.
func (h *Handler) Ingest(d *packet.Data) dissem.IngestResult {
	u := int(d.Unit)
	if u == 0 || u != h.CompleteUnits() {
		return dissem.Stale
	}
	if !h.Authentic(d) {
		return dissem.Rejected
	}
	idx := int(d.Index)
	if h.shards[idx] != nil {
		return dissem.Duplicate
	}
	h.shards[idx] = append([]byte(nil), d.Payload...)
	h.count++
	switch {
	case h.count < h.NeededInUnit(u):
		return dissem.Stored
	case u == 1:
		return h.completeM0()
	default:
		return h.completePage()
	}
}

// completeM0 decodes the hash page from the k0' authenticated shards in
// hand and interns it. The first node to hold M0 also re-encodes it and
// checks the Merkle root; later nodes check their decode against that
// entry byte for byte.
func (h *Handler) completeM0() dissem.IngestResult {
	ot := h.sigCtx.Obs
	plain := h.store.scratchRows(h.geom.numPlain, h.geom.blockSize)
	ot.Start(obs.PhaseRSDecode)
	err := h.codec0.DecodeInto(h.shards, plain)
	ot.End(obs.PhaseRSDecode)
	if err != nil {
		return dissem.Stored // cannot happen with an MDS code; wait for more
	}
	m0, ok := h.store.Intern(h.sig.Root, 1, plain, func() *Unit {
		ot.Start(obs.PhaseRSEncode)
		enc, err := h.codec0.Encode(plain)
		ot.End(obs.PhaseRSEncode)
		if err != nil {
			return nil
		}
		ot.Start(obs.PhaseHashVerify)
		tree, err := merkle.Build(enc)
		ot.End(obs.PhaseHashVerify)
		if err != nil || tree.Root() != h.sig.Root {
			return nil
		}
		// M0 is the concatenation of page 1's packet hash images.
		u := NewUnit(plain, blockImages(plain, 0, hashx.Size, h.n), tree)
		u.enc = enc
		return u
	})
	if !ok {
		// All shards were individually authenticated, so this is
		// unreachable; reset defensively.
		h.WipeVolatile()
		return dissem.Rejected
	}
	return h.hold(m0)
}

// completePage decodes the current page from the k' authenticated packets
// in hand and interns it: the first node to hold the page builds its entry,
// later nodes check their decode against it byte for byte.
func (h *Handler) completePage() dissem.IngestResult {
	ot := h.sigCtx.Obs
	blocks := h.store.scratchRows(h.params.K, h.params.PacketPayload)
	ot.Start(obs.PhaseRSDecode)
	err := h.codec.DecodeInto(h.shards, blocks)
	ot.End(obs.PhaseRSDecode)
	if err != nil {
		return dissem.Stored
	}
	page := len(h.units) // 1-based number of the page just decoded
	entry, ok := h.store.Intern(h.sig.Root, page+1, blocks, func() *Unit {
		if page == int(h.sig.Pages) {
			return NewUnit(blocks, nil, nil)
		}
		// The decoded plaintext carries the hash images of the NEXT
		// page's encoded packets.
		return NewUnit(blocks, blockImages(blocks, h.imgOff, h.imgStride, h.n), nil)
	})
	if !ok {
		h.WipeVolatile() // unreachable: every packet was authenticated
		return dissem.Rejected
	}
	return h.hold(entry)
}

// hold appends a completed unit's entry and readies the buffer for the next
// unit: n slots for the next page, none once every unit is held.
func (h *Handler) hold(entry *Unit) dissem.IngestResult {
	h.units = append(h.units, entry)
	switch {
	case len(h.units) == int(h.sig.Pages)+1:
		h.shards = nil
	case len(h.units) == 1:
		h.shards = make([][]byte, h.n)
	default:
		clear(h.shards)
	}
	h.count = 0
	return dissem.UnitComplete
}

// blockImages reads n hash images, the i-th at byte off + i*stride of the
// concatenation of the equal-length blocks, without building that
// concatenation. An image may straddle two blocks.
func blockImages(blocks [][]byte, off, stride, n int) []hashx.Image {
	size := len(blocks[0])
	out := make([]hashx.Image, n)
	for i := range out {
		at := off + i*stride
		for dst := out[i][:]; len(dst) > 0; {
			c := copy(dst, blocks[at/size][at%size:])
			dst = dst[c:]
			at += c
		}
	}
	return out
}

// Authentic implements dissem.ObjectHandler: verify a packet of any
// already-held unit, or of the unit in progress, against the material in
// hand without storing it, so forged packets cannot drive suppression
// decisions; Ingest authenticates through it too. An M0 packet (unit 1) is
// checked by its Merkle proof to the signed root, a page packet (unit u >=
// 2) by its hash image in the entry of unit u-1. A packet of the wrong
// shape, or of a unit whose authenticating material is not held, fails.
func (h *Handler) Authentic(d *packet.Data) bool {
	if h.sig == nil {
		return false
	}
	u := int(d.Unit)
	idx := int(d.Index)
	switch {
	case u == 1:
		if idx < 0 || idx >= h.geom.numEnc ||
			len(d.Payload) != h.geom.blockSize || len(d.Proof) != h.geom.depth {
			return false
		}
		ot := h.sigCtx.Obs
		ot.Start(obs.PhaseHashVerify)
		ok := merkle.Verify(h.sig.Root, d.Payload, idx, d.Proof)
		ot.End(obs.PhaseHashVerify)
		return ok
	case u >= 2:
		if idx < 0 || idx >= h.n || len(d.Payload) != h.params.PacketPayload || len(d.Proof) != 0 {
			return false
		}
		// Page u-1 is authenticated by the next images of unit u-1's entry;
		// the last entry's are empty once the object is complete.
		if u-2 >= len(h.units) || len(h.units[u-2].next) != h.n {
			return false
		}
		ot := h.sigCtx.Obs
		ot.Start(obs.PhaseHashVerify)
		ok := h.store.hashes.SumBody(uint8(d.Unit), d.Index, d.Payload) == h.units[u-2].next[idx]
		ot.End(obs.PhaseHashVerify)
		return ok
	default:
		return false
	}
}

// SigPacket implements dissem.ObjectHandler.
func (h *Handler) SigPacket(src packet.NodeID) *packet.Sig {
	if h.sig == nil {
		return nil
	}
	out := *h.sig
	out.Src = src
	return &out
}

// Packet implements dissem.ObjectHandler: a serving node re-applies the
// same erasure code to the recovered page to regenerate ANY of the n
// encoded packets, exactly as the base station built them (paper §IV-D.3).
// Every holder of a unit serves the one encoding cached on its entry.
func (h *Handler) Packet(u, idx int, src packet.NodeID) (*packet.Data, error) {
	if u < 1 || u >= h.CompleteUnits() {
		return nil, fmt.Errorf("core: unit %d not held", u)
	}
	entry := h.units[u-1]
	n := h.n
	if u == 1 {
		n = h.geom.numEnc
	}
	enc, err := h.encoded(entry)
	if err != nil {
		return nil, err
	}
	if idx < 0 || idx >= n {
		return nil, fmt.Errorf("core: unit %d index %d out of range", u, idx)
	}
	d := &packet.Data{
		Src: src, Version: h.version, Unit: packet.Unit(u), Index: uint8(idx),
		Payload: enc[idx],
	}
	if u == 1 {
		if d.Proof, err = entry.tree.Proof(idx); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// encoded returns a page entry's n encoded packets, encoding them on the
// first serve by any node of the run. M0 entries carry theirs from the
// Merkle check.
func (h *Handler) encoded(entry *Unit) ([][]byte, error) {
	if entry.enc != nil {
		return entry.enc, nil
	}
	ot := h.sigCtx.Obs
	ot.Start(obs.PhaseRSEncode)
	enc, err := h.codec.Encode(entry.blocks)
	ot.End(obs.PhaseRSEncode)
	if err != nil {
		return nil, err
	}
	entry.enc = enc
	return enc, nil
}

// MatchesImage reports whether the node holds the whole object and its
// pages, hash images and padding stripped, are exactly img. It allocates
// nothing, and each shared entry is compared against img once per run.
func (h *Handler) MatchesImage(img []byte) bool {
	if h.sig == nil || len(h.units) < int(h.sig.Pages)+1 {
		return false
	}
	return ImageMatches(h.units[1:], img, h.pageBytes, h.skip)
}

// NewPolicy returns LR-Seluge's greedy round-robin transmission scheduler
// over this handler's unit structure.
func (h *Handler) NewPolicy() dissem.TxPolicy {
	return NewScheduler(h.PacketsInUnit, h.NeededInUnit)
}
