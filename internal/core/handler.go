package core

import (
	"bytes"
	"fmt"

	"lrseluge/internal/crypt/hashx"
	"lrseluge/internal/crypt/merkle"
	"lrseluge/internal/dissem"
	"lrseluge/internal/erasure"
	"lrseluge/internal/obs"
	"lrseluge/internal/packet"
)

// Handler is a node's object state under a Scheme, implementing
// dissem.ObjectHandler: immediate per-packet authentication, and completion
// of a unit once any k' authenticated packets of it arrive (paper §IV-E).
//
// Completed units live in the run's Store, shared with every other node
// that holds them; the handler keeps pointers to its entries, which packet
// indices of the unit in progress it holds, and the verified signature. A
// unit's first completer erasure-decodes it and interns the entry; every
// later completer checks its authenticated packets against that entry
// instead (DESIGN §18).
type Handler struct {
	// shape is the scheme and codecs every handler of the run shares.
	*shape
	version uint16
	store   *Store
	sigCtx  *dissem.SigContext

	// Established by the verified signature packet, which the handler
	// keeps as received: a broadcast packet is immutable (radio.Receiver).
	sig *packet.Sig

	// Flash: the entries this node holds, in unit order. units[0] is the
	// hash page M0 and units[i] image page i; the last entry's next images
	// authenticate the page in progress.
	units []*Unit

	// RAM: the authenticated packet indices of the unit in progress, one
	// bit each (packet.Data.Index is a uint8, so a unit has at most 256).
	held  [4]uint64
	count int
	// pre keeps the payload of each packet ingested while the store holds
	// no entry for the unit (nil = none): the unit's first completer
	// decodes from them, a later one byte-compares them with the entry. A
	// packet ingested once the entry exists was compared with its symbol
	// on arrival, so its bit is all it leaves. The slots are allocated on
	// the first such packet, sized for M0 and pages alike, and cleared in
	// place between units; the payloads are aliased, not copied, since a
	// broadcast packet's bytes never change (radio.Receiver).
	pre [][]byte
	// entry is the store's entry for the unit in progress, looked up on
	// each ingest until one exists; nil again once the unit is held.
	entry *Unit
}

// shape is a scheme with its page and M0 codecs: the same for every
// handler of the scheme, so a run's handlers share one (Store.shape).
type shape struct {
	Scheme
	codec  erasure.Codec
	codec0 erasure.Codec
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
	sh, err := store.shape(s)
	if err != nil {
		return nil, err
	}
	return &Handler{
		shape:   sh,
		version: version,
		store:   store,
		sigCtx:  sigCtx,
	}, nil
}

// Preload creates a handler that already possesses the whole object (the
// base station). It holds the object's own units and never ingests; it
// checks overheard packets through the run's store like every other node,
// and shares its shape with them.
func Preload(o *Object, store *Store, sigCtx *dissem.SigContext) *Handler {
	return &Handler{
		shape:   store.adopt(o),
		version: o.version,
		store:   store,
		sigCtx:  sigCtx,
		sig:     o.sig,
		units:   o.units,
	}
}

// HeapBytes returns the heap bytes the handler holds on its own
// (obs.AllocBytes over struct sizes and counts): the struct, its list of
// held entries and its pre-entry slots. The entries, the shape and the
// signature are shared and not counted here.
func (h *Handler) HeapBytes() int64 {
	return obs.ObjectBytes(h) + obs.SliceBytes(h.units) + obs.SliceBytes(h.pre)
}

// WipeVolatile implements dissem.ObjectHandler: a power loss discards the
// RAM-resident packets of the unit in progress (the hash page's, or the
// current page's). The held entries — completed pages, the decoded hash
// page and with them the expected hash images for the current page — and
// the verified signature live in flash and survive.
func (h *Handler) WipeVolatile() {
	h.held = [4]uint64{}
	h.count = 0
	clear(h.pre)
}

// has reports whether packet idx of the unit in progress is held.
func (h *Handler) has(idx int) bool { return h.held[idx>>6]&(1<<(idx&63)) != 0 }

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
		return idx >= 0 && idx < h.PacketsInUnit(u) && h.has(idx)
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
	h.sig = s
	h.units = make([]*Unit, 0, int(s.Pages)+1)
	return dissem.UnitComplete
}

// Ingest implements dissem.ObjectHandler: authenticate immediately, then
// mark the packet held. Once the store holds the unit's entry, the packet
// must equal the entry's symbol and its bit is all it leaves; before then
// its payload is kept, aliased, in a pre-entry slot (DESIGN §18). With k'
// (or k0') packets in, the unit completes against the entry, or, with no
// entry yet, by erasure-decoding the kept payloads.
func (h *Handler) Ingest(d *packet.Data) dissem.IngestResult {
	u := int(d.Unit)
	if u == 0 || u != h.CompleteUnits() {
		return dissem.Stale
	}
	if !h.Authentic(d) {
		return dissem.Rejected
	}
	idx := int(d.Index)
	if h.has(idx) {
		return dissem.Duplicate
	}
	if h.entry == nil {
		h.entry = h.store.Lookup(h.sig.Root, u)
	}
	if h.entry == nil {
		h.slots(u)[idx] = d.Payload
	} else if sym, err := h.symbol(u, h.entry, idx); err != nil || !bytes.Equal(sym, d.Payload) {
		return dissem.Rejected // unreachable: the packet was authenticated
	}
	h.held[idx>>6] |= 1 << (idx & 63)
	h.count++
	switch {
	case h.count < h.NeededInUnit(u):
		return dissem.Stored
	case h.entry != nil:
		return h.completeByComparison(u)
	case u == 1:
		return h.completeM0()
	default:
		return h.completePage()
	}
}

// slots returns unit u's pre-entry slots, allocating the array on first
// use with room for M0's n0 packets and a page's n alike.
func (h *Handler) slots(u int) [][]byte {
	if h.pre == nil {
		h.pre = make([][]byte, max(h.geom.numEnc, h.n))
	}
	return h.pre[:h.PacketsInUnit(u)]
}

// completeByComparison completes unit u against the store's entry for it:
// every payload kept before the entry existed must equal the entry's
// symbol at its index, byte for byte; the packets ingested since were
// compared on arrival. The k' authenticated symbols then are the entry's
// codeword (DESIGN §18), so the node holds the entry without decoding. A
// mismatch wipes the unit in progress.
func (h *Handler) completeByComparison(u int) dissem.IngestResult {
	if h.pre != nil {
		for idx, p := range h.slots(u) {
			if p == nil {
				continue
			}
			sym, err := h.symbol(u, h.entry, idx)
			if err != nil || !bytes.Equal(p, sym) {
				h.WipeVolatile()
				return dissem.Rejected
			}
		}
	}
	return h.hold(h.entry)
}

// completeM0 is the hash page's first completer: it decodes M0 from the k0'
// authenticated shards in hand, re-encodes it, checks the Merkle root and
// interns the entry.
func (h *Handler) completeM0() dissem.IngestResult {
	ot := h.sigCtx.Obs
	plain := newRows(h.geom.numPlain, h.geom.blockSize)
	ot.Start(obs.PhaseRSDecode)
	err := h.codec0.DecodeInto(h.slots(1), plain)
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
		return &Unit{next: blockImages(plain, 0, hashx.Size, h.n), tree: tree, enc: enc}
	})
	if !ok {
		// All shards were individually authenticated, so this is
		// unreachable; reset defensively.
		h.WipeVolatile()
		return dissem.Rejected
	}
	return h.hold(m0)
}

// completePage is the current page's first completer: it decodes the page
// from the k' authenticated packets in hand and interns the entry.
func (h *Handler) completePage() dissem.IngestResult {
	ot := h.sigCtx.Obs
	page := len(h.units) // 1-based number of the page just decoded
	blocks := newRows(h.params.K, h.params.PacketPayload)
	ot.Start(obs.PhaseRSDecode)
	err := h.codec.DecodeInto(h.slots(page+1), blocks)
	ot.End(obs.PhaseRSDecode)
	if err != nil {
		return dissem.Stored
	}
	entry, ok := h.store.Intern(h.sig.Root, page+1, blocks, func() *Unit {
		if page == int(h.sig.Pages) {
			return &Unit{}
		}
		// The decoded plaintext carries the hash images of the NEXT
		// page's encoded packets.
		return &Unit{next: blockImages(blocks, h.imgOff, h.imgStride, h.n)}
	})
	if !ok {
		h.WipeVolatile() // unreachable: every packet was authenticated
		return dissem.Rejected
	}
	return h.hold(entry)
}

// hold appends a completed unit's entry and readies the handler for the
// next unit: no packet held and the pre-entry slots cleared in place, or
// released once every unit is held.
func (h *Handler) hold(entry *Unit) dissem.IngestResult {
	h.units = append(h.units, entry)
	h.WipeVolatile()
	if len(h.units) == int(h.sig.Pages)+1 {
		h.pre = nil
	}
	h.entry = nil
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
	if idx < 0 || idx >= h.PacketsInUnit(u) {
		return nil, fmt.Errorf("core: unit %d index %d out of range", u, idx)
	}
	enc, err := h.encoded(u, entry)
	if err != nil {
		return nil, err
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

// symbol returns encoded packet idx of unit u's entry. The code is
// systematic, so a data index reads the entry's blocks and only a parity
// index needs the encoding.
func (h *Handler) symbol(u int, entry *Unit, idx int) ([]byte, error) {
	if idx < len(entry.blocks) {
		return entry.blocks[idx], nil
	}
	enc, err := h.encoded(u, entry)
	if err != nil {
		return nil, err
	}
	return enc[idx], nil
}

// encoded returns unit u's encoded packets, encoding the entry on the first
// use by any node of the run: a serve, or a later completer's check of a
// parity packet. M0 entries interned by a node carry theirs from the Merkle
// check.
func (h *Handler) encoded(u int, entry *Unit) ([][]byte, error) {
	if entry.enc != nil {
		return entry.enc, nil
	}
	codec := h.codec
	if u == 1 {
		codec = h.codec0
	}
	ot := h.sigCtx.Obs
	ot.Start(obs.PhaseRSEncode)
	enc, err := codec.Encode(entry.blocks)
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
