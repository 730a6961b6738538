package seluge

import (
	"fmt"

	"lrseluge/internal/core"
	"lrseluge/internal/crypt/hashx"
	"lrseluge/internal/crypt/merkle"
	"lrseluge/internal/dissem"
	"lrseluge/internal/image"
	"lrseluge/internal/packet"
)

// Handler is a node's Seluge object state, implementing
// dissem.ObjectHandler with immediate per-packet authentication.
//
// Completed units live in the run's core.Store, shared with every other
// node that holds them; the handler keeps pointers to its entries, the
// buffer of the unit in progress, and the verified signature.
type Handler struct {
	version uint16
	params  image.Params
	geom    m0Geometry
	store   *core.Store
	sigCtx  *dissem.SigContext

	// Established by the verified signature packet.
	sig *packet.Sig

	// Flash: the entries this node holds, in unit order. units[0] is the
	// hash page M0 and units[i] image page i; the last entry's next images
	// authenticate the page in progress.
	units []*core.Unit

	// RAM: the authenticated payloads of the unit in progress (nil =
	// missing): n0 slots while M0 assembles, k while a page does, none
	// before the signature or once every unit is held.
	buf   [][]byte
	count int
}

var _ dissem.ObjectHandler = (*Handler)(nil)

// NewHandler creates an empty receiver-side handler whose completed units
// go to store. The M0 geometry must match the base station's, which it does
// automatically because it is a deterministic function of the preloaded
// parameters.
func NewHandler(version uint16, p image.Params, store *core.Store, sigCtx *dissem.SigContext) (*Handler, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if store == nil {
		return nil, fmt.Errorf("seluge: nil store")
	}
	if sigCtx == nil {
		return nil, fmt.Errorf("seluge: nil signature context")
	}
	geom, err := geometryFor(p.K*hashx.Size, p.PacketPayload)
	if err != nil {
		return nil, err
	}
	return &Handler{version: version, params: p, geom: geom, store: store, sigCtx: sigCtx}, nil
}

// Preload creates a handler that already possesses the whole object (the
// base station). It holds the object's own units and never ingests.
func Preload(o *Object, sigCtx *dissem.SigContext) *Handler {
	return &Handler{
		version: o.version,
		params:  o.params,
		geom:    o.geom,
		sigCtx:  sigCtx,
		sig:     o.sig,
		units:   o.units,
	}
}

// WipeVolatile implements dissem.ObjectHandler: a power loss discards the
// in-progress unit's RAM buffer (the hash page's or the current page's);
// held entries and the verified signature are flash-resident and survive.
func (h *Handler) WipeVolatile() {
	clear(h.buf)
	h.count = 0
}

// Version implements dissem.ObjectHandler.
func (h *Handler) Version() uint16 { return h.version }

// TotalUnits implements dissem.ObjectHandler: 0 until the signature is
// verified (Seluge never trusts unauthenticated object summaries).
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
		return h.geom.numBlocks
	default:
		return h.params.K
	}
}

// NeededInUnit implements dissem.ObjectHandler: ARQ requires every packet.
func (h *Handler) NeededInUnit(u int) int { return h.PacketsInUnit(u) }

// HasPacket implements dissem.ObjectHandler.
func (h *Handler) HasPacket(u, idx int) bool {
	cu := h.CompleteUnits()
	switch {
	case u < cu:
		return true
	case u > cu, u == 0: // u == 0: signature still wanted
		return false
	default:
		return idx >= 0 && idx < len(h.buf) && h.buf[idx] != nil
	}
}

// LearnTotal implements dissem.ObjectHandler: ignored; only the signed
// signature packet is trusted for the object's extent.
func (h *Handler) LearnTotal(int) {}

// WantsSig implements dissem.ObjectHandler.
func (h *Handler) WantsSig() bool { return h.sig == nil }

// PreVerifySig implements dissem.ObjectHandler: the message-specific puzzle
// check (one hash) that filters forged signature floods.
func (h *Handler) PreVerifySig(s *packet.Sig) bool {
	if h.sig != nil {
		return false
	}
	return h.sigCtx.WeakCheck(s)
}

// IngestSig implements dissem.ObjectHandler: the expensive verification.
func (h *Handler) IngestSig(s *packet.Sig) dissem.IngestResult {
	if h.sig != nil {
		return dissem.Duplicate
	}
	if !h.sigCtx.FullVerify(s) {
		return dissem.Rejected
	}
	if s.Pages == 0 {
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
	h.buf = make([][]byte, h.geom.numBlocks)
	return dissem.UnitComplete
}

// Ingest implements dissem.ObjectHandler: immediate authentication of every
// data packet on arrival, then storage.
func (h *Handler) Ingest(d *packet.Data) dissem.IngestResult {
	u := int(d.Unit)
	if u != h.CompleteUnits() {
		return dissem.Stale
	}
	switch u {
	case 0:
		return dissem.Stale // signature travels as a Sig packet
	case 1:
		return h.ingestM0(d)
	default:
		return h.ingestPage(d)
	}
}

func (h *Handler) ingestM0(d *packet.Data) dissem.IngestResult {
	idx := int(d.Index)
	if idx < 0 || idx >= h.geom.numBlocks || len(d.Payload) != h.geom.blockSize || len(d.Proof) != h.geom.depth {
		return dissem.Rejected
	}
	if !merkle.Verify(h.sig.Root, d.Payload, idx, d.Proof) {
		return dissem.Rejected
	}
	if h.buf[idx] != nil {
		return dissem.Duplicate
	}
	h.buf[idx] = append([]byte(nil), d.Payload...)
	h.count++
	if h.count < h.geom.numBlocks {
		return dissem.Stored
	}
	// The first node to hold M0 rebuilds the Merkle tree and checks the
	// root; later nodes check their blocks against that entry.
	m0, ok := h.store.Intern(h.sig.Root, 1, h.buf, func() *core.Unit {
		tree, err := merkle.Build(h.buf)
		if err != nil || tree.Root() != h.sig.Root {
			return nil
		}
		return core.NewUnit(h.buf, hashx.Split(image.Join(h.buf)[:h.params.K*hashx.Size]), tree)
	})
	if !ok {
		// Impossible if every packet verified; defensive reset.
		h.WipeVolatile()
		return dissem.Rejected
	}
	return h.hold(m0)
}

func (h *Handler) ingestPage(d *packet.Data) dissem.IngestResult {
	idx := int(d.Index)
	if idx < 0 || idx >= h.params.K || len(d.Payload) != h.params.PacketPayload || len(d.Proof) != 0 {
		return dissem.Rejected
	}
	expected := h.units[len(h.units)-1].Next()
	if len(expected) != h.params.K || hashx.Sum(d.AuthBody()) != expected[idx] {
		return dissem.Rejected
	}
	if h.buf[idx] != nil {
		return dissem.Duplicate
	}
	h.buf[idx] = append([]byte(nil), d.Payload...)
	h.count++
	if h.count < h.params.K {
		return dissem.Stored
	}
	page := len(h.units) // 1-based number of the page just completed
	entry, ok := h.store.Intern(h.sig.Root, page+1, h.buf, func() *core.Unit {
		if page == int(h.sig.Pages) {
			return core.NewUnit(h.buf, nil, nil)
		}
		// Each payload opens with the hash image of the next page's
		// packet at the same index.
		next := make([]hashx.Image, h.params.K)
		for j, payload := range h.buf {
			next[j] = hashx.FromBytes(payload)
		}
		return core.NewUnit(h.buf, next, nil)
	})
	if !ok {
		h.WipeVolatile() // unreachable: every packet was authenticated
		return dissem.Rejected
	}
	return h.hold(entry)
}

// hold appends a completed unit's entry and readies the buffer for the next
// unit: k slots for the next page, none once every unit is held.
func (h *Handler) hold(entry *core.Unit) dissem.IngestResult {
	h.units = append(h.units, entry)
	switch {
	case len(h.units) == int(h.sig.Pages)+1:
		h.buf = nil
	case len(h.units) == 1:
		h.buf = make([][]byte, h.params.K)
	default:
		clear(h.buf)
	}
	h.count = 0
	return dissem.UnitComplete
}

// Authentic implements dissem.ObjectHandler: verify a packet of any
// already-held unit against the established authentication material without
// storing it (used to keep forged packets from driving suppression).
func (h *Handler) Authentic(d *packet.Data) bool {
	if h.sig == nil {
		return false
	}
	u := int(d.Unit)
	idx := int(d.Index)
	switch {
	case u == 1:
		return idx >= 0 && idx < h.geom.numBlocks &&
			len(d.Payload) == h.geom.blockSize && len(d.Proof) == h.geom.depth &&
			merkle.Verify(h.sig.Root, d.Payload, idx, d.Proof)
	case u >= 2:
		if idx < 0 || idx >= h.params.K || len(d.Payload) != h.params.PacketPayload || len(d.Proof) != 0 {
			return false
		}
		// Page u-1 is authenticated by the next images of unit u-1's entry.
		if u-2 >= len(h.units) || len(h.units[u-2].Next()) != h.params.K {
			return false
		}
		return hashx.Sum(d.AuthBody()) == h.units[u-2].Next()[idx]
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

// Packets implements dissem.ObjectHandler.
func (h *Handler) Packets(u int, indices []int, src packet.NodeID) ([]*packet.Data, error) {
	if u < 1 || u >= h.CompleteUnits() {
		return nil, fmt.Errorf("seluge: unit %d not held", u)
	}
	entry := h.units[u-1]
	blocks := entry.Blocks()
	out := make([]*packet.Data, 0, len(indices))
	for _, idx := range indices {
		if idx < 0 || idx >= len(blocks) {
			return nil, fmt.Errorf("seluge: unit %d index %d out of range", u, idx)
		}
		d := &packet.Data{
			Src: src, Version: h.version, Unit: packet.Unit(u), Index: uint8(idx),
			Payload: blocks[idx],
		}
		if u == 1 {
			proof, err := entry.Tree().Proof(idx)
			if err != nil {
				return nil, err
			}
			d.Proof = proof
		}
		out = append(out, d)
	}
	return out, nil
}

// MatchesImage reports whether the node holds the whole object and its
// pages, embedded hash images and padding stripped, are exactly img. It
// allocates nothing, and each shared entry is compared against img once per
// run.
func (h *Handler) MatchesImage(img []byte) bool {
	if h.sig == nil || len(h.units) < int(h.sig.Pages)+1 {
		return false
	}
	return core.ImageMatches(h.units[1:], img, h.params.SelugePageBytes(), hashx.Size)
}

// NewPolicy returns the Seluge transmission policy: same union-of-requests
// behavior as Deluge.
func (h *Handler) NewPolicy() dissem.TxPolicy {
	return dissem.NewUnionPolicy(h.PacketsInUnit)
}
