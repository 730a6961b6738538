package core

import (
	"fmt"

	"lrseluge/internal/crypt/hashx"
	"lrseluge/internal/crypt/merkle"
	"lrseluge/internal/dissem"
	"lrseluge/internal/erasure"
	"lrseluge/internal/image"
	"lrseluge/internal/obs"
	"lrseluge/internal/packet"
)

// Handler is a node's LR-Seluge object state, implementing
// dissem.ObjectHandler: immediate per-packet authentication plus
// erasure-decoding once any k' authenticated packets of a page arrive
// (paper §IV-E).
type Handler struct {
	version uint16
	params  image.Params
	geom    m0Geometry
	codec   erasure.Codec
	codec0  erasure.Codec
	sigCtx  *dissem.SigContext

	// Established by the verified signature packet.
	sig  *packet.Sig
	root hashx.Image
	g    int

	// Hash page (unit 1) assembly.
	m0Shards [][]byte // length n0; nil = missing
	m0Count  int
	m0Done   bool
	m0Enc    [][]byte // re-generated n0 encoded blocks (for serving)
	tree     *merkle.Tree

	// Current page assembly; expected[j] is the pre-established hash image
	// of packet j of the page currently being received.
	curShards [][]byte
	curCount  int
	expected  []hashx.Image

	// Completed pages: plaintext blocks (erasure-coder input, kept for
	// re-encoding when serving), a lazy cache of encoded packets, and each
	// page's packet hash images (for authenticating overheard packets of
	// pages we already hold).
	pageBlocks [][][]byte
	pageEnc    [][][]byte
	pageHashes [][]hashx.Image
}

var _ dissem.ObjectHandler = (*Handler)(nil)

// NewHandler creates an empty receiver-side handler. Every node derives the
// same code instances f and f0 from the preloaded parameters (paper §IV-B).
func NewHandler(version uint16, p image.Params, sigCtx *dissem.SigContext) (*Handler, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if sigCtx == nil {
		return nil, fmt.Errorf("core: nil signature context")
	}
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
	h := &Handler{
		version: version,
		params:  p,
		geom:    geom,
		codec:   codec,
		codec0:  codec0,
		sigCtx:  sigCtx,
	}
	h.resetM0()
	h.resetCurrent()
	return h, nil
}

// Preload creates a handler that already possesses the whole object (the
// base station).
func Preload(o *Object, sigCtx *dissem.SigContext) *Handler {
	h := &Handler{
		version:    o.version,
		params:     o.params,
		geom:       o.geom,
		codec:      o.codec,
		codec0:     o.codec0,
		sigCtx:     sigCtx,
		sig:        o.sig,
		root:       o.tree.Root(),
		g:          o.g,
		m0Done:     true,
		m0Count:    o.geom.numEnc,
		m0Enc:      o.m0Enc,
		tree:       o.tree,
		pageBlocks: o.pageBlocks,
		pageEnc:    o.pageEnc,
		pageHashes: o.pageHashes,
	}
	h.resetCurrent()
	return h
}

func (h *Handler) resetM0() {
	h.m0Shards = make([][]byte, h.geom.numEnc)
	h.m0Count = 0
}

func (h *Handler) resetCurrent() {
	h.curShards = make([][]byte, h.params.N)
	h.curCount = 0
}

// WipeVolatile implements dissem.ObjectHandler: a power loss discards the
// RAM-resident partial assemblies (the in-progress page's shards, and the
// hash page's shards if it was still being decoded). Everything else —
// completed pages, the decoded hash page, the verified signature, and the
// expected hash images for the current page (recomputable from the previous
// flash-resident page's appendix) — lives in flash and survives.
func (h *Handler) WipeVolatile() {
	if !h.m0Done {
		h.resetM0()
	}
	h.resetCurrent()
}

// Version implements dissem.ObjectHandler.
func (h *Handler) Version() uint16 { return h.version }

// TotalUnits implements dissem.ObjectHandler: 0 until the signature is
// verified.
func (h *Handler) TotalUnits() int {
	if h.sig == nil {
		return 0
	}
	return h.g + 2
}

// CompleteUnits implements dissem.ObjectHandler.
func (h *Handler) CompleteUnits() int {
	if h.sig == nil {
		return 0
	}
	if !h.m0Done {
		return 1
	}
	return 2 + len(h.pageBlocks)
}

// PacketsInUnit implements dissem.ObjectHandler.
func (h *Handler) PacketsInUnit(u int) int {
	switch u {
	case 0:
		return 1
	case 1:
		return h.geom.numEnc
	default:
		return h.params.N
	}
}

// NeededInUnit implements dissem.ObjectHandler: k0' for M0, k' for pages —
// the loss resilience the fixed-rate code buys.
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
	case u > cu:
		return false
	case u == 0:
		return false
	case u == 1:
		return idx >= 0 && idx < len(h.m0Shards) && h.m0Shards[idx] != nil
	default:
		return idx >= 0 && idx < len(h.curShards) && h.curShards[idx] != nil
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
	h.root = s.Root
	h.g = int(s.Pages)
	return dissem.UnitComplete
}

// Ingest implements dissem.ObjectHandler: authenticate immediately, store,
// and erasure-decode as soon as k' (or k0') authenticated packets are in.
func (h *Handler) Ingest(d *packet.Data) dissem.IngestResult {
	u := int(d.Unit)
	if u != h.CompleteUnits() {
		return dissem.Stale
	}
	switch u {
	case 0:
		return dissem.Stale
	case 1:
		return h.ingestM0(d)
	default:
		return h.ingestPage(d)
	}
}

func (h *Handler) ingestM0(d *packet.Data) dissem.IngestResult {
	idx := int(d.Index)
	if idx < 0 || idx >= h.geom.numEnc || len(d.Payload) != h.geom.blockSize || len(d.Proof) != h.geom.depth {
		return dissem.Rejected
	}
	ot := h.sigCtx.Obs
	ot.StartLeaf(obs.PhaseHashVerify)
	if !merkle.Verify(h.root, d.Payload, idx, d.Proof) {
		ot.EndLeaf(obs.PhaseHashVerify)
		return dissem.Rejected
	}
	ot.EndLeaf(obs.PhaseHashVerify)
	if h.m0Shards[idx] != nil {
		return dissem.Duplicate
	}
	h.m0Shards[idx] = append([]byte(nil), d.Payload...)
	h.m0Count++
	if h.m0Count < h.codec0.KPrime() {
		return dissem.Stored
	}
	ot.Start(obs.PhaseRSDecode)
	plain, err := h.codec0.Decode(h.m0Shards)
	ot.End(obs.PhaseRSDecode)
	if err != nil {
		return dissem.Stored // cannot happen with an MDS code; wait for more
	}
	ot.Start(obs.PhaseRSEncode)
	enc, err := h.codec0.Encode(plain)
	ot.End(obs.PhaseRSEncode)
	if err != nil {
		return dissem.Stored
	}
	ot.Start(obs.PhaseHashVerify)
	tree, err := merkle.Build(enc)
	ot.End(obs.PhaseHashVerify)
	if err != nil || tree.Root() != h.root {
		// All stored shards were individually authenticated, so this is
		// unreachable; reset defensively.
		h.resetM0()
		return dissem.Rejected
	}
	h.m0Enc = enc
	h.tree = tree
	h.m0Done = true
	// M0 is the concatenation of page 1's packet hash images.
	h.expected = blockImages(plain, 0, h.params.N)
	return dissem.UnitComplete
}

func (h *Handler) ingestPage(d *packet.Data) dissem.IngestResult {
	idx := int(d.Index)
	if idx < 0 || idx >= h.params.N || len(d.Payload) != h.params.PacketPayload || len(d.Proof) != 0 {
		return dissem.Rejected
	}
	if len(h.expected) != h.params.N {
		return dissem.Rejected // no authentication material (should not happen page-by-page)
	}
	ot := h.sigCtx.Obs
	ot.StartLeaf(obs.PhaseHashVerify)
	if hashx.Sum(d.AuthBody()) != h.expected[idx] {
		ot.EndLeaf(obs.PhaseHashVerify)
		return dissem.Rejected
	}
	ot.EndLeaf(obs.PhaseHashVerify)
	if h.curShards[idx] != nil {
		return dissem.Duplicate
	}
	h.curShards[idx] = append([]byte(nil), d.Payload...)
	h.curCount++
	if h.curCount < h.codec.KPrime() {
		return dissem.Stored
	}
	ot.Start(obs.PhaseRSDecode)
	blocks, err := h.codec.Decode(h.curShards)
	ot.End(obs.PhaseRSDecode)
	if err != nil {
		return dissem.Stored
	}
	h.pageBlocks = append(h.pageBlocks, blocks)
	h.pageEnc = append(h.pageEnc, nil) // encoded form regenerated on demand
	// The hashes that authenticated this page stay available for verifying
	// overheard copies of its packets later.
	h.pageHashes = append(h.pageHashes, h.expected)
	// The decoded plaintext's tail is the appendix: the hash images of the
	// NEXT page's encoded packets (zeros after the final page).
	pageLen := len(blocks) * len(blocks[0])
	h.expected = blockImages(blocks, pageLen-h.params.N*hashx.Size, h.params.N)
	h.resetCurrent()
	return dissem.UnitComplete
}

// blockImages reads n hash images starting at byte off of the concatenation
// of the equal-length blocks, without building that concatenation. An image
// may straddle two blocks.
func blockImages(blocks [][]byte, off, n int) []hashx.Image {
	size := len(blocks[0])
	out := make([]hashx.Image, n)
	for i := range out {
		for dst := out[i][:]; len(dst) > 0; {
			c := copy(dst, blocks[off/size][off%size:])
			dst = dst[c:]
			off += c
		}
	}
	return out
}

// Authentic implements dissem.ObjectHandler: verify a packet of any
// already-held unit against established material without storing it, so
// forged packets cannot drive suppression decisions.
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
		ot.StartLeaf(obs.PhaseHashVerify)
		ok := merkle.Verify(h.root, d.Payload, idx, d.Proof)
		ot.EndLeaf(obs.PhaseHashVerify)
		return ok
	case u >= 2:
		if idx < 0 || idx >= h.params.N || len(d.Payload) != h.params.PacketPayload || len(d.Proof) != 0 {
			return false
		}
		page := u - 2
		var hashes []hashx.Image
		switch {
		case page < len(h.pageHashes):
			hashes = h.pageHashes[page]
		case page == len(h.pageHashes) && len(h.expected) == h.params.N:
			hashes = h.expected
		default:
			return false
		}
		ot := h.sigCtx.Obs
		ot.StartLeaf(obs.PhaseHashVerify)
		ok := hashx.Sum(d.AuthBody()) == hashes[idx]
		ot.EndLeaf(obs.PhaseHashVerify)
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

// Packets implements dissem.ObjectHandler: a serving node re-applies the
// same erasure code to the recovered page to regenerate ANY of the n
// encoded packets, exactly as the base station built them (paper §IV-D.3).
func (h *Handler) Packets(u int, indices []int, src packet.NodeID) ([]*packet.Data, error) {
	if u >= h.CompleteUnits() {
		return nil, fmt.Errorf("core: unit %d not held", u)
	}
	out := make([]*packet.Data, 0, len(indices))
	switch u {
	case 1:
		for _, idx := range indices {
			if idx < 0 || idx >= h.geom.numEnc {
				return nil, fmt.Errorf("core: M0 index %d out of range", idx)
			}
			proof, err := h.tree.Proof(idx)
			if err != nil {
				return nil, err
			}
			out = append(out, &packet.Data{
				Src: src, Version: h.version, Unit: 1, Index: uint8(idx),
				Payload: h.m0Enc[idx], Proof: proof,
			})
		}
	default:
		page := u - 2
		if page < 0 || page >= len(h.pageBlocks) {
			return nil, fmt.Errorf("core: page unit %d not held", u)
		}
		enc, err := h.encodedPage(page)
		if err != nil {
			return nil, err
		}
		for _, idx := range indices {
			if idx < 0 || idx >= h.params.N {
				return nil, fmt.Errorf("core: packet index %d out of range", idx)
			}
			out = append(out, &packet.Data{
				Src: src, Version: h.version, Unit: packet.Unit(u), Index: uint8(idx),
				Payload: enc[idx],
			})
		}
	}
	return out, nil
}

func (h *Handler) encodedPage(page int) ([][]byte, error) {
	if h.pageEnc[page] != nil {
		return h.pageEnc[page], nil
	}
	ot := h.sigCtx.Obs
	ot.Start(obs.PhaseRSEncode)
	enc, err := h.codec.Encode(h.pageBlocks[page])
	ot.End(obs.PhaseRSEncode)
	if err != nil {
		return nil, err
	}
	h.pageEnc[page] = enc
	return enc, nil
}

// ReassembledImage strips appendices and padding, returning the received
// code image for end-to-end verification.
func (h *Handler) ReassembledImage(size int) ([]byte, error) {
	if h.sig == nil || len(h.pageBlocks) < h.g {
		return nil, fmt.Errorf("core: object incomplete")
	}
	pages := make([][]byte, h.g)
	for i, blocks := range h.pageBlocks {
		joined := image.Join(blocks)
		pages[i] = joined[:h.params.LRPageBytes()]
	}
	return image.Reassemble(pages, size)
}

// NewPolicy returns LR-Seluge's greedy round-robin transmission scheduler
// over this handler's unit structure.
func (h *Handler) NewPolicy() dissem.TxPolicy {
	return NewScheduler(h.PacketsInUnit, h.NeededInUnit)
}
