// Package rateless implements a Rateless Deluge / SYNAPSE-style baseline:
// page-by-page dissemination where each page is served as LT-coded symbols
// instead of ARQ retransmissions (the loss-resilient-but-INSECURE line of
// work the paper positions LR-Seluge against, §I and §VII).
//
// Every node derives the same LT encoder from a decoded page, so any node
// can serve deterministic symbols identified by (page, symbol index); a
// receiver decodes by belief propagation once slightly more than k symbols
// arrive. There is NO packet authentication: the encoded symbol stream is
// unbounded in principle, which is precisely why Seluge-style hash chaining
// cannot be precomputed for it. Comparing this baseline with LR-Seluge
// quantifies what the fixed-rate construction gives up (a little coding
// overhead) and gains (immediate authentication).
package rateless

import (
	"fmt"

	"lrseluge/internal/dissem"
	"lrseluge/internal/erasure/lt"
	"lrseluge/internal/image"
	"lrseluge/internal/packet"
)

// poolFactor bounds the distinct symbol indices per page to poolFactor*k so
// SNACK bit vectors stay finite; real rateless senders are unbounded. LT
// overhead at small k is substantial (the robust soliton bound is
// asymptotic), so the pool is 3k: large enough that decoding from the full
// pool fails with negligible probability.
const poolFactor = 3

// ltOverheadEstimate returns the SNACK-planning estimate of how many
// symbols a receiver needs: k plus robust-soliton overhead.
func ltOverheadEstimate(k int) int { return k + k/4 + 4 }

// symbolSeed derives the deterministic LT seed for symbol idx of unit u.
func symbolSeed(u, idx int) int64 { return int64(u)<<20 | int64(idx) }

// Object is the base station's prepared image.
type Object struct {
	version   uint16
	params    image.Params
	imageSize int
	pages     [][]byte // g pages of k*(payload-0) bytes; symbols same size as blocks
	encoders  []*lt.Encoder
}

// blockSize returns the LT symbol payload size (the full packet payload;
// the pool index rides in the packet header's Index field).
func blockSize(p image.Params) int { return p.PacketPayload }

// pageBytes returns image bytes per page.
func pageBytes(p image.Params) int { return p.K * blockSize(p) }

// NewObject partitions and prepares a code image.
func NewObject(version uint16, data []byte, p image.Params) (*Object, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if poolFactor*p.K > 255 {
		return nil, fmt.Errorf("rateless: k=%d overflows the symbol index space", p.K)
	}
	pages, err := image.Partition(data, pageBytes(p))
	if err != nil {
		return nil, err
	}
	if len(pages) > 250 {
		return nil, fmt.Errorf("rateless: image needs %d pages, exceeding the unit space", len(pages))
	}
	o := &Object{version: version, params: p, imageSize: len(data), pages: pages}
	o.encoders = make([]*lt.Encoder, len(pages))
	for i, page := range pages {
		blocks, err := image.Blocks(page, p.K)
		if err != nil {
			return nil, err
		}
		enc, err := lt.NewEncoder(blocks, lt.DefaultParams())
		if err != nil {
			return nil, err
		}
		o.encoders[i] = enc
	}
	return o, nil
}

// Version returns the code version.
func (o *Object) Version() uint16 { return o.version }

// NumPages returns g.
func (o *Object) NumPages() int { return len(o.pages) }

// ImageSize returns the original image length.
func (o *Object) ImageSize() int { return o.imageSize }

// Handler is a node's object state, implementing dissem.ObjectHandler.
type Handler struct {
	version uint16
	params  image.Params
	total   int

	pages    [][]byte // decoded pages
	encoders []*lt.Encoder

	dec     *lt.Decoder
	have    []bool // pool indices received for the current page
	haveCnt int
}

var _ dissem.ObjectHandler = (*Handler)(nil)

// NewHandler creates an empty receiver-side handler.
func NewHandler(version uint16, p image.Params) (*Handler, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if poolFactor*p.K > 255 {
		return nil, fmt.Errorf("rateless: k=%d overflows the symbol index space", p.K)
	}
	h := &Handler{version: version, params: p}
	if err := h.resetCurrent(); err != nil {
		return nil, err
	}
	return h, nil
}

// Preload creates a handler that already possesses the whole object.
func Preload(o *Object) *Handler {
	h := &Handler{
		version:  o.version,
		params:   o.params,
		total:    len(o.pages),
		pages:    o.pages,
		encoders: o.encoders,
	}
	_ = h.resetCurrent()
	return h
}

func (h *Handler) resetCurrent() error {
	dec, err := lt.NewDecoder(h.params.K, blockSize(h.params), lt.DefaultParams())
	if err != nil {
		return err
	}
	h.dec = dec
	h.have = make([]bool, poolFactor*h.params.K)
	h.haveCnt = 0
	return nil
}

// WipeVolatile implements dissem.ObjectHandler: a power loss discards the
// in-progress page's LT decoder state; completed pages survive in flash. The
// reset cannot fail here — the decoder parameters were validated when the
// handler was built.
func (h *Handler) WipeVolatile() {
	_ = h.resetCurrent()
}

// Version implements dissem.ObjectHandler.
func (h *Handler) Version() uint16 { return h.version }

// TotalUnits implements dissem.ObjectHandler.
func (h *Handler) TotalUnits() int { return h.total }

// CompleteUnits implements dissem.ObjectHandler.
func (h *Handler) CompleteUnits() int { return len(h.pages) }

// PacketsInUnit implements dissem.ObjectHandler: the per-page symbol pool.
func (h *Handler) PacketsInUnit(int) int { return poolFactor * h.params.K }

// NeededInUnit implements dissem.ObjectHandler: the LT overhead estimate
// (decoding is probabilistic; completion is decided by the decoder, and a
// short request round triggers a fresh SNACK).
func (h *Handler) NeededInUnit(int) int { return ltOverheadEstimate(h.params.K) }

// HasPacket implements dissem.ObjectHandler.
func (h *Handler) HasPacket(u, idx int) bool {
	switch {
	case u < len(h.pages):
		return true
	case u == len(h.pages) && idx >= 0 && idx < len(h.have):
		return h.have[idx]
	default:
		return false
	}
}

// LearnTotal implements dissem.ObjectHandler: like Deluge, object summaries
// are trusted (no authentication at all).
func (h *Handler) LearnTotal(total int) {
	if h.total == 0 && total > 0 {
		h.total = total
	}
}

// Ingest implements dissem.ObjectHandler: feed the symbol to the LT peeling
// decoder; the page completes whenever the decoder does.
func (h *Handler) Ingest(d *packet.Data) dissem.IngestResult {
	u := int(d.Unit)
	if u != len(h.pages) {
		return dissem.Stale
	}
	idx := int(d.Index)
	if idx < 0 || idx >= len(h.have) || len(d.Payload) != blockSize(h.params) || len(d.Proof) != 0 {
		return dissem.Rejected
	}
	if h.have[idx] {
		return dissem.Duplicate
	}
	h.have[idx] = true
	h.haveCnt++
	//lrlint:ignore verify-before-use Rateless Deluge decodes unauthenticated LT symbols by design (paper §II-B, §VII); this decode-before-verify exposure is exactly the DoS vector LR-Seluge's immediate authentication closes
	done, err := h.dec.AddSeed(symbolSeed(u, idx), d.Payload)
	if err != nil {
		return dissem.Rejected
	}
	if !done {
		return dissem.Stored
	}
	blocks, err := h.dec.Blocks()
	if err != nil {
		return dissem.Stored
	}
	page := image.Join(blocks)
	enc, err := lt.NewEncoder(blocks, lt.DefaultParams())
	if err != nil {
		return dissem.Stored
	}
	h.pages = append(h.pages, page)
	h.encoders = append(h.encoders, enc)
	if err := h.resetCurrent(); err != nil {
		return dissem.Rejected
	}
	return dissem.UnitComplete
}

// Authentic implements dissem.ObjectHandler: structural checks only — this
// baseline has no cryptographic protection, which is its point.
func (h *Handler) Authentic(d *packet.Data) bool {
	return int(d.Index) < poolFactor*h.params.K && len(d.Payload) == blockSize(h.params)
}

// WantsSig implements dissem.ObjectHandler.
func (h *Handler) WantsSig() bool { return false }

// PreVerifySig implements dissem.ObjectHandler.
func (h *Handler) PreVerifySig(*packet.Sig) bool { return false }

// IngestSig implements dissem.ObjectHandler.
func (h *Handler) IngestSig(*packet.Sig) dissem.IngestResult { return dissem.Stale }

// SigPacket implements dissem.ObjectHandler.
func (h *Handler) SigPacket(packet.NodeID) *packet.Sig { return nil }

// Packet implements dissem.ObjectHandler: regenerate a symbol from the
// shared deterministic encoder.
func (h *Handler) Packet(u, idx int, src packet.NodeID) (*packet.Data, error) {
	if u < 0 || u >= len(h.pages) {
		return nil, fmt.Errorf("rateless: unit %d not held", u)
	}
	if idx < 0 || idx >= poolFactor*h.params.K {
		return nil, fmt.Errorf("rateless: symbol index %d out of range", idx)
	}
	sym := h.encoders[u].Symbol(symbolSeed(u, idx))
	return &packet.Data{
		Src: src, Version: h.version, Unit: packet.Unit(u), Index: uint8(idx),
		Payload: sym.Data,
	}, nil
}

// MatchesImage reports whether the node holds every page and the pages,
// padding stripped, are exactly img. It allocates nothing.
func (h *Handler) MatchesImage(img []byte) bool {
	return h.total > 0 && len(h.pages) >= h.total && image.Matches(h.pages, img)
}
