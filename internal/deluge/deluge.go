// Package deluge implements the Deluge code-dissemination baseline (Hui &
// Culler), the de facto protocol Seluge and LR-Seluge build on: a code image
// split into fixed-size pages of k packets each, disseminated page-by-page
// with Trickle-paced advertisements and SNACK-based ARQ (paper §II-A).
//
// Deluge has no security: packets are stored as they arrive. Units are pages
// directly (unit u = page u+1 in paper numbering).
package deluge

import (
	"fmt"

	"lrseluge/internal/dissem"
	"lrseluge/internal/image"
	"lrseluge/internal/packet"
)

// Object is the base station's prepared code image: the pages every
// transmitting node serves.
type Object struct {
	version   uint16
	params    image.Params
	imageSize int
	pages     [][]byte // each k*payload bytes
}

// NewObject partitions a code image into Deluge pages.
func NewObject(version uint16, data []byte, p image.Params) (*Object, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pages, err := image.Partition(data, p.DelugePageBytes())
	if err != nil {
		return nil, err
	}
	if len(pages) > 250 {
		return nil, fmt.Errorf("deluge: image needs %d pages, exceeding the unit space", len(pages))
	}
	return &Object{version: version, params: p, imageSize: len(data), pages: pages}, nil
}

// Version returns the object's code version.
func (o *Object) Version() uint16 { return o.version }

// NumPages returns g, the page count.
func (o *Object) NumPages() int { return len(o.pages) }

// ImageSize returns the original image length in bytes.
func (o *Object) ImageSize() int { return o.imageSize }

// Handler is a node's Deluge object state, implementing
// dissem.ObjectHandler. The zero value is not usable; use NewHandler or
// Preload.
type Handler struct {
	version uint16
	params  image.Params
	total   int // 0 until learned from an advertisement

	pages [][]byte // completed pages, in order

	// Current (next) page assembly state.
	have  []bool
	buf   [][]byte
	count int
}

var _ dissem.ObjectHandler = (*Handler)(nil)

// NewHandler creates an empty receiver-side handler for the given version.
func NewHandler(version uint16, p image.Params) (*Handler, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	h := &Handler{version: version, params: p}
	h.resetCurrent()
	return h, nil
}

// Preload creates a handler that already possesses the whole object (the
// base station).
func Preload(o *Object) *Handler {
	h := &Handler{
		version: o.version,
		params:  o.params,
		total:   len(o.pages),
		pages:   o.pages,
	}
	h.resetCurrent()
	return h
}

func (h *Handler) resetCurrent() {
	h.have = make([]bool, h.params.K)
	h.buf = make([][]byte, h.params.K)
	h.count = 0
}

// WipeVolatile implements dissem.ObjectHandler: a power loss discards the
// in-progress page's RAM buffer; completed pages (and the page count learned
// from advertisements, kept as image metadata) survive in flash.
func (h *Handler) WipeVolatile() {
	h.resetCurrent()
}

// Version implements dissem.ObjectHandler.
func (h *Handler) Version() uint16 { return h.version }

// TotalUnits implements dissem.ObjectHandler.
func (h *Handler) TotalUnits() int { return h.total }

// CompleteUnits implements dissem.ObjectHandler.
func (h *Handler) CompleteUnits() int { return len(h.pages) }

// PacketsInUnit implements dissem.ObjectHandler: every page has k packets.
func (h *Handler) PacketsInUnit(int) int { return h.params.K }

// NeededInUnit implements dissem.ObjectHandler: ARQ needs them all.
func (h *Handler) NeededInUnit(int) int { return h.params.K }

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

// LearnTotal implements dissem.ObjectHandler. Deluge trusts object-size
// summaries from neighbors (it has no authentication at all).
func (h *Handler) LearnTotal(total int) {
	if h.total == 0 && total > 0 {
		h.total = total
	}
}

// Ingest implements dissem.ObjectHandler. No authentication: any well-formed
// packet for the current page is stored.
func (h *Handler) Ingest(d *packet.Data) dissem.IngestResult {
	u := int(d.Unit)
	if u != len(h.pages) {
		return dissem.Stale
	}
	idx := int(d.Index)
	if idx < 0 || idx >= h.params.K || len(d.Payload) != h.params.PacketPayload {
		return dissem.Rejected
	}
	if h.have[idx] {
		return dissem.Duplicate
	}
	h.have[idx] = true
	//lrlint:ignore verify-before-use Deluge is the intentionally unauthenticated baseline (paper §II); it buffers raw payloads so experiments can measure what LR-Seluge's per-packet authentication costs
	h.buf[idx] = append([]byte(nil), d.Payload...)
	h.count++
	if h.count < h.params.K {
		return dissem.Stored
	}
	h.pages = append(h.pages, image.Join(h.buf))
	h.resetCurrent()
	return dissem.UnitComplete
}

// Authentic implements dissem.ObjectHandler: Deluge performs no
// authentication whatsoever (which is exactly the weakness Seluge fixes),
// so every well-formed packet counts as genuine for suppression purposes.
func (h *Handler) Authentic(d *packet.Data) bool {
	return int(d.Index) < h.params.K && len(d.Payload) == h.params.PacketPayload
}

// WantsSig implements dissem.ObjectHandler: Deluge has no signature.
func (h *Handler) WantsSig() bool { return false }

// PreVerifySig implements dissem.ObjectHandler.
func (h *Handler) PreVerifySig(*packet.Sig) bool { return false }

// IngestSig implements dissem.ObjectHandler.
func (h *Handler) IngestSig(*packet.Sig) dissem.IngestResult { return dissem.Stale }

// SigPacket implements dissem.ObjectHandler.
func (h *Handler) SigPacket(packet.NodeID) *packet.Sig { return nil }

// Packet implements dissem.ObjectHandler: regenerate a page packet by
// slicing the stored page.
func (h *Handler) Packet(u, idx int, src packet.NodeID) (*packet.Data, error) {
	if u < 0 || u >= len(h.pages) {
		return nil, fmt.Errorf("deluge: unit %d not held (have %d)", u, len(h.pages))
	}
	if idx < 0 || idx >= h.params.K {
		return nil, fmt.Errorf("deluge: packet index %d out of range", idx)
	}
	return &packet.Data{
		Src:     src,
		Version: h.version,
		Unit:    packet.Unit(u),
		Index:   uint8(idx),
		Payload: h.pages[u][idx*h.params.PacketPayload : (idx+1)*h.params.PacketPayload],
	}, nil
}

// MatchesImage reports whether the node holds every page and the pages,
// padding stripped, are exactly img. It allocates nothing.
func (h *Handler) MatchesImage(img []byte) bool {
	return h.total > 0 && len(h.pages) >= h.total && image.Matches(h.pages, img)
}

// NewPolicy returns the Deluge transmission policy (union of SNACK bit
// vectors).
func NewPolicy(p image.Params) dissem.TxPolicy {
	return dissem.NewUnionPolicy(func(int) int { return p.K })
}
