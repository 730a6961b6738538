package dissem

import "lrseluge/internal/packet"

// UnionPolicy is the Deluge/Seluge transmission policy: "a node in Deluge
// and Seluge simply transmits packets corresponding to the union of bit
// vectors in SNACK packets" (paper §IV-D.3). Units are served lowest-first;
// within a unit, packets go out in index order. Re-requests (after loss)
// simply set the bits again.
type UnionPolicy struct {
	sizeOf func(unit int) int
	// units[u] is unit u's pending-packet vector, made on the unit's first
	// request and cleared, not freed, once served, so a re-request reuses
	// it. A unit never requested has the zero (empty) vector.
	units []packet.BitVector
}

var _ TxPolicy = (*UnionPolicy)(nil)

// NewUnionPolicy creates a union policy; sizeOf maps a unit to its packet
// count (for allocating bit vectors).
func NewUnionPolicy(sizeOf func(unit int) int) *UnionPolicy {
	return &UnionPolicy{sizeOf: sizeOf}
}

// OnSNACK implements TxPolicy.
func (p *UnionPolicy) OnSNACK(_ packet.NodeID, u int, bits packet.BitVector) {
	for len(p.units) <= u {
		p.units = append(p.units, packet.BitVector{})
	}
	cur := p.units[u]
	if cur.Len() == 0 {
		cur = packet.NewBitVector(p.sizeOf(u))
		p.units[u] = cur
	}
	if cur.Len() != bits.Len() {
		return // malformed request; ignore
	}
	cur.Or(bits)
}

// OnDataOverheard implements TxPolicy: another node already broadcast this
// exact packet, so drop it from our queue (data suppression; requesters
// that missed the overheard copy will re-request it).
func (p *UnionPolicy) OnDataOverheard(u, idx int) {
	if u >= len(p.units) || idx < 0 || idx >= p.units[u].Len() {
		return
	}
	p.units[u].Set(idx, false)
}

// Next implements TxPolicy: lowest pending unit, lowest pending index.
func (p *UnionPolicy) Next() (int, int, bool) {
	u, ok := p.lowestPendingUnit()
	if !ok {
		return 0, 0, false
	}
	bits := p.units[u]
	for i := 0; i < bits.Len(); i++ {
		if bits.Get(i) {
			bits.Set(i, false)
			return u, i, true
		}
	}
	return 0, 0, false
}

// Pending implements TxPolicy.
func (p *UnionPolicy) Pending() bool {
	_, ok := p.lowestPendingUnit()
	return ok
}

// DropRequester implements TxPolicy. The union policy does not track
// per-requester state, so this is a no-op; the engine-level defense stops
// feeding new SNACKs from the offender instead.
func (p *UnionPolicy) DropRequester(packet.NodeID) {}

// Reset implements TxPolicy.
func (p *UnionPolicy) Reset() {
	clear(p.units)
	p.units = p.units[:0]
}

func (p *UnionPolicy) lowestPendingUnit() (int, bool) {
	for u, bits := range p.units {
		if bits.Any() {
			return u, true
		}
	}
	return 0, false
}
