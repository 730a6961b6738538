package core

import (
	"math/bits"

	"lrseluge/internal/dissem"
	"lrseluge/internal/obs"
	"lrseluge/internal/packet"
)

// Scheduler is LR-Seluge's greedy round-robin transmission scheduler (paper
// §IV-D.3, Table I): a serving node maintains a tracking table with one
// entry per requesting neighbor (its wanted-packet bit vector and its
// distance d_v = q + k' - n, the number of additional packets it needs) and
// repeatedly transmits the packet wanted by the most neighbors, breaking
// ties round-robin to the right of the previously transmitted index.
//
// This lets one transmission satisfy many neighbors at once and stops as
// soon as every neighbor's distance reaches zero — far fewer transmissions
// than the union policy when losses decorrelate the neighbors' needs.
//
// State is laid out for scale: tracking tables are slices indexed by unit,
// entries are id-sorted slices (iteration order matches the old
// detmap.SortedKeys map walk bit for bit), entry bit vectors are recycled,
// and the popularity tally lives on the stack, so a serving node's footprint
// is O(pages + neighbors) with no steady-state allocation.
type Scheduler struct {
	sizeOf   func(unit int) int
	neededOf func(unit int) int
	// units is indexed by unit number (bounded by the object's TotalUnits,
	// i.e. pages+2); nil means no tracking table.
	units []*trackTable
	// lastIdx persists the round-robin pointer per unit across tracking
	// table drain/recreate cycles, so later request rounds continue into
	// fresh (never-transmitted) encoded packets instead of rescanning from
	// index 0 — fresh packets help every receiver that still needs any.
	// -1 means never transmitted.
	lastIdx []int
}

// trackTable holds one unit's tracking entries, sorted by requester id.
type trackTable struct {
	entries []trackEntry
	// spare recycles the bit-vector storage of removed entries.
	spare []packet.BitVector
	last  int // index of the most recently transmitted packet; -1 initially
}

type trackEntry struct {
	id   packet.NodeID
	bits packet.BitVector
	dist int
}

var _ dissem.TxPolicy = (*Scheduler)(nil)

// NewScheduler creates a scheduler; sizeOf and neededOf map a unit to its
// packet count n and recovery threshold k'.
func NewScheduler(sizeOf, neededOf func(unit int) int) *Scheduler {
	return &Scheduler{
		sizeOf:   sizeOf,
		neededOf: neededOf,
	}
}

// HeapBytes returns the heap bytes the scheduler holds (obs.AllocBytes over
// struct sizes and counts): the struct, its two unit callbacks, the
// per-unit arrays, and each tracking table with its entries' and spare bit
// vectors.
func (s *Scheduler) HeapBytes() int64 {
	b := obs.ObjectBytes(s) + 2*obs.MethodValueBytes + obs.SliceBytes(s.units) + obs.SliceBytes(s.lastIdx)
	for _, tbl := range s.units {
		if tbl == nil {
			continue
		}
		b += obs.ObjectBytes(tbl) + obs.SliceBytes(tbl.entries) + obs.SliceBytes(tbl.spare)
		for i := range tbl.entries {
			b += obs.SliceBytes(tbl.entries[i].bits.Bytes())
		}
		for _, v := range tbl.spare {
			b += obs.SliceBytes(v.Bytes())
		}
	}
	return b
}

// tableOf returns the tracking table for a unit, or nil.
func (s *Scheduler) tableOf(u int) *trackTable {
	if u < 0 || u >= len(s.units) {
		return nil
	}
	return s.units[u]
}

// find binary-searches the sorted entries for id, returning its index and
// whether it is present (the index is the insertion point when absent).
func (tbl *trackTable) find(id packet.NodeID) (int, bool) {
	lo, hi := 0, len(tbl.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if tbl.entries[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(tbl.entries) && tbl.entries[lo].id == id
}

// removeAt splices out entry i, recycling its bit-vector storage.
func (tbl *trackTable) removeAt(i int) {
	tbl.spare = append(tbl.spare, tbl.entries[i].bits)
	tbl.entries = append(tbl.entries[:i], tbl.entries[i+1:]...)
}

// OnSNACK implements dissem.TxPolicy: create or refresh the tracking entry
// for the requester. The distance is d_v = q + k' - n where q is the number
// of requested packets (paper §IV-D.3).
func (s *Scheduler) OnSNACK(from packet.NodeID, u int, bits packet.BitVector) {
	n := s.sizeOf(u)
	if bits.Len() != n {
		return // malformed request
	}
	q := bits.Count()
	dist := q + s.neededOf(u) - n
	tbl := s.tableOf(u)
	if q == 0 || dist <= 0 {
		// The requester can already recover the unit; clear any state.
		if tbl != nil {
			if i, ok := tbl.find(from); ok {
				tbl.removeAt(i)
			}
			if len(tbl.entries) == 0 {
				s.units[u] = nil
			}
		}
		return
	}
	if tbl == nil {
		for u >= len(s.units) {
			s.units = append(s.units, nil)
			s.lastIdx = append(s.lastIdx, -1)
		}
		tbl = &trackTable{last: s.lastIdx[u]}
		s.units[u] = tbl
	}
	i, ok := tbl.find(from)
	if ok {
		tbl.entries[i].bits = tbl.entries[i].bits.CopyFrom(bits)
		tbl.entries[i].dist = dist
		return
	}
	var store packet.BitVector
	if n := len(tbl.spare); n > 0 {
		store = tbl.spare[n-1]
		tbl.spare = tbl.spare[:n-1]
		store = store.CopyFrom(bits)
	} else {
		store = bits.Clone()
	}
	tbl.entries = append(tbl.entries, trackEntry{})
	copy(tbl.entries[i+1:], tbl.entries[i:])
	tbl.entries[i] = trackEntry{id: from, bits: store, dist: dist}
}

// OnDataOverheard implements dissem.TxPolicy: another node just broadcast
// packet idx of unit u; the tracking table is updated exactly as if we had
// transmitted it ourselves (requesters in range received it; any that
// missed it will re-SNACK).
func (s *Scheduler) OnDataOverheard(u, idx int) {
	tbl := s.tableOf(u)
	if tbl == nil || idx < 0 || idx >= s.sizeOf(u) {
		return
	}
	s.clearColumn(tbl, idx)
	if len(tbl.entries) == 0 {
		s.units[u] = nil
	}
}

// clearColumn marks packet idx received by every entry that wanted it,
// dropping entries whose distance reaches zero. Entries are walked in
// ascending id order with in-place compaction.
func (s *Scheduler) clearColumn(tbl *trackTable, idx int) {
	keep := tbl.entries[:0]
	for i := range tbl.entries {
		e := &tbl.entries[i]
		if e.bits.Get(idx) {
			e.bits.Set(idx, false)
			e.dist--
			if e.dist <= 0 {
				tbl.spare = append(tbl.spare, e.bits)
				continue
			}
		}
		keep = append(keep, *e)
	}
	for i := len(keep); i < len(tbl.entries); i++ {
		tbl.entries[i] = trackEntry{}
	}
	tbl.entries = keep
}

// Next implements dissem.TxPolicy: serve the lowest pending unit; within it
// transmit the most popular packet, scanning right from the last transmitted
// index on ties.
func (s *Scheduler) Next() (int, int, bool) {
	for {
		u, tbl, ok := s.lowestUnit()
		if !ok {
			return 0, 0, false
		}
		n := s.sizeOf(u)
		// A unit has at most 256 packets (packet.Data.Index is a uint8).
		var tally [256]int32
		pop := tally[:n]
		maxPop := popularity(tbl, pop)
		if maxPop == 0 {
			// Entries with positive distance but no wanted bits cannot
			// occur for well-formed requests; drop the stale table.
			s.units[u] = nil
			continue
		}
		// Scan circularly starting just right of the last transmission
		// (or from index 0 initially, which also realizes the
		// lowest-index tie-break of the first pick).
		start := 0
		if tbl.last >= 0 {
			start = (tbl.last + 1) % n
		}
		choice := -1
		for off := 0; off < n; off++ {
			j := (start + off) % n
			if pop[j] == maxPop {
				choice = j
				break
			}
		}
		// Update the table: clear column `choice`, decrement distances of
		// the neighbors that wanted it, and drop satisfied entries.
		s.clearColumn(tbl, choice)
		tbl.last = choice
		s.lastIdx[u] = choice
		if len(tbl.entries) == 0 {
			s.units[u] = nil
		}
		return u, choice, true
	}
}

// popularity tallies into pop, which starts zeroed and has one count per
// packet of the unit, how many entries want each packet, and returns the
// maximum. It walks each entry's set bits only; slack bits past the unit's
// last packet are ignored.
func popularity(tbl *trackTable, pop []int32) int32 {
	n := len(pop)
	maxPop := int32(0)
	for i := range tbl.entries {
		for k, b := range tbl.entries[i].bits.Bytes() {
			for ; b != 0; b &= b - 1 {
				j := k*8 + bits.TrailingZeros8(b)
				if j >= n {
					break
				}
				pop[j]++
				if pop[j] > maxPop {
					maxPop = pop[j]
				}
			}
		}
	}
	return maxPop
}

// Pending implements dissem.TxPolicy.
func (s *Scheduler) Pending() bool {
	for _, tbl := range s.units {
		if tbl != nil && len(tbl.entries) > 0 {
			return true
		}
	}
	return false
}

// DropRequester implements dissem.TxPolicy: the denial-of-receipt defense
// removes all state for the offending neighbor.
func (s *Scheduler) DropRequester(from packet.NodeID) {
	for u, tbl := range s.units {
		if tbl == nil {
			continue
		}
		if i, ok := tbl.find(from); ok {
			tbl.removeAt(i)
		}
		if len(tbl.entries) == 0 {
			s.units[u] = nil
		}
	}
}

// Reset implements dissem.TxPolicy.
func (s *Scheduler) Reset() {
	s.units = nil
	s.lastIdx = nil
}

// Tracking returns the current wanted-bit vectors and distances for a unit,
// exposed for tests reproducing the paper's Table I.
func (s *Scheduler) Tracking(u int) (map[packet.NodeID]string, map[packet.NodeID]int) {
	tbl := s.tableOf(u)
	if tbl == nil {
		return nil, nil
	}
	bits := make(map[packet.NodeID]string, len(tbl.entries))
	dist := make(map[packet.NodeID]int, len(tbl.entries))
	for i := range tbl.entries {
		bits[tbl.entries[i].id] = tbl.entries[i].bits.String()
		dist[tbl.entries[i].id] = tbl.entries[i].dist
	}
	return bits, dist
}

// lowestUnit returns the lowest unit with live entries, clearing drained
// tables on the way. The ascending scan reproduces the sorted-key order of
// the map-based implementation.
func (s *Scheduler) lowestUnit() (int, *trackTable, bool) {
	for u, tbl := range s.units {
		if tbl == nil {
			continue
		}
		if len(tbl.entries) > 0 {
			return u, tbl, true
		}
		s.units[u] = nil
	}
	return 0, nil, false
}
