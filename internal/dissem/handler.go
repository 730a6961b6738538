// Package dissem implements the dissemination state machine shared by
// Deluge, Seluge and LR-Seluge: Trickle-paced advertisements (MAINTAIN),
// SNACK-driven page requests with overhearing and suppression (RX), and
// request-driven serving (TX), per paper §IV-D.
//
// The three protocols differ in (a) how an object decomposes into units and
// packets, (b) how packets are authenticated and pages recovered, and
// (c) which packets a server chooses to transmit. Those three concerns are
// delegated to the ObjectHandler and TxPolicy interfaces; everything else —
// timers, suppression, retry, the denial-of-receipt defense — is shared.
//
// Unit numbering: for secure protocols unit 0 is the signature packet, unit
// 1 the hash page M0, and units 2..g+1 the image pages 1..g. Plain Deluge
// numbers its pages 0..g-1 directly. The engine is agnostic: it always
// requests unit CompleteUnits() next.
package dissem

import (
	"lrseluge/internal/packet"
)

// IngestResult classifies what an incoming packet did to node state.
type IngestResult int

// Ingest outcomes.
const (
	// Rejected: the packet failed authentication or is malformed; it is
	// dropped and counted as an auth drop.
	Rejected IngestResult = iota
	// Stale: the packet is valid in form but not currently useful (wrong
	// unit, already-complete unit); dropped silently.
	Stale
	// Duplicate: an identical packet was already stored.
	Duplicate
	// Stored: the packet was authenticated and stored; the unit is still
	// incomplete.
	Stored
	// UnitComplete: the packet completed its unit (enough packets arrived
	// to recover it).
	UnitComplete
)

// String implements fmt.Stringer.
func (r IngestResult) String() string {
	switch r {
	case Rejected:
		return "rejected"
	case Stale:
		return "stale"
	case Duplicate:
		return "duplicate"
	case Stored:
		return "stored"
	case UnitComplete:
		return "unit-complete"
	default:
		return "unknown"
	}
}

// ObjectHandler is a node's protocol-specific view of the object being
// disseminated: its unit structure, authentication rules, storage and
// packet regeneration. Implementations are single-threaded (simulation
// callbacks only).
type ObjectHandler interface {
	// Version is the code version being disseminated.
	Version() uint16

	// TotalUnits is the number of units in the object, or 0 while still
	// unknown (secure protocols learn it from the verified signature).
	TotalUnits() int

	// CompleteUnits is the number of leading units this node fully
	// possesses; the next unit to request is always CompleteUnits().
	CompleteUnits() int

	// PacketsInUnit returns how many distinct packets compose unit u.
	PacketsInUnit(u int) int

	// NeededInUnit returns how many distinct packets of unit u suffice to
	// recover it (k' for erasure-coded units; all for ARQ units).
	NeededInUnit(u int) int

	// HasPacket reports whether packet idx of unit u is already held, used
	// to build SNACK bit vectors (bit set = still wanted).
	HasPacket(u, idx int) bool

	// LearnTotal is a hint from a neighbor's advertisement about the
	// object's unit count. Non-secure protocols may trust it; secure
	// protocols ignore it and wait for the signature.
	LearnTotal(total int)

	// Ingest authenticates and stores an incoming data packet.
	Ingest(d *packet.Data) IngestResult

	// Authentic reports whether a data packet verifies against this
	// node's current authentication material, without storing it. The
	// engine consults it for packets of already-held units before letting
	// them drive suppression decisions: a forged packet must never
	// postpone requests or cancel queued transmissions, or injection
	// becomes a cheap denial-of-service lever.
	Authentic(d *packet.Data) bool

	// WantsSig reports whether the node still needs the signature packet.
	WantsSig() bool

	// PreVerifySig performs the cheap weak-authenticator (puzzle) check.
	// Only if it returns true does the engine charge the expensive
	// signature verification delay and call IngestSig.
	PreVerifySig(s *packet.Sig) bool

	// IngestSig performs the full signature verification and, on success,
	// establishes the authentication root. Returns UnitComplete when the
	// signature unit becomes complete.
	IngestSig(s *packet.Sig) IngestResult

	// Packet regenerates data packet idx of a complete unit for
	// transmission, stamped with src as the sender.
	Packet(u, idx int, src packet.NodeID) (*packet.Data, error)

	// SigPacket returns the signature packet if held (for serving unit 0),
	// else nil.
	SigPacket(src packet.NodeID) *packet.Sig

	// WipeVolatile models a mote power loss: RAM-resident state — the
	// partial assembly of the in-progress unit — is discarded, while
	// flash-resident state (completed units, the verified signature, and
	// authentication material derivable from completed units) survives.
	// After the call, CompleteUnits is unchanged but the in-progress unit
	// holds no packets.
	WipeVolatile()
}

// TxPolicy chooses which packets a serving node transmits in response to
// accumulated SNACK state (paper §IV-D.3). Implementations: the Deluge
// union-of-bit-vectors policy and the LR-Seluge greedy round-robin
// scheduler over a tracking table.
type TxPolicy interface {
	// OnSNACK merges a request from a neighbor for unit u.
	OnSNACK(from packet.NodeID, u int, bits packet.BitVector)

	// OnDataOverheard notes that another node just broadcast packet idx of
	// unit u, suppressing a duplicate transmission (Deluge's data
	// suppression, paper §II-A). Requesters that miss the overheard copy
	// will re-request it in a later SNACK.
	OnDataOverheard(u, idx int)

	// Next pops the next (unit, packet index) to transmit. ok is false
	// when no work is pending.
	Next() (u, idx int, ok bool)

	// Pending reports whether any transmissions remain queued.
	Pending() bool

	// DropRequester removes all pending state for a neighbor (used by the
	// denial-of-receipt defense).
	DropRequester(from packet.NodeID)

	// Reset clears all pending state.
	Reset()
}
