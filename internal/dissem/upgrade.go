package dissem

import (
	"lrseluge/internal/packet"
	"lrseluge/internal/sim"
	"lrseluge/internal/trace"
)

// Upgrader constructs a fresh handler/policy pair for a newer code version.
// A node only discards its current image state AFTER the new version's
// signature packet verifies (the puzzle key chain binds the version number,
// so an attacker cannot force an upgrade by advertising a bogus version —
// it would need a chain key that hashes to the commitment in `version`
// steps AND a valid signature).
type Upgrader func(version uint16) (ObjectHandler, TxPolicy, error)

// sigAnnounceMinGap rate-limits signature announcements to stale neighbors.
const sigAnnounceMinGap = 2 * sim.Second

// SetUpgrader enables secure version upgrades on this node.
func (n *Node) SetUpgrader(up Upgrader) { n.upgrader = up }

// Upgrade installs a new handler and policy (a newer code version),
// discarding all protocol state of the previous one. It is invoked
// internally once a newer version's signature verifies, and directly by
// test/experiment code to seed the base station with a new image.
func (n *Node) Upgrade(handler ObjectHandler, policy TxPolicy) {
	n.handler = handler
	n.policy = policy
	n.resetRAM()
	n.trk.Reset()
	n.checkComplete()
}

// announceSig broadcasts our signature packet so stale-version neighbors
// can authenticate the new version and begin upgrading (the base station
// "initiates the dissemination process by broadcasting the signature
// packet", paper §IV-E; intermediate nodes repeat it for their own stale
// neighborhoods).
func (n *Node) announceSig() {
	sig := n.handler.SigPacket(n.id)
	if sig == nil {
		return
	}
	now := n.eng.Now()
	if n.lastSigAnnounce != 0 && now-n.lastSigAnnounce < sigAnnounceMinGap {
		return
	}
	n.lastSigAnnounce = now
	n.nw.Broadcast(n.id, sig)
}

// handleNewerSig processes a signature packet for a version above ours:
// verify it with a candidate handler, and only swap state once it checks
// out. Invoked from handleSig; from is the forwarding neighbor.
func (n *Node) handleNewerSig(from packet.NodeID, s *packet.Sig) {
	if n.upgrader == nil || n.sigPending {
		return
	}
	cand, candPolicy, err := n.upgrader(s.Version)
	if err != nil || cand == nil || candPolicy == nil {
		return
	}
	if cand.Version() != s.Version {
		return
	}
	if !cand.PreVerifySig(s) {
		n.col.Drop(n.id, from, s, trace.DropPuzzle)
		return
	}
	// The new version is authentic once verified: only then discard the
	// old image state and start acquiring the new one.
	n.verifySig(from, s, cand, func() { n.Upgrade(cand, candPolicy) })
}
