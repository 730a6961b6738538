package dissem

import (
	"lrseluge/internal/crypt/puzzle"
	"lrseluge/internal/crypt/sign"
	"lrseluge/internal/metrics"
	"lrseluge/internal/obs"
	"lrseluge/internal/packet"
)

// SigContext bundles the security material preloaded on every node (paper
// §IV-B): the base station's public key, held by a sign.Verifier, the puzzle
// key-chain commitment and the puzzle difficulty. The Seluge and LR-Seluge
// handlers of a run share one context to vet signature packets in two
// stages: a one-hash weak-authenticator check, then the expensive signature
// verification, whose curve arithmetic the shared Verifier runs once per
// distinct signature.
type SigContext struct {
	Key        *sign.Verifier
	Commitment puzzle.Key
	Puzzle     puzzle.Params
	// Col, when non-nil, counts FullVerify's verifications. A rejected
	// puzzle is reported by the node that dropped the packet.
	Col *metrics.Collector
	// Obs, when non-nil, attributes puzzle/signature/hash wall time to the
	// crypt phases; the core handlers share the context's timers too. A
	// run's contexts carry its engine's timers (sim.Engine.Obs).
	Obs *obs.Timers
}

// WeakCheck performs the cheap filter: the puzzle key must belong to the
// advertised code version of the key chain, and the puzzle solution must be
// valid for this exact signature packet. Forged signature packets fail here
// unless the adversary spends a brute-force search per packet (paper
// §IV-C.3), which is what makes signature-flooding DoS unattractive.
func (c *SigContext) WeakCheck(s *packet.Sig) bool {
	c.Obs.Start(obs.PhasePuzzle)
	ok := puzzle.VerifyKey(c.Commitment, s.PuzzleKey, int(s.Version)) &&
		puzzle.Verify(c.Puzzle, s.PuzzleMessage(), s.PuzzleKey, s.PuzzleSol)
	c.Obs.End(obs.PhasePuzzle)
	return ok
}

// FullVerify performs the expensive ECDSA verification over the bound
// (version, pages, root) message and accounts it. Every call counts as one
// verification, and its caller charges the node its virtual-time cost
// (Config.SigVerifyDelay), whether or not the shared Verifier answers from
// its memo.
func (c *SigContext) FullVerify(s *packet.Sig) bool {
	if c.Col != nil {
		c.Col.RecordSigVerification()
	}
	c.Obs.Start(obs.PhaseSigVerify)
	ok := c.Key.Verify(s.SignedMessage(), s.Signature)
	c.Obs.End(obs.PhaseSigVerify)
	return ok
}
