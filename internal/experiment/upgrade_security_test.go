package experiment

import (
	"testing"

	"lrseluge/internal/adversary"
	"lrseluge/internal/core"
	"lrseluge/internal/crypt/puzzle"
	"lrseluge/internal/crypt/sign"
	"lrseluge/internal/dissem"
	"lrseluge/internal/image"
	"lrseluge/internal/packet"
	"lrseluge/internal/sim"
)

// TestForgedUpgradeCannotWipeNodes mounts the nastiest version of the
// upgrade attack: an adversary floods signature packets claiming a NEWER
// version. It cannot know the puzzle chain key for that version (the chain
// is one-way), so the weak authenticator must reject every packet and no
// node may abandon its current image.
func TestForgedUpgradeCannotWipeNodes(t *testing.T) {
	params := image.Params{PacketPayload: 72, K: 8, N: 12}
	s := Scenario{
		Protocol:   LRSeluge,
		ImageSize:  2048,
		Params:     params,
		Receivers:  4,
		LossP:      0,
		ExtraNodes: 1,
		Seed:       37,
	}
	e, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	// Give every node an upgrader so the attack surface exists.
	keyPair, err := sign.GenerateDeterministic(s.Seed ^ 0xec)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := puzzle.NewChain([]byte("lrseluge-experiment"), 8)
	if err != nil {
		t.Fatal(err)
	}
	newSigCtx := func() *dissem.SigContext {
		return &dissem.SigContext{
			Pub:        keyPair.Public(),
			Commitment: chain.Commitment(),
			Puzzle:     puzzle.Params{Strength: 8},
			Col:        e.col,
		}
	}
	for _, n := range e.nodes {
		n.SetUpgrader(func(version uint16) (dissem.ObjectHandler, dissem.TxPolicy, error) {
			h, err := core.NewHandler(version, params, newSigCtx())
			if err != nil {
				return nil, nil, err
			}
			return h, h.NewPolicy(), nil
		})
	}
	// Flood forged "version 2" signature packets throughout the run. The
	// attacker has the real version-1 chain key (released) but CANNOT have
	// the version-2 key; use the v1 key to make the forgery as strong as
	// possible.
	v1key, err := chain.Key(1)
	if err != nil {
		t.Fatal(err)
	}
	attackerID := packet.NodeID(5) // the reserved ExtraNodes slot (4 receivers + base)
	fl, err := adversary.NewSigFlooder(attackerID, e.nw, 2, 3, 100*sim.Millisecond, true, v1key, puzzle.Params{Strength: 8}, 99)
	if err != nil {
		t.Fatal(err)
	}
	fl.Start()
	res := e.run()

	if fl.Sent() == 0 {
		t.Fatal("flooder never fired")
	}
	if res.Completed != res.Nodes || !res.ImagesOK {
		t.Fatalf("version-1 dissemination disrupted: %d/%d ok=%v", res.Completed, res.Nodes, res.ImagesOK)
	}
	for i, n := range e.nodes {
		if got := n.Handler().Version(); got != 1 {
			t.Fatalf("node %d was wiped to forged version %d", i, got)
		}
	}
	// Every forged newer-version packet must die at the weak check: the v1
	// chain key cannot verify as the v2 key.
	if res.PuzzleRejects == 0 {
		t.Fatal("no puzzle rejections recorded; attack was vacuous")
	}
}

// TestForgedVersionAdvHarmless: a bare advertisement claiming version 99
// must not change any node's state (upgrades require a verified signature).
func TestForgedVersionAdvHarmless(t *testing.T) {
	params := image.Params{PacketPayload: 72, K: 8, N: 12}
	e, err := Build(Scenario{
		Protocol:  LRSeluge,
		ImageSize: 1024,
		Params:    params,
		Receivers: 3,
		Seed:      41,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range e.nodes {
		n.Start()
	}
	// Deliver forged advs directly into every node mid-run.
	for i := 0; i < 20; i++ {
		e.eng.Schedule(sim.Time(i)*500*sim.Millisecond, func() {
			for _, n := range e.nodes {
				n.HandlePacket(99, &packet.Adv{Src: 99, Version: 99, Units: 250, Total: 250})
			}
		})
	}
	e.eng.Run(e.scenario.Horizon)
	for i, n := range e.nodes {
		if !n.Completed() {
			t.Fatalf("node %d failed to complete under forged version advs", i)
		}
		if n.Handler().Version() != 1 {
			t.Fatalf("node %d changed version from a bare advertisement", i)
		}
	}
}
