package experiment

import (
	"testing"

	"lrseluge/internal/core"
	"lrseluge/internal/dissem"
	"lrseluge/internal/image"
	"lrseluge/internal/packet"
	"lrseluge/internal/sim"
)

// TestLateJoinerCatchesUp exercises the MAINTAIN machinery the paper
// inherits from Deluge: a node that boots long after the dissemination
// finished must still obtain the image from its (now idle) neighbors via
// Trickle advertisements — LR-Seluge's any-node-can-serve property.
func TestLateJoinerCatchesUp(t *testing.T) {
	params := image.Params{PacketPayload: 72, K: 8, N: 12}
	s := Scenario{
		Protocol:   LRSeluge,
		ImageSize:  2048,
		Params:     params,
		Receivers:  3,
		LossP:      0.1,
		ExtraNodes: 1, // reserve a slot for the late joiner
		Seed:       17,
	}
	e, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	e.run()
	if e.col.Completions() != len(e.nodes) {
		t.Fatalf("setup: initial dissemination incomplete (%d/%d)", e.col.Completions(), len(e.nodes))
	}

	// Boot the late joiner on the reserved slot with the same preloaded
	// security material.
	h, err := core.NewHandler(1, e.scheme, e.store, e.sig)
	if err != nil {
		t.Fatal(err)
	}
	lateID := packet.NodeID(4)
	node, err := dissem.NewNode(lateID, e.nw, &e.scenario.Dissem, h, h.NewPolicy(), 999)
	if err != nil {
		t.Fatal(err)
	}
	node.Start()

	// Give it a few minutes of virtual time: the idle network's Trickle
	// interval has backed off toward IMax (60 s), so discovery can take a
	// couple of intervals.
	e.eng.Run(e.eng.Now() + 10*60*sim.Second)
	if !node.Completed() {
		t.Fatalf("late joiner incomplete: %d/%d units", h.CompleteUnits(), h.TotalUnits())
	}
	if !h.MatchesImage(e.imageData) {
		t.Fatal("late joiner reconstructed a different image")
	}
}
