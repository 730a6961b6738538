package experiment

import (
	"fmt"

	"lrseluge/internal/core"
	"lrseluge/internal/crypt/puzzle"
	"lrseluge/internal/crypt/sign"
	"lrseluge/internal/dissem"
	"lrseluge/internal/image"
	"lrseluge/internal/metrics"
	"lrseluge/internal/packet"
	"lrseluge/internal/radio"
	"lrseluge/internal/sim"
	"lrseluge/internal/topo"
)

// UpgradeResult reports a secure version-upgrade experiment: a network in
// steady state on version 1 is reprogrammed to version 2.
type UpgradeResult struct {
	Nodes int

	// V1Latency is the initial dissemination latency of version 1.
	V1Latency sim.Time
	// UpgradeLatency is the time from injecting version 2 at the base
	// station until every node runs it.
	UpgradeLatency sim.Time
	// UpgradeBytes is the communication spent on the upgrade phase.
	UpgradeBytes int64
	// Upgraded counts nodes that completed version 2.
	Upgraded int
	// ImagesOK is true when every node's version-2 image matches.
	ImagesOK bool
	// SigVerifications across both phases (each node verifies one
	// signature per version).
	SigVerifications int64
}

// VersionUpgrade disseminates a version-1 image with LR-Seluge, then
// injects a version-2 image at the base station and measures the secure
// upgrade: stale nodes only discard their state after the new version's
// signature (bound to the puzzle key chain) verifies.
func VersionUpgrade(params image.Params, imageSize, receivers int, lossP float64, seed int64) (UpgradeResult, error) {
	var out UpgradeResult
	if err := params.Validate(); err != nil {
		return out, err
	}
	keyPair, err := sign.GenerateDeterministic(seed ^ 0xec)
	if err != nil {
		return out, err
	}
	chain, err := puzzle.NewChain([]byte("lrseluge-upgrade"), 8)
	if err != nil {
		return out, err
	}
	pp := puzzle.Params{Strength: 8}

	imgV1 := image.Random(imageSize, seed^0x11)
	imgV2 := image.Random(imageSize, seed^0x22)
	objV1, err := core.Build(core.BuildInput{Version: 1, Image: imgV1, Params: params, Key: keyPair, Chain: chain, Puzzle: pp})
	if err != nil {
		return out, err
	}
	objV2, err := core.Build(core.BuildInput{Version: 2, Image: imgV2, Params: params, Key: keyPair, Chain: chain, Puzzle: pp})
	if err != nil {
		return out, err
	}

	eng := sim.New()
	col := metrics.New()
	graph, err := topo.Complete(receivers + 1)
	if err != nil {
		return out, err
	}
	var loss radio.LossModel = radio.NoLoss{}
	if lossP > 0 {
		loss = radio.Bernoulli{P: lossP}
	}
	nw, err := radio.New(eng, graph, loss, radio.DefaultConfig(), col, seed^0x5eed)
	if err != nil {
		return out, err
	}

	newSigCtx := func() *dissem.SigContext {
		return &dissem.SigContext{Pub: keyPair.Public(), Commitment: chain.Commitment(), Puzzle: pp, Col: col}
	}
	// One store for the run, shared across versions: entries are keyed by
	// each version's signed root, so v1 and v2 content stays apart.
	store := core.NewStore()

	numNodes := receivers + 1
	out.Nodes = numNodes
	nodes := make([]*dissem.Node, numNodes)
	handlers := make([]func() *core.Handler, numNodes) // current handler accessor

	completedV1 := 0
	completedV2 := 0
	cfg := dissem.DefaultConfig()
	for id := 0; id < numNodes; id++ {
		var h *core.Handler
		if id == 0 {
			h = core.Preload(objV1, newSigCtx())
		} else {
			h, err = core.NewHandler(1, params, store, newSigCtx())
			if err != nil {
				return out, err
			}
		}
		node, err := dissem.NewNode(packet.NodeID(id), nw, cfg, h, h.NewPolicy(), seed+int64(id)*7919)
		if err != nil {
			return out, err
		}
		node.SetUpgrader(func(version uint16) (dissem.ObjectHandler, dissem.TxPolicy, error) {
			nh, err := core.NewHandler(version, params, store, newSigCtx())
			if err != nil {
				return nil, nil, err
			}
			return nh, nh.NewPolicy(), nil
		})
		node.SetOnComplete(func(packet.NodeID, sim.Time) {
			switch node.Handler().Version() {
			case 1:
				completedV1++
				if completedV1 == numNodes {
					eng.Stop()
				}
			case 2:
				completedV2++
				if completedV2 == numNodes {
					eng.Stop()
				}
			}
		})
		nodes[id] = node
		handlers[id] = func() *core.Handler { return node.Handler().(*core.Handler) }
	}

	// Phase 1: disseminate version 1.
	for _, n := range nodes {
		n.Start()
	}
	horizon := 4 * 3600 * sim.Second
	eng.Run(horizon)
	if completedV1 != numNodes {
		return out, fmt.Errorf("experiment: version 1 incomplete (%d/%d)", completedV1, numNodes)
	}
	out.V1Latency = col.Latency()

	// Phase 2: inject version 2 at the base station.
	upgradeStart := eng.Now()
	bytesBefore := col.TotalBytes()
	h2 := core.Preload(objV2, newSigCtx())
	nodes[0].Upgrade(h2, h2.NewPolicy())
	completedV2 = 1 // the base is already complete on v2
	eng.Run(upgradeStart + horizon)

	out.Upgraded = completedV2
	out.UpgradeLatency = eng.Now() - upgradeStart
	out.UpgradeBytes = col.TotalBytes() - bytesBefore
	out.SigVerifications = col.SigVerifications()
	out.ImagesOK = true
	for id := 0; id < numNodes; id++ {
		h := handlers[id]()
		if h.Version() != 2 || !h.MatchesImage(imgV2) {
			out.ImagesOK = false
		}
	}
	return out, nil
}
