package experiment

import (
	"testing"

	"lrseluge/internal/dissem"
	"lrseluge/internal/image"
	"lrseluge/internal/sim"
	"lrseluge/internal/topo"
)

// smallParams keeps unit counts tiny so integration tests run fast.
func smallParams() image.Params {
	return image.Params{PacketPayload: 72, K: 8, N: 12}
}

func TestRunCompletesAllProtocolsNoLoss(t *testing.T) {
	for _, proto := range []Protocol{Deluge, Seluge, LRSeluge} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			res, err := Run(Scenario{
				Protocol:  proto,
				ImageSize: 2048,
				Params:    smallParams(),
				Receivers: 4,
				Seed:      7,
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Completed != res.Nodes {
				t.Fatalf("completed %d of %d nodes; latency=%v", res.Completed, res.Nodes, res.Latency)
			}
			if !res.ImagesOK {
				t.Fatalf("image verification failed")
			}
			if res.DataPkts == 0 {
				t.Fatalf("no data packets recorded")
			}
		})
	}
}

func TestRunCompletesUnderLoss(t *testing.T) {
	for _, proto := range []Protocol{Seluge, LRSeluge} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			res, err := Run(Scenario{
				Protocol:  proto,
				ImageSize: 2048,
				Params:    smallParams(),
				Receivers: 5,
				LossP:     0.2,
				Seed:      11,
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Completed != res.Nodes {
				t.Fatalf("completed %d of %d nodes; latency=%v", res.Completed, res.Nodes, res.Latency)
			}
			if !res.ImagesOK {
				t.Fatalf("image verification failed")
			}
		})
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	s := Scenario{Protocol: LRSeluge, ImageSize: 1024, Params: smallParams(), Receivers: 3, LossP: 0.1, Seed: 42}
	a, err := Run(s)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := Run(s)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a != b {
		t.Fatalf("same seed produced different results:\n%+v\n%+v", a, b)
	}
}

func TestHorizonCapsRuntime(t *testing.T) {
	res, err := Run(Scenario{
		Protocol:  Seluge,
		ImageSize: 4096,
		Params:    smallParams(),
		Receivers: 4,
		LossP:     0.6, // brutal: may not finish within the tiny horizon
		Seed:      5,
		Horizon:   5 * sim.Second,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Latency > 5*sim.Second {
		t.Fatalf("latency %v exceeds horizon", res.Latency)
	}
}

// TestPartialDissemConfigRejected pins that defaults fill only a zero-valued
// Dissem: a partly set config reaches dissem's validation and fails the run
// instead of being silently replaced by the defaults.
func TestPartialDissemConfigRejected(t *testing.T) {
	_, err := Run(Scenario{
		Protocol:  LRSeluge,
		ImageSize: 2048,
		Params:    smallParams(),
		Receivers: 2,
		Dissem:    dissem.Config{SNACKServeLimit: 5},
		Seed:      7,
	})
	if err == nil {
		t.Fatal("Run accepted a Dissem config with only SNACKServeLimit set")
	}
}

// TestRunStopsAtLastReachableCompletion pins the stop rule: a node with no
// path from the base station can never complete, so the run ends at the
// last reachable node's completion instead of advertising until the
// horizon, and the unreachable node is left out of ImagesOK.
func TestRunStopsAtLastReachableCompletion(t *testing.T) {
	// The first sparse random disk with exactly one node cut off.
	var graph *topo.Graph
	for seed := int64(1); graph == nil; seed++ {
		g, err := topo.Disk(12, 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		if g.Unreachable() == 1 {
			graph = g
		}
	}
	e, err := Build(Scenario{Protocol: LRSeluge, Graph: graph, ImageSize: 2048, Params: smallParams(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := e.run()
	if res.Completed != res.Nodes-1 || e.Unreachable() != 1 {
		t.Fatalf("completed %d of %d with %d unreachable, want %d and 1", res.Completed, res.Nodes, e.Unreachable(), res.Nodes-1)
	}
	if now := e.eng.Now(); now != res.Latency {
		t.Fatalf("run ended at %v, want the last completion at %v", now, res.Latency)
	}
	if !res.ImagesOK {
		t.Fatal("a reachable node does not hold the image")
	}
}
