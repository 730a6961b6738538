package experiment

import (
	"testing"

	"lrseluge/internal/dissem"
	"lrseluge/internal/image"
	"lrseluge/internal/sim"
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

func TestLRBeatsSelugeAtHighLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run comparison")
	}
	base := Scenario{ImageSize: 4096, Params: smallParams(), Receivers: 10, LossP: 0.3, Seed: 3}
	sel := base
	sel.Protocol = Seluge
	lr := base
	lr.Protocol = LRSeluge
	rs, err := Run(sel)
	if err != nil {
		t.Fatalf("seluge: %v", err)
	}
	rl, err := Run(lr)
	if err != nil {
		t.Fatalf("lr-seluge: %v", err)
	}
	if rs.Completed != rs.Nodes || rl.Completed != rl.Nodes {
		t.Fatalf("incomplete runs: seluge %d/%d, lr %d/%d", rs.Completed, rs.Nodes, rl.Completed, rl.Nodes)
	}
	if rl.DataPkts >= rs.DataPkts {
		t.Errorf("expected LR-Seluge to send fewer data packets at p=0.3: lr=%d seluge=%d", rl.DataPkts, rs.DataPkts)
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
		Dissem:    dissem.Config{CompactRNG: true},
		Seed:      7,
	})
	if err == nil {
		t.Fatal("Run accepted a Dissem config with only CompactRNG set")
	}
}
