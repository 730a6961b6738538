package experiment

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lrseluge/internal/image"
	"lrseluge/internal/radio"
)

// TestRandomScenariosProperty is the system-level invariant: for ANY sane
// parameter combination, dissemination terminates with every node holding
// the exact image bytes, for all three protocols.
func TestRandomScenariosProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(9)         // 2..10
		n := k + rng.Intn(9)         // k..k+8
		receivers := 2 + rng.Intn(7) // 2..8
		lossP := rng.Float64() * 0.3
		size := 512 + rng.Intn(2048)
		proto := Protocol(rng.Intn(3))
		params := image.Params{PacketPayload: 72, K: k, N: n}
		if params.Validate() != nil {
			return true // skip infeasible geometry
		}
		res, err := Run(Scenario{
			Protocol:  proto,
			ImageSize: size,
			Params:    params,
			Receivers: receivers,
			LossP:     lossP,
			Seed:      seed,
		})
		if err != nil {
			t.Logf("seed %d (proto=%v k=%d n=%d N=%d p=%.2f): %v", seed, proto, k, n, receivers, lossP, err)
			return false
		}
		if res.Completed != res.Nodes || !res.ImagesOK {
			t.Logf("seed %d (proto=%v k=%d n=%d N=%d p=%.2f size=%d): completed=%d/%d imagesOK=%v",
				seed, proto, k, n, receivers, lossP, size, res.Completed, res.Nodes, res.ImagesOK)
			return false
		}
		if res.ForgedAccepted != 0 {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestWireCheckMode runs full disseminations where every delivered packet is
// forced through its wire format: the protocols must work on exactly what
// the marshaled bytes carry.
func TestWireCheckMode(t *testing.T) {
	rcfg := radio.DefaultConfig()
	rcfg.WireCheck = true
	for _, proto := range []Protocol{Deluge, Seluge, LRSeluge} {
		res, err := Run(Scenario{
			Protocol:  proto,
			ImageSize: 2048,
			Params:    image.Params{PacketPayload: 72, K: 8, N: 12},
			Receivers: 4,
			LossP:     0.15,
			Radio:     rcfg,
			Seed:      13,
		})
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if res.Completed != res.Nodes || !res.ImagesOK {
			t.Fatalf("%v under wire-check: completed=%d/%d ok=%v", proto, res.Completed, res.Nodes, res.ImagesOK)
		}
	}
}

// TestRatelessDelugeEndToEnd runs the insecure rateless baseline end to end
// under loss.
func TestRatelessDelugeEndToEnd(t *testing.T) {
	for _, p := range []float64{0, 0.2} {
		res, err := Run(Scenario{
			Protocol:  RatelessDeluge,
			ImageSize: 4096,
			Params:    image.Params{PacketPayload: 72, K: 8, N: 8},
			Receivers: 6,
			LossP:     p,
			Seed:      29,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != res.Nodes || !res.ImagesOK {
			t.Fatalf("p=%.1f: completed=%d/%d ok=%v", p, res.Completed, res.Nodes, res.ImagesOK)
		}
		if res.SigPkts != 0 || res.SigVerifications != 0 {
			t.Fatal("rateless baseline used signature machinery")
		}
	}
}
