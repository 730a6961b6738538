package lrseluge

import (
	"math"
	"testing"
)

func TestFacadeRun(t *testing.T) {
	res, err := Run(Scenario{
		Protocol:  LRSeluge,
		ImageSize: 4 * 1024,
		Receivers: 5,
		LossP:     0.1,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Nodes || !res.ImagesOK {
		t.Fatalf("facade run failed: %+v", res)
	}
}

func TestFacadeDefaults(t *testing.T) {
	p := DefaultParams()
	if p.K != 32 || p.N != 48 || p.PacketPayload != 72 {
		t.Fatalf("defaults changed unexpectedly: %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeTopologies(t *testing.T) {
	if g, err := OneHop(5); err != nil || g.NumNodes() != 5 {
		t.Fatalf("OneHop: %v", err)
	}
	if g, err := Grid(4, 4, Medium); err != nil || g.NumNodes() != 16 {
		t.Fatalf("Grid: %v", err)
	}
	if g, err := RandomTopology(10, 50, 1); err != nil || g.NumNodes() != 10 {
		t.Fatalf("RandomTopology: %v", err)
	}
}

func TestFacadeParseDensity(t *testing.T) {
	if d, err := ParseDensity("medium"); err != nil || d != Medium {
		t.Fatalf("ParseDensity(medium) = %v, %v", d, err)
	}
	if _, err := ParseDensity("meduim"); err == nil {
		t.Fatal("misspelt density accepted")
	}
}

func TestFacadeAnalysis(t *testing.T) {
	s, err := SelugeExpectedDataTx(32, 20, 0)
	if err != nil || s != 32 {
		t.Fatalf("SelugeExpectedDataTx: %f %v", s, err)
	}
	l, err := ACKLRExpectedDataTx(32, 48, 32, 20, 0)
	if err != nil || l != 48 {
		t.Fatalf("ACKLRExpectedDataTx: %f %v", l, err)
	}
	// In the lossy regime the erasure-coded bound must win.
	s, _ = SelugeExpectedDataTx(32, 20, 0.25)
	l, _ = ACKLRExpectedDataTx(32, 48, 32, 20, 0.25)
	if l >= s {
		t.Fatalf("expected ACK-LR (%f) < Seluge (%f) at p=0.25", l, s)
	}
	if math.IsNaN(s) || math.IsNaN(l) {
		t.Fatal("NaN from analysis")
	}
}

func TestFacadeLossModels(t *testing.T) {
	if BernoulliLoss(0.5) == nil || HeavyNoise() == nil {
		t.Fatal("nil loss models")
	}
}

func TestProtocolNames(t *testing.T) {
	if Deluge.String() != "Deluge" || Seluge.String() != "Seluge" || LRSeluge.String() != "LR-Seluge" {
		t.Fatal("protocol names wrong")
	}
	if GreedyRR.String() != "greedy-rr" || UnionBits.String() != "union" || FreshRR.String() != "fresh-rr" {
		t.Fatal("policy names wrong")
	}
}
