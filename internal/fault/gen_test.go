package fault

import (
	"reflect"
	"testing"

	"lrseluge/internal/sim"
)

// pairingInvariants re-validates a generated plan and additionally checks
// that the plan ends with everything back up (every crash rebooted, every
// outage closed) — the generators promise paired events within the horizon.
func pairingInvariants(t *testing.T, p *Plan) {
	t.Helper()
	if err := p.Validate(0); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	down := make(map[int]bool)
	cut := make(map[linkID]bool)
	for _, e := range p.Events {
		switch e.Kind {
		case NodeCrash:
			down[e.Node] = true
		case NodeReboot:
			delete(down, e.Node)
		case LinkDown:
			cut[linkID{e.From, e.To}] = true
		case LinkUp:
			delete(cut, linkID{e.From, e.To})
		}
	}
	if len(down) != 0 {
		t.Fatalf("plan leaves nodes down at the horizon: %v", down)
	}
	if len(cut) != 0 {
		t.Fatalf("plan leaves links cut at the horizon: %v", cut)
	}
}

func TestRandomChurnDeterministicAndPaired(t *testing.T) {
	spec := ChurnSpec{
		Nodes:        []int{1, 2, 3, 4},
		MeanUptime:   200 * sim.Second,
		MeanDowntime: 20 * sim.Second,
		Horizon:      3600 * sim.Second,
		Seed:         42,
	}
	a, err := RandomChurn(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomChurn(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec produced different plans")
	}
	if len(a.Events) == 0 {
		t.Fatal("no churn generated over a long horizon")
	}
	pairingInvariants(t, a)

	spec.Seed = 43
	c, err := RandomChurn(spec)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}

	bad := spec
	bad.MeanUptime = 0
	if _, err := RandomChurn(bad); err == nil {
		t.Fatal("zero mean uptime accepted")
	}
	bad = spec
	bad.Horizon = 0
	if _, err := RandomChurn(bad); err == nil {
		t.Fatal("zero horizon accepted")
	}
}

func TestBurstOutages(t *testing.T) {
	spec := OutageSpec{
		Links:   [][2]int{{0, 1}, {0, 2}},
		Period:  60 * sim.Second,
		Outage:  15 * sim.Second,
		Horizon: 600 * sim.Second,
		Bidir:   true,
	}
	p, err := BurstOutages(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) == 0 {
		t.Fatal("no outages generated")
	}
	pairingInvariants(t, p)
	for _, e := range p.Events {
		if !e.Bidir {
			t.Fatal("bidir flag lost")
		}
	}

	spec.Outage = spec.Period
	if _, err := BurstOutages(spec); err == nil {
		t.Fatal("outage >= period accepted")
	}
}
