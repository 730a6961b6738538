package fault

import (
	"testing"

	"lrseluge/internal/metrics"
	"lrseluge/internal/radio"
	"lrseluge/internal/sim"
	"lrseluge/internal/topo"
)

// fakeNode records power cycles.
type fakeNode struct {
	crashes, reboots int
}

func (f *fakeNode) Crash()  { f.crashes++ }
func (f *fakeNode) Reboot() { f.reboots++ }

func newTestOverlay(t *testing.T, nodes int) (*sim.Engine, *radio.FaultOverlay) {
	t.Helper()
	eng := sim.New()
	g, err := topo.Complete(nodes)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := radio.New(eng, g, nil, radio.DefaultConfig(), metrics.New(nil), 7)
	if err != nil {
		t.Fatal(err)
	}
	return eng, nw.InstallFaultOverlay()
}

func TestEngineAppliesPlan(t *testing.T) {
	eng, ov := newTestOverlay(t, 4)
	fe, err := NewEngine(eng, ov, nil)
	if err != nil {
		t.Fatal(err)
	}
	n1 := &fakeNode{}
	fe.Register(1, n1)
	fe.Register(2, nil) // no-op registration

	plan := &Plan{Events: []Event{
		{AtSec: 1, Kind: NodeCrash, Node: 1},
		{AtSec: 2, Kind: LinkDown, From: 0, To: 2, Bidir: true},
		{AtSec: 4, Kind: NodeReboot, Node: 1},
		{AtSec: 5, Kind: LinkUp, From: 0, To: 2, Bidir: true},
		{AtSec: 6, Kind: Partition, Groups: [][]int{{0, 1}}},
		{AtSec: 7, Kind: Heal},
	}}
	if err := fe.Install(plan); err != nil {
		t.Fatal(err)
	}

	step := func(until sim.Time) { eng.Run(until) }

	step(1500 * sim.Millisecond)
	if !ov.NodeDown(1) || n1.crashes != 1 {
		t.Fatalf("crash not applied: down=%v crashes=%d", ov.NodeDown(1), n1.crashes)
	}
	step(2500 * sim.Millisecond)
	if !ov.Blocked(0, 2) || !ov.Blocked(2, 0) {
		t.Fatal("bidir link outage not applied")
	}
	step(4500 * sim.Millisecond)
	if ov.NodeDown(1) || n1.reboots != 1 {
		t.Fatalf("reboot not applied: down=%v reboots=%d", ov.NodeDown(1), n1.reboots)
	}
	step(5500 * sim.Millisecond)
	if ov.Blocked(0, 2) || ov.Blocked(2, 0) {
		t.Fatal("link outage not cleared")
	}
	step(6500 * sim.Millisecond)
	if !ov.Blocked(0, 2) || ov.Blocked(0, 1) {
		t.Fatal("partition cells wrong: 0 and 1 share a group, 2 is in the remainder")
	}
	step(7500 * sim.Millisecond)
	if ov.Blocked(0, 2) {
		t.Fatal("heal not applied")
	}
}

func TestEngineRejectsBadInputs(t *testing.T) {
	eng, ov := newTestOverlay(t, 3)
	if _, err := NewEngine(nil, ov, nil); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := NewEngine(eng, nil, nil); err == nil {
		t.Fatal("nil overlay accepted")
	}
	fe, err := NewEngine(eng, ov, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fe.Install(nil); err == nil {
		t.Fatal("nil plan accepted")
	}
	// Node id valid structurally but outside this 3-node topology.
	if err := fe.Install(&Plan{Events: []Event{{AtSec: 1, Kind: NodeCrash, Node: 7}}}); err == nil {
		t.Fatal("out-of-topology plan accepted")
	}
}
