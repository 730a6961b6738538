package radio

import (
	"fmt"
	"math/rand"
	"testing"

	"lrseluge/internal/metrics"
	"lrseluge/internal/packet"
	"lrseluge/internal/sim"
	"lrseluge/internal/topo"
)

// countingLoss counts Drop calls, proving the network consults no channel
// model (and so draws no randomness) for fault-blocked deliveries.
type countingLoss struct {
	calls int
	drop  bool
}

func (c *countingLoss) Drop(_, _ int, _ float64, _ sim.Time, _ *rand.Rand) bool {
	c.calls++
	return c.drop
}

func newOverlayUnderTest(t *testing.T, nodes int) (*Network, *FaultOverlay) {
	t.Helper()
	eng := sim.New()
	g, err := topo.Complete(nodes)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := New(eng, g, nil, DefaultConfig(), metrics.New(nil), 5)
	if err != nil {
		t.Fatal(err)
	}
	return nw, nw.InstallFaultOverlay()
}

func TestInstallFaultOverlayIdempotent(t *testing.T) {
	nw, ov := newOverlayUnderTest(t, 3)
	if nw.InstallFaultOverlay() != ov {
		t.Fatal("second install returned a different overlay")
	}
	if ov.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", ov.NumNodes())
	}
}

func TestOverlayBlocking(t *testing.T) {
	_, ov := newOverlayUnderTest(t, 5)

	if ov.Blocked(0, 1) {
		t.Fatal("no fault active but delivery blocked")
	}

	// Down endpoints block both directions of every link touching the node.
	ov.SetNodeDown(1, true)
	if !ov.Blocked(0, 1) || !ov.Blocked(1, 0) || ov.Blocked(0, 2) {
		t.Fatal("node-down blocking wrong")
	}
	ov.SetNodeDown(1, false)
	if ov.Blocked(0, 1) {
		t.Fatal("node still blocked after power-on")
	}

	// Directed link outages block only the listed direction.
	ov.SetLinkDown(2, 3, true)
	if !ov.Blocked(2, 3) || ov.Blocked(3, 2) {
		t.Fatal("directed link outage wrong")
	}
	ov.SetLinkDown(2, 3, false)
	if ov.Blocked(2, 3) {
		t.Fatal("link still blocked after window closed")
	}

	// Partitions block across cells only; unlisted nodes share the remainder
	// cell.
	ov.SetPartition([][]int{{0, 1}, {2}})
	if ov.Blocked(0, 1) || !ov.Blocked(0, 2) || !ov.Blocked(2, 3) || ov.Blocked(3, 4) {
		t.Fatal("partition cells wrong")
	}
	ov.ClearPartition()
	if ov.Blocked(0, 2) {
		t.Fatal("partition survives heal")
	}

	// Out-of-range ids never block (and never panic).
	ov.SetNodeDown(99, true)
	if ov.Blocked(99, 0) || ov.Blocked(0, 99) {
		t.Fatal("out-of-range id blocked")
	}
}

// TestOverlaySilencesDownSender checks the radio-level integration: a down
// node neither starts transmissions nor completes in-flight ones.
func TestOverlaySilencesDownSender(t *testing.T) {
	nw, ov := newOverlayUnderTest(t, 2)
	eng := nw.Engine()
	got := 0
	if err := nw.Attach(1, receiverFunc(func(packet.NodeID, packet.Packet) { got++ })); err != nil {
		t.Fatal(err)
	}
	if err := nw.Attach(0, receiverFunc(func(packet.NodeID, packet.Packet) {})); err != nil {
		t.Fatal(err)
	}
	adv := &packet.Adv{Src: 0, Version: 1}

	// Down before keying: nothing is sent.
	ov.SetNodeDown(0, true)
	nw.Broadcast(0, adv)
	eng.Run(sim.Second)
	if got != 0 {
		t.Fatalf("down sender delivered %d packets", got)
	}

	// Power lost mid-transmission: the packet dies on the air.
	ov.SetNodeDown(0, false)
	nw.Broadcast(0, adv)
	eng.At(eng.Now()+sim.Millisecond, func() { ov.SetNodeDown(0, true) })
	eng.Run(eng.Now() + sim.Second)
	if got != 0 {
		t.Fatalf("mid-transmission crash still delivered %d packets", got)
	}

	// Back up: traffic flows again.
	ov.SetNodeDown(0, false)
	nw.Broadcast(0, adv)
	eng.Run(eng.Now() + sim.Second)
	if got != 1 {
		t.Fatalf("recovered sender delivered %d packets, want 1", got)
	}
}

type receiverFunc func(packet.NodeID, packet.Packet)

func (f receiverFunc) HandlePacket(from packet.NodeID, p packet.Packet) { f(from, p) }

func TestSetPartitionEpochSemantics(t *testing.T) {
	_, ov := newOverlayUnderTest(t, 6)

	// First partition: {0,1} | {2,3}, nodes 4 and 5 in the remainder cell.
	ov.SetPartition([][]int{{0, 1}, {2, 3}})
	if ov.Blocked(0, 1) || ov.Blocked(2, 3) || ov.Blocked(4, 5) {
		t.Fatal("intra-cell delivery blocked")
	}
	if !ov.Blocked(0, 2) || !ov.Blocked(1, 4) || !ov.Blocked(3, 5) {
		t.Fatal("cross-cell delivery not blocked")
	}

	// Re-partition without clearing: stale stamps from the first partition
	// must fall back to the new remainder cell, not keep their old group.
	ov.SetPartition([][]int{{0, 2}})
	if ov.Blocked(0, 2) {
		t.Fatal("intra-cell delivery blocked after re-partition")
	}
	if !ov.Blocked(0, 1) {
		t.Fatal("node 1 kept its stale cell across re-partition")
	}
	if ov.Blocked(1, 3) || ov.Blocked(1, 5) {
		t.Fatal("unlisted nodes should share the remainder cell")
	}

	ov.ClearPartition()
	if ov.Blocked(0, 1) {
		t.Fatal("healed partition still blocks")
	}
}

// TestSetPartitionAllocFree pins the epoch-stamping rewrite: installing a
// partition touches only the listed nodes and allocates nothing, so a fault
// plan that re-partitions every round stays O(listed) per event even on a
// 100k-node topology.
func TestSetPartitionAllocFree(t *testing.T) {
	ov := newFaultOverlay(100000)
	groups := [][]int{{1, 2, 3}, {4, 5, 6}}
	if avg := testing.AllocsPerRun(100, func() { ov.SetPartition(groups) }); avg != 0 {
		t.Fatalf("SetPartition allocates %v times per call, want 0", avg)
	}
}

func BenchmarkSetPartition(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		ov := newFaultOverlay(n)
		groups := [][]int{{1, 2, 3, 4}, {5, 6, 7, 8}}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ov.SetPartition(groups)
			}
		})
	}
}
