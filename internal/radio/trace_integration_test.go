package radio

import (
	"testing"

	"lrseluge/internal/metrics"
	"lrseluge/internal/packet"
	"lrseluge/internal/sim"
	"lrseluge/internal/topo"
	"lrseluge/internal/trace"
)

// TestDropAttributionSingleCount is the lost-delivery accounting contract:
// every dropped delivery is attributed to exactly one cause, with the metrics
// counters and the trace stream agreeing. Fault-blocked deliveries never
// consult the loss model (no double count, no stolen randomness); channel
// drops never touch the fault counter.
func TestDropAttributionSingleCount(t *testing.T) {
	inner := &countingLoss{}
	eng := sim.New()
	g, err := topo.Complete(2)
	if err != nil {
		t.Fatal(err)
	}
	ring := trace.NewRing(64)
	tr, err := trace.New(eng, ring)
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.New(tr)
	nw, err := New(eng, g, inner, DefaultConfig(), col, 5)
	if err != nil {
		t.Fatal(err)
	}
	ov := nw.InstallFaultOverlay()
	for id := 0; id < 2; id++ {
		if err := nw.Attach(packet.NodeID(id), receiverFunc(func(packet.NodeID, packet.Packet) {})); err != nil {
			t.Fatal(err)
		}
	}
	adv := &packet.Adv{Src: 0, Version: 1}
	drops := func(r trace.DropReason) int {
		n := 0
		for _, e := range ring.Events() {
			if e.Kind == trace.KindDrop && e.Reason == r {
				n++
			}
		}
		return n
	}

	// Fault-blocked delivery: one fault drop, zero channel losses, and the
	// loss model is never consulted.
	ov.SetNodeDown(1, true)
	nw.Broadcast(0, adv)
	eng.Run(sim.Second)
	if col.Drops(trace.DropFault) != 1 || col.Drops(trace.DropChannel) != 0 {
		t.Fatalf("fault-blocked delivery: fault_drops=%d channel_losses=%d, want 1/0",
			col.Drops(trace.DropFault), col.Drops(trace.DropChannel))
	}
	if inner.calls != 0 {
		t.Fatalf("fault-blocked delivery consulted the loss model %d times", inner.calls)
	}
	if drops(trace.DropFault) != 1 || drops(trace.DropChannel) != 0 {
		t.Fatalf("trace drops: fault=%d channel=%d, want 1/0",
			drops(trace.DropFault), drops(trace.DropChannel))
	}

	// Channel drop with the node back up: one channel loss, the fault
	// counter unchanged.
	ov.SetNodeDown(1, false)
	inner.drop = true
	nw.Broadcast(0, adv)
	eng.Run(eng.Now() + sim.Second)
	if col.Drops(trace.DropFault) != 1 || col.Drops(trace.DropChannel) != 1 {
		t.Fatalf("channel drop: fault_drops=%d channel_losses=%d, want 1/1",
			col.Drops(trace.DropFault), col.Drops(trace.DropChannel))
	}
	if inner.calls != 1 {
		t.Fatalf("loss model calls = %d, want 1", inner.calls)
	}
	if drops(trace.DropFault) != 1 || drops(trace.DropChannel) != 1 {
		t.Fatalf("trace drops: fault=%d channel=%d, want 1/1",
			drops(trace.DropFault), drops(trace.DropChannel))
	}

	// Successful delivery: no new drop anywhere, one rx event.
	inner.drop = false
	nw.Broadcast(0, adv)
	eng.Run(eng.Now() + sim.Second)
	if col.Drops(trace.DropFault) != 1 || col.Drops(trace.DropChannel) != 1 {
		t.Fatal("successful delivery moved a drop counter")
	}
	rx := 0
	for _, e := range ring.Events() {
		if e.Kind == trace.KindRx {
			rx++
		}
	}
	if rx != 1 {
		t.Fatalf("rx events = %d, want 1", rx)
	}
}
