package radio

import (
	"testing"

	"lrseluge/internal/metrics"
	"lrseluge/internal/packet"
	"lrseluge/internal/sim"
	"lrseluge/internal/topo"
	"lrseluge/internal/trace"
)

// TestTraceAtExactIntervalBoundaries pins the wrap-around arithmetic of
// Trace.At at the exact sample and trace boundaries: the instant t = k*I
// belongs to sample k (half-open intervals), and the instant t = Duration()
// wraps to sample 0, not past the end of the slice.
func TestTraceAtExactIntervalBoundaries(t *testing.T) {
	const iv = sim.Second
	tr := Trace{Interval: iv, Loss: []float64{0.1, 0.2, 0.3}}
	d := tr.Duration()
	cases := []struct {
		t    sim.Time
		want float64
	}{
		{0, 0.1},
		{iv - 1, 0.1},          // last instant of sample 0
		{iv, 0.2},              // exact sample boundary opens sample 1
		{2*iv - 1, 0.2},        // last instant of sample 1
		{2 * iv, 0.3},          // exact boundary into the last sample
		{d - 1, 0.3},           // last instant before the trace wraps
		{d, 0.1},               // exact trace boundary wraps to sample 0
		{d + iv, 0.2},          // one sample into the second lap
		{2 * d, 0.1},           // exact boundary of the second lap
		{10*d + 2*iv, 0.3},     // deep wrap, exact sample boundary
		{10*d + 2*iv - 1, 0.2}, // one instant earlier, previous sample
	}
	for _, c := range cases {
		if got := tr.At(c.t); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

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
