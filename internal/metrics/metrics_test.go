package metrics

import (
	"strings"
	"testing"

	"lrseluge/internal/packet"
	"lrseluge/internal/sim"
	"lrseluge/internal/trace"
)

func TestTxAccounting(t *testing.T) {
	c := New(nil)
	a := &packet.Adv{Src: 1}
	d := &packet.Data{Src: 2, Unit: 3, Index: 7, Payload: make([]byte, 10)}
	c.Tx(0, 1, a)
	c.Tx(0, 2, d)
	c.Tx(0, 2, d)

	if c.TxOf(packet.TypeAdv) != 1 || c.TxOf(packet.TypeData) != 2 {
		t.Fatal("tx counts wrong")
	}
	if c.TxBytesOf(packet.TypeData) != 2*int64(d.WireSize()) {
		t.Fatal("tx bytes wrong")
	}
	if c.TotalPackets() != 3 {
		t.Fatal("total packets wrong")
	}
	if c.TotalBytes() != int64(a.WireSize())+2*int64(d.WireSize()) {
		t.Fatal("total bytes wrong")
	}
	if c.NodeTx(2) != 2 || c.NodeTx(1) != 1 || c.NodeTx(9) != 0 {
		t.Fatal("per-node counts wrong")
	}
	if c.DataTxFromUnit(0) != 2 || c.DataTxFromUnit(3) != 2 || c.DataTxFromUnit(4) != 0 ||
		c.DataTxFromUnit(99) != 0 {
		t.Fatal("from-unit counts wrong")
	}
}

// TestCompletionKeepsFirst pins Complete's per-version latch: a node's first
// report of each version counts, a repeat does not, and the first report of
// a newer version starts a fresh count that an older version's late report
// stays out of.
func TestCompletionKeepsFirst(t *testing.T) {
	c := New(nil)
	if !c.Complete(4, 1, 10*sim.Second) || c.Complete(4, 1, 20*sim.Second) || !c.Complete(5, 1, 15*sim.Second) {
		t.Fatal("Complete must accept each node's first report of a version and only that one")
	}
	if c.Completions() != 2 {
		t.Fatal("completion count wrong")
	}
	if got, ok := c.CompletionTime(4); !ok || got != 10*sim.Second {
		t.Fatal("first completion not kept")
	}
	if c.Latency() != 15*sim.Second {
		t.Fatalf("latency %v, want max completion 15s", c.Latency())
	}

	// Version 2: node 5 (the base station, say) preloads it at 30 s, node 4
	// completes it at 40 s, and node 6 finishes version 1 only at 50 s.
	if !c.Complete(5, 2, 30*sim.Second) {
		t.Fatal("first report of a new version refused")
	}
	if c.Completions() != 1 || c.Latency() != 30*sim.Second {
		t.Fatalf("version 2 count: Completions %d Latency %v, want 1 and 30s", c.Completions(), c.Latency())
	}
	if !c.Complete(4, 2, 40*sim.Second) || c.Complete(4, 2, 45*sim.Second) {
		t.Fatal("version 2 reports not latched per node")
	}
	if !c.Complete(6, 1, 50*sim.Second) {
		t.Fatal("a node's first report of an older version refused")
	}
	if c.Completions() != 2 || c.Latency() != 40*sim.Second {
		t.Fatalf("version 2 count: Completions %d Latency %v, want 2 and 40s", c.Completions(), c.Latency())
	}
	if got, ok := c.CompletionTime(4); !ok || got != 40*sim.Second {
		t.Fatalf("CompletionTime(4) = %v, want its version 2 completion at 40s", got)
	}
}

func TestSecurityCounters(t *testing.T) {
	c := New(nil)
	d := &packet.Data{}
	c.Drop(1, 0, d, trace.DropAuth)
	c.SigResult(1, 0, false)
	c.SigResult(2, 0, true)
	c.RecordForgedAccepted()
	c.RecordSigVerification()
	c.Drop(1, 0, &packet.Sig{}, trace.DropPuzzle)
	c.Drop(2, 0, d, trace.DropChannel)
	if c.AuthDrops() != 2 || c.ForgedAccepted() != 1 || c.SigVerifications() != 1 ||
		c.Drops(trace.DropPuzzle) != 1 || c.Drops(trace.DropChannel) != 1 {
		t.Fatal("security counters wrong")
	}
}

func TestRxAccounting(t *testing.T) {
	c := New(nil)
	c.Rx(1, 0, &packet.Adv{})
	if c.RxOf(packet.TypeAdv) != 1 {
		t.Fatal("rx count wrong")
	}
}

func TestStringSummary(t *testing.T) {
	c := New(nil)
	c.Tx(0, 0, &packet.Adv{})
	s := c.String()
	if !strings.Contains(s, "adv") || !strings.Contains(s, "total") {
		t.Fatalf("summary missing fields: %q", s)
	}
	// No fault activity: the fault block stays out of the summary.
	if strings.Contains(s, "faults[") {
		t.Fatalf("fault block rendered without faults: %q", s)
	}
}

// TestStringGolden pins the byte-exact rendering, including the ordering of
// the per-type section and the fault-counter block, the regression net for
// report determinism.
func TestStringGolden(t *testing.T) {
	c := New(nil)
	// Insert packet types in an order that differs from their sort order.
	c.Tx(0, 2, &packet.Data{Src: 2, Unit: 1, Index: 0, Payload: make([]byte, 4)})
	c.Tx(0, 1, &packet.Adv{Src: 1})
	c.Tx(0, 0, &packet.Sig{Src: 0, Signature: make([]byte, 64)})
	c.Complete(1, 1, 3*sim.Second)

	// Fault activity, with two nodes still down at the end inserted in
	// descending id order to catch map-order leaks.
	c.RecordCrash(7, 1*sim.Second, 3)
	c.RecordCrash(2, 1*sim.Second, 0)
	c.RecordCrash(1, 1*sim.Second, 1)
	c.RecordReboot(1, 2*sim.Second)
	c.RecordRefetch()
	c.Drop(3, 0, &packet.Adv{}, trace.DropFault)
	c.Drop(4, 0, &packet.Adv{}, trace.DropFault)

	want := "adv: 1 pkts / 19 B; data: 1 pkts / 26 B; sig: 1 pkts / 115 B; " +
		"total 160 B; latency 3s; completed 1; " +
		"faults[crashes 3 reboots 1 lost_pkts 4 refetched 1 fault_drops 2 downtime 1s still_down 2 7]"
	for i := 0; i < 10; i++ { // map iteration varies per run; render repeatedly
		if got := c.String(); got != want {
			t.Fatalf("iteration %d:\n got %q\nwant %q", i, got, want)
		}
	}
}

func TestFaultDropCounter(t *testing.T) {
	c := New(nil)
	c.Drop(1, 0, &packet.Adv{}, trace.DropFault)
	c.Drop(1, 0, &packet.Adv{}, trace.DropChannel)
	if c.Drops(trace.DropFault) != 1 || c.Drops(trace.DropChannel) != 1 {
		t.Fatalf("fault_drops=%d channel_losses=%d", c.Drops(trace.DropFault), c.Drops(trace.DropChannel))
	}
}

// TestPerNodeCounters pins the node-indexed per-node state: ids may arrive
// in any order, ids never seen read as zero / not completed, and only the
// first completion per node and version counts.
func TestPerNodeCounters(t *testing.T) {
	c := New(nil)
	c.Tx(0, 3, &packet.Adv{Src: 3})
	c.Tx(0, 3, &packet.Adv{Src: 3})
	c.Tx(0, 5, &packet.Adv{Src: 5})
	c.Complete(2, 1, 100)
	c.Complete(2, 1, 50) // first completion wins
	c.Complete(7, 1, 400)
	if got := c.NodeTx(3); got != 2 {
		t.Fatalf("NodeTx(3) = %d, want 2", got)
	}
	for _, id := range []packet.NodeID{0, 6, 99} {
		if got := c.NodeTx(id); got != 0 {
			t.Fatalf("NodeTx(%d) = %d, want 0", id, got)
		}
	}
	if c.Completions() != 2 || c.Latency() != 400 {
		t.Fatalf("Completions %d Latency %v, want 2 and 400", c.Completions(), c.Latency())
	}
	for id, want := range map[packet.NodeID]sim.Time{2: 100, 7: 400, 4: -1, 99: -1} {
		got, ok := c.CompletionTime(id)
		if ok != (want >= 0) || (ok && got != want) {
			t.Fatalf("CompletionTime(%d) = (%v, %v), want %v", id, got, ok, want)
		}
	}
}

// TestReportsForwardToTracer pins the one reporting seam: each report is
// counted and then traced exactly once, and a repeated completion of the
// same version is neither counted nor traced.
func TestReportsForwardToTracer(t *testing.T) {
	ring := trace.NewRing(16)
	tr, err := trace.New(sim.New(), ring)
	if err != nil {
		t.Fatal(err)
	}
	c := New(tr)
	if c.Tracer() != tr {
		t.Fatal("Tracer() is not the constructor's tracer")
	}
	d := &packet.Data{Src: 1, Unit: 2, Index: 3, Payload: make([]byte, 4)}
	c.Tx(0, 1, d)
	c.Rx(2, 1, d)
	c.Drop(3, 1, d, trace.DropChannel)
	c.SigResult(2, 1, false)
	c.Complete(2, 1, 5)
	c.Complete(2, 1, 9)
	want := []trace.Kind{trace.KindTx, trace.KindRx, trace.KindDrop, trace.KindSigReject,
		trace.KindComplete}
	events := ring.Events()
	if len(events) != len(want) {
		t.Fatalf("traced %d events, want %d", len(events), len(want))
	}
	for i, e := range events {
		if e.Kind != want[i] {
			t.Fatalf("event %d is %v, want %v", i, e.Kind, want[i])
		}
	}
	if c.TxOf(packet.TypeData) != 1 || c.RxOf(packet.TypeData) != 1 ||
		c.Drops(trace.DropChannel) != 1 || c.AuthDrops() != 1 || c.Completions() != 1 {
		t.Fatalf("counters disagree with the trace: %s", c)
	}
}
