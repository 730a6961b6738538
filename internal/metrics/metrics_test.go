package metrics

import (
	"strings"
	"testing"

	"lrseluge/internal/packet"
	"lrseluge/internal/sim"
)

func TestTxAccounting(t *testing.T) {
	c := New()
	a := &packet.Adv{Src: 1}
	d := &packet.Data{Src: 2, Unit: 3, Index: 7, Payload: make([]byte, 10)}
	c.RecordTx(1, a)
	c.RecordTx(2, d)
	c.RecordTx(2, d)

	if c.Tx(packet.TypeAdv) != 1 || c.Tx(packet.TypeData) != 2 {
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
	if c.DataTxForUnit(3) != 2 || c.DataTxForUnit(1) != 0 {
		t.Fatal("per-unit counts wrong")
	}
	if c.DataTxForIndex(3, 7) != 2 || c.DataTxForIndex(3, 8) != 0 {
		t.Fatal("per-index counts wrong")
	}
	if c.DataTxFromUnit(2) != 2 || c.DataTxFromUnit(4) != 0 {
		t.Fatal("from-unit counts wrong")
	}
}

func TestCompletionKeepsFirst(t *testing.T) {
	c := New()
	c.RecordCompletion(4, 10*sim.Second)
	c.RecordCompletion(4, 20*sim.Second)
	c.RecordCompletion(5, 15*sim.Second)
	if c.Completions() != 2 {
		t.Fatal("completion count wrong")
	}
	if got, ok := c.CompletionTime(4); !ok || got != 10*sim.Second {
		t.Fatal("first completion not kept")
	}
	if c.Latency() != 15*sim.Second {
		t.Fatalf("latency %v, want max completion 15s", c.Latency())
	}
}

func TestSecurityCounters(t *testing.T) {
	c := New()
	c.RecordAuthDrop()
	c.RecordAuthDrop()
	c.RecordForgedAccepted()
	c.RecordSigVerification()
	c.RecordPuzzleReject()
	c.RecordChannelLoss()
	if c.AuthDrops() != 2 || c.ForgedAccepted() != 1 || c.SigVerifications() != 1 ||
		c.PuzzleRejects() != 1 || c.ChannelLosses() != 1 {
		t.Fatal("security counters wrong")
	}
}

func TestRxAccounting(t *testing.T) {
	c := New()
	c.RecordRx(&packet.Adv{})
	if c.Rx(packet.TypeAdv) != 1 {
		t.Fatal("rx count wrong")
	}
}

func TestStringSummary(t *testing.T) {
	c := New()
	c.RecordTx(0, &packet.Adv{})
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
// the per-type section and the fault-counter block: both iterate maps, so
// this golden is the regression net for report determinism.
func TestStringGolden(t *testing.T) {
	c := New()
	// Insert packet types in an order that differs from their sort order.
	c.RecordTx(2, &packet.Data{Src: 2, Unit: 1, Index: 0, Payload: make([]byte, 4)})
	c.RecordTx(1, &packet.Adv{Src: 1})
	c.RecordTx(0, &packet.Sig{Src: 0, Signature: make([]byte, 64)})
	c.RecordCompletion(1, 3*sim.Second)

	// Fault activity, with two nodes still down at the end inserted in
	// descending id order to catch map-order leaks.
	c.RecordCrash(7, 1*sim.Second, 3)
	c.RecordCrash(2, 1*sim.Second, 0)
	c.RecordCrash(1, 1*sim.Second, 1)
	c.RecordReboot(1, 2*sim.Second)
	c.RecordRefetch()
	c.RecordFaultDrop()
	c.RecordFaultDrop()

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
	c := New()
	c.RecordFaultDrop()
	c.RecordChannelLoss()
	if c.FaultDrops() != 1 || c.ChannelLosses() != 1 {
		t.Fatalf("fault_drops=%d channel_losses=%d", c.FaultDrops(), c.ChannelLosses())
	}
}

// TestPerNodeCounters pins the node-indexed per-node state: ids may arrive
// in any order, ids never seen read as zero / not completed, and only the
// first completion per node counts.
func TestPerNodeCounters(t *testing.T) {
	c := New()
	c.RecordTx(3, &packet.Adv{Src: 3})
	c.RecordTx(3, &packet.Adv{Src: 3})
	c.RecordTx(5, &packet.Adv{Src: 5})
	c.RecordCompletion(2, 100)
	c.RecordCompletion(2, 50) // first completion wins
	c.RecordCompletion(7, 400)
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
