package radio

import (
	"testing"

	"lrseluge/internal/metrics"
	"lrseluge/internal/packet"
	"lrseluge/internal/sim"
	"lrseluge/internal/topo"
	"lrseluge/internal/trace"
)

type recorder struct {
	got []packet.Packet
	at  []sim.Time
	eng *sim.Engine
}

func (r *recorder) HandlePacket(_ packet.NodeID, p packet.Packet) {
	r.got = append(r.got, p)
	if r.eng != nil {
		r.at = append(r.at, r.eng.Now())
	}
}

func newTestNet(t *testing.T, nodes int, loss LossModel) (*Network, *sim.Engine, []*recorder, *metrics.Collector) {
	t.Helper()
	eng := sim.New()
	col := metrics.New(nil)
	g, err := topo.Complete(nodes)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := New(eng, g, loss, DefaultConfig(), col, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*recorder, nodes)
	for i := range recs {
		recs[i] = &recorder{eng: eng}
		if err := nw.Attach(packet.NodeID(i), recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return nw, eng, recs, col
}

func adv(src packet.NodeID) *packet.Adv {
	return &packet.Adv{Src: src, Version: 1, Units: 1}
}

func TestBroadcastReachesAllNeighbors(t *testing.T) {
	nw, eng, recs, col := newTestNet(t, 4, NoLoss{})
	nw.Broadcast(0, adv(0))
	eng.RunUntilIdle()
	if len(recs[0].got) != 0 {
		t.Fatal("sender received its own broadcast")
	}
	for i := 1; i < 4; i++ {
		if len(recs[i].got) != 1 {
			t.Fatalf("node %d got %d packets", i, len(recs[i].got))
		}
	}
	if col.TxOf(packet.TypeAdv) != 1 || col.RxOf(packet.TypeAdv) != 3 {
		t.Fatalf("metrics wrong: tx=%d rx=%d", col.TxOf(packet.TypeAdv), col.RxOf(packet.TypeAdv))
	}
}

func TestSerializationDelay(t *testing.T) {
	nw, eng, recs, _ := newTestNet(t, 2, NoLoss{})
	p := adv(0)
	nw.Broadcast(0, p)
	eng.RunUntilIdle()
	cfg := DefaultConfig()
	wantMin := sim.Time(int64(p.WireSize())*8*int64(sim.Second)/int64(cfg.BitRate)) + cfg.InterPacketGap + cfg.PropDelay
	if len(recs[1].at) != 1 || recs[1].at[0] != wantMin {
		t.Fatalf("delivery at %v, want %v", recs[1].at, wantMin)
	}
}

func TestBackToBackTransmissionsQueue(t *testing.T) {
	nw, eng, recs, _ := newTestNet(t, 2, NoLoss{})
	nw.Broadcast(0, adv(0))
	nw.Broadcast(0, adv(0))
	eng.RunUntilIdle()
	if len(recs[1].at) != 2 {
		t.Fatalf("got %d deliveries", len(recs[1].at))
	}
	if recs[1].at[1] <= recs[1].at[0] {
		t.Fatal("second packet not serialized after the first")
	}
	gap := recs[1].at[1] - recs[1].at[0]
	p := adv(0)
	airtime := sim.Time(int64(p.WireSize()) * 8 * int64(sim.Second) / int64(DefaultConfig().BitRate))
	if gap < airtime {
		t.Fatalf("packets overlapped: gap %v < airtime %v", gap, airtime)
	}
}

func TestBernoulliLossRate(t *testing.T) {
	nw, eng, recs, col := newTestNet(t, 2, Bernoulli{P: 0.3})
	const trials = 2000
	for i := 0; i < trials; i++ {
		nw.Broadcast(0, adv(0))
	}
	eng.RunUntilIdle()
	got := float64(len(recs[1].got)) / trials
	if got < 0.65 || got > 0.75 {
		t.Fatalf("delivery rate %f, want ~0.70", got)
	}
	if col.Drops(trace.DropChannel) == 0 {
		t.Fatal("losses not recorded")
	}
}

func TestNoLossModelHonorsLinkQuality(t *testing.T) {
	eng := sim.New()
	col := metrics.New(nil)
	g, _ := topo.Grid(1, 2, topo.Medium) // 20 units apart: quality < 1
	nw, err := New(eng, g, NoLoss{}, DefaultConfig(), col, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := &recorder{}
	if err := nw.Attach(0, &recorder{}); err != nil {
		t.Fatal(err)
	}
	if err := nw.Attach(1, r); err != nil {
		t.Fatal(err)
	}
	const trials = 2000
	for i := 0; i < trials; i++ {
		nw.Broadcast(0, adv(0))
	}
	eng.RunUntilIdle()
	rate := float64(len(r.got)) / trials
	if rate > 0.999 || rate < 0.5 {
		t.Fatalf("delivery rate %f; expected sub-1.0 from link quality", rate)
	}
}

func TestGilbertElliottProducesBurstyLoss(t *testing.T) {
	nw, eng, recs, _ := newTestNet(t, 2, HeavyNoise())
	const trials = 5000
	for i := 0; i < trials; i++ {
		nw.Broadcast(0, adv(0))
	}
	eng.RunUntilIdle()
	rate := float64(len(recs[1].got)) / trials
	// Stationary: ~75% good (5% loss), ~25% bad (85% loss) => ~24% loss.
	if rate < 0.6 || rate > 0.9 {
		t.Fatalf("delivery rate %f outside bursty-model expectation", rate)
	}
}

func TestAttachErrors(t *testing.T) {
	eng := sim.New()
	col := metrics.New(nil)
	g, _ := topo.Complete(2)
	nw, _ := New(eng, g, nil, DefaultConfig(), col, 1)
	if err := nw.Attach(5, &recorder{}); err == nil {
		t.Fatal("out-of-range attach accepted")
	}
	if err := nw.Attach(0, &recorder{}); err != nil {
		t.Fatal(err)
	}
	if err := nw.Attach(0, &recorder{}); err == nil {
		t.Fatal("duplicate attach accepted")
	}
}

func TestNewValidation(t *testing.T) {
	eng := sim.New()
	col := metrics.New(nil)
	g, _ := topo.Complete(2)
	if _, err := New(nil, g, nil, DefaultConfig(), col, 1); err == nil {
		t.Fatal("nil engine accepted")
	}
	bad := DefaultConfig()
	bad.BitRate = 0
	if _, err := New(eng, g, nil, bad, col, 1); err == nil {
		t.Fatal("zero bit rate accepted")
	}
}

func TestUnattachedNodesSkipped(t *testing.T) {
	eng := sim.New()
	col := metrics.New(nil)
	g, _ := topo.Complete(3)
	nw, _ := New(eng, g, nil, DefaultConfig(), col, 1)
	r := &recorder{}
	if err := nw.Attach(0, r); err != nil {
		t.Fatal(err)
	}
	// Nodes 1 and 2 never attached: broadcast must not panic.
	nw.Broadcast(0, adv(0))
	eng.RunUntilIdle()
}

// sink is a no-op receiver for allocation measurements.
type sink struct{}

func (sink) HandlePacket(packet.NodeID, packet.Packet) {}

// TestBroadcastAllocs pins the steady-state allocation cost of a broadcast:
// one pooled timer-free tx-complete closure plus one batched delivery event
// reusing a pooled scratch buffer — NOT one closure per neighbor.
func TestBroadcastAllocs(t *testing.T) {
	eng := sim.New()
	col := metrics.New(nil)
	g, err := topo.Complete(9) // degree 8: per-neighbor allocation would show up 8x
	if err != nil {
		t.Fatal(err)
	}
	nw, err := New(eng, g, NoLoss{}, DefaultConfig(), col, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := nw.Attach(packet.NodeID(i), sink{}); err != nil {
			t.Fatal(err)
		}
	}
	p := adv(0)
	// Warm the timer pool and the delivery batch pool.
	for i := 0; i < 8; i++ {
		nw.Broadcast(0, p)
		eng.RunUntilIdle()
	}
	allocs := testing.AllocsPerRun(50, func() {
		nw.Broadcast(0, p)
		eng.RunUntilIdle()
	})
	// Two closures per broadcast (tx-complete + delivery batch); everything
	// else (timer records, delivery scratch) comes from pools.
	if allocs > 2 {
		t.Fatalf("broadcast allocated %.1f times, want <= 2", allocs)
	}
}
