package dissem_test

import (
	"fmt"
	"testing"

	"lrseluge/internal/dissem"
	"lrseluge/internal/metrics"
	"lrseluge/internal/packet"
	"lrseluge/internal/radio"
	"lrseluge/internal/sim"
	"lrseluge/internal/topo"
)

// fakeHandler is a minimal ObjectHandler: `total` units of `per` packets
// each, all required, no authentication, no signature. Payload bytes encode
// (unit, index) so serving regenerates correct packets.
type fakeHandler struct {
	version  uint16
	total    int
	per      int
	complete int
	have     map[int]bool
}

func newFake(total, per int, preloaded bool) *fakeHandler {
	h := &fakeHandler{version: 1, total: total, per: per, have: map[int]bool{}}
	if preloaded {
		h.complete = total
	}
	return h
}

func (h *fakeHandler) Version() uint16                           { return h.version }
func (h *fakeHandler) TotalUnits() int                           { return h.total }
func (h *fakeHandler) CompleteUnits() int                        { return h.complete }
func (h *fakeHandler) PacketsInUnit(int) int                     { return h.per }
func (h *fakeHandler) NeededInUnit(int) int                      { return h.per }
func (h *fakeHandler) LearnTotal(int)                            {}
func (h *fakeHandler) WantsSig() bool                            { return false }
func (h *fakeHandler) PreVerifySig(*packet.Sig) bool             { return false }
func (h *fakeHandler) IngestSig(*packet.Sig) dissem.IngestResult { return dissem.Stale }
func (h *fakeHandler) SigPacket(packet.NodeID) *packet.Sig       { return nil }
func (h *fakeHandler) Authentic(*packet.Data) bool               { return true }
func (h *fakeHandler) WipeVolatile()                             { h.have = map[int]bool{} }

func (h *fakeHandler) HasPacket(u, idx int) bool {
	if u < h.complete {
		return true
	}
	if u > h.complete {
		return false
	}
	return h.have[idx]
}

func (h *fakeHandler) Ingest(d *packet.Data) dissem.IngestResult {
	u := int(d.Unit)
	if u != h.complete {
		return dissem.Stale
	}
	idx := int(d.Index)
	if h.have[idx] {
		return dissem.Duplicate
	}
	h.have[idx] = true
	if len(h.have) < h.per {
		return dissem.Stored
	}
	h.complete++
	h.have = map[int]bool{}
	return dissem.UnitComplete
}

func (h *fakeHandler) Packet(u, idx int, src packet.NodeID) (*packet.Data, error) {
	if u >= h.complete {
		return nil, fmt.Errorf("fake: unit %d not held", u)
	}
	return &packet.Data{
		Src: src, Version: h.version, Unit: packet.Unit(u), Index: uint8(idx),
		Payload: []byte{byte(u), byte(idx)},
	}, nil
}

type harness struct {
	eng   *sim.Engine
	col   *metrics.Collector
	nw    *radio.Network
	nodes []*dissem.Node
	fakes []*fakeHandler
}

func newHarness(t *testing.T, nodes int, loss radio.LossModel, cfg dissem.Config, total, per int) *harness {
	t.Helper()
	eng := sim.New()
	col := metrics.New(nil)
	g, err := topo.Complete(nodes)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := radio.New(eng, g, loss, radio.DefaultConfig(), col, 99)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{eng: eng, col: col, nw: nw}
	for i := 0; i < nodes; i++ {
		fake := newFake(total, per, i == 0)
		policy := dissem.NewUnionPolicy(fake.PacketsInUnit)
		node, err := dissem.NewNode(packet.NodeID(i), nw, &cfg, fake, policy, int64(i)+100)
		if err != nil {
			t.Fatal(err)
		}
		h.nodes = append(h.nodes, node)
		h.fakes = append(h.fakes, fake)
	}
	return h
}

func (h *harness) runAll(t *testing.T, horizon sim.Time) {
	t.Helper()
	for _, n := range h.nodes {
		n.Start()
	}
	h.eng.Run(horizon)
}

func TestTwoNodeDissemination(t *testing.T) {
	h := newHarness(t, 2, radio.NoLoss{}, dissem.DefaultConfig(), 3, 4)
	h.runAll(t, 10*60*sim.Second)
	if !h.nodes[1].Completed() {
		t.Fatalf("receiver did not complete; state %d/%d", h.fakes[1].CompleteUnits(), 3)
	}
	if got, ok := h.col.CompletionTime(1); !ok || got <= 0 {
		t.Fatal("completion not recorded")
	}
	// The base completes at time zero.
	if got, ok := h.col.CompletionTime(0); !ok || got != 0 {
		t.Fatal("preloaded base completion not recorded at t=0")
	}
}

func TestManyReceiversCompleteUnderLoss(t *testing.T) {
	h := newHarness(t, 6, radio.Bernoulli{P: 0.2}, dissem.DefaultConfig(), 2, 4)
	h.runAll(t, 30*60*sim.Second)
	for i, n := range h.nodes {
		if !n.Completed() {
			t.Fatalf("node %d incomplete", i)
		}
	}
}

func TestOnCompleteCallbackFiresOnce(t *testing.T) {
	h := newHarness(t, 2, radio.NoLoss{}, dissem.DefaultConfig(), 2, 2)
	calls := 0
	h.nodes[1].SetOnComplete(func(packet.NodeID, sim.Time) { calls++ })
	h.runAll(t, 10*60*sim.Second)
	if calls != 1 {
		t.Fatalf("onComplete fired %d times", calls)
	}
}

func TestDenialOfReceiptDefenseLimitsServing(t *testing.T) {
	cfg := dissem.DefaultConfig()
	cfg.SNACKServeLimit = 6
	h := newHarness(t, 2, radio.NoLoss{}, cfg, 1, 4)
	for _, n := range h.nodes {
		n.Start()
	}
	// Node 1 completes normally, then we simulate a denial-of-receipt
	// attacker hand-crafting repeated all-ones SNACKs at node 0.
	h.eng.Run(10 * 60 * sim.Second)
	if !h.nodes[1].Completed() {
		t.Fatal("setup: receiver incomplete")
	}
	before := h.col.NodeTx(0)
	bits := packet.NewBitVector(4)
	bits.SetAll()
	for i := 0; i < 50; i++ {
		h.eng.Schedule(sim.Time(i)*sim.Second, func() {
			h.nodes[0].HandlePacket(7, &packet.SNACK{Src: 7, Dest: 0, Version: 1, Unit: 0, Bits: bits})
		})
	}
	h.eng.Run(20 * 60 * sim.Second)
	served := h.col.NodeTx(0) - before
	// Limit 6 with 4-packet requests: at most ~2 requests' worth of data
	// (plus an advertisement or two) before the attacker is ignored.
	if served > 16 {
		t.Fatalf("defense ineffective: victim transmitted %d packets", served)
	}
}

func TestNoDefenseServesRepeatedly(t *testing.T) {
	h := newHarness(t, 2, radio.NoLoss{}, dissem.DefaultConfig(), 1, 4)
	for _, n := range h.nodes {
		n.Start()
	}
	h.eng.Run(10 * 60 * sim.Second)
	before := h.col.NodeTx(0)
	bits := packet.NewBitVector(4)
	bits.SetAll()
	for i := 0; i < 50; i++ {
		h.eng.Schedule(sim.Time(i)*sim.Second, func() {
			h.nodes[0].HandlePacket(7, &packet.SNACK{Src: 7, Dest: 0, Version: 1, Unit: 0, Bits: bits})
		})
	}
	h.eng.Run(20 * 60 * sim.Second)
	served := h.col.NodeTx(0) - before
	if served < 100 {
		t.Fatalf("expected sustained victim load without defense, got %d", served)
	}
}

func TestNewNodeValidation(t *testing.T) {
	eng := sim.New()
	col := metrics.New(nil)
	g, _ := topo.Complete(2)
	nw, _ := radio.New(eng, g, nil, radio.DefaultConfig(), col, 1)
	fake := newFake(1, 1, false)
	cfg := dissem.DefaultConfig()
	if _, err := dissem.NewNode(0, nw, &cfg, nil, dissem.NewUnionPolicy(fake.PacketsInUnit), 1); err == nil {
		t.Fatal("nil handler accepted")
	}
	if _, err := dissem.NewNode(0, nw, nil, fake, dissem.NewUnionPolicy(fake.PacketsInUnit), 1); err == nil {
		t.Fatal("nil config accepted")
	}
	bad := dissem.DefaultConfig()
	bad.RxRetryTimeout = 0
	if _, err := dissem.NewNode(0, nw, &bad, fake, dissem.NewUnionPolicy(fake.PacketsInUnit), 1); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestUpgradeResetsProtocolState(t *testing.T) {
	h := newHarness(t, 2, radio.NoLoss{}, dissem.DefaultConfig(), 2, 2)
	h.runAll(t, 10*60*sim.Second)
	if !h.nodes[1].Completed() {
		t.Fatal("setup: receiver incomplete")
	}
	// Install a "new version" empty handler on the receiver: the node must
	// report incomplete again and re-acquire from scratch.
	fresh := newFake(2, 2, false)
	fresh.version = 1 // same version: only testing the state reset here
	h.nodes[1].Upgrade(fresh, dissem.NewUnionPolicy(fresh.PacketsInUnit))
	if h.nodes[1].Completed() {
		t.Fatal("Upgrade did not clear completion")
	}
	if h.nodes[1].Handler() != dissem.ObjectHandler(fresh) {
		t.Fatal("Upgrade did not install the new handler")
	}
	// The node must be able to complete again from the network.
	h.eng.Run(h.eng.Now() + 10*60*sim.Second)
	if !h.nodes[1].Completed() {
		t.Fatal("node did not re-acquire the object after Upgrade")
	}
}

func TestUpgraderRejectsVersionMismatch(t *testing.T) {
	// An upgrader returning a handler for the WRONG version must be
	// ignored (defense against buggy or confused upgraders).
	h := newHarness(t, 2, radio.NoLoss{}, dissem.DefaultConfig(), 1, 2)
	h.nodes[1].SetUpgrader(func(version uint16) (dissem.ObjectHandler, dissem.TxPolicy, error) {
		wrong := newFake(1, 2, false)
		wrong.version = version + 7
		return wrong, dissem.NewUnionPolicy(wrong.PacketsInUnit), nil
	})
	h.runAll(t, 10*60*sim.Second)
	// Deliver a "newer version" sig packet; the mismatch must be dropped
	// without replacing the handler.
	before := h.nodes[1].Handler()
	h.nodes[1].HandlePacket(9, &packet.Sig{Src: 9, Version: 5, Pages: 3, Signature: make([]byte, 73)})
	h.eng.Run(h.eng.Now() + 10*sim.Second)
	if h.nodes[1].Handler() != before {
		t.Fatal("mismatched upgrader output was installed")
	}
}

// sigFake is a fakeHandler whose signatures always verify; it counts the
// full verifications it performs.
type sigFake struct {
	*fakeHandler
	verified int
}

func (h *sigFake) PreVerifySig(*packet.Sig) bool { return true }

func (h *sigFake) IngestSig(*packet.Sig) dissem.IngestResult {
	h.verified++
	return dissem.UnitComplete
}

// TestCrashVoidsPendingUpgrade: a node that loses power while a newer
// version's signature is being verified must not finish that verification
// or switch versions, neither while down nor after a reboot inside the
// verification window. A fresh signature after the reboot still upgrades it.
func TestCrashVoidsPendingUpgrade(t *testing.T) {
	h := newHarness(t, 2, radio.NoLoss{}, dissem.DefaultConfig(), 1, 2)
	var cands []*sigFake
	h.nodes[1].SetUpgrader(func(version uint16) (dissem.ObjectHandler, dissem.TxPolicy, error) {
		c := &sigFake{fakeHandler: newFake(1, 2, false)}
		c.version = version
		cands = append(cands, c)
		return c, dissem.NewUnionPolicy(c.PacketsInUnit), nil
	})
	h.runAll(t, 10*60*sim.Second)
	old := h.nodes[1].Handler()
	delay := dissem.DefaultConfig().SigVerifyDelay
	sig := &packet.Sig{Src: 0, Version: 2, Pages: 1}

	for _, reboot := range []bool{false, true} {
		h.nodes[1].HandlePacket(0, sig)
		h.nodes[1].Crash()
		if reboot {
			h.nodes[1].Reboot()
		}
		h.eng.Run(h.eng.Now() + 2*delay)
		if got := h.nodes[1].Handler(); got != old {
			t.Fatalf("reboot=%v: node switched to version %d across a power loss", reboot, got.Version())
		}
		if c := cands[len(cands)-1]; c.verified != 0 {
			t.Fatalf("reboot=%v: %d verifications finished on a crashed node", reboot, c.verified)
		}
		if !reboot {
			h.nodes[1].Reboot()
		}
	}
	if len(cands) != 2 {
		t.Fatalf("upgrader consulted %d times, want 2", len(cands))
	}

	h.nodes[1].HandlePacket(0, sig)
	h.eng.Run(h.eng.Now() + 2*delay)
	if h.nodes[1].Handler().Version() != 2 {
		t.Fatal("a rebooted node no longer upgrades")
	}
}
