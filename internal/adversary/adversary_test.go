package adversary

import (
	"testing"

	"lrseluge/internal/crypt/puzzle"
	"lrseluge/internal/metrics"
	"lrseluge/internal/packet"
	"lrseluge/internal/radio"
	"lrseluge/internal/sim"
	"lrseluge/internal/topo"
)

type sink struct {
	data  []*packet.Data
	sigs  []*packet.Sig
	snack []*packet.SNACK
	advs  []*packet.Adv
}

func (s *sink) HandlePacket(_ packet.NodeID, p packet.Packet) {
	switch pkt := p.(type) {
	case *packet.Data:
		s.data = append(s.data, pkt)
	case *packet.Sig:
		s.sigs = append(s.sigs, pkt)
	case *packet.SNACK:
		s.snack = append(s.snack, pkt)
	case *packet.Adv:
		s.advs = append(s.advs, pkt)
	}
}

func newNet(t *testing.T, nodes int) (*radio.Network, *sim.Engine) {
	t.Helper()
	eng := sim.New()
	g, err := topo.Complete(nodes)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := radio.New(eng, g, radio.NoLoss{}, radio.DefaultConfig(), metrics.New(nil), 4)
	if err != nil {
		t.Fatal(err)
	}
	return nw, eng
}

func TestInjectorForgesFromTemplate(t *testing.T) {
	nw, eng := newNet(t, 3)
	victim := &sink{}
	if err := nw.Attach(0, victim); err != nil {
		t.Fatal(err)
	}
	genuineSender := &sink{}
	if err := nw.Attach(1, genuineSender); err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(2, nw, 100*sim.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()

	// No template yet: nothing is injected.
	eng.Run(1 * sim.Second)
	if inj.Sent() != 0 {
		t.Fatal("injector fired without a template")
	}

	// A genuine data packet provides the shape.
	genuine := &packet.Data{Src: 1, Version: 1, Unit: 3, Index: 5, Payload: make([]byte, 40)}
	nw.Broadcast(1, genuine)
	eng.Run(5 * sim.Second)
	inj.Stop()
	eng.Run(6 * sim.Second)

	if inj.Sent() == 0 {
		t.Fatal("injector never fired after seeing a template")
	}
	forgedSeen := 0
	for _, d := range victim.data {
		if d.Src == 2 {
			forgedSeen++
			if int(d.Unit) != 3 || len(d.Payload) != 40 {
				t.Fatalf("forgery shape wrong: unit=%d len=%d", d.Unit, len(d.Payload))
			}
		}
	}
	if forgedSeen == 0 {
		t.Fatal("no forgeries delivered")
	}
}

func TestSigFlooderWithoutPuzzles(t *testing.T) {
	nw, eng := newNet(t, 2)
	victim := &sink{}
	if err := nw.Attach(0, victim); err != nil {
		t.Fatal(err)
	}
	fl, err := NewSigFlooder(1, nw, 1, 5, 50*sim.Millisecond, false, puzzle.Key{}, puzzle.Params{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	fl.Start()
	eng.Run(2 * sim.Second)
	fl.Stop()
	eng.Run(3 * sim.Second)
	if fl.Sent() < 10 || len(victim.sigs) < 10 {
		t.Fatalf("flood too weak: sent=%d delivered=%d", fl.Sent(), len(victim.sigs))
	}
	for _, s := range victim.sigs {
		if s.Version != 1 || s.Pages != 5 {
			t.Fatal("flooded sig fields wrong")
		}
	}
}

func TestSigFlooderWithSolvedPuzzles(t *testing.T) {
	chain, err := puzzle.NewChain([]byte("flood"), 2)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := chain.Key(1)
	pp := puzzle.Params{Strength: 6}
	nw, eng := newNet(t, 2)
	victim := &sink{}
	if err := nw.Attach(0, victim); err != nil {
		t.Fatal(err)
	}
	fl, err := NewSigFlooder(1, nw, 1, 5, 100*sim.Millisecond, true, key, pp, 3)
	if err != nil {
		t.Fatal(err)
	}
	fl.Start()
	eng.Run(1 * sim.Second)
	fl.Stop()
	eng.Run(2 * sim.Second)
	if len(victim.sigs) == 0 {
		t.Fatal("no flooded sigs delivered")
	}
	for _, s := range victim.sigs {
		if !puzzle.Verify(pp, s.PuzzleMessage(), s.PuzzleKey, s.PuzzleSol) {
			t.Fatal("strong flooder produced an invalid puzzle")
		}
		if !puzzle.VerifyKey(chain.Commitment(), s.PuzzleKey, 1) {
			t.Fatal("strong flooder used a bogus chain key")
		}
	}
}

func TestDoRAttackerTracksVictim(t *testing.T) {
	nw, eng := newNet(t, 3)
	victim := &sink{}
	if err := nw.Attach(0, victim); err != nil {
		t.Fatal(err)
	}
	if err := nw.Attach(1, &sink{}); err != nil {
		t.Fatal(err)
	}
	dor, err := NewDoRAttacker(2, nw, 0, 1, func(int) int { return 8 }, 100*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	dor.Start()

	// Before any advertisement from the victim the attacker stays silent.
	eng.Run(1 * sim.Second)
	if dor.Sent() != 0 {
		t.Fatal("attacker fired before learning victim state")
	}

	// The victim advertises 3 units; the attacker must request unit 2 with
	// all bits set, addressed to the victim.
	nw.Broadcast(0, &packet.Adv{Src: 0, Version: 1, Units: 3})
	eng.Run(3 * sim.Second)
	dor.Stop()
	eng.Run(4 * sim.Second)

	if dor.Sent() == 0 {
		t.Fatal("attacker never fired")
	}
	found := false
	for _, s := range victim.snack {
		if s.Dest == 0 && int(s.Unit) == 2 && s.Bits.Count() == 8 {
			found = true
		}
	}
	if !found {
		t.Fatal("expected all-ones SNACK for unit 2 addressed to victim")
	}
}
