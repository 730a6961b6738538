// Package adversary implements the attacker models of the paper's threat
// analysis (§III-B, §IV-E): forged data-packet injection (code-image
// integrity / buffer-exhaustion DoS), signature-packet flooding (expensive
// verification DoS), and the denial-of-receipt attack (SNACK flooding to
// deplete a victim's energy).
//
// Adversaries attach to the radio like ordinary nodes but run their own
// logic instead of the dissemination protocol. They are assumed to know all
// public protocol parameters and to overhear all local traffic.
package adversary

import (
	"math/rand"

	"lrseluge/internal/crypt/hashx"
	"lrseluge/internal/crypt/puzzle"
	"lrseluge/internal/packet"
	"lrseluge/internal/radio"
	"lrseluge/internal/sim"
	"lrseluge/internal/xrand"
)

// Injector floods forged data packets. It shapes forgeries after overheard
// genuine packets (same unit, index space, payload and proof sizes) with
// corrupted contents — the strongest cheap forgery: everything is right
// except the bytes, so only per-packet authentication can stop it.
type Injector struct {
	id       packet.NodeID
	nw       *radio.Network
	eng      *sim.Engine
	rng      *rand.Rand
	interval sim.Time

	template *packet.Data
	timer    sim.Timer
	sent     int64
	stopped  bool
}

// NewInjector creates an injector that transmits one forged packet per
// interval once it has overheard a template.
func NewInjector(id packet.NodeID, nw *radio.Network, interval sim.Time, seed int64) (*Injector, error) {
	a := &Injector{
		id:       id,
		nw:       nw,
		eng:      nw.Engine(),
		rng:      rand.New(xrand.NewSplitMix(seed)),
		interval: interval,
	}
	if err := nw.Attach(id, a); err != nil {
		return nil, err
	}
	return a, nil
}

// Start begins the injection loop.
func (a *Injector) Start() {
	a.timer = a.eng.Schedule(a.interval, a.tick)
}

// Stop halts the injection loop.
func (a *Injector) Stop() {
	a.stopped = true
	a.timer.Stop()
}

// Sent returns the number of forged packets transmitted.
func (a *Injector) Sent() int64 { return a.sent }

// HandlePacket implements radio.Receiver: learn the shape of current
// traffic so forgeries target exactly the unit receivers are assembling.
func (a *Injector) HandlePacket(_ packet.NodeID, p packet.Packet) {
	if d, ok := p.(*packet.Data); ok {
		cp := *d
		cp.Payload = append([]byte(nil), d.Payload...)
		cp.Proof = append([]hashx.Image(nil), d.Proof...)
		a.template = &cp
	}
}

func (a *Injector) tick() {
	if a.stopped {
		return
	}
	if a.template != nil {
		f := *a.template
		f.Src = a.id
		// Random index within the unit's packet space and garbage payload:
		// structurally perfect, cryptographically worthless.
		f.Index = a.template.Index
		payload := make([]byte, len(a.template.Payload))
		a.rng.Read(payload)
		f.Payload = payload
		a.nw.Broadcast(a.id, &f)
		a.sent++
	}
	a.timer = a.eng.Schedule(a.interval, a.tick)
}

// SigFlooder floods forged signature packets to coerce nodes into expensive
// signature verifications. With a valid puzzle key and per-packet puzzle
// solving (SolvePuzzles=true) it models the strongest attacker, who pays a
// brute-force search per packet to defeat the weak authenticator; otherwise
// packets die at the one-hash puzzle check.
type SigFlooder struct {
	id       packet.NodeID
	nw       *radio.Network
	eng      *sim.Engine
	rng      *rand.Rand
	interval sim.Time
	version  uint16
	pages    uint8

	// SolvePuzzles, when true, attaches a valid message-specific puzzle
	// using Key (the released chain key, public once dissemination
	// started).
	solve  bool
	key    puzzle.Key
	params puzzle.Params

	timer   sim.Timer
	sent    int64
	stopped bool
}

// NewSigFlooder creates a signature flooder. key and params are only used
// when solvePuzzles is true.
func NewSigFlooder(id packet.NodeID, nw *radio.Network, version uint16, pages uint8, interval sim.Time, solvePuzzles bool, key puzzle.Key, params puzzle.Params, seed int64) (*SigFlooder, error) {
	a := &SigFlooder{
		id:       id,
		nw:       nw,
		eng:      nw.Engine(),
		rng:      rand.New(xrand.NewSplitMix(seed)),
		interval: interval,
		version:  version,
		pages:    pages,
		solve:    solvePuzzles,
		key:      key,
		params:   params,
	}
	if err := nw.Attach(id, a); err != nil {
		return nil, err
	}
	return a, nil
}

// Start begins the flood.
func (a *SigFlooder) Start() { a.timer = a.eng.Schedule(a.interval, a.tick) }

// Stop halts the flood.
func (a *SigFlooder) Stop() {
	a.stopped = true
	a.timer.Stop()
}

// Sent returns the number of forged signature packets transmitted.
func (a *SigFlooder) Sent() int64 { return a.sent }

// HandlePacket implements radio.Receiver (the flooder ignores traffic).
func (a *SigFlooder) HandlePacket(packet.NodeID, packet.Packet) {}

func (a *SigFlooder) tick() {
	if a.stopped {
		return
	}
	s := &packet.Sig{
		Src:       a.id,
		Version:   a.version,
		Pages:     a.pages,
		Signature: make([]byte, 73),
	}
	a.rng.Read(s.Root[:])
	a.rng.Read(s.Signature)
	s.Signature[0] = 70 // plausible ASN.1 length so parsing succeeds
	if a.solve {
		s.PuzzleKey = a.key
		if sol, err := puzzle.Solve(a.params, s.PuzzleMessage(), a.key); err == nil {
			s.PuzzleSol = sol
		}
	} else {
		a.rng.Read(s.PuzzleKey[:])
		s.PuzzleSol = a.rng.Uint64()
	}
	a.nw.Broadcast(a.id, s)
	a.sent++
	a.timer = a.eng.Schedule(a.interval, a.tick)
}

// DoRAttacker mounts the denial-of-receipt attack (paper §IV-E): it keeps
// sending all-ones SNACKs to a victim, denying all receipt, to make the
// victim burn energy retransmitting data packets forever.
type DoRAttacker struct {
	id       packet.NodeID
	nw       *radio.Network
	eng      *sim.Engine
	victim   packet.NodeID
	version  uint16
	sizeOf   func(unit int) int
	interval sim.Time

	victimUnits int
	timer       sim.Timer
	sent        int64
	stopped     bool
}

// NewDoRAttacker creates a denial-of-receipt attacker against victim.
// sizeOf maps units to packet counts (public protocol knowledge).
func NewDoRAttacker(id packet.NodeID, nw *radio.Network, victim packet.NodeID, version uint16, sizeOf func(int) int, interval sim.Time) (*DoRAttacker, error) {
	a := &DoRAttacker{
		id:       id,
		nw:       nw,
		eng:      nw.Engine(),
		victim:   victim,
		version:  version,
		sizeOf:   sizeOf,
		interval: interval,
	}
	if err := nw.Attach(id, a); err != nil {
		return nil, err
	}
	return a, nil
}

// Start begins the SNACK flood.
func (a *DoRAttacker) Start() { a.timer = a.eng.Schedule(a.interval, a.tick) }

// Stop halts the flood.
func (a *DoRAttacker) Stop() {
	a.stopped = true
	a.timer.Stop()
}

// Sent returns the number of SNACKs transmitted.
func (a *DoRAttacker) Sent() int64 { return a.sent }

// HandlePacket implements radio.Receiver: track the victim's advertised
// units so requests always name a unit the victim can serve.
func (a *DoRAttacker) HandlePacket(from packet.NodeID, p packet.Packet) {
	if adv, ok := p.(*packet.Adv); ok && from == a.victim {
		a.victimUnits = int(adv.Units)
	}
}

func (a *DoRAttacker) tick() {
	if a.stopped {
		return
	}
	if a.victimUnits > 0 {
		// Request the newest unit the victim holds, denying every packet.
		unit := a.victimUnits - 1
		bits := packet.NewBitVector(a.sizeOf(unit))
		bits.SetAll()
		a.nw.Broadcast(a.id, &packet.SNACK{
			Src:     a.id,
			Dest:    a.victim,
			Version: a.version,
			Unit:    packet.Unit(unit),
			Bits:    bits,
		})
		a.sent++
	}
	a.timer = a.eng.Schedule(a.interval, a.tick)
}
