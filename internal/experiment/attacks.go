package experiment

import (
	"fmt"

	"lrseluge/internal/adversary"
	"lrseluge/internal/crypt/puzzle"
	"lrseluge/internal/dissem"
	"lrseluge/internal/image"
	"lrseluge/internal/packet"
	"lrseluge/internal/sim"
)

// AttackReport summarizes the adversarial experiments validating the
// security claims of §IV-E.
type AttackReport struct {
	// Injection: LR-Seluge under continuous forged-data injection. Every
	// forged packet must be rejected (ForgedAccepted == 0) while the
	// dissemination still completes with intact images.
	Injection       Result
	InjectionForged int64

	// SigFlood: forged signature packets WITHOUT valid puzzles — they must
	// all die at the one-hash weak-authenticator check (PuzzleRejects)
	// without triggering expensive verifications beyond the legitimate
	// ones.
	SigFlood     Result
	SigFloodSent int64

	// SigFloodStrong: the strongest flooder, which brute-forces a valid
	// puzzle per packet using the released chain key. Each such packet
	// costs the ATTACKER a search but the verifier at most one signature
	// verification; the genuine image still disseminates.
	SigFloodStrong     Result
	SigFloodStrongSent int64

	// Denial of receipt: transmissions made by the victim (base station)
	// while a SNACK-flooding neighbor denies all receipt, without and with
	// the SNACK-serve-limit defense.
	DoRVictimTxNoDefense int64
	DoRVictimTxDefense   int64
}

// attackInterval paces the adversaries: aggressive relative to protocol
// timers but not so dense that the simulation is all attack events.
const attackInterval = 100 * sim.Millisecond

// attack names one adversarial scenario of AttackResilience.
type attack int

const (
	attackInjection      attack = iota // forged data injection
	attackSigFlood                     // signature flood, unsolved puzzles
	attackSigFloodSolved               // signature flood, brute-forced puzzles
	attackDoR                          // denial of receipt, no defense
	attackDoRLimited                   // denial of receipt against the serve limit
)

// attackEnv builds LR-Seluge's network with one extra node for the attacker
// of kind, and starts the attacker. sent counts the packets it has sent.
func attackEnv(kind attack, params image.Params, imageSize, receivers int, lossP float64, seed int64) (*Env, func() int64, error) {
	s := Scenario{
		Protocol:   LRSeluge,
		ImageSize:  imageSize,
		Params:     params,
		Receivers:  receivers,
		LossP:      lossP,
		ExtraNodes: 1,
		Seed:       seed,
	}
	if kind == attackDoR || kind == attackDoRLimited {
		s.Dissem = dissem.DefaultConfig()
		if kind == attackDoRLimited {
			// The defense threshold: serving one neighbor more than 4x a
			// full unit's worth of packets for a single unit marks it
			// hostile.
			s.Dissem.SNACKServeLimit = 4 * params.N
		}
	}
	e, err := Build(s)
	if err != nil {
		return nil, nil, err
	}
	attackerID := packet.NodeID(receivers + 1)
	switch kind {
	case attackInjection:
		inj, err := adversary.NewInjector(attackerID, e.nw, attackInterval, seed^0xbad)
		if err != nil {
			return nil, nil, err
		}
		for _, n := range e.nodes {
			n.SetForgedSource(func(id packet.NodeID) bool { return id == attackerID })
		}
		inj.Start()
		return e, inj.Sent, nil
	case attackSigFlood, attackSigFloodSolved:
		var key puzzle.Key
		if kind == attackSigFloodSolved {
			// The released chain key is public knowledge once
			// dissemination begins.
			if key, err = e.chain.Key(1); err != nil {
				return nil, nil, err
			}
		}
		fl, err := adversary.NewSigFlooder(attackerID, e.nw, 1, uint8(e.units-2), attackInterval,
			kind == attackSigFloodSolved, key, e.puzzle(), seed^0xf100d)
		if err != nil {
			return nil, nil, err
		}
		fl.Start()
		return e, fl.Sent, nil
	default:
		dor, err := adversary.NewDoRAttacker(attackerID, e.nw, dorVictim, 1, e.baseHandler.PacketsInUnit, attackInterval)
		if err != nil {
			return nil, nil, err
		}
		dor.Start()
		return e, dor.Sent, nil
	}
}

// dorVictim is the node the denial-of-receipt attacker targets: the base
// station.
const dorVictim = packet.NodeID(0)

// dorVictimTx measures a denial-of-receipt run after its honest
// dissemination is done: the attack's energy drain shows then, so it keeps
// the attacker hammering the victim for a fixed window and returns only the
// victim's transmissions during it.
func dorVictimTx(e *Env, sent func() int64) (int64, error) {
	if sent() == 0 {
		return 0, fmt.Errorf("experiment: denial-of-receipt attacker never fired")
	}
	before := e.col.NodeTx(dorVictim)
	e.eng.Run(e.eng.Now() + 120*sim.Second)
	return e.col.NodeTx(dorVictim) - before, nil
}

// AttackResilience runs the three adversarial scenarios against LR-Seluge:
// forged-data injection, signature flooding without and with brute-forced
// puzzles (the strongest attacker), and denial of receipt without and with
// the serve-limit defense.
func AttackResilience(params image.Params, imageSize, receivers int, lossP float64, seed int64) (AttackReport, error) {
	var report AttackReport
	for _, a := range []struct {
		kind attack
		res  *Result
		sent *int64
	}{
		{attackInjection, &report.Injection, &report.InjectionForged},
		{attackSigFlood, &report.SigFlood, &report.SigFloodSent},
		{attackSigFloodSolved, &report.SigFloodStrong, &report.SigFloodStrongSent},
	} {
		e, sent, err := attackEnv(a.kind, params, imageSize, receivers, lossP, seed)
		if err != nil {
			return report, err
		}
		*a.res = e.run()
		*a.sent = sent()
	}
	for _, a := range []struct {
		kind attack
		tx   *int64
	}{{attackDoR, &report.DoRVictimTxNoDefense}, {attackDoRLimited, &report.DoRVictimTxDefense}} {
		e, sent, err := attackEnv(a.kind, params, imageSize, receivers, lossP, seed)
		if err != nil {
			return report, err
		}
		e.run()
		if *a.tx, err = dorVictimTx(e, sent); err != nil {
			return report, err
		}
	}
	return report, nil
}
