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

// AttackResilience runs the three adversarial scenarios against LR-Seluge.
func AttackResilience(params image.Params, imageSize, receivers int, lossP float64, seed int64) (AttackReport, error) {
	var report AttackReport

	// 1. Forged data injection.
	{
		s := Scenario{
			Protocol:   LRSeluge,
			ImageSize:  imageSize,
			Params:     params,
			Receivers:  receivers,
			LossP:      lossP,
			ExtraNodes: 1,
			Seed:       seed,
		}
		e, err := Build(s)
		if err != nil {
			return report, err
		}
		attackerID := packet.NodeID(receivers + 1)
		inj, err := adversary.NewInjector(attackerID, e.nw, attackInterval, seed^0xbad)
		if err != nil {
			return report, err
		}
		for _, n := range e.nodes {
			n.SetForgedSource(func(id packet.NodeID) bool { return id == attackerID })
		}
		inj.Start()
		report.Injection = e.run()
		report.InjectionForged = inj.Sent()
	}

	// 2. Signature flooding without valid puzzles.
	{
		res, sent, err := runSigFlood(params, imageSize, receivers, lossP, seed, false)
		if err != nil {
			return report, err
		}
		report.SigFlood = res
		report.SigFloodSent = sent
	}

	// 3. Signature flooding WITH brute-forced puzzles (strongest attacker).
	{
		res, sent, err := runSigFlood(params, imageSize, receivers, lossP, seed, true)
		if err != nil {
			return report, err
		}
		report.SigFloodStrong = res
		report.SigFloodStrongSent = sent
	}

	// 4. Denial of receipt, without and with the serve-limit defense.
	{
		noDef, err := runDoR(params, imageSize, receivers, lossP, seed, 0)
		if err != nil {
			return report, err
		}
		report.DoRVictimTxNoDefense = noDef
		// The defense threshold: serving one neighbor more than 4x a full
		// unit's worth of packets for a single unit marks it hostile.
		withDef, err := runDoR(params, imageSize, receivers, lossP, seed, 4*params.N)
		if err != nil {
			return report, err
		}
		report.DoRVictimTxDefense = withDef
	}
	return report, nil
}

func runSigFlood(params image.Params, imageSize, receivers int, lossP float64, seed int64, solve bool) (Result, int64, error) {
	s := Scenario{
		Protocol:   LRSeluge,
		ImageSize:  imageSize,
		Params:     params,
		Receivers:  receivers,
		LossP:      lossP,
		ExtraNodes: 1,
		Seed:       seed,
	}
	e, err := Build(s)
	if err != nil {
		return Result{}, 0, err
	}
	attackerID := packet.NodeID(receivers + 1)
	var key puzzle.Key
	pparams := puzzle.Params{Strength: e.scenario.PuzzleStrength}
	if solve {
		// The released chain key is public knowledge once dissemination
		// begins; rebuild the experiment's chain to obtain it.
		chain, err := puzzle.NewChain([]byte("lrseluge-experiment"), 8)
		if err != nil {
			return Result{}, 0, err
		}
		key, err = chain.Key(1)
		if err != nil {
			return Result{}, 0, err
		}
	}
	fl, err := adversary.NewSigFlooder(attackerID, e.nw, 1, uint8(e.units-2), attackInterval, solve, key, pparams, seed^0xf100d)
	if err != nil {
		return Result{}, 0, err
	}
	fl.Start()
	res := e.run()
	return res, fl.Sent(), nil
}

func runDoR(params image.Params, imageSize, receivers int, lossP float64, seed int64, serveLimit int) (int64, error) {
	cfg := dissem.DefaultConfig()
	cfg.SNACKServeLimit = serveLimit
	s := Scenario{
		Protocol:   LRSeluge,
		ImageSize:  imageSize,
		Params:     params,
		Receivers:  receivers,
		LossP:      lossP,
		ExtraNodes: 1,
		Dissem:     cfg,
		Seed:       seed,
	}
	e, err := Build(s)
	if err != nil {
		return 0, err
	}
	attackerID := packet.NodeID(receivers + 1)
	victim := packet.NodeID(0)
	dor, err := adversary.NewDoRAttacker(attackerID, e.nw, victim, 1, e.baseHandler.PacketsInUnit, attackInterval)
	if err != nil {
		return 0, err
	}
	dor.Start()
	e.run()
	if dor.Sent() == 0 {
		return 0, fmt.Errorf("experiment: denial-of-receipt attacker never fired")
	}
	// The attack's energy drain shows after the honest dissemination is
	// done: keep the attacker hammering the victim for a fixed window and
	// measure only the victim's transmissions during it.
	before := e.col.NodeTx(victim)
	e.eng.Run(e.eng.Now() + 120*sim.Second)
	return e.col.NodeTx(victim) - before, nil
}
