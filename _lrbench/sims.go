package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"lrseluge/internal/experiment"
	"lrseluge/internal/image"
	"lrseluge/internal/trace"
)

// A run times its set-up in setupSamples samples of setupOps operations'
// set-up each; setup_s is the median sample per operation.
const (
	setupSamples = 15
	setupOps     = 40
)

// fig4-loss is the paper's Fig. 4 sweep: a 20 KB image to 20 one-hop
// receivers at each loss rate below, Seluge and LR-Seluge alternating. An
// operation is one complete dissemination; it succeeds when every node
// completed with the exact image and no forged packet was accepted.
var fig4Losses = []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4}

const (
	fig4Image     = 20 * 1024
	fig4Receivers = 20
)

func runFig4Loss(seed int64, budget time.Duration, traced bool) (*outcome, error) {
	base := experiment.Scenario{ImageSize: fig4Image, Receivers: fig4Receivers}
	o := &outcome{layers: make(map[string]float64)}
	var (
		tally  simTally
		counts traceCounts
		start  = time.Now()
	)
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		sc := base
		sc.Protocol = experiment.Seluge
		if i%2 == 1 {
			sc.Protocol = experiment.LRSeluge
		}
		sc.LossP = fig4Losses[(i/2)%len(fig4Losses)]
		sc.Seed = opSeed(seed, i)
		if traced {
			sc.Trace = &counts
		}
		t0 := time.Now()
		res, err := experiment.Run(sc)
		d := time.Since(t0)
		o.attempted++
		if err == nil && (res.Completed != res.Nodes || !res.ImagesOK || res.ForgedAccepted != 0) {
			err = fmt.Errorf("completed %d/%d, images ok %v, forged accepted %d",
				res.Completed, res.Nodes, res.ImagesOK, res.ForgedAccepted)
		}
		if err != nil {
			o.failed++
			fmt.Fprintf(os.Stderr, "fig4-loss: %v p=%v seed %d: %v\n", sc.Protocol, sc.LossP, sc.Seed, err)
			continue
		}
		o.latencies = append(o.latencies, d)
		tally.add(res)
	}
	o.window = time.Since(start)
	if traced {
		tally.layers(o.layers, len(o.latencies))
		counts.layers(o.layers, len(o.latencies))
	}
	// Operations alternate protocols, and so do the set-up builds.
	builds := make([]experiment.Scenario, setupOps)
	for i := range builds {
		builds[i] = base
		builds[i].Protocol = experiment.Seluge
		if i%2 == 1 {
			builds[i].Protocol = experiment.LRSeluge
		}
	}
	var err error
	o.setups, err = setupTimes(builds, setupOps, seed)
	return o, err
}

// attack runs the paper's adversarial scenarios against LR-Seluge (§IV-E):
// forged-data injection, signature flooding without and with solved puzzles,
// and denial of receipt without and with the serve-limit defense, on an
// 8 KB image to 10 one-hop receivers. An operation is one full set of the
// five scenarios; it succeeds when every security claim holds. The channel
// is lossless: the denial-of-receipt attacker only starts once it has heard
// the victim advertise, and on a lossy channel some seeds lose every such
// advertisement before the dissemination ends (fig4-loss covers loss).
const (
	attackImage     = 8 * 1024
	attackReceivers = 10
	attackScenarios = 5
)

func runAttack(seed int64, budget time.Duration, traced bool) (*outcome, error) {
	o := &outcome{layers: make(map[string]float64)}
	var (
		tally simTally
		start = time.Now()
	)
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		s := opSeed(seed, i)
		t0 := time.Now()
		rep, err := experiment.AttackResilience(image.DefaultParams(), attackImage, attackReceivers, 0, s)
		d := time.Since(t0)
		o.attempted++
		if err == nil {
			err = checkAttack(rep)
		}
		if err != nil {
			o.failed++
			fmt.Fprintf(os.Stderr, "attack: seed %d: %v\n", s, err)
			continue
		}
		o.latencies = append(o.latencies, d)
		for _, r := range []experiment.Result{rep.Injection, rep.SigFlood, rep.SigFloodStrong} {
			tally.add(r)
		}
	}
	o.window = time.Since(start)
	if traced {
		tally.layers(o.layers, len(o.latencies))
	}
	// Every one of an operation's five scenarios builds the same network:
	// LR-Seluge with one extra node for the attacker.
	builds := make([]experiment.Scenario, setupOps*attackScenarios)
	for i := range builds {
		builds[i] = experiment.Scenario{
			Protocol:   experiment.LRSeluge,
			ImageSize:  attackImage,
			Receivers:  attackReceivers,
			ExtraNodes: 1,
		}
	}
	var err error
	o.setups, err = setupTimes(builds, setupOps, seed)
	return o, err
}

// checkAttack asserts the security claims on one report: forged data never
// accepted and images intact under injection, unsolved signature floods
// stopped at the puzzle, solved ones costing verifications but never an
// accepted forgery, and the serve limit cutting the victim's transmissions.
func checkAttack(r experiment.AttackReport) error {
	inj, weak, strong := r.Injection, r.SigFlood, r.SigFloodStrong
	switch {
	case r.InjectionForged == 0 || inj.AuthDrops == 0:
		return fmt.Errorf("injection vacuous: sent %d, auth drops %d", r.InjectionForged, inj.AuthDrops)
	case inj.ForgedAccepted != 0 || inj.Completed != inj.Nodes || !inj.ImagesOK:
		return fmt.Errorf("injection: forged accepted %d, completed %d/%d, images ok %v",
			inj.ForgedAccepted, inj.Completed, inj.Nodes, inj.ImagesOK)
	case r.SigFloodSent == 0 || weak.PuzzleRejects == 0:
		return fmt.Errorf("signature flood vacuous: sent %d, puzzle rejects %d", r.SigFloodSent, weak.PuzzleRejects)
	case weak.SigVerifications > int64(weak.Nodes+2):
		return fmt.Errorf("unsolved signature flood forced %d verifications", weak.SigVerifications)
	case weak.Completed != weak.Nodes || !weak.ImagesOK:
		return fmt.Errorf("signature flood: completed %d/%d, images ok %v", weak.Completed, weak.Nodes, weak.ImagesOK)
	case strong.ForgedAccepted != 0 || strong.Completed != strong.Nodes || !strong.ImagesOK:
		return fmt.Errorf("solved signature flood: forged accepted %d, completed %d/%d, images ok %v",
			strong.ForgedAccepted, strong.Completed, strong.Nodes, strong.ImagesOK)
	case r.DoRVictimTxDefense >= r.DoRVictimTxNoDefense:
		return fmt.Errorf("serve limit did not cut victim transmissions: %d with, %d without",
			r.DoRVictimTxDefense, r.DoRVictimTxNoDefense)
	}
	return nil
}

// setupTimes returns setupSamples set-up times per operation, after the
// measured loop so a warm process times them. builds lists the scenarios ops
// operations build; one sample builds all of them, so it lasts long enough to
// be steady where a single build takes well under a millisecond. A run whose
// horizon is one nanosecond builds the whole simulation (topology, key
// material, the signed and encoded object, every node's handler) and ends
// before any packet is sent, so its wall time is the set-up cost.
func setupTimes(builds []experiment.Scenario, ops int, seed int64) ([]time.Duration, error) {
	out := make([]time.Duration, 0, setupSamples)
	for r := 0; r < setupSamples; r++ {
		// Start each sample from a collected heap so no sample pays for
		// garbage the previous ones left.
		runtime.GC()
		t0 := time.Now()
		for i, sc := range builds {
			sc.Horizon = 1
			sc.Seed = opSeed(seed, -1-r*len(builds)-i)
			if _, err := experiment.Run(sc); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		out = append(out, time.Since(t0)/time.Duration(ops))
	}
	return out, nil
}

// simTally sums protocol counters over the successful operations of a run.
type simTally struct {
	sigVerifies, dataPkts, authDrops, puzzleRejects int64
	bytes, nodes                                    int64
}

func (t *simTally) add(r experiment.Result) {
	t.sigVerifies += r.SigVerifications
	t.dataPkts += r.DataPkts
	t.authDrops += r.AuthDrops
	t.puzzleRejects += r.PuzzleRejects
	t.bytes += r.TotalBytes
	t.nodes += int64(r.Nodes)
}

func (t *simTally) layers(m map[string]float64, ops int) {
	if ops == 0 {
		return
	}
	n := float64(ops)
	m["sig_verifications_per_op"] = float64(t.sigVerifies) / n
	m["data_pkts_per_op"] = float64(t.dataPkts) / n
	m["auth_drops_per_op"] = float64(t.authDrops) / n
	m["puzzle_rejects_per_op"] = float64(t.puzzleRejects) / n
	if t.nodes > 0 {
		m["bytes_per_node"] = float64(t.bytes) / float64(t.nodes)
	}
}

// traceCounts is the benchmark's trace sink: it counts events by kind and
// drops by reason.
type traceCounts struct {
	total uint64
	kinds [256]uint64
	drops [256]uint64
}

// Emit implements trace.Sink.
func (c *traceCounts) Emit(e trace.Event) {
	c.total++
	c.kinds[e.Kind]++
	if e.Kind == trace.KindDrop {
		c.drops[e.Reason]++
	}
}

// Flush implements trace.Sink.
func (c *traceCounts) Flush() error { return nil }

func (c *traceCounts) layers(m map[string]float64, ops int) {
	if ops > 0 {
		m["trace_events_per_op"] = float64(c.total) / float64(ops)
	}
	if rx := c.kinds[trace.KindRx]; rx > 0 {
		m["duplicate_rx_frac"] = float64(c.drops[trace.DropDuplicate]) / float64(rx)
	}
}
