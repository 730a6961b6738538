// Command figures regenerates every table and figure of the paper's
// evaluation (§V-VI): Fig. 3 (analysis vs simulation, one page), Figs. 4-6
// (one-hop sweeps over loss rate, receiver count and erasure-coding rate),
// and Tables II-III (multi-hop grids). Each grid artifact runs its sweep
// from the experiment catalog (the one lrsweep and lrserved run), so its
// axes are defined once. Output is textual series matching the paper's
// axes; EXPERIMENTS.md records the comparison with the paper.
//
// -quick shrinks images to 4 KB and the multi-hop grids to 7x7 (the table
// titles name the grid their sweep ran). At that scale LR-Seluge sends more
// bytes than Seluge multi-hop; Tables II/III's ordering holds only at full
// scale.
//
// Usage:
//
//	figures [-fig 3a|3b|4|5|6|table2|table3|attacks|ablation|upgrade|all] [-runs N] [-seed S] [-quick] [-parallel W]
package main

import (
	"flag"
	"fmt"
	"os"

	"lrseluge/internal/analysis"
	"lrseluge/internal/experiment"
	"lrseluge/internal/harness"
	"lrseluge/internal/image"
)

// config is what every artifact runs under.
type config struct {
	spec experiment.SweepSpec
	pool harness.Config
}

// artifact is one table or figure, in output order.
type artifact struct {
	name string
	run  func(config) error
}

var artifacts = []artifact{
	{"3a", func(c config) error {
		return fig3(c, "fig3a", "Fig. 3(a): data packets for one page vs packet-loss rate (N=10 receivers)",
			"p", "%8.2f", func(s experiment.Scenario) float64 { return s.LossP })
	}},
	{"3b", func(c config) error {
		return fig3(c, "fig3b", "Fig. 3(b): data packets for one page vs number of receivers (p=0.2)",
			"N", "%8.0f", func(s experiment.Scenario) float64 { return float64(s.Receivers) })
	}},
	{"4", func(c config) error {
		return comparison(c, "fig4", fmt.Sprintf("Fig. 4(a)-(e): impact of packet-loss rate (N=20, %d KB image)", c.spec.ImageSize()/1024),
			"p", func(s experiment.Scenario) float64 { return s.LossP })
	}},
	{"5", func(c config) error {
		return comparison(c, "fig5", fmt.Sprintf("Fig. 5(a)-(e): impact of receiver count (p=0.1, %d KB image)", c.spec.ImageSize()/1024),
			"N", func(s experiment.Scenario) float64 { return float64(s.Receivers) })
	}},
	{"6", fig6},
	{"table2", func(c config) error { return multihop(c, "multihop", "Table II (%s tight grid, high density)") }},
	{"table3", func(c config) error {
		return multihop(c, "multihop-medium", "Table III (%s medium grid, low density)")
	}},
	{"attacks", attacks},
	{"ablation", ablation},
	{"upgrade", upgrade},
}

func main() {
	var (
		fig      = flag.String("fig", "all", "which artifact to regenerate: 3a, 3b, 4, 5, 6, table2, table3, attacks, ablation, upgrade, all")
		runs     = flag.Int("runs", 3, "simulation runs to average per data point")
		seed     = flag.Int64("seed", 1, "base RNG seed")
		quick    = flag.Bool("quick", false, "smaller image and sweeps for a fast pass")
		parallel = flag.Int("parallel", 0, "cap on concurrent simulation runs (0 = all cores); output is identical for any value")
	)
	flag.Parse()

	c := config{
		spec: experiment.SweepSpec{Runs: *runs, Seed: *seed, Quick: *quick},
		pool: harness.Config{Workers: *parallel},
	}
	found := false
	for _, a := range artifacts {
		if *fig != "all" && *fig != a.name {
			continue
		}
		found = true
		if err := a.run(c); err != nil {
			fmt.Fprintf(os.Stderr, "figures: %s: %v\n", a.name, err)
			os.Exit(1)
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "figures: unknown artifact %q\n", *fig)
		os.Exit(2)
	}
}

// fig3 prints one panel of Fig. 3: the §V analysis at each x next to the
// simulated one-page data packets. The catalog lists each x as a Seluge
// entry followed by an LR-Seluge one, and every run must complete.
func fig3(c config, sweep, title, xHead, xFmt string, x func(experiment.Scenario) float64) error {
	fmt.Printf("=== %s ===\n", title)
	entries, avgs, err := experiment.RunSweep(sweep, c.spec, c.pool)
	if err != nil {
		return err
	}
	fmt.Printf("%8s %16s %16s %12s %12s\n", xHead, "Seluge(analysis)", "ACK-LR(analysis)", "Seluge(sim)", "LR(sim)")
	for i := 0; i < len(entries); i += 2 {
		s := entries[i].Scenario
		for _, avg := range avgs[i : i+2] {
			if avg.Completed < 1 {
				return fmt.Errorf("fig3 run incomplete (%.2f) proto=%v x=%v", avg.Completed, avg.Protocol, x(s))
			}
		}
		sel, err := analysis.SelugeDataTx(s.Params.K, s.Receivers, s.LossP)
		if err != nil {
			return err
		}
		ackLR, err := analysis.ACKBasedLRDataTx(s.Params.K, s.Params.N, s.Params.K, s.Receivers, s.LossP)
		if err != nil {
			return err
		}
		fmt.Printf(xFmt+" %16.1f %16.1f %12.1f %12.1f\n", x(s), sel, ackLR, avgs[i].PageData, avgs[i+1].PageData)
	}
	fmt.Println()
	return nil
}

// comparison prints Fig. 4 or 5: the five metrics of Seluge and LR-Seluge
// at each x (Seluge entry first).
func comparison(c config, sweep, title, xHead string, x func(experiment.Scenario) float64) error {
	fmt.Printf("=== %s ===\n", title)
	entries, avgs, err := experiment.RunSweep(sweep, c.spec, c.pool)
	if err != nil {
		return err
	}
	fmt.Printf("%8s | %10s %10s | %10s %10s | %9s %9s | %12s %12s | %10s %10s\n",
		xHead, "S:data", "LR:data", "S:snack", "LR:snack", "S:adv", "LR:adv", "S:bytes", "LR:bytes", "S:lat(s)", "LR:lat(s)")
	for i := 0; i < len(entries); i += 2 {
		sel, lr := avgs[i], avgs[i+1]
		fmt.Printf("%8.2f | %10.0f %10.0f | %10.0f %10.0f | %9.0f %9.0f | %12.0f %12.0f | %10.1f %10.1f\n",
			x(entries[i].Scenario),
			sel.DataPkts, lr.DataPkts,
			sel.SnackPkts, lr.SnackPkts,
			sel.AdvPkts, lr.AdvPkts,
			sel.TotalBytes, lr.TotalBytes,
			sel.LatencySec, lr.LatencySec)
	}
	fmt.Println()
	return nil
}

func fig6(c config) error {
	fmt.Printf("=== Fig. 6(a)-(e): impact of erasure-coding rate n/k (k=32, N=20, %d KB image) ===\n", c.spec.ImageSize()/1024)
	entries, avgs, err := experiment.RunSweep("fig6", c.spec, c.pool)
	if err != nil {
		return err
	}
	fmt.Printf("%6s %6s %6s | %10s %10s %9s %12s %10s\n", "p", "n", "n/k", "data", "snack", "adv", "bytes", "lat(s)")
	for i, e := range entries {
		s, lr := e.Scenario, avgs[i]
		fmt.Printf("%6.2f %6d %6.2f | %10.0f %10.0f %9.0f %12.0f %10.1f\n",
			s.LossP, s.Params.N, float64(s.Params.N)/float64(s.Params.K),
			lr.DataPkts, lr.SnackPkts, lr.AdvPkts, lr.TotalBytes, lr.LatencySec)
	}
	fmt.Println()
	return nil
}

// multihop prints one multi-hop table. The title's %s verb takes the grid
// size the sweep's scenarios ran on (its "grid" label, e.g. 15x15).
func multihop(c config, sweep, title string) error {
	entries, avgs, err := experiment.RunSweep(sweep, c.spec, c.pool)
	if err != nil {
		return err
	}
	grid := ""
	for _, p := range entries[0].Params {
		if p.Key == "grid" {
			grid = p.Value
		}
	}
	fmt.Printf("=== "+title+" ===\n", grid)
	fmt.Printf("%-12s %10s %10s %9s %12s %10s %10s\n", "scheme", "data", "snack", "adv", "bytes", "lat(s)", "done")
	for i, name := range []string{"Seluge", "LR-Seluge"} {
		r := avgs[i]
		fmt.Printf("%-12s %10.0f %10.0f %9.0f %12.0f %10.1f %9.0f%%\n", name,
			r.DataPkts, r.SnackPkts, r.AdvPkts, r.TotalBytes, r.LatencySec, 100*r.Completed)
	}
	fmt.Println()
	return nil
}

func attacks(c config) error {
	fmt.Println("=== Attack resilience (§IV-E): forged data / signature flood / denial of receipt ===")
	res, err := experiment.AttackResilience(image.DefaultParams(), c.spec.ImageSize()/4, 10, 0.1, c.spec.Seed)
	if err != nil {
		return err
	}
	fmt.Printf("forged-data injection: authDrops=%d forgedAccepted=%d completed=%d/%d imagesOK=%v\n",
		res.Injection.AuthDrops, res.Injection.ForgedAccepted, res.Injection.Completed, res.Injection.Nodes, res.Injection.ImagesOK)
	fmt.Printf("signature flooding:    puzzleRejects=%d sigVerifications=%d completed=%d/%d\n",
		res.SigFlood.PuzzleRejects, res.SigFlood.SigVerifications, res.SigFlood.Completed, res.SigFlood.Nodes)
	fmt.Printf("denial of receipt:     victimTx(no defense)=%d victimTx(defense)=%d\n",
		res.DoRVictimTxNoDefense, res.DoRVictimTxDefense)
	fmt.Println()
	return nil
}

func ablation(c config) error {
	fmt.Println("=== Scheduler ablation (§IV-D.3): greedy-RR vs union vs fresh-RR ===")
	entries, avgs, err := experiment.RunSweep("ablation", c.spec, c.pool)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %10s %10s %12s %10s\n", "policy", "data", "snack", "bytes", "lat(s)")
	for i, e := range entries {
		r := avgs[i]
		fmt.Printf("%-10s %10.0f %10.0f %12.0f %10.1f\n", e.Scenario.LRPolicy, r.DataPkts, r.SnackPkts, r.TotalBytes, r.LatencySec)
	}
	fmt.Println()
	return nil
}

func upgrade(c config) error {
	fmt.Println("=== Secure version upgrade: v1 network reprogrammed to v2 ===")
	res, err := experiment.VersionUpgrade(image.DefaultParams(), c.spec.ImageSize()/2, 10, 0.1, c.spec.Seed)
	if err != nil {
		return err
	}
	fmt.Printf("v1 latency=%.1fs  upgrade latency=%.1fs  upgrade bytes=%d  upgraded=%d/%d  imagesOK=%v\n",
		res.V1Latency.Seconds(), res.UpgradeLatency.Seconds(), res.UpgradeBytes, res.Upgraded, res.Nodes, res.ImagesOK)
	fmt.Println()
	return nil
}
