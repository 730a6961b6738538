// Multihop: reproduce the structure of the paper's Tables II/III — Seluge
// versus LR-Seluge disseminating over a multi-hop grid with heavy, bursty
// RF noise (Gilbert-Elliott channel standing in for TOSSIM's
// meyer-heavy.txt trace).
//
// Usage: multihop [-rows N] [-cols N] [-density tight|medium] [-kb N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"lrseluge"
)

func main() {
	var (
		rows    = flag.Int("rows", 7, "grid rows (paper: 15)")
		cols    = flag.Int("cols", 7, "grid cols (paper: 15)")
		density = flag.String("density", "tight", "grid density: tight or medium")
		kb      = flag.Int("kb", 8, "image size in KiB (paper: 20)")
		seed    = flag.Int64("seed", 1, "RNG seed")
	)
	flag.Parse()

	d, err := lrseluge.ParseDensity(*density)
	if err != nil {
		fmt.Fprintf(os.Stderr, "multihop: %v\n", err)
		os.Exit(2)
	}

	fmt.Printf("Seluge vs LR-Seluge on a %dx%d %s grid, %d KiB image, heavy bursty noise\n\n",
		*rows, *cols, d, *kb)

	graph, err := lrseluge.Grid(*rows, *cols, d)
	if err != nil {
		log.Fatal(err)
	}
	if !graph.Connected() {
		log.Fatalf("the %dx%d %s grid is not connected", *rows, *cols, d)
	}
	run := func(proto lrseluge.Protocol) lrseluge.AvgResult {
		avg, err := lrseluge.RunAvg(lrseluge.Scenario{
			Protocol:    proto,
			ImageSize:   *kb * 1024,
			Graph:       graph,
			LossFactory: lrseluge.HeavyNoise,
			Seed:        *seed,
		}, 1)
		if err != nil {
			log.Fatal(err)
		}
		return avg
	}
	sel, lr := run(lrseluge.Seluge), run(lrseluge.LRSeluge)

	fmt.Printf("%-10s %9s %9s %7s %11s %9s %6s\n", "scheme", "data", "snack", "adv", "bytes", "latency", "done")
	for _, row := range []struct {
		name string
		r    lrseluge.AvgResult
	}{{"Seluge", sel}, {"LR-Seluge", lr}} {
		fmt.Printf("%-10s %9.0f %9.0f %7.0f %11.0f %8.1fs %5.0f%%\n",
			row.name, row.r.DataPkts, row.r.SnackPkts, row.r.AdvPkts,
			row.r.TotalBytes, row.r.LatencySec, 100*row.r.Completed)
	}

	if lr.TotalBytes < sel.TotalBytes {
		fmt.Printf("\nLR-Seluge saves %.0f%% total communication on this grid.\n",
			100*(sel.TotalBytes-lr.TotalBytes)/sel.TotalBytes)
	}
}
