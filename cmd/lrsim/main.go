// Command lrsim runs a single code-dissemination simulation and prints the
// paper's metrics. It is the interactive companion to cmd/figures: one
// scenario, fully parameterized from the command line.
//
// Examples:
//
//	lrsim -proto lr-seluge -kb 20 -receivers 20 -loss 0.1
//	lrsim -proto seluge -topology grid -rows 15 -cols 15 -density medium -noise heavy
//	lrsim -proto lr-seluge -k 32 -n 64 -loss 0.3 -policy fresh-rr
//	lrsim -proto lr-seluge -kb 4 -receivers 5 -faults examples/faults/churn.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"lrseluge"
	"lrseluge/internal/experiment"
	"lrseluge/internal/image"
)

func main() {
	var (
		proto     = flag.String("proto", "lr-seluge", "protocol: deluge, seluge, lr-seluge, rateless")
		kb        = flag.Int("kb", 20, "code image size in KiB")
		receivers = flag.Int("receivers", 20, "one-hop receivers (ignored for grid topologies)")
		loss      = flag.Float64("loss", 0.1, "iid packet-loss probability at each receiver")
		noise     = flag.String("noise", "bernoulli", "channel model: bernoulli (iid via -loss), heavy (bursty Gilbert-Elliott)")
		topology  = flag.String("topology", "onehop", "topology: onehop, grid, random")
		rows      = flag.Int("rows", 15, "grid rows")
		cols      = flag.Int("cols", 15, "grid cols")
		density   = flag.String("density", "tight", "grid density: tight, medium")
		side      = flag.Float64("side", 100, "random topology square side")
		nodes     = flag.Int("nodes", 50, "random topology node count")
		payload   = flag.Int("payload", 72, "packet payload bytes")
		k         = flag.Int("k", 32, "source blocks per page")
		n         = flag.Int("n", 48, "encoded packets per page (LR-Seluge)")
		policy    = flag.String("policy", "greedy-rr", "LR-Seluge TX policy: greedy-rr, union, fresh-rr")
		faults    = flag.String("faults", "", "JSON fault-plan file (node churn, link outages, partitions)")
		seed      = flag.Int64("seed", 1, "RNG seed")
		runs      = flag.Int("runs", 1, "runs to average")
		parallel  = flag.Int("parallel", 0, "harness workers for multi-run averaging (0 = GOMAXPROCS, 1 = serial)")
		traceOut  = flag.String("trace", "", "write a JSONL protocol trace to this path (requires -runs 1; analyze with lrtrace)")
	)
	flag.Parse()

	s := lrseluge.Scenario{
		ImageSize: *kb * 1024,
		Params:    image.Params{PacketPayload: *payload, K: *k, N: *n},
		Receivers: *receivers,
		Seed:      *seed,
	}

	var err error
	if s.Protocol, err = experiment.ParseProtocol(*proto); err != nil {
		usage(err)
	}
	if s.LRPolicy, err = experiment.ParsePolicy(*policy); err != nil {
		usage(err)
	}
	if s.LossFactory, err = experiment.ParseNoise(*noise); err != nil {
		usage(err)
	}

	switch *topology {
	case "onehop":
		s.LossP = *loss
	case "grid":
		d, err := experiment.ParseDensity(*density)
		if err != nil {
			usage(err)
		}
		g, err := lrseluge.Grid(*rows, *cols, d)
		if err != nil {
			log.Fatal(err)
		}
		s.Graph = g
	case "random":
		g, err := lrseluge.RandomTopology(*nodes, *side, *seed)
		if err != nil {
			log.Fatal(err)
		}
		s.Graph = g
	default:
		usage(fmt.Errorf("unknown topology %q", *topology))
	}
	if *faults != "" {
		plan, err := lrseluge.LoadFaultPlan(*faults)
		if err != nil {
			usage(err)
		}
		s.Faults = plan
	}

	var traceFile *os.File
	if *traceOut != "" {
		// A trace is the event stream of ONE simulation; averaging several
		// runs into a single file would interleave unrelated runs.
		if *runs != 1 {
			usage(fmt.Errorf("-trace requires -runs 1 (got -runs %d)", *runs))
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lrsim: %v\n", err)
			os.Exit(1)
		}
		traceFile = f
		s.Trace = lrseluge.NewTraceJSONL(f)
	}

	res, err := lrseluge.RunAvgParallel(s, *runs, *parallel)
	if err != nil {
		log.Fatal(err)
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("protocol:          %v\n", s.Protocol)
	fmt.Printf("image:             %d KiB (k=%d, n=%d, payload=%d B)\n", *kb, *k, *n, *payload)
	fmt.Printf("runs averaged:     %d\n", *runs)
	fmt.Printf("completed:         %.0f%% of nodes\n", 100*res.Completed)
	fmt.Printf("images verified:   %v\n", res.ImagesOK)
	fmt.Printf("data packets:      %.0f\n", res.DataPkts)
	fmt.Printf("SNACK packets:     %.0f\n", res.SnackPkts)
	fmt.Printf("adv packets:       %.0f\n", res.AdvPkts)
	fmt.Printf("signature packets: %.0f\n", res.SigPkts)
	fmt.Printf("total bytes:       %.0f\n", res.TotalBytes)
	fmt.Printf("latency:           %.1f s\n", res.LatencySec)
	if *faults != "" {
		fmt.Printf("crashes:           %.1f\n", res.Crashes)
		fmt.Printf("node downtime:     %.1f s\n", res.Downtime)
		fmt.Printf("recovery latency:  %.1f s\n", res.Recovery)
		fmt.Printf("re-fetched pkts:   %.1f\n", res.Refetched)
		fmt.Printf("fault drops:       %.1f\n", res.FaultDrops)
	}
}

// usage reports a bad flag value and exits 2.
func usage(err error) {
	fmt.Fprintf(os.Stderr, "lrsim: %v\n", err)
	os.Exit(2)
}
