// Command lrscale benchmarks LR-Seluge dissemination at large network
// sizes and writes the BENCH_scale.json artifact consumed by check.sh.
//
// Default mode runs one dissemination per requested network size (node 0
// preloaded, everyone else fetching over a random-disk multi-hop graph) and
// reports wall time, engine throughput (events/sec), communication cost per
// node, and peak RSS per row. The flat events_per_sec_10k field mirrors the
// n=10000 row so the shell gate can extract it with sed.
//
// The -identity flag instead runs the heap-vs-calendar byte-identity smoke:
// the same seeded run under both event-queue implementations must produce
// identical transmission-trace hashes and metrics. It exits non-zero on any
// divergence, making it suitable as a CI gate.
//
// Observability: -obs installs internal/obs phase timers and prints each
// run's wall-time attribution table (also embedded in the JSON row); -obs-dir
// additionally writes per-size attribution JSON and runtime-snapshot JSONL
// artifacts for cmd/lrobs; -http serves live pprof//metrics//progress while
// runs execute; -obsbench measures obs overhead into BENCH_obs.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"lrseluge/internal/bench"
	"lrseluge/internal/obs"
	"lrseluge/internal/scale"
	"lrseluge/internal/sim"
)

type benchFile struct {
	Queue        string         `json:"queue"`
	ImageKB      int            `json:"image_kb"`
	TargetDegree float64        `json:"target_degree"`
	Seed         int64          `json:"seed"`
	Rows         []scale.Report `json:"rows"`
	// EventsPerSec10k mirrors the n=10000 row (zero when that size was not
	// run); the shell regression gate extracts this flat field.
	EventsPerSec10k float64 `json:"events_per_sec_10k"`
}

func main() {
	var (
		nodesFlag = flag.String("nodes", "1000,10000,100000", "comma-separated network sizes to run")
		queueFlag = flag.String("queue", "calendar", "event queue implementation: heap or calendar")
		kb        = flag.Int("kb", 8, "image size in KiB")
		seed      = flag.Int64("seed", 1, "base seed for all random streams")
		degree    = flag.Float64("degree", 16, "target average node degree")
		out       = flag.String("o", "BENCH_scale.json", "output JSON path")
		identity  = flag.Bool("identity", false, "run the heap-vs-calendar byte-identity smoke and exit")
		idNodes   = flag.Int("identity-nodes", 200, "network size for the -identity smoke")
		quiet     = flag.Bool("q", false, "suppress progress output")
		obsOn     = flag.Bool("obs", false, "install phase timers and print per-run wall-time attribution")
		obsDir    = flag.String("obs-dir", "", "directory for per-size attribution JSON + snapshot JSONL artifacts (implies -obs)")
		httpAddr  = flag.String("http", "", "serve live pprof//metrics//progress on this address while runs execute")
		obsbench  = flag.Bool("obsbench", false, "measure obs overhead (disabled + enabled) and exit")
		obsbOut   = flag.String("obsbench-o", "BENCH_obs.json", "output path for -obsbench")
	)
	flag.Parse()

	if *identity {
		if err := runIdentity(*idNodes, *kb, *seed, *degree, *quiet); err != nil {
			fmt.Fprintln(os.Stderr, "lrscale:", err)
			os.Exit(1)
		}
		return
	}
	if *obsbench {
		if err := runObsbench(*kb, *seed, *degree, *obsbOut, *quiet); err != nil {
			fmt.Fprintln(os.Stderr, "lrscale:", err)
			os.Exit(1)
		}
		return
	}
	if *obsDir != "" {
		*obsOn = true
		if err := os.MkdirAll(*obsDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "lrscale:", err)
			os.Exit(1)
		}
	}

	var board *obs.Board
	if *httpAddr != "" {
		board = &obs.Board{}
		addr, shutdown, err := obs.Serve(*httpAddr, obs.ServeOptions{Progress: board})
		if err != nil {
			fmt.Fprintln(os.Stderr, "lrscale:", err)
			os.Exit(1)
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "lrscale: live telemetry on http://%s (pprof /debug/pprof/, /metrics, /progress)\n", addr)
	}

	queue, err := sim.ParseQueueKind(*queueFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lrscale:", err)
		os.Exit(1)
	}
	sizes, err := parseSizes(*nodesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lrscale:", err)
		os.Exit(1)
	}

	bf := benchFile{
		Queue:        queue.String(),
		ImageKB:      *kb,
		TargetDegree: *degree,
		Seed:         *seed,
	}
	for _, n := range sizes {
		cfg := scale.Config{
			Nodes:        n,
			TargetDegree: *degree,
			ImageKB:      *kb,
			Seed:         *seed,
			Queue:        queue,
			CompactRNG:   true,
			Board:        board,
		}
		if *obsOn {
			cfg.Obs = obs.NewTimers()
		}
		var snapFile *os.File
		if *obsDir != "" {
			f, err := os.Create(filepath.Join(*obsDir, fmt.Sprintf("n%d.snapshots.jsonl", n)))
			if err != nil {
				fmt.Fprintln(os.Stderr, "lrscale:", err)
				os.Exit(1)
			}
			snapFile = f
			cfg.Sampler = obs.NewSampler(f)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "lrscale: n=%d queue=%s ...\n", n, queue)
			cfg.Progress = func(s scale.Snapshot) {
				fmt.Fprintf(os.Stderr, "  t=%v completed=%d events=%d wall=%v\n",
					s.Now, s.Completed, s.Events, s.WallElapsed.Round(1000000))
			}
		}
		rep, err := scale.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lrscale:", err)
			os.Exit(1)
		}
		if snapFile != nil {
			if err := cfg.Sampler.Flush(); err == nil {
				err = snapFile.Close()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "lrscale: snapshots:", err)
				os.Exit(1)
			}
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "lrscale: n=%d done: completed=%d/%d wall=%dms events/sec=%.0f bytes/node=%.0f rss=%dKB\n",
				n, rep.Completed, rep.Nodes, rep.WallMS, rep.EventsPerSec, rep.BytesPerNode, rep.PeakRSSKB)
		}
		// An incomplete run is never silent, -q or not: a benchmark row
		// where nodes missed the image is a different experiment.
		if rep.Incomplete > 0 {
			fmt.Fprintf(os.Stderr, "lrscale: WARNING: n=%d run incomplete: %d of %d nodes missing the image at the horizon\n",
				n, rep.Incomplete, rep.Nodes)
		}
		if rep.Obs != nil {
			if err := rep.Obs.WriteText(os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "lrscale:", err)
				os.Exit(1)
			}
			if *obsDir != "" {
				if err := bench.WriteJSON(filepath.Join(*obsDir, fmt.Sprintf("n%d.attr.json", n)), rep.Obs); err != nil {
					fmt.Fprintln(os.Stderr, "lrscale: attribution:", err)
					os.Exit(1)
				}
			}
		}
		bf.Rows = append(bf.Rows, rep)
		if n == 10000 {
			bf.EventsPerSec10k = rep.EventsPerSec
		}
	}

	if err := bench.WriteJSON(*out, bf); err != nil {
		fmt.Fprintln(os.Stderr, "lrscale:", err)
		os.Exit(1)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "lrscale: wrote %s\n", *out)
	}
}

// runIdentity executes the same seeded run under both queue kinds and fails
// on any divergence in trace hash or metrics.
func runIdentity(nodes, kb int, seed int64, degree float64, quiet bool) error {
	mk := func(q sim.QueueKind) scale.Config {
		return scale.Config{
			Nodes:        nodes,
			TargetDegree: degree,
			ImageKB:      kb,
			Seed:         seed,
			Queue:        q,
			CompactRNG:   true,
			TraceHash:    true,
		}
	}
	heap, err := scale.Run(mk(sim.HeapQueue))
	if err != nil {
		return err
	}
	cal, err := scale.Run(mk(sim.CalendarQueue))
	if err != nil {
		return err
	}
	if heap.TraceHash == "" || heap.TraceHash != cal.TraceHash {
		return fmt.Errorf("identity: trace hash mismatch: heap %s calendar %s", heap.TraceHash, cal.TraceHash)
	}
	if heap.Events != cal.Events || heap.Completed != cal.Completed ||
		heap.LatencySec != cal.LatencySec || heap.TotalBytes != cal.TotalBytes {
		return fmt.Errorf("identity: metrics mismatch:\n heap     %+v\n calendar %+v", heap, cal)
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "lrscale: identity OK at n=%d (hash %s, %d events, %d completed)\n",
			nodes, heap.TraceHash[:16], heap.Events, heap.Completed)
	}
	return nil
}

func parseSizes(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	sizes := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("invalid node count %q", p)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}
