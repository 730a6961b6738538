// Command lrscale benchmarks LR-Seluge dissemination at large network
// sizes and writes the BENCH_scale.json artifact.
//
// Default mode runs one dissemination per requested network size (node 0
// preloaded, everyone else fetching over a random-disk multi-hop graph) and
// reports wall time, engine throughput (events/sec), communication cost per
// node, and peak RSS per row.
//
// Observability: -obs installs internal/obs phase timers and prints each
// run's wall-time attribution table (also embedded in the JSON row); -obs-dir
// additionally writes per-size attribution JSON and runtime-snapshot JSONL
// artifacts for cmd/lrobs, plus heap_<n>.pb.gz, the heap profile from the
// progress slice with the highest post-GC live heap (read it with
// `go tool pprof -top heap_<n>.pb.gz`); -http serves live
// pprof//metrics//progress while runs execute; -obsbench measures obs
// overhead into BENCH_obs.json and exits 1 when a gate fails.
package main

import (
	"flag"
	"fmt"
	"io"
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
}

func main() {
	var (
		nodesFlag = flag.String("nodes", "1000,10000,100000", "comma-separated network sizes to run")
		queueFlag = flag.String("queue", "calendar", "event queue implementation: heap or calendar")
		kb        = flag.Int("kb", 8, "image size in KiB")
		seed      = flag.Int64("seed", 1, "base seed for all random streams")
		degree    = flag.Float64("degree", 16, "target average node degree")
		out       = flag.String("o", "BENCH_scale.json", "output JSON path")
		quiet     = flag.Bool("q", false, "suppress progress output")
		obsOn     = flag.Bool("obs", false, "install phase timers and print per-run wall-time attribution")
		obsDir    = flag.String("obs-dir", "", "directory for per-size attribution JSON + snapshot JSONL artifacts (implies -obs)")
		httpAddr  = flag.String("http", "", "serve live pprof//metrics//progress on this address while runs execute")
		obsbench  = flag.Bool("obsbench", false, "measure obs overhead (disabled + enabled), gate it and exit")
		obsbOut   = flag.String("obsbench-o", "BENCH_obs.json", "output path for -obsbench")
	)
	flag.Parse()

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
		}
		if *obsOn {
			cfg.Obs = obs.NewTimers()
		}
		// Each progress slice observes the heap peak (-obs-dir), prints a
		// line (unless -q), then samples the runtime and publishes the
		// sample to the live /progress board (-http); under -obs-dir the
		// samples also go to the snapshot stream.
		var (
			snapFile *os.File
			sampler  *obs.Sampler
			peak     *obs.HeapPeak
			peakErr  error
		)
		if *obsDir != "" {
			f, err := os.Create(filepath.Join(*obsDir, fmt.Sprintf("n%d.snapshots.jsonl", n)))
			if err != nil {
				fmt.Fprintln(os.Stderr, "lrscale:", err)
				os.Exit(1)
			}
			snapFile = f
			sampler = obs.NewSampler(f)
			peak = &obs.HeapPeak{}
		} else if board != nil {
			sampler = obs.NewSampler(io.Discard)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "lrscale: n=%d queue=%s ...\n", n, queue)
		}
		cfg.Progress = func(s scale.Snapshot) {
			if peak != nil {
				if err := peak.Observe(); err != nil && peakErr == nil {
					peakErr = err
				}
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "  t=%v completed=%d events=%d wall=%v\n",
					s.Now, s.Completed, s.Events, s.WallElapsed.Round(1000000))
			}
			if sampler != nil {
				board.Publish(sampler.Sample(obs.Gauges{
					SimNS:     int64(s.Now),
					Events:    s.Events,
					Pending:   s.Pending,
					Completed: s.Completed,
				}))
			}
		}
		rep, err := scale.Run(cfg)
		if err == nil {
			err = peakErr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "lrscale:", err)
			os.Exit(1)
		}
		if peak != nil {
			path := filepath.Join(*obsDir, fmt.Sprintf("heap_%d.pb.gz", n))
			if err := os.WriteFile(path, peak.Profile(), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "lrscale: heap profile:", err)
				os.Exit(1)
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "lrscale: n=%d peak post-GC live heap %.1f MB -> %s\n",
					n, float64(peak.LiveBytes())/(1<<20), path)
			}
		}
		if snapFile != nil {
			if err := sampler.Flush(); err == nil {
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
			fmt.Fprintf(os.Stderr, "lrscale: WARNING: n=%d run incomplete: %d of %d nodes missing the image at the horizon (%d unreachable, %d stalled)\n",
				n, rep.Incomplete, rep.Nodes, rep.Unreachable, rep.Stalled)
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
	}

	if err := bench.WriteJSON(*out, bf); err != nil {
		fmt.Fprintln(os.Stderr, "lrscale:", err)
		os.Exit(1)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "lrscale: wrote %s\n", *out)
	}
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
