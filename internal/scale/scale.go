// Package scale runs LR-Seluge dissemination on large random-disk networks
// (up to 100k nodes) and reports engine throughput and memory figures.
//
// It is the benchmark surface behind cmd/lrscale and BENCH_scale.json. A run
// is an ordinary experiment.Scenario on a topo.Disk graph with the compact
// large-run choices turned on — 8-byte SplitMix RNG state per node
// (dissem.Config.CompactRNG) and a selectable event-queue implementation
// (sim.QueueKind), so heap-vs-calendar runs can be compared for both speed
// and byte identity — driven by the experiment builder's sliced run loop.
// This package adds only the progress, sampling and report layer on top.
package scale

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"lrseluge/internal/experiment"
	"lrseluge/internal/obs"
	"lrseluge/internal/sim"
	"lrseluge/internal/topo"
)

// Config parameterizes one large-scale run.
type Config struct {
	// Nodes is the total node count including the preloaded base station
	// (node 0). Must be >= 2.
	Nodes int
	// TargetDegree sizes the random-disk field so the expected average
	// degree matches (topo.Disk). Zero means 16.
	TargetDegree float64
	// ImageKB is the image size in KiB. Zero means 8.
	ImageKB int
	// Seed derives every random stream in the run (topology, radio, image,
	// key material, per-node RNGs).
	Seed int64
	// Queue selects the event-queue implementation.
	Queue sim.QueueKind
	// LossP, when positive, applies a Bernoulli loss with that probability.
	LossP float64
	// Horizon bounds virtual time. Zero means the experiment default of 4
	// simulated hours.
	Horizon sim.Time
	// CompactRNG backs per-node RNGs with 8-byte SplitMix64 state instead
	// of math/rand's ~4.9 KB default. The stream differs from the default,
	// so runs with it on are only comparable to other CompactRNG runs.
	CompactRNG bool
	// TraceHash, when true, hashes every transmission (virtual time,
	// sender, wire bytes) in global order; Report.TraceHash carries the
	// hex digest. Used by the heap-vs-calendar identity gate.
	TraceHash bool
	// SliceEvery is the virtual-time slice between Progress callbacks.
	// Zero means 60 simulated seconds.
	SliceEvery sim.Time
	// Progress, when non-nil, streams a snapshot after each slice, so
	// 100k-node runs report liveness without accumulating per-slice state.
	Progress func(Snapshot)
	// Obs, when non-nil, installs wall-time phase timers through the
	// engine, radio, crypto and codec layers; Report.Obs carries the
	// resulting attribution table. Measurements never feed back into
	// the simulation, so same-seed runs stay byte-identical either way.
	Obs *obs.Timers
	// Sampler, when non-nil, captures one runtime snapshot per progress
	// slice (JSONL; see obs.Sampler).
	Sampler *obs.Sampler
	// Board, when non-nil, receives the latest obs.Snapshot each slice for
	// the live HTTP /progress endpoint.
	Board *obs.Board
}

// Snapshot is one incremental progress observation.
type Snapshot struct {
	// Now is the virtual time of the observation.
	Now sim.Time
	// Completed is how many nodes hold the full image.
	Completed int
	// Events is the cumulative count of executed engine events.
	Events uint64
	// WallElapsed is real time since the run loop started.
	WallElapsed time.Duration
}

// Report is the outcome of one run.
type Report struct {
	Nodes     int     `json:"nodes"`
	AvgDegree float64 `json:"avg_degree"`
	Queue     string  `json:"queue"`
	Completed int     `json:"completed"`
	// Incomplete is Nodes-Completed: how many nodes ended the run without
	// the full image (horizon hit, or isolated nodes). Always emitted so a
	// partial run can never pass for a complete one silently.
	Incomplete   int     `json:"incomplete"`
	LatencySec   float64 `json:"latency_sec"`
	Events       uint64  `json:"events"`
	WallMS       int64   `json:"wall_ms"`
	EventsPerSec float64 `json:"events_per_sec"`
	TotalBytes   int64   `json:"total_bytes"`
	BytesPerNode float64 `json:"bytes_per_node"`
	// PeakRSSKB is the process-wide peak resident set (VmHWM) after the
	// run, in KiB; zero where /proc is unavailable. It is a whole-process
	// high-water mark, not a per-run delta, so compare runs from separate
	// processes only.
	PeakRSSKB int64 `json:"peak_rss_kb"`
	// TraceHash is the hex sha256 over the transmission trace when
	// Config.TraceHash was set, empty otherwise.
	TraceHash string `json:"trace_hash,omitempty"`
	// Obs is the wall-time attribution table when Config.Obs was set.
	Obs *obs.Attribution `json:"obs,omitempty"`
}

func (c Config) withDefaults() Config {
	if c.TargetDegree == 0 {
		c.TargetDegree = 16
	}
	if c.ImageKB == 0 {
		c.ImageKB = 8
	}
	if c.SliceEvery == 0 {
		c.SliceEvery = 60 * sim.Second
	}
	return c
}

// Run executes one large-scale LR-Seluge dissemination.
//
//lrlint:effects(wallclock,fs) wall-clock time is the reported measurement (events/sec), never simulation input; fs reads /proc for the peak-RSS figure
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 2 {
		return Report{}, fmt.Errorf("scale: need >= 2 nodes, got %d", cfg.Nodes)
	}

	graph, err := topo.Disk(cfg.Nodes, cfg.TargetDegree, cfg.Seed)
	if err != nil {
		return Report{}, err
	}
	sc := experiment.Scenario{
		Protocol:  experiment.LRSeluge,
		Graph:     graph,
		ImageSize: cfg.ImageKB * 1024,
		LossP:     cfg.LossP,
		Horizon:   cfg.Horizon,
		Seed:      cfg.Seed,
		Queue:     cfg.Queue,
		Obs:       cfg.Obs,
	}.WithDefaults()
	sc.Dissem.CompactRNG = cfg.CompactRNG
	env, err := experiment.Build(sc)
	if err != nil {
		return Report{}, err
	}
	var traceHash func() string
	if cfg.TraceHash {
		traceHash = env.TraceHash()
	}
	eng, col := env.Engine(), env.Collector()

	start := time.Now()
	env.Drive(cfg.SliceEvery, func(now sim.Time) {
		if cfg.Progress != nil {
			cfg.Progress(Snapshot{
				Now:         now,
				Completed:   col.Completions(),
				Events:      eng.Events(),
				WallElapsed: time.Since(start),
			})
		}
		if cfg.Sampler != nil || cfg.Board != nil {
			snap := cfg.Sampler.Sample(obs.Gauges{
				SimNS:     int64(now),
				Events:    eng.Events(),
				Pending:   eng.Pending(),
				Completed: col.Completions(),
			})
			cfg.Board.Publish(snap)
		}
	})
	wall := time.Since(start)

	rep := Report{
		Nodes:        cfg.Nodes,
		AvgDegree:    graph.AvgDegree(),
		Queue:        cfg.Queue.String(),
		Completed:    col.Completions(),
		Incomplete:   cfg.Nodes - col.Completions(),
		LatencySec:   col.Latency().Seconds(),
		Events:       eng.Events(),
		WallMS:       wall.Milliseconds(),
		TotalBytes:   col.TotalBytes(),
		BytesPerNode: float64(col.TotalBytes()) / float64(cfg.Nodes),
		PeakRSSKB:    peakRSSKB(),
	}
	if secs := wall.Seconds(); secs > 0 {
		rep.EventsPerSec = float64(rep.Events) / secs
	}
	if traceHash != nil {
		rep.TraceHash = traceHash()
	}
	if cfg.Obs != nil {
		table := cfg.Obs.Table(int64(wall))
		rep.Obs = &table
	}
	return rep, nil
}

// peakRSSKB reads the process peak resident set (VmHWM) from /proc, in KiB.
// Returns zero on platforms without procfs.
func peakRSSKB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb
	}
	return 0
}
