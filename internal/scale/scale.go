// Package scale runs LR-Seluge dissemination on large random-disk networks
// (up to 100k nodes) and reports engine throughput and memory figures.
//
// It is the benchmark surface behind cmd/lrscale and BENCH_scale.json. A run
// is an ordinary experiment.Scenario on a topo.Disk graph with a selectable
// event-queue implementation (sim.QueueKind), so heap-vs-calendar runs can
// be compared for both speed and byte identity, driven by the experiment
// builder's sliced run loop. Its random streams are the ones every run
// uses (8-byte SplitMix64 state, internal/xrand), so a scale run and a
// small run are assembled the same way.
// This package adds only the progress and report layer on top.
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
	// CompactRNG has no effect: every run's streams now draw from 8-byte
	// SplitMix64 state, so there is no larger source to opt out of.
	//
	// Deprecated: the field is kept only so existing callers that set it
	// still compile; it will be removed once they stop setting it.
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
	// Callers sample the runtime, take memory tables or publish live
	// progress from it; the time it takes is left out of the wall figures.
	Progress func(Snapshot)
	// Obs, when non-nil, installs wall-time phase timers through the
	// engine, radio, crypto and codec layers; Report.Obs carries the
	// resulting attribution table. Measurements never feed back into
	// the simulation, so same-seed runs stay byte-identical either way.
	Obs *obs.Timers
}

// Snapshot is one incremental progress observation.
type Snapshot struct {
	// Now is the virtual time of the observation.
	Now sim.Time
	// Completed is how many nodes hold the full image.
	Completed int
	// Events is the cumulative count of executed engine events.
	Events uint64
	// Pending is the number of live scheduled events.
	Pending int
	// WallElapsed is real time since the run loop started, less the time
	// spent in Progress.
	WallElapsed time.Duration

	env *experiment.Env
}

// MemTable returns the run's per-component memory table as it stands
// (experiment.Env.MemTable): bytes and bytes per node from struct sizes and
// counts, not sampling. It walks every node, so a caller pays for it only
// when it asks.
func (s Snapshot) MemTable() []obs.MemRow { return s.env.MemTable() }

// Report is the outcome of one run.
type Report struct {
	Nodes     int     `json:"nodes"`
	AvgDegree float64 `json:"avg_degree"`
	Queue     string  `json:"queue"`
	Completed int     `json:"completed"`
	// Incomplete is Nodes-Completed: how many nodes ended the run without
	// the full image. Always emitted so a partial run can never pass for a
	// complete one silently. It is classified as Unreachable+Stalled.
	Incomplete int `json:"incomplete"`
	// Unreachable counts the nodes with no path from node 0 in the disk
	// graph: no protocol could have reached them.
	Unreachable int `json:"unreachable"`
	// Stalled counts the reachable nodes that did not finish (horizon hit).
	Stalled int `json:"stalled"`
	// ImagesOK is true when every reachable node holds exactly the
	// original image (experiment.Env.ImagesOK, checked after the event
	// loop). The run ends once those nodes complete, so unreachable nodes
	// never hold back its event count.
	ImagesOK   bool    `json:"images_ok"`
	LatencySec float64 `json:"latency_sec"`
	Events     uint64  `json:"events"`
	// SetupMS is the wall time Run spends before its event loop: the
	// topology, key material, the signed and encoded object and every
	// node. WallMS covers the event loop alone, without the time spent
	// in Progress.
	SetupMS      float64 `json:"setup_ms"`
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
	t0 := time.Now()
	cfg = cfg.withDefaults()
	if cfg.Nodes < 2 {
		return Report{}, fmt.Errorf("scale: need >= 2 nodes, got %d", cfg.Nodes)
	}

	env, graph, err := build(cfg)
	if err != nil {
		return Report{}, err
	}
	eng, col := env.Engine(), env.Collector()
	var traceHash func() string
	if cfg.TraceHash {
		traceHash = col.HashTx()
	}

	// away is the wall time spent in Progress, which the wall figures
	// leave out: what a caller observes, such as a memory table (~1% of
	// the loop at n=100k) or a forced GC, is not the run's cost.
	var away time.Duration
	start := time.Now()
	env.Drive(cfg.SliceEvery, func(now sim.Time) {
		if cfg.Progress != nil {
			t := time.Now()
			cfg.Progress(Snapshot{
				Now:         now,
				Completed:   col.Completions(),
				Events:      eng.Events(),
				Pending:     eng.Pending(),
				WallElapsed: t.Sub(start) - away,
				env:         env,
			})
			away += time.Since(t)
		}
	})
	wall := time.Since(start) - away

	rep := Report{
		Nodes:        cfg.Nodes,
		AvgDegree:    graph.AvgDegree(),
		Queue:        cfg.Queue.String(),
		Completed:    col.Completions(),
		Incomplete:   cfg.Nodes - col.Completions(),
		Unreachable:  env.Unreachable(),
		LatencySec:   col.Latency().Seconds(),
		Events:       eng.Events(),
		SetupMS:      float64(start.Sub(t0).Microseconds()) / 1e3,
		WallMS:       wall.Milliseconds(),
		TotalBytes:   col.TotalBytes(),
		BytesPerNode: float64(col.TotalBytes()) / float64(cfg.Nodes),
		ImagesOK:     env.ImagesOK(),
		PeakRSSKB:    peakRSSKB(),
	}
	// An unreachable node never receives a packet, so it is always among
	// the incomplete ones.
	rep.Stalled = rep.Incomplete - rep.Unreachable
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

// build wires cfg's run: an LR-Seluge experiment.Scenario on a random-disk
// graph.
func build(cfg Config) (*experiment.Env, *topo.Graph, error) {
	graph, err := topo.Disk(cfg.Nodes, cfg.TargetDegree, cfg.Seed)
	if err != nil {
		return nil, nil, err
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
	env, err := experiment.Build(sc)
	if err != nil {
		return nil, nil, err
	}
	return env, graph, nil
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
