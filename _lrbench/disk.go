package main

import (
	"fmt"
	"os"
	"time"

	"lrseluge/internal/obs"
	"lrseluge/internal/scale"
	"lrseluge/internal/sim"
	"lrseluge/internal/topo"
)

// disk10k disseminates an 8 KiB image over a 10,000-node random-disk network
// of average degree 16 on the scale path (calendar queue, compact per-node
// RNG): the n=10k row of BENCH_scale.json. An operation is one whole
// dissemination, and its latency is the wall time of scale.Run's event loop;
// it fails when any node ends without the image. One dissemination fills a
// typical budget, so latency_p50_ms and latency_p90_ms are usually the same
// single sample. Smaller units vary with the topology: the seed moves how
// many simulated seconds the wave takes and how the work spreads over them,
// while the wall time of the whole dissemination stays put. Set-up is
// everything scale.Run does before its event loop: topology, key material,
// the signed and encoded object, and every node's handler.
const (
	diskNodes  = 10000
	diskDegree = 16
	diskKB     = 8
)

// obsShares maps obs phase names onto the per-layer share metrics.
var obsShares = map[string]string{
	"sim.queue.pop":     "obs_queue_share",
	"sim.queue.push":    "obs_queue_share",
	"sim.dispatch":      "obs_dispatch_share",
	"radio.deliver":     "obs_radio_share",
	"crypt.sig-verify":  "obs_sig_verify_share",
	"crypt.puzzle":      "obs_puzzle_share",
	"crypt.hash-verify": "obs_hash_verify_share",
	"erasure.rs-encode": "obs_rs_encode_share",
	"erasure.rs-decode": "obs_rs_decode_share",
	"trickle":           "obs_trickle_share",
}

func runDisk10k(seed int64, budget time.Duration, traced bool) (*outcome, error) {
	o := &outcome{layers: make(map[string]float64)}
	var (
		phaseNS      = make(map[string]int64)
		wallNS       int64
		coveredNS    int64
		sigVerifies  uint64
		events       uint64
		bytes, nodes float64
		next         = seed
		start        = time.Now()
		last         time.Duration
	)
	// A dissemination takes most of a typical budget, so another one starts
	// only when it can end inside the budget at the pace of the last.
	for o.attempted == 0 || time.Since(start)+last <= budget {
		s, err := connectedDiskSeed(next)
		if err != nil {
			return nil, err
		}
		next = s + 1
		// The last progress snapshot lands when the event loop ends.
		var loop time.Duration
		cfg := scale.Config{
			Nodes:        diskNodes,
			TargetDegree: diskDegree,
			ImageKB:      diskKB,
			Seed:         s,
			Queue:        sim.CalendarQueue,
			CompactRNG:   true,
			Progress:     func(sn scale.Snapshot) { loop = sn.WallElapsed },
		}
		if traced {
			cfg.Obs = obs.NewTimers()
		}
		t0 := time.Now()
		rep, err := scale.Run(cfg)
		total := time.Since(t0)
		last = total
		if err != nil {
			return nil, err
		}
		if loop == 0 {
			return nil, fmt.Errorf("seed %d: no progress reported", s)
		}
		o.setups = append(o.setups, total-loop)
		o.window += loop
		o.attempted++
		if rep.Incomplete > 0 {
			o.failed++
			fmt.Fprintf(os.Stderr, "disk10k: seed %d: %d of %d nodes missed the image\n", s, rep.Incomplete, rep.Nodes)
		} else {
			o.latencies = append(o.latencies, loop)
		}
		events += rep.Events
		bytes += float64(rep.TotalBytes)
		nodes += float64(rep.Nodes)
		if rep.Obs != nil {
			wallNS += rep.Obs.WallNS
			coveredNS += rep.Obs.CoveredNS
			for _, ph := range rep.Obs.Phases {
				phaseNS[obsShares[ph.Phase]] += ph.NS
				if ph.Phase == "crypt.sig-verify" {
					sigVerifies += ph.Calls
				}
			}
		}
	}
	if traced {
		for name, ns := range phaseNS {
			o.layers[name] = float64(ns) / float64(wallNS)
		}
		o.layers["obs_covered_frac"] = float64(coveredNS) / float64(wallNS)
		o.layers["sim_events_per_s"] = float64(events) / o.window.Seconds()
		o.layers["sig_verifications_per_op"] = float64(sigVerifies) / float64(o.attempted)
		o.layers["bytes_per_node"] = bytes / nodes
	}
	return o, nil
}

// connectedDiskSeed returns the first seed from s on whose random-disk
// topology every node is reachable, so no operation of the workload can fail
// for want of a path from the base station.
func connectedDiskSeed(s int64) (int64, error) {
	for ; ; s++ {
		g, err := topo.Disk(diskNodes, diskDegree, s)
		if err != nil {
			return 0, err
		}
		if g.Connected() {
			return s, nil
		}
	}
}
