package scale

import (
	"bytes"
	"testing"

	"lrseluge/internal/image"
	"lrseluge/internal/obs"
	"lrseluge/internal/sim"
	"lrseluge/internal/topo"
)

// TestObsDoesNotPerturbRun is the determinism contract: installing phase
// timers, and sampling into the progress board from the Progress callback
// as lrscale does, must leave the same-seed run byte-identical — same
// transmission-trace hash, same metrics.
func TestObsDoesNotPerturbRun(t *testing.T) {
	plain, err := Run(baseConfig(sim.CalendarQueue))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(sim.CalendarQueue)
	cfg.Obs = obs.NewTimers()
	sampler, board := obs.NewSampler(&bytes.Buffer{}), &obs.Board{}
	cfg.Progress = func(s Snapshot) {
		board.Publish(sampler.Sample(obs.Gauges{
			SimNS: int64(s.Now), Events: s.Events, Pending: s.Pending, Completed: s.Completed,
		}))
	}
	cfg.SliceEvery = 5 * sim.Second
	observed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.TraceHash == "" || plain.TraceHash != observed.TraceHash {
		t.Errorf("obs perturbed the run: trace hash %s vs %s", plain.TraceHash, observed.TraceHash)
	}
	if plain.Events != observed.Events || plain.Completed != observed.Completed ||
		plain.LatencySec != observed.LatencySec || plain.TotalBytes != observed.TotalBytes {
		t.Errorf("obs perturbed metrics:\n plain    %+v\n observed %+v", plain, observed)
	}
}

// TestObsAttributionCoverage pins the tentpole acceptance shape on the n=2000
// configuration lrscale -obsbench measures: with every subsystem
// instrumented, the attribution table accounts for most of the measured
// wall time, the rows carry error bars and sum to the covered total, and
// the GC row is non-zero and kept out of both. One event in 16 is timed, so
// the run must be long enough for that sample to hold every phase: a
// 40-node run (~7 ms) samples none of its 39 signature verifications. CI
// shares cores, so the coverage bound here is a loose sanity floor; the
// >= 80% gate runs in lrscale -obsbench via check.sh. The rows plus the
// sampling cost never exceed the wall and no sampled event is counted
// twice: both hold by construction, on any host.
func TestObsAttributionCoverage(t *testing.T) {
	cfg := Config{Nodes: 2000, ImageKB: 8, Seed: 1, Queue: sim.CalendarQueue, Obs: obs.NewTimers()}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Obs
	if a == nil {
		t.Fatal("Report.Obs missing with Config.Obs set")
	}
	if a.WallNS <= 0 || a.CoveredNS <= 0 || a.Events == 0 {
		t.Fatalf("empty attribution: %+v", a)
	}
	if a.CoveredFrac < 0.5 {
		t.Errorf("attribution covers only %.1f%% of wall time", 100*a.CoveredFrac)
	}
	if a.CoveredSE <= 0 {
		t.Errorf("covered_se = %v, want > 0", a.CoveredSE)
	}
	if a.GCNS <= 0 {
		t.Errorf("gc_ns = %d on an n=2000 run, want > 0", a.GCNS)
	}
	if a.CoveredNS+a.SamplingNS > a.WallNS {
		t.Errorf("covered_ns %d + sampling_ns %d exceeds wall_ns %d", a.CoveredNS, a.SamplingNS, a.WallNS)
	}
	if a.OverCounted != 0 {
		t.Errorf("%d sampled events counted twice", a.OverCounted)
	}
	// Only a unit's first completer decodes it; every later one completes
	// by comparison with the store's entry (DESIGN §18). Calls are counted
	// exactly, so this holds on any host: one decode for M0 and one per
	// page, however many of the 2000 nodes complete them.
	decodes := uint64(1 + image.PagesFor(cfg.ImageKB*1024, image.DefaultParams().LRPageBytes()))
	seen := map[string]bool{}
	var sum int64
	for _, row := range a.Phases {
		seen[row.Phase] = true
		if row.Phase == "erasure.rs-decode" && row.Calls != decodes {
			t.Errorf("erasure.rs-decode: %d calls, want %d, one per unit", row.Calls, decodes)
		}
		sum += row.NS
		if row.Calls > 100_000 && row.FracSE <= 0 {
			t.Errorf("%s: %d calls but no standard error", row.Phase, row.Calls)
		}
	}
	if sum != a.CoveredNS {
		t.Errorf("covered_ns %d != sum of phase rows %d", a.CoveredNS, sum)
	}
	// A full dissemination exercises every instrumented subsystem; GC is
	// not one of the phases.
	for _, want := range []string{
		"sim.queue.pop", "sim.queue.push", "sim.dispatch", "radio.deliver",
		"crypt.sig-verify", "crypt.puzzle", "crypt.hash-verify",
		"erasure.rs-encode", "erasure.rs-decode", "trickle",
	} {
		if !seen[want] {
			t.Errorf("phase %q missing from attribution table: %+v", want, a.Phases)
		}
	}
	if seen["gc"] {
		t.Error("GC reported as a phase row")
	}
}

// TestSamplerWiredIntoSlices pins the one per-slice hook callers sample and
// publish from: Run streams one Progress snapshot per slice, and each
// carries the engine's pending, events and completed values, as read by a
// twin env driven over the same slices.
func TestSamplerWiredIntoSlices(t *testing.T) {
	cfg := baseConfig(sim.CalendarQueue)
	cfg.TraceHash = false
	cfg.SliceEvery = 5 * sim.Second
	var got []Snapshot
	cfg.Progress = func(s Snapshot) { got = append(got, s) }
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	env, _, err := build(cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	var want []Snapshot
	env.Drive(cfg.SliceEvery, func(now sim.Time) {
		eng := env.Engine()
		want = append(want, Snapshot{Now: now, Completed: env.Collector().Completions(),
			Events: eng.Events(), Pending: eng.Pending()})
	})
	if len(got) != len(want) || len(got) < 2 {
		t.Fatalf("%d progress snapshots, want one per slice: %d", len(got), len(want))
	}
	for i, g := range got {
		g.WallElapsed, g.env = 0, nil
		if g != want[i] {
			t.Errorf("slice %d: snapshot %+v, engine reads %+v", i, g, want[i])
		}
	}
	last := got[len(got)-1]
	if last.Completed != rep.Completed || last.Events != rep.Events || last.Pending == 0 {
		t.Errorf("final snapshot %+v, report completed %d events %d", last, rep.Completed, rep.Events)
	}
}

// TestIncompleteReported is the silent-incompletion regression: a
// horizon-bounded run that cannot finish must carry the missing-node count
// in its report rather than leaving Completed to be eyeballed, classified
// as unreachable (no path from node 0) or stalled (reachable, unfinished).
func TestIncompleteReported(t *testing.T) {
	cfg := baseConfig(sim.CalendarQueue)
	cfg.TraceHash = false
	cfg.Horizon = 3 * sim.Second
	cfg.SliceEvery = sim.Second
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed >= rep.Nodes {
		t.Fatalf("run completed inside a 3s horizon; the test needs an unfinished run")
	}
	if rep.Incomplete != rep.Nodes-rep.Completed {
		t.Errorf("Incomplete = %d, want %d", rep.Incomplete, rep.Nodes-rep.Completed)
	}
	if rep.Incomplete == 0 {
		t.Error("Incomplete = 0 on an unfinished run")
	}
	// The base graph is connected: every missing node stalled.
	if rep.Unreachable != 0 || rep.Stalled != rep.Incomplete {
		t.Errorf("connected graph, cut short: unreachable %d stalled %d, want 0 and %d", rep.Unreachable, rep.Stalled, rep.Incomplete)
	}

	// And a complete run reports zero.
	full, err := Run(baseConfig(sim.CalendarQueue))
	if err != nil {
		t.Fatal(err)
	}
	if full.Incomplete != 0 || full.Unreachable != 0 || full.Stalled != 0 {
		t.Errorf("complete run reports incomplete %d, unreachable %d, stalled %d", full.Incomplete, full.Unreachable, full.Stalled)
	}

	// A sparse disk graph with a node cut off from node 0: run to the
	// last reachable completion, the cut-off nodes are unreachable and
	// nothing stalls.
	sparse := baseConfig(sim.CalendarQueue)
	sparse.TraceHash = false
	sparse.TargetDegree = 8
	var cut int
	for ; cut == 0; sparse.Seed++ {
		g, err := topo.Disk(sparse.Nodes, sparse.TargetDegree, sparse.Seed)
		if err != nil {
			t.Fatal(err)
		}
		cut = g.Unreachable()
	}
	sparse.Seed--
	rep, err = Run(sparse)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unreachable != cut || rep.Stalled != 0 || rep.Incomplete != cut {
		t.Errorf("seed %d with %d cut-off nodes: incomplete %d = unreachable %d + stalled %d, want %d = %d + 0",
			sparse.Seed, cut, rep.Incomplete, rep.Unreachable, rep.Stalled, cut, cut)
	}
}
