//go:build !race

package scale

import (
	"runtime"
	"sync"
	"testing"

	"lrseluge/internal/obs"
	"lrseluge/internal/sim"
)

// liveHeap returns the live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestLiveHeapPerNode is the memory regression guard: a finished n=2000
// disk run, its Env still reachable, must keep at most 8 KiB of live heap
// per node. Nodes share one copy of each authenticated unit through the
// run's store and cost ~1.8 KiB each; a private copy of every page, its
// encoding and the codecs per node would cost ~32 KiB. The race detector's
// shadow memory would skew the figure, so the guard is built without it.
func TestLiveHeapPerNode(t *testing.T) {
	const nodes, budget = 2000, 8 << 10
	cfg := Config{Nodes: nodes, ImageKB: 8, Seed: 1, Queue: sim.CalendarQueue}.withDefaults()
	before := liveHeap()
	env, _, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	env.Drive(cfg.SliceEvery, nil)
	perNode := (liveHeap() - before) / nodes
	if env.Collector().Completions() != nodes || !env.ImagesOK() {
		t.Fatalf("run incomplete: %d/%d nodes, images ok %v", env.Collector().Completions(), nodes, env.ImagesOK())
	}
	runtime.KeepAlive(env)
	t.Logf("live heap: %d B/node", perNode)
	if perNode > budget {
		t.Fatalf("live heap %d B/node exceeds the %d B/node budget", perNode, budget)
	}
}

// TestScaleSetupAllocs bounds the bytes a run allocates before its first
// event: topology, key material, the signed object and every node. Set-up
// should pay only for state the run keeps. The budget is the measured
// 1,293 B/node plus 10%; a per-node math/rand source built and then
// replaced by SplitMix64 read 7,527 B/node.
func TestScaleSetupAllocs(t *testing.T) {
	const nodes, budget = 2000, 1422
	cfg := Config{Nodes: nodes, ImageKB: 8, Seed: 1, Queue: sim.CalendarQueue}.withDefaults()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	env, _, err := build(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if ev := env.Engine().Events(); ev != 0 {
		t.Fatalf("set-up executed %d events", ev)
	}
	perNode := int64(after.TotalAlloc-before.TotalAlloc) / nodes
	t.Logf("set-up allocation: %d B/node", perNode)
	if perNode > budget {
		t.Fatalf("set-up allocated %d B/node, above the %d B/node budget", perNode, budget)
	}
}

// peakRun is one n=2000 disk run observed after every 10 simulated
// seconds: the highest post-GC live heap above the pre-build baseline, and
// the run's memory table at that snapshot.
var peakRun = sync.OnceValues(func() (int64, []obs.MemRow) {
	const nodes = 2000
	cfg := Config{Nodes: nodes, ImageKB: 8, Seed: 1, Queue: sim.CalendarQueue, SliceEvery: 10 * sim.Second}.withDefaults()
	before := liveHeap()
	env, _, err := build(cfg)
	if err != nil {
		panic(err)
	}
	var peak int64
	var rows []obs.MemRow
	env.Drive(cfg.SliceEvery, func(sim.Time) {
		if live := liveHeap() - before; live > peak {
			peak, rows = live, env.MemTable()
		}
	})
	runtime.KeepAlive(env)
	return peak, rows
})

// TestPeakLiveHeapPerNode bounds the live heap at the peak of the wave,
// which TestLiveHeapPerNode's finished run cannot see: the in-progress
// units, tracking tables and queued events of an n=2000 run. The budget is
// the measured 2,419 B/node plus 10%.
func TestPeakLiveHeapPerNode(t *testing.T) {
	const nodes, budget = 2000, 2660
	peak, _ := peakRun()
	t.Logf("peak live heap: %d B/node", peak/nodes)
	if peak/nodes > budget {
		t.Fatalf("peak live heap %d B/node exceeds the %d B/node budget", peak/nodes, budget)
	}
}

// TestMemTableMatchesLiveHeap reconciles the per-component memory table,
// computed from struct sizes and counts, with the live heap measured at the
// same snapshot: its sum must cover 90-105% of it. It measured 97%; what it
// leaves out is map overhead, queued callbacks and packets in flight.
func TestMemTableMatchesLiveHeap(t *testing.T) {
	peak, rows := peakRun()
	var sum int64
	for _, r := range rows {
		t.Logf("%-10s %8.1f B/node", r.Component, r.BytesPerNode)
		sum += r.Bytes
	}
	ratio := float64(sum) / float64(peak)
	t.Logf("table %d B of %d B live (%.3f)", sum, peak, ratio)
	if ratio < 0.90 || ratio > 1.05 {
		t.Fatalf("memory table sums to %.3f of the live heap, outside [0.90, 1.05]", ratio)
	}
}
