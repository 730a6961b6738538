//go:build !race

package scale

import (
	"runtime"
	"testing"

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
// run's store and cost ~3 KiB each; a private copy of every page, its
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
// 1,614 B/node plus 10%; a per-node math/rand source built and then
// replaced by SplitMix64 read 7,527 B/node.
func TestScaleSetupAllocs(t *testing.T) {
	const nodes, budget = 2000, 1775
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
