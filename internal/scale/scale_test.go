package scale

import (
	"testing"

	"lrseluge/internal/sim"
)

// baseConfig is a small instance that finishes quickly in tier-1 CI while
// still exercising multi-hop forwarding on a disk graph.
func baseConfig(queue sim.QueueKind) Config {
	return Config{
		Nodes:        40,
		TargetDegree: 12,
		ImageKB:      2,
		Seed:         11,
		Queue:        queue,
		CompactRNG:   true,
		TraceHash:    true,
	}
}

// TestHeapCalendarByteIdentity is the queue-equivalence gate at the full
// protocol level: the same seeded run under the heap and calendar queues
// must produce identical run bytes — the same transmission trace hash and
// the same metrics — not merely the same aggregate outcome. The inputs are
// baseConfig and lrscale's defaults (degree 16, 8 KiB, seed 1) at 200 nodes.
func TestHeapCalendarByteIdentity(t *testing.T) {
	lrscale := func(q sim.QueueKind) Config {
		return Config{Nodes: 200, TargetDegree: 16, ImageKB: 8, Seed: 1, Queue: q, CompactRNG: true, TraceHash: true}
	}
	for _, mk := range []func(sim.QueueKind) Config{baseConfig, lrscale} {
		heap, err := Run(mk(sim.HeapQueue))
		if err != nil {
			t.Fatal(err)
		}
		cal, err := Run(mk(sim.CalendarQueue))
		if err != nil {
			t.Fatal(err)
		}
		n := heap.Nodes
		if heap.TraceHash == "" || heap.TraceHash != cal.TraceHash {
			t.Errorf("n=%d: trace hash differs: heap %s calendar %s", n, heap.TraceHash, cal.TraceHash)
		}
		if heap.Events != cal.Events {
			t.Errorf("n=%d: event count differs: heap %d calendar %d", n, heap.Events, cal.Events)
		}
		if heap.Completed != cal.Completed || heap.LatencySec != cal.LatencySec || heap.TotalBytes != cal.TotalBytes {
			t.Errorf("n=%d: metrics differ: heap %+v calendar %+v", n, heap, cal)
		}
		if heap.Queue != "heap" || cal.Queue != "calendar" {
			t.Errorf("n=%d: queue labels: %q, %q", n, heap.Queue, cal.Queue)
		}
	}
}

// baseTraceHash is baseConfig's transmission-trace hash, recorded when scale
// still wired its own copy of the run. Unlike the heap-vs-calendar
// comparison, a constant catches wiring or seed drift that moves both
// queues together.
const baseTraceHash = "b1265e271ecdb17bc050dce8008ca2325aba045db3a426cb8653bddb2032a1fa"

func TestTraceHashGolden(t *testing.T) {
	for _, q := range []sim.QueueKind{sim.HeapQueue, sim.CalendarQueue} {
		rep, err := Run(baseConfig(q))
		if err != nil {
			t.Fatal(err)
		}
		if rep.TraceHash != baseTraceHash {
			t.Errorf("%s queue: trace hash %s, want %s", q, rep.TraceHash, baseTraceHash)
		}
	}
}

func TestRunCompletesAllNodes(t *testing.T) {
	rep, err := Run(baseConfig(sim.CalendarQueue))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != rep.Nodes {
		t.Fatalf("only %d of %d nodes completed", rep.Completed, rep.Nodes)
	}
	if rep.LatencySec <= 0 {
		t.Errorf("non-positive latency %v", rep.LatencySec)
	}
	if rep.BytesPerNode <= 0 {
		t.Errorf("non-positive bytes/node %v", rep.BytesPerNode)
	}
}

func TestProgressStreams(t *testing.T) {
	cfg := baseConfig(sim.CalendarQueue)
	cfg.TraceHash = false
	cfg.SliceEvery = 5 * sim.Second
	var snaps []Snapshot
	cfg.Progress = func(s Snapshot) { snaps = append(snaps, s) }
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots streamed")
	}
	last := snaps[len(snaps)-1]
	if last.Completed != rep.Completed {
		t.Errorf("final snapshot completed %d, report %d", last.Completed, rep.Completed)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Now < snaps[i-1].Now || snaps[i].Events < snaps[i-1].Events {
			t.Fatalf("snapshots not monotone at %d: %+v then %+v", i, snaps[i-1], snaps[i])
		}
	}
}

// TestHorizonBoundsRun pins that a run which cannot complete (horizon far
// too short for dissemination) still terminates at the horizon. The engine
// clock stops at the last executed event, strictly below the horizon when
// no event lands exactly on it, so the loop must break on the slice bound —
// the old clock-based check spun forever.
func TestHorizonBoundsRun(t *testing.T) {
	cfg := baseConfig(sim.CalendarQueue)
	cfg.TraceHash = false
	cfg.Horizon = 3 * sim.Second
	cfg.SliceEvery = sim.Second
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed >= rep.Nodes {
		t.Fatalf("run completed %d nodes inside a 3s horizon; the test needs an unfinished run", rep.Completed)
	}
}

func TestRunRejectsTinyNetwork(t *testing.T) {
	if _, err := Run(Config{Nodes: 1}); err == nil {
		t.Fatal("expected error for 1-node network")
	}
}

// TestCompactRNGDeterministic pins that compact-RNG runs are reproducible:
// two identical configs yield identical trace hashes.
func TestCompactRNGDeterministic(t *testing.T) {
	a, err := Run(baseConfig(sim.CalendarQueue))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(baseConfig(sim.CalendarQueue))
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceHash != b.TraceHash {
		t.Fatalf("same config, different trace hashes: %s vs %s", a.TraceHash, b.TraceHash)
	}
}
