package experiment

import (
	"testing"

	"lrseluge/internal/radio"
	"lrseluge/internal/sim"
	"lrseluge/internal/topo"
)

// traceRun executes a multihop scenario and returns the run metrics together
// with a hash over the complete transmission trace (Env.TraceHash).
func traceRun(t *testing.T, s Scenario) (Result, string) {
	t.Helper()
	e, err := Build(s)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	hash := e.TraceHash()
	res := e.run()
	return res, hash()
}

// multihopScenario is a small instance of the paper's multihop evaluation:
// a grid topology with a bursty Gilbert-Elliott channel.
func multihopScenario(seed int64) Scenario {
	graph, err := topo.Grid(4, 4, topo.Tight)
	if err != nil {
		panic(err)
	}
	return Scenario{
		Protocol:    LRSeluge,
		ImageSize:   2 * 1024,
		Params:      smallParams(),
		Graph:       graph,
		LossFactory: func() radio.LossModel { return radio.HeavyNoise() },
		Seed:        seed,
	}
}

// TestSameSeedReproducible is the regression test behind the repo's central
// claim: for a fixed seed, a run is fully reproducible. Two independent
// builds of the same multihop scenario must produce byte-identical packet
// traces and identical metrics. Any wall-clock read, global-rand draw, or
// map-iteration-order leak in the protocol stack breaks this test.
func TestSameSeedReproducible(t *testing.T) {
	const seed = 42
	res1, trace1 := traceRun(t, multihopScenario(seed))
	res2, trace2 := traceRun(t, multihopScenario(seed))

	if res1 != res2 {
		t.Errorf("same seed produced different metrics:\n run1: %+v\n run2: %+v", res1, res2)
	}
	if trace1 != trace2 {
		t.Errorf("same seed produced different packet traces: %s vs %s", trace1, trace2)
	}
	if res1.Completed != res1.Nodes {
		t.Errorf("scenario did not complete: %d/%d nodes", res1.Completed, res1.Nodes)
	}
	if !res1.ImagesOK {
		t.Error("reassembled images differ from original")
	}
}

// TestQueueKindsAgree pins that the event-queue choice never changes a run:
// the calendar queue must reproduce the heap's metrics and trace exactly.
func TestQueueKindsAgree(t *testing.T) {
	heap := multihopScenario(42)
	cal := multihopScenario(42)
	cal.Queue = sim.CalendarQueue
	res1, trace1 := traceRun(t, heap)
	res2, trace2 := traceRun(t, cal)
	if res1 != res2 {
		t.Errorf("queue kinds produced different metrics:\n heap:     %+v\n calendar: %+v", res1, res2)
	}
	if trace1 != trace2 {
		t.Errorf("queue kinds produced different packet traces: %s vs %s", trace1, trace2)
	}
}

// TestDifferentSeedsDiverge is the sanity check that the trace hash actually
// captures run behavior: different seeds must yield different traces.
func TestDifferentSeedsDiverge(t *testing.T) {
	_, trace1 := traceRun(t, multihopScenario(1))
	_, trace2 := traceRun(t, multihopScenario(2))
	if trace1 == trace2 {
		t.Error("runs with different seeds produced identical packet traces")
	}
}
