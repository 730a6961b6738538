package experiment

import (
	"bytes"
	"testing"

	"lrseluge/internal/harness"
	"lrseluge/internal/image"
	"lrseluge/internal/packet"
	"lrseluge/internal/trace"
)

// tracedChurnRun executes the churn scenario with a JSONL trace sink and
// returns the run result plus the trace bytes.
func tracedChurnRun(t *testing.T, seed int64) (Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	s := churnScenario(seed)
	s.Trace = trace.NewJSONLSink(&buf)
	res, err := Run(s)
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	return res, buf.Bytes()
}

// TestTraceSameSeedByteIdentical extends the repo's reproducibility claim to
// the trace subsystem: two runs of the same seeded scenario (with fault
// injection live) must produce byte-identical JSONL traces, and different
// seeds must diverge.
func TestTraceSameSeedByteIdentical(t *testing.T) {
	res1, t1 := tracedChurnRun(t, 42)
	res2, t2 := tracedChurnRun(t, 42)
	if len(t1) == 0 {
		t.Fatal("traced run produced no events")
	}
	if !bytes.Equal(t1, t2) {
		t.Error("same seed produced different trace bytes")
	}
	if res1 != res2 {
		t.Errorf("same seed produced different metrics:\n run1: %+v\n run2: %+v", res1, res2)
	}
	if _, t3 := tracedChurnRun(t, 43); bytes.Equal(t1, t3) {
		t.Error("different seeds produced identical traces")
	}
	// The wire bytes must decode back under the strict reader.
	events, err := trace.ReadAll(bytes.NewReader(t1))
	if err != nil {
		t.Fatalf("trace does not round-trip: %v", err)
	}
	// Liveness floor: a churn run has far more events than its drops alone.
	if int64(len(events)) <= res1.FaultDrops+res1.ChannelLosses {
		t.Fatalf("decoded only %d events for %d drops", len(events), res1.FaultDrops+res1.ChannelLosses)
	}
}

// TestTracingOffLeavesRunUnchanged pins the overhead contract's correctness
// half: attaching a trace sink must not change a single metric, and a run
// with tracing disabled is bit-identical to one that never knew about
// tracing. Result is a flat comparable struct, so == covers every counter.
func TestTracingOffLeavesRunUnchanged(t *testing.T) {
	plain, err := Run(churnScenario(42))
	if err != nil {
		t.Fatal(err)
	}
	counted := churnScenario(42)
	sink := &trace.Count{}
	counted.Trace = sink
	traced, err := Run(counted)
	if err != nil {
		t.Fatal(err)
	}
	if plain != traced {
		t.Errorf("tracing changed the run metrics:\n off: %+v\n  on: %+v", plain, traced)
	}
	if sink.Total() == 0 {
		t.Fatal("counting sink saw no events")
	}
}

// TestFaultDropSingleAttribution cross-checks the two observability channels
// end to end: the drop-reason histogram of the trace must agree exactly with
// the collector's disjoint channel-loss and fault-drop counters.
func TestFaultDropSingleAttribution(t *testing.T) {
	res, raw := tracedChurnRun(t, 42)
	events, err := trace.ReadAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var channel, faultDrops int64
	for _, e := range events {
		if e.Kind != trace.KindDrop {
			continue
		}
		switch e.Reason {
		case trace.DropChannel:
			channel++
		case trace.DropFault:
			faultDrops++
		}
	}
	if channel != res.ChannelLosses {
		t.Errorf("trace channel drops = %d, collector = %d", channel, res.ChannelLosses)
	}
	if faultDrops != res.FaultDrops {
		t.Errorf("trace fault drops = %d, collector = %d", faultDrops, res.FaultDrops)
	}
	if res.FaultDrops == 0 || res.ChannelLosses == 0 {
		t.Errorf("attribution test is vacuous: fault_drops=%d channel_losses=%d",
			res.FaultDrops, res.ChannelLosses)
	}
}

// TestTracedRunFuncWorkerInvariance is the per-run trace artifact contract:
// with one sink per job, every job's trace bytes and the merged metric
// records are identical for any worker-pool width.
func TestTracedRunFuncWorkerInvariance(t *testing.T) {
	entries := []GridEntry{
		{Name: "a", Scenario: churnScenario(7), Runs: 2},
		{Name: "b", Scenario: multihopScenario(9), Runs: 1},
	}
	jobs := gridJobs("trace", entries)

	runOnce := func(workers int) ([][]byte, []byte) {
		traces := make([]*bytes.Buffer, len(jobs))
		runFn := TracedRunFunc(func(j harness.Job) (trace.Sink, func() error, error) {
			buf := &bytes.Buffer{}
			traces[j.Index] = buf // each job owns its slot: no cross-job writes
			return trace.NewJSONLSink(buf), nil, nil
		})
		var metricsBuf bytes.Buffer
		recs, err := harness.Run(jobs, runFn, harness.Config{Workers: workers},
			harness.NewJSONLSink(&metricsBuf))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, r := range recs {
			if r.Failed() {
				t.Fatalf("workers=%d: %s failed: %s", workers, r.Job.Name, r.Err)
			}
		}
		out := make([][]byte, len(traces))
		for i, b := range traces {
			out[i] = b.Bytes()
		}
		return out, metricsBuf.Bytes()
	}

	serialTraces, serialMetrics := runOnce(1)
	parallelTraces, parallelMetrics := runOnce(4)
	if !bytes.Equal(serialMetrics, parallelMetrics) {
		t.Error("metric records differ between 1 and 4 workers")
	}
	for i := range jobs {
		if len(serialTraces[i]) == 0 {
			t.Fatalf("job %d produced an empty trace", i)
		}
		if !bytes.Equal(serialTraces[i], parallelTraces[i]) {
			t.Errorf("job %d trace differs between 1 and 4 workers", i)
		}
	}
}

// tallySink counts a run's trace events by kind, its transmissions by packet
// type and its drops by reason.
type tallySink struct {
	kinds, tx, drops [256]int64
}

func (c *tallySink) Emit(e trace.Event) {
	c.kinds[e.Kind]++
	switch e.Kind {
	case trace.KindTx:
		c.tx[e.Pkt]++
	case trace.KindDrop:
		c.drops[e.Reason]++
	}
}

func (c *tallySink) Flush() error { return nil }

// TestCountersMatchTrace checks that the collector's counters and the trace
// stream agree on every run path: all four protocols on the one-hop,
// multihop and churn runs, LR-Seluge under each adversary, and an
// LR-Seluge version upgrade. Radio and the protocol nodes report each
// packet event once, to the collector, which counts it and traces it, so
// any disagreement is a second reporting path.
func TestCountersMatchTrace(t *testing.T) {
	type run struct {
		name  string
		build func(sink *tallySink) (*Env, error)
		// upgrade, when set, drives the env through upgradeRun instead of
		// run.
		upgrade bool
	}
	var runs []run
	for _, name := range []string{"onehop", "multihop", "churn"} {
		for _, p := range []Protocol{Deluge, Seluge, LRSeluge, RatelessDeluge} {
			s := wireScenarios[name](p)
			runs = append(runs, run{name + "/" + p.String(), func(sink *tallySink) (*Env, error) {
				s.Trace = sink
				return Build(s)
			}, false})
		}
	}
	for _, g := range attackGolden {
		kind := g.kind
		runs = append(runs, run{"attack/" + g.name, func(sink *tallySink) (*Env, error) {
			s := attackScenario()
			s.Trace = sink
			e, _, err := attackEnv(kind, s)
			return e, err
		}, false})
	}
	runs = append(runs, run{"upgrade/LR-Seluge", func(sink *tallySink) (*Env, error) {
		return Build(Scenario{Protocol: LRSeluge, Image: image.Random(2048, 3^0x11),
			Params: image.Params{PacketPayload: 72, K: 8, N: 12}, Receivers: 4, LossP: 0.1, Seed: 3, Trace: sink})
	}, true})
	var puzzleRejects, authDrops, faultDrops int64
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			sink := &tallySink{}
			e, err := r.build(sink)
			if err != nil {
				t.Fatal(err)
			}
			var res Result
			if r.upgrade {
				up, err := e.upgradeRun(image.Random(2048, 3^0x22))
				if err != nil {
					t.Fatal(err)
				}
				res = e.result()
				// upgradeRun upgrades only once every node reported
				// version 1, so the complete events past that point are
				// the trace's count of version 2.
				after := sink.kinds[trace.KindComplete] - int64(res.Nodes)
				if up.Upgraded != res.Nodes || int64(res.Completed) != after {
					t.Fatalf("after the upgrade: Completions %d, %d complete events, %d nodes",
						res.Completed, after, res.Nodes)
				}
				// The engine stops at the last completion of each
				// version, so Latency is version 2's last completion.
				if want := up.V1Latency + up.UpgradeLatency; res.Latency != want {
					t.Fatalf("Latency %v after the upgrade, want version 2's last completion at %v", res.Latency, want)
				}
				sink.kinds[trace.KindComplete] = after
			} else {
				res = e.run()
			}
			for _, c := range []struct {
				what        string
				got, traced int64
			}{
				{"DataPkts", res.DataPkts, sink.tx[packet.TypeData]},
				{"SnackPkts", res.SnackPkts, sink.tx[packet.TypeSNACK]},
				{"AdvPkts", res.AdvPkts, sink.tx[packet.TypeAdv]},
				{"SigPkts", res.SigPkts, sink.tx[packet.TypeSig]},
				{"ChannelLosses", res.ChannelLosses, sink.drops[trace.DropChannel]},
				{"FaultDrops", res.FaultDrops, sink.drops[trace.DropFault]},
				{"PuzzleRejects", res.PuzzleRejects, sink.drops[trace.DropPuzzle]},
				{"AuthDrops", res.AuthDrops, sink.drops[trace.DropAuth] + sink.kinds[trace.KindSigReject]},
				{"Completed", int64(res.Completed), sink.kinds[trace.KindComplete]},
			} {
				if c.got != c.traced {
					t.Errorf("%s = %d, trace has %d", c.what, c.got, c.traced)
				}
			}
			puzzleRejects += res.PuzzleRejects
			authDrops += res.AuthDrops
			faultDrops += res.FaultDrops
		})
	}
	if puzzleRejects == 0 || authDrops == 0 || faultDrops == 0 {
		t.Errorf("vacuous: puzzle rejects %d, auth drops %d, fault drops %d over all runs",
			puzzleRejects, authDrops, faultDrops)
	}
}
