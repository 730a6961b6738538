package experiment

import (
	"bytes"
	"testing"

	"lrseluge/internal/fault"
	"lrseluge/internal/harness"
	"lrseluge/internal/sim"
)

// churnScenario is a small one-hop scenario under aggressive random churn:
// receivers crash often enough that several power cycles happen while the
// image is still spreading.
func churnScenario(seed int64) Scenario {
	horizon := 3600 * sim.Second
	return Scenario{
		Protocol:     LRSeluge,
		ImageSize:    2 * 1024,
		Params:       smallParams(),
		Receivers:    4,
		LossP:        0.05,
		Seed:         seed,
		Horizon:      horizon,
		FaultFactory: churnFactory(40*sim.Second, 10*sim.Second, horizon),
	}
}

// TestChurnSameSeedReproducible extends the repo's reproducibility claim to
// fault injection: two builds of the same churn scenario must produce
// byte-identical packet traces, and the runs must actually exercise crashes.
func TestChurnSameSeedReproducible(t *testing.T) {
	res1, trace1 := traceRun(t, churnScenario(42))
	res2, trace2 := traceRun(t, churnScenario(42))

	if res1 != res2 {
		t.Errorf("same seed produced different metrics:\n run1: %+v\n run2: %+v", res1, res2)
	}
	if trace1 != trace2 {
		t.Errorf("same seed produced different packet traces: %x vs %x", trace1, trace2)
	}
	if res1.Crashes == 0 {
		t.Error("churn scenario produced no crashes; the test is vacuous")
	}
	if res1.Reboots == 0 || res1.DowntimeSec <= 0 {
		t.Errorf("reboots/downtime not recorded: %+v", res1)
	}
	if res1.Completed != res1.Nodes {
		t.Errorf("churn run did not complete: %d/%d nodes", res1.Completed, res1.Nodes)
	}
	if !res1.ImagesOK {
		t.Error("reassembled images differ from original")
	}

	// Different seeds draw different churn plans and must diverge.
	_, trace3 := traceRun(t, churnScenario(43))
	if trace1 == trace3 {
		t.Error("different seeds produced identical packet traces under churn")
	}
}

// TestChurnSweepWorkerInvariance checks the harness contract on the churn
// grid: the JSONL record stream is byte-identical for any worker count, and
// the sweep's fault metrics are live.
func TestChurnSweepWorkerInvariance(t *testing.T) {
	horizon := 3600 * sim.Second
	entries := churnEntries(smallParams(), 2*1024, 3, []float64{90}, 0.05, horizon, 2, 5)

	runOnce := func(workers int) ([]AvgResult, []byte) {
		var buf bytes.Buffer
		avgs, err := RunGrid("churn", entries, harness.Config{Workers: workers}, harness.NewJSONLSink(&buf))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return avgs, buf.Bytes()
	}
	avgs1, serial := runOnce(1)
	avgs4, parallel := runOnce(4)

	if !bytes.Equal(serial, parallel) {
		t.Error("JSONL records differ between 1 and 4 workers")
	}
	for i := range avgs1 {
		if avgs1[i] != avgs4[i] {
			t.Errorf("entry %d averages differ between worker counts:\n %+v\n %+v", i, avgs1[i], avgs4[i])
		}
	}
	crashes := 0.0
	for _, a := range avgs1 {
		crashes += a.Crashes
	}
	if crashes == 0 {
		t.Error("churn sweep recorded no crashes")
	}
}

// TestCrashMidPageRecovery is the flash-vs-RAM acceptance test: a node
// crashed in the middle of assembling a page keeps its flash-resident
// completed units, loses exactly the partial page, and after reboot
// re-fetches only the interrupted unit (visible in the re-fetch metric)
// before completing with a byte-correct image.
func TestCrashMidPageRecovery(t *testing.T) {
	s := Scenario{
		Protocol:  LRSeluge,
		ImageSize: 4 * 1024,
		Params:    smallParams(),
		Receivers: 2,
		Seed:      11,
	}
	e, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	ov := e.nw.InstallFaultOverlay()
	fe, err := fault.NewEngine(e.eng, ov, e.col.Tracer())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range e.nodes {
		fe.Register(int(n.ID()), n)
	}
	for _, n := range e.nodes {
		n.Start()
	}

	// Step the simulation until node 1 is mid-page: at least one image page
	// complete (units 0=sig, 1=M0, 2..=pages) plus a partial next unit.
	h := e.nodes[1].Handler()
	partial := func() int {
		unit := h.CompleteUnits()
		if total := h.TotalUnits(); total > 0 && unit >= total {
			return 0
		}
		held := 0
		for idx := 0; idx < h.PacketsInUnit(unit); idx++ {
			if h.HasPacket(unit, idx) {
				held++
			}
		}
		return held
	}
	// Step over absolute 100 ms targets: Run only advances the clock through
	// executed events, so stepping from Now() would stall before the first
	// scheduled event.
	horizon := 3600 * sim.Second
	for at := 100 * sim.Millisecond; at < horizon; at += 100 * sim.Millisecond {
		e.eng.Run(at)
		if h.CompleteUnits() >= 3 && partial() > 0 {
			break
		}
	}
	flashBefore, ramBefore := h.CompleteUnits(), partial()
	if flashBefore < 3 || ramBefore == 0 {
		t.Fatalf("never reached a mid-page state: complete=%d partial=%d", flashBefore, ramBefore)
	}

	crashAt := e.eng.Now() + sim.Millisecond
	plan := &fault.Plan{Name: "mid-page-crash", Events: []fault.Event{
		{AtSec: crashAt.Seconds(), Kind: fault.NodeCrash, Node: 1},
		{AtSec: (crashAt + 5*sim.Second).Seconds(), Kind: fault.NodeReboot, Node: 1},
	}}
	if err := fe.Install(plan); err != nil {
		t.Fatal(err)
	}

	// Just past the crash: flash retained, RAM wiped.
	e.eng.Run(crashAt + 2*sim.Millisecond)
	if got := e.col.Crashes(); got != 1 {
		t.Fatalf("Crashes = %d, want 1", got)
	}
	if got := h.CompleteUnits(); got != flashBefore {
		t.Fatalf("flash-resident units changed across crash: %d -> %d", flashBefore, got)
	}
	if got := partial(); got != 0 {
		t.Fatalf("partial unit survived the crash: %d packets", got)
	}
	if got := e.col.CrashLostPkts(); got != int64(ramBefore) {
		t.Fatalf("CrashLostPkts = %d, want %d", got, ramBefore)
	}

	// Run to the end: the node recovers, re-fetching only the interrupted
	// unit.
	e.eng.Run(horizon)
	if got := e.col.Completions(); got != len(e.nodes) {
		t.Fatalf("only %d/%d nodes completed after the crash", got, len(e.nodes))
	}
	if got := e.col.RefetchedPkts(); got == 0 {
		t.Fatal("no re-fetched packets recorded for the interrupted unit")
	} else if got > int64(h.PacketsInUnit(flashBefore)) {
		t.Fatalf("RefetchedPkts = %d exceeds the interrupted unit's packet count %d", got, h.PacketsInUnit(flashBefore))
	}
	if e.col.Reboots() != 1 || e.col.TotalDowntime() <= 0 {
		t.Fatalf("reboot accounting wrong: reboots=%d downtime=%v", e.col.Reboots(), e.col.TotalDowntime())
	}
	if e.col.MeanRecoveryLatencySec() <= 0 {
		t.Fatal("recovery latency not recorded")
	}
	if !e.ImagesOK() {
		t.Fatal("image mismatch after recovery")
	}
}

// TestPartitionHealCompletion checks the partition fault end to end: while
// the network is split the isolated receiver makes no progress (the overlay
// blocks and counts cross-cell deliveries); after the heal it completes.
func TestPartitionHealCompletion(t *testing.T) {
	horizon := 3600 * sim.Second
	res, err := Run(Scenario{
		Protocol:  LRSeluge,
		ImageSize: 2 * 1024,
		Params:    smallParams(),
		Receivers: 2,
		Seed:      17,
		Horizon:   horizon,
		Faults: &fault.Plan{Name: "split", Events: []fault.Event{
			{AtSec: 0.5, Kind: fault.Partition, Groups: [][]int{{0, 1}, {2}}},
			{AtSec: 60, Kind: fault.Heal},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Nodes || !res.ImagesOK {
		t.Fatalf("network did not recover from the partition: %+v", res)
	}
	if res.FaultDrops == 0 {
		t.Error("partition blocked no deliveries; the test is vacuous")
	}
	if res.Latency.Seconds() < 60 {
		t.Errorf("completion at %vs predates the heal at 60s", res.Latency.Seconds())
	}
}
