package experiment

import (
	"fmt"
	"strconv"

	"lrseluge/internal/harness"
	"lrseluge/internal/trace"
)

// Metric names emitted for every run record flowing through the harness.
// The order of MetricNames is the serialization order in every sink.
const (
	MetricCompletedFrac    = "completed_frac"
	MetricDataPkts         = "data_pkts"
	MetricPageDataPkts     = "page_data_pkts"
	MetricSnackPkts        = "snack_pkts"
	MetricAdvPkts          = "adv_pkts"
	MetricSigPkts          = "sig_pkts"
	MetricTotalBytes       = "total_bytes"
	MetricLatencySec       = "latency_sec"
	MetricImagesOK         = "images_ok"
	MetricAuthDrops        = "auth_drops"
	MetricPuzzleRejects    = "puzzle_rejects"
	MetricSigVerifications = "sig_verifications"
	MetricForgedAccepted   = "forged_accepted"
	MetricChannelLosses    = "channel_losses"
	MetricUnits            = "units"
	MetricNodes            = "nodes"
	MetricCrashes          = "crashes"
	MetricReboots          = "reboots"
	MetricCrashLostPkts    = "crash_lost_pkts"
	MetricRefetchedPkts    = "refetched_pkts"
	MetricFaultDrops       = "fault_drops"
	MetricDowntimeSec      = "downtime_sec"
	MetricRecoverySec      = "recovery_sec"
)

// MetricNames returns the per-run metric names in serialization order.
func MetricNames() []string {
	return []string{
		MetricCompletedFrac, MetricDataPkts, MetricPageDataPkts,
		MetricSnackPkts, MetricAdvPkts, MetricSigPkts, MetricTotalBytes,
		MetricLatencySec, MetricImagesOK, MetricAuthDrops,
		MetricPuzzleRejects, MetricSigVerifications, MetricForgedAccepted,
		MetricChannelLosses, MetricUnits, MetricNodes,
		MetricCrashes, MetricReboots, MetricCrashLostPkts,
		MetricRefetchedPkts, MetricFaultDrops, MetricDowntimeSec,
		MetricRecoverySec,
	}
}

// runMetrics flattens a Result into the harness metric vector, in
// MetricNames order.
func runMetrics(r Result) []harness.Metric {
	boolMetric := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	return []harness.Metric{
		{Name: MetricCompletedFrac, Value: float64(r.Completed) / float64(r.Nodes)},
		{Name: MetricDataPkts, Value: float64(r.DataPkts)},
		{Name: MetricPageDataPkts, Value: float64(r.PageDataPkts)},
		{Name: MetricSnackPkts, Value: float64(r.SnackPkts)},
		{Name: MetricAdvPkts, Value: float64(r.AdvPkts)},
		{Name: MetricSigPkts, Value: float64(r.SigPkts)},
		{Name: MetricTotalBytes, Value: float64(r.TotalBytes)},
		{Name: MetricLatencySec, Value: r.Latency.Seconds()},
		{Name: MetricImagesOK, Value: boolMetric(r.ImagesOK)},
		{Name: MetricAuthDrops, Value: float64(r.AuthDrops)},
		{Name: MetricPuzzleRejects, Value: float64(r.PuzzleRejects)},
		{Name: MetricSigVerifications, Value: float64(r.SigVerifications)},
		{Name: MetricForgedAccepted, Value: float64(r.ForgedAccepted)},
		{Name: MetricChannelLosses, Value: float64(r.ChannelLosses)},
		{Name: MetricUnits, Value: float64(r.Units)},
		{Name: MetricNodes, Value: float64(r.Nodes)},
		{Name: MetricCrashes, Value: float64(r.Crashes)},
		{Name: MetricReboots, Value: float64(r.Reboots)},
		{Name: MetricCrashLostPkts, Value: float64(r.CrashLostPkts)},
		{Name: MetricRefetchedPkts, Value: float64(r.RefetchedPkts)},
		{Name: MetricFaultDrops, Value: float64(r.FaultDrops)},
		{Name: MetricDowntimeSec, Value: r.DowntimeSec},
		{Name: MetricRecoverySec, Value: r.RecoverySec},
	}
}

// seedStride separates the derived seeds of consecutive runs of one entry
// (the historical RunAvg constant, kept so averaged numbers stay stable).
const seedStride = 1000003

// GridEntry is one aggregation cell of a sweep: a scenario executed Runs
// times under derived seeds (Scenario.Seed + runIndex*seedStride) and
// averaged into one AvgResult.
//
// Concurrency contract: entries are run on GOMAXPROCS-wide worker pools, so
// a Scenario must not share mutable state across runs — which is why
// channel models come only through Scenario.LossFactory (a fresh model per
// build).
type GridEntry struct {
	// Name labels the entry in job names and error messages, e.g. "p=0.1".
	Name string
	// Params are extra ordered labels serialized into each run record
	// (protocol, run index and seed are appended automatically).
	Params []harness.Param
	// Scenario is the run configuration; its Seed is the entry's base seed.
	Scenario Scenario
	// Runs is the number of seeds to average; must be >= 1.
	Runs int
}

// gridPayload rides along each harness job back to the aggregation step.
type gridPayload struct {
	entry, run int
	scenario   Scenario
}

// gridJobs expands entries × run indices into the flat harness job list, in
// entry order then run order — the canonical merge order of the sweep.
func gridJobs(sweep string, entries []GridEntry) []harness.Job {
	jobs := make([]harness.Job, 0, len(entries))
	for ei, e := range entries {
		for ri := 0; ri < e.Runs; ri++ {
			sc := e.Scenario
			sc.Seed = e.Scenario.Seed + int64(ri)*seedStride
			params := make([]harness.Param, 0, len(e.Params)+4)
			if sweep != "" {
				params = append(params, harness.Param{Key: "sweep", Value: sweep})
			}
			params = append(params, harness.Param{Key: "proto", Value: sc.Protocol.String()})
			params = append(params, e.Params...)
			params = append(params,
				harness.Param{Key: "run", Value: strconv.Itoa(ri)},
				harness.Param{Key: "seed", Value: strconv.FormatInt(sc.Seed, 10)},
			)
			jobs = append(jobs, harness.Job{
				Name:    e.Name + "/run=" + strconv.Itoa(ri),
				Params:  params,
				Payload: gridPayload{entry: ei, run: ri, scenario: sc},
			})
		}
	}
	return jobs
}

// gridRun is the harness RunFunc: one full simulation per job.
func gridRun(j harness.Job) ([]harness.Metric, error) {
	p := j.Payload.(gridPayload)
	r, err := Run(p.scenario)
	if err != nil {
		return nil, err
	}
	return runMetrics(r), nil
}

// GridJobs exposes the job expansion to callers driving harness.Run
// directly (cmd/lrsweep streams records to sinks without aggregating).
func GridJobs(sweep string, entries []GridEntry) []harness.Job {
	return gridJobs(sweep, entries)
}

// GridRunFunc is the harness RunFunc that executes one grid job as a full
// simulation.
var GridRunFunc harness.RunFunc = gridRun

// TracedRunFunc wraps gridRun so every job's simulation streams its protocol
// events to a per-job trace sink. sinkFor is called once per job and returns
// the sink plus a close function invoked after the run (nil close is
// allowed); a close error fails the job. Because every job owns a distinct
// sink, traced sweeps stay worker-count invariant: each trace file's bytes
// depend only on the job's seed, never on pool scheduling.
func TracedRunFunc(sinkFor func(harness.Job) (trace.Sink, func() error, error)) harness.RunFunc {
	return func(j harness.Job) ([]harness.Metric, error) {
		p := j.Payload.(gridPayload)
		sink, closeFn, err := sinkFor(j)
		if err != nil {
			return nil, fmt.Errorf("experiment: trace sink for %s: %w", j.Name, err)
		}
		sc := p.scenario
		sc.Trace = sink
		r, runErr := Run(sc)
		if closeFn != nil {
			if err := closeFn(); err != nil && runErr == nil {
				runErr = fmt.Errorf("experiment: trace close for %s: %w", j.Name, err)
			}
		}
		if runErr != nil {
			return nil, runErr
		}
		return runMetrics(r), nil
	}
}

// RunGrid executes every entry's runs through the harness worker pool and
// aggregates one AvgResult per entry, in entry order. Run records stream to
// the given sinks in deterministic job order; cfg.Workers picks the pool
// width (0 = GOMAXPROCS) without affecting any output byte.
//
// The first failed run (in job order) aborts the sweep with an error naming
// the entry, run index and seed; sink output still covers every record.
func RunGrid(sweep string, entries []GridEntry, cfg harness.Config, sinks ...harness.Sink) ([]AvgResult, error) {
	for i, e := range entries {
		if e.Runs < 1 {
			return nil, fmt.Errorf("experiment: entry %d (%s): runs must be >= 1", i, e.Name)
		}
	}
	recs, err := harness.Run(gridJobs(sweep, entries), gridRun, cfg, sinks...)
	if err != nil {
		return nil, err
	}
	aggs := make([]*harness.Aggregator, len(entries))
	for i := range aggs {
		aggs[i] = harness.NewAggregator()
	}
	for _, r := range recs {
		p := r.Job.Payload.(gridPayload)
		if r.Failed() {
			return nil, fmt.Errorf("experiment: %s: run %d (seed %d) failed: %s",
				entries[p.entry].Name, p.run, p.scenario.Seed, r.Err)
		}
		if err := aggs[p.entry].Write(r); err != nil {
			return nil, err
		}
	}
	out := make([]AvgResult, len(entries))
	for i, e := range entries {
		out[i] = avgFromAggregator(e.Scenario.Protocol, e.Runs, aggs[i])
	}
	return out, nil
}

// avgFromAggregator maps the aggregated metric vector back onto the
// historical AvgResult shape.
func avgFromAggregator(proto Protocol, runs int, a *harness.Aggregator) AvgResult {
	return AvgResult{
		Protocol:   proto,
		Runs:       runs,
		Completed:  a.Mean(MetricCompletedFrac),
		DataPkts:   a.Mean(MetricDataPkts),
		PageData:   a.Mean(MetricPageDataPkts),
		SnackPkts:  a.Mean(MetricSnackPkts),
		AdvPkts:    a.Mean(MetricAdvPkts),
		SigPkts:    a.Mean(MetricSigPkts),
		TotalBytes: a.Mean(MetricTotalBytes),
		LatencySec: a.Mean(MetricLatencySec),
		ImagesOK:   a.Count() > 0 && a.Min(MetricImagesOK) >= 1,
		DataStd:    a.Std(MetricDataPkts),
		BytesStd:   a.Std(MetricTotalBytes),
		LatencyStd: a.Std(MetricLatencySec),
		Crashes:    a.Mean(MetricCrashes),
		Refetched:  a.Mean(MetricRefetchedPkts),
		FaultDrops: a.Mean(MetricFaultDrops),
		Downtime:   a.Mean(MetricDowntimeSec),
		Recovery:   a.Mean(MetricRecoverySec),
	}
}
