// Command lrsweep runs a named experiment sweep from the catalog through the
// internal/harness worker pool and writes one JSONL record per simulation
// run. Output is byte-identical for any -parallel value: the harness merges
// results in job order regardless of goroutine scheduling.
//
// Examples:
//
//	lrsweep -list
//	lrsweep -sweep multihop -quick -runs 8 -parallel 8 -o multihop.jsonl
//	lrsweep -sweep fig4 -runs 3 -csv fig4.csv -o fig4.jsonl -progress
//	lrsweep -sweep smoke -runs 4 -selfbench BENCH_sweep.json
//	lrsweep -sweep smoke -quick -runs 2 -trace-dir traces/ -o smoke.jsonl
//	lrsweep -sweep fig4 -runs 3 -timeout 5m -flight-dir flight/ -o fig4.jsonl
//	lrsweep -sweep smoke -quick -runs 2 -tracebench BENCH_trace.json
//	lrsweep -sweep fig4 -runs 3 -store results/ -code-version v7 -o fig4-cells.jsonl
//
// With -store, the sweep runs incrementally against a content-addressed run
// store (shared with the lrserved daemon): cells whose keys are already
// stored are served from it, only the missing cells are simulated, and the
// output is one JSONL line per cell (aggregates, not per-run records). The
// output bytes are identical whether a cell was computed or cached, so a
// warm rerun reproduces the cold run's file exactly.
//
// Exit codes: 0 success, 1 a run failed (panic/timeout/error; all other
// records are still written), 2 usage errors such as an unknown sweep or
// noise model.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"lrseluge/internal/bench"
	"lrseluge/internal/experiment"
	"lrseluge/internal/harness"
	"lrseluge/internal/obs"
	"lrseluge/internal/runstore"
	"lrseluge/internal/served"
	"lrseluge/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		sweep      = flag.String("sweep", "", "named sweep to run (see -list)")
		list       = flag.Bool("list", false, "list available sweeps and exit")
		runs       = flag.Int("runs", 3, "seeds averaged per grid entry")
		seed       = flag.Int64("seed", 1, "base RNG seed")
		quick      = flag.Bool("quick", false, "smaller images/grids/axes for a fast pass")
		parallel   = flag.Int("parallel", 0, "worker-pool width (0 = GOMAXPROCS, 1 = serial)")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget per run (0 = none); timed-out runs become failed records")
		out        = flag.String("o", "", "JSONL output path ('' or '-' = stdout)")
		csvPath    = flag.String("csv", "", "also write a CSV table to this path")
		progress   = flag.Bool("progress", false, "report per-run progress on stderr")
		selfbench  = flag.String("selfbench", "", "benchmark mode: time interleaved serial and -parallel passes of the sweep, verify byte-identical JSONL, write timings to this JSON file")
		traceDir   = flag.String("trace-dir", "", "write one JSONL protocol trace per run into this directory (analyze with lrtrace)")
		flightDir  = flag.String("flight-dir", "", "keep a bounded flight record per run; when a run panics or times out, dump its last trace events and state into this directory")
		tracebench = flag.String("tracebench", "", "benchmark mode: time interleaved untraced and traced passes of the sweep, verify identical metrics, write tracer-overhead timings to this JSON file")
		storeDir   = flag.String("store", "", "incremental mode: consult this run-store directory per cell, compute only the misses, and emit one JSONL line per cell (see lrserved)")
		codeVer    = flag.String("code-version", "dev", "code-version stamp mixed into store keys (with -store)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this path")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this path at exit")
		httpAddr   = flag.String("http", "", "serve live telemetry (pprof, /metrics, /progress) on this address while the sweep runs")
	)
	flag.Parse()

	if *list {
		fmt.Println("available sweeps:")
		for _, name := range experiment.SweepNames() {
			fmt.Printf("  %-16s %s\n", name, experiment.SweepDescription(name))
		}
		return 0
	}
	if *sweep == "" {
		fmt.Fprintf(os.Stderr, "lrsweep: -sweep is required (one of %s); see -list\n", strings.Join(experiment.SweepNames(), ", "))
		return 2
	}
	entries, err := experiment.NamedSweep(*sweep, experiment.SweepSpec{Runs: *runs, Seed: *seed, Quick: *quick})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lrsweep: %v\n", err)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lrsweep: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "lrsweep: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer writeMemProfile(*memprofile)
	}

	if *storeDir != "" {
		if *csvPath != "" || *traceDir != "" || *flightDir != "" || *selfbench != "" || *tracebench != "" {
			fmt.Fprintln(os.Stderr, "lrsweep: -store is incompatible with -csv, -trace-dir, -flight-dir, -selfbench and -tracebench")
			return 2
		}
		spec := experiment.SweepSpec{Runs: *runs, Seed: *seed, Quick: *quick}
		if err := runIncremental(*storeDir, *sweep, spec, *codeVer, *out,
			harness.Config{Workers: *parallel, Timeout: *timeout}); err != nil {
			fmt.Fprintf(os.Stderr, "lrsweep: %v\n", err)
			return 1
		}
		return 0
	}

	if *selfbench != "" {
		if err := runSelfbench(*selfbench, *sweep, entries, *parallel, *timeout); err != nil {
			fmt.Fprintf(os.Stderr, "lrsweep: %v\n", err)
			return 1
		}
		return 0
	}
	if *tracebench != "" {
		if err := runTracebench(*tracebench, *sweep, entries, *timeout); err != nil {
			fmt.Fprintf(os.Stderr, "lrsweep: %v\n", err)
			return 1
		}
		return 0
	}

	jsonlOut := io.Writer(os.Stdout)
	if *out != "" && *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lrsweep: %v\n", err)
			return 1
		}
		defer f.Close()
		jsonlOut = f
	}
	sinks := []harness.Sink{harness.NewJSONLSink(jsonlOut)}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lrsweep: %v\n", err)
			return 1
		}
		defer f.Close()
		sinks = append(sinks, harness.NewCSVSink(f, experiment.MetricNames()))
	}

	jobs := sweepJobs(*sweep, entries)
	runFn := experiment.GridRunFunc

	// With -flight-dir, every job gets a bounded flight recorder fed from its
	// trace stream. Recorders are created up front on this goroutine (indexed
	// by job position, which harness.Run assigns as Job.Index) so the
	// harness's dump-on-timeout path never races recorder creation.
	var flightRecs []*obs.FlightRecorder
	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "lrsweep: %v\n", err)
			return 1
		}
		flightRecs = make([]*obs.FlightRecorder, len(jobs))
		for i, j := range jobs {
			fr := obs.NewFlightRecorder(flightRingCap)
			fr.SetOutput(filepath.Join(*flightDir, flightFileName(i, j.Name)))
			fr.SetState("job", j.Name)
			for _, p := range j.Params {
				fr.SetState(p.Key, p.Value)
			}
			flightRecs[i] = fr
		}
	}

	if *traceDir != "" || flightRecs != nil {
		if *traceDir != "" {
			if err := os.MkdirAll(*traceDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "lrsweep: %v\n", err)
				return 1
			}
		}
		tdir := *traceDir
		// One file per job, named by job index: every run owns its file, so
		// the trace bytes stay worker-count invariant. The flight sink rides
		// the same per-job stream, teed when both are requested.
		runFn = experiment.TracedRunFunc(func(j harness.Job) (trace.Sink, func() error, error) {
			var sinks []trace.Sink
			var closeFn func() error
			if tdir != "" {
				f, err := os.Create(filepath.Join(tdir, traceFileName(j)))
				if err != nil {
					return nil, nil, err
				}
				sinks = append(sinks, trace.NewJSONLSink(f))
				closeFn = f.Close
			}
			if flightRecs != nil {
				sinks = append(sinks, trace.NewFlightSink(flightRecs[j.Index]))
			}
			if len(sinks) == 1 {
				return sinks[0], closeFn, nil
			}
			return trace.NewTee(sinks...), closeFn, nil
		})
	}

	cfg := harness.Config{Workers: *parallel, Timeout: *timeout}
	if flightRecs != nil {
		cfg.Flight = func(j harness.Job) harness.FlightDumper {
			if fr := flightRecs[j.Index]; fr != nil {
				return fr
			}
			return nil
		}
	}
	start := time.Now()
	if *progress {
		cfg.OnRecord = func(done, total int, r harness.Record) {
			status := "ok"
			if r.Failed() {
				status = "FAILED: " + r.Err
			}
			fmt.Fprintf(os.Stderr, "lrsweep: [%d/%d] %s %s (%.1fs elapsed)\n",
				done, total, r.Job.Name, status, time.Since(start).Seconds())
		}
	}
	if *httpAddr != "" {
		board := &obs.Board{}
		bound, shutdown, err := obs.Serve(*httpAddr, obs.ServeOptions{Progress: board})
		if err != nil {
			fmt.Fprintf(os.Stderr, "lrsweep: %v\n", err)
			return 1
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "lrsweep: live telemetry on http://%s\n", bound)
		failedSoFar := 0
		prev := cfg.OnRecord
		// OnRecord runs on the merging goroutine, so the counter and board
		// need no locking.
		cfg.OnRecord = func(done, total int, r harness.Record) {
			if r.Failed() {
				failedSoFar++
			}
			board.Publish(sweepProgress{
				Done: done, Total: total, Failed: failedSoFar,
				LastJob: r.Job.Name, ElapsedSec: time.Since(start).Seconds(),
			})
			if prev != nil {
				prev(done, total, r)
			}
		}
	}
	recs, err := harness.Run(jobs, runFn, cfg, sinks...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lrsweep: %v\n", err)
		return 1
	}
	failed := 0
	for _, r := range recs {
		if r.Failed() {
			failed++
			fmt.Fprintf(os.Stderr, "lrsweep: %s failed: %s\n", r.Job.Name, r.Err)
		}
	}
	fmt.Fprintf(os.Stderr, "lrsweep: %s: %d runs (%d failed) in %.1fs on %d workers\n",
		*sweep, len(recs), failed, time.Since(start).Seconds(), effectiveWorkers(*parallel, len(recs)))
	if failed > 0 {
		return 1
	}
	return 0
}

// cellLine is the JSONL schema of -store mode: one line per sweep cell,
// aggregate result included, cache provenance deliberately excluded — hit
// and miss counts go to stderr instead, so a warm rerun's output is
// byte-identical to the cold run's.
type cellLine struct {
	Sweep  string               `json:"sweep"`
	Index  int                  `json:"index"`
	Name   string               `json:"name"`
	Proto  string               `json:"proto"`
	Params []harness.Param      `json:"params,omitempty"`
	Key    string               `json:"key"`
	Runs   int                  `json:"runs"`
	Result experiment.AvgResult `json:"result"`
}

// runIncremental runs the sweep against a content-addressed store: cells
// already present are served from it, only the misses are computed (and
// stored), and one JSONL line per cell goes to outPath.
func runIncremental(storeDir, sweep string, spec experiment.SweepSpec, codeVersion, outPath string, cfg harness.Config) error {
	store, err := runstore.Open(storeDir, runstore.Options{})
	if err != nil {
		return err
	}
	start := time.Now()
	outs, hits, misses, err := served.RunSweep(store, sweep, spec, codeVersion, cfg)
	if err != nil {
		return err
	}

	w := io.Writer(os.Stdout)
	if outPath != "" && outPath != "-" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	for _, o := range outs {
		line := cellLine{
			Sweep:  o.Sweep,
			Index:  o.Index,
			Name:   o.Name,
			Proto:  o.Proto,
			Params: o.Params,
			Key:    o.Key,
			Runs:   o.Runs,
			Result: o.Result,
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "lrsweep: %s: %d cells (%d cached, %d computed) in %.1fs (store %s, code-version %s)\n",
		sweep, len(outs), hits, misses, time.Since(start).Seconds(), storeDir, codeVersion)
	return nil
}

// sweepProgress is the /progress JSON published while a sweep runs.
type sweepProgress struct {
	Done       int     `json:"done"`
	Total      int     `json:"total"`
	Failed     int     `json:"failed"`
	LastJob    string  `json:"last_job"`
	ElapsedSec float64 `json:"elapsed_sec"`
}

// flightRingCap bounds each job's flight recorder: enough trace tail to see
// what the run was doing when it died, small enough that a wide sweep keeps
// thousands of recorders resident without noticeable memory cost.
const flightRingCap = 512

// traceFileName maps a job onto its trace file: the job index keeps names
// unique and sorted in job order, the sanitized job name keeps them readable.
func traceFileName(j harness.Job) string {
	return fmt.Sprintf("%04d-%s.jsonl", j.Index, sanitizeJobName(j.Name))
}

// flightFileName is the post-mortem dump path for one job, mirroring the
// trace naming scheme.
func flightFileName(index int, name string) string {
	return fmt.Sprintf("%04d-%s.flight.txt", index, sanitizeJobName(name))
}

func sanitizeJobName(jobName string) string {
	name := make([]byte, 0, len(jobName))
	for i := 0; i < len(jobName); i++ {
		c := jobName[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '=', c == '-':
			name = append(name, c)
		default:
			name = append(name, '-')
		}
	}
	return string(name)
}

// writeMemProfile snapshots the heap after a final GC.
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lrsweep: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "lrsweep: %v\n", err)
	}
}

// sweepJobs expands grid entries into harness jobs via the experiment glue.
func sweepJobs(sweep string, entries []experiment.GridEntry) []harness.Job {
	return experiment.GridJobs(sweep, entries)
}

// effectiveWorkers mirrors the harness pool-sizing rule for reporting.
func effectiveWorkers(parallel, jobs int) int {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > jobs {
		parallel = jobs
	}
	return parallel
}

// benchReport is the schema of the -selfbench JSON artifact.
type benchReport struct {
	Sweep        string `json:"sweep"`
	Jobs         int    `json:"jobs"`
	RunsPerEntry int    `json:"runs_per_entry"`
	Workers      int    `json:"workers"`
	bench.Header
	Serial   bench.Side `json:"serial"`
	Parallel bench.Side `json:"parallel"`
	// Speedup is the serial median over the parallel median.
	Speedup float64 `json:"speedup"`
	// SHA256 is the JSONL digest every serial and parallel pass reproduced.
	SHA256 string `json:"sha256"`
}

// sweepPass returns a bench.Func running the sweep once through runFn on
// the given worker count; its digest is the SHA-256 of the JSONL records.
func sweepPass(jobs []harness.Job, runFn harness.RunFunc, workers int, timeout time.Duration) bench.Func {
	return func() (string, error) {
		h := sha256.New()
		recs, err := harness.Run(jobs, runFn, harness.Config{Workers: workers, Timeout: timeout}, harness.NewJSONLSink(h))
		if err != nil {
			return "", err
		}
		for _, r := range recs {
			if r.Failed() {
				return "", fmt.Errorf("%s failed: %s", r.Job.Name, r.Err)
			}
		}
		return fmt.Sprintf("%x", h.Sum(nil)), nil
	}
}

// runSelfbench times interleaved serial (1 worker) and parallel (`parallel`
// workers, default GOMAXPROCS) passes of the sweep, each of which must
// produce byte-identical JSONL.
func runSelfbench(path, sweep string, entries []experiment.GridEntry, parallel int, timeout time.Duration) error {
	if len(entries) == 0 {
		return fmt.Errorf("sweep %q has no entries", sweep)
	}
	jobs := sweepJobs(sweep, entries)
	workers := effectiveWorkers(parallel, len(jobs))
	res, err := bench.AB(sweepPass(jobs, experiment.GridRunFunc, 1, timeout),
		sweepPass(jobs, experiment.GridRunFunc, workers, timeout))
	if err != nil {
		return fmt.Errorf("selfbench: %w", err)
	}
	rep := benchReport{
		Sweep:        sweep,
		Jobs:         len(jobs),
		RunsPerEntry: entries[0].Runs,
		Workers:      workers,
		Header:       res.Header,
		Serial:       res.A,
		Parallel:     res.B,
		Speedup:      res.A.MedianSec / res.B.MedianSec,
		SHA256:       res.Digest,
	}
	fmt.Fprintf(os.Stderr, "lrsweep: selfbench %s: serial %.2fs, %d-worker %.2fs (%.2fx, medians of %d) -> %s\n",
		sweep, res.A.MedianSec, workers, res.B.MedianSec, rep.Speedup, bench.Pairs, path)
	return bench.WriteJSON(path, rep)
}

// traceBenchReport is the schema of the -tracebench JSON artifact
// (BENCH_trace.json in check.sh).
type traceBenchReport struct {
	Sweep string `json:"sweep"`
	Jobs  int    `json:"jobs"`
	bench.Header

	// Serial untraced and traced (counting sink: event construction and
	// emission, no I/O) passes, interleaved.
	Untraced bench.Side `json:"untraced"`
	Traced   bench.Side `json:"traced"`
	// NoiseFrac is the untraced side's IQR/median: an overhead below it is
	// indistinguishable from run-to-run noise.
	NoiseFrac   float64 `json:"noise_frac"`
	EventsTotal uint64  `json:"events_total"`
	// TracedOverheadFrac is the traced median over the untraced median, - 1.
	TracedOverheadFrac float64 `json:"traced_overhead_frac"`

	// DisabledNsPerSite is the measured cost of one nil-tracer call (the
	// price every event site pays when tracing is off), and
	// DisabledOverheadFrac scales it by the run's event volume — the
	// fraction of untraced wall-clock spent on disabled instrumentation.
	DisabledNsPerSite    float64 `json:"disabled_ns_per_site"`
	DisabledOverheadFrac float64 `json:"disabled_overhead_frac"`

	// MetricsSHA256 is the metrics JSONL digest every pass, traced or not,
	// reproduced: tracing must never change simulation results.
	MetricsSHA256 string `json:"metrics_sha256"`
}

// runTracebench measures the tracer's overhead on a real sweep from
// interleaved serial untraced and traced passes plus a nil-call
// microbenchmark, verifying that tracing leaves the metrics byte-identical.
func runTracebench(path, sweep string, entries []experiment.GridEntry, timeout time.Duration) error {
	if len(entries) == 0 {
		return fmt.Errorf("sweep %q has no entries", sweep)
	}
	jobs := sweepJobs(sweep, entries)
	var events uint64 // summed over all Pairs traced passes
	traced := experiment.TracedRunFunc(func(harness.Job) (trace.Sink, func() error, error) {
		c := &trace.Count{}
		// Serial pass (workers=1): the close funcs never run concurrently.
		return c, func() error { events += c.Total(); return nil }, nil
	})
	res, err := bench.AB(sweepPass(jobs, experiment.GridRunFunc, 1, timeout), sweepPass(jobs, traced, 1, timeout))
	if err != nil {
		return fmt.Errorf("tracebench: %w", err)
	}
	events /= bench.Pairs
	nilNs := bench.NsPerOp(func(n int) {
		var tr *trace.Tracer
		for i := 0; i < n; i++ {
			tr.Fault("", i, i)
		}
	})
	rep := traceBenchReport{
		Sweep:                sweep,
		Jobs:                 len(jobs),
		Header:               res.Header,
		Untraced:             res.A,
		Traced:               res.B,
		NoiseFrac:            res.A.IQRSec / res.A.MedianSec,
		EventsTotal:          events,
		TracedOverheadFrac:   res.B.MedianSec/res.A.MedianSec - 1,
		DisabledNsPerSite:    nilNs,
		DisabledOverheadFrac: nilNs * float64(events) / (res.A.MedianSec * 1e9),
		MetricsSHA256:        res.Digest,
	}
	fmt.Fprintf(os.Stderr, "lrsweep: tracebench %s: untraced %.3fs, traced %.3fs (%+.1f%%, noise %.1f%%), %d events, disabled site %.2fns (%.4f%% of run) -> %s\n",
		sweep, res.A.MedianSec, res.B.MedianSec, 100*rep.TracedOverheadFrac, 100*rep.NoiseFrac, events,
		nilNs, 100*rep.DisabledOverheadFrac, path)
	return bench.WriteJSON(path, rep)
}
