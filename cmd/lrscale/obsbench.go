package main

import (
	"errors"
	"fmt"
	"os"

	"lrseluge/internal/bench"
	"lrseluge/internal/obs"
	"lrseluge/internal/scale"
	"lrseluge/internal/sim"
)

// obsBenchNodes is the network size -obsbench measures at.
const obsBenchNodes = 2000

// The -obsbench gates. The enabled overhead is a ratio of medians and is
// judged by bench.AtMost against the obs-off side's noise; the disabled
// overhead is a nil-receiver microbenchmark and coverage a sampled
// estimate with its own standard error, so both keep plain bounds. The
// over-count gate is exact: any sampled event counted twice fails it.
const (
	maxEnabledOverhead  = 0.10
	maxDisabledOverhead = 0.01
	minCoveredFrac      = 0.8
)

// obsBenchReport is the BENCH_obs.json schema. Mirrors BENCH_trace.json's
// methodology: enabled overhead from interleaved obs-off/obs-on runs,
// disabled overhead from a nil-receiver microbenchmark scaled by the run's
// region count.
type obsBenchReport struct {
	Nodes   int   `json:"nodes"`
	ImageKB int   `json:"image_kb"`
	Seed    int64 `json:"seed"`
	bench.Header

	// ObsOff and ObsOn time whole scale.Run calls of the same seeded
	// configuration without and with phase timers.
	ObsOff bench.Side `json:"obs_off"`
	ObsOn  bench.Side `json:"obs_on"`
	// EnabledOverheadFrac is the obs-on median over the obs-off median, - 1;
	// NoiseFrac is the obs-off side's IQR/median.
	EnabledOverheadFrac float64 `json:"enabled_overhead_frac"`
	NoiseFrac           float64 `json:"noise_frac"`

	// Regions is the number of disabled boundary pairs an obs-on run
	// crosses: the phase regions it opens plus the engine's BeginEvent/
	// EndEvent pair per popped event. NilPairNS is the measured cost of one
	// disabled Start/End pair.
	// DisabledOverheadFrac = Regions * NilPairNS / obs-off median.
	Regions              uint64  `json:"regions"`
	NilPairNS            float64 `json:"nil_pair_ns"`
	DisabledOverheadFrac float64 `json:"disabled_overhead_frac"`

	// CoveredFrac is each obs-on run's attribution coverage, in call order:
	// the fraction of wall time the instrumented subsystems account for.
	// CoveredSE is its standard error from event sampling, and
	// SamplingFrac the run's timing cost, outside the covered fraction. The
	// coverage gate reads the last run. OverCounted is each run's count of
	// sampled events whose phase time exceeds their span; every entry must
	// be zero.
	CoveredFrac  []float64 `json:"covered_frac"`
	CoveredSE    []float64 `json:"covered_se"`
	SamplingFrac []float64 `json:"sampling_frac"`
	OverCounted  []uint64  `json:"over_counted"`

	// TraceIdentical pins the determinism contract: every run above hashed
	// its transmission trace to TraceHash.
	TraceIdentical bool   `json:"trace_identical"`
	TraceHash      string `json:"trace_hash"`
}

// disabledTimers is the nil receiver the disabled-pair microbenchmark
// drives. A package variable, like the engine's field, is loaded and
// checked at every call; a local nil would let the compiler fold the
// inlined checks away.
var disabledTimers *obs.Timers

// runObsbench measures obs instrumentation overhead, writes BENCH_obs.json
// and returns every gate that failed.
func runObsbench(kb int, seed int64, degree float64, out string, quiet bool) error {
	var (
		attr     *obs.Attribution
		covered  []float64
		se       []float64
		sampling []float64
		over     []uint64
	)
	pass := func(withObs bool) bench.Func {
		return func() (string, error) {
			cfg := scale.Config{
				Nodes:        obsBenchNodes,
				TargetDegree: degree,
				ImageKB:      kb,
				Seed:         seed,
				Queue:        sim.CalendarQueue,
				TraceHash:    true,
			}
			if withObs {
				cfg.Obs = obs.NewTimers()
			}
			r, err := scale.Run(cfg)
			if withObs && err == nil {
				attr = r.Obs
				covered = append(covered, attr.CoveredFrac)
				se = append(se, attr.CoveredSE)
				sampling = append(sampling, float64(attr.SamplingNS)/float64(attr.WallNS))
				over = append(over, attr.OverCounted)
			}
			return r.TraceHash, err
		}
	}
	res, err := bench.AB(pass(false), pass(true))
	if err != nil {
		return fmt.Errorf("obsbench: %w", err)
	}
	rep := obsBenchReport{
		Nodes:               obsBenchNodes,
		ImageKB:             kb,
		Seed:                seed,
		Header:              res.Header,
		ObsOff:              res.A,
		ObsOn:               res.B,
		EnabledOverheadFrac: res.B.MedianSec/res.A.MedianSec - 1,
		NoiseFrac:           res.A.Noise(),
		CoveredFrac:         covered,
		CoveredSE:           se,
		SamplingFrac:        sampling,
		OverCounted:         over,
		Regions:             attr.Events,
		TraceIdentical:      true,
		TraceHash:           res.Digest,
	}
	for _, row := range attr.Phases {
		rep.Regions += row.Calls
	}
	rep.NilPairNS = bench.NsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			disabledTimers.Start(obs.PhaseDispatch)
			disabledTimers.End(obs.PhaseDispatch)
		}
	})
	rep.DisabledOverheadFrac = float64(rep.Regions) * rep.NilPairNS / (res.A.MedianSec * 1e9)
	if !quiet {
		fmt.Fprintf(os.Stderr, "lrscale: obsbench: enabled %+.2f%% (noise %.2f%%), disabled %.4f%% (%d regions at %.1fns/pair), covered %.3f ± %.3f, sampling %.3f, over-counted %d -> %s\n",
			100*rep.EnabledOverheadFrac, 100*rep.NoiseFrac, 100*rep.DisabledOverheadFrac, rep.Regions, rep.NilPairNS, covered, se, sampling, over, out)
	}
	if err := bench.WriteJSON(out, rep); err != nil {
		return err
	}
	errs := []error{bench.AtMost("obsbench: enabled overhead ratio", res.B.MedianSec/res.A.MedianSec, 1+maxEnabledOverhead, res.A)}
	if !(rep.DisabledOverheadFrac < maxDisabledOverhead) {
		errs = append(errs, fmt.Errorf("obsbench: disabled_overhead_frac %.4g >= %g", rep.DisabledOverheadFrac, maxDisabledOverhead))
	}
	if !(attr.CoveredFrac >= minCoveredFrac) || attr.CoveredFrac-2*attr.CoveredSE > 1 {
		errs = append(errs, fmt.Errorf("obsbench: covered_frac %.4f ± %.4f outside [%g, 1 + 2 se]: timing swamps the run or the table exceeds its wall",
			attr.CoveredFrac, attr.CoveredSE, minCoveredFrac))
	}
	for i, n := range over {
		if n != 0 {
			errs = append(errs, fmt.Errorf("obsbench: obs-on run %d counted %d sampled events twice", i+1, n))
		}
	}
	return errors.Join(errs...)
}
