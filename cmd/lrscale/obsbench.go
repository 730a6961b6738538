package main

import (
	"fmt"
	"os"

	"lrseluge/internal/bench"
	"lrseluge/internal/obs"
	"lrseluge/internal/scale"
	"lrseluge/internal/sim"
)

// obsBenchNodes is the network size -obsbench measures at.
const obsBenchNodes = 2000

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

	// Regions is the number of phase regions an obs-on run opens;
	// NilPairNS is the measured cost of one disabled Start/End pair.
	// DisabledOverheadFrac = Regions * NilPairNS / obs-off median.
	Regions              uint64  `json:"regions"`
	NilPairNS            float64 `json:"nil_pair_ns"`
	DisabledOverheadFrac float64 `json:"disabled_overhead_frac"`

	// CoveredFrac is the last obs-on run's attribution coverage: the
	// fraction of wall time the instrumented subsystems account for.
	CoveredFrac float64 `json:"covered_frac"`

	// TraceIdentical pins the determinism contract: every run above hashed
	// its transmission trace to TraceHash.
	TraceIdentical bool   `json:"trace_identical"`
	TraceHash      string `json:"trace_hash"`
}

// runObsbench measures obs instrumentation overhead and writes BENCH_obs.json.
func runObsbench(kb int, seed int64, degree float64, out string, quiet bool) error {
	var attr *obs.Attribution
	pass := func(withObs bool) bench.Func {
		return func() (string, error) {
			cfg := scale.Config{
				Nodes:        obsBenchNodes,
				TargetDegree: degree,
				ImageKB:      kb,
				Seed:         seed,
				Queue:        sim.CalendarQueue,
				CompactRNG:   true,
				TraceHash:    true,
			}
			if withObs {
				cfg.Obs = obs.NewTimers()
			}
			r, err := scale.Run(cfg)
			if withObs {
				attr = r.Obs
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
		NoiseFrac:           res.A.IQRSec / res.A.MedianSec,
		CoveredFrac:         attr.CoveredFrac,
		TraceIdentical:      true,
		TraceHash:           res.Digest,
	}
	for _, row := range attr.Phases {
		rep.Regions += row.Calls
	}
	rep.NilPairNS = bench.NsPerOp(func(n int) {
		var nilTimers *obs.Timers
		for i := 0; i < n; i++ {
			nilTimers.Start(obs.PhaseDispatch)
			nilTimers.End(obs.PhaseDispatch)
		}
	})
	rep.DisabledOverheadFrac = float64(rep.Regions) * rep.NilPairNS / (res.A.MedianSec * 1e9)
	if !quiet {
		fmt.Fprintf(os.Stderr, "lrscale: obsbench: enabled %+.2f%% (noise %.2f%%), disabled %.4f%% (%d regions at %.1fns/pair), covered %.1f%% -> %s\n",
			100*rep.EnabledOverheadFrac, 100*rep.NoiseFrac, 100*rep.DisabledOverheadFrac, rep.Regions, rep.NilPairNS, 100*rep.CoveredFrac, out)
	}
	return bench.WriteJSON(out, rep)
}
