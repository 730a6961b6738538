// Package bench is the one timing harness behind the self-benchmark modes of
// lrsweep, lrserved, lrscale and lrlint. A figure is the median of Pairs
// interleaved repetitions with its interquartile range beside it, every
// repetition's output digest must agree, each BENCH file records the host
// it was measured on, and a timing gate judges a ratio of medians against
// its bound through AtMost or AtLeast.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// Pairs is how many A/B pairs AB runs: enough for a median and quartiles,
// few enough that the slowest mode (lrscale -obsbench, ten 2000-node runs)
// still fits in a check.sh pass.
const Pairs = 5

// nsPerOpIters is the loop length NsPerOp times per repetition.
const nsPerOpIters = 10_000_000

// HostInfo fingerprints the machine a BENCH file was measured on.
type HostInfo struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// Host returns the current machine's fingerprint.
func Host() HostInfo {
	return HostInfo{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// Header opens every BENCH file: the host, and how many pairs each median
// is taken over.
type Header struct {
	Host  HostInfo `json:"host"`
	Pairs int      `json:"pairs"`
}

// Side summarizes one side's wall-clock samples, kept in call order.
type Side struct {
	MedianSec  float64   `json:"median_sec"`
	IQRSec     float64   `json:"iqr_sec"`
	SamplesSec []float64 `json:"samples_sec"`
}

func newSide(samples []float64) Side {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return Side{
		MedianSec:  Quantile(sorted, 0.5),
		IQRSec:     Quantile(sorted, 0.75) - Quantile(sorted, 0.25),
		SamplesSec: samples,
	}
}

// Noise is the side's IQR over its median: the run-to-run spread that a
// ratio against this side cannot resolve.
func (s Side) Noise() float64 { return s.IQRSec / s.MedianSec }

// AtMost fails when ratio, a ratio of medians over the same interleaved
// pairs, exceeds bound by more than a factor of 1 + ref.Noise(), where ref
// is the side the ratio is measured against.
func AtMost(name string, ratio, bound float64, ref Side) error {
	return judge(name, ratio <= bound*(1+ref.Noise()), "above", ratio, bound, ref)
}

// AtLeast fails when ratio falls below bound by more than a factor of
// 1 + ref.Noise().
func AtLeast(name string, ratio, bound float64, ref Side) error {
	return judge(name, ratio*(1+ref.Noise()) >= bound, "below", ratio, bound, ref)
}

// judge turns a comparison into the gate's verdict; a NaN ratio or noise
// compares false and so fails.
func judge(name string, ok bool, beyond string, ratio, bound float64, ref Side) error {
	if ok {
		return nil
	}
	return fmt.Errorf("%s %.4g is %s its bound %.4g by more than the reference side's noise %.1f%%",
		name, ratio, beyond, bound, 100*ref.Noise())
}

// Result is the outcome of AB: both sides' samples and the digest every
// call returned.
type Result struct {
	Header
	A, B   Side
	Digest string
}

// Func is one timed call; it returns a digest of the output it produced.
type Func func() (digest string, err error)

// AB runs Pairs pairs of a and b, a first in even pairs and b first in odd
// ones, so neither side always inherits the other's warm caches. It fails
// when any call fails or returns a digest different from the first call's.
//
//lrlint:effects(wallclock) the harness's only job is timing calls; the samples are reported, never fed back into a run
func AB(a, b Func) (Result, error) {
	fns := [2]Func{a, b}
	var samples [2][]float64
	var digest string
	for i := 0; i < 2*Pairs; i++ {
		side := i%2 ^ i/2%2
		runtime.GC() // collect the previous call's garbage off this call's clock
		start := time.Now()
		d, err := fns[side]()
		sec := time.Since(start).Seconds()
		if err == nil && digest != "" && d != digest {
			err = fmt.Errorf("bench: call %d returned digest %s, want %s", i+1, d, digest)
		}
		if err != nil {
			return Result{}, err
		}
		digest = d
		samples[side] = append(samples[side], sec)
	}
	return Result{Header{Host(), Pairs}, newSide(samples[0]), newSide(samples[1]), digest}, nil
}

// NsPerOp times loop(n) Pairs times and returns the median nanoseconds per
// iteration. loop runs the operation n times itself, so no call through a
// function value sits inside the timed iteration.
//
//lrlint:effects(wallclock) microbenchmark: wall time is the measurement itself
func NsPerOp(loop func(n int)) float64 {
	ns := make([]float64, Pairs)
	for i := range ns {
		start := time.Now()
		loop(nsPerOpIters)
		ns[i] = float64(time.Since(start).Nanoseconds()) / nsPerOpIters
	}
	sort.Float64s(ns)
	return Quantile(ns, 0.5)
}

// Quantile reads the q-quantile of sorted data, interpolating linearly
// between the two nearest ranks; it returns 0 for no data.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// WriteJSON writes v to path as indented JSON with a trailing newline.
func WriteJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
