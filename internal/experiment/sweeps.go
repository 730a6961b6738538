package experiment

import (
	"fmt"
	"strconv"

	"lrseluge/internal/harness"
	"lrseluge/internal/image"
	"lrseluge/internal/radio"
	"lrseluge/internal/topo"
)

// AvgResult is a Result averaged over repeated seeds, with sample standard
// deviations for the headline metrics.
type AvgResult struct {
	Protocol   Protocol
	Runs       int
	Completed  float64 // fraction of nodes completed, averaged
	DataPkts   float64
	PageData   float64
	SnackPkts  float64
	AdvPkts    float64
	SigPkts    float64
	TotalBytes float64
	LatencySec float64
	ImagesOK   bool

	// Sample standard deviations (zero when Runs == 1).
	DataStd    float64
	BytesStd   float64
	LatencyStd float64

	// Fault-injection averages (zero when the sweep has no fault plan).
	Crashes    float64
	Refetched  float64
	FaultDrops float64
	Downtime   float64 // seconds
	Recovery   float64 // mean reboot-to-completion seconds
}

// RunAvg executes a scenario `runs` times with distinct seeds and averages
// the metrics. Runs fan out across a GOMAXPROCS-wide harness worker pool;
// the averages are bit-identical to a serial loop (see internal/harness).
func RunAvg(s Scenario, runs int) (AvgResult, error) {
	return RunAvgParallel(s, runs, 0)
}

// RunAvgParallel is RunAvg with an explicit worker count (0 = GOMAXPROCS,
// 1 = serial). On a failed run the error names the run index and seed.
func RunAvgParallel(s Scenario, runs, workers int) (AvgResult, error) {
	if runs < 1 {
		return AvgResult{}, fmt.Errorf("experiment: runs must be >= 1")
	}
	avgs, err := RunGrid("", []GridEntry{{
		Name:     s.Protocol.String(),
		Scenario: s,
		Runs:     runs,
	}}, harness.Config{Workers: workers})
	if err != nil {
		return AvgResult{}, err
	}
	return avgs[0], nil
}

// fmtFloat renders sweep-axis values for job params and entry names.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// fig3Entry builds the one-page scenario of Fig. 3 for one protocol: each
// protocol gets an image sized to exactly one of ITS pages, and only
// image-page data packets are counted (hash-page and signature excluded),
// matching the paper's "transmission of one page" setup (§VI-A).
func fig3Entry(proto Protocol, params image.Params, receivers int, p float64, runs int, seed int64) GridEntry {
	size := params.SelugePageBytes()
	if proto == LRSeluge {
		size = params.LRPageBytes()
	}
	return GridEntry{
		Name: fmt.Sprintf("p=%s/N=%d", fmtFloat(p), receivers),
		Params: []harness.Param{
			{Key: "p", Value: fmtFloat(p)},
			{Key: "receivers", Value: strconv.Itoa(receivers)},
		},
		Scenario: Scenario{
			Protocol:  proto,
			ImageSize: size,
			Params:    params,
			Receivers: receivers,
			LossP:     p,
			Seed:      seed,
		},
		Runs: runs,
	}
}

// comparisonEntries expands one x-position of a Seluge-vs-LR-Seluge sweep
// into its two grid entries (Seluge first).
func comparisonEntries(name string, params []harness.Param, base Scenario, runs int) []GridEntry {
	sel := base
	sel.Protocol = Seluge
	lr := base
	lr.Protocol = LRSeluge
	return []GridEntry{
		{Name: name, Params: params, Scenario: sel, Runs: runs},
		{Name: name, Params: params, Scenario: lr, Runs: runs},
	}
}

// fig4Entries builds the loss-rate sweep grid of Fig. 4.
func fig4Entries(params image.Params, imageSize, receivers int, ps []float64, runs int, seed int64) []GridEntry {
	entries := make([]GridEntry, 0, 2*len(ps))
	for _, p := range ps {
		entries = append(entries, comparisonEntries(
			"p="+fmtFloat(p),
			[]harness.Param{{Key: "p", Value: fmtFloat(p)}},
			Scenario{ImageSize: imageSize, Params: params, Receivers: receivers, LossP: p, Seed: seed},
			runs)...)
	}
	return entries
}

// fig5Entries builds the receiver-count sweep grid of Fig. 5.
func fig5Entries(params image.Params, imageSize int, receivers []int, p float64, runs int, seed int64) []GridEntry {
	entries := make([]GridEntry, 0, 2*len(receivers))
	for _, n := range receivers {
		entries = append(entries, comparisonEntries(
			"N="+strconv.Itoa(n),
			[]harness.Param{{Key: "receivers", Value: strconv.Itoa(n)}},
			Scenario{ImageSize: imageSize, Params: params, Receivers: n, LossP: p, Seed: seed},
			runs)...)
	}
	return entries
}

// fig6Entries builds the coding-rate grid of Fig. 6 (outer loop p, inner n,
// matching the figure's presentation order).
func fig6Entries(payload, k, imageSize, receivers int, ns []int, ps []float64, runs int, seed int64) ([]GridEntry, error) {
	entries := make([]GridEntry, 0, len(ns)*len(ps))
	for _, p := range ps {
		for _, n := range ns {
			params := image.Params{PacketPayload: payload, K: k, N: n}
			if err := params.Validate(); err != nil {
				return nil, err
			}
			entries = append(entries, GridEntry{
				Name: fmt.Sprintf("p=%s/n=%d", fmtFloat(p), n),
				Params: []harness.Param{
					{Key: "p", Value: fmtFloat(p)},
					{Key: "n", Value: strconv.Itoa(n)},
				},
				Scenario: Scenario{
					Protocol:  LRSeluge,
					ImageSize: imageSize,
					Params:    params,
					Receivers: receivers,
					LossP:     p,
					Seed:      seed,
				},
				Runs: runs,
			})
		}
	}
	return entries, nil
}

// multihopEntries builds the Seluge-vs-LR-Seluge grid comparison of Tables
// II and III, with a fresh bursty channel per run via LossFactory.
func multihopEntries(params image.Params, imageSize int, density topo.GridDensity, rows, cols, runs int, seed int64) ([]GridEntry, error) {
	graph, err := topo.Grid(rows, cols, density)
	if err != nil {
		return nil, err
	}
	if !graph.Connected() {
		return nil, fmt.Errorf("experiment: %v grid is not connected", density)
	}
	base := Scenario{
		ImageSize:   imageSize,
		Params:      params,
		Graph:       graph,
		Seed:        seed,
		LossFactory: func() radio.LossModel { return radio.HeavyNoise() },
	}
	name := fmt.Sprintf("grid=%dx%d/density=%v", rows, cols, density)
	params2 := []harness.Param{
		{Key: "grid", Value: fmt.Sprintf("%dx%d", rows, cols)},
		{Key: "density", Value: fmt.Sprintf("%v", density)},
	}
	return comparisonEntries(name, params2, base, runs), nil
}
