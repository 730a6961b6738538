package experiment

import (
	"fmt"

	"lrseluge/internal/harness"
	"lrseluge/internal/image"
	"lrseluge/internal/radio"
	"lrseluge/internal/sim"
	"lrseluge/internal/topo"
)

// SweepSpec parameterizes a named sweep from the catalog.
type SweepSpec struct {
	// Runs is the number of seeds averaged per grid entry; must be >= 1.
	Runs int
	// Seed is the base RNG seed of every entry.
	Seed int64
	// Quick shrinks images, grids and axes for a fast smoke pass.
	Quick bool
}

// namedSweep is one catalog entry. The catalog is an ordered slice (not a
// map) so listings are deterministic.
type namedSweep struct {
	name, desc string
	build      func(SweepSpec) ([]GridEntry, error)
}

// dims picks full-scale or quick sweep dimensions.
func (s SweepSpec) dims(full, quick int) int {
	if s.Quick {
		return quick
	}
	return full
}

// ImageSize is the default evaluation image in bytes (20 KB; 4 KB in quick
// mode). cmd/figures sizes its attack and upgrade runs from it too.
func (s SweepSpec) ImageSize() int { return s.dims(20, 4) * 1024 }

// sweepCatalog lists every named sweep, in listing order.
func sweepCatalog() []namedSweep {
	return []namedSweep{
		{
			name: "smoke",
			desc: "tiny deterministic sweep (4x4 heavy-noise grid + one-hop) for CI golden diffs",
			build: func(s SweepSpec) ([]GridEntry, error) {
				graph, err := topo.Grid(4, 4, topo.Tight)
				if err != nil {
					return nil, err
				}
				small := image.Params{PacketPayload: 72, K: 8, N: 12}
				return []GridEntry{
					{
						Name: "multihop=4x4",
						Scenario: Scenario{
							Protocol:    LRSeluge,
							ImageSize:   2 * 1024,
							Params:      small,
							Graph:       graph,
							LossFactory: func() radio.LossModel { return radio.HeavyNoise() },
							Seed:        s.Seed,
						},
						Runs: s.Runs,
					},
					{
						Name: "onehop=10",
						Scenario: Scenario{
							Protocol:  Seluge,
							ImageSize: 2 * 1024,
							Params:    small,
							Receivers: 10,
							LossP:     0.1,
							Seed:      s.Seed,
						},
						Runs: s.Runs,
					},
				}, nil
			},
		},
		{
			name: "multihop",
			desc: "Table II: Seluge vs LR-Seluge on a tight grid under bursty noise",
			build: func(s SweepSpec) ([]GridEntry, error) {
				side := s.dims(15, 7)
				return multihopEntries(image.DefaultParams(), s.ImageSize(), topo.Tight, side, side, s.Runs, s.Seed)
			},
		},
		{
			name: "multihop-medium",
			desc: "Table III: Seluge vs LR-Seluge on a medium-density grid under bursty noise",
			build: func(s SweepSpec) ([]GridEntry, error) {
				side := s.dims(15, 7)
				return multihopEntries(image.DefaultParams(), s.ImageSize(), topo.Medium, side, side, s.Runs, s.Seed)
			},
		},
		{
			name: "fig3a",
			desc: "Fig. 3(a): one-page data packets vs loss rate (N=10)",
			build: func(s SweepSpec) ([]GridEntry, error) {
				ps := []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5}
				if s.Quick {
					ps = []float64{0, 0.1, 0.2, 0.3, 0.4}
				}
				var entries []GridEntry
				for _, p := range ps {
					entries = append(entries,
						fig3Entry(Seluge, image.DefaultParams(), 10, p, s.Runs, s.Seed),
						fig3Entry(LRSeluge, image.DefaultParams(), 10, p, s.Runs, s.Seed))
				}
				return entries, nil
			},
		},
		{
			name: "fig3b",
			desc: "Fig. 3(b): one-page data packets vs receiver count (p=0.2)",
			build: func(s SweepSpec) ([]GridEntry, error) {
				ns := []int{2, 5, 10, 15, 20, 25, 30, 35, 40}
				if s.Quick {
					ns = []int{2, 10, 20, 40}
				}
				var entries []GridEntry
				for _, n := range ns {
					entries = append(entries,
						fig3Entry(Seluge, image.DefaultParams(), n, 0.2, s.Runs, s.Seed),
						fig3Entry(LRSeluge, image.DefaultParams(), n, 0.2, s.Runs, s.Seed))
				}
				return entries, nil
			},
		},
		{
			name: "fig4",
			desc: "Fig. 4: five metrics vs loss rate (N=20)",
			build: func(s SweepSpec) ([]GridEntry, error) {
				ps := []float64{0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4}
				if s.Quick {
					ps = []float64{0, 0.1, 0.3, 0.4}
				}
				return fig4Entries(image.DefaultParams(), s.ImageSize(), 20, ps, s.Runs, s.Seed), nil
			},
		},
		{
			name: "fig5",
			desc: "Fig. 5: five metrics vs receiver count (p=0.1)",
			build: func(s SweepSpec) ([]GridEntry, error) {
				ns := []int{5, 10, 20, 30, 40}
				if s.Quick {
					ns = []int{5, 20, 40}
				}
				return fig5Entries(image.DefaultParams(), s.ImageSize(), ns, 0.1, s.Runs, s.Seed), nil
			},
		},
		{
			name: "fig6",
			desc: "Fig. 6: LR-Seluge metrics vs erasure-coding rate n/k (k=32, N=20)",
			build: func(s SweepSpec) ([]GridEntry, error) {
				ns := []int{32, 40, 48, 56, 64, 72}
				ps := []float64{0.05, 0.1, 0.2}
				if s.Quick {
					ns = []int{32, 48, 64}
					ps = []float64{0.1}
				}
				return fig6Entries(image.DefaultParams().PacketPayload, 32, s.ImageSize(), 20, ns, ps, s.Runs, s.Seed)
			},
		},
		{
			name: "ablation",
			desc: "scheduler ablation: greedy-RR vs union vs fresh-RR (§IV-D.3)",
			build: func(s SweepSpec) ([]GridEntry, error) {
				return ablationEntries(image.DefaultParams(), s.ImageSize()/2, 20, 0.2, s.Runs, s.Seed), nil
			},
		},
		{
			name: "churn",
			desc: "node churn: Seluge vs LR-Seluge latency/overhead vs crash rate (flash-retained pages)",
			build: func(s SweepSpec) ([]GridEntry, error) {
				rates := []float64{6, 12, 30, 60}
				if s.Quick {
					rates = []float64{12, 60}
				}
				horizon := sim.Time(s.dims(4, 1)) * 3600 * sim.Second
				return churnEntries(image.DefaultParams(), s.ImageSize(), s.dims(20, 5), rates, 0.1, horizon, s.Runs, s.Seed), nil
			},
		},
		{
			name: "outage",
			desc: "link outages: Seluge vs LR-Seluge vs base-link outage duty cycle (60 s period)",
			build: func(s SweepSpec) ([]GridEntry, error) {
				duties := []float64{0.1, 0.25, 0.5}
				if s.Quick {
					duties = []float64{0.1, 0.5}
				}
				horizon := sim.Time(s.dims(4, 1)) * 3600 * sim.Second
				return outageEntries(image.DefaultParams(), s.ImageSize(), s.dims(20, 5), duties, 60*sim.Second, 0.1, horizon, s.Runs, s.Seed), nil
			},
		},
	}
}

// SweepNames returns the catalog's sweep names in listing order.
func SweepNames() []string {
	cat := sweepCatalog()
	out := make([]string, len(cat))
	for i, s := range cat {
		out[i] = s.name
	}
	return out
}

// SweepDescription returns the one-line description of a named sweep ("" if
// unknown).
func SweepDescription(name string) string {
	for _, s := range sweepCatalog() {
		if s.name == name {
			return s.desc
		}
	}
	return ""
}

// NamedSweep builds the grid entries of a catalog sweep.
func NamedSweep(name string, spec SweepSpec) ([]GridEntry, error) {
	if spec.Runs < 1 {
		return nil, fmt.Errorf("experiment: sweep %q: runs must be >= 1", name)
	}
	for _, s := range sweepCatalog() {
		if s.name == name {
			return s.build(spec)
		}
	}
	return nil, fmt.Errorf("experiment: unknown sweep %q (have %v)", name, SweepNames())
}

// RunSweep builds a catalog sweep and runs it through RunGrid. It returns
// the entries with their averages, in catalog order; each entry's Scenario
// carries its x value (LossP, Receivers, Params.N/K or LRPolicy).
func RunSweep(name string, spec SweepSpec, cfg harness.Config) ([]GridEntry, []AvgResult, error) {
	entries, err := NamedSweep(name, spec)
	if err != nil {
		return nil, nil, err
	}
	avgs, err := RunGrid(name, entries, cfg)
	if err != nil {
		return nil, nil, err
	}
	return entries, avgs, nil
}
