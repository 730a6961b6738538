package experiment

import (
	"lrseluge/internal/fault"
	"lrseluge/internal/harness"
	"lrseluge/internal/image"
	"lrseluge/internal/sim"
)

// churnPlanSeed separates the fault plan's RNG stream from the channel and
// protocol streams derived from the same run seed.
const churnPlanSeed = 0xfa117

// churnFactory builds a per-run random-churn fault factory over the receiver
// nodes. The base station (node 0) never crashes: the paper's dissemination
// source is mains-powered, and killing it only measures source availability,
// not protocol resilience.
func churnFactory(meanUptime, meanDowntime, horizon sim.Time) func(seed int64, numNodes int) (*fault.Plan, error) {
	return func(seed int64, numNodes int) (*fault.Plan, error) {
		nodes := make([]int, 0, numNodes-1)
		for id := 1; id < numNodes; id++ {
			nodes = append(nodes, id)
		}
		return fault.RandomChurn(fault.ChurnSpec{
			Nodes:        nodes,
			MeanUptime:   meanUptime,
			MeanDowntime: meanDowntime,
			Horizon:      horizon,
			Seed:         seed ^ churnPlanSeed,
		})
	}
}

// outageFactory builds a burst-outage fault factory cutting the links between
// the base station and every receiver on a fixed duty cycle. The train is
// deterministic (staggered per link), so the run seed is unused.
func outageFactory(period, outage, horizon sim.Time) func(seed int64, numNodes int) (*fault.Plan, error) {
	return func(_ int64, numNodes int) (*fault.Plan, error) {
		links := make([][2]int, 0, numNodes-1)
		for id := 1; id < numNodes; id++ {
			links = append(links, [2]int{0, id})
		}
		return fault.BurstOutages(fault.OutageSpec{
			Links:   links,
			Period:  period,
			Outage:  outage,
			Horizon: horizon,
			Bidir:   true,
		})
	}
}

// churnMeanDowntime is the mean node downtime of the churn sweep (a reboot
// plus flash scan on a mote is tens of seconds).
const churnMeanDowntime = 30 * sim.Second

// churnEntries builds the Seluge-vs-LR-Seluge node-churn sweep: receivers
// crash at the given per-node rates (crashes per hour of uptime) and reboot
// after an exponential downtime, retaining flash-resident pages.
func churnEntries(params image.Params, imageSize, receivers int, rates []float64, p float64, horizon sim.Time, runs int, seed int64) []GridEntry {
	entries := make([]GridEntry, 0, 2*len(rates))
	for _, rate := range rates {
		meanUp := sim.Time(float64(3600*sim.Second) / rate)
		entries = append(entries, comparisonEntries(
			"churn="+fmtFloat(rate),
			[]harness.Param{{Key: "crash_per_hour", Value: fmtFloat(rate)}},
			Scenario{
				ImageSize:    imageSize,
				Params:       params,
				Receivers:    receivers,
				LossP:        p,
				Seed:         seed,
				Horizon:      horizon,
				FaultFactory: churnFactory(meanUp, churnMeanDowntime, horizon),
			},
			runs)...)
	}
	return entries
}

// outageEntries builds the Seluge-vs-LR-Seluge link-outage sweep: base-to-
// receiver links go dark for the given duty-cycle fractions of a fixed
// period, modelling periodic interference or duty-cycled radios.
func outageEntries(params image.Params, imageSize, receivers int, duties []float64, period sim.Time, p float64, horizon sim.Time, runs int, seed int64) []GridEntry {
	entries := make([]GridEntry, 0, 2*len(duties))
	for _, duty := range duties {
		outage := sim.Time(float64(period) * duty)
		entries = append(entries, comparisonEntries(
			"outage="+fmtFloat(duty),
			[]harness.Param{{Key: "outage_duty", Value: fmtFloat(duty)}},
			Scenario{
				ImageSize:    imageSize,
				Params:       params,
				Receivers:    receivers,
				LossP:        p,
				Seed:         seed,
				Horizon:      horizon,
				FaultFactory: outageFactory(period, outage, horizon),
			},
			runs)...)
	}
	return entries
}
