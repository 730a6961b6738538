package fault

import (
	"fmt"
	"math/rand"

	"lrseluge/internal/sim"
	"lrseluge/internal/xrand"
)

// ChurnSpec parameterizes RandomChurn.
type ChurnSpec struct {
	// Nodes are the ids subject to churn (typically receivers only; the
	// base station is usually excluded so the object never vanishes).
	Nodes []int
	// MeanUptime and MeanDowntime are the exponential means of the
	// alternating up/down renewal process per node.
	MeanUptime, MeanDowntime sim.Time
	// Horizon bounds event generation; every crash is paired with a reboot
	// at or before it.
	Horizon sim.Time
	// Seed feeds the generator's dedicated RNG stream; the plan is a pure
	// function of the spec.
	Seed int64
}

// RandomChurn builds a churn plan from independent exponential up/down
// cycles per node, drawn from one dedicated stream seeded by the spec. Node
// draws happen in listed-node order, so the plan is byte-identical for a
// fixed spec regardless of caller context.
func RandomChurn(spec ChurnSpec) (*Plan, error) {
	if spec.MeanUptime <= 0 || spec.MeanDowntime <= 0 {
		return nil, fmt.Errorf("fault: random churn needs positive mean uptime and downtime, got %v/%v", spec.MeanUptime, spec.MeanDowntime)
	}
	if spec.Horizon <= 0 {
		return nil, fmt.Errorf("fault: random churn needs a positive horizon, got %v", spec.Horizon)
	}
	rng := rand.New(xrand.NewSplitMix(spec.Seed))
	expDraw := func(mean sim.Time) sim.Time {
		return sim.Time(rng.ExpFloat64() * float64(mean))
	}
	var events []Event
	for _, id := range spec.Nodes {
		at := sim.Time(0)
		for {
			at += expDraw(spec.MeanUptime)
			down := expDraw(spec.MeanDowntime)
			if down <= 0 {
				down = sim.Millisecond
			}
			if at+down > spec.Horizon {
				break
			}
			events = append(events,
				Event{AtSec: at.Seconds(), Kind: NodeCrash, Node: id},
				Event{AtSec: (at + down).Seconds(), Kind: NodeReboot, Node: id},
			)
			at += down
		}
	}
	sortEvents(events)
	p := &Plan{Name: "random-churn", Events: events}
	if err := p.Validate(0); err != nil {
		return nil, err
	}
	return p, nil
}

// OutageSpec parameterizes BurstOutages.
type OutageSpec struct {
	// Links are the directed links subjected to outage trains.
	Links [][2]int
	// Period is the cycle length; Outage is the down window inside each
	// cycle (the duty cycle is Outage/Period).
	Period, Outage sim.Time
	// Horizon bounds event generation.
	Horizon sim.Time
	// Bidir cuts both directions of each listed link.
	Bidir bool
}

// BurstOutages builds a plan of periodic link outage windows, staggered per
// link so outages do not all align. Every down event is paired with an up
// event at or before the horizon.
func BurstOutages(spec OutageSpec) (*Plan, error) {
	if spec.Period <= 0 || spec.Outage <= 0 || spec.Outage >= spec.Period {
		return nil, fmt.Errorf("fault: burst outages need 0 < outage < period, got period=%v outage=%v", spec.Period, spec.Outage)
	}
	var events []Event
	for i, l := range spec.Links {
		offset := spec.Period * sim.Time(i+1) / sim.Time(len(spec.Links)+1)
		for down := offset; down+spec.Outage <= spec.Horizon; down += spec.Period {
			events = append(events,
				Event{AtSec: down.Seconds(), Kind: LinkDown, From: l[0], To: l[1], Bidir: spec.Bidir},
				Event{AtSec: (down + spec.Outage).Seconds(), Kind: LinkUp, From: l[0], To: l[1], Bidir: spec.Bidir},
			)
		}
	}
	sortEvents(events)
	p := &Plan{Name: "burst-outages", Events: events}
	if err := p.Validate(0); err != nil {
		return nil, err
	}
	return p, nil
}
