// Package fault is a deterministic fault-injection engine for the
// simulator: typed fault events — node crashes and reboots with the paper's
// flash-vs-RAM mote semantics, link outage windows and network partitions —
// scheduled on the sim clock from a validated plan.
//
// A Plan is an ordered list of events, loadable from JSON (scenario files
// checked into experiments) or produced by the composable generators in
// gen.go (random churn from a dedicated seeded stream, burst outage
// trains). The Engine in engine.go installs a plan against a radio
// fault overlay and the registered protocol nodes.
//
// Determinism: a Plan is pure data; applying it consumes no randomness.
// The only RNG in this package is the one RandomChurn derives from its
// spec's seed, so same-seed runs remain byte-identical end to end.
package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"lrseluge/internal/sim"
)

// Kind names a fault event type. The string values are the JSON wire
// vocabulary of scenario files.
type Kind string

// Fault event kinds.
const (
	// NodeCrash powers a mote off mid-protocol: RAM state (partial unit
	// assembly, timers, neighbor tables) is lost; flash-resident completed
	// units survive (paper mote model: pages are written to external flash
	// as they complete).
	NodeCrash Kind = "node-crash"
	// NodeReboot powers a crashed mote back on; it resumes from its
	// flash-retained units and re-fetches only the interrupted unit.
	NodeReboot Kind = "node-reboot"
	// LinkDown opens an outage window on a directed link (both directions
	// when the event sets bidir).
	LinkDown Kind = "link-down"
	// LinkUp closes the link's outage window.
	LinkUp Kind = "link-up"
	// Partition cuts the network along a node-set boundary: packets cross
	// partition groups only after a Heal. Nodes not listed in any group
	// form one implicit remainder group.
	Partition Kind = "partition"
	// Heal removes the current partition.
	Heal Kind = "heal"
)

// Event is one scheduled fault. Which fields are meaningful depends on Kind;
// Validate rejects plans whose events are internally inconsistent.
type Event struct {
	// AtSec is the virtual firing time in seconds from simulation start.
	AtSec float64 `json:"at_sec"`
	Kind  Kind    `json:"kind"`

	// Node is the crashing/rebooting node (node-crash, node-reboot).
	Node int `json:"node,omitempty"`

	// From/To name the directed link (link-down, link-up); Bidir applies
	// the event to both directions.
	From  int  `json:"from,omitempty"`
	To    int  `json:"to,omitempty"`
	Bidir bool `json:"bidir,omitempty"`

	// Groups are the partition cells (partition). Unlisted nodes form one
	// implicit extra cell.
	Groups [][]int `json:"groups,omitempty"`
}

// At returns the event's firing time on the sim clock.
func (e Event) At() sim.Time {
	return sim.Time(math.Round(e.AtSec * float64(sim.Second)))
}

// Plan is a validated, time-ordered fault scenario.
type Plan struct {
	// Name labels the scenario in logs and artifacts.
	Name   string  `json:"name,omitempty"`
	Events []Event `json:"events"`
}

// ParsePlan decodes a JSON plan and performs the structural validation that
// does not need the topology size (node-id bounds are rechecked when the
// plan is installed against a concrete network).
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("fault: parse plan: %w", err)
	}
	// A second document after the first is a malformed file, not a plan.
	if dec.More() {
		return nil, fmt.Errorf("fault: parse plan: trailing data after plan document")
	}
	if err := p.Validate(0); err != nil {
		return nil, err
	}
	return &p, nil
}

// LoadPlan reads and parses a JSON plan file.
func LoadPlan(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	p, err := ParsePlan(data)
	if err != nil {
		return nil, fmt.Errorf("fault: %s: %w", path, err)
	}
	return p, nil
}

// linkID is a directed link key used during validation.
type linkID struct{ from, to int }

// maxPlanSec bounds event times so they map onto the int64-nanosecond sim
// clock without overflow (~292 simulated years).
const maxPlanSec = float64(math.MaxInt64) / float64(sim.Second)

// Validate checks the plan's internal consistency: finite non-decreasing
// times, crash/reboot alternation per node, paired non-overlapping link
// windows, and non-nested partitions with disjoint groups. When numNodes is
// positive every referenced node id must be inside [0, numNodes).
func (p *Plan) Validate(numNodes int) error {
	checkNode := func(i, id int, what string) error {
		if id < 0 {
			return fmt.Errorf("fault: event %d: negative %s id %d", i, what, id)
		}
		if numNodes > 0 && id >= numNodes {
			return fmt.Errorf("fault: event %d: %s id %d outside topology of %d nodes", i, what, id, numNodes)
		}
		return nil
	}

	prev := math.Inf(-1)
	down := make(map[int]bool)   // node -> crashed
	cut := make(map[linkID]bool) // directed link -> in an outage window
	partitioned := false
	for i, e := range p.Events {
		if math.IsNaN(e.AtSec) || math.IsInf(e.AtSec, 0) {
			return fmt.Errorf("fault: event %d: non-finite time %v", i, e.AtSec)
		}
		if e.AtSec < 0 {
			return fmt.Errorf("fault: event %d: negative time %v", i, e.AtSec)
		}
		if e.AtSec >= maxPlanSec {
			return fmt.Errorf("fault: event %d: time %v beyond the sim clock", i, e.AtSec)
		}
		if i > 0 && e.AtSec < prev {
			return fmt.Errorf("fault: event %d: time %v precedes event %d (%v); plans must be sorted", i, e.AtSec, i-1, prev)
		}
		prev = e.AtSec

		switch e.Kind {
		case NodeCrash:
			if err := checkNode(i, e.Node, "node"); err != nil {
				return err
			}
			if down[e.Node] {
				return fmt.Errorf("fault: event %d: node %d crashes while already down", i, e.Node)
			}
			down[e.Node] = true
		case NodeReboot:
			if err := checkNode(i, e.Node, "node"); err != nil {
				return err
			}
			if !down[e.Node] {
				return fmt.Errorf("fault: event %d: node %d reboots while not down", i, e.Node)
			}
			delete(down, e.Node)
		case LinkDown, LinkUp:
			if err := checkNode(i, e.From, "link-from"); err != nil {
				return err
			}
			if err := checkNode(i, e.To, "link-to"); err != nil {
				return err
			}
			if e.From == e.To {
				return fmt.Errorf("fault: event %d: link %d->%d is a self-loop", i, e.From, e.To)
			}
			dirs := []linkID{{e.From, e.To}}
			if e.Bidir {
				dirs = append(dirs, linkID{e.To, e.From})
			}
			for _, l := range dirs {
				if e.Kind == LinkDown {
					if cut[l] {
						return fmt.Errorf("fault: event %d: link %d->%d goes down inside an open outage window", i, l.from, l.to)
					}
					cut[l] = true
				} else {
					if !cut[l] {
						return fmt.Errorf("fault: event %d: link %d->%d comes up without an open outage window", i, l.from, l.to)
					}
					delete(cut, l)
				}
			}
		case Partition:
			if partitioned {
				return fmt.Errorf("fault: event %d: partition while already partitioned (heal first)", i)
			}
			if len(e.Groups) == 0 {
				return fmt.Errorf("fault: event %d: partition with no groups", i)
			}
			seen := make(map[int]bool)
			for gi, g := range e.Groups {
				if len(g) == 0 {
					return fmt.Errorf("fault: event %d: partition group %d is empty", i, gi)
				}
				for _, id := range g {
					if err := checkNode(i, id, "partition-member"); err != nil {
						return err
					}
					if seen[id] {
						return fmt.Errorf("fault: event %d: node %d listed in two partition groups", i, id)
					}
					seen[id] = true
				}
			}
			partitioned = true
		case Heal:
			if !partitioned {
				return fmt.Errorf("fault: event %d: heal without a partition", i)
			}
			partitioned = false
		default:
			return fmt.Errorf("fault: event %d: unknown kind %q", i, e.Kind)
		}
	}
	return nil
}

// sortEvents orders events by time, keeping the (deterministic) generation
// order of simultaneous events.
func sortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool { return events[i].AtSec < events[j].AtSec })
}
