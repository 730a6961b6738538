package fault

import (
	"fmt"

	"lrseluge/internal/radio"
	"lrseluge/internal/sim"
	"lrseluge/internal/trace"
)

// Restartable is implemented by protocol nodes that survive power cycles
// with the paper's mote storage model: Crash wipes RAM protocol state
// (partial unit assembly, timers, neighbor tables) while flash-resident
// completed units persist; Reboot resumes the protocol from the retained
// units.
type Restartable interface {
	Crash()
	Reboot()
}

// Engine schedules a fault plan's events on the sim clock, toggling the
// radio fault overlay and power-cycling registered nodes. It consumes no
// randomness: a plan plus a topology yields one deterministic event
// sequence.
type Engine struct {
	eng   *sim.Engine
	ov    *radio.FaultOverlay
	nodes map[int]Restartable

	// tr records fault events; nil disables tracing.
	tr *trace.Tracer
}

// NewEngine binds a fault engine to the simulation, its radio overlay and
// the run's tracer (the collector's; nil disables tracing).
func NewEngine(eng *sim.Engine, ov *radio.FaultOverlay, tr *trace.Tracer) (*Engine, error) {
	if eng == nil || ov == nil {
		return nil, fmt.Errorf("fault: nil dependency")
	}
	return &Engine{eng: eng, ov: ov, nodes: make(map[int]Restartable), tr: tr}, nil
}

// Register subscribes a node to crash/reboot events. Node ids without a
// registration (base stations kept out of churn, adversary slots) still have
// their radio silenced by the overlay when crashed.
func (f *Engine) Register(id int, n Restartable) {
	if n != nil {
		f.nodes[id] = n
	}
}

// Install validates the plan against the overlay's topology and schedules
// every event. The plan is read-only: installing the same plan into several
// runs is safe.
func (f *Engine) Install(p *Plan) error {
	if p == nil {
		return fmt.Errorf("fault: nil plan")
	}
	if err := p.Validate(f.ov.NumNodes()); err != nil {
		return err
	}
	for _, e := range p.Events {
		e := e
		f.eng.At(e.At(), func() { f.apply(e) })
	}
	return nil
}

// apply executes one event. The trace record goes first, then the overlay
// state flips before the node callback so a crashing node is already
// radio-dark when its protocol state is wiped.
func (f *Engine) apply(e Event) {
	f.traceEvent(e)
	switch e.Kind {
	case NodeCrash:
		f.ov.SetNodeDown(e.Node, true)
		if n := f.nodes[e.Node]; n != nil {
			n.Crash()
		}
	case NodeReboot:
		f.ov.SetNodeDown(e.Node, false)
		if n := f.nodes[e.Node]; n != nil {
			n.Reboot()
		}
	case LinkDown, LinkUp:
		down := e.Kind == LinkDown
		f.ov.SetLinkDown(e.From, e.To, down)
		if e.Bidir {
			f.ov.SetLinkDown(e.To, e.From, down)
		}
	case Partition:
		f.ov.SetPartition(e.Groups)
	case Heal:
		f.ov.ClearPartition()
	}
}

// traceEvent maps a fault-plan event onto a KindFault trace record: the
// subject node goes in Node, the link target in Peer. Partition/heal events
// have no single node subject.
func (f *Engine) traceEvent(e Event) {
	if !f.tr.Enabled() {
		return
	}
	node, peer := trace.NoNode, trace.NoNode
	switch e.Kind {
	case NodeCrash, NodeReboot:
		node = e.Node
	case LinkDown, LinkUp:
		node, peer = e.From, e.To
	}
	f.tr.Fault(string(e.Kind), node, peer)
}
