// Package radio models the wireless broadcast medium: per-node transmit
// serialization at a configurable bit rate, local broadcast to the
// topology's neighbor set, and pluggable loss models.
//
// The model deliberately matches the paper's evaluation methodology rather
// than a full PHY: the one-hop experiments place nodes "close enough to
// eliminate packet transmission errors caused by channel impairments" and
// inject losses at the application layer (§VI-A); multi-hop experiments
// combine distance-based link quality with a bursty noise process.
package radio

import (
	"fmt"
	"math/rand"

	"lrseluge/internal/metrics"
	"lrseluge/internal/obs"
	"lrseluge/internal/packet"
	"lrseluge/internal/sim"
	"lrseluge/internal/topo"
	"lrseluge/internal/trace"
)

// Receiver is implemented by protocol nodes attached to the network.
// HandlePacket runs inside the simulation loop; the packet must be treated
// as read-only.
type Receiver interface {
	HandlePacket(from packet.NodeID, p packet.Packet)
}

// Config sets physical-layer parameters. The defaults model a mica2-class
// 19.2 kbps radio.
type Config struct {
	// BitRate is the effective channel rate in bits per second.
	BitRate int
	// PropDelay is the propagation plus processing delay per delivery.
	PropDelay sim.Time
	// InterPacketGap is the idle gap a transmitter leaves between
	// back-to-back packets (MAC spacing/backoff abstraction).
	InterPacketGap sim.Time

	// WireCheck, when true, serializes every delivered packet through its
	// wire format and hands receivers the re-parsed copy. Slower, but it
	// proves in every simulation that the protocols work on exactly what
	// the wire can carry (no accidental reliance on in-memory state).
	WireCheck bool
}

// DefaultConfig returns mica2-like parameters.
func DefaultConfig() Config {
	return Config{
		BitRate:        19200,
		PropDelay:      1 * sim.Millisecond,
		InterPacketGap: 5 * sim.Millisecond,
	}
}

// Network binds a topology, a loss model and attached protocol nodes to a
// simulation engine.
type Network struct {
	eng   *sim.Engine
	graph *topo.Graph
	loss  LossModel
	cfg   Config
	col   *metrics.Collector
	rng   *rand.Rand

	nodes     []Receiver
	busyUntil []sim.Time

	// fault, when installed, blocks deliveries a current fault forbids and
	// silences down nodes (see override.go).
	fault *FaultOverlay

	// batchPool recycles per-transmission delivery scratch buffers.
	// Multiple transmissions can be airborne at once (PropDelay overlaps),
	// so this is a free list, not a single buffer.
	batchPool [][]delivery

	// obs attributes delivery fan-out wall time: the engine's timers, read
	// at construction. nil (the default) disables the phase timers at one
	// branch per region boundary.
	obs *obs.Timers
}

// New creates a network over the given topology. Node IDs are topology
// indices; every node must be attached before traffic flows to it. Every
// transmission, delivery and drop is reported once, to col, which counts it
// and forwards it to the run's tracer and transmission hash.
func New(eng *sim.Engine, graph *topo.Graph, loss LossModel, cfg Config, col *metrics.Collector, seed int64) (*Network, error) {
	if eng == nil || graph == nil || col == nil {
		return nil, fmt.Errorf("radio: nil dependency")
	}
	if loss == nil {
		loss = NoLoss{}
	}
	if cfg.BitRate <= 0 {
		return nil, fmt.Errorf("radio: bit rate must be positive, got %d", cfg.BitRate)
	}
	return &Network{
		eng:       eng,
		obs:       eng.Obs(),
		graph:     graph,
		loss:      loss,
		cfg:       cfg,
		col:       col,
		rng:       rand.New(rand.NewSource(seed)),
		nodes:     make([]Receiver, graph.NumNodes()),
		busyUntil: make([]sim.Time, graph.NumNodes()),
	}, nil
}

// Attach registers the protocol node for the given topology index.
func (nw *Network) Attach(id packet.NodeID, r Receiver) error {
	if int(id) >= len(nw.nodes) {
		return fmt.Errorf("radio: node id %d outside topology of %d nodes", id, len(nw.nodes))
	}
	if nw.nodes[id] != nil {
		return fmt.Errorf("radio: node id %d already attached", id)
	}
	nw.nodes[id] = r
	return nil
}

// Engine returns the simulation engine driving this network.
func (nw *Network) Engine() *sim.Engine { return nw.eng }

// Collector returns the metrics collector.
func (nw *Network) Collector() *metrics.Collector { return nw.col }

// NumNodes returns the topology size.
func (nw *Network) NumNodes() int { return len(nw.nodes) }

// Neighbors returns the topology neighbor list for a node.
func (nw *Network) Neighbors(id packet.NodeID) []topo.Link { return nw.graph.Neighbors(int(id)) }

// Broadcast queues p for local broadcast by node from. The packet occupies
// the sender's radio for WireSize*8/BitRate; delivery to each neighbor is
// subject to the loss model. The call returns immediately (protocol code
// runs inside event callbacks and must not block).
func (nw *Network) Broadcast(from packet.NodeID, p packet.Packet) {
	if int(from) >= len(nw.nodes) {
		panic(fmt.Sprintf("radio: broadcast from unknown node %d", from))
	}
	if nw.fault != nil && nw.fault.NodeDown(int(from)) {
		return // a powered-off mote cannot key its radio
	}
	now := nw.eng.Now()
	start := now
	if nw.busyUntil[from] > start {
		start = nw.busyUntil[from]
	}
	start += nw.cfg.InterPacketGap
	txDur := sim.Time(int64(p.WireSize()) * 8 * int64(sim.Second) / int64(nw.cfg.BitRate))
	done := start + txDur
	nw.busyUntil[from] = done

	nw.eng.At(done, func() {
		if nw.fault != nil && nw.fault.NodeDown(int(from)) {
			return // the sender lost power mid-transmission
		}
		nw.col.Tx(done, from, p)
		nw.deliver(from, p)
	})
}

// TxBusyUntil reports when the node's transmitter frees up; protocols use it
// to pace multi-packet responses.
func (nw *Network) TxBusyUntil(id packet.NodeID) sim.Time { return nw.busyUntil[id] }

// delivery is one surviving receiver of a transmission, collected into a
// pooled per-transmission batch.
type delivery struct {
	to  int
	rcv Receiver
}

// getBatch hands out a recycled delivery buffer (possibly nil or undersized:
// the caller pre-sizes it from the sender's degree).
func (nw *Network) getBatch() []delivery {
	if n := len(nw.batchPool); n > 0 {
		batch := nw.batchPool[n-1]
		nw.batchPool[n-1] = nil
		nw.batchPool = nw.batchPool[:n-1]
		return batch
	}
	return nil
}

// putBatch returns a delivery buffer to the pool.
func (nw *Network) putBatch(batch []delivery) {
	for i := range batch {
		batch[i] = delivery{}
	}
	nw.batchPool = append(nw.batchPool, batch[:0])
}

func (nw *Network) deliver(from packet.NodeID, p packet.Packet) {
	// Manual End at each exit instead of defer: deliver is on the hot path
	// and defer is banned there (alloc-hotpath lint).
	nw.obs.Start(obs.PhaseRadioDeliver)
	if nw.cfg.WireCheck {
		parsed, err := packet.Unmarshal(p.Marshal())
		if err != nil {
			panic(fmt.Sprintf("radio: packet failed wire round-trip: %v", err))
		}
		p = parsed
	}
	now := nw.eng.Now()
	neighbors := nw.graph.Neighbors(int(from))
	batch := nw.getBatch()
	if cap(batch) < len(neighbors) {
		batch = make([]delivery, 0, len(neighbors))
	}
	for _, link := range neighbors {
		to := link.To
		rcv := nw.nodes[to]
		if rcv == nil {
			continue
		}
		// Fault-blocked deliveries are attributed before the channel model
		// runs, so each drop has exactly one cause, and a blocked delivery
		// consumes no channel randomness.
		if nw.fault != nil && nw.fault.Blocked(int(from), to) {
			nw.col.Drop(packet.NodeID(to), from, p, trace.DropFault)
			continue
		}
		if nw.loss.Drop(int(from), to, link.Quality, now, nw.rng) {
			nw.col.Drop(packet.NodeID(to), from, p, trace.DropChannel)
			continue
		}
		batch = append(batch, delivery{to: to, rcv: rcv})
	}
	if len(batch) == 0 {
		nw.putBatch(batch)
		nw.obs.End(obs.PhaseRadioDeliver)
		return
	}
	// One event delivers the whole batch. This is observation-equivalent to
	// one event per receiver: the per-receiver events all carried the same
	// timestamp and consecutive sequence numbers with nothing scheduled
	// between them, so they executed back-to-back in neighbor order — the
	// same order the batch loop uses — and every event a handler schedules
	// draws a later sequence number either way.
	// The batch walk is attributed to radio.deliver too; phases the
	// receiver handlers open (crypt, erasure) nest inside and account their
	// own time exclusively.
	nw.eng.Schedule(nw.cfg.PropDelay, func() {
		nw.obs.Start(obs.PhaseRadioDeliver)
		for _, d := range batch {
			nw.col.Rx(packet.NodeID(d.to), from, p)
			d.rcv.HandlePacket(from, p)
		}
		nw.putBatch(batch)
		nw.obs.End(obs.PhaseRadioDeliver)
	})
	nw.obs.End(obs.PhaseRadioDeliver)
}
