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
	"lrseluge/internal/xrand"
)

// Receiver is implemented by protocol nodes attached to the network.
// HandlePacket runs inside the simulation loop. Every receiver of one
// transmission gets the same packet value, so it must be treated as
// read-only; its bytes are immutable, and a receiver may keep them (a
// payload slice, say, or a whole signature packet) past the call. Senders
// hand the radio bytes nothing writes afterwards: a protocol serves its
// stored or encoded units and a fresh copy of its signature packet, and
// the adversary and WireCheck build fresh buffers for every packet.
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

	// txPool recycles transmission records. Multiple transmissions can be
	// airborne at once (PropDelay overlaps), so this is a free list, not a
	// single record.
	txPool []*transmission

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
		rng:       rand.New(xrand.NewSplitMix(seed)),
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

// Graph returns the topology the network runs over.
func (nw *Network) Graph() *topo.Graph { return nw.graph }

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

	tx := nw.getTx()
	tx.from, tx.p = from, p
	nw.eng.At(done, tx.onSent)
}

// TxBusyUntil reports when the node's transmitter frees up; protocols use it
// to pace multi-packet responses.
func (nw *Network) TxBusyUntil(id packet.NodeID) sim.Time { return nw.busyUntil[id] }

// delivery is one surviving receiver of a transmission.
type delivery struct {
	to  int
	rcv Receiver
}

// transmission is one packet on the air, from the end of its airtime to
// its arrival at the receivers that survived the channel. Records are
// pooled, and their two event callbacks are bound once, when the record is
// made, so a transmission allocates nothing in steady state.
type transmission struct {
	nw   *Network
	from packet.NodeID
	p    packet.Packet
	// batch lists the surviving receivers; its array is kept across the
	// record's lives.
	batch            []delivery
	onSent, onArrive func()
}

// HeapBytes returns the heap bytes the network holds (obs.AllocBytes over
// struct sizes and counts): the struct, its per-node receiver and busy
// arrays, and its pooled transmission records with their bound callbacks
// and receiver batches. Records on the air are not counted.
func (nw *Network) HeapBytes() int64 {
	b := obs.ObjectBytes(nw) + obs.SliceBytes(nw.nodes) + obs.SliceBytes(nw.busyUntil) + obs.SliceBytes(nw.txPool)
	for _, tx := range nw.txPool {
		b += obs.ObjectBytes(tx) + 2*obs.MethodValueBytes + obs.SliceBytes(tx.batch)
	}
	return b
}

// getTx hands out a recycled transmission record, or makes one.
func (nw *Network) getTx() *transmission {
	if n := len(nw.txPool); n > 0 {
		tx := nw.txPool[n-1]
		nw.txPool[n-1] = nil
		nw.txPool = nw.txPool[:n-1]
		return tx
	}
	tx := &transmission{nw: nw}
	tx.onSent, tx.onArrive = tx.sent, tx.arrive
	return tx
}

// putTx returns a record to the pool, dropping its packet and receivers.
func (nw *Network) putTx(tx *transmission) {
	clear(tx.batch)
	tx.batch = tx.batch[:0]
	tx.p = nil
	nw.txPool = append(nw.txPool, tx)
}

// sent runs when the packet's airtime ends: the transmission is counted
// and handed to the channel, unless the sender lost power mid-transmission.
func (tx *transmission) sent() {
	nw := tx.nw
	if nw.fault != nil && nw.fault.NodeDown(int(tx.from)) {
		nw.putTx(tx)
		return
	}
	nw.col.Tx(nw.eng.Now(), tx.from, tx.p)
	nw.deliver(tx)
}

// deliver runs the channel model over the sender's neighbors and schedules
// the arrival of the survivors.
func (nw *Network) deliver(tx *transmission) {
	// Manual End at each exit instead of defer: deliver is on the hot path
	// and defer is banned there (alloc-hotpath lint).
	nw.obs.Start(obs.PhaseRadioDeliver)
	from := tx.from
	if nw.cfg.WireCheck {
		parsed, err := packet.Unmarshal(tx.p.Marshal())
		if err != nil {
			panic(fmt.Sprintf("radio: packet failed wire round-trip: %v", err))
		}
		tx.p = parsed
	}
	p := tx.p
	now := nw.eng.Now()
	neighbors := nw.graph.Neighbors(int(from))
	batch := tx.batch
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
	tx.batch = batch
	if len(batch) == 0 {
		nw.putTx(tx)
		nw.obs.End(obs.PhaseRadioDeliver)
		return
	}
	// One event delivers the whole batch. This is observation-equivalent to
	// one event per receiver: the per-receiver events all carried the same
	// timestamp and consecutive sequence numbers with nothing scheduled
	// between them, so they executed back-to-back in neighbor order — the
	// same order the batch loop uses — and every event a handler schedules
	// draws a later sequence number either way.
	nw.eng.Schedule(nw.cfg.PropDelay, tx.onArrive)
	nw.obs.End(obs.PhaseRadioDeliver)
}

// arrive hands the packet to every surviving receiver. The batch walk is
// attributed to radio.deliver too; phases the receiver handlers open
// (crypt, erasure) nest inside and account their own time exclusively.
func (tx *transmission) arrive() {
	nw := tx.nw
	nw.obs.Start(obs.PhaseRadioDeliver)
	for _, d := range tx.batch {
		nw.col.Rx(packet.NodeID(d.to), tx.from, tx.p)
		d.rcv.HandlePacket(tx.from, tx.p)
	}
	nw.putTx(tx)
	nw.obs.End(obs.PhaseRadioDeliver)
}
