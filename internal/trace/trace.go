// Package trace is the simulator's deterministic structured-event subsystem:
// a Tracer records typed protocol events — packet lifecycle, node state
// transitions, unit/page lifecycle, signature/puzzle outcomes, fault
// injections — on the virtual sim clock and streams them to pluggable sinks
// (a bounded in-memory ring, a JSONL writer, a Chrome trace_event exporter).
//
// Determinism contract: a Tracer consumes no randomness and never reads the
// wall clock; every event is stamped with sim.Time from the engine that
// drives the run. Because protocol code is single-threaded inside the event
// loop, the emitted event sequence is a pure function of (scenario, seed) —
// same-seed runs produce byte-identical JSONL traces.
//
// Overhead contract: a nil *Tracer is the disabled tracer. Every recording
// method nil-checks its receiver and returns immediately, so fully
// instrumented protocol code pays one predictable branch per event site when
// tracing is off (benchmarked in bench_test.go; the harness selfbench gates
// the end-to-end cost in BENCH_trace.json).
package trace

import (
	"fmt"

	"lrseluge/internal/packet"
	"lrseluge/internal/sim"
)

// Schema is the event schema version, encoded into every JSONL line as "v".
// Bump it when a field changes meaning; lrtrace refuses schemas it does not
// know.
const Schema = 1

// Kind discriminates event types. String values are the JSONL wire
// vocabulary and must stay stable across releases of the same Schema.
type Kind uint8

// Event kinds.
const (
	// KindTx: a node completed transmitting a packet (the instant the last
	// bit leaves the radio, before delivery fans out to neighbors).
	KindTx Kind = iota + 1
	// KindRx: a packet was delivered to a node (after propagation delay).
	KindRx
	// KindDrop: a packet died — on the channel, at the fault overlay, or
	// inside the receiving node (auth, duplicate, puzzle, stale). Reason
	// carries the exact cause; every drop has exactly one.
	KindDrop
	// KindState: a node's protocol state machine moved between MAINTAIN
	// (advertise), RX (request) and TX (serve). Name labels the machine
	// ("rx" or "tx": Deluge-style nodes can serve while requesting).
	KindState
	// KindUnitFirst: the first packet of a unit was stored at a node.
	KindUnitFirst
	// KindUnitDecodable: enough distinct packets arrived to recover the
	// unit (k' of n for erasure-coded pages; all k for ARQ pages).
	KindUnitDecodable
	// KindUnitVerified: the unit's contents passed authentication.
	KindUnitVerified
	// KindUnitFlashed: the recovered unit was committed to flash (survives
	// a crash from this point on).
	KindUnitFlashed
	// KindSigAccept: a signature packet verified and established the
	// authentication root.
	KindSigAccept
	// KindSigReject: a signature packet failed the expensive verification.
	KindSigReject
	// KindComplete: the node holds the full image (its first completion of
	// each version).
	KindComplete
	// KindFault: a fault-plan event fired (crash/reboot/link/partition/
	// heal); Name carries the fault kind.
	KindFault
	// KindSpanBegin / KindSpanEnd bracket an interval (page fetch,
	// signature verification); Span pairs them.
	KindSpanBegin
	KindSpanEnd

	kindMax
)

// kindNames is the wire vocabulary, indexed by Kind.
var kindNames = [kindMax]string{
	KindTx:            "tx",
	KindRx:            "rx",
	KindDrop:          "drop",
	KindState:         "state",
	KindUnitFirst:     "unit-first",
	KindUnitDecodable: "unit-decodable",
	KindUnitVerified:  "unit-verified",
	KindUnitFlashed:   "unit-flashed",
	KindSigAccept:     "sig-accept",
	KindSigReject:     "sig-reject",
	KindComplete:      "complete",
	KindFault:         "fault",
	KindSpanBegin:     "span-begin",
	KindSpanEnd:       "span-end",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k > 0 && k < kindMax {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Kinds lists every event kind in catalog (wire) order.
func Kinds() []Kind {
	out := make([]Kind, 0, int(kindMax)-1)
	for k := KindTx; k < kindMax; k++ {
		out = append(out, k)
	}
	return out
}

// DropReason attributes a KindDrop event to exactly one cause.
type DropReason uint8

// Drop reasons.
const (
	// DropChannel: the lossy channel model dropped the delivery.
	DropChannel DropReason = iota + 1
	// DropFault: the fault overlay blocked the delivery (down endpoint,
	// open link-outage window, or partition boundary).
	DropFault
	// DropAuth: per-packet authentication rejected the packet.
	DropAuth
	// DropDuplicate: an identical packet was already stored.
	DropDuplicate
	// DropPuzzle: the weak authenticator (puzzle) filtered a signature
	// packet before any expensive verification.
	DropPuzzle
	// DropStale: the packet is beyond the next needed unit and cannot be
	// authenticated yet (paper §IV-E page-by-page rule).
	DropStale

	dropReasonMax
)

// dropNames is the wire vocabulary, indexed by DropReason.
var dropNames = [dropReasonMax]string{
	DropChannel:   "channel",
	DropFault:     "fault",
	DropAuth:      "auth",
	DropDuplicate: "duplicate",
	DropPuzzle:    "puzzle",
	DropStale:     "stale",
}

// String implements fmt.Stringer.
func (r DropReason) String() string {
	if r > 0 && r < dropReasonMax {
		return dropNames[r]
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// DropReasons lists every drop reason in catalog (wire) order.
func DropReasons() []DropReason {
	out := make([]DropReason, 0, int(dropReasonMax)-1)
	for r := DropChannel; r < dropReasonMax; r++ {
		out = append(out, r)
	}
	return out
}

// State is a dissemination state-machine state (paper §IV-D / Deluge).
type State uint8

// Protocol states.
const (
	// StateMaintain: advertising via Trickle, no transfer in progress.
	StateMaintain State = iota + 1
	// StateRx: requesting the next unit via SNACKs.
	StateRx
	// StateTx: serving requested packets.
	StateTx

	stateMax
)

// stateNames is the wire vocabulary, indexed by State.
var stateNames = [stateMax]string{
	StateMaintain: "maintain",
	StateRx:       "rx",
	StateTx:       "tx",
}

// String implements fmt.Stringer.
func (s State) String() string {
	if s > 0 && s < stateMax {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// NoNode marks an absent Node/Peer field; NoUnit an absent Unit/Index.
const (
	NoNode = -1
	NoUnit = -1
)

// Event is one trace record. Which fields are meaningful depends on Kind;
// absent int fields hold NoNode/NoUnit, absent enums hold zero, and the
// JSONL encoding omits them (see encode.go for the exact schema).
//
// The timestamp is virtual sim.Time, never wall-clock time.Time — the
// lrlint trace-sim-time rule enforces this structurally.
type Event struct {
	// SchemaV is the schema version the event was encoded under.
	SchemaV int
	// At is the virtual timestamp.
	At sim.Time
	// Kind discriminates the record.
	Kind Kind
	// Node is the primary node: the transmitter for KindTx, the receiver
	// for KindRx/KindDrop, the subject elsewhere. NoNode when absent.
	Node int
	// Peer is the counterpart node (sender on rx/drop, link target on
	// fault link events). NoNode when absent.
	Peer int
	// Pkt is the packet type for packet-lifecycle events (0 when absent).
	Pkt packet.Type
	// Unit and Index locate a packet inside the object (NoUnit when
	// absent).
	Unit  int
	Index int
	// Reason attributes a KindDrop (0 otherwise).
	Reason DropReason
	// From and To carry a KindState transition (0 otherwise).
	From State
	To   State
	// Span pairs KindSpanBegin/KindSpanEnd events (0 otherwise).
	Span uint64
	// Name labels spans ("page-fetch", "sig-verify"), state machines
	// ("rx", "tx") and fault kinds ("node-crash", ...).
	Name string
	// Value carries the schema's scalar payload, "x". No event the
	// simulator emits sets it; it round-trips through files.
	Value float64
}

// Sink consumes the event stream of one run. Emit is called from inside the
// simulation loop (single-threaded); Flush is called once after the run.
type Sink interface {
	Emit(Event)
	Flush() error
}

// Tracer records events for one simulation run. A nil Tracer is the
// disabled tracer: every method is a nil-safe no-op, so instrumented code
// never needs a guard (though hot paths may use Enabled to skip building
// event arguments).
type Tracer struct {
	eng     *sim.Engine
	sink    Sink
	emitted uint64
	spanSeq uint64
}

// New binds a tracer to the engine whose clock stamps every event and the
// sink that consumes them.
func New(eng *sim.Engine, sink Sink) (*Tracer, error) {
	if eng == nil || sink == nil {
		return nil, fmt.Errorf("trace: nil dependency")
	}
	return &Tracer{eng: eng, sink: sink}, nil
}

// Enabled reports whether events are being recorded. Use it to skip
// expensive event-argument construction when tracing is off.
func (t *Tracer) Enabled() bool { return t != nil }

// Emitted returns the number of events recorded so far.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	return t.emitted
}

// emit stamps and forwards one event. e.Kind must be set by the caller.
func (t *Tracer) emit(e Event) {
	e.SchemaV = Schema
	e.At = t.eng.Now()
	t.emitted++
	t.sink.Emit(e)
}

// packetEvent fills the packet-identity fields shared by Tx/Rx/Drop.
func packetEvent(kind Kind, node, peer int, p packet.Packet) Event {
	e := Event{Kind: kind, Node: node, Peer: peer, Unit: NoUnit, Index: NoUnit}
	if p != nil {
		e.Pkt = p.Kind()
		if d, ok := p.(*packet.Data); ok {
			e.Unit = int(d.Unit)
			e.Index = int(d.Index)
		}
	}
	return e
}

// Tx records a completed transmission by node from.
func (t *Tracer) Tx(from packet.NodeID, p packet.Packet) {
	if t == nil {
		return
	}
	t.emit(packetEvent(KindTx, int(from), NoNode, p))
}

// Rx records a successful delivery of p (sent by from) to node to.
func (t *Tracer) Rx(to, from packet.NodeID, p packet.Packet) {
	if t == nil {
		return
	}
	t.emit(packetEvent(KindRx, int(to), int(from), p))
}

// Drop records the death of p on its way to (or inside) node at, attributed
// to exactly one reason. from is the sender.
func (t *Tracer) Drop(at, from packet.NodeID, p packet.Packet, r DropReason) {
	if t == nil {
		return
	}
	e := packetEvent(KindDrop, int(at), int(from), p)
	e.Reason = r
	t.emit(e)
}

// State records a protocol state transition of the named machine ("rx" or
// "tx") on a node.
func (t *Tracer) State(node packet.NodeID, machine string, from, to State) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindState, Node: int(node), Peer: NoNode,
		Unit: NoUnit, Index: NoUnit, From: from, To: to, Name: machine})
}

// UnitEvent records a unit/page lifecycle milestone (KindUnitFirst,
// KindUnitDecodable, KindUnitVerified, KindUnitFlashed).
func (t *Tracer) UnitEvent(kind Kind, node packet.NodeID, unit int) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: kind, Node: int(node), Peer: NoNode, Unit: unit, Index: NoUnit})
}

// SigResult records the outcome of an expensive signature verification at a
// node (from is the packet's sender).
func (t *Tracer) SigResult(node, from packet.NodeID, ok bool) {
	if t == nil {
		return
	}
	kind := KindSigReject
	if ok {
		kind = KindSigAccept
	}
	t.emit(Event{Kind: kind, Node: int(node), Peer: int(from),
		Pkt: packet.TypeSig, Unit: NoUnit, Index: NoUnit})
}

// Complete records a node's first completion of a version of the image.
func (t *Tracer) Complete(node packet.NodeID) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindComplete, Node: int(node), Peer: NoNode,
		Unit: NoUnit, Index: NoUnit})
}

// Fault records a fault-plan event firing. kind is the fault vocabulary
// ("node-crash", "link-down", ...); node/peer are NoNode when the fault has
// no node subject.
func (t *Tracer) Fault(kind string, node, peer int) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindFault, Node: node, Peer: peer,
		Unit: NoUnit, Index: NoUnit, Name: kind})
}

// Span is a begin/end pair in flight. The zero Span (from a nil tracer) is
// inert: End on it is a no-op, so callers never need nil checks.
type Span struct {
	t    *Tracer
	id   uint64
	node int
	unit int
	name string
}

// Begin opens a span (e.g. "page-fetch" for a unit, "sig-verify") on a node
// and records its begin event. Pass NoUnit when the span has no unit.
func (t *Tracer) Begin(node packet.NodeID, name string, unit int) Span {
	if t == nil {
		return Span{}
	}
	t.spanSeq++
	s := Span{t: t, id: t.spanSeq, node: int(node), unit: unit, name: name}
	t.emit(Event{Kind: KindSpanBegin, Node: s.node, Peer: NoNode,
		Unit: unit, Index: NoUnit, Span: s.id, Name: name})
	return s
}

// Active reports whether the span is open and recording.
func (s Span) Active() bool { return s.t != nil }

// End closes the span, recording its end event. End on the zero Span is a
// no-op; a second End records a second end event, so callers must pair.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.emit(Event{Kind: KindSpanEnd, Node: s.node, Peer: NoNode,
		Unit: s.unit, Index: NoUnit, Span: s.id, Name: s.name})
}
