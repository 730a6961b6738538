package dissem

import (
	"fmt"
	"math/rand"

	"lrseluge/internal/metrics"
	"lrseluge/internal/packet"
	"lrseluge/internal/radio"
	"lrseluge/internal/sim"
	"lrseluge/internal/trace"
	"lrseluge/internal/trickle"
	"lrseluge/internal/xrand"
)

// Node is the shared dissemination state machine. It wires an ObjectHandler
// (protocol-specific object state) and a TxPolicy (transmission scheduling)
// to the radio, Trickle advertisements, SNACK requests with suppression,
// retry timers, and the optional denial-of-receipt defense.
type Node struct {
	id      packet.NodeID
	nw      *radio.Network
	eng     *sim.Engine
	rng     *rand.Rand
	cfg     Config
	handler ObjectHandler
	policy  TxPolicy
	trk     *trickle.Trickle
	col     *metrics.Collector
	// tr is picked up from the network at construction; nil disables
	// tracing (every call site is nil-safe).
	tr *trace.Tracer

	// servers lists in-range advertisers and their advertised complete-unit
	// counts, id-sorted (see serverList).
	servers serverList
	// snackCand is the reusable candidate scratch for sendSNACK.
	snackCand []packet.NodeID
	// lastAdvertiser is the most recent neighbor whose advertisement
	// offered units we lack; Deluge directs requests at that node, which
	// concentrates serving (Trickle suppression means mostly one node
	// advertises per neighborhood interval).
	lastAdvertiser packet.NodeID
	hasAdvertiser  bool

	requesting   bool
	snackTimer   sim.Timer
	retryTimer   sim.Timer
	suppressions int
	retries      int

	txActive bool
	txTimer  sim.Timer

	// onSNACK, onRetry and onTxStep are the timer callbacks, bound once at
	// construction so that re-arming a timer allocates nothing.
	onSNACK, onRetry, onTxStep func()

	sigPending bool
	// sigSpan brackets the in-flight signature verification; fetchSpan
	// brackets the unit currently being assembled (fetchUnit). Both are
	// inert when tracing is off.
	sigSpan   trace.Span
	fetchSpan trace.Span
	fetchUnit int

	// Denial-of-receipt defense state: data packets requested per
	// (neighbor, unit) and neighbors being ignored. Both maps are nil
	// until the defense first records anything (most nodes at scale never
	// serve an over-limit neighbor), and nil again after a reset.
	served  map[servedKey]int
	ignored map[servedKey]bool

	markForged func(packet.NodeID) bool
	onComplete func(packet.NodeID, sim.Time)
	completed  bool
	// reported latches the first completion: a node that crashes after
	// completing re-derives completed from flash on reboot without firing
	// the completion callback (or collector record) twice.
	reported bool

	// Power-cycle state (fault.Restartable). epoch invalidates callbacks
	// scheduled before a crash (e.g. an in-flight signature verification);
	// crashUnit/refetchArmed drive the re-fetch metric for the unit the
	// crash interrupted.
	down         bool
	epoch        int
	crashUnit    int
	refetchArmed bool

	// Version-upgrade support (see upgrade.go).
	upgrader        Upgrader
	lastSigAnnounce sim.Time
}

type servedKey struct {
	from packet.NodeID
	unit int
}

// maxRetriesBeforeMaintain bounds consecutive unanswered SNACKs before the
// node falls back to MAINTAIN and waits for fresh advertisements.
const maxRetriesBeforeMaintain = 10

// NewNode builds a dissemination node and attaches it to the network at the
// given id. Call Start to begin operation.
func NewNode(id packet.NodeID, nw *radio.Network, cfg Config, handler ObjectHandler, policy TxPolicy, seed int64) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nw == nil || handler == nil || policy == nil {
		return nil, fmt.Errorf("dissem: nil dependency")
	}
	var src rand.Source = rand.NewSource(seed)
	if cfg.CompactRNG {
		src = xrand.NewSplitMix(seed)
	}
	n := &Node{
		id:      id,
		nw:      nw,
		eng:     nw.Engine(),
		rng:     rand.New(src),
		cfg:     cfg,
		handler: handler,
		policy:  policy,
		col:     nw.Collector(),
		tr:      nw.Tracer(),
	}
	n.onSNACK, n.onRetry, n.onTxStep = n.sendSNACK, n.retryExpired, n.txStep
	trk, err := trickle.New(n.eng, n.rng, cfg.Trickle, n.advertise)
	if err != nil {
		return nil, err
	}
	n.trk = trk
	if err := nw.Attach(id, n); err != nil {
		return nil, err
	}
	return n, nil
}

// ID returns the node's identifier.
func (n *Node) ID() packet.NodeID { return n.id }

// Handler exposes the protocol-specific object state (for experiments to
// inspect final images).
func (n *Node) Handler() ObjectHandler { return n.handler }

// Completed reports whether this node holds the full object.
func (n *Node) Completed() bool { return n.completed }

// SetOnComplete registers a callback invoked once when the node completes.
func (n *Node) SetOnComplete(fn func(packet.NodeID, sim.Time)) { n.onComplete = fn }

// SetForgedSource registers a predicate identifying adversarial senders so
// the collector can count any forged packet that authentication fails to
// reject. Used only by adversarial experiments.
func (n *Node) SetForgedSource(fn func(packet.NodeID) bool) { n.markForged = fn }

// Start begins protocol operation: Trickle advertisements and, if the node
// is preloaded (base station), completion bookkeeping.
func (n *Node) Start() {
	n.trk.Start()
	n.checkComplete()
}

// Stop halts all timers.
func (n *Node) Stop() {
	n.trk.Stop()
	n.snackTimer.Stop()
	n.retryTimer.Stop()
	n.txTimer.Stop()
}

// Crash implements fault.Restartable: the mote loses power. All timers stop,
// RAM protocol state (neighbor tables, request/serve state, the in-progress
// unit's partial assembly) is wiped, and the epoch counter voids callbacks
// already scheduled, such as an in-flight signature verification. Flash
// contents — completed units and the verified signature — survive.
func (n *Node) Crash() {
	if n.down {
		return
	}
	n.down = true
	n.epoch++
	// Count the RAM-resident packets of the in-progress unit before the wipe
	// discards them; each must be fetched again after reboot.
	lost := 0
	cu := n.handler.CompleteUnits()
	if total := n.handler.TotalUnits(); total == 0 || cu < total {
		for idx := 0; idx < n.handler.PacketsInUnit(cu); idx++ {
			if n.handler.HasPacket(cu, idx) {
				lost++
			}
		}
	}
	n.col.RecordCrash(n.id, n.eng.Now(), lost)
	n.trk.Stop()
	n.handler.WipeVolatile()
	n.policy.Reset()
	n.resetRAM()
	n.crashUnit = cu
	n.refetchArmed = lost > 0
}

// Reboot implements fault.Restartable: the mote powers back on and rejoins
// the protocol from its flash-resident state, exactly as a real reboot
// re-reads completed pages from external flash. A node that had completed
// re-derives completion from flash without re-firing its callback.
func (n *Node) Reboot() {
	if !n.down {
		return
	}
	n.down = false
	n.col.RecordReboot(n.id, n.eng.Now())
	n.trk.Start()
	n.checkComplete()
}

// advertise is the Trickle transmit callback (MAINTAIN state).
func (n *Node) advertise() {
	n.nw.Broadcast(n.id, &packet.Adv{
		Src:     n.id,
		Version: n.handler.Version(),
		Units:   packet.Unit(n.handler.CompleteUnits()),
		Total:   packet.Unit(n.handler.TotalUnits()),
	})
}

// HandlePacket implements radio.Receiver.
func (n *Node) HandlePacket(from packet.NodeID, p packet.Packet) {
	if n.down {
		// A packet already in flight when the node lost power: the radio
		// blocks future deliveries via the fault overlay, but propagation-
		// delayed deliveries scheduled before the crash still land here.
		return
	}
	switch pkt := p.(type) {
	case *packet.Adv:
		n.handleAdv(from, pkt)
	case *packet.SNACK:
		n.handleSNACK(from, pkt)
	case *packet.Data:
		n.handleData(from, pkt)
	case *packet.Sig:
		n.handleSig(from, pkt)
	}
}

func (n *Node) handleAdv(from packet.NodeID, a *packet.Adv) {
	switch {
	case a.Version < n.handler.Version():
		// A stale neighbor: announce our signature packet so it can
		// authenticate the newer version and upgrade (rate-limited).
		n.trk.HearInconsistent()
		n.announceSig()
		return
	case a.Version > n.handler.Version():
		// A newer version exists; we upgrade only once its signature
		// packet arrives and verifies (see upgrade.go).
		n.trk.HearInconsistent()
		return
	}
	if a.Total > 0 {
		n.handler.LearnTotal(int(a.Total))
		n.checkComplete()
	}
	mine := n.handler.CompleteUnits()
	theirs := int(a.Units)
	switch {
	case theirs == mine:
		n.trk.HearConsistent()
	default:
		n.trk.HearInconsistent()
	}
	if theirs > mine {
		n.servers.set(from, theirs)
		// Stick with the current server while it remains useful; hopping
		// between advertisers scatters requests and duplicates serving.
		if !n.hasAdvertiser || n.servers.get(n.lastAdvertiser) <= mine {
			n.lastAdvertiser = from
			n.hasAdvertiser = true
		}
		n.maybeStartRequest()
	} else {
		n.servers.remove(from)
		if n.hasAdvertiser && n.lastAdvertiser == from {
			n.hasAdvertiser = false
		}
	}
}

func (n *Node) handleSNACK(from packet.NodeID, s *packet.SNACK) {
	if s.Version != n.handler.Version() {
		return
	}
	unit := int(s.Unit)
	if s.Dest != n.id {
		// Overheard request from another node: Deluge-style suppression.
		// A request for our unit (or an earlier one) means data we can
		// overhear is about to flow, so push our own SNACK back.
		if n.requesting && unit <= n.handler.CompleteUnits() && n.suppressions < n.cfg.MaxSuppressions {
			if n.snackTimer.Stop() {
				n.suppressions++
				n.scheduleSNACK(n.backoff())
			}
		}
		return
	}
	// Addressed to us: serve if we can.
	if unit >= n.handler.CompleteUnits() {
		return // we do not possess that unit (stale advertisement)
	}
	key := servedKey{from: from, unit: unit}
	if n.ignored[key] {
		return
	}
	if n.cfg.SNACKServeLimit > 0 {
		if n.served == nil {
			n.served = make(map[servedKey]int)
		}
		n.served[key] += s.Bits.Count()
		if n.served[key] > n.cfg.SNACKServeLimit {
			// Denial-of-receipt defense (paper §IV-E): this neighbor has
			// requested implausibly many packets of one unit; ignore it.
			if n.ignored == nil {
				n.ignored = make(map[servedKey]bool)
			}
			n.ignored[key] = true
			n.policy.DropRequester(from)
			return
		}
	}
	n.policy.OnSNACK(from, unit, s.Bits)
	n.startTx()
}

func (n *Node) handleData(from packet.NodeID, d *packet.Data) {
	if d.Version != n.handler.Version() {
		return
	}
	unit := int(d.Unit)
	next := n.handler.CompleteUnits()
	switch {
	case n.completed || unit < next:
		// Data for a unit we already hold. Verify it BEFORE letting it
		// influence behavior: a forged packet must not suppress our
		// transmissions or postpone our requests.
		if !n.handler.Authentic(d) {
			n.col.RecordAuthDrop()
			n.tr.Drop(n.id, from, d, trace.DropAuth)
			return
		}
		// Another node is serving this unit: drop any queued duplicate
		// of ours (data suppression), note consistent network activity
		// (advertisement suppression), and hold a pending SNACK back —
		// the neighborhood is still working on lower pages, and joining
		// the next round later lets the scheduler aggregate requests.
		n.policy.OnDataOverheard(unit, int(d.Index))
		n.postponePendingSNACK()
		n.trk.HearConsistent()
	case unit > next:
		// Page-by-page rule: we cannot authenticate packets beyond the
		// next unit (their hash images are not yet known), so they are
		// dropped with no effect (paper §IV-E).
		n.tr.Drop(n.id, from, d, trace.DropStale)
	default: // unit == next
		heldBefore := n.tr.Enabled() && n.heldAny(unit)
		res := n.handler.Ingest(d)
		if n.refetchArmed {
			if unit == n.crashUnit && (res == Stored || res == UnitComplete) {
				// Re-downloading a packet the crash wiped from RAM: the
				// measurable recovery cost of losing partial-unit state.
				n.col.RecordRefetch()
			}
			if n.handler.CompleteUnits() > n.crashUnit {
				n.refetchArmed = false
			}
		}
		if n.tr.Enabled() && !heldBefore && (res == Stored || res == UnitComplete) {
			n.tr.UnitEvent(trace.KindUnitFirst, n.id, unit)
			n.beginFetchSpan(unit)
		}
		switch res {
		case Rejected:
			n.col.RecordAuthDrop()
			n.tr.Drop(n.id, from, d, trace.DropAuth)
		case Duplicate:
			n.tr.Drop(n.id, from, d, trace.DropDuplicate)
			n.policy.OnDataOverheard(unit, int(d.Index))
			n.postponePendingSNACK()
			n.progress()
		case Stored:
			n.policy.OnDataOverheard(unit, int(d.Index))
			n.postponePendingSNACK()
			n.noteForged(from, res)
			n.progress()
		case UnitComplete:
			if n.tr.Enabled() {
				// The simulator's Ingest recovers, verifies and commits
				// the unit atomically, so the three milestones share one
				// timestamp; real motes would spread them out.
				n.tr.UnitEvent(trace.KindUnitDecodable, n.id, unit)
				n.tr.UnitEvent(trace.KindUnitVerified, n.id, unit)
				n.tr.UnitEvent(trace.KindUnitFlashed, n.id, unit)
			}
			n.endFetchSpan(unit)
			n.noteForged(from, res)
			n.unitComplete()
		}
	}
}

// postponePendingSNACK pushes back a not-yet-sent SNACK while authenticated
// data is in the air (Deluge request suppression).
func (n *Node) postponePendingSNACK() {
	if n.requesting && n.snackTimer.Stop() {
		n.scheduleSNACK(n.backoff())
	}
}

func (n *Node) handleSig(from packet.NodeID, s *packet.Sig) {
	if s.Version > n.handler.Version() {
		n.handleNewerSig(from, s)
		return
	}
	if s.Version != n.handler.Version() {
		return
	}
	if !n.handler.WantsSig() || n.sigPending {
		return
	}
	if !n.handler.PreVerifySig(s) {
		// Weak authenticator (puzzle) rejected the packet: one cheap hash,
		// no signature verification charged.
		n.tr.Drop(n.id, from, s, trace.DropPuzzle)
		return
	}
	n.verifySig(from, s, n.handler, func() {
		n.noteForged(from, UnitComplete)
		n.unitComplete()
	})
}

// verifySig charges h's full verification of s as virtual time (1.12 s
// ECDSA on a Tmote Sky, paper §III-A) and calls accepted once it passes.
// The epoch guard voids the verification if the node loses power while it
// is in progress.
func (n *Node) verifySig(from packet.NodeID, s *packet.Sig, h ObjectHandler, accepted func()) {
	n.sigPending = true
	n.sigSpan = n.tr.Begin(n.id, "sig-verify", trace.NoUnit)
	epoch := n.epoch
	n.eng.Schedule(n.cfg.SigVerifyDelay, func() {
		if n.down || n.epoch != epoch {
			return
		}
		n.sigPending = false
		n.sigSpan.End()
		n.sigSpan = trace.Span{}
		switch h.IngestSig(s) {
		case Rejected:
			n.col.RecordAuthDrop()
			n.tr.SigResult(n.id, from, false)
		case UnitComplete:
			n.tr.SigResult(n.id, from, true)
			accepted()
		}
	})
}

// resetRAM discards the RAM-resident protocol state a power loss or a
// version switch wipes: neighbor tables, request/serve state, timers and
// in-flight spans. In-flight spans stay unterminated in the trace (the
// analyzer drops unpaired spans), the honest record of work destroyed.
func (n *Node) resetRAM() {
	n.servers.reset()
	n.served = nil
	n.ignored = nil
	n.hasAdvertiser = false
	n.setRequesting(false)
	n.suppressions = 0
	n.retries = 0
	n.snackTimer.Stop()
	n.retryTimer.Stop()
	n.txTimer.Stop()
	n.setTxActive(false)
	n.sigPending = false
	n.sigSpan = trace.Span{}
	n.fetchSpan = trace.Span{}
	n.completed = false
}

func (n *Node) noteForged(from packet.NodeID, res IngestResult) {
	if n.markForged != nil && n.markForged(from) && (res == Stored || res == UnitComplete) {
		n.col.RecordForgedAccepted()
	}
}

// setRequesting flips the RX state machine, tracing the MAINTAIN<->RX
// transition when the value actually changes.
func (n *Node) setRequesting(v bool) {
	if n.requesting == v {
		return
	}
	n.requesting = v
	if v {
		n.tr.State(n.id, "rx", trace.StateMaintain, trace.StateRx)
	} else {
		n.tr.State(n.id, "rx", trace.StateRx, trace.StateMaintain)
	}
}

// setTxActive flips the TX state machine, tracing the MAINTAIN<->TX
// transition when the value actually changes.
func (n *Node) setTxActive(v bool) {
	if n.txActive == v {
		return
	}
	n.txActive = v
	if v {
		n.tr.State(n.id, "tx", trace.StateMaintain, trace.StateTx)
	} else {
		n.tr.State(n.id, "tx", trace.StateTx, trace.StateMaintain)
	}
}

// heldAny reports whether any packet of the unit is already stored; used to
// detect the unit's first packet when tracing (gated on Enabled, so the
// scan costs nothing in untraced runs).
func (n *Node) heldAny(unit int) bool {
	for idx := 0; idx < n.handler.PacketsInUnit(unit); idx++ {
		if n.handler.HasPacket(unit, idx) {
			return true
		}
	}
	return false
}

// beginFetchSpan opens the page-fetch span for the unit being assembled.
func (n *Node) beginFetchSpan(unit int) {
	if !n.tr.Enabled() || (n.fetchSpan.Active() && n.fetchUnit == unit) {
		return
	}
	n.fetchSpan = n.tr.Begin(n.id, "page-fetch", unit)
	n.fetchUnit = unit
}

// endFetchSpan closes the page-fetch span if it covers this unit.
func (n *Node) endFetchSpan(unit int) {
	if n.fetchSpan.Active() && n.fetchUnit == unit {
		n.fetchSpan.End()
		n.fetchSpan = trace.Span{}
	}
}

// maybeStartRequest enters RX if a neighbor has units we lack.
func (n *Node) maybeStartRequest() {
	if n.completed || n.requesting {
		return
	}
	if !n.haveServer() {
		return
	}
	n.setRequesting(true)
	n.suppressions = 0
	n.retries = 0
	n.scheduleSNACK(n.backoff())
}

func (n *Node) haveServer() bool {
	mine := n.handler.CompleteUnits()
	// servers holds only in-range advertisers; trip count is node degree.
	for i := range n.servers.entries {
		if n.servers.entries[i].units > mine {
			return true
		}
	}
	return false
}

func (n *Node) backoff() sim.Time {
	span := int64(n.cfg.RxBackoffMax - n.cfg.RxBackoffMin)
	if span <= 0 {
		return n.cfg.RxBackoffMin
	}
	return n.cfg.RxBackoffMin + sim.Time(n.rng.Int63n(span+1))
}

func (n *Node) scheduleSNACK(d sim.Time) {
	n.snackTimer.Stop()
	n.snackTimer = n.eng.Schedule(d, n.onSNACK)
}

func (n *Node) sendSNACK() {
	if n.completed || !n.requesting {
		return
	}
	mine := n.handler.CompleteUnits()
	// Pick a server that advertises more units than we have, uniformly at
	// random for load spreading.
	// serverList iterates in ascending-id order, which keeps the candidate
	// list, and therefore the rng draw below, identical across runs (it is
	// the same order the map-based implementation realized by sorting keys).
	candidates := n.snackCand[:0]
	for i := range n.servers.entries {
		e := &n.servers.entries[i]
		if e.units > mine {
			candidates = append(candidates, e.id)
		}
	}
	n.snackCand = candidates
	if len(candidates) == 0 {
		n.setRequesting(false)
		return
	}
	// Prefer the advertiser we heard most recently (Deluge requests "from
	// that neighbor"); otherwise pick uniformly among candidates.
	server := packet.NodeID(0)
	if n.hasAdvertiser && n.servers.get(n.lastAdvertiser) > mine {
		server = n.lastAdvertiser
	} else {
		server = candidates[n.rng.Intn(len(candidates))]
	}

	unit := mine
	npkts := n.handler.PacketsInUnit(unit)
	bits := packet.NewBitVector(npkts)
	for idx := 0; idx < npkts; idx++ {
		if !n.handler.HasPacket(unit, idx) {
			bits.Set(idx, true)
		}
	}
	if !bits.Any() {
		// Shouldn't happen: a unit with nothing missing would be complete.
		return
	}
	n.nw.Broadcast(n.id, &packet.SNACK{
		Src:     n.id,
		Dest:    server,
		Version: n.handler.Version(),
		Unit:    packet.Unit(unit),
		Bits:    bits,
	})
	n.armRetry()
}

func (n *Node) armRetry() {
	n.retryTimer.Stop()
	// Exponential backoff on consecutive unanswered retries keeps SNACK
	// storms bounded when losses are heavy (a lost SNACK costs a timeout,
	// not a flood).
	timeout := n.cfg.RxRetryTimeout
	for i := 0; i < n.retries && i < 2; i++ {
		timeout *= 2
	}
	n.retryTimer = n.eng.Schedule(timeout, n.onRetry)
}

// retryExpired fires when a SNACK went unanswered for the retry timeout.
func (n *Node) retryExpired() {
	if n.completed || !n.requesting {
		return
	}
	n.retries++
	if n.retries > maxRetriesBeforeMaintain {
		// Give up; wait for fresh advertisements (MAINTAIN).
		n.setRequesting(false)
		n.servers.reset()
		n.trk.Reset()
		return
	}
	n.scheduleSNACK(n.backoff())
}

// progress notes that the current unit advanced (a useful packet arrived),
// resetting the retry counter.
func (n *Node) progress() {
	n.retries = 0
	n.armRetry()
}

func (n *Node) unitComplete() {
	n.retries = 0
	n.suppressions = 0
	n.retryTimer.Stop()
	n.trk.Reset() // our state changed; advertise promptly
	n.checkComplete()
	if n.completed {
		n.setRequesting(false)
		return
	}
	if n.haveServer() {
		n.setRequesting(true)
		n.scheduleSNACK(n.backoff())
	} else {
		n.setRequesting(false)
	}
}

func (n *Node) checkComplete() {
	if n.completed {
		return
	}
	total := n.handler.TotalUnits()
	if total > 0 && n.handler.CompleteUnits() >= total {
		n.completed = true
		n.setRequesting(false)
		n.retryTimer.Stop()
		n.snackTimer.Stop()
		if n.reported {
			return
		}
		n.reported = true
		now := n.eng.Now()
		n.col.RecordCompletion(n.id, now)
		n.tr.Complete(n.id)
		if n.onComplete != nil {
			n.onComplete(n.id, now)
		}
	}
}

// startTx begins the serve loop if it is not already running (TX state).
// The first transmission of an idle server waits out an aggregation window
// so SNACKs from several neighbors accumulate before the burst begins.
func (n *Node) startTx() {
	if n.txActive {
		return
	}
	n.setTxActive(true)
	if n.cfg.TxAggregationDelay > 0 {
		n.txTimer = n.eng.Schedule(n.cfg.TxAggregationDelay, n.onTxStep)
		return
	}
	n.scheduleTxStep()
}

func (n *Node) scheduleTxStep() {
	// Pace on our own transmitter: next step when the radio frees up, plus
	// a random jitter so concurrent servers interleave and overhear each
	// other's packets (enabling data suppression) instead of transmitting
	// identical bursts in lockstep.
	delay := n.cfg.TxSpacing
	if n.cfg.TxJitterMax > 0 {
		delay += sim.Time(n.rng.Int63n(int64(n.cfg.TxJitterMax) + 1))
	}
	if busy := n.nw.TxBusyUntil(n.id); busy > n.eng.Now() {
		delay += busy - n.eng.Now()
	}
	n.txTimer = n.eng.Schedule(delay, n.onTxStep)
}

func (n *Node) txStep() {
	if !n.policy.Pending() {
		n.setTxActive(false)
		return
	}
	unit, idx, ok := n.policy.Next()
	if !ok {
		n.setTxActive(false)
		return
	}
	if sig := n.handler.SigPacket(n.id); sig != nil && unit == 0 && n.handler.PacketsInUnit(0) == 1 {
		n.nw.Broadcast(n.id, sig)
	} else {
		pkts, err := n.handler.Packets(unit, []int{idx}, n.id)
		if err != nil || len(pkts) == 0 {
			// The unit became unservable (should not happen); drop work.
			n.scheduleTxStep()
			return
		}
		n.nw.Broadcast(n.id, pkts[0])
	}
	n.scheduleTxStep()
}
