// Package experiment builds and runs the paper's evaluation scenarios
// (§VI): one-hop neighborhoods with application-layer Bernoulli losses,
// multi-hop grids with bursty noise, and adversarial variants, producing the
// metrics of every figure and table.
package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"lrseluge/internal/core"
	"lrseluge/internal/crypt/puzzle"
	"lrseluge/internal/crypt/sign"
	"lrseluge/internal/deluge"
	"lrseluge/internal/dissem"
	"lrseluge/internal/fault"
	"lrseluge/internal/harness"
	"lrseluge/internal/image"
	"lrseluge/internal/metrics"
	"lrseluge/internal/obs"
	"lrseluge/internal/packet"
	"lrseluge/internal/radio"
	"lrseluge/internal/rateless"
	"lrseluge/internal/sim"
	"lrseluge/internal/topo"
	"lrseluge/internal/trace"
)

// Protocol selects the dissemination scheme under test.
type Protocol int

// Protocols.
const (
	Deluge Protocol = iota
	Seluge
	LRSeluge
	// RatelessDeluge is the loss-resilient-but-insecure related-work
	// baseline (Rateless Deluge / SYNAPSE style, LT-coded pages).
	RatelessDeluge
)

// LRPolicy selects the transmission scheduling policy used by LR-Seluge
// servers (ablation of §IV-D.3).
type LRPolicy int

// LR-Seluge scheduling policies.
const (
	// GreedyRR is the paper's greedy round-robin tracking-table scheduler.
	GreedyRR LRPolicy = iota
	// UnionBits transmits the union of requested bit vectors (what Deluge
	// and Seluge do).
	UnionBits
	// FreshRR ignores requested indices and serves fresh encoded packets
	// round-robin (what rateless schemes do).
	FreshRR
)

// String implements fmt.Stringer.
func (p LRPolicy) String() string {
	switch p {
	case GreedyRR:
		return "greedy-rr"
	case UnionBits:
		return "union"
	case FreshRR:
		return "fresh-rr"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case Deluge:
		return "Deluge"
	case Seluge:
		return "Seluge"
	case LRSeluge:
		return "LR-Seluge"
	case RatelessDeluge:
		return "Rateless-Deluge"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// Scenario describes one simulation run. Zero-valued optional fields get
// paper-faithful defaults.
type Scenario struct {
	Protocol Protocol

	// Image is the code image; if nil a deterministic pseudo-random image
	// of ImageSize bytes is generated. ImageSize defaults to 20 KB (§VI-B).
	Image     []byte
	ImageSize int

	// Params is the packet/coding geometry; zero value means defaults
	// (payload 72 B, k = 32, n = 48).
	Params image.Params

	// Graph is the topology; nil means a fully-connected one-hop
	// neighborhood of Receivers+1 nodes with node 0 the base station.
	Graph     *topo.Graph
	Receivers int

	// LossFactory, when set, builds the run's loss model; each run calls
	// it, so stateful models (Gilbert-Elliott) start from fresh channel
	// state and parallel runs share nothing. Otherwise a Bernoulli model
	// with LossP is used (the one-hop emulation strategy of §VI-A).
	LossFactory func() radio.LossModel
	LossP       float64

	// Radio and Dissem tune the physical layer and protocol timers; zero
	// values mean defaults. A non-zero value is used as given, so start a
	// variation from radio.DefaultConfig / dissem.DefaultConfig.
	Radio  radio.Config
	Dissem dissem.Config

	// PuzzleStrength is the weak-authenticator difficulty in leading zero
	// bits (simulation default 8: cheap for the base station, still
	// demonstrably filtering).
	PuzzleStrength uint

	// LRPolicy selects LR-Seluge's transmission scheduling policy, for the
	// ablation of the paper's greedy round-robin scheduler (§IV-D.3).
	LRPolicy LRPolicy

	// ExtraNodes reserves this many trailing topology slots for
	// adversaries (or other non-protocol receivers) attached by the
	// caller; no protocol node is created for them.
	ExtraNodes int

	// Faults, when set, is a fault plan installed before the run starts:
	// node crashes/reboots, link outages, partitions (see internal/fault).
	// For per-run plans in swept grids prefer FaultFactory, which receives
	// the run's derived seed so repeated runs get independent fault timing.
	Faults *fault.Plan

	// FaultFactory, when set, builds the fault plan at run time from the
	// run's seed and the protocol-node count (adversary slots excluded).
	// Takes precedence over Faults.
	FaultFactory func(seed int64, numNodes int) (*fault.Plan, error)

	// Trace, when set, receives the run's protocol event stream (see
	// internal/trace). The sink is flushed when Run returns; a flush error
	// fails the run. Nil (the default) disables tracing entirely — no event
	// is constructed and the simulation byte-stream is unchanged.
	Trace trace.Sink

	// Seed makes the run reproducible.
	Seed int64

	// Horizon caps virtual time; runs not finished by then report partial
	// completion. Default 4 simulated hours.
	Horizon sim.Time

	// Queue selects the event-queue implementation. Both kinds pop events
	// in the same order, so the choice never changes run bytes.
	Queue sim.QueueKind

	// Obs, when non-nil, installs wall-time phase timers on the engine,
	// from which the radio, Trickle, crypto and codec layers read them.
	// Measurements never feed back into the simulation, so same-seed runs
	// stay byte-identical either way.
	Obs *obs.Timers
}

// Result carries the metrics the paper reports for a run.
type Result struct {
	Protocol  Protocol
	Nodes     int
	Completed int

	DataPkts  int64
	SnackPkts int64
	AdvPkts   int64
	SigPkts   int64
	// PageDataPkts counts data transmissions of image-page units only
	// (excluding the hash page), the quantity in Fig. 3.
	PageDataPkts int64

	TotalBytes int64
	Latency    sim.Time

	AuthDrops        int64
	PuzzleRejects    int64
	SigVerifications int64
	ForgedAccepted   int64
	ChannelLosses    int64

	// Fault-injection outcomes (zero when the scenario has no fault plan).
	Crashes       int64
	Reboots       int64
	CrashLostPkts int64
	RefetchedPkts int64
	FaultDrops    int64
	DowntimeSec   float64
	// RecoverySec is the mean reboot-to-completion latency over nodes that
	// completed after rebooting.
	RecoverySec float64

	// ImagesOK is true when every completed node reconstructed the exact
	// original image bytes.
	ImagesOK bool

	// Units is the object's total unit count (pages + overhead units).
	Units int
}

// imageMatcher is implemented by all four protocol handlers.
type imageMatcher interface {
	MatchesImage(img []byte) bool
}

// Env is a fully-wired simulation ready to run; attack experiments extend it
// with adversaries before running, and the large-scale runner drives it in
// progress slices.
type Env struct {
	scenario    Scenario
	eng         *sim.Engine
	col         *metrics.Collector
	nw          *radio.Network
	nodes       []*dissem.Node
	baseHandler dissem.ObjectHandler
	imageData   []byte
	units       int
	pageUnit0   int // first image-page unit (0 for Deluge, 2 for secure)
	started     bool

	// version is the code version the run disseminates, and completed
	// counts the nodes that hold it; Upgrade moves both on.
	version   uint16
	completed int

	// key and chain are the run's signing key and puzzle key chain
	// (Seluge and LR-Seluge only): every version Upgrade signs come from
	// them. sig is the one signature context every Seluge and LR-Seluge
	// handler of the run verifies against: key's public half, in a
	// sign.Verifier whose memo is run-scoped like the store, and chain's
	// commitment.
	key   *sign.KeyPair
	chain *puzzle.Chain
	sig   *dissem.SigContext

	// scheme is the run's core configuration and store its authenticated
	// unit content, shared by every Seluge or LR-Seluge node; the store
	// lives and dies with the Env.
	scheme core.Scheme
	store  *core.Store

	// Fault injection, wired only when the scenario carries a fault plan.
	faultOv  *radio.FaultOverlay
	faultEng *fault.Engine
}

// WithDefaults returns s with every zero-valued optional field replaced by
// its default, the form Build runs.
func (s Scenario) WithDefaults() Scenario {
	out := s
	if out.ImageSize == 0 {
		out.ImageSize = 20 * 1024
	}
	if out.Params == (image.Params{}) {
		out.Params = image.DefaultParams()
	}
	if out.Receivers == 0 && out.Graph == nil {
		out.Receivers = 20
	}
	if out.Radio == (radio.Config{}) {
		out.Radio = radio.DefaultConfig()
	}
	if out.Dissem == (dissem.Config{}) {
		out.Dissem = dissem.DefaultConfig()
	}
	if out.PuzzleStrength == 0 {
		out.PuzzleStrength = 8
	}
	if out.Horizon == 0 {
		out.Horizon = 4 * 3600 * sim.Second
	}
	return out
}

// Build wires the full simulation for a scenario.
func Build(s Scenario) (*Env, error) {
	s = s.WithDefaults()
	imgData := s.Image
	if imgData == nil {
		imgData = image.Random(s.ImageSize, s.Seed^0x1337)
	}
	graph := s.Graph
	if graph == nil {
		var err error
		graph, err = topo.Complete(s.Receivers + 1 + s.ExtraNodes)
		if err != nil {
			return nil, err
		}
	}
	var loss radio.LossModel = radio.NoLoss{}
	switch {
	case s.LossFactory != nil:
		loss = s.LossFactory()
	case s.LossP > 0:
		loss = radio.Bernoulli{P: s.LossP}
	}

	eng := sim.NewWithQueue(s.Queue)
	eng.SetObs(s.Obs)
	col := metrics.New()
	nw, err := radio.New(eng, graph, loss, s.Radio, col, s.Seed^0x5eed)
	if err != nil {
		return nil, err
	}
	if s.Trace != nil {
		// Install before node construction: dissem nodes capture the
		// network's tracer when they are built.
		tr, err := trace.New(eng, s.Trace)
		if err != nil {
			return nil, err
		}
		nw.SetTracer(tr)
	}

	const version = 1
	e := &Env{
		scenario:  s,
		eng:       eng,
		col:       col,
		nw:        nw,
		imageData: imgData,
		store:     core.NewStore(),
		version:   version,
	}

	numNodes := graph.NumNodes() - s.ExtraNodes
	if numNodes < 2 {
		return nil, fmt.Errorf("experiment: topology too small after reserving %d adversary slots", s.ExtraNodes)
	}
	e.nodes = make([]*dissem.Node, 0, numNodes)

	if s.Protocol == Seluge || s.Protocol == LRSeluge {
		if e.key, err = sign.GenerateDeterministic(s.Seed ^ 0xec); err != nil {
			return nil, err
		}
		if e.chain, err = puzzle.NewChain([]byte("lrseluge-experiment"), 8); err != nil {
			return nil, err
		}
		e.sig = &dissem.SigContext{
			Key:        sign.NewVerifier(e.key.Public()),
			Commitment: e.chain.Commitment(),
			Puzzle:     e.puzzle(),
			Col:        col,
			Obs:        eng.Obs(),
		}
	}

	switch s.Protocol {
	case RatelessDeluge:
		obj, err := rateless.NewObject(version, imgData, s.Params)
		if err != nil {
			return nil, err
		}
		e.units = obj.NumPages()
		e.pageUnit0 = 0
		for id := 0; id < numNodes; id++ {
			var h *rateless.Handler
			if id == 0 {
				h = rateless.Preload(obj)
			} else {
				h, err = rateless.NewHandler(version, s.Params)
				if err != nil {
					return nil, err
				}
			}
			if err := e.addNode(packet.NodeID(id), h, core.NewFreshPolicy(h.PacketsInUnit, h.NeededInUnit)); err != nil {
				return nil, err
			}
		}
	case Deluge:
		obj, err := deluge.NewObject(version, imgData, s.Params)
		if err != nil {
			return nil, err
		}
		e.units = obj.NumPages()
		e.pageUnit0 = 0
		for id := 0; id < numNodes; id++ {
			var h *deluge.Handler
			if id == 0 {
				h = deluge.Preload(obj)
			} else {
				h, err = deluge.NewHandler(version, s.Params)
				if err != nil {
					return nil, err
				}
			}
			if err := e.addNode(packet.NodeID(id), h, deluge.NewPolicy(s.Params)); err != nil {
				return nil, err
			}
		}
	case Seluge, LRSeluge:
		newScheme := core.LRSeluge
		if s.Protocol == Seluge {
			newScheme = core.Seluge
		}
		if e.scheme, err = newScheme(s.Params); err != nil {
			return nil, err
		}
		// One upgrader value serves every node. It runs only when a newer
		// version's signature arrives, and a node switches to the handler
		// it builds only once that signature verifies.
		upgrader := dissem.Upgrader(e.upgradeHandler)
		obj, err := core.Build(core.BuildInput{
			Version: version, Image: imgData, Scheme: e.scheme,
			Key: e.key, Chain: e.chain, Puzzle: e.puzzle(),
		})
		if err != nil {
			return nil, err
		}
		e.units = obj.TotalUnits()
		e.pageUnit0 = 2
		for id := 0; id < numNodes; id++ {
			var h *core.Handler
			if id == 0 {
				h = core.Preload(obj, e.store, e.sig)
			} else {
				h, err = core.NewHandler(version, e.scheme, e.store, e.sig)
				if err != nil {
					return nil, err
				}
			}
			if err := e.addNode(packet.NodeID(id), h, e.txPolicy(h)); err != nil {
				return nil, err
			}
			e.nodes[id].SetUpgrader(upgrader)
		}
	default:
		return nil, fmt.Errorf("experiment: unknown protocol %d", s.Protocol)
	}

	plan := s.Faults
	if s.FaultFactory != nil {
		plan, err = s.FaultFactory(s.Seed, numNodes)
		if err != nil {
			return nil, fmt.Errorf("experiment: fault factory: %w", err)
		}
	}
	if plan != nil {
		e.faultOv = nw.InstallFaultOverlay()
		e.faultEng, err = fault.NewEngine(eng, e.faultOv)
		if err != nil {
			return nil, err
		}
		e.faultEng.SetTracer(nw.Tracer())
		for _, n := range e.nodes {
			e.faultEng.Register(int(n.ID()), n)
		}
		if err := e.faultEng.Install(plan); err != nil {
			return nil, fmt.Errorf("experiment: fault plan: %w", err)
		}
	}
	return e, nil
}

// ablationPolicies is the fixed entry order of the scheduler ablation.
var ablationPolicies = []LRPolicy{GreedyRR, UnionBits, FreshRR}

// ablationEntries builds one grid entry per LR-Seluge scheduling policy.
func ablationEntries(params image.Params, imageSize, receivers int, p float64, runs int, seed int64) []GridEntry {
	entries := make([]GridEntry, 0, len(ablationPolicies))
	for _, policy := range ablationPolicies {
		entries = append(entries, GridEntry{
			Name:   "policy=" + policy.String(),
			Params: []harness.Param{{Key: "policy", Value: policy.String()}},
			Scenario: Scenario{
				Protocol:  LRSeluge,
				ImageSize: imageSize,
				Params:    params,
				Receivers: receivers,
				LossP:     p,
				LRPolicy:  policy,
				Seed:      seed,
			},
			Runs: runs,
		})
	}
	return entries
}

// SchedulerAblation compares LR-Seluge's greedy round-robin scheduler
// against the union-of-bit-vectors and fresh-packet policies on the same
// scenario, isolating the contribution of the paper's TX scheduling
// (§IV-D.3).
func SchedulerAblation(params image.Params, imageSize, receivers int, p float64, runs int, seed int64) (map[LRPolicy]AvgResult, error) {
	avgs, err := RunGrid("ablation", ablationEntries(params, imageSize, receivers, p, runs, seed), harness.Config{})
	if err != nil {
		return nil, err
	}
	out := make(map[LRPolicy]AvgResult, len(ablationPolicies))
	for i, policy := range ablationPolicies {
		out[policy] = avgs[i]
	}
	return out, nil
}

func (e *Env) addNode(id packet.NodeID, handler dissem.ObjectHandler, policy dissem.TxPolicy) error {
	node, err := dissem.NewNode(id, e.nw, e.scenario.Dissem, handler, policy, e.scenario.Seed^(int64(id)*0x9e3779b9+1))
	if err != nil {
		return err
	}
	node.SetOnComplete(func(packet.NodeID, sim.Time) {
		// A node still finishing an older version does not count.
		if node.Handler().Version() != e.version {
			return
		}
		e.completed++
		if e.completed == len(e.nodes) {
			e.eng.Stop()
		}
	})
	e.nodes = append(e.nodes, node)
	if id == 0 {
		e.baseHandler = handler
	}
	return nil
}

// puzzle is the run's weak-authenticator difficulty.
func (e *Env) puzzle() puzzle.Params {
	return puzzle.Params{Strength: e.scenario.PuzzleStrength}
}

// txPolicy is the scenario's transmission policy for h. Seluge serves the
// union of requests, as Deluge does.
func (e *Env) txPolicy(h *core.Handler) dissem.TxPolicy {
	policy := e.scenario.LRPolicy
	if e.scenario.Protocol == Seluge {
		policy = UnionBits
	}
	switch policy {
	case UnionBits:
		return dissem.NewUnionPolicy(h.PacketsInUnit)
	case FreshRR:
		return core.NewFreshPolicy(h.PacketsInUnit, h.NeededInUnit)
	default:
		return h.NewPolicy()
	}
}

// upgradeHandler is every secure node's dissem.Upgrader: an empty handler
// for a newer version, wired like the node's first one.
func (e *Env) upgradeHandler(version uint16) (dissem.ObjectHandler, dissem.TxPolicy, error) {
	h, err := core.NewHandler(version, e.scheme, e.store, e.sig)
	if err != nil {
		return nil, nil, err
	}
	return h, e.txPolicy(h), nil
}

// Upgrade reprograms an LR-Seluge run: it signs img as the next version with
// the run's key and puzzle chain, preloads it at the base station (node 0)
// and restarts the completion count, so the next Drive disseminates it. The
// other nodes drop their old image only once the new signature verifies.
// Other protocols return an error and the run is left untouched.
func (e *Env) Upgrade(img []byte) error {
	if e.scenario.Protocol != LRSeluge {
		return fmt.Errorf("experiment: %v runs cannot be upgraded", e.scenario.Protocol)
	}
	obj, err := core.Build(core.BuildInput{
		Version: e.version + 1, Image: img, Scheme: e.scheme,
		Key: e.key, Chain: e.chain, Puzzle: e.puzzle(),
	})
	if err != nil {
		return err
	}
	e.version++
	e.imageData = img
	e.units = obj.TotalUnits()
	e.completed = 0
	h := core.Preload(obj, e.store, e.sig)
	e.baseHandler = h
	e.nodes[0].Upgrade(h, e.txPolicy(h))
	return nil
}

// Engine returns the simulation engine.
func (e *Env) Engine() *sim.Engine { return e.eng }

// Collector returns the run's metrics collector.
func (e *Env) Collector() *metrics.Collector { return e.col }

// TraceHash hashes every transmission from now on, in global transmission
// order: the big-endian u64 virtual time, the big-endian u16 sender, then the
// packet's wire bytes. The returned function yields the hex sha256 of the
// trace so far. Trace hashes are the byte-identity referee across queue
// kinds, obs settings and code changes, so this layout must not change.
func (e *Env) TraceHash() func() string {
	h := sha256.New()
	var hdr [10]byte
	e.nw.SetTxObserver(func(at sim.Time, from packet.NodeID, p packet.Packet) {
		binary.BigEndian.PutUint64(hdr[0:8], uint64(at))
		binary.BigEndian.PutUint16(hdr[8:10], uint16(from))
		h.Write(hdr[:])
		h.Write(p.Marshal())
	})
	return func() string { return hex.EncodeToString(h.Sum(nil)) }
}

// Drive runs the engine in slices of virtual time, calling onSlice (when
// non-nil) with the engine clock after each slice; the first call starts
// every node. It returns once every node holds the current version, the
// scenario horizon has passed since the call, or the event queue is empty.
// A non-positive slice runs the whole horizon as one slice.
func (e *Env) Drive(slice sim.Time, onSlice func(now sim.Time)) {
	if !e.started {
		e.started = true
		for _, n := range e.nodes {
			n.Start()
		}
	}
	start := e.eng.Now()
	horizon := start + e.scenario.Horizon
	if slice <= 0 {
		slice = e.scenario.Horizon
	}
	for next := start + slice; ; next += slice {
		if next > horizon {
			next = horizon
		}
		now := e.eng.Run(next)
		if onSlice != nil {
			onSlice(now)
		}
		// Break on the slice bound, not the engine clock: Run returns the
		// time of the last executed event, which sits strictly below the
		// horizon whenever no event lands exactly on it (e.g. an isolated
		// node keeps the network from completing and the run must end at
		// the horizon).
		if e.completed == len(e.nodes) || next >= horizon || e.eng.Pending() == 0 {
			return
		}
	}
}

// run drives the scenario to completion or horizon in one slice and collects
// the result.
func (e *Env) run() Result {
	s := e.scenario
	e.Drive(s.Horizon, nil)

	res := Result{
		Protocol:         s.Protocol,
		Nodes:            len(e.nodes),
		Completed:        e.col.Completions(),
		DataPkts:         e.col.Tx(packet.TypeData),
		SnackPkts:        e.col.Tx(packet.TypeSNACK),
		AdvPkts:          e.col.Tx(packet.TypeAdv),
		SigPkts:          e.col.Tx(packet.TypeSig),
		PageDataPkts:     e.col.DataTxFromUnit(e.pageUnit0),
		TotalBytes:       e.col.TotalBytes(),
		Latency:          e.col.Latency(),
		AuthDrops:        e.col.AuthDrops(),
		PuzzleRejects:    e.col.PuzzleRejects(),
		SigVerifications: e.col.SigVerifications(),
		ForgedAccepted:   e.col.ForgedAccepted(),
		ChannelLosses:    e.col.ChannelLosses(),
		Units:            e.units,
		Crashes:          e.col.Crashes(),
		Reboots:          e.col.Reboots(),
		CrashLostPkts:    e.col.CrashLostPkts(),
		RefetchedPkts:    e.col.RefetchedPkts(),
		DowntimeSec:      e.col.TotalDowntime().Seconds(),
		RecoverySec:      e.col.MeanRecoveryLatencySec(),
		ImagesOK:         e.ImagesOK(),
	}
	res.FaultDrops = e.col.FaultDrops()
	return res
}

// ImagesOK reports whether every node's current handler holds exactly the
// image of the run's current version. It allocates nothing; on the
// store-backed protocols each shared unit is compared against the image
// once, so the per-node cost is one pointer compare per held unit.
func (e *Env) ImagesOK() bool {
	for _, n := range e.nodes {
		h := n.Handler()
		if h.Version() != e.version || !h.(imageMatcher).MatchesImage(e.imageData) {
			return false
		}
	}
	return true
}

// Run executes a scenario end to end. When the scenario carries a trace
// sink, the sink is flushed before Run returns and a flush error fails the
// run (the metrics of a run whose trace was silently truncated would be
// unverifiable against the trace).
func Run(s Scenario) (Result, error) {
	e, err := Build(s)
	if err != nil {
		return Result{}, err
	}
	res := e.run()
	if s.Trace != nil {
		if err := s.Trace.Flush(); err != nil {
			return Result{}, fmt.Errorf("experiment: trace flush: %w", err)
		}
	}
	return res, nil
}
