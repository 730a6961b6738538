// Package lrseluge is the public API of this repository: a from-scratch Go
// implementation and evaluation harness for LR-Seluge — loss-resilient and
// secure code dissemination in wireless sensor networks (Zhang & Zhang,
// ICDCS 2011) — together with its baselines Deluge and Seluge, the discrete
// event network simulator they run on, and the paper's full experiment
// suite.
//
// # Quick start
//
//	res, err := lrseluge.Run(lrseluge.Scenario{
//		Protocol:  lrseluge.LRSeluge,
//		ImageSize: 20 * 1024,
//		Receivers: 20,
//		LossP:     0.1,
//		Seed:      1,
//	})
//
// runs a full authenticated dissemination of a 20 KB image to 20 one-hop
// receivers with 10% packet loss and reports the paper's metrics (data,
// SNACK and advertisement packets, total bytes, latency, security counters).
//
// # Structure
//
//   - Scenario/Run/RunAvg: end-to-end simulations (internal/experiment).
//   - RunSweep: runs one named sweep of the evaluation catalog, the single
//     definition of every grid figure and table (Figs. 3-6, Tables II-III,
//     the scheduler ablation, churn and outage) that cmd/figures, cmd/lrsweep
//     and cmd/lrserved run too.
//   - AttackResilience: the adversarial experiments backing the paper's
//     security claims (§IV-E).
//   - SelugeExpectedDataTx / ACKLRExpectedDataTx: the closed-form models of
//     §V used by Fig. 3.
//
// The protocol implementations themselves live under internal/: the shared
// MAINTAIN/RX/TX engine (internal/dissem), Deluge (internal/deluge), and
// LR-Seluge with Seluge as its rate-1 configuration (internal/core), on top
// of Reed-Solomon erasure coding (internal/erasure), Merkle trees, truncated
// hash images, message-specific puzzles (internal/crypt) and a deterministic
// discrete-event radio simulation (internal/sim, internal/radio,
// internal/topo).
package lrseluge

import (
	"io"

	"lrseluge/internal/analysis"
	"lrseluge/internal/experiment"
	"lrseluge/internal/fault"
	"lrseluge/internal/harness"
	"lrseluge/internal/image"
	"lrseluge/internal/radio"
	"lrseluge/internal/runstore"
	"lrseluge/internal/scale"
	"lrseluge/internal/sim"
	"lrseluge/internal/topo"
	"lrseluge/internal/trace"
)

// Protocol selects the dissemination scheme under test.
type Protocol = experiment.Protocol

// The three implemented protocols.
const (
	// Deluge is the non-secure ARQ baseline.
	Deluge = experiment.Deluge
	// Seluge is the secure ARQ baseline (immediate authentication, no
	// loss resilience).
	Seluge = experiment.Seluge
	// LRSeluge is the paper's contribution: erasure-coded pages with
	// immediate per-packet authentication.
	LRSeluge = experiment.LRSeluge
	// RatelessDeluge is the loss-resilient-but-insecure related-work
	// baseline (LT-coded pages, no authentication).
	RatelessDeluge = experiment.RatelessDeluge
)

// Params fixes the shared packet/coding geometry: payload bytes per packet,
// k source blocks per page and n encoded packets per page.
type Params = image.Params

// DefaultParams returns the evaluation defaults (72 B payload, k=32, n=48).
func DefaultParams() Params { return image.DefaultParams() }

// Scenario describes one simulation run; zero-valued fields get paper
// defaults (20 KB image, 20 receivers, one-hop complete topology).
type Scenario = experiment.Scenario

// Result carries the metrics the paper reports for one run.
type Result = experiment.Result

// AvgResult is a Result averaged over several seeds.
type AvgResult = experiment.AvgResult

// Run executes one scenario end to end and verifies that every completed
// node reconstructed the exact image bytes.
func Run(s Scenario) (Result, error) { return experiment.Run(s) }

// RunAvg executes a scenario `runs` times under distinct seeds and averages
// the metrics; runs fan out across a GOMAXPROCS-wide worker pool
// (internal/harness) with results merged in deterministic run order.
func RunAvg(s Scenario, runs int) (AvgResult, error) { return experiment.RunAvg(s, runs) }

// RunAvgParallel is RunAvg with an explicit harness worker count
// (0 = GOMAXPROCS, 1 = serial). The averages are bit-identical for any
// worker count.
func RunAvgParallel(s Scenario, runs, workers int) (AvgResult, error) {
	return experiment.RunAvgParallel(s, runs, workers)
}

// Time is the simulator's virtual time (nanoseconds).
type Time = sim.Time

// Topology constructors.

// Graph is an immutable network topology; node 0 is the base station.
type Graph = topo.Graph

// GridDensity selects tight (high-density) or medium (low-density) grids.
type GridDensity = topo.GridDensity

// Grid densities mirroring the paper's two 15x15 mica2 topologies.
const (
	Tight  = topo.Tight
	Medium = topo.Medium
)

// ParseDensity maps a grid density name ("tight", "medium") onto its
// GridDensity and rejects any other name.
func ParseDensity(name string) (GridDensity, error) { return experiment.ParseDensity(name) }

// OneHop returns a fully-connected neighborhood of n nodes.
func OneHop(n int) (*Graph, error) { return topo.Complete(n) }

// Grid returns a rows x cols lattice at the given density.
func Grid(rows, cols int, density GridDensity) (*Graph, error) {
	return topo.Grid(rows, cols, density)
}

// RandomTopology scatters n nodes over a side x side square.
func RandomTopology(n int, side float64, seed int64) (*Graph, error) {
	return topo.RandomDisk(n, side, seed)
}

// LossModel decides per-delivery packet drops.
type LossModel = radio.LossModel

// BernoulliLoss drops every packet independently with probability P at each
// receiver (the paper's one-hop loss emulation).
func BernoulliLoss(p float64) LossModel { return radio.Bernoulli{P: p} }

// HeavyNoise returns a bursty Gilbert-Elliott channel, the stand-in for the
// paper's meyer-heavy.txt multi-hop noise trace.
func HeavyNoise() LossModel { return radio.HeavyNoise() }

// Fault injection (Scenario.Faults).

// FaultPlan is a validated, time-ordered fault scenario: node crashes and
// reboots with flash-vs-RAM mote semantics, link outage windows and network
// partitions. Assign one to Scenario.Faults.
type FaultPlan = fault.Plan

// FaultEvent is one scheduled fault in a plan.
type FaultEvent = fault.Event

// ChurnSpec parameterizes RandomChurn: exponential up/down times per node
// drawn from a dedicated seeded stream.
type ChurnSpec = fault.ChurnSpec

// LoadFaultPlan reads and validates a JSON fault-plan file (see
// examples/faults/).
func LoadFaultPlan(path string) (*FaultPlan, error) { return fault.LoadPlan(path) }

// RandomChurn draws a deterministic crash/reboot plan from the spec's seed;
// the same spec always yields the same plan.
func RandomChurn(spec ChurnSpec) (*FaultPlan, error) { return fault.RandomChurn(spec) }

// Protocol tracing (Scenario.Trace; analyzed offline by cmd/lrtrace).

// TraceSink receives the structured protocol event stream of a traced run
// (packet lifecycle, state transitions, unit milestones, faults), stamped on
// the virtual clock. Same-seed runs produce identical event sequences.
type TraceSink = trace.Sink

// TraceEvent is one structured protocol event.
type TraceEvent = trace.Event

// TraceRing is a bounded in-memory trace sink keeping the newest events.
type TraceRing = trace.Ring

// NewTraceJSONL returns a sink encoding one JSON line per event to w; assign
// it to Scenario.Trace. Run flushes the sink before returning.
func NewTraceJSONL(w io.Writer) TraceSink { return trace.NewJSONLSink(w) }

// NewTraceRing returns a drop-oldest in-memory sink retaining at most
// capacity events.
func NewTraceRing(capacity int) *TraceRing { return trace.NewRing(capacity) }

// ReadTrace decodes a JSONL trace stream back into events, rejecting unknown
// schemas and vocabulary.
func ReadTrace(r io.Reader) ([]TraceEvent, error) { return trace.ReadAll(r) }

// Closed-form models (paper §V).

// SelugeExpectedDataTx returns the expected data-packet transmissions to
// deliver one k-packet page to `receivers` one-hop neighbors under
// per-packet loss p with Seluge's SNACK ARQ.
func SelugeExpectedDataTx(k, receivers int, p float64) (float64, error) {
	return analysis.SelugeDataTx(k, receivers, p)
}

// ACKLRExpectedDataTx returns the expected data-packet transmissions per
// page of ACK-based LR-Seluge (rounds of n encoded packets until every
// receiver holds k'), the paper's upper bound on LR-Seluge.
func ACKLRExpectedDataTx(k, n, kprime, receivers int, p float64) (float64, error) {
	return analysis.ACKBasedLRDataTx(k, n, kprime, receivers, p)
}

// Evaluation sweeps.

// SweepSpec picks the runs per entry, the base seed and the scale (Quick
// shrinks images, grids and axes) of a catalog sweep.
type SweepSpec = experiment.SweepSpec

// RunSweep runs a named sweep of the evaluation catalog (`lrsweep -list`
// prints the names) on a GOMAXPROCS-wide worker pool. It returns the grid
// entries with their averages, in catalog order; each entry's Scenario
// carries its x value (LossP, Receivers, Params.N/K or LRPolicy).
func RunSweep(name string, spec SweepSpec) ([]experiment.GridEntry, []AvgResult, error) {
	return experiment.RunSweep(name, spec, harness.Config{})
}

// AttackReport summarizes the adversarial experiments.
type AttackReport = experiment.AttackReport

// AttackResilience runs the forged-data, signature-flood and
// denial-of-receipt experiments against LR-Seluge.
func AttackResilience(params Params, imageSize, receivers int, lossP float64, seed int64) (AttackReport, error) {
	return experiment.AttackResilience(params, imageSize, receivers, lossP, seed)
}

// SchedPolicy selects LR-Seluge's transmission scheduling policy
// (Scenario.LRPolicy); the "ablation" sweep compares all three.
type SchedPolicy = experiment.LRPolicy

// LR-Seluge scheduling policies.
const (
	// GreedyRR is the paper's greedy round-robin tracking-table scheduler.
	GreedyRR = experiment.GreedyRR
	// UnionBits is the Deluge/Seluge union-of-requests policy.
	UnionBits = experiment.UnionBits
	// FreshRR is the rateless-style fresh-packet policy.
	FreshRR = experiment.FreshRR
)

// UpgradeResult reports a secure version-upgrade experiment.
type UpgradeResult = experiment.UpgradeResult

// VersionUpgrade disseminates version 1, then reprograms the whole network
// to version 2: stale nodes discard state only after the newer version's
// signature (bound through the puzzle key chain) verifies.
func VersionUpgrade(params Params, imageSize, receivers int, lossP float64, seed int64) (UpgradeResult, error) {
	return experiment.VersionUpgrade(params, imageSize, receivers, lossP, seed)
}

// --- Result serving: content-addressed run store (DESIGN.md §13) ---

// RunSpec is the serializable description of one averaged experiment — the
// request body of lrserved's POST /v1/runs and the input of
// content-addressed run keys. Determinism makes a spec's key a complete
// identity for its result.
type RunSpec = experiment.Spec

// TopoGridSpec is RunSpec's serializable grid-topology form.
type TopoGridSpec = experiment.GridSpec

// DecodeRunSpec parses a RunSpec from JSON, rejecting unknown fields.
func DecodeRunSpec(data []byte) (RunSpec, error) { return experiment.DecodeSpec(data) }

// RunStore is a content-addressed, file-backed store of averaged results:
// CRC-checked gzip values written atomically, a self-healing index, and
// LRU eviction under an optional byte cap. It backs the lrserved daemon
// and lrsweep's -store incremental mode.
type RunStore = runstore.Store

// RunStoreOptions tunes a RunStore.
type RunStoreOptions = runstore.Options

// OpenRunStore opens (or creates) a run store rooted at dir.
func OpenRunStore(dir string, opts RunStoreOptions) (*RunStore, error) {
	return runstore.Open(dir, opts)
}

// --- Large-scale simulation (DESIGN.md §14) ---

// QueueKind selects the event-queue implementation backing a simulation
// engine: the reference binary heap or the O(1)-amortized calendar queue
// used for large runs. Both produce byte-identical event orderings.
type QueueKind = sim.QueueKind

// Event queue implementations.
const (
	// HeapQueue is the reference binary-heap event queue.
	HeapQueue = sim.HeapQueue
	// CalendarQueue is the bucketed O(1)-amortized event queue.
	CalendarQueue = sim.CalendarQueue
)

// ScaleConfig parameterizes one large-scale LR-Seluge run (up to 100k nodes
// on a random-disk multi-hop graph).
type ScaleConfig = scale.Config

// ScaleReport carries the throughput and memory figures of one large run.
type ScaleReport = scale.Report

// ScaleSnapshot is one incremental progress observation streamed during a
// large run.
type ScaleSnapshot = scale.Snapshot

// RunScale executes one large-scale LR-Seluge dissemination and reports
// engine throughput (events/sec), communication cost per node, and peak
// RSS. See cmd/lrscale for the benchmark artifact around it.
func RunScale(cfg ScaleConfig) (ScaleReport, error) { return scale.Run(cfg) }
