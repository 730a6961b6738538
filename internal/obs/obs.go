// Package obs is the runtime-telemetry subsystem: wall-clock attribution for
// simulation runs, periodic runtime snapshots, a post-mortem flight recorder,
// and an opt-in live HTTP export surface.
//
// Where internal/trace answers "what did the protocol do" on the virtual
// clock, obs answers "where did the real time go": phase timers installed
// on the engine, which samples whole events, and read from it by the radio,
// crypto and codec layers roll a run's wall time up into a per-subsystem
// attribution table with error bars, and a sampler captures
// heap/GC/throughput gauges as the run progresses.
//
// Overhead contract (mirroring internal/trace): a nil *Timers is the
// disabled instrumentation. Every recording method nil-checks its receiver
// and returns immediately, so fully instrumented hot paths pay one
// predictable branch per region boundary when obs is off. BENCH_obs.json
// gates both the disabled and the enabled cost.
//
// Determinism contract: obs reads the monotonic clock but its measurements
// never feed back into simulation decisions — same-seed runs stay
// byte-identical in metrics and transmission-trace hashes with obs on or
// off (pinned by internal/scale tests and the lrscale obsbench).
package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"time"
)

// AttrSchema is the attribution-table schema version, encoded as "v" in the
// JSON artifact; lrobs refuses schemas it does not know.
const AttrSchema = 3

// Phase identifies one instrumented subsystem region. The string values are
// the attribution table's wire vocabulary and must stay stable.
type Phase uint8

// Instrumented phases, in catalog (render) order. The set is deliberately
// exclusive-by-construction: regions nest (a crypto verify runs inside a
// radio delivery inside an event dispatch), and the Timers stamp-stack
// attributes each nanosecond to the innermost open region only, so phase
// times sum to at most the run's wall time less the cost of timing.
const (
	// PhaseQueuePop: one engine run-loop step, exclusive of the callback's
	// dispatch region: the queue's PopLE and the engine's bookkeeping, one
	// per loop iteration (the final empty pop included).
	PhaseQueuePop Phase = iota
	// PhaseQueuePush: event-queue Push calls.
	PhaseQueuePush
	// PhaseDispatch: one executed event callback, exclusive of every
	// nested phase below; its calls column counts events.
	PhaseDispatch
	// PhaseRadioDeliver: transmission fan-out (loss model, fault overlay,
	// batch construction) and delivery-batch walking, exclusive of the
	// receiver handlers' own nested phases.
	PhaseRadioDeliver
	// PhaseSigVerify: expensive ECDSA signature verification.
	PhaseSigVerify
	// PhasePuzzle: weak-authenticator (puzzle) checks on signature packets.
	PhasePuzzle
	// PhaseHashVerify: per-packet SHA-256 work — hash-image comparison,
	// Merkle proof verification and Merkle tree rebuilds.
	PhaseHashVerify
	// PhaseRSEncode: Reed-Solomon encoding (serving and M0 regeneration).
	PhaseRSEncode
	// PhaseRSDecode: Reed-Solomon decoding (page and M0 recovery).
	PhaseRSDecode
	// PhaseTrickle: Trickle advertisement-timer callbacks (fire and
	// interval rollover), exclusive of the broadcast work they schedule.
	PhaseTrickle

	numPhases
)

// phaseNames is the wire vocabulary, indexed by Phase.
var phaseNames = [numPhases]string{
	PhaseQueuePop:     "sim.queue.pop",
	PhaseQueuePush:    "sim.queue.push",
	PhaseDispatch:     "sim.dispatch",
	PhaseRadioDeliver: "radio.deliver",
	PhaseSigVerify:    "crypt.sig-verify",
	PhasePuzzle:       "crypt.puzzle",
	PhaseHashVerify:   "crypt.hash-verify",
	PhaseRSEncode:     "erasure.rs-encode",
	PhaseRSDecode:     "erasure.rs-decode",
	PhaseTrickle:      "trickle",
}

// String implements fmt.Stringer.
func (p Phase) String() string {
	if p < numPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Phases lists every phase in catalog order.
func Phases() []Phase {
	out := make([]Phase, 0, int(numPhases))
	for p := Phase(0); p < numPhases; p++ {
		out = append(out, p)
	}
	return out
}

// maxDepth bounds the region stack. Real nesting is four or five deep
// (dispatch > radio.deliver > crypt, queue.push inside dispatch); boundaries
// past the bound are counted but not timed, so a pathological nest degrades
// accounting, never safety.
const maxDepth = 32

// sampleStride is the event sampling stride: the engine times one popped
// event in sampleStride. Power of two.
const sampleStride = 16

// Timers is one run's phase accounting. A nil *Timers is the disabled
// instrumentation: every method on it is a nil-safe no-op costing one
// branch. Not safe for concurrent use; like the tracer it lives inside the
// single-threaded simulation loop.
//
// Sampling is per event, decided by the engine's run loop through
// BeginEvent: inside a sampled event every region boundary reads the clock
// and the stamp stack attributes each interval exclusively to the innermost
// open region; anywhere else Start only counts the call. Only sampled
// events pay for clock reads; Table prices that cost (see Attribution).
type Timers struct {
	clock func() int64 // monotonic ns; the seam tests drive the estimator through
	gc0   float64      // GC CPU seconds when the timers were created

	events   uint64 // events begun
	sampled  bool   // inside a sampled event
	spanning bool   // the sampled event in flight has read the clock
	first    int64  // clock at its first timed boundary
	stamp    int64  // clock at the most recent timed boundary
	depth    int
	overflow int
	stack    [maxDepth]Phase

	calls [numPhases]uint64
	// ev is the raw exclusive time of the sampled event in flight; EndEvent
	// folds it into per-phase sums and sums of squares over the n sampled
	// events, and the event's covered total into cov and covSq. intervals
	// counts the timed intervals each phase was given, span sums the
	// sampled events' walls from first to last timed boundary, and over
	// counts the sampled events whose raw time exceeds their span.
	ev        [numPhases]int64
	sum       [numPhases]float64
	sq        [numPhases]float64
	intervals [numPhases]float64
	n         uint64
	cov       float64
	covSq     float64
	span      float64
	over      uint64
}

// NewTimers returns enabled phase timers with all counters at zero.
//
//lrlint:effects(wallclock) the clock reads the monotonic time the region stamps are measured against; measurements never feed back into simulation
func NewTimers() *Timers {
	base := time.Now()
	return newTimers(func() int64 { return int64(time.Since(base)) })
}

// newTimers returns timers reading the given clock.
func newTimers(clock func() int64) *Timers {
	return &Timers{clock: clock, gc0: gcCPUSeconds()}
}

// gcCPUSeconds reads the runtime's cumulative GC CPU estimate.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// Enabled reports whether regions are being recorded.
func (t *Timers) Enabled() bool { return t != nil }

// BeginEvent marks the start of one popped event of the engine run loop and
// decides whether it is sampled: one event in sampleStride is. Every
// BeginEvent must be paired with an EndEvent, with no region open across
// either.
func (t *Timers) BeginEvent() {
	if t == nil {
		return
	}
	t.sampled = t.events%sampleStride == 0
	t.events++
}

// EndEvent closes the event opened by BeginEvent. A sampled event's
// per-phase times, span and interval counts are folded into the
// estimator's sums.
func (t *Timers) EndEvent() {
	if t != nil && t.sampled {
		t.fold()
	}
}

func (t *Timers) fold() {
	t.depth, t.overflow, t.sampled = 0, 0, false
	var total, span int64
	for p, x := range t.ev {
		t.sum[p] += float64(x)
		t.sq[p] += float64(x) * float64(x)
		total += x
		t.ev[p] = 0
	}
	if t.spanning {
		span, t.spanning = t.stamp-t.first, false
	}
	if total > span {
		t.over++
	}
	t.n++
	t.span += float64(span)
	t.cov += float64(total)
	t.covSq += float64(total) * float64(total)
}

// Start opens a region for phase p and counts the call. Inside a sampled
// event, elapsed time is attributed to p while it is open and an enclosing
// region's clock is paused (exclusive accounting). Every Start must be
// paired with an End on the same phase, in LIFO order.
//
// Start, End and the event pair inline down to their nil and sampled
// checks; only sampled boundaries pay a call.
func (t *Timers) Start(p Phase) {
	if t == nil {
		return
	}
	t.calls[p]++
	if t.sampled {
		t.open(p)
	}
}

func (t *Timers) open(p Phase) {
	if t.depth == maxDepth {
		t.overflow++
		return
	}
	now := t.clock()
	if t.depth > 0 {
		t.accrue(t.stack[t.depth-1], now)
	} else if !t.spanning {
		t.first, t.spanning = now, true
	}
	t.stack[t.depth] = p
	t.depth++
	t.stamp = now
}

// End closes the innermost open region, attributing the time since the last
// boundary to it inside a sampled event. The phase argument documents the
// call site; an unbalanced End (no open region) is ignored.
func (t *Timers) End(Phase) {
	if t != nil && t.sampled {
		t.close()
	}
}

func (t *Timers) close() {
	if t.overflow > 0 {
		t.overflow--
		return
	}
	if t.depth == 0 {
		return
	}
	now := t.clock()
	t.depth--
	t.accrue(t.stack[t.depth], now)
	t.stamp = now
}

// accrue attributes the interval since the last boundary to p.
func (t *Timers) accrue(p Phase, now int64) {
	t.ev[p] += now - t.stamp
	t.intervals[p]++
}

// Calls returns how many regions were opened for the phase.
func (t *Timers) Calls(p Phase) uint64 {
	if t == nil || p >= numPhases {
		return 0
	}
	return t.calls[p]
}

// stdErr is the standard error of the raw estimate sampleStride*sum, the
// sampled events treated as a simple random sample of n of the
// sampleStride*n events (finite-population corrected). It leaves out the
// error of the per-interval deduction.
func (t *Timers) stdErr(sum, sq float64) float64 {
	n := float64(t.n)
	if n < 2 {
		return 0
	}
	mean := sum / n
	v := (sq - n*mean*mean) / (n - 1)
	if v <= 0 {
		return 0
	}
	return sampleStride * math.Sqrt(n*v*(1-1.0/sampleStride))
}

// PhaseStat is one attribution-table row.
type PhaseStat struct {
	// Phase is the wire name (Phase.String).
	Phase string `json:"phase"`
	// NS is the estimated exclusive time attributed to the phase.
	NS int64 `json:"ns"`
	// Calls is the number of regions opened, counted exactly.
	Calls uint64 `json:"calls"`
	// NSPerCall is NS/Calls.
	NSPerCall float64 `json:"ns_per_call"`
	// Frac is NS as a fraction of the run's wall time.
	Frac float64 `json:"frac"`
	// FracSE is the standard error of Frac from event sampling.
	FracSE float64 `json:"frac_se"`
}

// Attribution is a per-run time-attribution table: subsystem phase rows plus
// the covered fraction of wall time, each with its sampling standard error.
//
// Timing is priced from the run itself. A sampled event spans its first to
// its last timed boundary; over n sampled events the unsampled mean is
// u = (WallNS - sum span) / (Events - n), and SamplingNS = sum span - n*u
// is what timing cost. Spread over the K timed intervals as c per interval,
// a phase with raw sampled time raw_p over K_p intervals is estimated as
// (Events/n)*(raw_p - c*K_p). Raw time sums to at most the spans, so
// CoveredNS + SamplingNS <= WallNS holds on every run by algebra.
type Attribution struct {
	SchemaV int `json:"v"`
	// WallNS is the measured run wall time the fractions are relative to.
	WallNS int64 `json:"wall_ns"`
	// Events is the number of events the engine popped, one in the
	// sampling stride of them timed.
	Events uint64 `json:"events"`
	// CoveredNS sums every phase's exclusive time.
	CoveredNS int64 `json:"covered_ns"`
	// CoveredFrac is CoveredNS/WallNS: how much of the run's wall time the
	// instrumented subsystems account for.
	CoveredFrac float64 `json:"covered_frac"`
	// CoveredSE is the standard error of CoveredFrac.
	CoveredSE float64 `json:"covered_se"`
	// GCNS is the runtime's GC CPU time over the timers' life. GC runs on
	// other threads too, so it is reported beside the phases, in neither
	// Phases nor CoveredNS.
	GCNS int64 `json:"gc_ns"`
	// SamplingNS is what timing cost the sampled events: their spans in
	// excess of as many unsampled events. Like GCNS it is in neither
	// Phases nor CoveredNS.
	SamplingNS int64 `json:"sampling_ns"`
	// OverCounted is the number of sampled events whose raw exclusive
	// phase time exceeds their span, that is, time counted twice.
	OverCounted uint64 `json:"over_counted"`
	// Phases holds one row per phase with at least one call, catalog order.
	Phases []PhaseStat `json:"phases"`
}

// Table rolls the timers up into an attribution table against the given run
// wall time (nanoseconds). Phases that never opened a region are omitted.
func (t *Timers) Table(wallNS int64) Attribution {
	a := Attribution{SchemaV: AttrSchema, WallNS: wallNS}
	if t == nil {
		return a
	}
	a.Events, a.OverCounted = t.events, t.over
	a.GCNS = int64((gcCPUSeconds() - t.gc0) * 1e9)
	// With no unsampled event to compare against, nothing is deducted.
	n, perInterval := float64(max(t.n, 1)), 0.0
	if t.events > t.n {
		excess := t.span - float64(t.n)*(float64(wallNS)-t.span)/float64(t.events-t.n)
		a.SamplingNS = int64(math.Floor(excess))
		var k float64
		for _, x := range t.intervals {
			k += x
		}
		if k > 0 {
			perInterval = excess / k
		}
	}
	// Rows and SamplingNS round down, so the identity holds in whole ns.
	for p := Phase(0); p < numPhases; p++ {
		if t.calls[p] == 0 {
			continue
		}
		ns := int64(math.Floor(float64(t.events) * (t.sum[p] - perInterval*t.intervals[p]) / n))
		a.Phases = append(a.Phases, PhaseStat{
			Phase:     p.String(),
			NS:        ns,
			Calls:     t.calls[p],
			NSPerCall: float64(ns) / float64(t.calls[p]),
			Frac:      a.frac(float64(ns)),
			FracSE:    a.frac(t.stdErr(t.sum[p], t.sq[p])),
		})
		a.CoveredNS += ns
	}
	a.CoveredFrac = a.frac(float64(a.CoveredNS))
	a.CoveredSE = a.frac(t.stdErr(t.cov, t.covSq))
	return a
}

// frac returns ns as a fraction of the run's wall time.
func (a Attribution) frac(ns float64) float64 {
	if a.WallNS <= 0 {
		return 0
	}
	return ns / float64(a.WallNS)
}

// DecodeAttribution strictly parses an attribution JSON artifact, rejecting
// unknown fields and unknown schema versions.
func DecodeAttribution(data []byte) (Attribution, error) {
	var a Attribution
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&a); err != nil {
		return Attribution{}, fmt.Errorf("obs: attribution: %w", err)
	}
	if a.SchemaV != AttrSchema {
		return Attribution{}, fmt.Errorf("obs: attribution schema v%d unsupported (want v%d)", a.SchemaV, AttrSchema)
	}
	return a, nil
}

// WriteText renders the attribution table as aligned human-readable text:
// rows in catalog order, each fraction with its standard error, then the
// covered-fraction summary line, and the GC and sampling lines, which the
// total excludes.
func (a Attribution) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-18s %12s %12s %12s %7s %6s\n", "phase", "cum_ms", "calls", "ns/call", "frac", "±se"); err != nil {
		return err
	}
	for _, row := range a.Phases {
		if _, err := fmt.Fprintf(w, "%-18s %12.2f %12d %12.1f %6.1f%% %5.1f%%\n",
			row.Phase, float64(row.NS)/1e6, row.Calls, row.NSPerCall, 100*row.Frac, 100*row.FracSE); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%-18s %12.2f %38s %6.1f%% %5.1f%% of %.2fms wall\n",
		"total", float64(a.CoveredNS)/1e6, "", 100*a.CoveredFrac, 100*a.CoveredSE, float64(a.WallNS)/1e6); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-18s %12.2f %38s %6.1f%% GC CPU, not in total\n",
		"gc", float64(a.GCNS)/1e6, "", 100*a.frac(float64(a.GCNS))); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%-18s %12.2f %38s %6.1f%% timing cost, not in total; %d events over-counted\n",
		"sampling", float64(a.SamplingNS)/1e6, "", 100*a.frac(float64(a.SamplingNS)), a.OverCounted)
	return err
}
