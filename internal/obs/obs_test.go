package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// fakeClock is a hand-advanced clock for driving the estimator exactly: the
// timers read now, and the test moves it with work.
type fakeClock struct {
	now   int64
	reads int
}

func (c *fakeClock) read() int64 { c.reads++; return c.now }

func (c *fakeClock) work(ns int64) { c.now += ns }

func newFake() (*Timers, *fakeClock) {
	c := &fakeClock{}
	return newTimers(c.read), c
}

// sampledEvent runs body inside an event the timers sample: it skips
// the sampleStride-1 events that follow a sampled one, if any are due.
func sampledEvent(tm *Timers, body func()) {
	for tm.events%sampleStride != 0 {
		tm.BeginEvent()
		tm.EndEvent()
	}
	tm.BeginEvent()
	body()
	tm.EndEvent()
}

func TestNilTimersAreSafe(t *testing.T) {
	var tm *Timers
	if tm.Enabled() {
		t.Fatal("nil timers report enabled")
	}
	tm.BeginEvent()
	tm.Start(PhaseDispatch)
	tm.End(PhaseDispatch)
	tm.EndEvent()
	if got := tm.Calls(PhaseDispatch); got != 0 {
		t.Fatalf("nil Calls = %d, want 0", got)
	}
	if got := tm.NS(PhaseDispatch); got != 0 {
		t.Fatalf("nil NS = %d, want 0", got)
	}
	a := tm.Table(1000)
	if a.SchemaV != AttrSchema || len(a.Phases) != 0 || a.Events != 0 || a.GCNS != 0 {
		t.Fatalf("nil Table = %+v", a)
	}
}

func TestTimersCountsAndOrder(t *testing.T) {
	tm, _ := newFake()
	if !tm.Enabled() {
		t.Fatal("enabled timers report disabled")
	}
	sampledEvent(tm, func() {
		tm.Start(PhaseDispatch)
		tm.Start(PhaseRadioDeliver)
		tm.Start(PhaseSigVerify)
		tm.End(PhaseSigVerify)
		tm.End(PhaseRadioDeliver)
		tm.End(PhaseDispatch)
		tm.Start(PhaseQueuePop)
		tm.End(PhaseQueuePop)
	})

	if got := tm.Calls(PhaseDispatch); got != 1 {
		t.Fatalf("dispatch calls = %d, want 1", got)
	}

	a := tm.Table(0)
	if a.Events != 1 {
		t.Fatalf("events = %d, want 1", a.Events)
	}
	wantOrder := []string{"sim.queue.pop", "sim.dispatch", "radio.deliver", "crypt.sig-verify"}
	if len(a.Phases) != len(wantOrder) {
		t.Fatalf("rows = %d, want %d: %+v", len(a.Phases), len(wantOrder), a.Phases)
	}
	for i, row := range a.Phases {
		if row.Phase != wantOrder[i] {
			t.Fatalf("row %d phase = %q, want %q", i, row.Phase, wantOrder[i])
		}
	}
}

// Exclusive accounting inside a sampled event: each interval goes to the
// innermost open region only, so a parent keeps exactly the time outside
// its children, and nothing is counted twice.
func TestTimersExclusiveAccounting(t *testing.T) {
	tm, c := newFake()
	sampledEvent(tm, func() {
		tm.Start(PhaseDispatch)
		c.work(10)
		tm.Start(PhaseRadioDeliver)
		c.work(20)
		tm.Start(PhaseHashVerify)
		c.work(30)
		tm.End(PhaseHashVerify)
		c.work(5)
		tm.End(PhaseRadioDeliver)
		tm.Start(PhaseQueuePush)
		c.work(7)
		tm.End(PhaseQueuePush)
		c.work(1)
		tm.End(PhaseDispatch)
	})
	want := map[Phase]int64{PhaseDispatch: 11, PhaseRadioDeliver: 25, PhaseHashVerify: 30, PhaseQueuePush: 7}
	for _, p := range Phases() {
		if got := tm.NS(p); got != sampleStride*want[p] {
			t.Errorf("%v: NS = %d, want %d", p, got, sampleStride*want[p])
		}
	}
	if got := tm.Table(0).CoveredNS; got != sampleStride*73 {
		t.Errorf("covered = %d, want %d (the event's whole span, once)", got, sampleStride*73)
	}
}

// Outside a sampled event Start and End only count: they never read the
// clock and attribute no time, whether in an unsampled event or outside
// any event.
func TestUnsampledEventsCountOnly(t *testing.T) {
	tm, c := newFake()
	region := func() {
		tm.Start(PhaseRadioDeliver)
		tm.Start(PhaseSigVerify)
		c.work(100)
		tm.End(PhaseSigVerify)
		tm.End(PhaseRadioDeliver)
	}
	region() // before any event
	if c.reads != 0 {
		t.Fatalf("clock read %d times before any event", c.reads)
	}
	sampledEvent(tm, func() {})
	c.reads = 0 // the sampled event's end probes the boundary cost
	for i := 1; i < sampleStride; i++ {
		tm.BeginEvent()
		region()
		tm.EndEvent()
	}
	region() // between events
	if c.reads != 0 {
		t.Fatalf("clock read %d times outside sampled events", c.reads)
	}
	if got, want := tm.Calls(PhaseSigVerify), uint64(sampleStride+1); got != want {
		t.Fatalf("calls = %d, want %d (every call counted)", got, want)
	}
	if tm.NS(PhaseSigVerify) != 0 || tm.NS(PhaseRadioDeliver) != 0 {
		t.Fatalf("unsampled regions got time: sig=%d radio=%d", tm.NS(PhaseSigVerify), tm.NS(PhaseRadioDeliver))
	}
}

// One event in sampleStride is timed, and its time stands for the stride:
// a phase's NS is its sampled total times sampleStride.
func TestEventSamplingScalesByStride(t *testing.T) {
	tm, c := newFake()
	const rounds = 5
	for i := 0; i < rounds*sampleStride; i++ {
		tm.BeginEvent()
		tm.Start(PhaseDispatch)
		c.work(int64(i))
		tm.End(PhaseDispatch)
		tm.EndEvent()
	}
	// The sampled events are 0, S, 2S, ...; their costs equal their index.
	var sampled int64
	for r := 0; r < rounds; r++ {
		sampled += int64(r * sampleStride)
	}
	if got := tm.NS(PhaseDispatch); got != sampleStride*sampled {
		t.Fatalf("NS = %d, want %d = %d x sampled %d", got, sampleStride*sampled, sampleStride, sampled)
	}
	a := tm.Table(1)
	if a.Events != rounds*sampleStride || a.Phases[0].Calls != rounds*sampleStride {
		t.Fatalf("events %d calls %d, want %d each", a.Events, a.Phases[0].Calls, rounds*sampleStride)
	}
}

// A workload whose sampled events all cost the same has no sampling error;
// one whose events vary has some, computed from the per-event sums.
func TestStdErrFromSampledEvents(t *testing.T) {
	tm, c := newFake()
	for i := 0; i < 20; i++ {
		sampledEvent(tm, func() {
			tm.Start(PhaseDispatch)
			c.work(300)
			tm.Start(PhaseHashVerify)
			c.work(40)
			tm.End(PhaseHashVerify)
			tm.End(PhaseDispatch)
		})
	}
	a := tm.Table(1_000_000)
	if a.CoveredSE != 0 {
		t.Errorf("constant workload: covered_se = %v, want 0", a.CoveredSE)
	}
	for _, row := range a.Phases {
		if row.FracSE != 0 {
			t.Errorf("constant workload: %s frac_se = %v, want 0", row.Phase, row.FracSE)
		}
	}

	// Sampled costs 0 and 2 alternating: sample variance n/(n-1), so the
	// total's standard error is S*sqrt(n * n/(n-1) * (1-1/S)).
	tm, c = newFake()
	const n = 10
	for i := 0; i < n; i++ {
		sampledEvent(tm, func() {
			tm.Start(PhaseDispatch)
			c.work(int64(2 * (i % 2)))
			tm.End(PhaseDispatch)
		})
	}
	want := sampleStride * math.Sqrt(n*(n/(n-1.0))*(1-1.0/sampleStride))
	a = tm.Table(1)
	if got := a.Phases[0].FracSE; math.Abs(got-want) > 1e-9 {
		t.Errorf("frac_se = %v, want %v", got, want)
	}
	if math.Abs(a.CoveredSE-want) > 1e-9 {
		t.Errorf("covered_se = %v, want %v", a.CoveredSE, want)
	}
}

// The calibrated boundary cost is what an empty region pair adds per
// interval, and deducting it leaves empty regions with no time.
func TestBoundaryCostDeducted(t *testing.T) {
	c := &fakeClock{}
	tm := newTimers(func() int64 { c.now += 3; return c.now })
	tm.calibrate()
	if tm.boundary != 3 || tm.Calls(PhaseDispatch) != 0 {
		t.Fatalf("calibrated boundary = %v with %d calls left behind, want 3 and 0", tm.boundary, tm.Calls(PhaseDispatch))
	}
	sampledEvent(tm, func() {
		tm.Start(PhaseDispatch)
		tm.Start(PhaseQueuePush)
		tm.End(PhaseQueuePush)
		c.work(50)
		tm.End(PhaseDispatch)
	})
	if got := tm.NS(PhaseQueuePush); got != 0 {
		t.Errorf("empty region NS = %d, want 0", got)
	}
	if got := tm.NS(PhaseDispatch); got != sampleStride*50 {
		t.Errorf("dispatch NS = %d, want %d", got, sampleStride*50)
	}
}

func TestTimersDepthOverflow(t *testing.T) {
	tm, _ := newFake()
	const over = 5
	sampledEvent(tm, func() {
		for i := 0; i < maxDepth+over; i++ {
			tm.Start(PhaseDispatch)
		}
		for i := 0; i < maxDepth+over; i++ {
			tm.End(PhaseDispatch)
		}
		if tm.depth != 0 {
			t.Fatalf("depth = %d after balanced ends, want 0", tm.depth)
		}
		// Unbalanced End after drain is ignored.
		tm.End(PhaseDispatch)
		if tm.depth != 0 {
			t.Fatalf("depth = %d after extra end, want 0", tm.depth)
		}
	})
	if got := tm.Calls(PhaseDispatch); got != maxDepth+over {
		t.Fatalf("calls = %d, want %d", got, maxDepth+over)
	}
}

// Regions inside a sampled event nest freely, a phase inside itself too:
// each level keeps only its own exclusive time, so a recursive phase sums
// its levels once and the event is covered exactly once.
func TestSampledRegionNesting(t *testing.T) {
	tm, c := newFake()
	sampledEvent(tm, func() {
		tm.Start(PhaseDispatch)
		c.work(10)
		tm.Start(PhaseDispatch)
		c.work(20)
		tm.Start(PhaseSigVerify)
		c.work(4)
		tm.Start(PhaseDispatch)
		c.work(30)
		tm.End(PhaseDispatch)
		tm.End(PhaseSigVerify)
		tm.End(PhaseDispatch)
		c.work(5)
		tm.End(PhaseDispatch)
	})
	if got := tm.Calls(PhaseDispatch); got != 3 {
		t.Fatalf("dispatch calls = %d, want 3", got)
	}
	if got, want := tm.NS(PhaseDispatch), int64(sampleStride*65); got != want {
		t.Errorf("dispatch NS = %d, want %d (10+20+30+5, each level once)", got, want)
	}
	if got, want := tm.NS(PhaseSigVerify), int64(sampleStride*4); got != want {
		t.Errorf("sig-verify NS = %d, want %d", got, want)
	}
	if got, want := tm.Table(0).CoveredNS, int64(sampleStride*69); got != want {
		t.Errorf("covered = %d, want %d", got, want)
	}
	if tm.depth != 0 {
		t.Fatalf("depth = %d after the event, want 0", tm.depth)
	}
}

// Regions past maxDepth inside a sampled event are counted but not timed:
// their time stays with the innermost tracked region, and once they close
// the stack times the rest of the event normally.
func TestSampledRegionOverflow(t *testing.T) {
	tm, c := newFake()
	const over = 3
	sampledEvent(tm, func() {
		for i := 0; i < maxDepth-1; i++ {
			tm.Start(PhaseDispatch)
		}
		tm.Start(PhaseRadioDeliver) // the innermost tracked region
		for i := 0; i < over; i++ {
			tm.Start(PhaseHashVerify)
			c.work(10)
		}
		for i := 0; i < over; i++ {
			tm.End(PhaseHashVerify)
		}
		c.work(2)
		tm.End(PhaseRadioDeliver)
		for i := 0; i < maxDepth-1; i++ {
			tm.End(PhaseDispatch)
		}
		tm.Start(PhaseQueuePush)
		c.work(7)
		tm.End(PhaseQueuePush)
	})
	if got := tm.Calls(PhaseHashVerify); got != over {
		t.Fatalf("overflowed calls = %d, want %d", got, over)
	}
	want := map[Phase]int64{PhaseRadioDeliver: 10*over + 2, PhaseQueuePush: 7}
	for _, p := range Phases() {
		if got := tm.NS(p); got != sampleStride*want[p] {
			t.Errorf("%v: NS = %d, want %d", p, got, sampleStride*want[p])
		}
	}
}

// Every region boundary inside a sampled event costs a clock read; the
// boundary cost deducted per interval gives a parent back exactly what
// its many short children's boundaries took from it.
func TestLeafSamplingCompensatesParent(t *testing.T) {
	c := &fakeClock{}
	const tick = 3 // each clock read costs this much
	tm := newTimers(func() int64 { c.now += tick; return c.now })
	tm.calibrate()
	if tm.boundary != tick {
		t.Fatalf("calibrated boundary = %v, want %d", tm.boundary, tick)
	}
	const children = 50
	sampledEvent(tm, func() {
		tm.Start(PhaseRadioDeliver)
		for i := 0; i < children; i++ {
			c.work(2)
			tm.Start(PhaseHashVerify)
			c.work(5)
			tm.End(PhaseHashVerify)
		}
		c.work(9)
		tm.End(PhaseRadioDeliver)
	})
	if got, want := tm.NS(PhaseRadioDeliver), int64(sampleStride*(2*children+9)); got != want {
		t.Errorf("parent NS = %d, want %d (its own work only)", got, want)
	}
	if got, want := tm.NS(PhaseHashVerify), int64(sampleStride*5*children); got != want {
		t.Errorf("children NS = %d, want %d", got, want)
	}
	if got := tm.Calls(PhaseHashVerify); got != children {
		t.Errorf("children calls = %d, want %d", got, children)
	}
}

// Nil timers take the whole sampled-event cycle, more events than one
// stride with regions inside them, and yield an empty table.
func TestNilSampledSafe(t *testing.T) {
	var tm *Timers
	for i := 0; i < 3*sampleStride; i++ {
		tm.BeginEvent()
		tm.Start(PhaseDispatch)
		tm.Start(PhaseRSDecode)
		tm.End(PhaseRSDecode)
		tm.End(PhaseDispatch)
		tm.EndEvent()
	}
	a := tm.Table(5000)
	if a.SchemaV != AttrSchema || a.WallNS != 5000 || a.Events != 0 || a.CoveredNS != 0 || a.CoveredSE != 0 || len(a.Phases) != 0 {
		t.Fatalf("nil Table = %+v", a)
	}
	var buf bytes.Buffer
	if err := a.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
}

// Nil timers take innermost regions nested past maxDepth, unbalanced Ends
// and out-of-range phases, and report nothing for any of them.
func TestNilLeafSafe(t *testing.T) {
	var tm *Timers
	for i := 0; i < maxDepth+4; i++ {
		tm.Start(PhaseHashVerify)
	}
	for i := 0; i < maxDepth+8; i++ {
		tm.End(PhaseHashVerify)
	}
	for _, p := range append(Phases(), Phase(200)) {
		if tm.Calls(p) != 0 || tm.NS(p) != 0 {
			t.Fatalf("%v: nil calls %d ns %d, want 0", p, tm.Calls(p), tm.NS(p))
		}
	}
}

func TestAttributionRoundTrip(t *testing.T) {
	tm, c := newFake()
	sampledEvent(tm, func() {
		tm.Start(PhaseRSDecode)
		c.work(1000)
		tm.End(PhaseRSDecode)
	})
	a := tm.Table(tm.NS(PhaseRSDecode) * 2)
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeAttribution(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.CoveredNS != a.CoveredNS || back.Events != 1 || len(back.Phases) != 1 || back.Phases[0].Phase != "erasure.rs-decode" {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, a)
	}
	if back.CoveredFrac != 0.5 {
		t.Fatalf("covered frac = %v, want ~0.5", back.CoveredFrac)
	}
}

func TestDecodeAttributionStrict(t *testing.T) {
	if _, err := DecodeAttribution([]byte(`{"v":2,"wall_ns":1,"covered_ns":0,"covered_frac":0,"phases":[],"bogus":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := DecodeAttribution([]byte(`{"v":99,"wall_ns":1,"covered_ns":0,"covered_frac":0,"phases":[]}`)); err == nil {
		t.Fatal("unknown schema accepted")
	}
}

func TestWriteText(t *testing.T) {
	tm, c := newFake()
	sampledEvent(tm, func() {
		tm.Start(PhaseSigVerify)
		c.work(1000)
		tm.End(PhaseSigVerify)
	})
	var buf bytes.Buffer
	if err := tm.Table(tm.NS(PhaseSigVerify)).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"phase", "±se", "crypt.sig-verify", "total", "wall", "gc"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestPhaseStringStable(t *testing.T) {
	// The wire vocabulary is part of the artifact schema; renames break
	// downstream tooling.
	want := map[Phase]string{
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
	for p, s := range want {
		if p.String() != s {
			t.Fatalf("%d.String() = %q, want %q", p, p.String(), s)
		}
	}
	if got := Phase(200).String(); got != "phase(200)" {
		t.Fatalf("out-of-range String = %q", got)
	}
	if got := len(Phases()); got != len(want) {
		t.Fatalf("Phases() = %d entries, want %d", got, len(want))
	}
}
