package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
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

// stride runs body in one sampled event and then the sampleStride-1
// unsampled events after it, each costing what body took on the clock. The
// unsampled mean then equals the sampled span, nothing is deducted, and a
// row reads exactly its raw time times the stride.
func stride(tm *Timers, c *fakeClock, body func()) {
	t0 := c.now
	sampledEvent(tm, body)
	cost := c.now - t0
	for i := 1; i < sampleStride; i++ {
		tm.BeginEvent()
		c.work(cost)
		tm.EndEvent()
	}
}

// strides runs m strides of events: the first of each is sampled and runs
// timed, the other sampleStride-1 run untimed.
func strides(tm *Timers, m int, timed, untimed func()) {
	for i := 0; i < m; i++ {
		sampledEvent(tm, timed)
		for j := 1; j < sampleStride; j++ {
			tm.BeginEvent()
			untimed()
			tm.EndEvent()
		}
	}
}

// event returns one event body: a dispatch region holding a hash check of
// hash ns and a queue push, five timed intervals in all, each paying tick
// on top of its work the way a sampled event pays for its clock reads.
func event(tm *Timers, c *fakeClock, tick, hash int64) func() {
	return func() {
		tm.Start(PhaseDispatch)
		c.work(20 + tick)
		tm.Start(PhaseHashVerify)
		c.work(hash + tick)
		tm.End(PhaseHashVerify)
		c.work(5 + tick)
		tm.Start(PhaseQueuePush)
		c.work(7 + tick)
		tm.End(PhaseQueuePush)
		c.work(1 + tick)
		tm.End(PhaseDispatch)
	}
}

// row returns the table's row for p, zero when p has none.
func row(a Attribution, p Phase) PhaseStat {
	for _, r := range a.Phases {
		if r.Phase == p.String() {
			return r
		}
	}
	return PhaseStat{}
}

// checkIdentity fails unless the rows and the timing cost fit in the wall
// and no sampled event was counted twice.
func checkIdentity(t *testing.T, a Attribution) {
	t.Helper()
	if a.CoveredNS+a.SamplingNS > a.WallNS {
		t.Errorf("covered %d + sampling %d > wall %d", a.CoveredNS, a.SamplingNS, a.WallNS)
	}
	if a.OverCounted != 0 {
		t.Errorf("%d sampled events over-counted", a.OverCounted)
	}
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
	a := tm.Table(1000)
	if a.SchemaV != AttrSchema || len(a.Phases) != 0 || a.Events != 0 || a.GCNS != 0 || a.SamplingNS != 0 || a.OverCounted != 0 {
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
	stride(tm, c, func() {
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
	a := tm.Table(c.now)
	want := map[Phase]int64{PhaseDispatch: 11, PhaseRadioDeliver: 25, PhaseHashVerify: 30, PhaseQueuePush: 7}
	for _, p := range Phases() {
		if got := row(a, p).NS; got != sampleStride*want[p] {
			t.Errorf("%v: NS = %d, want %d", p, got, sampleStride*want[p])
		}
	}
	if a.CoveredNS != sampleStride*73 || a.SamplingNS != 0 {
		t.Errorf("covered = %d, sampling = %d, want %d (the event's whole span, once) and 0", a.CoveredNS, a.SamplingNS, sampleStride*73)
	}
	checkIdentity(t, a)
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
	a := tm.Table(c.now)
	if sig, radio := row(a, PhaseSigVerify).NS, row(a, PhaseRadioDeliver).NS; sig != 0 || radio != 0 {
		t.Fatalf("unsampled regions got time: sig=%d radio=%d", sig, radio)
	}
}

// One event in sampleStride is timed, and the n sampled events stand for
// all of them: a phase's time is its sampled total times events/n, which
// is the stride only when the events fill whole strides.
func TestEventSamplingScalesByStride(t *testing.T) {
	tm, c := newFake()
	const events, cost = 5*sampleStride + 3, 7
	for i := 0; i < events; i++ {
		tm.BeginEvent()
		tm.Start(PhaseDispatch)
		c.work(cost)
		tm.End(PhaseDispatch)
		tm.EndEvent()
	}
	// Events 0, S, ..., 5S are sampled: n = 6 of 83, each costing 7 like
	// the unsampled ones, so nothing is deducted.
	a := tm.Table(c.now)
	if a.Events != events || a.Phases[0].Calls != events {
		t.Fatalf("events %d calls %d, want %d each", a.Events, a.Phases[0].Calls, events)
	}
	if got, want := a.Phases[0].NS, int64(events*cost); got != want || a.SamplingNS != 0 {
		t.Fatalf("NS = %d, sampling = %d, want %d = 83/6 x sampled 42, and 0", got, a.SamplingNS, want)
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

// The per-interval cost comes from the run: sampled events that pay 3 ns
// per timed interval, against unsampled events of known cost, price it at
// exactly 3, report the excess as sampling and deduct it from every row.
func TestBoundaryCostDeducted(t *testing.T) {
	tm, c := newFake()
	const m, tick, hash = 4, 3, 30
	strides(tm, m, event(tm, c, tick, hash), event(tm, c, 0, hash))
	a := tm.Table(c.now)
	if want := int64(m * 5 * tick); a.SamplingNS != want {
		t.Errorf("sampling = %d, want %d (five intervals at %d ns in each of %d sampled events)", a.SamplingNS, want, tick, m)
	}
	want := map[Phase]int64{PhaseDispatch: 26, PhaseHashVerify: hash, PhaseQueuePush: 7}
	for _, p := range Phases() {
		if got := row(a, p).NS; got != m*sampleStride*want[p] {
			t.Errorf("%v: NS = %d, want %d", p, got, m*sampleStride*want[p])
		}
	}
	if a.CoveredNS+a.SamplingNS != a.WallNS {
		t.Errorf("covered %d + sampling %d != wall %d with no untimed gap", a.CoveredNS, a.SamplingNS, a.WallNS)
	}
	checkIdentity(t, a)
}

// Extra cost planted in one phase's regions, in every event, moves that
// phase's row by exactly the cost and leaves every other row and the
// sampling cost where they were.
func TestPhaseCostMovesOnlyItsRow(t *testing.T) {
	const m, tick, extra = 4, 3, 11
	table := func(hash int64) Attribution {
		tm, c := newFake()
		strides(tm, m, event(tm, c, tick, hash), event(tm, c, 0, hash))
		return tm.Table(c.now)
	}
	base, moved := table(30), table(30+extra)
	for _, p := range Phases() {
		want := row(base, p).NS
		if p == PhaseHashVerify {
			want += m * sampleStride * extra
		}
		if got := row(moved, p).NS; got != want {
			t.Errorf("%v: NS = %d, want %d", p, got, want)
		}
	}
	if base.SamplingNS != moved.SamplingNS {
		t.Errorf("sampling moved: %d -> %d", base.SamplingNS, moved.SamplingNS)
	}
	checkIdentity(t, moved)
}

// A sampled event preempted for a millisecond inflates the run's excess
// and with it the deduction, but the rows and the sampling cost still fit
// in the wall, and nothing is over-counted.
func TestPreemptedSampledEventKeepsIdentity(t *testing.T) {
	tm, c := newFake()
	strides(tm, 3, event(tm, c, 3, 30), event(tm, c, 0, 30))
	sampledEvent(tm, func() {
		tm.Start(PhaseDispatch)
		tm.Start(PhaseHashVerify)
		c.work(1_000_000)
		tm.End(PhaseHashVerify)
		tm.End(PhaseDispatch)
	})
	strides(tm, 3, event(tm, c, 3, 30), event(tm, c, 0, 30))
	a := tm.Table(c.now)
	if a.SamplingNS < 1_000_000/2 {
		t.Errorf("sampling = %d, want the preemption in it", a.SamplingNS)
	}
	checkIdentity(t, a)
}

// Time counted twice inside a sampled event trips the exact gate: here an
// interval is accrued and then accrued again from the same stamp.
func TestOverCountGate(t *testing.T) {
	tm, c := newFake()
	stride(tm, c, event(tm, c, 0, 30))
	if a := tm.Table(c.now); a.OverCounted != 0 {
		t.Fatalf("clean event over-counted: %d", a.OverCounted)
	}
	stride(tm, c, func() {
		tm.Start(PhaseDispatch)
		c.work(10)
		tm.accrue(PhaseDispatch, c.now)
		tm.Start(PhaseHashVerify)
		c.work(5)
		tm.End(PhaseHashVerify)
		tm.End(PhaseDispatch)
	})
	stride(tm, c, event(tm, c, 0, 30))
	if a := tm.Table(c.now); a.OverCounted != 1 {
		t.Fatalf("over-counted = %d, want 1 (the planted event)", a.OverCounted)
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
	stride(tm, c, func() {
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
	a := tm.Table(c.now)
	if got, want := row(a, PhaseDispatch).NS, int64(sampleStride*65); got != want {
		t.Errorf("dispatch NS = %d, want %d (10+20+30+5, each level once)", got, want)
	}
	if got, want := row(a, PhaseSigVerify).NS, int64(sampleStride*4); got != want {
		t.Errorf("sig-verify NS = %d, want %d", got, want)
	}
	if got, want := a.CoveredNS, int64(sampleStride*69); got != want {
		t.Errorf("covered = %d, want %d", got, want)
	}
	checkIdentity(t, a)
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
	stride(tm, c, func() {
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
	a := tm.Table(c.now)
	want := map[Phase]int64{PhaseRadioDeliver: 10*over + 2, PhaseQueuePush: 7}
	for _, p := range Phases() {
		if got := row(a, p).NS; got != sampleStride*want[p] {
			t.Errorf("%v: NS = %d, want %d", p, got, sampleStride*want[p])
		}
	}
	checkIdentity(t, a)
}

// Every timed interval inside a sampled event pays for its boundaries; the
// run-derived cost deducted per interval gives a parent back exactly what
// its many short children's boundaries took from it.
func TestLeafSamplingCompensatesParent(t *testing.T) {
	tm, c := newFake()
	const children, m = 50, 2
	body := func(tick int64) func() {
		return func() {
			tm.Start(PhaseRadioDeliver)
			for i := 0; i < children; i++ {
				c.work(2 + tick)
				tm.Start(PhaseHashVerify)
				c.work(5 + tick)
				tm.End(PhaseHashVerify)
			}
			c.work(9 + tick)
			tm.End(PhaseRadioDeliver)
		}
	}
	strides(tm, m, body(3), body(0))
	a := tm.Table(c.now)
	if got, want := row(a, PhaseRadioDeliver).NS, int64(m*sampleStride*(2*children+9)); got != want {
		t.Errorf("parent NS = %d, want %d (its own work only)", got, want)
	}
	if got, want := row(a, PhaseHashVerify).NS, int64(m*sampleStride*5*children); got != want {
		t.Errorf("children NS = %d, want %d", got, want)
	}
	if got := tm.Calls(PhaseHashVerify); got != m*sampleStride*children {
		t.Errorf("children calls = %d, want %d", got, m*sampleStride*children)
	}
	checkIdentity(t, a)
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
	if a.SchemaV != AttrSchema || a.WallNS != 5000 || a.Events != 0 || a.CoveredNS != 0 || a.CoveredSE != 0 || a.SamplingNS != 0 || len(a.Phases) != 0 {
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
		if tm.Calls(p) != 0 {
			t.Fatalf("%v: nil calls %d, want 0", p, tm.Calls(p))
		}
	}
	if a := tm.Table(1000); len(a.Phases) != 0 || a.CoveredNS != 0 {
		t.Fatalf("nil Table = %+v", a)
	}
}

func TestAttributionRoundTrip(t *testing.T) {
	tm, c := newFake()
	sampledEvent(tm, func() {
		tm.Start(PhaseRSDecode)
		c.work(1000)
		tm.End(PhaseRSDecode)
	})
	a := tm.Table(2000)
	if a.CoveredFrac != 0.5 {
		t.Fatalf("covered frac = %v, want 0.5", a.CoveredFrac)
	}
	strides(tm, 2, event(tm, c, 3, 30), event(tm, c, 0, 30))
	a = tm.Table(c.now)
	if a.SamplingNS == 0 {
		t.Fatal("no sampling cost to carry through the round trip")
	}
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeAttribution(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, a) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", back, a)
	}
}

func TestDecodeAttributionStrict(t *testing.T) {
	if _, err := DecodeAttribution([]byte(`{"v":3,"wall_ns":1,"covered_ns":0,"covered_frac":0,"phases":[],"bogus":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := DecodeAttribution([]byte(`{"v":2,"wall_ns":1,"covered_ns":0,"covered_frac":0,"phases":[]}`)); err == nil {
		t.Fatal("schema v2, from before the sampling cost, accepted")
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
	if err := tm.Table(1000).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"phase", "±se", "crypt.sig-verify", "total", "wall", "gc", "sampling", "0 events over-counted"} {
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
