// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and an event queue ordered by firing
// time. Events scheduled for the same instant fire in scheduling order, which
// makes runs fully reproducible for a fixed seed. The engine is
// single-threaded by design: protocol code runs inside event callbacks and
// must not block.
//
// Two event-queue implementations sit behind the Queue interface: a binary
// min-heap (the reference) and a calendar queue with O(1) amortized
// schedule/pop for large-scale runs. Both pop events in exactly the same
// (time, sequence) order, so the choice cannot affect simulation results;
// TestQueueEquivalence and FuzzQueueEquivalence pin this.
//
// Cancellation is eager: Timer.Stop takes the record out of the queue at
// once, so the queue holds only live events and Engine.Pending is its
// length. One consequence is visible to callers: Run(until) with nothing
// live left advances the clock to until, even when the cancelled timers
// were scheduled past it.
//
// Re-arming is lazy: Engine.Reschedule of a live timer to a later firing
// key leaves the record where it is queued and notes the new key; the
// queue re-keys the record when it surfaces at its old key. A re-key is
// not an executed event: it neither counts in Events nor moves the clock.
package sim

import (
	"fmt"
	"math"
	"time"

	"lrseluge/internal/obs"
)

// Time is a virtual timestamp measured in nanoseconds since the start of the
// simulation. It is deliberately distinct from time.Time: simulated protocols
// must never consult the wall clock.
type Time int64

// Common durations, mirroring the time package for readability at call sites.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond

	// MaxTime is the largest representable virtual time. Run(MaxTime)
	// drains the event queue completely.
	MaxTime Time = math.MaxInt64
)

// Duration converts a standard library duration to virtual time.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the virtual time as a duration.
func (t Time) String() string { return time.Duration(t).String() }

// timer is the pooled event record that lives inside the queue. Records are
// recycled through the engine free list once popped or stopped, with gen
// incremented at each recycle (and at each Reschedule) so stale Timer
// handles cannot touch the record's next life. A record is queued exactly
// while a handle's gen matches it.
type timer struct {
	// at and seq are the key the record is queued under.
	at  Time
	seq uint64
	fn  func()
	eng *Engine
	gen uint32
	// pos is the record's position inside its queue, kept current by the
	// queue so Remove finds it without a search: the heap slot, the index
	// in its calendar bucket, or its calendar stage slot.
	pos int
	// moved marks a record Reschedule re-armed to the later firing key
	// (nextAt, nextSeq). It stays queued under (at, seq) until it
	// surfaces; the queue then re-keys it instead of popping it.
	moved   bool
	nextAt  Time
	nextSeq uint64
}

// rekey moves a surfaced record to its firing key. The queue calls it on a
// moved record it finds at its minimum, then re-queues the record.
func (ev *timer) rekey() {
	ev.at, ev.seq, ev.moved = ev.nextAt, ev.nextSeq, false
}

// Timer is a value handle to a scheduled event. The zero value is an inert
// handle: Stop reports false and Active reports false. A Timer may be stopped
// before it fires; stopping an already-fired or already-stopped timer is a
// no-op, even after the underlying record has been recycled for a later
// event (the generation stamp detects staleness).
type Timer struct {
	ev  *timer
	gen uint32
	at  Time
}

// Stop cancels the timer. It reports whether the timer was still pending.
// The record leaves the queue and returns to the free list at once.
//
//lrlint:hotpath one call per cancelled timer
func (t Timer) Stop() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen {
		return false
	}
	ev.eng.queue.Remove(ev)
	ev.eng.recycle(ev)
	return true
}

// Active reports whether the timer is still scheduled to fire. Callers that
// cancel only to re-arm test Active and then call Reschedule.
func (t Timer) Active() bool {
	return t.ev != nil && t.ev.gen == t.gen
}

// At reports the virtual time the timer is (or was) scheduled to fire.
func (t Timer) At() Time { return t.at }

// QueueKind selects the event-queue implementation for an Engine.
type QueueKind int

const (
	// HeapQueue is the reference binary min-heap: O(log n) schedule/pop,
	// no tuning parameters.
	HeapQueue QueueKind = iota
	// CalendarQueue is the bucketed calendar queue: O(1) amortized
	// schedule/pop, built for runs with 10k-100k concurrently pending
	// events. Pop order is identical to HeapQueue by construction.
	CalendarQueue
)

// String names the queue kind as accepted by ParseQueueKind.
func (k QueueKind) String() string {
	switch k {
	case HeapQueue:
		return "heap"
	case CalendarQueue:
		return "calendar"
	}
	return fmt.Sprintf("QueueKind(%d)", int(k))
}

// ParseQueueKind parses a queue-kind name ("heap" or "calendar").
func ParseQueueKind(s string) (QueueKind, error) {
	switch s {
	case "heap":
		return HeapQueue, nil
	case "calendar":
		return CalendarQueue, nil
	}
	return 0, fmt.Errorf("sim: unknown queue kind %q (want heap or calendar)", s)
}

// Queue is the engine's event-queue abstraction: a priority queue ordered by
// (time, sequence). Implementations must pop the unique minimum, so every
// Queue yields byte-identical simulations. The element type is unexported;
// implementations live in this package and are selected via QueueKind.
type Queue interface {
	// Push inserts an event record. The engine guarantees ev.at is never
	// earlier than the engine clock, and so never earlier than the most
	// recently popped record: every pop is an executed event.
	Push(ev *timer)
	// PopLE removes and returns the earliest event if its time is at or
	// before horizon, or returns nil (leaving the queue's live events
	// untouched). A moved record that surfaces at or before horizon is
	// re-keyed (timer.rekey) and re-queued in place of a pop; a re-key
	// must not raise any lower bound the queue keeps on future pushes,
	// because the engine clock does not move with it.
	PopLE(horizon Time) *timer
	// Remove takes a queued record out of the queue.
	Remove(ev *timer)
	// Len reports the number of queued records.
	Len() int
	// heapBytes reports the queue's own arrays in heap bytes, not the
	// records they point to.
	heapBytes() int64
}

// Engine is a discrete-event simulation engine. The zero value is ready to
// use and is backed by the heap queue.
type Engine struct {
	now     Time
	seq     uint64
	queue   Queue
	free    []*timer
	running bool
	stopped bool
	events  uint64
	obs     *obs.Timers
}

// New returns a fresh engine with the clock at zero, backed by the reference
// heap queue.
func New() *Engine { return &Engine{} }

// NewWithQueue returns a fresh engine backed by the given queue kind.
func NewWithQueue(kind QueueKind) *Engine {
	e := &Engine{}
	if kind == CalendarQueue {
		e.queue = newCalendarQueue()
	} else {
		e.queue = newHeapQueue()
	}
	return e
}

// SetObs installs phase timers for wall-time attribution. The engine is the
// one install point: the run loop samples events through them, and the
// radio, Trickle and crypto layers built on the engine read them back with
// Obs at construction, so install them first. A nil value (the default)
// disables instrumentation; recording methods on a nil *obs.Timers are
// single-branch no-ops, so the hot loops stay unconditional.
func (e *Engine) SetObs(t *obs.Timers) { e.obs = t }

// Obs returns the installed phase timers (nil when disabled).
func (e *Engine) Obs() *obs.Timers { return e.obs }

// HeapBytes returns the heap bytes of the engine's event records, queued
// and pooled, and of its queue's arrays (obs.AllocBytes over struct sizes
// and counts). The callbacks the records point to belong to whoever
// scheduled them and are not counted.
func (e *Engine) HeapBytes() int64 {
	b := obs.ObjectBytes(e) + obs.SliceBytes(e.free) + int64(len(e.free)+e.Pending())*obs.ObjectBytes(&timer{})
	if e.queue != nil {
		b += e.queue.heapBytes()
	}
	return b
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of events executed so far.
func (e *Engine) Events() uint64 { return e.events }

// Pending returns the number of live (scheduled and not stopped) timers,
// which is the queue's length.
func (e *Engine) Pending() int {
	if e.queue == nil {
		return 0
	}
	return e.queue.Len()
}

// Schedule arranges for fn to run after the given delay. A negative delay is
// treated as zero. It returns a Timer that may be used to cancel the event.
//
//lrlint:hotpath one call per scheduled event; must stay allocation-free on the pooled path
func (e *Engine) Schedule(delay Time, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At arranges for fn to run at the given absolute virtual time. Times in the
// past are clamped to the present. Timer records come from a free list, so
// steady-state scheduling does not allocate.
//
//lrlint:hotpath one call per scheduled event; must stay allocation-free on the pooled path
func (e *Engine) At(at Time, fn func()) Timer {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	if at < e.now {
		at = e.now
	}
	if e.queue == nil {
		e.queue = newHeapQueue()
	}
	var ev *timer
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &timer{eng: e}
	}
	ev.at = at
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	e.obs.Start(obs.PhaseQueuePush)
	e.queue.Push(ev)
	e.obs.End(obs.PhaseQueuePush)
	return Timer{ev: ev, gen: ev.gen, at: at}
}

// Reschedule re-arms t to run fn after delay. Its effect is exactly that of
// t.Stop() followed by Schedule(delay, fn): the event draws the next
// sequence number, and the returned handle is the only live one (t is
// stale afterwards). When t is live and the new firing key (now+delay,
// seq) is later than the key t is queued under, which holds whenever the
// new time is not earlier, the record stays queued and the queue re-keys
// it once it surfaces (Queue.PopLE). An earlier time falls back to Remove
// plus Push. Either way the record is reused, so a re-arm allocates
// nothing, and a later re-arm costs no queue operation until the record
// surfaces.
//
// Pop order is unchanged because a moved record's queued key never
// exceeds its firing key: by the time it would be the earliest event it
// has surfaced and been re-keyed, so every executed event still fires at
// its own (time, seq).
//
//lrlint:hotpath one call per re-armed retry or request timer
func (e *Engine) Reschedule(t Timer, delay Time, fn func()) Timer {
	ev := t.ev
	if ev == nil || ev.gen != t.gen {
		return e.Schedule(delay, fn)
	}
	if fn == nil {
		panic("sim: Reschedule called with nil callback")
	}
	at := e.now + max(delay, 0)
	ev.gen++
	ev.fn = fn
	seq := e.seq
	e.seq++
	if at >= ev.at {
		ev.moved, ev.nextAt, ev.nextSeq = true, at, seq
	} else {
		e.queue.Remove(ev)
		ev.moved, ev.at, ev.seq = false, at, seq
		e.obs.Start(obs.PhaseQueuePush)
		e.queue.Push(ev)
		e.obs.End(obs.PhaseQueuePush)
	}
	return Timer{ev: ev, gen: ev.gen, at: at}
}

// recycle returns a popped or removed record to the free list. The
// generation bump invalidates every outstanding handle to the record's
// previous life, and clearing moved keeps a re-arm the record's last life
// left pending from re-keying its next one.
func (e *Engine) recycle(ev *timer) {
	ev.gen++
	ev.fn = nil
	ev.moved = false
	e.free = append(e.free, ev)
}

// Stop makes Run return after the event currently being processed completes.
// It is intended to be called from inside an event callback (for example once
// a simulation-level termination condition is met).
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in timestamp order until the queue drains, the clock
// would pass the until horizon, or Stop is called. It returns the virtual
// time at which execution ceased. When the queue drains before until (every
// remaining timer fired or was stopped), the clock advances to until.
func (e *Engine) Run(until Time) Time {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()

	// The pop region spans the whole step, exclusive of the callback's
	// dispatch region, so a sampled event has no untimed gap between its
	// first and last boundary.
	for e.queue != nil && !e.stopped {
		e.obs.BeginEvent()
		e.obs.Start(obs.PhaseQueuePop)
		ok := e.step(until)
		e.obs.End(obs.PhaseQueuePop)
		e.obs.EndEvent()
		if !ok {
			break
		}
	}
	if e.now < until && until != MaxTime && e.Pending() == 0 {
		// The queue drained before the horizon: advance the clock so
		// repeated Run calls observe monotonic time.
		e.now = until
	}
	return e.now
}

// step pops the next event due by until and runs it. It reports false once
// no event is due.
func (e *Engine) step(until Time) bool {
	ev := e.queue.PopLE(until)
	if ev == nil {
		return false
	}
	e.now = ev.at
	e.events++
	fn := ev.fn
	e.recycle(ev)
	e.obs.Start(obs.PhaseDispatch)
	fn()
	e.obs.End(obs.PhaseDispatch)
	return true
}

// RunUntilIdle executes every pending event regardless of timestamp.
func (e *Engine) RunUntilIdle() Time { return e.Run(MaxTime) }

// String summarizes engine state, mostly for debugging.
func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{now=%v pending=%d executed=%d}", e.now, e.Pending(), e.events)
}
