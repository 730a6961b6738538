package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// rearmFunc re-arms a timer: Engine.Reschedule, or the Stop plus Schedule
// it must be equivalent to.
type rearmFunc func(eng *Engine, t Timer, delay Time, fn func()) Timer

func rearmReschedule(eng *Engine, t Timer, delay Time, fn func()) Timer {
	return eng.Reschedule(t, delay, fn)
}

func rearmStopSchedule(eng *Engine, t Timer, delay Time, fn func()) Timer {
	t.Stop()
	return eng.Schedule(delay, fn)
}

// oracleKey is a live timer's firing key as the script predicts it.
type oracleKey struct {
	at  Time
	seq uint64
}

// runQueueScript drives one engine, built on the given queue kind, with a
// deterministic op stream decoded from data, and returns the full firing log
// plus final engine observables. Identical logs across queue kinds prove the
// queues pop in identical (time, seq) order under scheduling, nested
// scheduling, cancellation, re-arming (through rearm) and horizon-bounded
// runs. A sorted oracle checks each firing too: it keeps every live timer's
// predicted (time, seq), the seq being the engine's counter when the timer
// was scheduled or re-armed, and the firing record must carry that key and
// hold the least one.
// After every op the queue must hold exactly the live timers (scheduled or
// re-armed, not yet fired, not stopped): a cancelled record left queued
// fails the run.
func runQueueScript(t *testing.T, kind QueueKind, rearm rearmFunc, data []byte) []string {
	eng := NewWithQueue(kind)
	var log []string
	var handles []Timer
	var keys []int // the oracle entry of each handle
	oracle := map[int]oracleKey{}
	nextKey := 0
	// schedule arms a timer through arm, registering its predicted key;
	// the returned int names its oracle entry.
	schedule := func(at Time, arm func(fn func()) Timer, fn func()) (Timer, int) {
		k := nextKey
		nextKey++
		oracle[k] = oracleKey{at, eng.seq}
		tm := arm(func() {
			want := oracle[k]
			for other, key := range oracle {
				if key.at < want.at || key.at == want.at && key.seq < want.seq {
					t.Fatalf("%v queue: timer (%v,%d) fired before live (%v,%d) (entry %d)", kind, want.at, want.seq, key.at, key.seq, other)
				}
			}
			// The engine recycles a record just before running its
			// callback, so the free list's top is the firing record.
			if ev := eng.free[len(eng.free)-1]; eng.Now() != want.at || ev.at != want.at || ev.seq != want.seq {
				t.Fatalf("%v queue: timer due at (%v,%d) fired as (%v,%d) at %v", kind, want.at, want.seq, ev.at, ev.seq, eng.Now())
			}
			delete(oracle, k)
			log = append(log, fmt.Sprintf("seq %d", want.seq))
			fn()
		})
		return tm, k
	}
	after := func(delay Time, fn func()) (Timer, int) {
		return schedule(eng.Now()+max(delay, 0), func(f func()) Timer { return eng.Schedule(delay, f) }, fn)
	}
	nextID := 0
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	for pos < len(data) {
		switch op := next(); op % 6 {
		case 0, 1: // schedule
			id := nextID
			nextID++
			delay := Time(next()) * Millisecond / 3
			h, k := after(delay, func() {
				log = append(log, fmt.Sprintf("fire %d @%d", id, eng.Now()))
			})
			handles, keys = append(handles, h), append(keys, k)
		case 2: // schedule an event that schedules another on firing
			id := nextID
			nextID++
			delay := Time(next()) * Millisecond
			inner := Time(next()) * Microsecond
			after(delay, func() {
				log = append(log, fmt.Sprintf("outer %d @%d", id, eng.Now()))
				after(inner, func() {
					log = append(log, fmt.Sprintf("inner %d @%d", id, eng.Now()))
				})
			})
		case 3: // stop one outstanding handle
			if len(handles) > 0 {
				i := int(next()) % len(handles)
				stopped := handles[i].Stop()
				if _, live := oracle[keys[i]]; live != stopped {
					t.Fatalf("%v queue: Stop reported %v for a timer live=%v", kind, stopped, live)
				}
				delete(oracle, keys[i])
				log = append(log, fmt.Sprintf("stop %d %v", i, stopped))
			}
		case 4: // bounded run
			h := eng.Now() + Time(next())*Millisecond/2
			at := eng.Run(h)
			log = append(log, fmt.Sprintf("ran to %d", at))
		case 5: // re-arm one outstanding handle, live or not
			if len(handles) > 0 {
				i := int(next()) % len(handles)
				id := nextID
				nextID++
				// Small delays, often zero, so re-arms hit the same
				// instant, earlier instants and draining bursts.
				delay := Time(next()%8) * Millisecond / 3
				delete(oracle, keys[i])
				old := handles[i]
				handles[i], keys[i] = schedule(eng.Now()+delay, func(f func()) Timer { return rearm(eng, old, delay, f) }, func() {
					log = append(log, fmt.Sprintf("rearmed %d @%d", id, eng.Now()))
				})
				if old.Active() {
					t.Fatalf("%v queue: the re-armed handle is still active", kind)
				}
			}
		}
		if n := eng.queue.Len(); n != len(oracle) || eng.Pending() != len(oracle) {
			t.Fatalf("%v queue: %d records queued, Pending %d, %d timers live", kind, n, eng.Pending(), len(oracle))
		}
	}
	at := eng.RunUntilIdle()
	log = append(log, fmt.Sprintf("idle @%d events=%d pending=%d", at, eng.Events(), eng.Pending()))
	return log
}

// diffLogs runs data on both queues, re-arming by Reschedule and by Stop
// plus Schedule: all four logs, (time, seq) firing sequence and event count
// included, must be identical.
func diffLogs(t *testing.T, data []byte) {
	t.Helper()
	ref := runQueueScript(t, HeapQueue, rearmStopSchedule, data)
	for _, run := range []struct {
		kind  QueueKind
		rearm rearmFunc
		name  string
	}{
		{HeapQueue, rearmReschedule, "heap/Reschedule"},
		{CalendarQueue, rearmStopSchedule, "calendar/Stop+Schedule"},
		{CalendarQueue, rearmReschedule, "calendar/Reschedule"},
	} {
		got := runQueueScript(t, run.kind, run.rearm, data)
		if len(got) != len(ref) {
			t.Fatalf("log lengths differ: heap/Stop+Schedule %d vs %s %d\nref: %v\ngot: %v", len(ref), run.name, len(got), ref, got)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("logs diverge at %d: heap/Stop+Schedule %q vs %s %q", i, ref[i], run.name, got[i])
			}
		}
	}
}

// TestQueueEquivalence is the deterministic differential test: long random
// op streams must produce identical firing logs under both queues.
func TestQueueEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		data := make([]byte, 400)
		rng.Read(data)
		diffLogs(t, data)
	}
}

// TestQueueEquivalenceBulk pushes enough timers through to force calendar
// resizes in both directions, then checks pop order against the heap.
func TestQueueEquivalenceBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	hq := newHeapQueue()
	cq := newCalendarQueue()
	var seq uint64
	push := func(at Time) {
		h := &timer{at: at, seq: seq}
		c := &timer{at: at, seq: seq}
		seq++
		hq.Push(h)
		cq.Push(c)
	}
	// Dense phase: 10k events over ~10s, with same-instant bursts.
	for i := 0; i < 10000; i++ {
		at := Time(rng.Intn(10_000)) * Millisecond
		push(at)
		if i%17 == 0 {
			push(at) // duplicate timestamp: seq must break the tie
		}
	}
	var floor Time
	for hq.Len() > 0 {
		h := hq.PopLE(MaxTime)
		c := cq.PopLE(MaxTime)
		if c == nil || h.at != c.at || h.seq != c.seq {
			t.Fatalf("bulk pop diverged: heap (%v,%d) vs calendar %v", h.at, h.seq, c)
		}
		if h.at < floor {
			t.Fatalf("pop order not monotone: %v after %v", h.at, floor)
		}
		floor = h.at
		// Interleave new pushes (never before the pop floor, matching the
		// engine's clamp) to exercise resize-down then resize-up churn.
		if hq.Len() < 100 && seq < 30000 {
			for i := 0; i < 50; i++ {
				push(floor + Time(rng.Intn(5_000_000)))
			}
		}
	}
	if cq.Len() != 0 {
		t.Fatalf("calendar retains %d events after heap drained", cq.Len())
	}
}

// TestCalendarDirectSearchFallback covers the sparse case: the next event
// lies many bucket-years past the last pop, so the year scan gives up and
// the direct search must still find the global minimum.
func TestCalendarDirectSearchFallback(t *testing.T) {
	eng := NewWithQueue(CalendarQueue)
	var order []int
	eng.Schedule(Millisecond, func() { order = append(order, 1) })
	// Far beyond one year of initial buckets (16 buckets x 2ms).
	eng.Schedule(2*Second+Millisecond, func() { order = append(order, 3) })
	eng.Schedule(2*Second, func() { order = append(order, 2) })
	eng.Schedule(3000*Second, func() { order = append(order, 4) })
	eng.RunUntilIdle()
	if len(order) != 4 {
		t.Fatalf("fired %v", order)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("sparse events out of order: %v", order)
		}
	}
	if eng.Now() != 3000*Second {
		t.Fatalf("clock %v, want 3000s", eng.Now())
	}
}

// TestCalendarHorizonLeavesQueueIntact pins PopLE's contract: a pop bounded
// by a horizon before the next event must not disturb queue state.
func TestCalendarHorizonLeavesQueueIntact(t *testing.T) {
	eng := NewWithQueue(CalendarQueue)
	fired := false
	eng.Schedule(10*Second, func() { fired = true })
	for i := 0; i < 5; i++ {
		eng.Run(Time(i) * Second)
		if fired {
			t.Fatal("event fired before its time")
		}
	}
	if eng.Pending() != 1 {
		t.Fatalf("pending %d, want 1", eng.Pending())
	}
	eng.Run(10 * Second)
	if !fired {
		t.Fatal("event never fired")
	}
}

// FuzzQueueEquivalence fuzzes the differential harness: any byte stream must
// produce identical firing logs under heap and calendar queues.
func FuzzQueueEquivalence(f *testing.F) {
	f.Add([]byte("0123456789abcdef"))
	f.Add([]byte("scheduler stop run idle"))
	f.Add([]byte{0, 200, 3, 7, 4, 250, 0, 0, 2, 90, 90, 3, 0, 4, 255})
	f.Add([]byte{2, 255, 255, 2, 0, 1, 4, 1, 0, 128, 3, 1, 3, 2, 4, 64})
	// Re-arms of live, fired and stopped timers, to the same instant, later
	// and earlier, around bounded runs.
	f.Add([]byte{0, 30, 0, 30, 0, 30, 5, 0, 0, 5, 1, 7, 4, 10, 5, 2, 3, 0, 90, 5, 3, 0, 4, 1, 5, 0, 6, 3, 3, 4, 255})
	f.Add([]byte{2, 3, 0, 0, 9, 0, 9, 4, 7, 5, 1, 0, 5, 2, 0, 0, 9, 5, 4, 0, 4, 255, 5, 0, 7, 4, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip()
		}
		diffLogs(t, data)
	})
}

// TestCalendarRemoveFromStage cancels records out of a draining same-instant
// burst: the stage head, a middle slot, the tail, and then every staged
// record, with pushes at the burst's instant after each. Both queues must
// fire the same survivors in seq order and end empty.
func TestCalendarRemoveFromStage(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop []int
		want string
	}{
		{"head-middle-tail", []int{1, 4, 9}, "0 2 3 5 6 7 8 late"},
		{"all", []int{1, 2, 3, 4, 5, 6, 7, 8, 9}, "0 late"},
	} {
		for _, kind := range []QueueKind{HeapQueue, CalendarQueue} {
			eng := NewWithQueue(kind)
			var got []string
			handles := make([]Timer, 10)
			for i := range handles {
				i := i
				handles[i] = eng.Schedule(Second, func() {
					got = append(got, fmt.Sprint(i))
					if i != 0 {
						return
					}
					for _, j := range tc.stop {
						if !handles[j].Stop() {
							t.Errorf("%s/%v: Stop(%d) reported false", tc.name, kind, j)
						}
					}
					if want := 9 - len(tc.stop); eng.Pending() != want {
						t.Errorf("%s/%v: pending %d after stops, want %d", tc.name, kind, eng.Pending(), want)
					}
					eng.Schedule(0, func() { got = append(got, "late") })
				})
			}
			eng.RunUntilIdle()
			if s := fmt.Sprint(got); s != "["+tc.want+"]" {
				t.Errorf("%s/%v: fired %s, want [%s]", tc.name, kind, s, tc.want)
			}
			if eng.Pending() != 0 || eng.queue.Len() != 0 {
				t.Errorf("%s/%v: %d records left queued", tc.name, kind, eng.queue.Len())
			}
		}
	}
}

// TestRunAdvancesPastCancelledTimers pins the one caller-visible effect of
// eager cancellation: with only stopped timers left, one of them scheduled
// past the horizon, Run(until) advances the clock to until on both queues.
func TestRunAdvancesPastCancelledTimers(t *testing.T) {
	for _, kind := range []QueueKind{HeapQueue, CalendarQueue} {
		eng := NewWithQueue(kind)
		eng.Schedule(Second, func() {})
		early := eng.Schedule(2*Second, func() {})
		late := eng.Schedule(10*Second, func() {})
		early.Stop()
		late.Stop()
		if at := eng.Run(5 * Second); at != 5*Second {
			t.Errorf("%v: Run(5s) returned %v, want 5s", kind, at)
		}
		if eng.Events() != 1 || eng.Pending() != 0 {
			t.Errorf("%v: events %d pending %d, want 1 and 0", kind, eng.Events(), eng.Pending())
		}
	}
}

// TestStopMatchesSortedOracle checks both queues against a sorted list of
// the live timers: rounds of scheduling onto few distinct instants, a few
// microseconds apart in groups (so calendar buckets hold bursts next to
// other instants, and popping a burst compacts its bucket), stopping a random share, and running to a
// horizon must fire exactly the live timers due by it, in (time, seq)
// order, and Stop must report true exactly for live ones.
func TestStopMatchesSortedOracle(t *testing.T) {
	type rec struct {
		at  Time
		seq int
	}
	for _, kind := range []QueueKind{HeapQueue, CalendarQueue} {
		rng := rand.New(rand.NewSource(24))
		eng := NewWithQueue(kind)
		var handles []Timer
		var recs []rec
		live := map[int]bool{}
		var fired []int
		for round := 0; round < 40; round++ {
			for i := rng.Intn(400); i > 0; i-- {
				seq := len(handles)
				at := eng.Now() + Time(rng.Intn(50))*Millisecond + Time(rng.Intn(3))*Microsecond
				handles = append(handles, eng.At(at, func() { fired = append(fired, seq) }))
				recs = append(recs, rec{at, seq})
				live[seq] = true
			}
			for i := rng.Intn(200); i > 0; i-- {
				seq := rng.Intn(len(handles))
				if got := handles[seq].Stop(); got != live[seq] {
					t.Fatalf("%v round %d: Stop(%d) = %v, live %v", kind, round, seq, got, live[seq])
				}
				delete(live, seq)
			}
			horizon := eng.Now() + Time(rng.Intn(40))*Millisecond
			var want []rec
			for seq := range live {
				if r := recs[seq]; r.at <= horizon {
					want = append(want, r)
					delete(live, seq)
				}
			}
			sort.Slice(want, func(i, j int) bool {
				if want[i].at != want[j].at {
					return want[i].at < want[j].at
				}
				return want[i].seq < want[j].seq
			})
			fired = fired[:0]
			eng.Run(horizon)
			if len(fired) != len(want) {
				t.Fatalf("%v round %d: fired %d timers, want %d", kind, round, len(fired), len(want))
			}
			for i, r := range want {
				if fired[i] != r.seq {
					t.Fatalf("%v round %d: fire %d is timer %d, want %d", kind, round, i, fired[i], r.seq)
				}
			}
			if eng.Pending() != len(live) {
				t.Fatalf("%v round %d: pending %d, want %d", kind, round, eng.Pending(), len(live))
			}
		}
	}
}

// rearmCase runs one re-arm scenario on both queues with both re-arm
// functions and returns the four firing logs, which must agree.
func rearmCase(t *testing.T, name string, script func(eng *Engine, rearm rearmFunc, log func(string))) string {
	t.Helper()
	var ref string
	for _, kind := range []QueueKind{HeapQueue, CalendarQueue} {
		for ri, rearm := range []rearmFunc{rearmStopSchedule, rearmReschedule} {
			eng := NewWithQueue(kind)
			var got []string
			script(eng, rearm, func(s string) { got = append(got, fmt.Sprintf("%s@%v", s, eng.Now())) })
			eng.RunUntilIdle()
			if eng.Pending() != 0 || eng.queue.Len() != 0 {
				t.Errorf("%s/%v/%d: %d records left queued", name, kind, ri, eng.queue.Len())
			}
			out := fmt.Sprintf("%v events=%d", got, eng.Events())
			if ref == "" {
				ref = out
			} else if out != ref {
				t.Errorf("%s/%v/%d: fired %s, want %s", name, kind, ri, out, ref)
			}
		}
	}
	return ref
}

// TestRescheduleSameAndEarlierInstant re-arms a live timer to the instant it
// is queued at, where it must fire after a timer scheduled there before the
// re-arm (its seq is the newer one), and to an earlier instant, the case
// Reschedule serves by Remove plus Push.
func TestRescheduleSameAndEarlierInstant(t *testing.T) {
	got := rearmCase(t, "same", func(eng *Engine, rearm rearmFunc, log func(string)) {
		a := eng.Schedule(Second, func() { log("a") })
		eng.Schedule(Second, func() { log("b") })
		rearm(eng, a, Second, func() { log("a2") })
	})
	if want := "[b@1s a2@1s] events=2"; got != want {
		t.Errorf("same instant: fired %s, want %s", got, want)
	}
	got = rearmCase(t, "earlier", func(eng *Engine, rearm rearmFunc, log func(string)) {
		a := eng.Schedule(2*Second, func() { log("a") })
		eng.Schedule(1500*Millisecond, func() { log("b") })
		a = rearm(eng, a, Second, func() { log("a2") })
		if a.ev.moved {
			t.Error("a re-arm to an earlier instant left the record moved")
		}
	})
	if want := "[a2@1s b@1.5s] events=2"; got != want {
		t.Errorf("earlier instant: fired %s, want %s", got, want)
	}
}

// TestRescheduleIntoDrainingStage re-keys a record inside a draining
// same-instant burst to that instant, after a later push at the instant
// has been appended to the calendar's stage. The re-keyed record's seq is
// older than the push's, so it must fire before it: the stage keeps its
// ascending seq order.
func TestRescheduleIntoDrainingStage(t *testing.T) {
	staged := false
	got := rearmCase(t, "stage", func(eng *Engine, rearm rearmFunc, log func(string)) {
		var a Timer
		eng.Schedule(Second, func() {
			log("x")
			if q, ok := eng.queue.(*calendarQueue); ok && q.stagePos < len(q.stage) {
				staged = true
			}
			rearm(eng, a, 0, func() { log("a2") })
			eng.Schedule(0, func() { log("c") })
		})
		a = eng.Schedule(Second, func() { log("a") })
		eng.Schedule(Second, func() { log("b") })
	})
	if want := "[x@1s b@1s a2@1s c@1s] events=4"; got != want {
		t.Errorf("fired %s, want %s", got, want)
	}
	if !staged {
		t.Error("the calendar queue never staged the burst; the case is not exercised")
	}
}

// TestPushBelowPendingRekey re-keys a record during a bounded run that ends
// without executing an event, so the clock stays below the record's old
// time; a push made then, below that old time, must still fire first. This
// is the pattern of Env.Upgrade and fault plans, which schedule between
// Run(until) calls, and it fails if a re-key raises the calendar's floor.
func TestPushBelowPendingRekey(t *testing.T) {
	got := rearmCase(t, "floor", func(eng *Engine, rearm rearmFunc, log func(string)) {
		// On the calendar's initial ~2.1 ms buckets the push lands a
		// bucket below the old time's, and the new time lies inside the
		// window a scan from the old time would accept first.
		r := eng.Schedule(10*Millisecond, func() { log("r") })
		rearm(eng, r, 12*Millisecond, func() { log("r2") })
		if at := eng.Run(10500 * Microsecond); at != 0 {
			t.Errorf("Run stopped at %v, want 0: no event was due", at)
		}
		eng.Schedule(8*Millisecond, func() { log("e") })
	})
	if want := "[e@8ms r2@12ms] events=2"; got != want {
		t.Errorf("fired %s, want %s", got, want)
	}
}

// TestStoppedRekeyDoesNotLeak re-arms a timer later, stops the new handle and
// schedules another event, which reuses the recycled record. The record's
// pending re-key must die with its life: the new event fires at its own
// time, once.
func TestStoppedRekeyDoesNotLeak(t *testing.T) {
	for _, kind := range []QueueKind{HeapQueue, CalendarQueue} {
		eng := NewWithQueue(kind)
		a := eng.Schedule(10*Millisecond, func() {})
		a = eng.Reschedule(a, 30*Millisecond, func() {})
		if !a.Stop() {
			t.Fatalf("%v: Stop of the re-armed timer reported false", kind)
		}
		var firedAt []Time
		b := eng.Schedule(20*Millisecond, func() { firedAt = append(firedAt, eng.Now()) })
		if b.ev != a.ev {
			t.Fatalf("%v: the new event did not reuse the stopped record", kind)
		}
		eng.RunUntilIdle()
		if fmt.Sprint(firedAt) != "[20ms]" || eng.Events() != 1 {
			t.Errorf("%v: fired at %v with %d events, want [20ms] and 1", kind, firedAt, eng.Events())
		}
	}
}

// TestRescheduleHandles pins the handle semantics Reschedule shares with
// Stop plus Schedule: the old handle goes stale, the new one is active and
// reports the new time, and a re-arm of a stale handle just schedules.
func TestRescheduleHandles(t *testing.T) {
	eng := New()
	fired := 0
	a := eng.Schedule(Second, func() { fired += 10 })
	b := eng.Reschedule(a, 2*Second, func() { fired++ })
	if a.Active() || a.Stop() {
		t.Error("the re-armed handle is still active")
	}
	if !b.Active() || b.At() != 2*Second {
		t.Errorf("new handle active %v at %v, want true at 2s", b.Active(), b.At())
	}
	eng.RunUntilIdle()
	c := eng.Reschedule(b, Second, func() { fired++ })
	if !c.Active() || eng.Pending() != 1 {
		t.Errorf("re-arm of a fired handle: active %v, pending %d", c.Active(), eng.Pending())
	}
	eng.RunUntilIdle()
	if fired != 2 || eng.Events() != 2 || eng.Now() != 3*Second {
		t.Errorf("fired %d, events %d, clock %v; want 2, 2, 3s", fired, eng.Events(), eng.Now())
	}
}
