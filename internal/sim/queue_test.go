package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// runQueueScript drives one engine, built on the given queue kind, with a
// deterministic op stream decoded from data, and returns the full firing log
// plus final engine observables. Identical logs across queue kinds prove the
// queues pop in identical (time, seq) order under scheduling, nested
// scheduling, cancellation, and horizon-bounded runs. After every op the
// queue must hold exactly the live timers the script counts (scheduled, not
// yet fired, not stopped): a cancelled record left queued fails the run.
func runQueueScript(t *testing.T, kind QueueKind, data []byte) []string {
	eng := NewWithQueue(kind)
	var log []string
	var handles []Timer
	live := 0
	schedule := func(delay Time, fn func()) Timer {
		live++
		return eng.Schedule(delay, func() {
			live--
			fn()
		})
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
		switch op := next(); op % 5 {
		case 0, 1: // schedule
			id := nextID
			nextID++
			delay := Time(next()) * Millisecond / 3
			handles = append(handles, schedule(delay, func() {
				log = append(log, fmt.Sprintf("fire %d @%d", id, eng.Now()))
			}))
		case 2: // schedule an event that schedules another on firing
			id := nextID
			nextID++
			delay := Time(next()) * Millisecond
			inner := Time(next()) * Microsecond
			schedule(delay, func() {
				log = append(log, fmt.Sprintf("outer %d @%d", id, eng.Now()))
				schedule(inner, func() {
					log = append(log, fmt.Sprintf("inner %d @%d", id, eng.Now()))
				})
			})
		case 3: // stop one outstanding handle
			if len(handles) > 0 {
				i := int(next()) % len(handles)
				stopped := handles[i].Stop()
				if stopped {
					live--
				}
				log = append(log, fmt.Sprintf("stop %d %v", i, stopped))
			}
		case 4: // bounded run
			h := eng.Now() + Time(next())*Millisecond/2
			at := eng.Run(h)
			log = append(log, fmt.Sprintf("ran to %d", at))
		}
		if n := eng.queue.Len(); n != live || eng.Pending() != live {
			t.Fatalf("%v queue: %d records queued, Pending %d, %d timers live", kind, n, eng.Pending(), live)
		}
	}
	at := eng.RunUntilIdle()
	log = append(log, fmt.Sprintf("idle @%d events=%d pending=%d", at, eng.Events(), eng.Pending()))
	return log
}

func diffLogs(t *testing.T, data []byte) {
	t.Helper()
	h := runQueueScript(t, HeapQueue, data)
	c := runQueueScript(t, CalendarQueue, data)
	if len(h) != len(c) {
		t.Fatalf("log lengths differ: heap %d vs calendar %d\nheap: %v\ncalendar: %v", len(h), len(c), h, c)
	}
	for i := range h {
		if h[i] != c[i] {
			t.Fatalf("logs diverge at %d: heap %q vs calendar %q", i, h[i], c[i])
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
