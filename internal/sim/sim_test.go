package sim

import (
	"testing"
	"time"
)

func TestRunExecutesInTimestampOrder(t *testing.T) {
	eng := New()
	var order []int
	eng.Schedule(30*Millisecond, func() { order = append(order, 3) })
	eng.Schedule(10*Millisecond, func() { order = append(order, 1) })
	eng.Schedule(20*Millisecond, func() { order = append(order, 2) })
	eng.RunUntilIdle()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	eng := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		eng.Schedule(Second, func() { order = append(order, i) })
	}
	eng.RunUntilIdle()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of scheduling order: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	eng := New()
	var at Time
	eng.Schedule(5*Second, func() { at = eng.Now() })
	eng.RunUntilIdle()
	if at != 5*Second {
		t.Fatalf("clock at %v, want 5s", at)
	}
	if eng.Now() != 5*Second {
		t.Fatalf("final clock %v, want 5s", eng.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	eng := New()
	var hits int
	var recurse func()
	recurse = func() {
		hits++
		if hits < 5 {
			eng.Schedule(Millisecond, recurse)
		}
	}
	eng.Schedule(0, recurse)
	eng.RunUntilIdle()
	if hits != 5 {
		t.Fatalf("got %d hits, want 5", hits)
	}
	if eng.Now() != 4*Millisecond {
		t.Fatalf("clock %v, want 4ms", eng.Now())
	}
}

func TestTimerStop(t *testing.T) {
	eng := New()
	fired := false
	tm := eng.Schedule(Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer should report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	eng.RunUntilIdle()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestStopZeroValueTimerIsSafe(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Fatal("zero-value timer Stop should report false")
	}
	if tm.Active() {
		t.Fatal("zero-value timer should not be active")
	}
}

func TestPendingCountsLiveTimers(t *testing.T) {
	eng := New()
	t1 := eng.Schedule(Second, func() {})
	eng.Schedule(2*Second, func() {})
	eng.Schedule(3*Second, func() {})
	if eng.Pending() != 3 {
		t.Fatalf("pending %d, want 3", eng.Pending())
	}
	t1.Stop()
	if eng.Pending() != 2 {
		t.Fatalf("pending after stop %d, want 2 (stopped timers are not live)", eng.Pending())
	}
	eng.Run(2 * Second)
	if eng.Pending() != 1 {
		t.Fatalf("pending after partial run %d, want 1", eng.Pending())
	}
	eng.RunUntilIdle()
	if eng.Pending() != 0 {
		t.Fatalf("pending after drain %d, want 0", eng.Pending())
	}
}

func TestTimerActive(t *testing.T) {
	eng := New()
	tm := eng.Schedule(Second, func() {})
	if !tm.Active() {
		t.Fatal("scheduled timer should be active")
	}
	tm.Stop()
	if tm.Active() {
		t.Fatal("stopped timer should not be active")
	}
	tm2 := eng.Schedule(Second, func() {})
	eng.RunUntilIdle()
	if tm2.Active() {
		t.Fatal("fired timer should not be active")
	}
}

// TestStaleHandleCannotStopRecycledTimer pins the pooling contract: once a
// timer record fires and is recycled into a new event, handles to its old
// life must no-op.
func TestStaleHandleCannotStopRecycledTimer(t *testing.T) {
	eng := New()
	old := eng.Schedule(Millisecond, func() {})
	eng.RunUntilIdle()
	if old.Stop() {
		t.Fatal("Stop on fired timer should report false")
	}
	fired := false
	fresh := eng.Schedule(Millisecond, func() { fired = true })
	if fresh.ev != old.ev {
		t.Fatal("pool did not recycle the fired record (test assumes a single record)")
	}
	if old.Stop() {
		t.Fatal("stale handle stopped a recycled timer")
	}
	if !fresh.Active() {
		t.Fatal("stale Stop deactivated the recycled timer")
	}
	eng.RunUntilIdle()
	if !fired {
		t.Fatal("recycled timer did not fire")
	}
}

// TestTimerPoolReusesRecords pins the free list: steady-state scheduling
// after warm-up allocates nothing.
func TestTimerPoolReusesRecords(t *testing.T) {
	eng := New()
	fn := func() {}
	// Warm the pool and the queue's backing array.
	for i := 0; i < 64; i++ {
		eng.Schedule(Time(i)*Millisecond, fn)
	}
	eng.RunUntilIdle()
	allocs := testing.AllocsPerRun(100, func() {
		eng.Schedule(Millisecond, fn).Stop() // Stop returns the record to the pool
		eng.Schedule(Millisecond, fn)
		eng.RunUntilIdle()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule/stop/run allocated %.1f times per op, want 0", allocs)
	}
}

func TestRunHorizon(t *testing.T) {
	eng := New()
	var fired []int
	eng.Schedule(1*Second, func() { fired = append(fired, 1) })
	eng.Schedule(10*Second, func() { fired = append(fired, 2) })
	eng.Run(5 * Second)
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("horizon violated: %v", fired)
	}
	if eng.Pending() != 1 {
		t.Fatalf("pending %d, want 1", eng.Pending())
	}
	eng.RunUntilIdle()
	if len(fired) != 2 {
		t.Fatalf("second Run did not drain: %v", fired)
	}
}

func TestEngineStop(t *testing.T) {
	eng := New()
	var count int
	for i := 0; i < 10; i++ {
		eng.Schedule(Time(i)*Millisecond, func() {
			count++
			if count == 3 {
				eng.Stop()
			}
		})
	}
	eng.RunUntilIdle()
	if count != 3 {
		t.Fatalf("Stop did not halt execution: count=%d", count)
	}
}

func TestPastEventsClampToNow(t *testing.T) {
	eng := New()
	var at Time
	eng.Schedule(Second, func() {
		eng.At(0, func() { at = eng.Now() }) // in the past
	})
	eng.RunUntilIdle()
	if at != Second {
		t.Fatalf("past event ran at %v, want clamped to 1s", at)
	}
}

func TestNegativeDelayClamps(t *testing.T) {
	eng := New()
	fired := false
	eng.Schedule(-5*Second, func() { fired = true })
	eng.RunUntilIdle()
	if !fired || eng.Now() != 0 {
		t.Fatalf("negative delay mishandled: fired=%v now=%v", fired, eng.Now())
	}
}

func TestEventsCounter(t *testing.T) {
	eng := New()
	for i := 0; i < 7; i++ {
		eng.Schedule(Time(i), func() {})
	}
	eng.RunUntilIdle()
	if eng.Events() != 7 {
		t.Fatalf("events %d, want 7", eng.Events())
	}
}

func TestDurationConversion(t *testing.T) {
	if Duration(1500*time.Millisecond) != 1500*Millisecond {
		t.Fatal("Duration conversion wrong")
	}
	if got := (2500 * Millisecond).Seconds(); got != 2.5 {
		t.Fatalf("Seconds() = %v, want 2.5", got)
	}
}

func TestAtNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil callback")
		}
	}()
	New().At(0, nil)
}

func TestRunAdvancesToHorizonWhenIdle(t *testing.T) {
	eng := New()
	eng.Run(3 * Second)
	if eng.Now() != 3*Second {
		t.Fatalf("idle Run should advance clock to horizon, got %v", eng.Now())
	}
}
