package lrseluge

import "testing"

// TestFig4MixAllocs is the allocation gate of the protocol path: the twelve
// runs of the Fig. 4 mix (fig4MixRun 0-11, every protocol and loss rate
// once) must stay within a per-run allocation bound on each event queue.
// Allocation counts are deterministic for a seed up to a few runtime
// allocations, so the bound is the count the event path was measured at
// plus 5% headroom: 3,751 allocations per run on the heap queue and 3,967
// on the calendar queue (whose bucket arrays add the difference). The race
// detector adds about 32 per run, inside the headroom. A change that puts
// an allocation back on a per-packet or per-event path adds thousands per
// run and fails here.
func TestFig4MixAllocs(t *testing.T) {
	for _, tc := range []struct {
		queue QueueKind
		bound float64
	}{
		{HeapQueue, 3940},
		{CalendarQueue, 4165},
	} {
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < 12; i++ {
				if err := fig4MixRun(i, tc.queue); err != nil {
					t.Fatal(err)
				}
			}
		})
		if perRun := allocs / 12; perRun > tc.bound {
			t.Errorf("%v queue: %.0f allocations per Fig. 4 run, bound %.0f", tc.queue, perRun, tc.bound)
		} else {
			t.Logf("%v queue: %.0f allocations per Fig. 4 run (bound %.0f)", tc.queue, perRun, tc.bound)
		}
	}
}
