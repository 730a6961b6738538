package fault

import (
	"testing"
)

// FuzzPlan fuzzes the JSON plan loader with the re-validation property: any
// input ParsePlan accepts must survive a second Validate pass (acceptance is
// stable) and every event time must map onto the sim clock without panicking.
// Inputs ParsePlan rejects must error cleanly — plan files are operator
// input, so a panic here crashes the CLI on a typo.
//
// The checked-in corpus under testdata/fuzz/FuzzPlan seeds the malformed
// shapes the validator is most likely to meet in hand-edited files: negative
// and non-monotone times, overlapping link windows, out-of-order reboots,
// unknown node ids (caught at install time), unknown fields, and extreme
// exponents.
func FuzzPlan(f *testing.F) {
	f.Add([]byte(`{"name":"ok","events":[{"at_sec":1,"kind":"node-crash","node":1},{"at_sec":2,"kind":"node-reboot","node":1}]}`))
	f.Add([]byte(`{"events":[{"at_sec":0,"kind":"partition","groups":[[0],[1,2]]},{"at_sec":9,"kind":"heal"}]}`))
	f.Add([]byte(`{"events":[{"at_sec":1,"kind":"link-down","from":0,"to":1,"bidir":true},{"at_sec":2,"kind":"link-up","from":0,"to":1,"bidir":true}]}`))
	// The retired adversary-ramp kind: rejected like any unknown kind.
	f.Add([]byte(`{"events":[{"at_sec":3.5,"kind":"adversary-ramp","intensity":0.5}]}`))
	f.Add([]byte(`{"events":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(data)
		if err != nil {
			return // rejected without panicking: fine
		}
		// Acceptance is stable: a parsed plan re-validates.
		if err := p.Validate(0); err != nil {
			t.Fatalf("accepted plan fails re-validation: %v", err)
		}
		// Every accepted time maps onto the sim clock without panicking and
		// preserves non-decreasing order.
		for i := 1; i < len(p.Events); i++ {
			if p.Events[i].At() < p.Events[i-1].At() {
				t.Fatalf("event %d sim time %v precedes event %d (%v)",
					i, p.Events[i].At(), i-1, p.Events[i-1].At())
			}
		}
	})
}
