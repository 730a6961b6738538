package experiment

import (
	"testing"

	"lrseluge/internal/harness"
	"lrseluge/internal/image"
)

func TestSchedulerAblation(t *testing.T) {
	params := image.Params{PacketPayload: 72, K: 8, N: 16}
	entries := ablationEntries(params, 2048, 10, 0.2, 2, 31)
	avgs, err := RunGrid("ablation", entries, harness.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := make(map[LRPolicy]AvgResult, len(entries))
	for i, e := range entries {
		policy, avg := e.Scenario.LRPolicy, avgs[i]
		if avg.Completed < 1 {
			t.Fatalf("%v: incomplete (%f)", policy, avg.Completed)
		}
		if !avg.ImagesOK {
			t.Fatalf("%v: image corruption", policy)
		}
		res[policy] = avg
	}
	greedy := res[GreedyRR]
	union := res[UnionBits]
	if greedy.DataPkts > union.DataPkts*1.1 {
		t.Errorf("greedy scheduler (%f) should not lose badly to union (%f)", greedy.DataPkts, union.DataPkts)
	}
}
