// Package lrseluge's benchmark harness: one sub-benchmark per sweep of the
// evaluation catalog (the paper's figures and tables, the scheduler
// ablation, churn and outage), plus the security experiments and
// single-run protocol benchmarks. BenchmarkSweep runs the same catalog as
// cmd/figures and cmd/lrsweep at its quick scale (so `go test -bench=.`
// completes quickly) and reports the last x position through
// b.ReportMetric; set LRSELUGE_BENCH_FULL=1 for the paper-scale sweeps.
// The quick multihop sweeps run a 7x7 grid with a 4 KB image, where Seluge
// sends fewer bytes than LR-Seluge; Tables II/III's ordering shows only at
// paper scale (15x15, 20 KB).
//
// The reported custom metrics use the paper's units:
//
//	data/run   - data-packet transmissions
//	snack/run  - SNACK transmissions
//	bytes/run  - total communication cost in bytes
//	lat-s/run  - dissemination latency in seconds
package lrseluge

import (
	"fmt"
	"os"
	"testing"

	"lrseluge/internal/experiment"
)

func benchFull() bool { return os.Getenv("LRSELUGE_BENCH_FULL") != "" }

func benchImageSize() int {
	if benchFull() {
		return 20 * 1024
	}
	return 8 * 1024
}

func benchReceivers() int {
	if benchFull() {
		return 20
	}
	return 10
}

func reportAvg(b *testing.B, name string, r AvgResult) {
	b.ReportMetric(r.DataPkts, name+"-data/run")
	b.ReportMetric(r.SnackPkts, name+"-snack/run")
	b.ReportMetric(r.TotalBytes, name+"-bytes/run")
	b.ReportMetric(r.LatencySec, name+"-lat-s/run")
}

// BenchmarkSweep runs every catalog sweep with one run per entry, one
// sub-benchmark per sweep name. It fails on any corrupted image and reports
// the entries at the sweep's last x position (the Seluge/LR-Seluge pair of
// a comparison), labelled by protocol.
func BenchmarkSweep(b *testing.B) {
	for _, name := range experiment.SweepNames() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				entries, avgs, err := RunSweep(name, SweepSpec{Runs: 1, Seed: int64(i) + 1, Quick: !benchFull()})
				if err != nil {
					b.Fatal(err)
				}
				last := entries[len(entries)-1].Name
				for k, e := range entries {
					if !avgs[k].ImagesOK {
						b.Fatalf("%s: image verification failed", e.Name)
					}
					if e.Name == last {
						reportAvg(b, e.Scenario.Protocol.String(), avgs[k])
					}
				}
			}
		})
	}
}

// BenchmarkAttackResilience regenerates the §IV-E security experiments:
// forged-data injection, signature flooding (weak and brute-forced) and the
// denial-of-receipt attack with and without the serve-limit defense.
func BenchmarkAttackResilience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, err := AttackResilience(DefaultParams(), benchImageSize()/2, benchReceivers(), 0.1, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if report.Injection.ForgedAccepted != 0 {
			b.Fatalf("forged packet accepted")
		}
		b.ReportMetric(float64(report.Injection.AuthDrops), "auth-drops/run")
		b.ReportMetric(float64(report.SigFlood.PuzzleRejects), "puzzle-rejects/run")
		b.ReportMetric(float64(report.SigFlood.SigVerifications), "weak-flood-verifications/run")
		b.ReportMetric(float64(report.SigFloodStrong.SigVerifications), "strong-flood-verifications/run")
		b.ReportMetric(float64(report.DoRVictimTxNoDefense), "dor-victim-tx-nodefense/run")
		b.ReportMetric(float64(report.DoRVictimTxDefense), "dor-victim-tx-defense/run")
	}
}

// BenchmarkOneHopDissemination is a plain end-to-end throughput benchmark of
// the core protocol path (no sweep): one LR-Seluge run per iteration.
func BenchmarkOneHopDissemination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Run(Scenario{
			Protocol:  LRSeluge,
			ImageSize: benchImageSize(),
			Receivers: benchReceivers(),
			LossP:     0.1,
			Seed:      int64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed != res.Nodes {
			b.Fatalf("incomplete run: %d/%d", res.Completed, res.Nodes)
		}
	}
}

// fig4MixRun is run i of the Fig. 4 operation mix: a 20 KB image to 20
// one-hop receivers, Seluge on even i and LR-Seluge on odd i, the loss rate
// cycling through 0-0.4, so runs 0-11 cover every (protocol, loss) pair
// once. It fails unless every node completes holding the exact image.
func fig4MixRun(i int, queue QueueKind) error {
	losses := []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4}
	proto := Seluge
	if i%2 == 1 {
		proto = LRSeluge
	}
	res, err := Run(Scenario{
		Protocol:  proto,
		ImageSize: 20 * 1024,
		Receivers: 20,
		LossP:     losses[(i/2)%len(losses)],
		Seed:      int64(i) + 1,
		Queue:     queue,
	})
	if err != nil {
		return err
	}
	if res.Completed != res.Nodes || !res.ImagesOK || res.ForgedAccepted != 0 {
		return fmt.Errorf("run %d: completed %d/%d, images ok %v, forged accepted %d",
			i, res.Completed, res.Nodes, res.ImagesOK, res.ForgedAccepted)
	}
	return nil
}

// BenchmarkFig4Mix times the Fig. 4 operation mix (fig4MixRun) one
// dissemination at a time. Its ns/op, B/op and allocs/op are the per-run
// costs of the protocol path under loss, and `-cpuprofile` on it shows
// where they go.
func BenchmarkFig4Mix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := fig4MixRun(i, HeapQueue); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4MixCalendar is BenchmarkFig4Mix on the calendar queue, the
// one large runs use; its allocs/op include the calendar's bucket growth.
func BenchmarkFig4MixCalendar(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := fig4MixRun(i, CalendarQueue); err != nil {
			b.Fatal(err)
		}
	}
}
