// Package lrseluge's benchmark harness: one benchmark per table and figure
// of the paper's evaluation (§V-VI), plus the security and scheduler
// ablations. Each benchmark runs the same code path as cmd/figures at a
// reduced default scale (so `go test -bench=.` completes in minutes) and
// reports the headline series through b.ReportMetric; set
// LRSELUGE_BENCH_FULL=1 for the paper-scale parameters.
//
// The reported custom metrics use the paper's units:
//
//	data/run   - data-packet transmissions
//	snack/run  - SNACK transmissions
//	adv/run    - advertisement transmissions
//	bytes/run  - total communication cost in bytes
//	lat-s/run  - dissemination latency in seconds
package lrseluge

import (
	"os"
	"testing"
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
	if !r.ImagesOK {
		b.Fatalf("%s: image verification failed", name)
	}
}

// BenchmarkFig3a regenerates Fig. 3(a): data packets for one page versus the
// packet-loss rate (analysis and simulation, Seluge vs LR-Seluge).
func BenchmarkFig3a(b *testing.B) {
	ps := []float64{0.1, 0.3}
	if benchFull() {
		ps = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	}
	for i := 0; i < b.N; i++ {
		pts, err := Fig3LossSweep(DefaultParams(), 10, ps, 1, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		b.ReportMetric(last.SelugeAnalysis, "seluge-analysis/page")
		b.ReportMetric(last.ACKLRAnalysis, "acklr-analysis/page")
		b.ReportMetric(last.SelugeSim, "seluge-sim/page")
		b.ReportMetric(last.LRSim, "lr-sim/page")
	}
}

// BenchmarkFig3b regenerates Fig. 3(b): data packets for one page versus the
// number of receivers at p = 0.2.
func BenchmarkFig3b(b *testing.B) {
	ns := []int{5, 20}
	if benchFull() {
		ns = []int{2, 5, 10, 15, 20, 25, 30, 35, 40}
	}
	for i := 0; i < b.N; i++ {
		pts, err := Fig3ReceiverSweep(DefaultParams(), ns, 0.2, 1, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		b.ReportMetric(last.SelugeSim, "seluge-sim/page")
		b.ReportMetric(last.LRSim, "lr-sim/page")
	}
}

// BenchmarkFig4 regenerates Fig. 4(a)-(e): the five metrics versus the
// packet-loss rate for N receivers and a code image.
func BenchmarkFig4(b *testing.B) {
	ps := []float64{0.1, 0.3}
	if benchFull() {
		ps = []float64{0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4}
	}
	for i := 0; i < b.N; i++ {
		pts, err := Fig4LossImpact(DefaultParams(), benchImageSize(), benchReceivers(), ps, 1, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		reportAvg(b, "seluge", last.Seluge)
		reportAvg(b, "lr", last.LR)
	}
}

// BenchmarkFig5 regenerates Fig. 5(a)-(e): the five metrics versus the
// number of local receivers at p = 0.1.
func BenchmarkFig5(b *testing.B) {
	ns := []int{5, 20}
	if benchFull() {
		ns = []int{5, 10, 20, 30, 40}
	}
	for i := 0; i < b.N; i++ {
		pts, err := Fig5DensityImpact(DefaultParams(), benchImageSize(), ns, 0.1, 1, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		reportAvg(b, "seluge", last.Seluge)
		reportAvg(b, "lr", last.LR)
	}
}

// BenchmarkFig6 regenerates Fig. 6(a)-(e): the impact of the erasure-coding
// rate n/k on LR-Seluge (k fixed at 32).
func BenchmarkFig6(b *testing.B) {
	ns := []int{40, 56}
	ps := []float64{0.1}
	if benchFull() {
		ns = []int{32, 40, 48, 56, 64, 72}
		ps = []float64{0.05, 0.1, 0.2}
	}
	for i := 0; i < b.N; i++ {
		pts, err := Fig6RateImpact(DefaultParams().PacketPayload, 32, benchImageSize(), benchReceivers(), ns, ps, 1, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		reportAvg(b, "lr", last.LR)
	}
}

func benchGrid(b *testing.B, density GridDensity) {
	rows, cols := 7, 7
	if benchFull() {
		rows, cols = 15, 15
	}
	for i := 0; i < b.N; i++ {
		sel, lr, err := MultiHopComparison(DefaultParams(), benchImageSize(), density, rows, cols, 1, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		reportAvg(b, "seluge", sel)
		reportAvg(b, "lr", lr)
	}
}

// BenchmarkTableII regenerates Table II: Seluge vs LR-Seluge on the
// high-density (tight) grid under heavy bursty noise.
func BenchmarkTableII(b *testing.B) { benchGrid(b, Tight) }

// BenchmarkTableIII regenerates Table III: Seluge vs LR-Seluge on the
// low-density (medium) grid under heavy bursty noise.
func BenchmarkTableIII(b *testing.B) { benchGrid(b, Medium) }

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

// BenchmarkSchedulerAblation quantifies the contribution of the greedy
// round-robin scheduler (§IV-D.3) against the union-of-requests and
// fresh-packet policies on the same LR-Seluge scenario.
func BenchmarkSchedulerAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := SchedulerAblationRun(DefaultParams(), benchImageSize(), benchReceivers(), 0.2, 1, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		for policy, avg := range res {
			b.ReportMetric(avg.DataPkts, policy.String()+"-data/run")
		}
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

// BenchmarkFig4Mix times the Fig. 4 operation mix one dissemination at a
// time: a 20 KB image to 20 one-hop receivers, Seluge and LR-Seluge
// alternating, the loss rate cycling through 0-0.4. Its ns/op, B/op and
// allocs/op are the per-run costs of the protocol path under loss, and
// `-cpuprofile` on it shows where they go.
func BenchmarkFig4Mix(b *testing.B) {
	losses := []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
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
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed != res.Nodes || !res.ImagesOK || res.ForgedAccepted != 0 {
			b.Fatalf("run %d: completed %d/%d, images ok %v, forged accepted %d",
				i, res.Completed, res.Nodes, res.ImagesOK, res.ForgedAccepted)
		}
	}
}
