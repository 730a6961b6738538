package experiment

import (
	"bytes"
	"strings"
	"testing"

	"lrseluge/internal/harness"
	"lrseluge/internal/image"
)

// smokeJSONL runs the catalog's smoke sweep on a pool of the given width
// and returns the JSONL byte stream it produces.
func smokeJSONL(t *testing.T, workers, runs int) []byte {
	t.Helper()
	entries, err := NamedSweep("smoke", SweepSpec{Runs: runs, Seed: 7})
	if err != nil {
		t.Fatalf("NamedSweep: %v", err)
	}
	var buf bytes.Buffer
	if _, err := RunGrid("smoke", entries, harness.Config{Workers: workers}, harness.NewJSONLSink(&buf)); err != nil {
		t.Fatalf("RunGrid(workers=%d): %v", workers, err)
	}
	return buf.Bytes()
}

// TestHarnessWorkerCountInvariance is the subsystem's acceptance test: a
// 2-worker and an 8-worker sweep must produce byte-identical JSONL to the
// serial path. Run under -race via scripts/check.sh.
func TestHarnessWorkerCountInvariance(t *testing.T) {
	const runs = 2
	serial := smokeJSONL(t, 1, runs)
	if len(serial) == 0 {
		t.Fatal("serial sweep produced no output")
	}
	if got := smokeJSONL(t, 2, runs); !bytes.Equal(serial, got) {
		t.Errorf("2-worker sweep diverged from serial output:\nserial: %s\n2-wkr:  %s", serial, got)
	}
	if got := smokeJSONL(t, 8, runs); !bytes.Equal(serial, got) {
		t.Errorf("8-worker sweep diverged from serial output:\nserial: %s\n8-wkr:  %s", serial, got)
	}
}

// TestRunAvgMatchesGridAggregation pins the rewired RunAvg to the
// historical serial math: the aggregated means/stds must be bit-identical
// whether one worker or many executed the runs.
func TestRunAvgMatchesGridAggregation(t *testing.T) {
	s := Scenario{
		Protocol:  LRSeluge,
		ImageSize: 2 * 1024,
		Params:    smallParams(),
		Receivers: 5,
		LossP:     0.2,
		Seed:      11,
	}
	serial, err := RunAvgParallel(s, 3, 1)
	if err != nil {
		t.Fatalf("serial RunAvg: %v", err)
	}
	parallel, err := RunAvgParallel(s, 3, 4)
	if err != nil {
		t.Fatalf("parallel RunAvg: %v", err)
	}
	if serial != parallel {
		t.Errorf("worker count changed the averages:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if serial.Runs != 3 || !serial.ImagesOK || serial.Completed != 1 {
		t.Errorf("implausible averages: %+v", serial)
	}
	if serial.DataStd == 0 && serial.LatencyStd == 0 {
		t.Error("three distinct seeds produced zero deviation on every metric")
	}
}

// TestRunAvgErrorNamesFailingRun verifies a mid-sweep failure reports which
// run and seed died instead of discarding that context.
func TestRunAvgErrorNamesFailingRun(t *testing.T) {
	// n < k is rejected at build time, so every run fails; the error must
	// name the first one (run 0) and its derived seed.
	s := Scenario{
		Protocol:  LRSeluge,
		ImageSize: 1024,
		Params:    image.Params{PacketPayload: 72, K: 8, N: 4},
		Receivers: 3,
		Seed:      41,
	}
	_, err := RunAvg(s, 3)
	if err == nil {
		t.Fatal("invalid params did not error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "run 0") || !strings.Contains(msg, "seed 41") {
		t.Errorf("error does not name the failing run and seed: %q", msg)
	}
}

// TestNamedSweepUnknown checks catalog misses are reported with the
// available names.
func TestNamedSweepUnknown(t *testing.T) {
	if _, err := NamedSweep("no-such-sweep", SweepSpec{Runs: 1}); err == nil || !strings.Contains(err.Error(), "smoke") {
		t.Errorf("unknown sweep error unhelpful: %v", err)
	}
	if _, err := NamedSweep("smoke", SweepSpec{Runs: 0}); err == nil {
		t.Error("runs=0 accepted")
	}
}

// TestCatalogEntriesBuildable builds every catalog sweep in quick and full
// mode (full is what cmd/figures runs) and sanity-checks the grids without
// running them.
func TestCatalogEntriesBuildable(t *testing.T) {
	for _, quick := range []bool{true, false} {
		for _, name := range SweepNames() {
			entries, err := NamedSweep(name, SweepSpec{Runs: 2, Seed: 1, Quick: quick})
			if err != nil {
				t.Errorf("%s quick=%v: %v", name, quick, err)
				continue
			}
			if len(entries) == 0 {
				t.Errorf("%s quick=%v: empty grid", name, quick)
			}
			jobs := GridJobs(name, entries)
			if len(jobs) != 2*len(entries) {
				t.Errorf("%s quick=%v: %d jobs for %d entries at 2 runs", name, quick, len(jobs), len(entries))
			}
			if SweepDescription(name) == "" {
				t.Errorf("%s: missing description", name)
			}
		}
	}
}
