package obs

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

func TestSamplerJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewSampler(&buf)
	s.Sample(Gauges{SimNS: 1e9, Events: 100, Pending: 5, Completed: 1})
	s.Sample(Gauges{SimNS: 2e9, Events: 300, Pending: 7, Completed: 3})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Samples(); got != 2 {
		t.Fatalf("Samples = %d, want 2", got)
	}
	snaps, err := ReadSnapshots(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("read %d snapshots, want 2", len(snaps))
	}
	if snaps[0].Events != 100 || snaps[1].Events != 300 {
		t.Fatalf("events = %d, %d", snaps[0].Events, snaps[1].Events)
	}
	if snaps[0].EventsPerSec != 0 {
		t.Fatalf("first sample events/sec = %v, want 0", snaps[0].EventsPerSec)
	}
	if snaps[1].SimNS != 2e9 || snaps[1].Pending != 7 || snaps[1].Completed != 3 {
		t.Fatalf("gauges lost: %+v", snaps[1])
	}
	if snaps[1].Runtime.HeapBytes == 0 {
		t.Fatal("runtime heap bytes not captured")
	}
	if snaps[1].Runtime.Goroutines <= 0 {
		t.Fatal("runtime goroutines not captured")
	}
}

func TestNilSamplerSafe(t *testing.T) {
	var s *Sampler
	snap := s.Sample(Gauges{Events: 1})
	if snap.Events != 0 {
		t.Fatalf("nil Sample returned %+v", snap)
	}
	if s.Samples() != 0 {
		t.Fatal("nil Samples != 0")
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("nil Flush = %v", err)
	}
}

func TestReadSnapshotsStrict(t *testing.T) {
	if _, err := ReadSnapshots(strings.NewReader(`{"v":1,"wall_ms":0,"sim_ns":0,"events":0,"events_per_sec":0,"pending":0,"completed":0,"runtime":{"heap_bytes":0,"total_alloc_bytes":0,"gc_cycles":0,"gc_pause_ns":0,"goroutines":0},"bogus":1}` + "\n")); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ReadSnapshots(strings.NewReader(`{"v":7,"wall_ms":0,"sim_ns":0,"events":0,"events_per_sec":0,"pending":0,"completed":0,"runtime":{"heap_bytes":0,"total_alloc_bytes":0,"gc_cycles":0,"gc_pause_ns":0,"goroutines":0}}` + "\n")); err == nil {
		t.Fatal("unknown schema accepted")
	}
	snaps, err := ReadSnapshots(strings.NewReader("\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 0 {
		t.Fatalf("blank stream read %d snapshots", len(snaps))
	}
}

func TestReadRuntime(t *testing.T) {
	r := ReadRuntime()
	if r.HeapBytes == 0 {
		t.Fatal("heap bytes = 0")
	}
	if r.TotalAllocBytes == 0 {
		t.Fatal("total alloc bytes = 0")
	}
	if r.Goroutines <= 0 {
		t.Fatalf("goroutines = %d", r.Goroutines)
	}
}

func TestWritePromRendersAllSeries(t *testing.T) {
	var buf bytes.Buffer
	RuntimeStats{
		HeapBytes:       10,
		TotalAllocBytes: 20,
		GCCycles:        3,
		GCPauseNS:       40,
		Goroutines:      5,
	}.WriteProm(&buf, "tst")
	out := buf.String()
	for _, want := range []string{
		"# TYPE tst_runtime_total_alloc_bytes counter\ntst_runtime_total_alloc_bytes 20\n",
		"# TYPE tst_runtime_gc_cycles_total counter\ntst_runtime_gc_cycles_total 3\n",
		"# TYPE tst_runtime_gc_pause_ns_total counter\ntst_runtime_gc_pause_ns_total 40\n",
		"# TYPE tst_runtime_heap_bytes gauge\ntst_runtime_heap_bytes 10\n",
		"# TYPE tst_runtime_goroutines gauge\ntst_runtime_goroutines 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom render missing %q:\n%s", want, out)
		}
	}
}

func TestWriteSnapshotText(t *testing.T) {
	var buf bytes.Buffer
	snaps := []Snapshot{{SchemaV: 1, WallMS: 12, SimNS: 3e9, Events: 500, EventsPerSec: 100, Pending: 2, Completed: 9}}
	if err := WriteSnapshotText(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"wall_ms", "events/s", "500", "3.0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("snapshot table missing %q:\n%s", want, out)
		}
	}
}

// TestHeapPeakKeepsHighestProfile checks that the kept profile is a gzipped
// pprof and is replaced only when the post-GC live heap grows.
func TestHeapPeakKeepsHighestProfile(t *testing.T) {
	var p HeapPeak
	runtime.GC()
	if err := p.Observe(); err != nil {
		t.Fatal(err)
	}
	first := p.LiveBytes()
	prof := p.Profile()
	if len(prof) < 2 || prof[0] != 0x1f || prof[1] != 0x8b {
		t.Fatalf("profile is not gzip data (%d bytes)", len(prof))
	}
	ballast := make([][]byte, 64)
	for i := range ballast {
		ballast[i] = make([]byte, 1<<16)
	}
	runtime.GC()
	if err := p.Observe(); err != nil {
		t.Fatal(err)
	}
	if p.LiveBytes() <= first {
		t.Fatalf("live heap %d did not grow past %d with 4 MiB held", p.LiveBytes(), first)
	}
	runtime.KeepAlive(ballast)
	runtime.GC()
	peak := p.LiveBytes()
	if err := p.Observe(); err != nil {
		t.Fatal(err)
	}
	if p.LiveBytes() != peak {
		t.Fatalf("peak moved from %d to %d after the heap shrank", peak, p.LiveBytes())
	}
}
