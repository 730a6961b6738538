package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// SnapshotSchema is the snapshot-JSONL schema version, encoded as "v" in
// every line; readers refuse schemas they do not know.
const SnapshotSchema = 1

// Gauges are the engine-side observations the caller feeds into each
// sample: obs cannot (and must not) reach into the simulation itself.
type Gauges struct {
	// SimNS is the virtual clock, in nanoseconds.
	SimNS int64
	// Events is the cumulative count of executed engine events.
	Events uint64
	// Pending is the number of live scheduled events.
	Pending int
	// Completed is how many nodes hold the full image.
	Completed int
}

// Snapshot is one schema'd runtime observation: engine gauges plus process
// runtime health, stamped with wall time since the sampler started.
type Snapshot struct {
	SchemaV int `json:"v"`
	// WallMS is wall milliseconds since the sampler was created.
	WallMS int64 `json:"wall_ms"`
	// SimNS is the virtual clock at the sample.
	SimNS int64 `json:"sim_ns"`
	// Events is the cumulative executed-event count.
	Events uint64 `json:"events"`
	// EventsPerSec is the throughput over the interval since the previous
	// sample (0 on the first sample).
	EventsPerSec float64 `json:"events_per_sec"`
	// Pending is the number of live scheduled events.
	Pending int `json:"pending"`
	// Completed is how many nodes hold the full image.
	Completed int `json:"completed"`
	// Runtime is the process runtime capture.
	Runtime RuntimeStats `json:"runtime"`
}

// RuntimeStats is a point-in-time capture of process-level runtime health,
// read from runtime/metrics (heap, allocation and scheduler gauges) plus the
// MemStats GC pause total.
type RuntimeStats struct {
	// HeapBytes is live heap memory occupied by objects
	// (/memory/classes/heap/objects:bytes).
	HeapBytes uint64 `json:"heap_bytes"`
	// TotalAllocBytes is cumulative bytes allocated (/gc/heap/allocs:bytes).
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	// GCCycles is the number of completed GC cycles
	// (/gc/cycles/total:gc-cycles).
	GCCycles uint64 `json:"gc_cycles"`
	// GCPauseNS is the cumulative stop-the-world pause time.
	GCPauseNS uint64 `json:"gc_pause_ns"`
	// Goroutines is the live goroutine count (/sched/goroutines:goroutines).
	Goroutines int `json:"goroutines"`
}

// runtimeSampleNames are the runtime/metrics series ReadRuntime captures, in
// the order of the samples slice below.
var runtimeSampleNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/goroutines:goroutines",
}

// ReadRuntime captures the process runtime gauges. Unknown series (older
// toolchains) read as zero rather than failing.
func ReadRuntime() RuntimeStats {
	samples := make([]metrics.Sample, len(runtimeSampleNames))
	for i, name := range runtimeSampleNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	u64 := func(i int) uint64 {
		if samples[i].Value.Kind() == metrics.KindUint64 {
			return samples[i].Value.Uint64()
		}
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeStats{
		HeapBytes:       u64(0),
		TotalAllocBytes: u64(1),
		GCCycles:        u64(2),
		GCPauseNS:       ms.PauseTotalNs,
		Goroutines:      int(u64(3)),
	}
}

// WriteProm renders the runtime gauges in the Prometheus text exposition
// format under the given metric-name prefix (e.g. "lrserved" yields
// lrserved_runtime_heap_bytes). The rendering is append-only: callers tack
// it onto an existing exposition without disturbing earlier series.
func (r RuntimeStats) WriteProm(w io.Writer, prefix string) {
	WritePromSeries(w, "counter",
		PromSeries{prefix + "_runtime_total_alloc_bytes", int64(r.TotalAllocBytes)},
		PromSeries{prefix + "_runtime_gc_cycles_total", int64(r.GCCycles)},
		PromSeries{prefix + "_runtime_gc_pause_ns_total", int64(r.GCPauseNS)})
	WritePromSeries(w, "gauge",
		PromSeries{prefix + "_runtime_heap_bytes", int64(r.HeapBytes)},
		PromSeries{prefix + "_runtime_goroutines", int64(r.Goroutines)})
}

// PromSeries is one unlabeled Prometheus series and its value.
type PromSeries struct {
	Name string
	Val  int64
}

// WritePromSeries renders each series as a "# TYPE name typ" line followed
// by its sample, in the order given; typ is "counter" or "gauge".
func WritePromSeries(w io.Writer, typ string, series ...PromSeries) {
	for _, s := range series {
		fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", s.Name, typ, s.Name, s.Val)
	}
}

// Sampler periodically captures Snapshots into a JSONL stream. It is driven
// by the caller (cmd/lrscale samples from scale.Config.Progress); obs
// imposes no timer of its own. Not safe for concurrent use.
type Sampler struct {
	w     *bufio.Writer
	err   error
	start time.Time

	lastWall   time.Duration
	lastEvents uint64
	sampled    int
}

// NewSampler returns a sampler writing JSONL snapshots to w.
//
//lrlint:effects(wallclock) captures the wall-time origin snapshots are stamped against; sampling is reporting-only
func NewSampler(w io.Writer) *Sampler {
	return &Sampler{w: bufio.NewWriter(w), start: time.Now()}
}

// Sample captures one snapshot from the given engine gauges plus the process
// runtime, appends it to the stream, and returns it. Write errors are
// latched and surfaced by Flush.
//
//lrlint:effects(wallclock) the sampler boundary: wall time stamps snapshots and derives events/sec; measurements never feed back into simulation
func (s *Sampler) Sample(g Gauges) Snapshot {
	if s == nil {
		return Snapshot{}
	}
	wall := time.Since(s.start)
	snap := Snapshot{
		SchemaV:   SnapshotSchema,
		WallMS:    wall.Milliseconds(),
		SimNS:     g.SimNS,
		Events:    g.Events,
		Pending:   g.Pending,
		Completed: g.Completed,
		Runtime:   ReadRuntime(),
	}
	if s.sampled > 0 {
		if dt := (wall - s.lastWall).Seconds(); dt > 0 {
			snap.EventsPerSec = float64(g.Events-s.lastEvents) / dt
		}
	}
	s.lastWall = wall
	s.lastEvents = g.Events
	s.sampled++
	if s.err == nil {
		line, err := json.Marshal(snap)
		if err == nil {
			line = append(line, '\n')
			_, err = s.w.Write(line)
		}
		if err != nil {
			s.err = err
		}
	}
	return snap
}

// Samples returns how many snapshots were captured.
func (s *Sampler) Samples() int {
	if s == nil {
		return 0
	}
	return s.sampled
}

// Flush drains the buffered stream, reporting the first latched write error.
func (s *Sampler) Flush() error {
	if s == nil {
		return nil
	}
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// ReadSnapshots strictly parses a snapshot JSONL stream: unknown fields and
// unknown schema versions are errors, blank lines are skipped.
func ReadSnapshots(r io.Reader) ([]Snapshot, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var out []Snapshot
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var snap Snapshot
		if err := dec.Decode(&snap); err != nil {
			return nil, fmt.Errorf("obs: snapshot line %d: %w", line, err)
		}
		if snap.SchemaV != SnapshotSchema {
			return nil, fmt.Errorf("obs: snapshot line %d: schema v%d unsupported (want v%d)", line, snap.SchemaV, SnapshotSchema)
		}
		out = append(out, snap)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: snapshots: %w", err)
	}
	return out, nil
}

// WriteSnapshotText renders a snapshot series as an aligned human-readable
// table (the lrobs snapshots subcommand).
func WriteSnapshotText(w io.Writer, snaps []Snapshot) error {
	if _, err := fmt.Fprintf(w, "%10s %12s %12s %12s %10s %10s %12s %6s %6s\n",
		"wall_ms", "sim_s", "events", "events/s", "pending", "completed", "heap_mb", "gc", "gor"); err != nil {
		return err
	}
	for _, s := range snaps {
		if _, err := fmt.Fprintf(w, "%10d %12.1f %12d %12.0f %10d %10d %12.2f %6d %6d\n",
			s.WallMS, float64(s.SimNS)/1e9, s.Events, s.EventsPerSec, s.Pending, s.Completed,
			float64(s.Runtime.HeapBytes)/(1024*1024), s.Runtime.GCCycles, s.Runtime.Goroutines); err != nil {
			return err
		}
	}
	return nil
}

// HeapPeak keeps the heap profile taken when the post-GC live heap
// (/gc/heap/live:bytes) was highest across its Observe calls, so a run can
// answer "where did the memory go" at its peak. The runtime's heap profile
// describes the same most recent collection the gauge does. Not safe for
// concurrent use.
type HeapPeak struct {
	live uint64
	prof bytes.Buffer
}

// Observe reads the post-GC live heap and, when it exceeds every earlier
// reading, replaces the kept profile with a fresh one.
func (p *HeapPeak) Observe() error {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return fmt.Errorf("obs: runtime has no post-GC live-heap gauge")
	}
	live := s[0].Value.Uint64()
	if p.prof.Len() > 0 && live <= p.live {
		return nil
	}
	p.live = live
	p.prof.Reset()
	return pprof.Lookup("heap").WriteTo(&p.prof, 0)
}

// LiveBytes returns the highest post-GC live heap observed.
func (p *HeapPeak) LiveBytes() uint64 { return p.live }

// Profile returns the gzipped pprof heap profile kept at the peak, empty
// before the first Observe.
func (p *HeapPeak) Profile() []byte { return p.prof.Bytes() }
