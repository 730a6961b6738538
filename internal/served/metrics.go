package served

import (
	"fmt"
	"io"
	"strconv"
	"sync"

	"lrseluge/internal/detmap"
	"lrseluge/internal/obs"
	"lrseluge/internal/runstore"
)

// Endpoint labels, in render order. Fixed slices (not maps) keep both the
// JSON and Prometheus renderings deterministic without sorting at render
// time.
const (
	epRunsPost = "runs_post"
	epRunsGet  = "runs_get"
	epSweeps   = "sweeps"
	epHealthz  = "healthz"
	epMetrics  = "metrics"
	epOther    = "other"
)

var endpointOrder = []string{epRunsPost, epRunsGet, epSweeps, epHealthz, epMetrics, epOther}

// latencyBuckets are the histogram upper bounds in seconds (+Inf implied).
// The low end resolves the cache-hit path (sub-millisecond file reads), the
// high end covers cold multi-minute sweep computes.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// histogram is a fixed-bucket latency histogram.
type histogram struct {
	counts []int64 // counts[i] = observations in bucket i; last slot = +Inf
	sum    float64
	total  int64
}

func newHistogram() histogram {
	return histogram{counts: make([]int64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(sec float64) {
	idx := len(latencyBuckets)
	for i, ub := range latencyBuckets {
		if sec <= ub {
			idx = i
			break
		}
	}
	h.counts[idx]++
	h.sum += sec
	h.total++
}

// quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// inside the winning bucket, the standard Prometheus histogram estimate.
func (h *histogram) quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := q * float64(h.total)
	var cum int64
	lower := 0.0
	for i, c := range h.counts {
		if c == 0 {
			if i < len(latencyBuckets) {
				lower = latencyBuckets[i]
			}
			continue
		}
		if float64(cum+c) >= rank {
			upper := lower
			if i < len(latencyBuckets) {
				upper = latencyBuckets[i]
			}
			frac := (rank - float64(cum)) / float64(c)
			return lower + (upper-lower)*frac
		}
		cum += c
		if i < len(latencyBuckets) {
			lower = latencyBuckets[i]
		}
	}
	return lower
}

// endpointStats meters one endpoint: request counts by status code plus the
// latency histogram.
type endpointStats struct {
	byCode map[int]int64
	lat    histogram
}

// Metrics is the server's request-level instrumentation. All methods are
// safe for concurrent use.
type Metrics struct {
	mu        sync.Mutex
	endpoints map[string]*endpointStats
	inflight  int64
	hits      int64
	misses    int64
	coalesced int64
	computes  int64
}

func newMetrics() *Metrics {
	m := &Metrics{endpoints: make(map[string]*endpointStats, len(endpointOrder))}
	for _, ep := range endpointOrder {
		m.endpoints[ep] = &endpointStats{byCode: make(map[int]int64), lat: newHistogram()}
	}
	return m
}

// begin/end bracket one in-flight request.
func (m *Metrics) begin() {
	m.mu.Lock()
	m.inflight++
	m.mu.Unlock()
}

func (m *Metrics) end(endpoint string, code int, sec float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inflight--
	ep := m.endpoints[endpoint]
	if ep == nil {
		ep = m.endpoints[epOther]
	}
	ep.byCode[code]++
	ep.lat.observe(sec)
}

// cacheHit/cacheMiss/cacheCoalesced/computeDone count run-cache outcomes.
func (m *Metrics) cacheHit() { m.mu.Lock(); m.hits++; m.mu.Unlock() }

func (m *Metrics) cacheMiss() { m.mu.Lock(); m.misses++; m.mu.Unlock() }

func (m *Metrics) cacheCoalesced() { m.mu.Lock(); m.coalesced++; m.mu.Unlock() }

func (m *Metrics) computeDone() { m.mu.Lock(); m.computes++; m.mu.Unlock() }

// addCache folds a batch of cache outcomes in at once (the sweep handler
// resolves many cells per request).
func (m *Metrics) addCache(hits, misses, computes int64) {
	m.mu.Lock()
	m.hits += hits
	m.misses += misses
	m.computes += computes
	m.mu.Unlock()
}

// EndpointSnapshot is the JSON rendering of one endpoint's meters.
type EndpointSnapshot struct {
	RequestsByCode map[string]int64 `json:"requests_by_code"`
	Count          int64            `json:"count"`
	SumSec         float64          `json:"sum_sec"`
	P50Sec         float64          `json:"p50_sec"`
	P99Sec         float64          `json:"p99_sec"`
}

// Snapshot is the JSON rendering of /metrics.
type Snapshot struct {
	Endpoints map[string]EndpointSnapshot `json:"endpoints"`
	Cache     CacheSnapshot               `json:"cache"`
	Store     runstore.Stats              `json:"store"`
}

// CacheSnapshot summarizes run-cache traffic.
type CacheSnapshot struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Computes  int64 `json:"computes"`
	Inflight  int64 `json:"inflight"`
}

// snapshot captures the meters under the lock; store stats are merged in by
// the caller (the store has its own lock).
func (m *Metrics) snapshot(store runstore.Stats) Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := Snapshot{
		Endpoints: make(map[string]EndpointSnapshot, len(endpointOrder)),
		Cache: CacheSnapshot{
			Hits: m.hits, Misses: m.misses, Coalesced: m.coalesced,
			Computes: m.computes, Inflight: m.inflight,
		},
		Store: store,
	}
	for _, name := range endpointOrder {
		ep := m.endpoints[name]
		snap := EndpointSnapshot{
			RequestsByCode: make(map[string]int64, len(ep.byCode)),
			Count:          ep.lat.total,
			SumSec:         ep.lat.sum,
			P50Sec:         ep.lat.quantile(0.5),
			P99Sec:         ep.lat.quantile(0.99),
		}
		for _, code := range detmap.SortedKeys(ep.byCode) {
			snap.RequestsByCode[strconv.Itoa(code)] = ep.byCode[code]
		}
		out.Endpoints[name] = snap
	}
	return out
}

// writeProm renders the meters in the Prometheus text exposition format.
func (m *Metrics) writeProm(w io.Writer, store runstore.Stats) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# TYPE lrserved_requests_total counter\n")
	for _, name := range endpointOrder {
		ep := m.endpoints[name]
		for _, code := range detmap.SortedKeys(ep.byCode) {
			fmt.Fprintf(w, "lrserved_requests_total{endpoint=%q,code=\"%d\"} %d\n", name, code, ep.byCode[code])
		}
	}

	fmt.Fprintf(w, "# TYPE lrserved_request_seconds histogram\n")
	for _, name := range endpointOrder {
		ep := m.endpoints[name]
		if ep.lat.total == 0 {
			continue
		}
		var cum int64
		for i, ub := range latencyBuckets {
			cum += ep.lat.counts[i]
			fmt.Fprintf(w, "lrserved_request_seconds_bucket{endpoint=%q,le=%q} %d\n", name, promFloat(ub), cum)
		}
		cum += ep.lat.counts[len(latencyBuckets)]
		fmt.Fprintf(w, "lrserved_request_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "lrserved_request_seconds_sum{endpoint=%q} %s\n", name, promFloat(ep.lat.sum))
		fmt.Fprintf(w, "lrserved_request_seconds_count{endpoint=%q} %d\n", name, ep.lat.total)
	}

	obs.WritePromSeries(w, "counter",
		obs.PromSeries{Name: "lrserved_cache_hits_total", Val: m.hits},
		obs.PromSeries{Name: "lrserved_cache_misses_total", Val: m.misses},
		obs.PromSeries{Name: "lrserved_cache_coalesced_total", Val: m.coalesced},
		obs.PromSeries{Name: "lrserved_runs_computed_total", Val: m.computes},
		obs.PromSeries{Name: "lrserved_store_puts_total", Val: store.Puts},
		obs.PromSeries{Name: "lrserved_store_evictions_total", Val: store.Evictions},
		obs.PromSeries{Name: "lrserved_store_corrupt_total", Val: store.Corrupt})
	obs.WritePromSeries(w, "gauge",
		obs.PromSeries{Name: "lrserved_inflight_requests", Val: m.inflight},
		obs.PromSeries{Name: "lrserved_store_entries", Val: int64(store.Entries)},
		obs.PromSeries{Name: "lrserved_store_bytes", Val: store.Bytes},
		obs.PromSeries{Name: "lrserved_store_max_bytes", Val: store.MaxBytes})

	// Process-level runtime health (heap, GC, goroutines), appended last so
	// every series above keeps its exact bytes and order.
	obs.ReadRuntime().WriteProm(w, "lrserved")
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
