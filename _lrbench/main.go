// Command lrbench is the repository benchmark. One invocation runs one
// workload for a fixed wall-clock budget, checks the output of every
// operation, and prints as the last line of standard output one JSON object:
//
//	{"correct": true, "attempted": 412, "failed": 0, "metrics": {"latency_p50_ms": {"value": 21.3, "unit": "ms"}, ...}}
//
// With -trace 0 the metrics are the end-to-end set: operation throughput,
// latency percentiles, peak RSS and set-up time. With -trace 1 the workload
// runs instrumented and the metrics are the per-layer set: the obs phase
// timers on the scale path, a counting trace sink on the experiment path,
// per-caller latencies on the serving path, and the cost of each primitive the
// runs spend their time in. Every input derives from -seed alone.
//
// run.sh builds the package against the checkout it sits in and runs it
// from the checkout root:
//
//	bash _lrbench/run.sh --workload disk10k --seed 1 --seconds 10 --trace 0
//
// The package is a module of its own, in a directory whose name starts with
// an underscore, so the repository's `go build ./...`, `go test ./...` and
// lrlint's module walk never include it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// outcome is what one workload run measured.
type outcome struct {
	// attempted counts operations started; failed counts those that
	// errored or whose output did not check out.
	attempted, failed int
	// latencies holds the wall time of every successful operation.
	latencies []time.Duration
	// window is the wall time the operations were measured over.
	window time.Duration
	// setups holds one wall-time sample per set-up repetition.
	setups []time.Duration
	// layers holds the per-layer figures a traced run gathered. A name the
	// workload does not set reads zero: its path has no instrument there.
	layers map[string]float64
}

// workload runs one input mix for about budget of wall time.
type workload struct {
	name string
	run  func(seed int64, budget time.Duration, traced bool) (*outcome, error)
}

var workloads = []workload{
	{"disk10k", runDisk10k},
	{"fig4-loss", runFig4Loss},
	{"attack", runAttack},
	{"serve-mix", runServeMix},
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer mirror BENCHMARK.json's end_to_end and per_layer
// lists; a run prints exactly one of the two sets.
var endToEnd = []metricDef{
	{"throughput", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	// Primitive costs, timed in every traced run (see primitives.go).
	{"gf256_mulslice_ns", "ns"},
	{"rs_encode_us", "us"},
	{"rs_decode_us", "us"},
	{"hash_image_ns", "ns"},
	{"merkle_verify_ns", "ns"},
	{"ecdsa_verify_us", "us"},
	{"puzzle_verify_ns", "ns"},
	{"queue_event_ns", "ns"},
	// Median operation latency with the instruments on; against the
	// untraced latency_p50_ms it gives the tracing overhead.
	{"traced_latency_p50_ms", "ms"},
	// Share of event-loop wall time per obs phase (disk10k).
	{"obs_queue_share", "frac"},
	{"obs_dispatch_share", "frac"},
	{"obs_radio_share", "frac"},
	{"obs_sig_verify_share", "frac"},
	{"obs_puzzle_share", "frac"},
	{"obs_hash_verify_share", "frac"},
	{"obs_rs_encode_share", "frac"},
	{"obs_rs_decode_share", "frac"},
	{"obs_trickle_share", "frac"},
	{"obs_covered_frac", "frac"},
	{"sim_events_per_s", "1/s"},
	// Protocol work per operation (simulation workloads).
	{"sig_verifications_per_op", "count"},
	{"data_pkts_per_op", "count"},
	{"auth_drops_per_op", "count"},
	{"puzzle_rejects_per_op", "count"},
	{"bytes_per_node", "B"},
	{"trace_events_per_op", "count"},
	{"duplicate_rx_frac", "frac"},
	// Serving path (serve-mix): median latency per caller, and the sweep
	// client's share of the requests.
	{"post_hit_p50_ms", "ms"},
	{"sweep_get_p50_ms", "ms"},
	{"sweep_get_frac", "frac"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: disk10k, fig4-loss, attack or serve-mix")
		seed    = flag.Int64("seed", 1, "seed every input of the run is generated from")
		seconds = flag.Int("seconds", 10, "wall-clock seconds to measure for")
		traced  = flag.Int("trace", 0, "0 reports end-to-end metrics; 1 runs instrumented and reports per-layer metrics")
	)
	flag.Parse()
	line, err := run(*name, *seed, *seconds, *traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lrbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and renders the result line.
func run(name string, seed int64, seconds, traced int) ([]byte, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("-seconds %d must be at least 1", seconds)
	}
	if traced != 0 && traced != 1 {
		return nil, fmt.Errorf("-trace %d must be 0 or 1", traced)
	}
	var w *workload
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown -workload %q (want one of %s)", name, strings.Join(names, ", "))
	}
	o, err := w.run(seed, time.Duration(seconds)*time.Second, traced == 1)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if len(o.latencies) == 0 {
		// The line still goes out, marked incorrect; the latency metrics
		// read zero, as there is no successful operation to time.
		fmt.Fprintf(os.Stderr, "lrbench: %s: all %d operations failed\n", name, o.attempted)
	}

	values := make(map[string]float64)
	defs := endToEnd
	if traced == 1 {
		defs = perLayer
		prims, err := primitiveCosts()
		if err != nil {
			return nil, err
		}
		for _, m := range []map[string]float64{o.layers, prims} {
			for k, v := range m {
				values[k] = v
			}
		}
		values["traced_latency_p50_ms"] = ms(quantile(o.latencies, 0.5))
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		if o.window > 0 {
			values["throughput"] = float64(len(o.latencies)) / o.window.Seconds()
		}
		values["latency_p50_ms"] = ms(quantile(o.latencies, 0.5))
		values["latency_p90_ms"] = ms(quantile(o.latencies, 0.9))
		values["peak_rss_mb"] = rss
		values["setup_s"] = quantile(o.setups, 0.5).Seconds()
	}

	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	for k := range values {
		if _, ok := metrics[k]; !ok {
			return nil, fmt.Errorf("metric %q is not in the reported set", k)
		}
	}
	return json.Marshal(report{
		Correct:   o.failed == 0 && len(o.latencies) > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   metrics,
	})
}

// opSeed derives the seed of operation i of a run from the run's seed, so
// every operation of every run gets its own inputs.
func opSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// quantile returns the q-quantile of ds by linear interpolation between
// closest ranks, or zero when ds is empty.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + time.Duration((pos-float64(i))*float64(s[i+1]-s[i]))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB reads the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}
