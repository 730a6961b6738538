// Command lrserved serves simulation results over HTTP from a
// content-addressed run store: POST a scenario spec and get its averaged
// result — computed on the first request, served from the store on every
// later one, across restarts. See internal/served for the endpoints and
// internal/runstore for the on-disk format.
//
// Examples:
//
//	lrserved -store /var/lib/lrseluge -addr :8080 -code-version v7
//	lrserved -store /tmp/rs -max-store-bytes 104857600 -workers 4
//	lrserved -smoke
//	lrserved -selfbench BENCH_served.json
//
// Exit codes: 0 success (including clean shutdown on SIGINT/SIGTERM),
// 1 runtime failure or a failed -selfbench gate, 2 usage errors.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"lrseluge/internal/bench"
	"lrseluge/internal/runstore"
	"lrseluge/internal/served"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 = ephemeral)")
		storeDir    = flag.String("store", "", "run-store directory (required for serving; smoke/selfbench default to a temp dir)")
		workers     = flag.Int("workers", 0, "compute pool width per request (0 = GOMAXPROCS)")
		maxBytes    = flag.Int64("max-store-bytes", 0, "store size cap in bytes; LRU-evict past it (0 = unbounded)")
		codeVersion = flag.String("code-version", "dev", "code-version stamp mixed into every run key")
		smoke       = flag.Bool("smoke", false, "self-test mode: start on an ephemeral port, drive miss->hit->restart->warm-hit over real HTTP, exit")
		selfbench   = flag.String("selfbench", "", "benchmark mode: measure cold-miss vs cache-hit latency under concurrent clients, write timings to this JSON file, gate the ratio, exit")
	)
	flag.Parse()

	if *smoke || *selfbench != "" {
		dir := *storeDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "lrserved-*")
			if err != nil {
				fmt.Fprintf(os.Stderr, "lrserved: %v\n", err)
				return 1
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		var err error
		if *smoke {
			err = runSmoke(dir, *workers, *maxBytes, *codeVersion)
		} else {
			err = runSelfbench(*selfbench, dir, *workers, *maxBytes, *codeVersion)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "lrserved: %v\n", err)
			return 1
		}
		return 0
	}

	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "lrserved: -store is required (the run-store directory)")
		return 2
	}
	hs, ln, err := startServer(*addr, *storeDir, *workers, *maxBytes, *codeVersion)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lrserved: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "lrserved: listening on %s (store %s, code-version %s)\n",
		ln.Addr(), *storeDir, *codeVersion)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "lrserved: %v, shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "lrserved: shutdown: %v\n", err)
			return 1
		}
		return 0
	case err := <-serveErr:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "lrserved: %v\n", err)
			return 1
		}
		return 0
	}
}

// startServer opens the store, mounts the served handler and starts
// listening (without serving yet — the caller drives Serve).
func startServer(addr, storeDir string, workers int, maxBytes int64, codeVersion string) (*http.Server, net.Listener, error) {
	store, err := runstore.Open(storeDir, runstore.Options{MaxBytes: maxBytes})
	if err != nil {
		return nil, nil, err
	}
	srv, err := served.New(served.Config{
		Store:       store,
		CodeVersion: codeVersion,
		Workers:     workers,
	})
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	return &http.Server{Handler: srv.Handler()}, ln, nil
}

// startEphemeral boots a server on an ephemeral loopback port and begins
// serving; it returns the base URL and a stop function.
func startEphemeral(storeDir string, workers int, maxBytes int64, codeVersion string) (string, func() error, error) {
	hs, ln, err := startServer("127.0.0.1:0", storeDir, workers, maxBytes, codeVersion)
	if err != nil {
		return "", nil, err
	}
	go hs.Serve(ln)
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return hs.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// smokeSpec is the tiny scenario the smoke mode exercises: small
// enough to compute in well under a second, real enough to run the full
// simulator, spelled with shuffled field order so the canonicalization path
// is exercised over real HTTP too.
const smokeSpec = `{"seed": 1, "receivers": 3, "protocol": "lr-seluge", "image_size": 2048}`

// benchSpec is the -selfbench workload: heavy enough that the cold compute
// dominates (a multi-hop 4x4 grid under bursty noise, two seeds averaged),
// which is exactly the regime the cache exists for. The hit path's cost is
// independent of the spec, so the cold/hit ratio reported is a lower bound
// for real sweep cells.
const benchSpec = `{"seed": 1, "protocol": "lr-seluge", "grid": {"rows": 6, "cols": 6}, "noise": "heavy", "image_size": 20480, "runs": 2}`

// postRun POSTs a spec body and returns the response body, cache
// disposition, and key header.
func postRun(client *http.Client, base, spec string) ([]byte, string, string, error) {
	resp, err := client.Post(base+"/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		return nil, "", "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", "", fmt.Errorf("POST /v1/runs: %d: %s", resp.StatusCode, body)
	}
	return body, resp.Header.Get("X-Lrserved-Cache"), resp.Header.Get("X-Lrserved-Key"), nil
}

// runSmoke drives the daemon's core contract over real loopback HTTP:
// healthz, a cold miss, a warm hit with a byte-identical body, a GET by key,
// then a full restart over the same store directory and a warm hit from the
// reopened store.
func runSmoke(dir string, workers int, maxBytes int64, codeVersion string) error {
	base, stop, err := startEphemeral(dir, workers, maxBytes, codeVersion)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 60 * time.Second}

	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %d", resp.StatusCode)
	}

	cold, disp, key, err := postRun(client, base, smokeSpec)
	if err != nil {
		return err
	}
	if disp != "miss" {
		return fmt.Errorf("first POST disposition %q, want miss", disp)
	}
	warm, disp, _, err := postRun(client, base, smokeSpec)
	if err != nil {
		return err
	}
	if disp != "hit" {
		return fmt.Errorf("second POST disposition %q, want hit", disp)
	}
	if !bytes.Equal(cold, warm) {
		return fmt.Errorf("hit body differs from miss body")
	}

	getResp, err := client.Get(base + "/v1/runs/" + key)
	if err != nil {
		return err
	}
	byKey, err := io.ReadAll(getResp.Body)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusOK || !bytes.Equal(byKey, cold) {
		return fmt.Errorf("GET by key: %d, identical=%v", getResp.StatusCode, bytes.Equal(byKey, cold))
	}

	if err := stop(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}

	// Restart over the same store directory: the result must survive as a
	// warm hit with the same bytes.
	base2, stop2, err := startEphemeral(dir, workers, maxBytes, codeVersion)
	if err != nil {
		return err
	}
	defer stop2()
	restarted, disp, _, err := postRun(client, base2, smokeSpec)
	if err != nil {
		return err
	}
	if disp != "hit" {
		return fmt.Errorf("post-restart POST disposition %q, want warm hit", disp)
	}
	if !bytes.Equal(cold, restarted) {
		return fmt.Errorf("post-restart body differs from original")
	}
	fmt.Fprintf(os.Stderr, "lrserved: smoke OK: miss -> hit -> restart -> warm hit, byte-identical (key %s)\n", key)
	return nil
}

// minColdToHit is the -selfbench gate: the cold-miss median must stay at
// least this many times the hit p50, judged by bench.AtLeast against the
// cold-miss side's noise.
const minColdToHit = 100

// servedBenchReport is the schema of the -selfbench JSON artifact
// (BENCH_served.json).
type servedBenchReport struct {
	bench.Header
	Clients           int `json:"clients"`
	RequestsPerClient int `json:"requests_per_client"`

	// ColdMiss times the first POST to a server over a fresh store: full
	// simulation plus store write. Hammer times one round of concurrent
	// hits against a warm server.
	ColdMiss bench.Side `json:"cold_miss"`
	Hammer   bench.Side `json:"hammer"`
	// Hit quantiles are read off the per-request latencies pooled over
	// every hammer round.
	HitP50Sec float64 `json:"hit_p50_sec"`
	HitP99Sec float64 `json:"hit_p99_sec"`
	HitMaxSec float64 `json:"hit_max_sec"`
	// HitThroughputRPS is hits served per hammer wall-clock second.
	HitThroughputRPS float64 `json:"hit_throughput_rps"`
	// ColdToHitP50 is the economics headline: how many times faster the
	// cached path is than recomputing (cold-miss median / hit p50).
	ColdToHitP50 float64 `json:"cold_to_hit_p50"`
	// Identical is true when every cold and hit body matched byte for byte.
	Identical bool `json:"identical"`
}

// runSelfbench measures the cold-miss vs cache-hit latency split over real
// loopback HTTP, interleaving cold POSTs (each to its own server over a
// fresh store) with rounds of concurrent clients hammering a warm server,
// and gates the ratio at minColdToHit.
func runSelfbench(path, dir string, workers int, maxBytes int64, codeVersion string) error {
	client := &http.Client{Timeout: 120 * time.Second}
	// bases[0] is the warm server; bases[1:] serve one cold POST each. All
	// start up front so server start-up stays off the clock.
	bases := make([]string, bench.Pairs+1)
	for i := range bases {
		base, stop, err := startEphemeral(filepath.Join(dir, strconv.Itoa(i)), workers, maxBytes, codeVersion)
		if err != nil {
			return err
		}
		defer stop()
		bases[i] = base
	}
	post := func(base, want string) ([]byte, error) {
		body, disp, _, err := postRun(client, base, benchSpec)
		if err == nil && disp != want {
			err = fmt.Errorf("POST disposition %q, want %s", disp, want)
		}
		return body, err
	}
	warm, err := post(bases[0], "miss")
	if err != nil {
		return err
	}
	warmDigest := fmt.Sprintf("%x", sha256.Sum256(warm))

	colds := 0
	coldMiss := func() (string, error) {
		colds++
		body, err := post(bases[colds], "miss")
		return fmt.Sprintf("%x", sha256.Sum256(body)), err
	}
	clients := min(max(runtime.NumCPU(), 2), 8)
	const perClient = 50
	var (
		mu       sync.Mutex
		lats     []float64
		firstErr error
	)
	hammer := func() (string, error) {
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < perClient; j++ {
					t0 := time.Now()
					body, err := post(bases[0], "hit")
					sec := time.Since(t0).Seconds()
					if err == nil && !bytes.Equal(body, warm) {
						err = errors.New("hit body differs from the cold body")
					}
					mu.Lock()
					lats = append(lats, sec)
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					if err != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
		return warmDigest, firstErr
	}

	res, err := bench.AB(coldMiss, hammer)
	if err != nil {
		return fmt.Errorf("selfbench: %w", err)
	}
	sort.Float64s(lats)
	rep := servedBenchReport{
		Header:            res.Header,
		Clients:           clients,
		RequestsPerClient: perClient,
		ColdMiss:          res.A,
		Hammer:            res.B,
		HitP50Sec:         bench.Quantile(lats, 0.50),
		HitP99Sec:         bench.Quantile(lats, 0.99),
		HitMaxSec:         lats[len(lats)-1],
		HitThroughputRPS:  float64(clients*perClient) / res.B.MedianSec,
		ColdToHitP50:      res.A.MedianSec / bench.Quantile(lats, 0.50),
		Identical:         true,
	}
	fmt.Fprintf(os.Stderr, "lrserved: selfbench: cold miss %.3fs (noise %.1f%%), hit p50 %.2fms p99 %.2fms (%.0f rps, %d clients), cold/hit-p50 %.0fx -> %s\n",
		res.A.MedianSec, 100*res.A.Noise(), 1e3*rep.HitP50Sec, 1e3*rep.HitP99Sec, rep.HitThroughputRPS, clients, rep.ColdToHitP50, path)
	if err := bench.WriteJSON(path, rep); err != nil {
		return err
	}
	return bench.AtLeast("selfbench: cold_to_hit_p50", rep.ColdToHitP50, minColdToHit, res.A)
}
