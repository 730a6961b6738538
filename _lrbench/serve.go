package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"lrseluge/internal/runstore"
	"lrseluge/internal/served"
)

// serve-mix drives the lrserved HTTP surface (internal/served over a
// runstore under .bench_build/) on a loopback listener with the two callers
// the repository documents, each a closed-loop client that sends its next
// request as soon as the previous one is answered:
//
//   - the hit hammer of `lrserved -selfbench` (BENCH_served.json): POSTs of
//     its multi-hop spec, which the store already holds;
//   - the sweep client of the README: GET /v1/sweeps/fig4?runs=3 re-run
//     against a warm store, every cell read back from it.
//
// No request share is chosen: each caller's share of the requests follows
// from the two latencies. An operation is one request. Set-up opens a fresh
// store, starts the server and makes each caller's first request, which
// computes its results (the simulation) and stores them; it is repeated
// serveSetups times and the last server is measured, so the measured window
// is the serving path alone.
const serveSetups = 3

// serveSweepQuery is the sweep client's request: the README's fig4 sweep at
// three runs per cell, in quick mode so the cache fill stays within set-up.
const serveSweepQuery = "/v1/sweeps/fig4?runs=3&quick=true&seed=%d"

// benchDir holds the benchmark's run-time files, inside the checkout.
const benchDir = ".bench_build/run"

// serveEnv is one running server over its own store directory and the
// answers each caller must get back byte for byte.
type serveEnv struct {
	dir    string
	hs     *http.Server
	served chan error
	base   string
	client *http.Client

	spec, sweepPath    string
	runBody, sweepBody []byte
}

// serveCaller is one closed-loop client.
type serveCaller struct {
	name string
	do   func(e *serveEnv) error
}

var serveCallers = []serveCaller{
	{"post_hit", (*serveEnv).postHit},
	{"sweep_get", (*serveEnv).sweepGet},
}

func runServeMix(seed int64, budget time.Duration, traced bool) (*outcome, error) {
	if err := os.MkdirAll(benchDir, 0o755); err != nil {
		return nil, err
	}
	o := &outcome{layers: make(map[string]float64)}
	var env *serveEnv
	for r := 0; r < serveSetups; r++ {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		env, err = startServe(seed)
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, time.Since(t0))
	}

	var (
		mu     sync.Mutex
		byKind = make([][]time.Duration, len(serveCallers))
		wg     sync.WaitGroup
		start  = time.Now()
	)
	deadline := start.Add(budget)
	for c, caller := range serveCallers {
		wg.Add(1)
		go func(c int, caller serveCaller) {
			defer wg.Done()
			var lats []time.Duration
			attempted, failed := 0, 0
			for time.Now().Before(deadline) {
				t0 := time.Now()
				err := caller.do(env)
				d := time.Since(t0)
				attempted++
				if err != nil {
					failed++
					fmt.Fprintf(os.Stderr, "serve-mix: %s: %v\n", caller.name, err)
					continue
				}
				lats = append(lats, d)
			}
			mu.Lock()
			o.attempted += attempted
			o.failed += failed
			o.latencies = append(o.latencies, lats...)
			byKind[c] = lats
			mu.Unlock()
		}(c, caller)
	}
	wg.Wait()
	o.window = time.Since(start)

	if traced {
		for c, caller := range serveCallers {
			if len(byKind[c]) == 0 {
				continue
			}
			o.layers[caller.name+"_p50_ms"] = ms(quantile(byKind[c], 0.5))
			if caller.name == "sweep_get" {
				o.layers["sweep_get_frac"] = float64(len(byKind[c])) / float64(len(o.latencies))
			}
		}
	}
	if err := env.close(); err != nil {
		return nil, err
	}
	return o, nil
}

// startServe opens a fresh store, starts a server on a loopback port and
// makes each caller's first request, which computes and stores its results.
func startServe(seed int64) (*serveEnv, error) {
	dir, err := os.MkdirTemp(benchDir, "store-*")
	if err != nil {
		return nil, err
	}
	store, err := runstore.Open(dir, runstore.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv, err := served.New(served.Config{Store: store, CodeVersion: "lrbench", Workers: 1})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	env := &serveEnv{
		dir:    dir,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: len(serveCallers)},
			Timeout:   60 * time.Second,
		},
		// The spec of `lrserved -selfbench`, at this run's seed.
		spec: fmt.Sprintf(`{"seed": %d, "protocol": "lr-seluge", "grid": {"rows": 6, "cols": 6}, "noise": "heavy", "image_size": 20480, "runs": 2}`,
			seed),
		sweepPath: fmt.Sprintf(serveSweepQuery, seed),
	}
	go func() { env.served <- env.hs.Serve(ln) }()
	if err := env.fill(); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// fill makes each caller's cold request and keeps the answers the measured
// requests must match.
func (e *serveEnv) fill() error {
	body, disp, err := e.post(e.spec)
	if err != nil {
		return fmt.Errorf("cold POST: %w", err)
	}
	if disp != "miss" {
		return fmt.Errorf("cold POST: fresh store answered %q", disp)
	}
	var run served.RunEnvelope
	if err := json.Unmarshal(body, &run); err != nil {
		return fmt.Errorf("cold POST: decode: %w", err)
	}
	if !run.Result.ImagesOK {
		return errors.New("cold POST: a node finished with a corrupt image")
	}
	e.runBody = body

	cold, err := e.get(e.sweepPath)
	if err != nil {
		return fmt.Errorf("cold sweep: %w", err)
	}
	var sw served.SweepResponse
	if err := json.Unmarshal(cold, &sw); err != nil {
		return fmt.Errorf("cold sweep: decode: %w", err)
	}
	if sw.Hits != 0 || sw.Misses == 0 || sw.Misses != len(sw.Cells) {
		return fmt.Errorf("cold sweep: %d hits, %d misses over %d cells", sw.Hits, sw.Misses, len(sw.Cells))
	}
	for _, c := range sw.Cells {
		if c.Result.Completed != 1 || !c.Result.ImagesOK {
			return fmt.Errorf("cold sweep: cell %s: completed fraction %v, images ok %v",
				c.Name, c.Result.Completed, c.Result.ImagesOK)
		}
	}
	// The warm answer differs from the cold one only in its hit counts and
	// cached flags; every later re-run must return it byte for byte.
	warm, err := e.get(e.sweepPath)
	if err != nil {
		return fmt.Errorf("warm sweep: %w", err)
	}
	var ws served.SweepResponse
	if err := json.Unmarshal(warm, &ws); err != nil {
		return fmt.Errorf("warm sweep: decode: %w", err)
	}
	if ws.Hits != len(sw.Cells) || ws.Misses != 0 {
		return fmt.Errorf("warm sweep: %d hits, %d misses over %d cells", ws.Hits, ws.Misses, len(sw.Cells))
	}
	e.sweepBody = warm
	return nil
}

// postHit is the selfbench caller's request: the stored spec again, which
// must come back as a hit with the cold answer's bytes.
func (e *serveEnv) postHit() error {
	body, disp, err := e.post(e.spec)
	if err != nil {
		return err
	}
	if disp != "hit" || !bytes.Equal(body, e.runBody) {
		return fmt.Errorf("stored spec: disposition %q, body identical %v", disp, bytes.Equal(body, e.runBody))
	}
	return nil
}

// sweepGet is the sweep client's request: the warm sweep again, every cell
// a store hit.
func (e *serveEnv) sweepGet() error {
	body, err := e.get(e.sweepPath)
	if err != nil {
		return err
	}
	if !bytes.Equal(body, e.sweepBody) {
		return errors.New("warm sweep: body differs from the first warm answer")
	}
	return nil
}

// close stops the server, waits for it to return and deletes its store.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	e.client.CloseIdleConnections()
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

// post sends a spec to POST /v1/runs and returns the body and the cache
// disposition.
func (e *serveEnv) post(spec string) ([]byte, string, error) {
	resp, err := e.client.Post(e.base+"/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("POST /v1/runs: %d: %s", resp.StatusCode, body)
	}
	return body, resp.Header.Get("X-Lrserved-Cache"), nil
}

// get fetches a path and returns the body of a 200 response.
func (e *serveEnv) get(path string) ([]byte, error) {
	resp, err := e.client.Get(e.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d: %s", path, resp.StatusCode, body)
	}
	return body, nil
}
