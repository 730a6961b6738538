// Command lrlint runs the repo's determinism and safety analyzer suite over
// the module. It exits non-zero when any finding survives, making it
// suitable as a CI gate:
//
//	go run ./cmd/lrlint ./...
//	go run ./cmd/lrlint -json ./... > lint.json
//	go run ./cmd/lrlint -rules verify-before-use,rng-stream-discipline ./...
//	go run ./cmd/lrlint -selfbench BENCH_lint.json ./...
//	go run ./cmd/lrlint -baseline lint-baseline.json ./...
//	go run ./cmd/lrlint -sarif lint.sarif ./...
//
// The positional argument may be ./... (whole module, the default) or a
// directory inside the module; either way the whole module containing it is
// loaded so cross-package types resolve. Rules and the //lrlint:ignore
// escape hatch are documented in internal/lint.
//
// -json emits the diagnostic artifact (internal/lint.Report) on stdout
// instead of the human-readable lines; scripts/check.sh diffs it against a
// committed golden so the clean state is pinned byte-for-byte. -rules
// restricts the run to a comma-separated subset of the catalog. -selfbench
// times the load, interleaved parallel and serial analyses, and each pass in
// isolation, and writes the result to the given JSON file (wall-clock use is
// fine here: lrlint is tooling, not simulation, and lives outside
// internal/).
//
// -baseline subtracts a committed lint-baseline.json from the findings so
// only DRIFT — findings the baseline has never accepted — fails the gate;
// -write-baseline snapshots the current findings into that artifact. -sarif
// additionally writes the surviving findings as a SARIF 2.1.0 log ("-" for
// stdout) for code-scanning UIs. -unused-ignores (default true) controls the
// stale-directive pass.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"lrseluge/internal/bench"
	"lrseluge/internal/lint"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "lrlint:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("lrlint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the diagnostic report as JSON on stdout")
	rulesFlag := fs.String("rules", "", "comma-separated rule names to run (default: all)")
	selfbench := fs.String("selfbench", "", "write a load/analyze timing benchmark to this JSON file")
	baselinePath := fs.String("baseline", "", "subtract this accepted-findings baseline; only drift fails")
	writeBaseline := fs.String("write-baseline", "", "snapshot the current findings to this baseline file and exit 0")
	sarifPath := fs.String("sarif", "", "also write surviving findings as SARIF 2.1.0 to this file (\"-\" for stdout)")
	unusedIgnores := fs.Bool("unused-ignores", true, "flag //lrlint:ignore directives that suppress nothing")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}

	dir := "."
	for _, a := range fs.Args() {
		if a == "./..." || a == "" {
			continue
		}
		dir = strings.TrimSuffix(a, "/...")
	}
	if dir != "." {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			return 0, fmt.Errorf("%s is not a directory in this module", dir)
		}
	}
	root, err := findModuleRoot(dir)
	if err != nil {
		return 0, err
	}

	var rules []string
	if *rulesFlag != "" {
		for _, r := range strings.Split(*rulesFlag, ",") {
			r = strings.TrimSpace(r)
			if r == "" {
				continue
			}
			if !knownRule(r) {
				return 0, fmt.Errorf("unknown rule %q (catalog: %s)", r, strings.Join(lint.AllRules, ", "))
			}
			rules = append(rules, r)
		}
	}

	loadStart := time.Now()
	pkgs, modPath, err := lint.LoadModule(root)
	if err != nil {
		return 0, err
	}
	loadDur := time.Since(loadStart)

	cfg := lint.DefaultConfig(modPath)
	cfg.Rules = rules
	cfg.UnusedIgnores = *unusedIgnores
	if wd, err := os.Getwd(); err == nil {
		cfg.TrimPrefix = wd
	}

	diags := lint.Run(pkgs, cfg)

	if *selfbench != "" {
		if err := writeSelfbench(*selfbench, modPath, pkgs, cfg, loadDur, len(diags)); err != nil {
			return 0, err
		}
	}

	if *writeBaseline != "" {
		if err := lint.NewBaseline(diags).WriteFile(*writeBaseline); err != nil {
			return 0, err
		}
		fmt.Fprintf(os.Stderr, "lrlint: wrote baseline with %d finding(s) to %s\n", len(diags), *writeBaseline)
		return 0, nil
	}
	if *baselinePath != "" {
		base, err := lint.LoadBaseline(*baselinePath)
		if err != nil {
			return 0, err
		}
		before := len(diags)
		diags = base.Subtract(diags)
		if absorbed := before - len(diags); absorbed > 0 {
			fmt.Fprintf(os.Stderr, "lrlint: baseline absorbed %d finding(s)\n", absorbed)
		}
	}

	if *sarifPath != "" {
		b, err := lint.ToSARIF(diags)
		if err != nil {
			return 0, err
		}
		if *sarifPath == "-" {
			os.Stdout.Write(b)
		} else if err := os.WriteFile(*sarifPath, b, 0o644); err != nil {
			return 0, err
		}
	}

	if *jsonOut {
		rep := lint.NewReport(modPath, rules, diags)
		b, err := rep.MarshalIndent()
		if err != nil {
			return 0, err
		}
		os.Stdout.Write(b)
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "lrlint: %d finding(s)\n", len(diags))
		return 1, nil
	}
	return 0, nil
}

func knownRule(name string) bool {
	for _, r := range lint.AllRules {
		if r == name {
			return true
		}
	}
	return false
}

// selfbenchReport is the BENCH_lint.json schema: module-scale numbers, the
// parallel-vs-serial analysis comparison that justifies the concurrent
// driver, per-pass wall times, and the total gate cost (load + parallel
// analysis median) that scripts/check.sh guards against regression.
type selfbenchReport struct {
	Module   string `json:"module"`
	Packages int    `json:"packages"`
	Findings int    `json:"findings"`
	bench.Header
	Parallel    bench.Side         `json:"parallel"`
	Serial      bench.Side         `json:"serial"`
	LoadMs      float64            `json:"load_ms"`
	Speedup     float64            `json:"speedup"`
	GateTotalMs float64            `json:"gate_total_ms"`
	PassMs      map[string]float64 `json:"pass_ms"`
}

// writeSelfbench times interleaved parallel and serial (GOMAXPROCS 1) runs
// of the same analysis, which must report the same findings, times each
// pass in isolation via the Rules filter, and records everything.
func writeSelfbench(path, modPath string, pkgs []*lint.Package, cfg lint.Config, loadDur time.Duration, findings int) error {
	analyze := func() (string, error) {
		return fmt.Sprint(lint.Run(pkgs, cfg)), nil
	}
	res, err := bench.AB(analyze, func() (string, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		return analyze()
	})
	if err != nil {
		return fmt.Errorf("selfbench: %w", err)
	}

	ruleSet := cfg.Rules
	if len(ruleSet) == 0 {
		ruleSet = lint.AllRules
	}
	passMs := make(map[string]float64, len(ruleSet))
	for _, rule := range ruleSet {
		passCfg := cfg
		passCfg.Rules = []string{rule}
		start := time.Now()
		lint.Run(pkgs, passCfg)
		passMs[rule] = float64(time.Since(start).Microseconds()) / 1000
	}

	loadMs := float64(loadDur.Microseconds()) / 1000
	return bench.WriteJSON(path, selfbenchReport{
		Module:      modPath,
		Packages:    len(pkgs),
		Findings:    findings,
		Header:      res.Header,
		Parallel:    res.A,
		Serial:      res.B,
		LoadMs:      loadMs,
		Speedup:     res.B.MedianSec / res.A.MedianSec,
		GateTotalMs: loadMs + 1000*res.A.MedianSec,
		PassMs:      passMs,
	})
}

// findModuleRoot walks up from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		abs = parent
	}
}
