#!/usr/bin/env sh
# Expanded tier-1 gate: formatting, vet, build, lrlint (the JSON diagnostic
# artifact is the gate — diffed against its committed golden, so any new
# finding shows up in the diff — filtered through the committed
# lint-baseline.json so only drift fails, with stale-directive detection on,
# a SARIF 2.1.0 artifact smoke-checked, the analyzer selfbench written to
# BENCH_lint.json with per-pass timings and a <2x gate-cost regression check,
# and scratch-module probes proving a fresh hot-path allocation and a fresh
# O(nodes) per-event scan still fail through the baseline), race-enabled
# tests, a 10 s FuzzDecode smoke of the RS decoder, lrsweep golden-JSONL
# diff, the
# serial-vs-parallel sweep bench, the churn-sweep fault-injection bench
# (BENCH_fault.json), and the tracing gates: traced-sweep metrics must stay
# byte-equal to the untraced golden, per-run trace directories must be
# worker-invariant, lrtrace must reproduce its committed summary golden on
# a churn-fault run, and the tracer overhead bench (BENCH_trace.json) must
# keep the disabled-tracer cost under 2%. The result-serving gates: the
# lrserved smoke (miss -> hit -> restart -> warm hit over real HTTP, bodies
# byte-identical), the lrsweep incremental-store rerun (warm pass all-cached
# and byte-identical to the cold pass), and the lrserved load bench
# (BENCH_served.json), whose cache-hit p99 must sit at least 100x below the
# cold-miss compute time. The scale gates: the lrscale -identity smoke (one
# seeded run under the heap and calendar event queues must produce identical
# transmission-trace hashes and metrics) and an n=10k benchmark rerun whose
# events/sec must not regress below half the committed BENCH_scale.json
# figure and whose events and total_bytes must equal the committed row. The
# observability gates: lrscale -obsbench (BENCH_obs.json) must reproduce the
# committed trace_hash, keep the nil-timer (disabled) overhead under 1% and
# the fully-instrumented (enabled) overhead under 10%, attribute at least
# 80% of wall time to the instrumented subsystems, and leave same-seed trace
# hashes byte-identical with obs on; internal/obs runs under -race with the
# other concurrency-sensitive packages. The self-bench timings behind these
# gates are medians over internal/bench's interleaved A/B pairs (DESIGN.md
# §16), and every BENCH field is read through the field helper below.
# Run from anywhere inside the repository; exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

# field FILE NAME prints the value of the first "NAME": line in FILE (a
# number, boolean or string, quotes dropped); empty when there is none.
field() {
    sed -n "s/.*\"$2\": \"*\([^\",]*\)\"*,*\$/\1/p" "$1" | head -n 1
}

echo "==> lrlint -json artifact vs golden (baseline-filtered, selfbench -> BENCH_lint.json, SARIF smoke)"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
# Remember the committed gate cost before the selfbench overwrites it; the
# regression gate below compares the fresh run against it.
prev_gate_ms=$(field BENCH_lint.json gate_total_ms 2>/dev/null || true)
# `|| true`: when findings exist the diff below fails with the findings
# visible in context, which is a more useful gate report than the bare exit.
go run ./cmd/lrlint -json -unused-ignores -baseline lint-baseline.json \
    -sarif "$tmpdir/lint.sarif" -selfbench BENCH_lint.json ./... > "$tmpdir/lint.json" || true
diff -u cmd/lrlint/testdata/lint_clean.golden.json "$tmpdir/lint.json"

echo "==> lrlint SARIF artifact structure"
grep -q '"\$schema": "https://json.schemastore.org/sarif-2.1.0.json"' "$tmpdir/lint.sarif"
grep -q '"version": "2.1.0"' "$tmpdir/lint.sarif"
grep -q '"name": "lrlint"' "$tmpdir/lint.sarif"
grep -q '"id": "alloc-hotpath"' "$tmpdir/lint.sarif"
grep -q '"id": "effect-purity"' "$tmpdir/lint.sarif"
grep -q '"id": "scan-complexity"' "$tmpdir/lint.sarif"

echo "==> lrlint selfbench regression gate (gate_total_ms < 2x committed)"
new_gate_ms=$(field BENCH_lint.json gate_total_ms)
grep -q '"alloc-hotpath"' BENCH_lint.json  # pass_ms must carry the new passes
awk -v prev="$prev_gate_ms" -v new="$new_gate_ms" 'BEGIN {
    if (new == "") { print "selfbench gate: missing gate_total_ms"; exit 1 }
    if (prev != "" && new + 0 > 2 * (prev + 0)) {
        print "selfbench gate: gate_total_ms regressed " new " vs committed " prev; exit 1
    }
}'

echo "==> lrlint baseline-drift probe (scratch hot-path alloc must fail the gate)"
mkdir -p "$tmpdir/probe"
printf 'module probe\n\ngo 1.22\n' > "$tmpdir/probe/go.mod"
cat > "$tmpdir/probe/probe.go" <<'EOF'
package probe

//lrlint:hotpath
func Encode(blocks [][]byte) [][]byte {
	var out [][]byte
	for _, b := range blocks {
		shard := make([]byte, len(b))
		copy(shard, b)
		out = append(out, shard)
	}
	return out
}
EOF
if go run ./cmd/lrlint -baseline lint-baseline.json "$tmpdir/probe" > /dev/null 2>&1; then
    echo "baseline-drift gate failed: scratch hot-path allocation was not caught" >&2
    exit 1
fi
# And the inverse: a baseline written from the probe findings absorbs them.
go run ./cmd/lrlint -write-baseline "$tmpdir/probe-baseline.json" "$tmpdir/probe" 2> /dev/null
go run ./cmd/lrlint -baseline "$tmpdir/probe-baseline.json" "$tmpdir/probe" > /dev/null 2> /dev/null

echo "==> lrlint scan-complexity probe (scratch O(nodes) scan in an event root must fail the gate)"
mkdir -p "$tmpdir/scanprobe"
printf 'module scanprobe\n\ngo 1.22\n' > "$tmpdir/scanprobe/go.mod"
cat > "$tmpdir/scanprobe/scan.go" <<'EOF'
package scanprobe

//lrlint:population nodes
type NodeID uint16

//lrlint:eventroot probe
func Deliver(tbl map[NodeID]int) int {
	t := 0
	for id := range tbl {
		t += tbl[id]
	}
	return t
}
EOF
if go run ./cmd/lrlint -baseline lint-baseline.json "$tmpdir/scanprobe" > /dev/null 2>&1; then
    echo "scan-complexity gate failed: scratch O(nodes) event scan was not caught" >&2
    exit 1
fi
# The write-baseline round trip must absorb scan findings too.
go run ./cmd/lrlint -write-baseline "$tmpdir/scanprobe-baseline.json" "$tmpdir/scanprobe" 2> /dev/null
go run ./cmd/lrlint -baseline "$tmpdir/scanprobe-baseline.json" "$tmpdir/scanprobe" > /dev/null 2> /dev/null

echo "==> go test -race ./..."
go test -race ./...

echo "==> FuzzDecode smoke (reduced RS decode vs the full-inversion reference decoder)"
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/erasure/rs

echo "==> go test -race ./internal/harness/... ./internal/fault/... ./internal/trace/... ./internal/obs/... (concurrency-sensitive packages, verbose gate)"
go test -race -count=1 ./internal/harness/... ./internal/fault/... ./internal/trace/... ./internal/obs/...

echo "==> lrsweep smoke sweep vs golden"
go run ./cmd/lrsweep -sweep smoke -runs 2 -seed 1 -parallel 2 -o "$tmpdir/smoke.jsonl"
diff -u cmd/lrsweep/testdata/smoke_sweep.golden.jsonl "$tmpdir/smoke.jsonl"

echo "==> lrsweep selfbench (serial vs parallel wall-clock -> BENCH_sweep.json)"
go run ./cmd/lrsweep -sweep multihop -quick -runs 8 -parallel 8 -selfbench BENCH_sweep.json

echo "==> lrsweep churn-sweep selfbench (fault subsystem -> BENCH_fault.json)"
go run ./cmd/lrsweep -sweep churn -quick -runs 4 -parallel 4 -selfbench BENCH_fault.json

echo "==> traced smoke sweep: metrics byte-equal to the untraced golden, trace dirs worker-invariant"
go run ./cmd/lrsweep -sweep smoke -runs 2 -seed 1 -parallel 1 -trace-dir "$tmpdir/tr1" -o "$tmpdir/smoke_traced.jsonl"
diff -u cmd/lrsweep/testdata/smoke_sweep.golden.jsonl "$tmpdir/smoke_traced.jsonl"
go run ./cmd/lrsweep -sweep smoke -runs 2 -seed 1 -parallel 4 -trace-dir "$tmpdir/tr4" -o "$tmpdir/smoke_traced_p4.jsonl"
diff -r "$tmpdir/tr1" "$tmpdir/tr4"

echo "==> lrtrace on a churn-fault run (summary golden + every subcommand)"
go run ./cmd/lrsim -proto lr-seluge -kb 4 -receivers 5 -seed 1 -runs 1 \
    -trace "$tmpdir/base.jsonl" > /dev/null
go run ./cmd/lrsim -proto lr-seluge -kb 4 -receivers 5 -seed 1 -runs 1 \
    -faults examples/faults/churn.json -trace "$tmpdir/churn.jsonl" > /dev/null
go run ./cmd/lrtrace summary -json "$tmpdir/churn.jsonl" > "$tmpdir/churn_summary.json"
diff -u cmd/lrtrace/testdata/churn_summary.golden.json "$tmpdir/churn_summary.json"
go run ./cmd/lrtrace summary "$tmpdir/churn.jsonl" > /dev/null
go run ./cmd/lrtrace timeline -node 2 "$tmpdir/churn.jsonl" > /dev/null
go run ./cmd/lrtrace latency -csv "$tmpdir/fetch.csv" "$tmpdir/churn.jsonl" > /dev/null
go run ./cmd/lrtrace convert -chrome -o "$tmpdir/churn.trace.json" "$tmpdir/churn.jsonl"
go run ./cmd/lrtrace diff "$tmpdir/base.jsonl" "$tmpdir/churn.jsonl" > /dev/null

echo "==> lrsweep tracebench (tracer overhead -> BENCH_trace.json, disabled overhead < 2%)"
go run ./cmd/lrsweep -sweep smoke -runs 2 -seed 1 -tracebench BENCH_trace.json
frac=$(field BENCH_trace.json disabled_overhead_frac)
awk -v f="$frac" 'BEGIN { if (f == "" || f >= 0.02) { print "disabled_overhead_frac gate failed: " f; exit 1 } }'

echo "==> lrserved smoke (ephemeral port: miss -> hit -> restart -> warm hit, byte-identical)"
go run ./cmd/lrserved -smoke

echo "==> lrsweep incremental store (cold vs warm cell JSONL byte-identical, warm all-cached)"
go run ./cmd/lrsweep -sweep smoke -quick -runs 2 -seed 1 -store "$tmpdir/rs" -code-version check \
    -o "$tmpdir/cells_cold.jsonl"
go run ./cmd/lrsweep -sweep smoke -quick -runs 2 -seed 1 -store "$tmpdir/rs" -code-version check \
    -o "$tmpdir/cells_warm.jsonl" 2> "$tmpdir/cells_warm.err"
cmp "$tmpdir/cells_cold.jsonl" "$tmpdir/cells_warm.jsonl"
grep -q '0 computed' "$tmpdir/cells_warm.err"

echo "==> lrserved selfbench (cold-miss vs hit latency -> BENCH_served.json, hit p99 >= 100x below cold)"
go run ./cmd/lrserved -selfbench BENCH_served.json
ratio=$(field BENCH_served.json cold_to_hit_p99)
ident=$(field BENCH_served.json identical)
awk -v r="$ratio" -v id="$ident" 'BEGIN {
    if (r == "" || r + 0 < 100) { print "served gate: cold_to_hit_p99 " r " < 100"; exit 1 }
    if (id != "true") { print "served gate: hit bodies not byte-identical"; exit 1 }
}'

echo "==> lrscale identity smoke (heap vs calendar queue, byte-identical run)"
go run ./cmd/lrscale -identity

echo "==> lrscale n=10k regression gate (events/sec >= half the committed figure; events and total_bytes equal to the committed row)"
prev_eps=$(field BENCH_scale.json events_per_sec_10k 2>/dev/null || true)
# row10k FILE FIELD prints FIELD of the "nodes": 10000 row.
row10k() {
    awk -v field="\"$2\":" '$1 == "\"nodes\":" { row = ($2 == "10000,") }
        row && $1 == field { sub(/,$/, "", $2); print $2 }' "$1"
}
prev_events=$(row10k BENCH_scale.json events)
prev_bytes=$(row10k BENCH_scale.json total_bytes)
go run ./cmd/lrscale -nodes 10000 -q -o "$tmpdir/scale.json"
new_eps=$(field "$tmpdir/scale.json" events_per_sec_10k)
new_events=$(row10k "$tmpdir/scale.json" events)
new_bytes=$(row10k "$tmpdir/scale.json" total_bytes)
awk -v prev="$prev_eps" -v new="$new_eps" \
    -v pe="$prev_events" -v ne="$new_events" -v pb="$prev_bytes" -v nb="$new_bytes" 'BEGIN {
    if (new == "" || new + 0 <= 0) { print "scale gate: missing events_per_sec_10k"; exit 1 }
    if (prev != "" && new + 0 < (prev + 0) / 2) {
        print "scale gate: events/sec regressed to " new " vs committed " prev; exit 1
    }
    if (pe == "" || pb == "") { print "scale gate: committed n=10000 row missing events/total_bytes"; exit 1 }
    if (ne != pe || nb != pb) {
        print "scale gate: n=10000 run drifted: events " ne " total_bytes " nb " vs committed " pe " " pb; exit 1
    }
}'

echo "==> lrscale obsbench (obs overhead -> BENCH_obs.json: disabled < 1%, enabled < 10%, coverage >= 80%)"
# Remember the committed trace hash before the bench overwrites it: the
# seeded run must reproduce it byte for byte.
prev_obs_hash=$(field BENCH_obs.json trace_hash 2>/dev/null || true)
go run ./cmd/lrscale -obsbench -obsbench-o BENCH_obs.json
new_obs_hash=$(field BENCH_obs.json trace_hash)
if [ -z "$prev_obs_hash" ] || [ "$new_obs_hash" != "$prev_obs_hash" ]; then
    echo "obs gate: trace_hash $new_obs_hash differs from committed $prev_obs_hash" >&2
    exit 1
fi
dfrac=$(field BENCH_obs.json disabled_overhead_frac)
efrac=$(field BENCH_obs.json enabled_overhead_frac)
cfrac=$(field BENCH_obs.json covered_frac)
oident=$(field BENCH_obs.json trace_identical)
awk -v d="$dfrac" -v e="$efrac" -v c="$cfrac" -v id="$oident" 'BEGIN {
    if (d == "" || d + 0 >= 0.01) { print "obs gate: disabled_overhead_frac " d " >= 1%"; exit 1 }
    if (e == "" || e + 0 >= 0.10) { print "obs gate: enabled_overhead_frac " e " >= 10%"; exit 1 }
    if (c == "" || c + 0 < 0.8) { print "obs gate: covered_frac " c " < 80%"; exit 1 }
    if (id != "true") { print "obs gate: same-seed trace hashes differ with obs enabled"; exit 1 }
}'

echo "OK"
