#!/usr/bin/env sh
# Expanded tier-1 gate: formatting, vet, build, the obs nil path's
# inlining, lrlint (the JSON diagnostic artifact is the gate — diffed
# against its committed golden, so any new
# finding shows up in the diff — filtered through the committed
# lint-baseline.json so only drift fails, with stale-directive detection on,
# a SARIF 2.1.0 artifact smoke-checked, the analyzer selfbench's gate cost
# held under 2x the committed BENCH_lint.json figure, and scratch-module
# probes proving a fresh hot-path allocation and a fresh O(nodes) per-event
# scan still fail through the baseline), race-enabled tests (the
# heap-vs-calendar byte identity is internal/scale's
# TestHeapCalendarByteIdentity), one iteration of every root benchmark,
# 10 s fuzz smokes of the RS decoder, completion by comparison against the
# store's entry, the event queues, the hash-image memo, the puzzle search
# and the fault-plan loader, then every deterministic gate: the lrsweep
# golden JSONL, the seeded cmd/figures run diffed against
# figures_output.txt, exit-2 probes for an unknown grid density,
# traced-sweep metrics byte-equal to the untraced golden with
# worker-invariant trace directories, the lrtrace
# summary golden on a churn-fault run whose lrsim fault-drop count equals
# the trace's, the lrserved smoke (miss -> hit -> restart -> warm hit,
# byte-identical), the lrsweep incremental-store rerun, and an n=10k lrscale
# run whose events, total_bytes and unreachable count must equal the
# committed BENCH_scale.json row, with no reachable node stalled and every
# reachable node holding the exact image.
#
# Then the timing gates. Each self-bench mode judges its own figures and
# exits 1 on failure, so this script only runs them: lrsweep -selfbench
# (multihop and churn sweeps), lrsweep -tracebench (disabled-tracer cost
# under 2%), lrserved -selfbench (the cold-miss median at least 100x the
# hit p50, beyond the cold side's noise) and lrscale -obsbench (nil-timer
# cost under 1%, enabled overhead within 10% of the obs-off runs beyond
# their noise, coverage between 80% and 100% + 2 standard errors, no
# sampled event counted twice, and the committed trace_hash reproduced).
# A ratio of medians over internal/bench's
# interleaved pairs fails only when it crosses its bound by more than the
# reference side's IQR/median (DESIGN.md §16); no timing gate compares a
# fresh figure with a committed one except lrlint's gate cost. Every BENCH
# artifact a run writes goes to a temporary directory, so a check.sh run
# leaves the committed files alone (README says how to refresh them).
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

# Every run without phase timers passes each event through the nil checks
# of these four methods; one that stops inlining costs a call per boundary.
echo "==> obs nil path inlinable ((*Timers).Start, End, BeginEvent, EndEvent)"
inlined=$(go build -gcflags=-m ./internal/obs 2>&1)
for m in Start End BeginEvent EndEvent; do
    if ! printf '%s\n' "$inlined" | grep -q "can inline (\*Timers)\.$m\$"; then
        echo "obs: (*Timers).$m is no longer inlinable" >&2
        exit 1
    fi
done

# field FILE NAME prints the value of the first "NAME": line in FILE (a
# number, boolean or string, quotes dropped); empty when there is none.
field() {
    sed -n "s/.*\"$2\": \"*\([^\",]*\)\"*,*\$/\1/p" "$1" | head -n 1
}

echo "==> lrlint -json artifact vs golden (baseline-filtered, selfbench, SARIF smoke)"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
prev_gate_ms=$(field BENCH_lint.json gate_total_ms 2>/dev/null || true)
# `|| true`: when findings exist the diff below fails with the findings
# visible in context, which is a more useful gate report than the bare exit.
go run ./cmd/lrlint -json -unused-ignores -baseline lint-baseline.json \
    -sarif "$tmpdir/lint.sarif" -selfbench "$tmpdir/BENCH_lint.json" ./... > "$tmpdir/lint.json" || true
diff -u cmd/lrlint/testdata/lint_clean.golden.json "$tmpdir/lint.json"

echo "==> lrlint SARIF artifact structure"
grep -q '"\$schema": "https://json.schemastore.org/sarif-2.1.0.json"' "$tmpdir/lint.sarif"
grep -q '"version": "2.1.0"' "$tmpdir/lint.sarif"
grep -q '"name": "lrlint"' "$tmpdir/lint.sarif"
grep -q '"id": "alloc-hotpath"' "$tmpdir/lint.sarif"
grep -q '"id": "effect-purity"' "$tmpdir/lint.sarif"
grep -q '"id": "scan-complexity"' "$tmpdir/lint.sarif"

echo "==> lrlint selfbench regression gate (gate_total_ms < 2x committed)"
new_gate_ms=$(field "$tmpdir/BENCH_lint.json" gate_total_ms)
grep -q '"alloc-hotpath"' "$tmpdir/BENCH_lint.json"  # pass_ms must carry the new passes
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

echo "==> root benchmarks, one iteration each (BenchmarkSweep: every catalog sweep at quick scale)"
go test -run '^$' -bench . -benchtime 1x .

echo "==> FuzzDecode smoke (reduced RS decode vs the full-inversion reference decoder)"
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/erasure/rs

echo "==> FuzzIngestCompare smoke (two handlers on one store: completion by comparison iff k' distinct authentic packets)"
go test -run '^$' -fuzz '^FuzzIngestCompare$' -fuzztime 10s ./internal/core

echo "==> FuzzQueueEquivalence smoke (heap vs calendar pop order; the queue holds exactly the live timers)"
go test -run '^$' -fuzz '^FuzzQueueEquivalence$' -fuzztime 10s ./internal/sim

echo "==> FuzzSumBody smoke (hash-image memo vs hashing every packet's AuthBody)"
go test -run '^$' -fuzz '^FuzzSumBody$' -fuzztime 10s ./internal/crypt/hashx

echo "==> FuzzSolve smoke (midstate puzzle search vs the naive scan of check from 0 upward)"
go test -run '^$' -fuzz '^FuzzSolve$' -fuzztime 10s ./internal/crypt/puzzle

echo "==> FuzzPlan smoke (fault-plan loader: accepted plans re-validate, rejected ones error cleanly)"
go test -run '^$' -fuzz '^FuzzPlan$' -fuzztime 10s ./internal/fault

echo "==> go test -race ./internal/harness/... ./internal/fault/... ./internal/trace/... ./internal/obs/... (concurrency-sensitive packages, verbose gate)"
go test -race -count=1 ./internal/harness/... ./internal/fault/... ./internal/trace/... ./internal/obs/...

# Deterministic gates first: goldens, byte identity, exit codes and the
# n=10k row's counts. They cannot flake, so a timing gate that trips on a
# noisy host can never hide a correctness break behind it.
echo "==> lrsweep smoke sweep vs golden"
go run ./cmd/lrsweep -sweep smoke -runs 2 -seed 1 -parallel 2 -o "$tmpdir/smoke.jsonl"
diff -u cmd/lrsweep/testdata/smoke_sweep.golden.jsonl "$tmpdir/smoke.jsonl"

echo "==> figures vs figures_output.txt (same seed, same bytes)"
go run ./cmd/figures -runs 3 -seed 1 | diff -u figures_output.txt -

echo "==> lrsim and examples/multihop reject an unknown grid density (exit 2)"
go build -o "$tmpdir/lrsim" ./cmd/lrsim
rc=0
"$tmpdir/lrsim" -topology grid -density bogus > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "lrsim -density bogus exited $rc, want 2" >&2
    exit 1
fi
go build -o "$tmpdir/multihop" ./examples/multihop
rc=0
"$tmpdir/multihop" -density bogus > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "multihop -density bogus exited $rc, want 2" >&2
    exit 1
fi

echo "==> traced smoke sweep: metrics byte-equal to the untraced golden, trace dirs worker-invariant"
go run ./cmd/lrsweep -sweep smoke -runs 2 -seed 1 -parallel 1 -trace-dir "$tmpdir/tr1" -o "$tmpdir/smoke_traced.jsonl"
diff -u cmd/lrsweep/testdata/smoke_sweep.golden.jsonl "$tmpdir/smoke_traced.jsonl"
go run ./cmd/lrsweep -sweep smoke -runs 2 -seed 1 -parallel 4 -trace-dir "$tmpdir/tr4" -o "$tmpdir/smoke_traced_p4.jsonl"
diff -r "$tmpdir/tr1" "$tmpdir/tr4"

echo "==> lrtrace on a churn-fault run (summary golden + every subcommand)"
go run ./cmd/lrsim -proto lr-seluge -kb 4 -receivers 5 -seed 1 -runs 1 \
    -trace "$tmpdir/base.jsonl" > /dev/null
go run ./cmd/lrsim -proto lr-seluge -kb 4 -receivers 5 -seed 1 -runs 1 \
    -faults examples/faults/churn.json -trace "$tmpdir/churn.jsonl" > "$tmpdir/churn_lrsim.txt"
go run ./cmd/lrtrace summary -json "$tmpdir/churn.jsonl" > "$tmpdir/churn_summary.json"
diff -u cmd/lrtrace/testdata/churn_summary.golden.json "$tmpdir/churn_summary.json"
# The run's counters and its trace come from one report per event, so
# lrsim's fault-drop count must equal the trace's fault-drop bucket.
sim_fault=$(sed -n 's/^fault drops: *\([0-9]*\)\.0$/\1/p' "$tmpdir/churn_lrsim.txt")
trace_fault=$(sed -n 's/.*"drops":{[^}]*"fault":\([0-9]*\).*/\1/p' "$tmpdir/churn_summary.json")
if [ -z "$sim_fault" ] || [ "$sim_fault" != "$trace_fault" ]; then
    echo "lrsim fault drops '$sim_fault' != lrtrace drops.fault '$trace_fault'" >&2
    exit 1
fi
go run ./cmd/lrtrace summary "$tmpdir/churn.jsonl" > /dev/null
go run ./cmd/lrtrace timeline -node 2 "$tmpdir/churn.jsonl" > /dev/null
go run ./cmd/lrtrace latency -csv "$tmpdir/fetch.csv" "$tmpdir/churn.jsonl" > /dev/null
go run ./cmd/lrtrace convert -chrome -o "$tmpdir/churn.trace.json" "$tmpdir/churn.jsonl"
go run ./cmd/lrtrace diff "$tmpdir/base.jsonl" "$tmpdir/churn.jsonl" > /dev/null

echo "==> lrserved smoke (ephemeral port: miss -> hit -> restart -> warm hit, byte-identical)"
go run ./cmd/lrserved -smoke

echo "==> lrsweep incremental store (cold vs warm cell JSONL byte-identical, warm all-cached)"
go run ./cmd/lrsweep -sweep smoke -quick -runs 2 -seed 1 -store "$tmpdir/rs" -code-version check \
    -o "$tmpdir/cells_cold.jsonl"
go run ./cmd/lrsweep -sweep smoke -quick -runs 2 -seed 1 -store "$tmpdir/rs" -code-version check \
    -o "$tmpdir/cells_warm.jsonl" 2> "$tmpdir/cells_warm.err"
cmp "$tmpdir/cells_cold.jsonl" "$tmpdir/cells_warm.jsonl"
grep -q '0 computed' "$tmpdir/cells_warm.err"

echo "==> lrscale n=10k run: events, total_bytes and unreachable equal to the committed row, nothing stalled, every reachable node holds the exact image"
# row10k FILE FIELD prints FIELD of the "nodes": 10000 row.
row10k() {
    awk -v field="\"$2\":" '$1 == "\"nodes\":" { row = ($2 == "10000,") }
        row && $1 == field { sub(/,$/, "", $2); print $2 }' "$1"
}
prev_events=$(row10k BENCH_scale.json events)
prev_bytes=$(row10k BENCH_scale.json total_bytes)
prev_unreachable=$(row10k BENCH_scale.json unreachable)
go run ./cmd/lrscale -nodes 10000 -q -o "$tmpdir/scale.json"
new_events=$(row10k "$tmpdir/scale.json" events)
new_bytes=$(row10k "$tmpdir/scale.json" total_bytes)
new_unreachable=$(row10k "$tmpdir/scale.json" unreachable)
new_images=$(row10k "$tmpdir/scale.json" images_ok)
new_stalled=$(row10k "$tmpdir/scale.json" stalled)
awk -v pe="$prev_events" -v ne="$new_events" -v pb="$prev_bytes" -v nb="$new_bytes" \
    -v pu="$prev_unreachable" -v nu="$new_unreachable" \
    -v img="$new_images" -v st="$new_stalled" 'BEGIN {
    if (pe == "" || pb == "" || pu == "") { print "scale gate: committed n=10000 row missing events/total_bytes/unreachable"; exit 1 }
    if (ne != pe || nb != pb || nu != pu) {
        print "scale gate: n=10000 run drifted: events " ne " total_bytes " nb " unreachable " nu " vs committed " pe " " pb " " pu; exit 1
    }
    if (img != "true" || st != "0") {
        print "scale gate: n=10000 run images_ok " img " stalled " st "; want true and 0"; exit 1
    }
}'

# Timing gates: each mode judges its own figures and exits 1 on failure.
echo "==> lrsweep selfbench (serial vs parallel wall-clock)"
go run ./cmd/lrsweep -sweep multihop -quick -runs 8 -parallel 8 -selfbench "$tmpdir/BENCH_sweep.json"

echo "==> lrsweep churn-sweep selfbench (fault subsystem)"
go run ./cmd/lrsweep -sweep churn -quick -runs 4 -parallel 4 -selfbench "$tmpdir/BENCH_fault.json"

echo "==> lrsweep tracebench (tracer overhead: disabled < 2%)"
go run ./cmd/lrsweep -sweep smoke -runs 2 -seed 1 -tracebench "$tmpdir/BENCH_trace.json"

echo "==> lrserved selfbench (cold-miss median >= 100x hit p50 beyond noise, hit bodies byte-identical)"
go run ./cmd/lrserved -selfbench "$tmpdir/BENCH_served.json"

# obsbench runs last: its nil-pair and enabled-overhead gates are timings,
# and here a failure hides no other gate.
echo "==> lrscale obsbench (disabled < 1%, enabled <= 10% beyond noise, 80% <= coverage <= 100% + 2 se, zero over-count, committed trace_hash)"
# The bench writes its file before judging its timings, so the trace-hash
# comparison, a deterministic gate, runs even when a timing gate failed.
obs_rc=0
go run ./cmd/lrscale -obsbench -obsbench-o "$tmpdir/BENCH_obs.json" || obs_rc=$?
prev_obs_hash=$(field BENCH_obs.json trace_hash)
new_obs_hash=$(field "$tmpdir/BENCH_obs.json" trace_hash 2>/dev/null || true)
if [ -z "$prev_obs_hash" ] || [ "$new_obs_hash" != "$prev_obs_hash" ]; then
    echo "obs gate: trace_hash '$new_obs_hash' differs from committed $prev_obs_hash" >&2
    exit 1
fi
[ "$obs_rc" -eq 0 ]

echo "OK"
