#!/bin/sh
# bench_gate.sh — warn-only performance gate for the committed benches.
#
# Reruns each bench whose baseline JSON is committed (contention, zerocopy,
# serve, pushdown) and compares its headline scalar against the committed
# value. A regression worse than 10% prints a loud warning but never fails the build:
# shared CI hosts are noisy enough that a hard gate on wall-clock throughput
# would flake, and a human looking at the warning is the right escalation.
# Run from the repository root (or via `make bench-gate` / `make check`).
set -eu
cd "$(dirname "$0")/.."

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT INT TERM

# extract FILE KEY — pull a scalar value out of a flat bench JSON.
extract() {
    sed -n 's/.*"'"$2"'": *\([0-9.eE+-]*\).*/\1/p' "$1" | head -1
}

# gate BASELINE EXP KEY — rerun EXP, compare KEY against the committed
# BASELINE, warn (never fail) on a >10% regression.
gate() {
    baseline=$1 exp=$2 key=$3
    if [ ! -f "$baseline" ]; then
        echo "bench_gate: no $baseline baseline committed — skipping $exp"
        return 0
    fi
    echo "bench_gate: running fresh $exp bench..."
    go run ./cmd/labbench -exp "$exp" -json "$tmpdir/$exp.json" >/dev/null
    old=$(extract "$baseline" "$key")
    new=$(extract "$tmpdir/$exp.json" "$key")
    if [ -z "$old" ] || [ -z "$new" ]; then
        echo "bench_gate: could not parse $key — skipping $exp"
        return 0
    fi
    awk -v old="$old" -v new="$new" -v key="$key" -v baseline="$baseline" -v bench="$exp" 'BEGIN {
        delta = 100 * (new - old) / old
        printf "bench_gate: %s %.3f (committed) -> %.3f (fresh): %+.1f%%\n", key, old, new, delta
        if (delta < -10) {
            printf "bench_gate: WARNING: %s regressed >10%% vs %s\n", key, baseline
            printf "bench_gate: (warn-only: rerun to rule out host noise; `make bench-%s` refreshes the baseline if the change is intended)\n", bench
        }
    }'
}

gate BENCH_contention.json contention striped_c8_mops
gate BENCH_zerocopy.json zerocopy mapped_c8_mops
gate BENCH_serve.json serve direct_c1000_ops_per_s
gate BENCH_pushdown.json pushdown jobs8_pd_per_s
exit 0
