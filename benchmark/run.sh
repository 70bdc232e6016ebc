#!/usr/bin/env bash
# Builds the benchmark and runs it, from the root of a checkout.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload in one process; the last line of standard output is the
#       result object BENCHMARK.json describes.
#   benchmark/run.sh --list
#       the workload names, one a line.
#   benchmark/run.sh [--seed <n>] [--seconds <s>] [--trace]
#       all six workloads, one fresh process each (with --trace each is then
#       repeated as a traced run with the probes), and writes each result
#       line to benchmark/out/<workload>.trace<0|1>.json.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
# One target directory with the root workspace unless the caller chose one.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
export RDDR_BENCH_OUT="${RDDR_BENCH_OUT:-$here/out}"
export RDDR_BENCH_COMMIT="${RDDR_BENCH_COMMIT:-$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)}"

# Progress goes to stderr: standard output carries only the benchmark's own.
cargo build --release --offline --locked --manifest-path "$here/Cargo.toml" >&2
case "$CARGO_TARGET_DIR" in
    /*) bin="$CARGO_TARGET_DIR/release/rddr-benchmark" ;;
    *) bin="$PWD/$CARGO_TARGET_DIR/release/rddr-benchmark" ;;
esac

# A run ends within the contract's 180 s whatever happens.
run() { timeout --signal=KILL 170 "$bin" "$@"; }

for arg in "$@"; do
    if [ "$arg" = "--workload" ] || [ "$arg" = "--list" ]; then
        run "$@"
        exit
    fi
done

seed=1
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")"
trace=0
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace=1; shift ;;
        *) echo "usage: $0 [--list] [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]]" >&2; exit 2 ;;
    esac
done

mkdir -p "$RDDR_BENCH_OUT"
status=0
for workload in $("$bin" --list); do
    for t in $(seq 0 "$trace"); do
        out="$RDDR_BENCH_OUT/$workload.trace$t.json"
        if run --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$t" | tee "$out.log"; then
            tail -n 1 "$out.log" > "$out"
        else
            echo "FAILED: $workload (trace $t)" >&2
            status=1
        fi
        rm -f "$out.log"
    done
done
exit "$status"
