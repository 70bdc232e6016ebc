#!/usr/bin/env bash
# Where a benchmark workload's CPU goes, thread by thread.
#
#   scripts/thread_cpu.sh <workload> [seconds]
#
# Builds the repo benchmark (as benchmark/run.sh does), runs one workload
# for `seconds` (default 12), reads every thread's utime+stime from
# /proc/<pid>/task/*/stat at a third and at the end of the run, and prints
# the CPU each thread name spent in between, as a share of the process.
# Threads of the same role share a name (`bench-inst0-con`, `rddr-rx-in-0`,
# the load generator is `rddr-benchmark`). Linux only.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:?usage: $0 <workload> [seconds]}"
seconds="${2:-12}"
[ "$seconds" -ge 9 ] || { echo "$0: seconds must be at least 9" >&2; exit 2; }
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/rddr-benchmark"

snapshot() {
    for task in /proc/"$1"/task/*; do
        # Fields after the parenthesised name: utime and stime are 12 and 13.
        stat="$(cat "$task/stat" 2>/dev/null)" || continue
        echo "$(basename "$task") $(cat "$task/comm" 2>/dev/null | tr ' ' '_') \
$(echo "${stat##*) }" | awk '{print $12 + $13}')"
    done
}

out="$(mktemp)"
first="$(mktemp)"
trap 'rm -f "$out" "$first"' EXIT
"$bin" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 > "$out" &
pid=$!
# Skip the setup: loading a pg workload takes a second or two.
sleep $((seconds / 3 + 1))
snapshot "$pid" > "$first"
sleep $((seconds / 2))
snapshot "$pid" | awk -v first="$first" '
    BEGIN { while ((getline line < first) > 0) { split(line, f, " "); start[f[1]] = f[3] } }
    { ticks[$2] += $3 - start[$1]; total += $3 - start[$1] }
    END {
        for (name in ticks) printf "%-20s %6d ticks %5.1f%%\n", name, ticks[name], 100 * ticks[name] / (total ? total : 1)
        printf "%-20s %6d ticks\n", "total", total
    }' | sort -k2 -nr
wait "$pid"
tail -n 1 "$out"
