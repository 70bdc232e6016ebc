#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml — run before pushing.
# Fully offline: every dependency is vendored in-tree under shims/.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> reactor-worker matrix: proxy sessions under scheduling shapes the default run never uses"
for workers in 1 2 8; do
  for threads in 1 2 8; do
    echo "    RDDR_REACTOR_WORKERS=$workers --test-threads $threads"
    RDDR_REACTOR_WORKERS=$workers cargo test -q -p rddr-proxy -- --test-threads "$threads"
    RDDR_REACTOR_WORKERS=$workers cargo test -q --test stress --test chaos \
      --test failure_injection --test telemetry_admin --test social_compose \
      --test no_diversity --test csrf_flow --test diverse_databases --test config_file \
      --test gitlab_background_load --test recovery_chaos --test table1 \
      --test tpch_equivalence --test json_protocol --test tcp_transport \
      --test secure_transport --test multi_node --test fuzz_replay \
      -- --test-threads "$threads"
  done
done

echo "==> benchmark workspace: build + unit tests (a public-API break shows here, not in the pipeline)"
CARGO_TARGET_DIR="$PWD/target" cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
CARGO_TARGET_DIR="$PWD/target" cargo test --offline --locked --manifest-path benchmark/Cargo.toml

echo "==> benchmark smoke: the byte-exact oracle on all six workloads (correctness, not numbers)"
# Exits non-zero on "correct": false, any failed op, or proxy.severed != the
# divergent requests sent.
for workload in $(bash benchmark/run.sh --list); do
  echo "    $workload"
  bash benchmark/run.sh --workload "$workload" --seed 1 --seconds 2 --trace 0 > /dev/null
done

echo "==> rddr-analyze (all six passes, stale-baseline check, dispatch + timing gates)"
cargo run --release -p rddr-analyze -- \
  --baseline analyze-baseline.toml --forbid-stale --json BENCH_analyze.json \
  --min-dispatch-edges 1 --max-total-ms 150

echo "==> fuzz_bench smoke (zero-FP + true-positive gates) and fuzz-under-chaos"
cargo run --release -p rddr-fuzz --bin fuzz_bench -- --smoke --json BENCH_fuzz_smoke.json
cargo run --release -p rddr-fuzz --bin fuzz_bench -- --smoke --chaos --json BENCH_fuzz_chaos_smoke.json

echo "==> committed corpus replay + campaign determinism gates"
cargo test --release -q --test fuzz_replay

echo "==> chaos + crash-recovery suites under the three CI seeds"
for seed in 1 271828 3141592653; do
  echo "    seed $seed"
  RDDR_CHAOS_SEED=$seed cargo test -q --test chaos
  RDDR_CHAOS_SEED=$seed cargo test -q --test recovery_chaos
done

echo "OK"
