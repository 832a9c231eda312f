#!/usr/bin/env bash
# The benchmark's one command (see ../BENCHMARK.json and README.md):
# builds the runner from source, offline, then hands every argument to it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh                  # every workload -> benchmark/out/result.json
#   benchmark/run.sh --repeat-check   # the set twice; non-zero if a metric moved past its bound
#
# Build output goes to standard error, so the last line of standard
# output is the runner's result. A failed build exits non-zero and
# prints no result.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
BENCH_GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_RUSTC BENCH_GIT_REV
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/pqopt_benchmark" "$@"
