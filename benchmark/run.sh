#!/usr/bin/env bash
# The benchmark's one command. From any directory:
#
#   benchmark/run.sh [--seed N]                 every workload, untraced then
#                                               traced; prints every metric by
#                                               name and unit; exits non-zero
#                                               if a check fails
#   benchmark/run.sh --check-repeat [--seed N]  the untraced set twice, the
#                                               differences held to the bounds
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                               one run of one workload; the
#                                               last stdout line is the result
#                                               (the BENCHMARK.json contract)
#
# Builds the benchmark package (both binaries) first; a cached build is a
# fraction of a second.
set -euo pipefail
cd "$(dirname "$0")/.."

# The simulator reads these; the benchmark fixes the engine and lets the
# sweep use every core (the binaries drop them again, for direct starts).
unset OUTBOARD_JOBS OUTBOARD_ENGINE

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

BENCH_GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_GIT_REV

bin="$CARGO_TARGET_DIR/release/outboard-benchmark"
prev=""
for arg in "$@"; do
  if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
    bin="$bin-traced"
  fi
  prev="$arg"
done
exec "$bin" "$@"
