#!/usr/bin/env bash
# The repo benchmark, one command (see bench/README.md):
#
#   bench/run.sh [--seed N] [--workload W] [--seconds S] [--smoke]
#       every workload (or W), timed and traced, each run in its own child
#       process; prints every metric and writes bench/out/result.json
#   bench/run.sh --aa ...
#       the same twice on this commit; prints the per-metric spread
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of output is the driver's JSON object
#
# Builds bench/ (its own cargo workspace) --release --offline first, into
# CARGO_TARGET_DIR when that is set and bench/target otherwise.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

export BENCH_OUT_DIR="$here/out"
BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
BENCH_TOOLCHAIN="$(rustc --version 2>/dev/null || echo unknown)"
export BENCH_COMMIT BENCH_TOOLCHAIN
exec "$target/release/repo-bench" "$@"
