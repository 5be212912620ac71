#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the root of a checkout. Build output goes to stderr; the last
# line of stdout is the result object.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
KIND_BENCH_NPROC="$(nproc 2>/dev/null || echo unknown)" \
KIND_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
  "$CARGO_TARGET_DIR/release/kind-perfbench" "$@"
