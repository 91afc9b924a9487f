#!/usr/bin/env bash
# Builds the release `annot_serve` server and the benchmark, then runs one
# workload.  Run from the repository root:
#
#   bash perfbench/run.sh --workload hit_heavy --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p annot-service --bin annot_serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@" --server "$CARGO_TARGET_DIR/release/annot_serve"
