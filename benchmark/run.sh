#!/usr/bin/env bash
# Build the systolizer binary and the benchmark, then run the benchmark
# with the given arguments (see benchmark/README.md). This is the command
# BENCHMARK.json names; the driver appends
#   --workload NAME --seed N --seconds S --trace 0|1
# Both builds share one target directory: $CARGO_TARGET_DIR if set (the
# driver sets it), else benchmark/target. Nothing is downloaded.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# cargo's own progress goes to stderr; stdout belongs to the benchmark.
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin systolizer
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/systolic-benchmark" "$@"
