#!/usr/bin/env bash
# Builds the benchmark and the serving host from source, then runs one
# workload; every argument is passed on:
#
#   bash perfbench/run.sh --workload batch-100k --seed 0 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); the last line of standard output is the result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml -p perfbench -p grgad-server --bins >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
