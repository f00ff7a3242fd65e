#!/usr/bin/env bash
# Builds the release `repro` and `served` binaries and the benchmark
# `e2ebench` binary from this checkout, then runs it with the given
# arguments (see e2ebench/README.md). Run from the repository root.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p ucore-bench --bin repro -p ucore-serve --bin served >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
# Not `exec`: `e2ebench` reads its children's peak memory, which must
# not include the compilers run above.
"$CARGO_TARGET_DIR/release/e2ebench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
