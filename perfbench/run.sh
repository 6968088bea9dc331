#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload du_backlog --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default `.bench_build`); cargo's
# own messages go to stderr, so the last stdout line is the result JSON.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
# glibc's malloc asks for transparent huge pages: with 4 KiB pages, how a
# fresh episode's heap happens to be backed made identical replays differ by
# 13% (interquartile range); with huge pages, by 5%.
export GLIBC_TUNABLES=glibc.malloc.hugetlb=1
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
