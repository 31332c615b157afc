#!/usr/bin/env bash
# Builds the release `ptmap` binary and the benchmark from source, then
# runs the benchmark. Run from the repository root:
#
#   bash ptbench/run.sh --workload compile-gnn --seed 1 --seconds 15 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default `.bench_build`).
set -euo pipefail
root="$PWD"
bench="$root/ptbench"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p ptmap-serve --bin ptmap >&2
cargo build --release --offline --quiet --manifest-path "$bench/Cargo.toml" >&2
exec "$target/release/ptbench" --root "$root" --ptmap "$target/release/ptmap" "$@"
