#!/usr/bin/env bash
# Builds the benchmark and the `m3d-serve` binary it drives, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig2_cold --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --workload obs10_serial --repeat 10
#
# Builds go to $CARGO_TARGET_DIR (default `target`); scratch files
# (disk-tier envelopes, span dumps) go under its `perfbench-work/`.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/serve || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the repository root (workspace sources not found)" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p m3d-serve --bin m3d-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

exec "$target/release/m3d-perfbench" \
    --serve-bin "$target/release/m3d-serve" \
    --work-dir "$target/perfbench-work" \
    "$@"
