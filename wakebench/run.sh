#!/usr/bin/env bash
# Builds the wake-serving benchmark from source and runs one workload.
#
#   bash wakebench/run.sh --workload saturate_long --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Build output goes to stderr; the last line
# of stdout is the JSON result. CARGO_TARGET_DIR, when set, places the
# build; otherwise it lands in wakebench/target.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path wakebench/Cargo.toml 1>&2
exec "${CARGO_TARGET_DIR:-wakebench/target}/release/wakebench" "$@"
