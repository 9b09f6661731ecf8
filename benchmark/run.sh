#!/usr/bin/env bash
# Build the program and the harness from source, then run the harness.
# BENCHMARK.json's command; run from the repository root:
#   bash benchmark/run.sh --workload serve_repeat --seed 1 --seconds 20 --trace 0
# Also: bash benchmark/run.sh --calibrate | --compare A.json B.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
# One target directory for both workspaces: the harness links the same
# objects `sam-cli` does. A relative CARGO_TARGET_DIR is taken from the
# caller's directory.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin sam-cli
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

exec "$target/release/sam-benchmark" \
  --sam-cli "$target/release/sam-cli" --out-dir "$here/out" "$@"
