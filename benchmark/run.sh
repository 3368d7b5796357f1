#!/usr/bin/env bash
# Build the ledger, run all four workloads (untraced, then traced) and write
# the result set. Extra arguments go to `ledger run` (--seed, --seconds,
# --smoke, --out). Run from anywhere inside a checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --manifest-path "$here/Cargo.toml"
exec cargo run --release --quiet --offline --manifest-path "$here/Cargo.toml" -- run "$@"
