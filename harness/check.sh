#!/bin/sh
# The harness's own CI entry point (.github/ is outside this package):
# formatting, lints, unit tests, and every workload once at --quick sizes
# with spans on, so each code path and correctness check runs.
set -eu
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release
cargo run --offline --release --quiet -- --workload all --seed 1 --quick --trace >/dev/null
echo "harness check: ok"
