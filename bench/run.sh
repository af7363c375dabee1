#!/usr/bin/env bash
# Builds the benchmark from source (offline, into its own target
# directory) and runs it with the given arguments:
#
#   bash bench/run.sh --workload plan_mix --seed 1 --seconds 17 --trace 0
#   bash bench/run.sh --self-test
#   bash bench/run.sh --contract BENCHMARK.json
#
# The build writes to standard error only, so the last line of standard
# output is the binary's result object. Without the repository's crates
# next to this directory the build fails and so does this script.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" 1>&2
exec "$target/release/opass-benchmark" "$@"
