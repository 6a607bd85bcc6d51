#!/usr/bin/env bash
# The benchmark's single entry point: build simbench (release) from this
# checkout, then run it with the arguments given.
#
#   benchmark/run.sh                       every workload; prints every metric
#                                          and writes benchmark/out/simbench.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one workload, as BENCHMARK.json's
#                                          driver runs it: last stdout line is JSON
#   benchmark/run.sh --check-repeat        the whole set twice, compared
#   benchmark/run.sh probe-scale           the 4096-rank ART cell
#
# Build products go to $CARGO_TARGET_DIR if set, else benchmark/target.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
# Cargo's own output goes to stderr; stdout stays the benchmark's.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml 1>&2
exec "$target/release/simbench" "$@"
