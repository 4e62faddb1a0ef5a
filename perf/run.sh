#!/usr/bin/env bash
# The benchmark's one command. Builds `planet-perf` in release (into
# $CARGO_TARGET_DIR if set, else perf/target) and then
#
#   perf/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1 | --traced]
#       runs one workload once, checks its outputs, prints every metric by
#       name with its unit, and ends with the one-line JSON result;
#   perf/run.sh --smoke
#       runs all four workloads at a fiftieth of the size, traced and
#       untraced, and checks every name printed against BENCHMARK.json;
#   perf/run.sh --aa [--seeds N] [--seconds S]
#       runs the whole set twice (ten seeds per workload, alternating the
#       order) and writes perf/calibration.json;
#   perf/run.sh --test
#       runs the estimator unit tests (`cargo test` in perf/).
#
# Run it from the root of the repo. It reads and writes nothing outside the
# checkout and leaves no process behind.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"

if [[ "${1:-}" == "--test" ]]; then
    exec cargo test --release --offline --manifest-path "$manifest"
fi

# Cargo's progress goes to stderr; stdout stays the benchmark's own.
cargo build --release --offline --quiet --manifest-path "$manifest" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/planet-perf"

PERF_GIT_REV="$(git -C "$here" describe --always --dirty 2>/dev/null || echo unknown)"
PERF_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export PERF_GIT_REV PERF_RUSTC

case "${1:-}" in
    --smoke | --aa)
        exec python3 "$here/aa.py" --bin "$bin" "$@"
        ;;
    *)
        # The binary knows one spelling, the driver's `--trace 0|1`.
        args=()
        for arg in "$@"; do
            if [[ "$arg" == "--traced" ]]; then args+=(--trace 1); else args+=("$arg"); fi
        done
        exec "$bin" "${args[@]}"
        ;;
esac
