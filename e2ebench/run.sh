#!/usr/bin/env bash
# End-to-end benchmark of the fleet, chaos-fleet, server-core and
# full-scale pipelines. Builds the benchmark from source, then runs it.
#
#   e2ebench/run.sh [--seed S] [--reps R] [--trace] [WORKLOAD ...]
#   e2ebench/run.sh --calibrate [--runs N] [WORKLOAD ...]
#   e2ebench/run.sh --workload NAME --seed S --seconds T --trace 0|1
#
# The build goes to $CARGO_TARGET_DIR (default: target/ under the
# repository root, which is already ignored). Results land in
# e2ebench/out/, traced baselines in e2ebench/baseline/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/e2ebench" --out "$here/out" "$@"
