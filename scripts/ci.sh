#!/usr/bin/env bash
# The workspace verification pipeline, runnable locally or in CI.
#
#   scripts/ci.sh            # full gate
#   MNTP_JOBS=4 scripts/ci.sh
#
# Everything runs --offline: the workspace is hermetic (in-tree path
# crates only; tests/hermetic.rs fails the suite if a registry
# dependency ever appears in a manifest), so no network is required or
# wanted.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline, every target, warnings are errors) =="
RUSTFLAGS="-D warnings" cargo build --release --offline --all-targets

echo "== determinism & panic-policy lint =="
cargo run --release --offline -p devtools --bin lint

echo "== lint output survives a reader that stops early =="
cargo run --release --offline -p devtools --bin lint -- --graph | head -n 3 >/dev/null

echo "== lint report (suppression audit + call-graph summary) is fresh =="
cargo run --release --offline -p devtools --bin lint -- --report \
    | diff -u results/lint_report.txt - \
    || { echo "results/lint_report.txt is stale — regenerate with:"; \
         echo "  cargo run --release -p devtools --bin lint -- --report > results/lint_report.txt"; \
         exit 1; }

echo "== rustdoc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "== test suite (offline) =="
cargo test -q --offline

echo "== hermetic guard =="
cargo test -q --offline --test hermetic

echo "== repro smoke (quick suite, release) =="
MNTP_SMOKE=1 cargo test -q --release --offline --test repro_smoke

echo "== committed single-device, log-analysis and server-core artifacts match the code =="
cargo test -q --release --offline --test committed_artifacts

echo "== fleet is jobs-invariant (artifact + sharded trial) =="
cargo test -q --release --offline --test parallel_equivalence fleet

echo "== chaos fleet: fault timeline is jobs-invariant, lockstep replay =="
cargo test -q --release --offline --test parallel_equivalence chaos

echo "== servers: ServerCore, SimServer and ServerModel agree on RATE; (shards, jobs)-invariant =="
cargo test -q --release --offline --test server_core_equivalence
cargo test -q --release --offline --test parallel_equivalence servercore

echo "== streaming summary agrees with the exact analyzers =="
cargo test -q --release --offline --test streaming_equivalence

echo "== full-scale pipeline is (shards, jobs)-invariant =="
cargo test -q --release --offline --test parallel_equivalence fullscale

echo "== committed full-scale artifact matches the code (all 209M records, ~1.5 min) =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run --release --offline -p experiments --bin repro -- --jobs 2 --out "$tmp" fullscale
cmp results/fullscale.txt "$tmp/fullscale.txt"

# e2ebench/ is a standalone package outside the workspace, so the steps
# above never compile it; build and test it here so an API move in the
# crates it calls cannot break it unnoticed. It builds into the
# workspace's target directory, as e2ebench/run.sh does: the workspace
# crates compile once, and a timing after CI runs the binary CI built.
echo "== end-to-end benchmark package builds and passes its tests =="
e2e_target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --manifest-path e2ebench/Cargo.toml --target-dir "$e2e_target"
cargo test -q --offline --manifest-path e2ebench/Cargo.toml --target-dir "$e2e_target"

# e2ebench's own tests use 400 clients; these runs check the workloads
# at benchmark scale. `e2e_correct WORKLOAD TRACE` runs one repetition
# and fails unless its last line, a JSON object, holds "correct":true
# (a failing run fails the script through set -e and pipefail).
e2e_correct() {
    local workload="$1" trace="$2" last
    last="$(cargo run --release --offline --manifest-path e2ebench/Cargo.toml --target-dir "$e2e_target" -- \
        --workload "$workload" --reps 1 --trace "$trace" --out "$tmp/e2e" | tail -n 1)"
    case "$last" in
        *'"correct":true'*) ;;
        *) echo "$workload is not correct: $last"; exit 1 ;;
    esac
}

# The serial engine (one shard, whose ring is handed over) against the
# 8-shard engine (the merge) on all 5.6 M datagrams and a 400k-key table.
echo "== servercore-ingest at full scale: serial and 8-shard engines agree =="
e2e_correct servercore-ingest 0

# A traced run is correct only if the digest of e2ebench's own epoch
# loop equals that of mntp::run_fleet_on / run_fleet_chaos_on on the
# same fleet: 100k mixed clients, and 10k resilient ones under chaos.
echo "== fleet-mixed and fleet-chaos at benchmark scale: e2ebench's replay matches the fleet runner =="
e2e_correct fleet-mixed 1
e2e_correct fleet-chaos 1

# Timing-sensitive, so it runs after every correctness step: a red gate
# on a noisy host must not hide whether those pass. It still fails the
# script (set -e).
echo "== microbenchmarks vs committed baseline =="
cargo run --release --offline -p mntp-bench --bin micro
cargo run --release --offline -p mntp-bench --bin compare -- \
    results/bench/baseline.json results/bench/BENCH_micro.json

echo "CI OK"
