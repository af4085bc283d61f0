#!/usr/bin/env bash
# The full local CI gate. Everything runs offline (vendor/README.md).
#
#   ./ci.sh          # the whole gate
#   ./ci.sh quick    # skip the release build (fmt, clippy, tests)
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n\033[1m== %s ==\033[0m\n' "$*"; }

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# One protocol, one dispatcher (DESIGN.md "Protocol and dispatch"):
# `dl_net::Message` is the only agent/upcall message set and
# `DlfmServer::handle` the only dispatch. A second request/reply enum, or
# one of the knobs deleted with the duplicate paths, must not come back.
step "guard: no second protocol definition, no deleted front-end knobs"
if grep -rnE "enum (AgentRequest|UpcallRequest|UpcallReply)|thread_per_agent|read_lane_width|PoolOptions::fixed" \
    crates/ src/ tests/ scenarios/; then
  echo "guard: a duplicate protocol definition or a deleted knob reappeared (matches above)" >&2
  exit 1
fi

if [[ "${1:-}" != "quick" ]]; then
  step "cargo build --release"
  cargo build --release
fi

# The tier-1 gate (`cargo test -q`, umbrella package only) is a strict
# subset of the workspace run, so one invocation covers both.
# --no-fail-fast: cargo otherwise stops at the first failing test binary
# and the suites after it (wire_transport among them) never run.
step "cargo test --workspace -q --no-fail-fast (every crate: unit + integration + doctests)"
cargo test --workspace -q --no-fail-fast

# Flake guard (ROADMAP item 0(b)), scoped to the suites whose subjects race
# by design: unforced log appends are carried to disk by whichever thread
# flushes next (a committer, the shipper's idle poll, a checkpoint), and
# these three suites crash, promote and drain across that window. One green
# run proves little about a race; five in a row, failing on the first red.
step "flake guard: crash_recovery + group_commit + replication x5"
for round in 1 2 3 4 5; do
  cargo test --offline -q --test crash_recovery --test group_commit --test replication \
    || { echo "flake guard: round $round failed" >&2; exit 1; }
done

# The socket path is load-bearing (Transport::Socket routes the whole
# agent/upcall protocol through the framed codec and the reactor), so its
# smoke suite gets a named step even though the workspace run above
# already includes it — a failure here points straight at the wire.
step "wire-transport socket smoke"
cargo test -q --test wire_transport

step "examples compile"
cargo build --examples --quiet

step "benches compile"
cargo bench -p dl-bench --no-run --quiet

# Rustdoc gate: the doc surface (incl. crates/repl's missing_docs lint)
# builds clean with warnings promoted to errors.
step "cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# Regression tooling can't rot: run every shipped scenario through the
# lab (the declarative successor of the bespoke a9-a12 runners;
# EXPERIMENTS.md "Writing a scenario"). Each scenario declares its own
# assertions — a9 the commit-throughput speedups, a10 lag-drain +
# failover link preservation, a11 bounded WALs + delta catch-up, a12 the
# adaptive upcall pool and shared agent executor, a13 near-linear
# write-cycle scaling across DLFM namespace shards — and the fault
# scenarios cover crash-failover, standby stalls under freshness reads,
# link-churn storms, upcall-worker kills, ENOSPC write-fault bursts
# (disk_fault, repository- or host-targeted), host-coordinator loss
# mid-burst with promotion of a host standby (kill_host_mid_burst, its
# flight-recorder span trail gated as lab_flight_* metrics) and a torn
# host-WAL tail at a crash boundary (host_wal_torn_tail). The lab exits
# non-zero on any failed assertion, then the just-written BENCH_*.json
# self-compare keeps the trajectory pipeline honest. Quick mode stays on
# the debug profile to avoid a release build it otherwise skips.
step "lab --quick scenarios/*.jsonl (declared assertions) + report --compare self-smoke"
profile_flag=""
if [[ "${1:-}" != "quick" ]]; then
  profile_flag="--release"
fi
bench_dir=$(mktemp -d)
trap 'rm -rf "$bench_dir"' EXIT
# shellcheck disable=SC2086  # $profile_flag is intentionally word-split
cargo run -p dl-bench $profile_flag --quiet --bin lab -- \
  --quick --json-dir "$bench_dir" scenarios/*.jsonl > /dev/null
cargo run -p dl-bench $profile_flag --quiet --bin report -- \
  --compare "$bench_dir" --current "$bench_dir"

# Wire throughput gate: the a14 wire churn (full 2PC cycles over real
# sockets) against a14's *own* in-process baseline row — the same churn
# shape, fixture and device model over Transport::Local, run moments
# earlier in the same process. (It used to be compared with an a12 cell
# measured under a 1,000 us sync: ratio 2.3 against a 0.2 floor, so a 10x
# wire regression passed.) Five release `--quick` sweeps like the one
# above measured wire/local 0.14-0.18 at PR 17, median 0.17 (a14 run on
# its own: 0.11-0.19; the local row is 1 cycle per worker and moves
# 52-82k ops/s with how warm the process is; the wire row, 8.9-11.2k, is
# a code path PR 17 did not touch); the floor is half the median. The
# ratio read 0.19-0.39 (floor 0.12) until PR 17 took the two thread
# hand-offs out of every in-process call and so sped up the denominator;
# the pre-PR-14 wire path's ~4.7k ops/s is 0.06-0.09 of today's local
# row.
step "wire gate: a14 socket churn vs a14 in-process baseline"
cargo run -p dl-bench $profile_flag --quiet --bin report -- \
  --gate "$bench_dir/BENCH_a14.json::local baseline" \
         "$bench_dir/BENCH_a14.json::wire churn" \
  --column "ops/s" --min-ratio 0.085

# The repo benchmark (benchmark/, BENCHMARK.json) is a package of its own
# outside the workspace, so nothing above compiles it — and it may not be
# edited by a PR that claims a gain. A wire-API change that stops it
# building must fail here, not in the benchmark pipeline.
step "benchmark package: build + harness unit tests"
cargo test --offline --manifest-path benchmark/Cargo.toml

step "OK"
