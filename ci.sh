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
# Two harnesses, not four (EXPERIMENTS.md): numbers come from benchmark/,
# gates from scenario asserts — no Criterion, no BENCH-file comparer. (The
# bracketed first letters keep these patterns from matching this file.)
# One redo, one log, one database type, following is a mode (DESIGN.md
# "Recovery and replication"): the ship daemon feeds one concrete fenced
# follower — no target trait, no second fenced wrapper — that is a
# `Database` in follower mode, not a standby type of its own; a promotion
# flips that mode in place, so neither `promote_host` nor `fail_over` opens
# the promote target's env; and the log-slot swap lives in wal.rs alone.
# One commit point per update (DESIGN.md "Force audit"): the close commits
# on the host and enlists nobody — no participant wrapper around the
# repository's close transaction, no second close path.
# The host row is the outcome (DESIGN.md "Force audit", *`Decide` lost*):
# a link/unlink branch settles by `__dl_meta` like an update — no outcomes
# map on the host, no coordinator id in a `Prepare`, no second question in
# `HostHook`.
# The intent is the vote (DESIGN.md "Force audit"): a link/unlink branch
# forces its intent and ends with an ordinary commit — minidb has no
# participant-side 2PC, no `Prepare`/`Decide` record, no in-doubt registry.
# One reconcile by the host rows (DESIGN.md "Recovery and replication"):
# crash recovery, failover and point-in-time restore run the same per-file
# rule — no second restore pass, no synthetic 2PC branch to re-link a file.
# One archive per node (DESIGN.md "Recovery and replication"): standbys read
# the primary's store and a new server fences the old one by its writer
# generation — no mirroring, no per-path forwarding order, and `fail_over`
# makes no archive call of its own.
step "guard: no second protocol definition, no deleted knobs, no third harness, one database type (following is a mode), no second slot swap, no 2PC on the close path, no second copy of a 2PC outcome, no participant-side 2PC, no second reconcile, one archive per node"
if grep -rnE "enum (AgentRequest|UpcallRequest|UpcallReply)|thread_per_agent|read_lane_width|PoolOptions::fixed" \
    crates/ src/ tests/ scenarios/ \
  || grep -rnE "trait ShipTarget|HostStandby|HostReplicaSetOptions|read_lane_auto|set_read_lane_source|fixed_upcall_workers" \
    crates/ src/ tests/ scenarios/ \
  || grep -rnE "PreparedTxn[P]articipant|dlfm-[c]lose:|ensure_[s]ettled" crates/ src/ tests/ \
  || grep -rnE "coordinator_[o]utcome|record_[o]utcome|in_doubt_[c]oordinator|fn [o]utcome\(" crates/ src/ tests/ \
  || grep -rnE "commit_[p]repared|abort_[p]repared|resolve_[i]n_doubt|in_doubt_[t]xns|in_doubt_[o]ps|WalRecord::[P]repare|WalRecord::[D]ecide" crates/ src/ tests/ \
  || grep -rnE "restore_to_[v]ersions|Restore[O]utcome|reconcile_files_with_[m]etadata|column_options_for_[u]rl" crates/ src/ tests/ \
  || grep -rnE "Standby[D]b|Standby[S]hared|Standby[I]nner" crates/ src/ tests/ \
  || grep -rnE "add_[m]irror|remove_[m]irror|seal_mirror_[i]nput|mirror_[p]ut|mirror_[m]embership|path_[o]rder" \
       crates/ src/ tests/ \
  || awk '/fn fail_over\(/,/^    }$/' crates/core/src/system.rs | grep -n "archive_[s]tore()" \
  || awk '/fn (promote_host|fail_over)\(/,/^    }$/' crates/core/src/system.rs \
       | grep -nE "Database::[o]pen|promote_target\(\)\.[e]nv\(\)" \
  || grep -rn "swap_log_slot" crates/ src/ tests/ | grep -v "^crates/minidb/src/wal.rs:" \
  || grep -nE "[c]riterion" Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml benchmark/Cargo.toml \
  || grep -rnE "mod [t]rajectory|[-]-compare|[-]-gate" crates/bench; then
  echo "guard: a duplicate protocol definition, a deleted knob, harness, a standby type or a promotion that reopens, a second slot swap, a close-path participant, a 2PC outcome copy, participant-side 2PC, a second reconcile or archive mirroring reappeared (matches above)" >&2
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
# these suites crash, promote and drain across that window — the cut-point
# sweep (update, link and unlink) cuts every boundary of it. One green run
# proves little about a race; five in a row, failing on the first red.
step "flake guard: crash_recovery + group_commit + replication + close_commit_sweep x5"
for round in 1 2 3 4 5; do
  cargo test --offline -q --test crash_recovery --test group_commit --test replication \
    --test close_commit_sweep \
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

# Rustdoc gate: the doc surface (incl. crates/repl's missing_docs lint)
# builds clean with warnings promoted to errors.
step "cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# Every shipped scenario through the lab (EXPERIMENTS.md "Writing a
# scenario"). Each scenario's own `assert` lines are the gate — shapes and
# invariants, a14's wire_vs_local floor among them — and the lab exits
# non-zero if any fails. Quick mode stays on the debug profile to avoid a
# release build it otherwise skips.
step "lab --quick scenarios/*.jsonl (declared assertions)"
profile_flag=""
if [[ "${1:-}" != "quick" ]]; then
  profile_flag="--release"
fi
# shellcheck disable=SC2086  # $profile_flag is intentionally word-split
cargo run -p dl-bench $profile_flag --quiet --bin lab -- --quick scenarios/*.jsonl > /dev/null

# The repo benchmark (benchmark/, BENCHMARK.json) is a package of its own
# outside the workspace, so nothing above compiles it — and it may not be
# edited by a PR that claims a gain. A wire-API change that stops it
# building must fail here, not in the benchmark pipeline.
step "benchmark package: build + harness unit tests"
cargo test --offline --manifest-path benchmark/Cargo.toml

step "OK"
