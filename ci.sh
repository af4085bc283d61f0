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
# gates from tier-1 tests — no Criterion, no BENCH-file comparer. (The
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
# A read replica is the repository over its follower (DESIGN.md "Recovery
# and replication"): no private session database beside it, and the
# `dl_files` schema is declared once, in the repository.
# A token rides the open that presents it (DESIGN.md "§4.1 — access tokens"):
# `Dlfs::fs_lookup` strips and holds it, and makes no upcall.
# No prepare round (DESIGN.md "Protocol and dispatch"): the `Link`/`Unlink`
# reply is the vote, and the host aborts an undecided transaction whose
# branch it lost.
# A link forces once, on the host (DESIGN.md "Force audit"): its vote writes
# nothing on the node — `link_file` commits nothing, forces no intent and
# changes no attribute; the take-over waits for the decision — so there is
# no undo list for an abort and no forced take-back of a vote.
# A frame is served on the thread that read it (DESIGN.md "Wire transport"):
# no settle pool, no worker threads behind a lane, no growth or retire
# window, no client reader election — and the wire daemon never hands a
# frame to a queue (a full lane parks it on the gate instead).
# A close wakes no archiver (DESIGN.md "§4.4"): the archiver's queue is a
# mutex and a condvar, not a channel, and a write open that meets its
# file's archive job runs or waits it out — archiving answers no `Busy`.
# A served frame borrows the seat (DESIGN.md "Wire transport"): the
# reactor's `Worker::run` gives the poll set to a follower only when more
# events are ready, and otherwise lends it — no `give_seat` at the loop
# body's own level (outside the branch on the ready list), and a
# `lend_seat` must be there.
step "guard: no second protocol definition, no deleted knobs, no third harness, one database type (following is a mode), no second slot swap, no 2PC on the close path, no second copy of a 2PC outcome, no participant-side 2PC, no second reconcile, one archive per node, no replica session database, one dl_files schema, no upcall at lookup, no prepare round, no repository write in a link's vote, no frame hand-off to a worker, no archiver channel, no Busy from archiving, no seat given away per frame"
if grep -rnE "enum (AgentRequest|UpcallRequest|UpcallReply)|thread_per_agent|read_lane_width|PoolOptions::fixed" \
    crates/ src/ tests/ \
  || grep -rnE "settle_stats|reply_parked|try_grow|retire_window|upcall_idle_ms|upcall_workers_min" \
    crates/ src/ tests/ \
  || grep -n "\.submit(" crates/dlfm/src/wire.rs \
  || grep -rnE "trait ShipTarget|HostStandby|HostReplicaSetOptions|read_lane_auto|set_read_lane_source|fixed_upcall_workers" \
    crates/ src/ tests/ \
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
  || grep -rnE "[r]epl_tokens|SESSION_[T]OKENS|session_[e]nv" crates/ src/ tests/ \
  || grep -rn 'Column::new("[c]ur_version"' crates/ src/ tests/ examples/ \
       | grep -v "^crates/dlfm/src/repository.rs:" \
  || awk '/fn fs_lookup\(/,/^    }$/' crates/dlfs/src/lib.rs | grep -n "self\.[u]pcall" \
  || grep -rnE "Message::[P]repare|T_[P]REPARE|prepare_[h]ost|Prepare[F]ailed" crates/ src/ tests/ \
  || grep -rnE "[U]ndoFs|remove_[i]ntent\(" crates/ src/ tests/ \
  || awk '/fn link_file\(/,/^    }$/' crates/dlfm/src/server.rs \
       | grep -nE "\.[c]ommit(_unforced)?\(\)|add_[i]ntent|set_[a]ttrs\(" \
  || grep -nE "[c]riterion" Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml benchmark/Cargo.toml \
  || grep -rnE "mod [t]rajectory|[-]-compare|[-]-gate" crates/bench \
  || awk '/^#\[cfg\(test\)\]/ { exit } { print }' crates/dlfm/src/archive.rs | grep -n "[m]psc" \
  || awk '/fn open_check_write\(/,/^    }$/' crates/dlfm/src/server.rs \
       | grep -A4 "is_[a]rchiving" | grep -n "OpenDecision::[B]usy" \
  || awk '/    fn run\(self\) \{/,/^    }$/' crates/net/src/reactor.rs \
       | grep -nE "^ {12}shared\.[g]ive_seat\(" \
  || ! awk '/    fn run\(self\) \{/,/^    }$/' crates/net/src/reactor.rs \
       | grep -q "shared\.[l]end_seat(set)"; then
  echo "guard: a duplicate protocol definition, a deleted knob, harness, a standby type or a promotion that reopens, a second slot swap, a close-path participant, a 2PC outcome copy, participant-side 2PC, a second reconcile, archive mirroring, a replica session database, a second dl_files schema, an upcall at lookup, a prepare round, a repository write in a link's vote, a frame hand-off to a worker, an archiver channel, a Busy from archiving or a per-frame seat give-away (no lend in Worker::run) reappeared (matches above)" >&2
  exit 1
fi

# minidb's row path shares instead of copying (DESIGN.md "Substrates"): the
# schema is one `Arc<Schema>` that `Database::schema` hands out, and a lock
# key is a `Copy` hash — no owned `Schema` from the getter, no lock key
# built from a cloned table name.
step "guard: Database::schema returns the shared schema, no LockRes built from to_string()"
if grep -nE "fn schema\(&self, table: &str\) -> DbResult<[S]chema>" crates/minidb/src/db.rs \
  || grep -rnE "LockRes::[A-Za-z]+\([^;]*\.to_[s]tring\(\)" crates/ src/ tests/; then
  echo "guard: an owned Schema from Database::schema or a LockRes built from to_string() reappeared (matches above)" >&2
  exit 1
fi

# Open-file state lives in DLFM's memory (DESIGN.md "§4.5"): the token
# entries and the Sync table are the open table, not repository tables, so
# a token read runs no repository transaction — and minidb has no table
# class for rows recovery is meant to lose.
step "guard: no dl_sync or dl_tokens table, no unlogged-table class in minidb"
if grep -rnE '"dl_(sync|tokens)"' crates/*/src \
  || grep -rni "unlogged" crates/minidb/src; then
  echo "guard: a repository table for open-file state, or minidb's unlogged-table class, reappeared (matches above)" >&2
  exit 1
fi

# No scenario lab (EXPERIMENTS.md "Fault matrix"): the fault scenarios are
# tier-1 tests in tests/fault_matrix.rs over one plain driver,
# `dl_bench::mixed::run`. No scenario language, no scenario files, no lab
# binary — and the driver counts; rates are benchmark/'s to measure, so it
# emits no `ops_s` or `*_rate` metric. (The bracketed first letters keep
# these patterns from matching this file.)
step "guard: no crates/lab, no scenarios/, no dl_lab, no lab binary, no rate metric in the mixed driver"
if [[ -e crates/lab || -e scenarios ]] \
  || grep -rnE "dl[_-]lab" Cargo.toml Cargo.lock crates/ src/ tests/ examples/ \
  || grep -rnE "[-]-bin lab\b" crates/ src/ tests/ examples/ README.md DESIGN.md EXPERIMENTS.md \
       OPERATIONS.md \
  || grep -nE '"[^"]*([o]ps_s|_[r]ate)\b[^"]*"' crates/bench/src/mixed.rs; then
  echo "guard: the scenario lab (crates/lab, scenarios/, dl_lab, the lab binary) or a rate metric in the mixed driver reappeared (matches above)" >&2
  exit 1
fi

# One daemon driver (DESIGN.md "Background daemons"): the archiver, the
# shipper and a follower's snapshotter are steps that
# `dl_minidb::daemon::Daemon` runs — none owns a thread, a stop flag or a
# drain of its own, and the shipper lives in `ReplicaSet`, with no
# replicator type beside it. (The bracketed first letters keep these
# patterns from matching this file.)
step "guard: no per-loop thread plumbing in the archiver, the shipper or the snapshotter"
if grep -rnE "[S]napshotter\b|[s]napshot_loop|[w]ait_snapshot_idle|struct [R]eplicator\b|struct [S]hipCore\b" \
    crates/ src/ tests/ examples/ \
  || for f in crates/dlfm/src/archive.rs crates/repl/src/lib.rs crates/minidb/src/replica.rs; do
       awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
     done | grep -E "thread::[B]uilder|thread::[s]pawn"; then
  echo "guard: a loop's own thread plumbing (Snapshotter, snapshot_loop, wait_snapshot_idle, Replicator, ShipCore, or a thread spawned outside the daemon driver) reappeared (matches above)" >&2
  exit 1
fi

# One commit point (DESIGN.md "Force audit"): a DLFM server always runs
# under a host, which its one constructor takes. No hookless mode forces a
# repository commit of its own for an update, no `Option` stands for a
# missing host or a missing live-bytes source, and no forced insert of a
# write claim comes back. (The bracketed first letters keep these patterns
# from matching this file.)
step "guard: no DLFM without a host, no second update commit point"
if grep -rnE "[S]tandalone mode|[O]ption<Arc<dyn HostHook>>|fn [w]ith_repository\b|[f]allback: Option<ContentSource>|[l]ive: Option<&ContentSource>|fn [p]ut_uip\b" \
    crates/ src/ tests/ examples/; then
  echo "guard: a hookless DLFM (Standalone mode, an optional host, with_repository), an optional content source or put_uip reappeared (matches above)" >&2
  exit 1
fi

# No write claim in the log (DESIGN.md "Force audit"): a write open is one
# check-and-set of DLFM's open table, whose writer entry holds the version
# its close commits, and the write grant's attributes on the file are the
# one durable mark of a write in flight. An update writes no repository
# record before its close's: no claim table or row type, no reads or
# removals of one, no recovery step for one. (The bracketed first letters
# keep these patterns from matching this file.)
step "guard: no write claim in the log"
if grep -rnE "[d]l_uip|[U]ipEntry|fn [g]et_uip|fn [l]ist_uip|fn [r]emove_uip|[D]ropClaim" \
    crates/ src/ tests/ examples/; then
  echo "guard: a write claim in the repository log (dl_uip, UipEntry, get_uip, list_uip, remove_uip or DropClaim) reappeared (matches above)" >&2
  exit 1
fi

# A node is configured once (DESIGN.md "§4.5"): strict link is the
# server's setting, which DLFS learns at `Hello`, and a `Busy` open always
# waits out the sync epoch — DLFS has no configuration of its own. The
# flight-recorder ring has one size, and a node keeps its parts as one
# value. (The bracketed first letters keep these patterns from matching
# this file.)
step "guard: no DLFS configuration, no wait policy, no flight-ring knob, no copied node config"
if grep -rnE "[D]lfsConfig|[W]aitPolicy|[f]light_ring_capacity|fn [f]light_ring\b|[d]lfs_cfg" \
    crates/ src/ tests/ examples/; then
  echo "guard: DlfsConfig, WaitPolicy, the flight-ring knob or a dlfs_cfg field reappeared (matches above)" >&2
  exit 1
fi

# One recovery rule, decided by a pure plan (DESIGN.md "Recovery and
# replication" §6): `recovery::plan` derives each path's steps and
# `DlfmServer::recover` applies them and commits once, re-archive
# included. No per-file function that both decides and acts, no second
# re-archive pass forcing a commit per file, no restore summary beside the
# nodes' reports, no second assembly path. (The bracketed first letters
# keep these patterns from matching this file.)
step "guard: one recovery plan, one recovery commit"
if grep -rnE "fn [r]econcile_file|fn [m]ove_to_version|fn [e]ntry_of_row|struct [L]ocalRecords|fn [r]ecover_from|[S]ystemRestoreReport|fn [c]lear_needs_archive\(|fn [f]iles_needing_archive" \
    crates/ src/ tests/ examples/; then
  echo "guard: reconcile_file, move_to_version, entry_of_row, LocalRecords, recover_from, SystemRestoreReport, clear_needs_archive or files_needing_archive reappeared (matches above)" >&2
  exit 1
fi

# One owner of open-file state (DESIGN.md "§4.5"): the open table moves
# its own epoch whenever an entry or a branch mark leaves, and counts its
# own updates. No second epoch that callers bump by hand, no archive
# callback waking opens, and no repository pass-through over the table —
# callers use `Repository::opens` (the repository keeps only `claim_write`
# and `admit_token`, which join the table to a row or a token). (The
# bracketed first letters keep these patterns from matching this file.)
step "guard: one owner of open-file state"
if grep -rnE "struct [S]yncEpoch|fn [b]ump_epoch|[c]b_epoch" crates/ \
  || grep -nE "fn ([p]ut_token_entry|[c]heck_token_entry|[r]egister_open|[e]nd_open|[s]ync_entries|[c]laim_read|[b]ump|[u]pdate_op_count)\b|[u]pdate_ops\b" \
       crates/dlfm/src/repository.rs; then
  echo "guard: a hand-bumped sync epoch (SyncEpoch, bump_epoch, cb_epoch) or a Repository pass-through over the open table reappeared (matches above)" >&2
  exit 1
fi

# An open resolves its path without a shared write or a throwaway String
# (DESIGN.md "DLFS"): DLFS's ino→path cache holds shared paths and a lookup
# writes it only when the path changed, and fskit splits a path into slices
# of it. (The test module of path.rs keeps the owning splitter as the
# reference its table test compares against, so only the code above it is
# searched.)
step "guard: no write per lookup, no String-building path split"
if grep -nE "HashMap<Ino, [S]tring>" crates/dlfs/src/lib.rs \
  || awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' crates/fskit/src/path.rs \
       | grep -E -- "-> FsResult<\([S]tring, String\)>"; then
  echo "guard: a String-valued name cache in DLFS or an owning path split in fskit reappeared (matches above)" >&2
  exit 1
fi

# One DLFS per mount (DESIGN.md "Sharded namespace"): a file server's one
# DLFS holds one upcall client per shard and routes each upcall by its
# path, so no sharded front with a second name cache stacks on per-shard
# DLFS layers, and no single-client accessor comes back. (The bracketed
# first letters keep these patterns from matching this file.)
step "guard: one DLFS per mount, no sharded front"
if grep -rnE "[S]hardedFs|[p]rime_directory|[r]eplace_shard|[s]hard_fronts|fn [u]pcall_client" \
    crates/ src/ tests/ examples/; then
  echo "guard: the sharded front (ShardedFs, prime_directory, replace_shard, shard_fronts) or Dlfs::upcall_client reappeared (matches above)" >&2
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
# The log is kept, and a failure names its tests: a red run whose log did
# not say which test failed cannot be chased.
step "cargo test --workspace -q --no-fail-fast (every crate: unit + integration + doctests)"
mkdir -p target
if ! cargo test --workspace -q --no-fail-fast 2>&1 | tee target/ci-test-workspace.log; then
  echo "failed tests (log: target/ci-test-workspace.log):" >&2
  grep -E "^    [^ ]+$|^test .* FAILED$|^error: test failed|panicked at" target/ci-test-workspace.log >&2 || true
  exit 1
fi

# Flake guard (ROADMAP item 0(b)), scoped to the suites whose subjects race
# by design: unforced log appends are carried to disk by whichever thread
# flushes next (a committer, the shipper's idle poll, a checkpoint), and
# these suites crash, promote and drain across that window — the cut-point
# sweep (update, link and unlink) cuts every boundary of it. The log's own
# tests race too: two flushes in flight park, overlap and fail each other
# on purpose (`wal::` in dl-minidb), and wire_transport's sever race cuts
# an agent connection while its host transaction commits. The reactor's
# lent seat races too: the serving thread's reclaim, the park hook's
# hand-off and a follower's take-over after the lend bound meet on one
# mutex (`reactor::` in dl-net, and every wire_transport test rides it).
# The lock manager's tests race blocked waiters against releases and
# deadlock victims on hashed keys (`lock::` in dl-minidb). DLFM's open
# table races a read open and a write open against an unlink branch — no
# row lock orders either — read and write opens against each other, and a
# strict registration against a link branch (dlfm_protocol's `racing`
# and `concurrent_read_and_write` tests, and the open table's own claim
# tests, `opens::` in dl-dlfm). The daemon driver's kick, stop and idle
# race their threads: the snapshotter
# (`replica::` in dl-minidb), the shipper's pause and freeze (dl-repl) and
# the archiver's burst and steal tests (`archive::` in dl-dlfm).
# group_commit, replication, sharding and wire_transport also hold count
# gates (device syncs per commit and per update cycle; log bytes under a
# budget, image installs and records shipped on catch-up; busy shards,
# per-shard syncs and repository syncs in flight at once; connections,
# serving threads, presumed aborts and seat reclaims per frame), so every
# round re-reads them under a machine the other suites keep busy. The fault
# matrix crashes, promotes and drains across the same unforced-append
# window under concurrent clients.
# One green run proves little about a race; five in a row, failing on the
# first red.
step "flake guard: crash_recovery + group_commit + replication + close_commit_sweep + sharding + fault_matrix + minidb wal:: + minidb lock:: + minidb replica:: + dl-repl + dlfm archive:: + wire_transport + dl-net reactor:: + dlfm open-table races and claims x5"
for round in 1 2 3 4 5; do
  cargo test --offline -q --test crash_recovery --test group_commit --test replication \
    --test close_commit_sweep --test sharding --test fault_matrix \
    || { echo "flake guard: round $round failed" >&2; exit 1; }
  cargo test --offline -q --test wire_transport \
    || { echo "flake guard: round $round (wire_transport) failed" >&2; exit 1; }
  cargo test --offline -q -p dl-net --lib reactor:: \
    || { echo "flake guard: round $round (reactor::) failed" >&2; exit 1; }
  cargo test --offline -q -p dl-minidb --lib wal:: \
    || { echo "flake guard: round $round (wal::) failed" >&2; exit 1; }
  cargo test --offline -q -p dl-minidb --lib lock:: \
    || { echo "flake guard: round $round (lock::) failed" >&2; exit 1; }
  cargo test --offline -q -p dl-minidb --lib replica:: \
    || { echo "flake guard: round $round (replica::) failed" >&2; exit 1; }
  cargo test --offline -q -p dl-repl \
    || { echo "flake guard: round $round (dl-repl) failed" >&2; exit 1; }
  cargo test --offline -q -p dl-dlfm --lib archive:: \
    || { echo "flake guard: round $round (archive::) failed" >&2; exit 1; }
  cargo test --offline -q -p dl-dlfm --test dlfm_protocol -- racing concurrent_read_and_write \
    || { echo "flake guard: round $round (open-table races) failed" >&2; exit 1; }
  cargo test --offline -q -p dl-dlfm --lib opens:: \
    || { echo "flake guard: round $round (open-table claims) failed" >&2; exit 1; }
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

# The repo benchmark (benchmark/, BENCHMARK.json) is a package of its own
# outside the workspace, so nothing above compiles it — and it may not be
# edited by a PR that claims a gain. A wire-API change that stops it
# building must fail here, not in the benchmark pipeline.
step "benchmark package: build + harness unit tests"
cargo test --offline --manifest-path benchmark/Cargo.toml

step "OK"
