//! Cross-crate tests of the group-commit WAL pipeline: durability ordering
//! (no commit acknowledged or observable before its batch syncs), recovery
//! equivalence between the two commit modes, crash-mid-batch recovery of
//! the whole database, and what group commit saves, gated as counts: device
//! syncs per commit, per update cycle through the full stack, and per node
//! recovery.

use std::time::{Duration, Instant};

use proptest::prelude::*;

use datalinks::dlfm::HostView;
use datalinks::minidb::{
    Column, ColumnType, Database, DbOptions, DiskFaults, Row, Schema, StorageEnv, Value, WalOptions,
};

fn schema() -> Schema {
    Schema::new(
        "t",
        vec![Column::new("id", ColumnType::Int), Column::nullable("val", ColumnType::Text)],
        "id",
    )
    .unwrap()
}

fn row(id: i64, val: &str) -> Row {
    vec![Value::Int(id), Value::Text(val.into())]
}

fn group_opts(commit_delay_us: u64) -> DbOptions {
    DbOptions {
        wal: WalOptions { group_commit: true, commit_delay_us, ..Default::default() },
        ..Default::default()
    }
}

fn per_commit_opts() -> DbOptions {
    DbOptions { wal: WalOptions::per_commit_sync(), ..Default::default() }
}

/// A commit is never observable as committed before its WAL frame syncs.
/// The WAL device charges a deterministic spin cost per sync, so if the
/// committed stores were (incorrectly) updated before the batch synced, the
/// row would become visible before one sync latency elapsed.
#[test]
fn commit_not_observable_before_its_batch_syncs() {
    const SYNC_NS: u64 = 40_000_000; // 40 ms per device sync
    let env = StorageEnv::mem_with_sync_latency(SYNC_NS);
    let db = Database::open_with(env, group_opts(0)).unwrap();
    db.create_table(schema()).unwrap();

    let db2 = db.clone();
    let started = Instant::now();
    let committer = std::thread::spawn(move || {
        let mut tx = db2.begin();
        tx.insert("t", row(1, "follower")).unwrap();
        tx.commit().unwrap();
    });
    // Poll while the committer is inside its sync window: visibility before
    // the sync latency elapsed would mean the apply ran pre-durability.
    loop {
        let visible = db.get_committed("t", &Value::Int(1)).unwrap().is_some();
        if visible {
            assert!(
                started.elapsed() >= Duration::from_nanos(SYNC_NS),
                "row observable before its commit batch could possibly have synced"
            );
            break;
        }
        if committer.is_finished() {
            break;
        }
        std::thread::yield_now();
    }
    committer.join().unwrap();
    assert!(db.get_committed("t", &Value::Int(1)).unwrap().is_some());
}

/// Same property under actual batching: two concurrent committers share a
/// batch (commit delay forces the window); neither row may appear before a
/// sync could have completed.
#[test]
fn follower_commit_not_observable_before_shared_batch_syncs() {
    const SYNC_NS: u64 = 30_000_000;
    let env = StorageEnv::mem_with_sync_latency(SYNC_NS);
    let db = Database::open_with(env, group_opts(2_000)).unwrap();
    db.create_table(schema()).unwrap();

    let started = Instant::now();
    let mut handles = Vec::new();
    for i in 0..2i64 {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            let mut tx = db.begin();
            tx.insert("t", row(i, "batched")).unwrap();
            tx.commit().unwrap();
        }));
    }
    while handles.iter().any(|h| !h.is_finished()) {
        for i in 0..2i64 {
            if db.get_committed("t", &Value::Int(i)).unwrap().is_some() {
                assert!(
                    started.elapsed() >= Duration::from_nanos(SYNC_NS),
                    "follower row observable before the shared batch synced"
                );
            }
        }
        std::thread::yield_now();
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(db.count("t").unwrap(), 2);
}

/// Acceptance criterion: a WAL written under group commit replays to the
/// same committed state as one written with per-commit sync for the same
/// op sequence — including unforced commits and aborts — and, executed
/// single-threaded, the log bytes are identical.
#[test]
fn recovery_equivalence_per_commit_vs_group_commit() {
    let run = |opts: DbOptions| -> (StorageEnv, Vec<u8>) {
        let env = StorageEnv::mem();
        {
            let db = Database::open_with(env.clone(), opts).unwrap();
            db.create_table(schema()).unwrap();
            for i in 0..10i64 {
                let mut tx = db.begin();
                tx.insert("t", row(i, "plain")).unwrap();
                tx.commit().unwrap();
            }
            // The other endings: an unforced commit, an abort.
            let mut tx = db.begin();
            tx.insert("t", row(100, "unforced")).unwrap();
            tx.commit_unforced().unwrap();
            let mut tx = db.begin();
            tx.insert("t", row(101, "aborted")).unwrap();
            tx.abort();
            let mut tx = db.begin();
            tx.update("t", &Value::Int(3), row(3, "updated")).unwrap();
            tx.delete("t", &Value::Int(7)).unwrap();
            tx.commit().unwrap();
        }
        let bytes = {
            let dev = env.device("wal").unwrap();
            let mut buf = vec![0u8; dev.len().unwrap() as usize];
            dev.read_at(0, &mut buf).unwrap();
            buf
        };
        (env, bytes)
    };

    let (env_per, bytes_per) = run(per_commit_opts());
    let (env_grp, bytes_grp) = run(group_opts(0));
    assert_eq!(bytes_per, bytes_grp, "single-threaded logs must be byte-identical");

    // Cross-replay: open each log under the *other* mode.
    let db_per = Database::open_with(env_per, group_opts(0)).unwrap();
    let db_grp = Database::open_with(env_grp, per_commit_opts()).unwrap();
    let scan = |db: &Database| {
        let mut rows = db.scan_committed("t").unwrap();
        rows.sort_by(|a, b| a[0].to_string().cmp(&b[0].to_string()));
        rows
    };
    assert_eq!(scan(&db_per), scan(&db_grp));
    assert_eq!(db_per.count("t").unwrap(), 10); // 10 plain +1 unforced -1 deleted
    assert!(db_per.get_committed("t", &Value::Int(100)).unwrap().is_some());
    assert!(db_per.get_committed("t", &Value::Int(101)).unwrap().is_none());
}

/// Concurrent committers on disjoint keys: whatever order the batches land
/// in, recovery yields exactly the set of acknowledged commits.
#[test]
fn concurrent_group_commit_recovers_every_acknowledged_txn() {
    let env = StorageEnv::mem_with_sync_latency(20_000);
    {
        let db = Database::open_with(env.clone(), group_opts(100)).unwrap();
        db.create_table(schema()).unwrap();
        std::thread::scope(|scope| {
            for t in 0..8i64 {
                let db = db.clone();
                scope.spawn(move || {
                    for k in 0..10i64 {
                        let mut tx = db.begin();
                        tx.insert("t", row(t * 100 + k, "w")).unwrap();
                        tx.commit().unwrap();
                    }
                });
            }
        });
    }
    let db = Database::open(env).unwrap();
    assert_eq!(db.count("t").unwrap(), 80, "every acknowledged commit must replay");
    for t in 0..8i64 {
        for k in 0..10i64 {
            assert!(db.get_committed("t", &Value::Int(t * 100 + k)).unwrap().is_some());
        }
    }
}

/// Unforced records (`commit_unforced`: a close record, a link/unlink
/// branch's end) caught in a failed flush are carried over, not dropped: their effects are live in
/// memory and nobody is waiting to be told. The forced commit caught with
/// them fails and is *not* applied. Once a flush succeeds, the reopened log
/// equals the in-memory tables.
#[test]
fn failed_flush_keeps_unforced_records_and_the_log_catches_up_with_memory() {
    let faults = DiskFaults::new();
    let env = StorageEnv::mem_with_faults(std::sync::Arc::clone(&faults), 0);
    let db = Database::open_with(env.clone(), group_opts(0)).unwrap();
    db.create_table(schema()).unwrap();

    for (k, v) in [(1, "lazy"), (2, "lazier")] {
        let mut tx = db.begin();
        tx.insert("t", row(k, v)).unwrap();
        tx.commit_unforced().unwrap(); // batched
    }

    faults.inject_enospc(1);
    let mut tx = db.begin();
    tx.insert("t", row(3, "caught")).unwrap();
    assert!(tx.commit().is_err(), "the forced commit reports the failed flush");
    assert_eq!(faults.enospc_hits(), 1);
    assert_eq!(db.count("t").unwrap(), 2, "and is not applied");

    let mut tx = db.begin();
    tx.insert("t", row(4, "after")).unwrap();
    let lsn = tx.commit().unwrap();
    assert_eq!(db.durable_lsn(), lsn, "the retry flushed the carried-over frames too");

    let live = {
        let mut rows = db.scan_committed("t").unwrap();
        rows.sort_by_key(|r| r[0].as_int().unwrap());
        rows
    };
    drop(db);
    let db = Database::open(env).unwrap();
    let mut replayed = db.scan_committed("t").unwrap();
    replayed.sort_by_key(|r| r[0].as_int().unwrap());
    assert_eq!(replayed, live);
    assert_eq!(replayed.len(), 3);
}

/// Committers racing unforced and forced commits into the same batches: each
/// thread alternates the two on its own keys and ends on a forced one, so
/// after a crash every thread must have *all* its keys — a forced commit
/// carries every record logged before it, its own thread's unforced ones
/// included — and in any case never a key without its predecessors.
#[test]
fn concurrent_unforced_and_forced_commits_survive_as_per_thread_prefixes() {
    let env = StorageEnv::mem_with_sync_latency(20_000);
    const PER_THREAD: i64 = 20;
    {
        let db = Database::open_with(env.clone(), group_opts(0)).unwrap();
        db.create_table(schema()).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4i64 {
                let db = db.clone();
                scope.spawn(move || {
                    for k in 0..PER_THREAD {
                        let mut tx = db.begin();
                        tx.insert("t", row(t * 100 + k, "w")).unwrap();
                        if k % 2 == 0 {
                            tx.commit_unforced().unwrap();
                        } else {
                            tx.commit().unwrap();
                        }
                    }
                });
            }
        });
        // Crash: whatever unforced tail is still batched is lost.
    }
    let db = Database::open(env).unwrap();
    for t in 0..4i64 {
        let present: Vec<bool> = (0..PER_THREAD)
            .map(|k| db.get_committed("t", &Value::Int(t * 100 + k)).unwrap().is_some())
            .collect();
        let kept = present.iter().take_while(|p| **p).count();
        assert!(present[kept..].iter().all(|p| !p), "thread {t} survived with a hole: {present:?}");
        // The last commit of every thread (k = 19) is forced.
        assert_eq!(kept as i64, PER_THREAD, "thread {t} lost an acknowledged forced commit");
    }
}

/// Two committers, each pushing a forced commit while the other's flush
/// syncs: the log starts a second flush instead of parking the committer,
/// so their syncs overlap — and recovery still yields exactly the
/// acknowledged commits.
#[test]
fn two_committers_overlap_their_syncs_and_recover_every_acknowledged_txn() {
    let env = StorageEnv::mem_with_sync_latency(1_000_000);
    let overlapped;
    {
        let db = Database::open_with(env.clone(), group_opts(0)).unwrap();
        db.create_table(schema()).unwrap();
        std::thread::scope(|scope| {
            for t in 0..2i64 {
                let db = db.clone();
                scope.spawn(move || {
                    for k in 0..40i64 {
                        let mut tx = db.begin();
                        tx.insert("t", row(t * 100 + k, "w")).unwrap();
                        let lsn = tx.commit().unwrap();
                        assert!(db.durable_lsn() >= lsn, "acknowledged before durable");
                    }
                });
            }
        });
        overlapped = db.wal_telemetry().overlapped_flushes.get();
    }
    assert!(overlapped > 0, "no flush ever started while another synced");
    let db = Database::open(env).unwrap();
    assert_eq!(db.count("t").unwrap(), 80, "every acknowledged commit must replay");
}

/// Device failures hit flushes that overlap: two committers alternate
/// unforced and forced commits while an ENOSPC burst fails some writes.
/// Every forced commit is acknowledged iff it replays, no unforced record
/// is lost, and once a flush succeeds the reopened log equals memory.
#[test]
fn failures_across_overlapping_flushes_keep_acks_exact_and_unforced_records() {
    let faults = DiskFaults::new();
    let env = StorageEnv::mem_with_faults(std::sync::Arc::clone(&faults), 1_000_000);
    let db = Database::open_with(env.clone(), group_opts(0)).unwrap();
    db.create_table(schema()).unwrap();
    let acked = std::sync::Mutex::new(Vec::new());
    let failed = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for t in 0..2i64 {
            let (db, faults, acked, failed) = (db.clone(), &faults, &acked, &failed);
            scope.spawn(move || {
                for k in 0..400i64 {
                    if k >= 40 && faults.enospc_remaining() == 0 {
                        break;
                    }
                    let key = t * 1000 + k;
                    let mut tx = db.begin();
                    tx.insert("t", row(key, "w")).unwrap();
                    if k % 2 == 0 {
                        tx.commit_unforced().unwrap();
                    } else if tx.commit().is_ok() {
                        acked.lock().unwrap().push(key);
                    } else {
                        failed.lock().unwrap().push(key);
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(10));
        faults.inject_enospc(3);
    });
    assert_eq!(faults.enospc_hits(), 3, "the armed burst must actually fire");
    let failed = failed.into_inner().unwrap();
    assert!(!failed.is_empty(), "some forced commit must have been caught");
    assert!(db.wal_telemetry().overlapped_flushes.get() > 0);

    db.flush().unwrap();
    let live = {
        let mut rows = db.scan_committed("t").unwrap();
        rows.sort_by_key(|r| r[0].as_int().unwrap());
        rows
    };
    drop(db);
    let db = Database::open(env).unwrap();
    let mut replayed = db.scan_committed("t").unwrap();
    replayed.sort_by_key(|r| r[0].as_int().unwrap());
    assert_eq!(replayed, live, "the reopened log must equal memory");
    for key in acked.into_inner().unwrap() {
        assert!(db.get_committed("t", &Value::Int(key)).unwrap().is_some(), "acked {key} lost");
    }
    for key in failed {
        assert!(db.get_committed("t", &Value::Int(key)).unwrap().is_none(), "{key} replayed");
    }
    for key in (0..2i64).flat_map(|t| (0..40i64).step_by(2).map(move |k| t * 1000 + k)) {
        assert!(db.get_committed("t", &Value::Int(key)).unwrap().is_some(), "unforced {key} lost");
    }
}

/// The WAL devices' sync cost in the sync-count gates below.
const DEVICE_SYNC_NS: u64 = 100_000;

/// Device syncs of one log: one `fsync_ns` observation per sync, both
/// commit modes.
fn syncs(db: &Database) -> u64 {
    db.wal_telemetry().fsync_ns.snapshot().count
}

/// The device syncs `threads` committers make on a bare database, each
/// committing `commits` single-row inserts on a 100 µs device.
fn bare_commit_syncs(threads: i64, commits: i64, wal: WalOptions) -> u64 {
    let env = StorageEnv::mem_with_sync_latency(DEVICE_SYNC_NS);
    let db = Database::open_with(env, DbOptions { wal, ..Default::default() }).unwrap();
    db.create_table(schema()).unwrap();
    let before = syncs(&db);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let db = db.clone();
            scope.spawn(move || {
                for k in 0..commits {
                    let mut tx = db.begin();
                    tx.insert("t", row(t * 1000 + k, "w")).unwrap();
                    tx.commit().unwrap();
                }
            });
        }
    });
    assert_eq!(db.count("t").unwrap() as i64, threads * commits);
    syncs(&db) - before
}

/// Group commit's mechanism on a bare database is commits per device sync.
/// Sixteen committers on a 100 µs device: per-commit sync syncs once per
/// commit, exactly, and `WalOptions::tuned_for(16)` collapses them so the
/// log syncs at most once per `K` commits. On a shared 2-core machine 60
/// debug runs made 29–46 syncs for the 320 commits (7.0–11.0 commits per
/// sync, fewer syncs when a second run loaded the machine), while group
/// commit with no gather window (`commit_delay_us` 0) made 75–95. `K` = 5
/// (bound 64) sits between the two: 1.4x above the tuned worst and 1.2x
/// below the untuned best, so the gate fails when the tuning is lost. At
/// two committers the mechanism is overlapping flushes instead, gated by
/// `two_committers_overlap_their_syncs_and_recover_every_acknowledged_txn`.
#[test]
fn sixteen_committers_share_device_syncs_under_group_commit() {
    const THREADS: i64 = 16;
    const COMMITS: i64 = 20;
    const K: u64 = 5;
    let n = (THREADS * COMMITS) as u64;
    let per_commit = bare_commit_syncs(THREADS, COMMITS, WalOptions::per_commit_sync());
    assert_eq!(per_commit, n, "per-commit sync syncs once per commit");
    let grouped = bare_commit_syncs(THREADS, COMMITS, WalOptions::tuned_for(THREADS as usize));
    assert!(
        grouped <= n / K,
        "group commit synced {grouped} times for {n} commits (bound {})",
        n / K
    );
}

/// Host plus repository device syncs per update cycle (write token, write
/// open, write, close-as-commit) through the full stack, one client, both
/// databases on a 100 µs device. The archive runs inline at close, so no
/// background thread adds a sync.
fn stack_syncs_per_update(wal: WalOptions) -> f64 {
    const CYCLES: u64 = 64;
    let f = dl_bench::fixture(dl_bench::FixtureOptions {
        n_files: 1,
        file_size: 1024,
        sync_archive: true,
        db: DbOptions { wal, ..Default::default() },
        db_sync_latency_ns: DEVICE_SYNC_NS,
        ..Default::default()
    });
    let content = dl_bench::make_content(1024);
    f.managed_update_no_wait(0, &content);
    let repo = f.sys.node(dl_bench::SRV).unwrap().server.repository().db().clone();
    let both = || syncs(f.sys.db()) + syncs(&repo);
    let before = both();
    for _ in 0..CYCLES {
        f.managed_update_no_wait(0, &content);
    }
    (both() - before) as f64 / CYCLES as f64
}

/// The paper's update costs one forced commit, the host's (§4.3). Under
/// per-commit sync every log write of an update is forced: the write
/// claim, the host `Commit`, the close record and the `needs_archive`
/// clear, 4 syncs per cycle. Group commit leaves all but the host `Commit`
/// unforced: at most 1.1 per cycle, the 0.1 for the repository's
/// full-batch flushes.
#[test]
fn an_update_cycle_syncs_once_under_group_commit_and_four_times_per_commit() {
    assert_eq!(stack_syncs_per_update(WalOptions::per_commit_sync()), 4.0);
    let grouped = stack_syncs_per_update(WalOptions::tuned_for(1));
    assert!(grouped <= 1.1, "group commit synced {grouped} times per update cycle");
}

/// Recovery makes one forced repository commit, whatever it re-archives:
/// four files whose archive jobs a crash lost (`needs_archive` set, the
/// store lacking the version) are archived from the disk, and their flags
/// clear in the same commit as every other row recovery writes. The
/// repository's device syncs once.
#[test]
fn a_recovery_that_re_archives_four_files_syncs_the_repository_once() {
    const FILES: usize = 4;
    let f = dl_bench::fixture(dl_bench::FixtureOptions {
        n_files: FILES,
        db: per_commit_opts(),
        db_sync_latency_ns: DEVICE_SYNC_NS,
        ..Default::default()
    });
    let server = &f.sys.node(dl_bench::SRV).unwrap().server;
    let repo = server.repository().db().clone();
    let mut txn = repo.begin();
    for path in &f.paths {
        let key = Value::Text(path.clone());
        txn.update_column("dl_files", &key, "needs_archive", Value::Bool(true)).unwrap();
    }
    txn.commit().unwrap();
    let view = f.sys.engine().host_views().unwrap().remove(dl_bench::SRV).unwrap();

    let before = syncs(&repo);
    let report = server.recover(&view, &HostView::new()).unwrap();
    assert_eq!(syncs(&repo) - before, 1, "repository syncs for one recovery: {report:?}");
    assert_eq!(report.archives_recovered, FILES as u64);
    for path in &f.paths {
        assert!(server.archive_store().contains(path, 1), "{path} archived");
        assert!(!server.repository().get_file(path).unwrap().needs_archive, "{path} cleared");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Crash mid-batch at an arbitrary byte offset: truncate the WAL device
    /// anywhere inside a run of group-committed transactions; recovery must
    /// come back with exactly the prefix of whole commit frames below the
    /// cut — never a partial transaction, never a survivor above the cut.
    #[test]
    fn wal_cut_anywhere_recovers_exact_commit_prefix(
        n_commits in 1usize..10,
        cut_permille in 0u64..=1000,
    ) {
        let env = StorageEnv::mem();
        let mut commit_ends: Vec<u64> = Vec::new();
        let ddl_end;
        {
            let db = Database::open_with(env.clone(), group_opts(0)).unwrap();
            db.create_table(schema()).unwrap();
            ddl_end = db.state_id();
            for i in 0..n_commits {
                let mut tx = db.begin();
                tx.insert("t", row(i as i64, "v")).unwrap();
                commit_ends.push(tx.commit().unwrap());
            }
        }
        let wal = env.device("wal").unwrap();
        let len = wal.len().unwrap();
        let cut = len * cut_permille / 1000;
        wal.set_len(cut).unwrap();

        let db = Database::open(env).unwrap();
        if cut < ddl_end {
            prop_assert!(!db.has_table("t"), "DDL frame torn away at cut {cut}");
        } else {
            let k = commit_ends.iter().filter(|e| **e <= cut).count();
            prop_assert_eq!(db.count("t").unwrap(), k, "cut {} of {}", cut, len);
            for i in 0..k {
                prop_assert!(
                    db.get_committed("t", &Value::Int(i as i64)).unwrap().is_some(),
                    "commit {} below the cut must survive", i
                );
            }
        }
    }
}
