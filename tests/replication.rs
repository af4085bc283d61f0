//! End-to-end WAL-shipping replication scenarios through the full stack:
//! replica read routing, replication-lag drain, crash failover equivalence
//! with a crash-recovered primary, and epoch fencing of a stale primary.
//! One test is storage only: a log budget's bound on both logs, and a fresh
//! standby's delta catch-up, gated by byte, install and record counts.

use std::sync::Arc;
use std::time::Duration;

use datalinks::core::{DataLinksSystem, DlColumnOptions, FileServerSpec, ReplicaSet, Standby};
use datalinks::dlfm::{
    embed_token, split_token_suffix, AccessToken, AgentConnection, ControlMode, HostHook,
    OpenDecision, TokenKind,
};
use datalinks::fskit::{Cred, OpenOptions, SimClock};
use datalinks::minidb::{
    Column, ColumnType, Database, DbOptions, DiskFaults, Schema, StorageEnv, Value,
};
use datalinks::repl::{Follower, ReplStats};

#[path = "../crates/dlfm/tests/support/mem_host.rs"]
mod mem_host;
use mem_host::MemHost;

const APP: Cred = Cred { uid: 100, gid: 100 };
const SRV: &str = "srv";
const CATCH_UP: Duration = Duration::from_secs(30);

fn build(replicas: usize, n_files: usize) -> DataLinksSystem {
    build_with(replicas, n_files, 0)
}

/// `repo_budget` is the repository's log-retention budget in bytes
/// (`DbOptions::checkpoint_every_bytes`); 0 keeps the self-tuning
/// default (sized from the last snapshot), and
/// `DbOptions::NO_AUTO_CHECKPOINT` disables automatic checkpointing.
fn build_with(replicas: usize, n_files: usize, repo_budget: u64) -> DataLinksSystem {
    let mut spec = FileServerSpec::new(SRV).replicas(replicas);
    spec.dlfm.db.checkpoint_every_bytes = repo_budget;
    let sys = DataLinksSystem::builder()
        .clock(Arc::new(SimClock::new(1_000_000)))
        .file_server_with(spec)
        .build()
        .unwrap();
    seed(sys, n_files)
}

/// A system whose *host database* runs with `host_replicas` hot standbys
/// (the coordinator-failover experiments; DLFM-side replication off).
fn build_host(host_replicas: usize, n_files: usize) -> DataLinksSystem {
    let sys = DataLinksSystem::builder()
        .clock(Arc::new(SimClock::new(1_000_000)))
        .host_replicas(host_replicas)
        .file_server(SRV)
        .build()
        .unwrap();
    seed(sys, n_files)
}

fn seed(sys: DataLinksSystem, n_files: usize) -> DataLinksSystem {
    let raw = sys.raw_fs(SRV).unwrap();
    raw.mkdir_p(&Cred::root(), "/d", 0o777).unwrap();
    sys.create_table(
        Schema::new(
            "t",
            vec![
                Column::new("id", ColumnType::Int),
                Column::nullable("body", ColumnType::DataLink),
            ],
            "id",
        )
        .unwrap(),
    )
    .unwrap();
    sys.define_datalink_column(
        "t",
        "body",
        DlColumnOptions::new(ControlMode::Rdd).token_ttl_ms(600_000),
    )
    .unwrap();
    for i in 0..n_files {
        raw.write_file(&APP, &format!("/d/f{i}.bin"), format!("seed-{i}").as_bytes()).unwrap();
        let mut tx = sys.begin();
        tx.insert(
            "t",
            vec![Value::Int(i as i64), Value::DataLink(format!("dlfs://{SRV}/d/f{i}.bin"))],
        )
        .unwrap();
        tx.commit().unwrap();
    }
    sys
}

fn write_once(sys: &DataLinksSystem, id: i64, content: &[u8]) {
    let (_, path) = sys.select_datalink("t", &Value::Int(id), "body", TokenKind::Write).unwrap();
    let fs = sys.fs(SRV).unwrap();
    let fd = fs.open(&APP, &path, OpenOptions::write_truncate()).unwrap();
    fs.write(fd, content).unwrap();
    fs.close(fd).unwrap();
    sys.node(SRV).unwrap().server.archive_store().wait_archived(&format!("/d/f{id}.bin"));
}

fn read_token_path(sys: &DataLinksSystem, id: i64) -> String {
    sys.select_datalink("t", &Value::Int(id), "body", TokenKind::Read).unwrap().1
}

/// Repository link state as comparable data: (path, version, needs_archive).
fn link_state(sys: &DataLinksSystem) -> Vec<(String, u64)> {
    let mut files: Vec<(String, u64)> = sys
        .node(SRV)
        .unwrap()
        .server
        .repository()
        .list_files()
        .into_iter()
        .map(|e| (e.path, e.cur_version))
        .collect();
    files.sort();
    files
}

#[test]
fn replicas_serve_reads_without_the_primary_and_lag_drains() {
    let sys = build(2, 2);
    write_once(&sys, 0, b"version two bytes");
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());
    assert_eq!(sys.replication_lag(SRV).unwrap(), 0);
    // "Caught up" is the whole tail: the update's unforced records (the
    // close record, the archiver's flag clear) were flushed and
    // shipped too, not left in the primary's batch.
    let repo = sys.node(SRV).unwrap().server.repository().db();
    assert_eq!(repo.state_id(), repo.durable_lsn());

    // Routed reads validate at a replica and serve from the node's archive.
    let primary_validations_before = sys.node(SRV).unwrap().server.stats.token_validations.get();
    for _ in 0..6 {
        let tp = read_token_path(&sys, 0);
        assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), b"version two bytes");
    }
    let primary_validations_after = sys.node(SRV).unwrap().server.stats.token_validations.get();
    assert_eq!(
        primary_validations_before, primary_validations_after,
        "replica-served reads must not touch the primary's validation path"
    );

    // Round-robin: both standbys validated some share.
    let set = sys.node(SRV).unwrap().replication.clone().unwrap();
    for standby in set.standbys() {
        assert!(
            standby.validations.load(std::sync::atomic::Ordering::Relaxed) > 0,
            "standby {} never saw a validation",
            standby.name
        );
    }

    // A linked-but-never-updated file is served via the fallback source.
    let tp = read_token_path(&sys, 1);
    assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), b"seed-1");

    // A tokenless path is refused outright.
    assert!(sys.serve_read(SRV, "/d/f0.bin", APP.uid).is_err());
}

/// One routed validation per standby of `SRV` (round-robin covers each
/// once), with a token minted by hand: no linked file needed. Each standby
/// counts exactly one; the primary's validation path is not touched.
fn validate_once_at_every_standby(sys: &DataLinksSystem) {
    let node = sys.node(SRV).unwrap();
    let set = node.replication.clone().unwrap();
    let validations = || -> Vec<u64> {
        let count = |s: &Arc<Standby>| s.validations.load(std::sync::atomic::Ordering::Relaxed);
        set.standbys().iter().map(count).collect()
    };
    let (before, primary_before) = (validations(), node.server.stats.token_validations.get());
    let expiry = node.server.clock().now_ms() + 60_000;
    let token =
        AccessToken::generate(node.server.token_key(), SRV, "/d/f0.bin", TokenKind::Read, expiry);
    for _ in set.standbys() {
        let tp = embed_token("/d/f0.bin", &token);
        assert_eq!(sys.validate_read_token(SRV, &tp, APP.uid).unwrap(), TokenKind::Read);
    }
    let after = validations();
    assert!(before.iter().zip(&after).all(|(b, a)| a - b == 1), "{before:?} -> {after:?}");
    assert_eq!(node.server.stats.token_validations.get(), primary_before);
}

#[test]
fn fresh_standbys_validate_right_after_assembly_and_after_a_failover_reprovision() {
    // A standby serves reads off its follower's schema, which only
    // shipping creates. Provisioning ships one round before it returns, so
    // no routed read meets a standby without it.
    let sys = DataLinksSystem::builder()
        .clock(Arc::new(SimClock::new(1_000_000)))
        .file_server_with(FileServerSpec::new(SRV).replicas(3))
        .build()
        .unwrap();
    validate_once_at_every_standby(&sys);
    let mut sys = seed(sys, 1);
    assert_eq!(sys.serve_read(SRV, &read_token_path(&sys, 0), APP.uid).unwrap(), b"seed-0");

    // Two standbys are re-provisioned from the promoted primary's image.
    sys.fail_over(SRV).unwrap();
    assert_eq!(sys.node(SRV).unwrap().replication.as_ref().unwrap().standbys().len(), 2);
    validate_once_at_every_standby(&sys);
    let fallbacks = sys.engine().stats.replica_fallbacks.get();
    for _ in 0..2 {
        let tp = read_token_path(&sys, 0);
        assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), b"seed-0");
    }
    assert_eq!(sys.engine().stats.replica_fallbacks.get(), fallbacks, "both standbys served");
}

#[test]
fn a_session_validated_at_the_standby_survives_its_promotion() {
    // A replica's token entries are in its own open table, which the
    // promotion hands to the promoted server: a failover does not end the
    // sessions the promoted replica served.
    let mut sys = build(1, 1);
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());
    let primary_before = sys.node(SRV).unwrap().server.stats.token_validations.get();
    let tp = read_token_path(&sys, 0);
    assert_eq!(sys.validate_read_token(SRV, &tp, APP.uid).unwrap(), TokenKind::Read);
    let node = sys.node(SRV).unwrap();
    let standby = &node.replication.as_ref().unwrap().standbys()[0];
    assert_eq!(standby.validations.load(std::sync::atomic::Ordering::Relaxed), 1);
    assert_eq!(node.server.stats.token_validations.get(), primary_before, "it ran at the standby");
    let now = node.server.clock().now_ms();
    assert!(!node.server.repository().check_token_entry(
        APP.uid,
        "/d/f0.bin",
        TokenKind::Read,
        now
    ));

    sys.fail_over(SRV).unwrap();
    let node = sys.node(SRV).unwrap();
    let now = node.server.clock().now_ms();
    assert!(node.server.repository().check_token_entry(APP.uid, "/d/f0.bin", TokenKind::Read, now));
    // The session admits a plain-name open on the promoted node.
    let fs = sys.fs(SRV).unwrap();
    let fd = fs.open(&APP, "/d/f0.bin", OpenOptions::read_only()).unwrap();
    fs.close(fd).unwrap();
}

#[test]
fn lagging_replica_reads_fall_back_to_the_primary() {
    // A standby that has not even heard of the link cannot serve the file;
    // the routed read must still succeed with the committed bytes
    // (validation runs at the replica, the primary supplies the content).
    // Shipping is paused first so that the lag is a fact, not a race: a
    // standby that *has* the link but not yet the update serves the
    // previous committed version instead — plain `serve_read` is not
    // read-your-writes (`freshness_token_reads_never_observe_pre_write_state`).
    let sys = build(1, 0);
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());
    let set = sys.node(SRV).unwrap().replication.clone().unwrap();
    set.set_paused(true);

    sys.raw_fs(SRV).unwrap().write_file(&APP, "/d/f0.bin", b"seed-0").unwrap();
    let mut tx = sys.begin();
    tx.insert("t", vec![Value::Int(0), Value::DataLink(format!("dlfs://{SRV}/d/f0.bin"))]).unwrap();
    tx.commit().unwrap();
    write_once(&sys, 0, b"fresh bytes");

    let fallbacks = sys.engine().stats.replica_fallbacks.get();
    for _ in 0..10 {
        let tp = read_token_path(&sys, 0);
        assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), b"fresh bytes");
    }
    assert_eq!(sys.engine().stats.replica_fallbacks.get() - fallbacks, 10);

    // Once the lag drains the replica serves the same bytes on its own.
    set.set_paused(false);
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());
    let tp = read_token_path(&sys, 0);
    assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), b"fresh bytes");
    assert_eq!(sys.engine().stats.replica_fallbacks.get() - fallbacks, 10);
}

#[test]
fn unreplicated_node_serves_routed_reads_from_the_primary() {
    let sys = build(0, 1);
    write_once(&sys, 0, b"committed");
    let tp = read_token_path(&sys, 0);
    assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), b"committed");
    // And failover is impossible without standbys.
    let mut sys = sys;
    assert!(sys.fail_over(SRV).is_err());
    // The refused failover leaves the node intact.
    let tp = read_token_path(&sys, 0);
    assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), b"committed");
}

#[test]
fn failover_matches_a_crash_recovered_primary() {
    let mut sys = build(1, 2);
    write_once(&sys, 0, b"committed state");
    write_once(&sys, 1, b"other file");
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());

    // Mid-workload: an in-flight write is open (writer granted, bytes
    // dirtied) when the primary dies. Keep the descriptor open across the
    // crash.
    let primary = sys.node(SRV).unwrap().server.repository().db().clone();
    let mark = primary.state_id();
    let (_, wpath) = sys.select_datalink("t", &Value::Int(0), "body", TokenKind::Write).unwrap();
    let fs = sys.fs(SRV).unwrap();
    let fd = fs.open(&APP, &wpath, OpenOptions::write_truncate()).unwrap();
    fs.write(fd, b"doomed in-flight bytes").unwrap();
    // The write open logged nothing: the standby, caught up, holds all the
    // primary's log did.
    assert_eq!(primary.state_id(), mark, "the write open logged nothing");
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());

    // What a crash-recovered PRIMARY would work from: a fork of the
    // primary repository taken at the crash instant.
    let primary_fork = sys.node(SRV).unwrap().server.repository().db().backup().unwrap();
    let expected_archive = sys.node(SRV).unwrap().server.archive_store().versions("/d/f0.bin");

    let report = sys.fail_over(SRV).unwrap();
    assert_eq!(report.updates_rolled_back, 1, "the in-flight update rolls back on promotion");

    // 1. Repository equivalence: the promoted repository's durable state
    //    matches the crashed primary's (same dl_files rows after the same
    //    recovery steps: the write rolled back by its grant's attributes,
    //    transient state cleared).
    let crashed_primary = datalinks::dlfm::Repository::open(primary_fork).unwrap();
    let mut primary_files: Vec<(String, u64)> =
        crashed_primary.list_files().into_iter().map(|e| (e.path, e.cur_version)).collect();
    primary_files.sort();
    assert_eq!(link_state(&sys), primary_files);
    assert_eq!(
        crashed_primary.db().state_id(),
        mark,
        "the crashed primary's log holds no more of the in-flight update than the standby's"
    );
    let promoted = sys.node(SRV).unwrap();
    let attr = sys.raw_fs(SRV).unwrap().stat(&Cred::root(), "/d/f0.bin").unwrap();
    assert_eq!(attr.mode, 0o400, "promotion took the write grant back");
    assert!(promoted.server.repository().sync_entries("/d/f0.bin").is_empty());

    // 2. Archive equivalence: the promoted store holds the same versions.
    assert_eq!(promoted.server.archive_store().versions("/d/f0.bin"), expected_archive);

    // 3. Served bytes: the dirty in-flight image was rolled back to the
    //    last committed version, exactly as primary crash recovery does.
    let disk = sys.raw_fs(SRV).unwrap().read_file(&Cred::root(), "/d/f0.bin").unwrap();
    assert_eq!(disk, b"committed state");
    let tp = read_token_path(&sys, 0);
    assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), b"committed state");

    // 4. The promoted primary is fully writable: the next update commits.
    write_once(&sys, 0, b"post-failover write");
    let tp = read_token_path(&sys, 0);
    assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), b"post-failover write");
}

#[test]
fn a_link_whose_branch_died_with_the_primary_cannot_commit_on_the_host() {
    // The link has voted, the primary dies, and the promotion finds nothing
    // of it: the vote wrote nothing on the node and took nothing over, so
    // the file is still its owner's. The host transaction is still open —
    // the failover aborts it on the host, or the host would commit a user
    // row and a metadata row with no link behind them.
    let mut sys = build(1, 0);
    sys.raw_fs(SRV).unwrap().write_file(&APP, "/d/late.bin", b"orphan").unwrap();
    let url = format!("dlfs://{SRV}/d/late.bin");
    let mut tx = sys.begin();
    tx.insert("t", vec![Value::Int(9), Value::DataLink(url.clone())]).unwrap();
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());

    let report = sys.fail_over(SRV).unwrap();
    assert_eq!((report.links_undone, report.in_doubt_resolved.len()), (0, 0));
    assert!(tx.commit().is_err(), "no live branch on the promoted node: the vote is no");

    let repo = sys.node(SRV).unwrap().server.repository();
    let meta = sys.engine().file_meta(&datalinks::core::DatalinkUrl::parse(&url).unwrap());
    assert!(sys.db().get_committed("t", &Value::Int(9)).unwrap().is_none(), "user row");
    assert!(meta.is_none(), "__dl_meta row");
    assert!(repo.get_file("/d/late.bin").is_none(), "dl_files row");
    assert!(repo.list_intents().is_empty());
    let attr = sys.raw_fs(SRV).unwrap().stat(&Cred::root(), "/d/late.bin").unwrap();
    assert_eq!(attr.uid, APP.uid, "handed back to its owner");
}

#[test]
fn an_unlink_whose_branch_died_with_the_primary_cannot_commit_on_the_host() {
    // The unlink's intent reaches the standby, the primary dies, and the
    // promotion settles the intent by presumed abort: the file stays
    // linked. The host transaction is still open — the failover aborts it
    // on the host, or the host would delete the user row and the metadata
    // row of a file that is still linked.
    let mut sys = build(1, 1);
    let mut tx = sys.begin();
    let txid = tx.id();
    tx.delete("t", &Value::Int(0)).unwrap();
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());

    let report = sys.fail_over(SRV).unwrap();
    assert_eq!(report.in_doubt_resolved, vec![(txid, false)]);
    assert_eq!(report.unlinks_completed, 0);
    assert!(tx.commit().is_err(), "the host aborted the undecided transaction");

    assert_rows_agree(&sys, 0, Some(1));
    assert!(sys.node(SRV).unwrap().server.repository().list_intents().is_empty());
    let tp = read_token_path(&sys, 0);
    assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), b"seed-0");
}

/// User row ⇔ `__dl_meta` ⇔ `dl_files` ⇔ attributes for row `id`: all at
/// version `want` with the file taken over, or all gone with the file back
/// with its owner.
fn assert_rows_agree(sys: &DataLinksSystem, id: i64, want: Option<u64>) {
    let path = format!("/d/f{id}.bin");
    let url = datalinks::core::DatalinkUrl::parse(&format!("dlfs://{SRV}{path}")).unwrap();
    let node = sys.node(SRV).unwrap();
    let user_row = sys.db().get_committed("t", &Value::Int(id)).unwrap();
    assert_eq!(user_row.is_some(), want.is_some(), "user row");
    assert_eq!(sys.engine().file_meta(&url).map(|(_, _, version)| version), want, "__dl_meta");
    let entry = node.server.repository().get_file(&path);
    assert_eq!(entry.map(|e| e.cur_version), want, "dl_files");
    let attr = sys.raw_fs(SRV).unwrap().stat(&Cred::root(), &path).unwrap();
    let dlfm = node.server.config().dlfm_cred;
    let expect = if want.is_some() { (dlfm.uid, 0o400) } else { (APP.uid, 0o644) };
    assert_eq!((attr.uid, attr.mode), expect, "attributes");
}

/// Pauses shipping to the one standby once it holds everything so far: what
/// the primary logs from here on dies with it.
fn cut_the_standby_off(sys: &DataLinksSystem) {
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());
    sys.set_replication_paused(SRV, true).unwrap();
}

#[test]
fn failover_to_a_standby_without_the_link_relinks_it_from_the_host_row() {
    let mut sys = build(1, 0);
    cut_the_standby_off(&sys);
    sys.raw_fs(SRV).unwrap().write_file(&APP, "/d/f0.bin", b"seed-0").unwrap();
    let mut tx = sys.begin();
    tx.insert("t", vec![Value::Int(0), Value::DataLink(format!("dlfs://{SRV}/d/f0.bin"))]).unwrap();
    tx.commit().unwrap();

    // Nothing of the link reached the standby: its vote wrote nothing
    // there, and its branch's end was never shipped.
    let report = sys.fail_over(SRV).unwrap();
    assert!(report.in_doubt_resolved.is_empty());
    assert_eq!(report.files_relinked, 1);
    assert_rows_agree(&sys, 0, Some(1));
    assert_eq!(sys.serve_read(SRV, &read_token_path(&sys, 0), APP.uid).unwrap(), b"seed-0");

    // The node carries on, and the re-link took the original owner from
    // the host row, which the link's vote filled: an unlink hands the file
    // back to its owner with its original mode.
    write_once(&sys, 0, b"after the failover");
    assert_rows_agree(&sys, 0, Some(2));
    let mut tx = sys.begin();
    tx.delete("t", &Value::Int(0)).unwrap();
    tx.commit().unwrap();
    assert!(sys.node(SRV).unwrap().server.repository().get_file("/d/f0.bin").is_none());
    let attr = sys.raw_fs(SRV).unwrap().stat(&Cred::root(), "/d/f0.bin").unwrap();
    assert_eq!((attr.uid, attr.gid, attr.mode), (APP.uid, APP.gid, 0o644), "back to its owner");
}

#[test]
fn failover_to_a_standby_without_the_update_rolls_it_forward_from_the_host_row() {
    let mut sys = build(1, 1);
    cut_the_standby_off(&sys);
    // Claim, close record and archive flag clear are all on the primary only;
    // the archive copies are in the node's one store, which the standby reads.
    write_once(&sys, 0, b"version two");

    let report = sys.fail_over(SRV).unwrap();
    assert_eq!((report.updates_rolled_forward, report.updates_rolled_back), (1, 0));
    assert_rows_agree(&sys, 0, Some(2));
    let server = &sys.node(SRV).unwrap().server;
    assert_eq!(server.archive_store().get("/d/f0.bin", 2).unwrap().data, b"version two");
    assert_eq!(sys.serve_read(SRV, &read_token_path(&sys, 0), APP.uid).unwrap(), b"version two");
    write_once(&sys, 0, b"version three");
    assert_rows_agree(&sys, 0, Some(3));
}

#[test]
fn failover_to_a_standby_without_the_unlink_finishes_it_from_the_host_row() {
    let mut sys = build(1, 1);
    cut_the_standby_off(&sys);
    let mut tx = sys.begin();
    tx.delete("t", &Value::Int(0)).unwrap();
    tx.commit().unwrap();

    let report = sys.fail_over(SRV).unwrap();
    assert!(report.in_doubt_resolved.is_empty());
    assert_eq!(report.files_unlinked, 1);
    assert_rows_agree(&sys, 0, None);
    // And the file links again.
    let mut tx = sys.begin();
    tx.insert("t", vec![Value::Int(0), Value::DataLink(format!("dlfs://{SRV}/d/f0.bin"))]).unwrap();
    tx.commit().unwrap();
    assert_rows_agree(&sys, 0, Some(1));
}

#[test]
fn failover_with_a_write_open_the_standby_never_saw_rolls_it_back_by_its_grant_attributes() {
    // The claim never reached the standby, and the host row still holds the
    // committed version: only the disk knows a write is in flight. The file
    // carries the write grant's attributes, and the promotion rolls the
    // write back by them.
    let mut sys = build(1, 1);
    write_once(&sys, 0, b"version two");
    cut_the_standby_off(&sys);
    let (_, wpath) = sys.select_datalink("t", &Value::Int(0), "body", TokenKind::Write).unwrap();
    let fs = sys.fs(SRV).unwrap();
    let fd = fs.open(&APP, &wpath, OpenOptions::write_truncate()).unwrap();
    fs.write(fd, b"doomed in-flight bytes").unwrap();
    drop(fs);

    let report = sys.fail_over(SRV).unwrap();
    assert_eq!((report.updates_rolled_forward, report.updates_rolled_back), (0, 1));
    assert_rows_agree(&sys, 0, Some(2));
    let disk = sys.raw_fs(SRV).unwrap().read_file(&Cred::root(), "/d/f0.bin").unwrap();
    assert_eq!(disk, b"version two", "the last committed bytes");
    write_once(&sys, 0, b"version three");
    assert_rows_agree(&sys, 0, Some(3));
}

#[test]
fn promoted_standby_starts_without_token_entries_or_sync_rows() {
    // Open-file state never ships: a standby promoted while a write open
    // is granted on the primary inherits no record of the open (and rolls
    // the update back by the file's attributes), no token entry and no
    // Sync row.
    let mut sys = build(1, 1);
    write_once(&sys, 0, b"committed state");
    let primary = sys.node(SRV).unwrap().server.repository().db().clone();
    let mark = primary.state_id();
    let (_, wpath) = sys.select_datalink("t", &Value::Int(0), "body", TokenKind::Write).unwrap();
    let fs = sys.fs(SRV).unwrap();
    let fd = fs.open(&APP, &wpath, OpenOptions::write_truncate()).unwrap();
    fs.write(fd, b"doomed in-flight bytes").unwrap();
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());
    {
        assert_eq!(primary.state_id(), mark, "the write open logged nothing to ship");
        let set = sys.node(SRV).unwrap().replication.clone().unwrap();
        let standby_env = set.standbys()[0].env().fork().unwrap();
        let shipped = datalinks::dlfm::Repository::open(standby_env).unwrap();
        assert_eq!(shipped.get_file("/d/f0.bin").unwrap().cur_version, 2);
        assert!(shipped.sync_entries("/d/f0.bin").is_empty(), "its Sync row did not");
        assert_eq!(sys.node(SRV).unwrap().server.repository().sync_entries("/d/f0.bin").len(), 1);
    }

    let report = sys.fail_over(SRV).unwrap();
    assert_eq!(report.updates_rolled_back, 1);
    let node = sys.node(SRV).unwrap();
    let repo = node.server.repository();
    let now = node.server.clock().now_ms();
    assert!(repo.sync_entries("/d/f0.bin").is_empty(), "no ghost Sync row");
    assert!(!repo.check_token_entry(APP.uid, "/d/f0.bin", TokenKind::Write, now));
    let raw = sys.raw_fs(SRV).unwrap();
    assert_eq!(raw.read_file(&Cred::root(), "/d/f0.bin").unwrap(), b"committed state");

    // The old token string is re-validated by the promoted node, the bare
    // name admits nobody, and unlink is not blocked.
    let fs = sys.fs(SRV).unwrap();
    assert!(fs.open(&APP, "/d/f0.bin", OpenOptions::write_truncate()).is_err());
    let fd = fs.open(&APP, &wpath, OpenOptions::write_truncate()).unwrap();
    fs.close(fd).unwrap();
    let mut tx = sys.begin();
    tx.delete("t", &Value::Int(0)).unwrap();
    tx.commit().unwrap();
    assert!(repo.get_file("/d/f0.bin").is_none());
}

#[test]
fn stale_primary_frames_are_rejected_by_epoch_fencing() {
    let mut sys = build(1, 1);
    write_once(&sys, 0, b"pre-failover");
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());

    // Keep handles to the doomed primary and its replica set: a deposed
    // primary does not know it was deposed.
    let old_server = Arc::clone(&sys.node(SRV).unwrap().server);
    let old_set: Arc<ReplicaSet> = sys.node(SRV).unwrap().replication.clone().unwrap();

    sys.fail_over(SRV).unwrap();

    // The stale primary commits more work to its own (now irrelevant) log
    // and its shipper tries to ship it: the epoch fence must reject.
    // (A forced `dl_intents` row — `<txid>|<path>`, ON UNLINK action:
    // token entries, Sync rows and writers never reach the log.)
    let mut txn = old_server.repository().db().begin();
    let intent = vec![Value::Text("9|/stale".into()), Value::Text("restore".into())];
    txn.insert("dl_intents", intent).unwrap();
    txn.commit().unwrap();
    let err = old_set.ship_once().unwrap_err();
    assert!(matches!(err, datalinks::repl::ReplError::StaleEpoch { .. }), "got {err}");
    assert!(old_set.stats().stale_rejections() >= 1);

    // The archive is fenced too. The node has one store, now the promoted
    // server's; the deposed primary runs an update of its own to the end —
    // write open, close, archive job — and the job, reading the file from
    // the shared disk, must land nothing there. (Its host commit is kept
    // away from the real host rows: not this test's subject.)
    old_server.set_host_hook(MemHost::new());
    let (_, wpath) = sys.select_datalink("t", &Value::Int(0), "body", TokenKind::Write).unwrap();
    let (path, token) = split_token_suffix(&wpath);
    old_server.validate_token(path, token.unwrap(), APP.uid).unwrap();
    let open = old_server.open_check(path, APP.uid, TokenKind::Write, 77, None);
    assert!(matches!(open, OpenDecision::Approved { .. }), "{open:?}");
    // The fenced job sets no in-flight marker, so `wait_archived` cannot
    // wait for it. The deposed server's sync epoch can: the close bumps it
    // once and the job's completion once more, after its (fenced) store.
    let seen = old_server.epoch();
    old_server.close_notify(path, 77, true, 12, 0).unwrap();
    while old_server.epoch() < seen + 2 {
        old_server.wait_epoch_change(old_server.epoch());
    }
    assert_eq!(old_server.repository().get_file(path).unwrap().cur_version, 3);
    assert!(
        sys.node(SRV).unwrap().server.archive_store().get(path, 3).is_none(),
        "deposed primary's archive jobs must not reach the promoted store"
    );

    // The promoted node is unaffected by the stale traffic.
    let tp = read_token_path(&sys, 0);
    assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), b"pre-failover");
}

/// Every standby of the node reads its primary's archive store.
fn assert_standbys_share_the_primary_store(sys: &DataLinksSystem) {
    let node = sys.node(SRV).unwrap();
    for standby in node.replication.as_ref().unwrap().standbys() {
        assert!(
            Arc::ptr_eq(standby.archive_store(), node.server.archive_store()),
            "{}",
            standby.name
        );
    }
}

#[test]
fn whole_system_crash_reprovisions_replicas() {
    let sys = build(2, 1);
    write_once(&sys, 0, b"before crash");
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());
    assert_standbys_share_the_primary_store(&sys);

    let image = sys.crash();
    let (sys, _) = DataLinksSystem::recover(image).unwrap();

    // Fresh standbys re-ship the recovered primary's full log.
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());
    assert_eq!(sys.replication_lag(SRV).unwrap(), 0);
    let tp = read_token_path(&sys, 0);
    assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), b"before crash");

    // The re-provisioned standbys read the recovered primary's store:
    // there is no copy of it to leak into or to retain.
    assert_standbys_share_the_primary_store(&sys);
    write_once(&sys, 0, b"after recover");
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());
    // And the rebuilt set still fails over cleanly. The surviving slot is
    // re-provisioned fresh, so reads route to it only after it catches up.
    let mut sys = sys;
    sys.fail_over(SRV).unwrap();
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());
    assert_standbys_share_the_primary_store(&sys);
    let tp = read_token_path(&sys, 0);
    assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), b"after recover");
}

#[test]
fn freshness_token_reads_never_observe_pre_write_state() {
    let sys = build(1, 1);
    write_once(&sys, 0, b"version two");
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());
    let set = sys.node(SRV).unwrap().replication.clone().unwrap();

    // Freeze shipping: the standby is now pinned at the v2 repository
    // state while the primary moves on to v3.
    set.set_paused(true);
    write_once(&sys, 0, b"version three");

    // The seam this closes, demonstrated: without a freshness token the
    // routed read serves the replica's (stale but committed) version.
    let stale = sys.serve_read(SRV, &read_token_path(&sys, 0), APP.uid).unwrap();
    assert_eq!(stale, b"version two", "paused standby serves pre-write state without a token");

    // With the freshness token the same read must observe the write: the
    // standby cannot catch up (shipping is paused), so the router waits
    // its bounded window and falls back to the primary.
    let token = sys.freshness_token(SRV).unwrap();
    let fresh = sys.serve_read_fresh(SRV, &read_token_path(&sys, 0), APP.uid, token).unwrap();
    assert_eq!(fresh, b"version three");
    let stats = &sys.engine().stats;
    assert!(stats.freshness_fallbacks.get() >= 1, "the stalled standby must have been bypassed");

    // Resume shipping: once the lag drains, the same freshness read is
    // served by the (now fresh) replica again.
    set.set_paused(false);
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());
    let fresh = sys.serve_read_fresh(SRV, &read_token_path(&sys, 0), APP.uid, token).unwrap();
    assert_eq!(fresh, b"version three");
}

#[test]
fn freshness_reads_under_live_shipping_always_see_the_write() {
    let sys = build(2, 1);
    for round in 0..8 {
        let content = format!("round {round}");
        write_once(&sys, 0, content.as_bytes());
        // Immediately after the write — no catch-up wait. Whatever replica
        // the router picks, the token forbids pre-write answers.
        let token = sys.freshness_token(SRV).unwrap();
        let tp = read_token_path(&sys, 0);
        assert_eq!(
            sys.serve_read_fresh(SRV, &tp, APP.uid, token).unwrap(),
            content.as_bytes(),
            "freshness-token read observed pre-write state in round {round}"
        );
    }
}

/// Runs one update of file `id` up to the acknowledged close — no wait for
/// the archive copy, no flush, nothing forced after it.
fn close_an_update(sys: &DataLinksSystem, id: i64, content: &[u8]) {
    let (_, path) = sys.select_datalink("t", &Value::Int(id), "body", TokenKind::Write).unwrap();
    let fs = sys.fs(SRV).unwrap();
    let fd = fs.open(&APP, &path, OpenOptions::write_truncate()).unwrap();
    fs.write(fd, content).unwrap();
    fs.close(fd).unwrap();
}

/// Stages the window the close's unforced repository record opens: the
/// shipper is paused (so its idle poll cannot flush the primary), an update
/// commits on the host, and one synchronous ship round hands the standby
/// everything *durable* — the claim, flushed right after the open, not the
/// close record.
fn standby_holding_the_claim_not_the_close(
    sys: &DataLinksSystem,
    set: &ReplicaSet,
    content: &[u8],
) {
    set.set_paused(true);
    let (_, path) = sys.select_datalink("t", &Value::Int(0), "body", TokenKind::Write).unwrap();
    let fs = sys.fs(SRV).unwrap();
    let fd = fs.open(&APP, &path, OpenOptions::write_truncate()).unwrap();
    let repo = sys.node(SRV).unwrap().server.repository().db();
    repo.flush().unwrap();
    fs.write(fd, content).unwrap();
    fs.close(fd).unwrap();
    assert!(repo.durable_lsn() < repo.state_id(), "the close record is batched, not synced");
    while set.lag() > 0 {
        set.ship_once().unwrap();
    }
    assert_eq!(set.standbys()[0].applied_lsn(), repo.durable_lsn());
}

#[test]
fn standby_behind_an_unforced_close_serves_the_old_version_then_converges_by_itself() {
    let sys = build(1, 1);
    write_once(&sys, 0, b"version two");
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());
    let set = sys.node(SRV).unwrap().replication.clone().unwrap();
    standby_holding_the_claim_not_the_close(&sys, &set, b"version three");

    // Claimed is not committed: the replica keeps answering with the
    // last version it saw closed (plain reads are not read-your-writes).
    let standby = &set.standbys()[0];
    assert_eq!(standby.repository().get_file("/d/f0.bin").unwrap().cur_version, 2);
    assert_eq!(sys.serve_read(SRV, &read_token_path(&sys, 0), APP.uid).unwrap(), b"version two");

    // The primary goes idle: no forced append will ever carry the close
    // record out. The resumed shipper's poll (20 ms) times out, flushes the
    // primary's tail itself and ships it — nobody else helps.
    set.set_paused(false);
    let waited = std::time::Instant::now();
    while standby.repository().get_file("/d/f0.bin").unwrap().cur_version != 3 {
        assert!(waited.elapsed() < CATCH_UP, "an idle primary's unforced tail never shipped");
        std::thread::sleep(Duration::from_millis(2));
    }
    sys.node(SRV).unwrap().server.archive_store().wait_archived("/d/f0.bin");
    assert_eq!(sys.serve_read(SRV, &read_token_path(&sys, 0), APP.uid).unwrap(), b"version three");
}

#[test]
fn promotion_behind_an_unforced_close_commits_the_update_from_the_host_outcome() {
    let mut sys = build(1, 1);
    write_once(&sys, 0, b"version two");
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());
    let set = sys.node(SRV).unwrap().replication.clone().unwrap();
    standby_holding_the_claim_not_the_close(&sys, &set, b"version three");
    sys.node(SRV).unwrap().server.archive_store().wait_archived("/d/f0.bin");
    drop(set);

    // The primary dies with the close record in its memory only. The
    // promoted standby finds the claim, asks the host which version the
    // file's metadata row records — the claimed one — and rolls forward.
    let report = sys.fail_over(SRV).unwrap();
    assert!(report.in_doubt_resolved.is_empty(), "an update leaves no branch in doubt");
    assert_eq!(report.updates_rolled_forward, 1, "committed from the host row, not rolled back");
    assert_eq!(report.updates_rolled_back, 0, "the acknowledged update is not rolled back");

    assert_eq!(link_state(&sys), vec![("/d/f0.bin".to_string(), 3)]);
    let url = datalinks::core::DatalinkUrl::parse(&format!("dlfs://{SRV}/d/f0.bin")).unwrap();
    assert_eq!(sys.engine().file_meta(&url).unwrap().2, 3, "host metadata agrees");
    let disk = sys.raw_fs(SRV).unwrap().read_file(&Cred::root(), "/d/f0.bin").unwrap();
    assert_eq!(disk, b"version three");
    assert_eq!(sys.serve_read(SRV, &read_token_path(&sys, 0), APP.uid).unwrap(), b"version three");
    write_once(&sys, 0, b"version four");
    assert_eq!(link_state(&sys), vec![("/d/f0.bin".to_string(), 4)]);
}

#[test]
fn freshness_token_taken_right_after_close_covers_the_unforced_close_record() {
    let sys = build(2, 1);
    for round in 0..8 {
        let content = format!("round {round}");
        close_an_update(&sys, 0, content.as_bytes());
        // The token is the log tail, so it is past the close record even though
        // the durable watermark is not; the fresh read flushes what it
        // needs and may not answer with the version before.
        let token = sys.freshness_token(SRV).unwrap();
        let repo = sys.node(SRV).unwrap().server.repository().db();
        assert!(token >= repo.durable_lsn());
        let tp = read_token_path(&sys, 0);
        assert_eq!(
            sys.serve_read_fresh(SRV, &tp, APP.uid, token).unwrap(),
            content.as_bytes(),
            "freshness-token read observed pre-write state in round {round}"
        );
        sys.node(SRV).unwrap().server.archive_store().wait_archived("/d/f0.bin");
    }
}

#[test]
fn failover_reprovisions_siblings_by_delta_with_bounded_logs() {
    const BUDGET: u64 = 4 * 1024;
    // Enough updates to cross the budget: an update logs two repository
    // records, about 330 B (`repl.bytes_shipped_per_update` on the
    // benchmark's `uip_durable`), so 20 rounds log about 1.6 times it.
    const ROUNDS: usize = 20;
    let mut sys = build_with(2, 1, BUDGET);
    for round in 0..ROUNDS {
        write_once(&sys, 0, format!("history {round}").as_bytes());
    }
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());
    // The budget kept the repository log bounded and truncated at least
    // once — and every standby log in lockstep with it.
    let repo = sys.node(SRV).unwrap().server.repository().db().clone();
    assert!(repo.wal_base_lsn() > 0, "sustained updates must have crossed the budget");
    assert!(repo.wal_retained_bytes() <= BUDGET + 8 * 1024);
    for standby in sys.node(SRV).unwrap().replication.as_ref().unwrap().standbys() {
        assert!(standby.wal_retained_bytes() <= BUDGET + 8 * 1024, "standby log unbounded");
    }

    sys.fail_over(SRV).unwrap();

    // Promotion checkpointed the new primary, so the replacement standby
    // was provisioned by delta (checkpoint install + WAL suffix), not by
    // replaying the whole history.
    let set = sys.node(SRV).unwrap().replication.clone().unwrap();
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());
    assert!(
        set.stats().checkpoints_shipped() >= 1,
        "sibling re-provisioning must use delta catch-up"
    );
    let tp = read_token_path(&sys, 0);
    let last = format!("history {}", ROUNDS - 1);
    assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), last.as_bytes());

    // The promoted node keeps the budget: more load, still bounded.
    for round in 0..6 {
        write_once(&sys, 0, format!("post-failover {round}").as_bytes());
    }
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());
    let repo = sys.node(SRV).unwrap().server.repository().db().clone();
    assert!(repo.wal_retained_bytes() <= BUDGET + 8 * 1024);
    let tp = read_token_path(&sys, 0);
    assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), b"post-failover 5");
}

/// A repository-shaped primary for the log-budget gate: 64 hot rows on a
/// free device, with `budget` as its `checkpoint_every_bytes`.
fn budget_primary(budget: u64) -> Database {
    let db = Database::open_with(
        StorageEnv::mem(),
        DbOptions { checkpoint_every_bytes: budget, ..Default::default() },
    )
    .unwrap();
    db.create_table(
        Schema::new(
            "t",
            vec![Column::new("id", ColumnType::Int), Column::new("v", ColumnType::Text)],
            "id",
        )
        .unwrap(),
    )
    .unwrap();
    let mut tx = db.begin();
    for i in 0..64 {
        tx.insert("t", vec![Value::Int(i), Value::Text("seed".into())]).unwrap();
    }
    tx.commit().unwrap();
    db
}

/// 400 updates round-robin over the 64 rows, ~130 bytes each.
fn budget_updates(db: &Database) {
    for u in 0..400i64 {
        let id = u % 64;
        let mut tx = db.begin();
        tx.update("t", &Value::Int(id), vec![Value::Int(id), Value::Text(format!("{u:0>120}"))])
            .unwrap();
        tx.commit().unwrap();
    }
}

/// One fresh follower of `db`, and the set whose shipper feeds it.
fn budget_standby(db: &Database) -> (Arc<Follower>, ReplicaSet<Follower>, Arc<ReplStats>) {
    let repl = ReplicaSet::<Follower>::build("srv", db.replication_feed(), 1, 0).unwrap();
    let (standby, stats) = (Arc::clone(&repl.standbys()[0]), Arc::clone(repl.stats()));
    (standby, repl, stats)
}

/// Checkpoint shipping, storage only (no DLFM). Under sustained load a
/// 32 KiB log budget bounds both logs in lockstep: the primary cuts at its
/// checkpoint, the standby when the shipped `Checkpoint` record applies.
/// A fresh standby of a truncated primary catches up by delta: one image
/// install and the suffix, under a quarter of the records a full-log
/// replay ships. The bounds allow one commit past the budget plus the
/// `Checkpoint` record.
#[test]
fn a_log_budget_bounds_both_logs_and_a_fresh_standby_catches_up_by_delta() {
    const BUDGET: u64 = 32 * 1024;
    let mut primary_wal = [0u64; 2];
    for (arm, budget) in [DbOptions::NO_AUTO_CHECKPOINT, BUDGET].into_iter().enumerate() {
        let db = budget_primary(budget);
        let (standby, repl, _) = budget_standby(&db);
        budget_updates(&db);
        assert!(repl.wait_caught_up(CATCH_UP), "lag_drained == 1");
        primary_wal[arm] = db.wal_retained_bytes();
        if budget == BUDGET {
            assert!(db.wal_retained_bytes() <= 40960, "primary_wal_bytes_v1 <= 40960");
            assert!(standby.wal_retained_bytes() <= 40960, "standby_wal_bytes_v1 <= 40960");
        }
    }
    assert!(
        (primary_wal[1] as f64) / (primary_wal[0] as f64) < 1.0,
        "primary_wal_bytes_v1 / primary_wal_bytes_v0 < 1 ({primary_wal:?})"
    );

    let mut shipped = [0u64; 2];
    for (arm, delta) in [false, true].into_iter().enumerate() {
        let db = budget_primary(DbOptions::NO_AUTO_CHECKPOINT);
        budget_updates(&db);
        if delta {
            db.checkpoint_and_truncate().unwrap();
        }
        let (standby, repl, stats) = budget_standby(&db);
        assert!(repl.wait_caught_up(CATCH_UP), "lag_drained == 1");
        assert_eq!(standby.applied_lsn(), db.durable_lsn(), "catchup_exact == 1");
        if delta {
            assert_eq!(stats.checkpoints_shipped(), 1, "ckpt_installs_v3 == 1");
        }
        shipped[arm] = stats.records_shipped();
    }
    assert!(
        (shipped[1] as f64) / (shipped[0] as f64) < 0.25,
        "records_shipped_v3 / records_shipped_v2 < 0.25 ({shipped:?})"
    );
}

#[test]
fn writes_stay_on_the_primary_while_reads_fan_out() {
    let sys = build(2, 1);
    write_once(&sys, 0, b"v2");
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());

    // Concurrent: a writer updating through the primary open/close
    // protocol while readers hammer the replicas.
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for round in 0..5 {
                write_once(&sys, 0, format!("writer round {round}").as_bytes());
            }
        });
        for _ in 0..2 {
            scope.spawn(|| {
                for _ in 0..10 {
                    let tp = read_token_path(&sys, 0);
                    // A valid-token read never fails on a healthy system:
                    // a lagging standby's content falls back to the
                    // primary, and either way the bytes are committed.
                    let data = sys.serve_read(SRV, &tp, APP.uid).expect("routed read");
                    assert!(!data.is_empty());
                }
            });
        }
    });

    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());
    let tp = read_token_path(&sys, 0);
    assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), b"writer round 4");
}

// --- PR 5: adaptive freshness wait ---------------------------------------------

#[test]
fn freshness_bound_adapts_down_on_a_healthy_set_and_backs_off_when_stalled() {
    use datalinks::core::{FRESHNESS_WAIT, FRESHNESS_WAIT_FLOOR};

    let sys = build(1, 1);
    write_once(&sys, 0, b"v2");
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());

    // The bound starts at the conservative PR 4 ceiling.
    assert_eq!(sys.freshness_bound(SRV), FRESHNESS_WAIT);

    // A run of healthy freshness reads (standby caught up, waits ~0)
    // drags the EWMA — and with it the bound — down toward the floor.
    let token = sys.freshness_token(SRV).unwrap();
    for _ in 0..40 {
        let fresh = sys.serve_read_fresh(SRV, &read_token_path(&sys, 0), APP.uid, token).unwrap();
        assert_eq!(fresh, b"v2");
    }
    let healthy_bound = sys.freshness_bound(SRV);
    assert!(
        healthy_bound < FRESHNESS_WAIT / 4,
        "bound must adapt down from the 25 ms ceiling on a healthy set, got {healthy_bound:?}"
    );
    assert!(healthy_bound >= FRESHNESS_WAIT_FLOOR);

    // Stall the set: read-your-writes must still hold (reads fall back to
    // the primary within the *small* learned bound)...
    let set = sys.node(SRV).unwrap().replication.clone().unwrap();
    set.set_paused(true);
    write_once(&sys, 0, b"v3");
    let token = sys.freshness_token(SRV).unwrap();
    let started = std::time::Instant::now();
    let fresh = sys.serve_read_fresh(SRV, &read_token_path(&sys, 0), APP.uid, token).unwrap();
    assert_eq!(fresh, b"v3", "read-your-writes holds through the adaptive bound");
    assert!(
        started.elapsed() < FRESHNESS_WAIT * 4,
        "a healthy-trained bound must fail over to the primary quickly"
    );

    // ...and repeated timeouts teach the bound to back off toward the
    // ceiling again (never past it).
    for _ in 0..40 {
        let _ = sys.serve_read_fresh(SRV, &read_token_path(&sys, 0), APP.uid, token).unwrap();
    }
    let stalled_bound = sys.freshness_bound(SRV);
    assert!(stalled_bound > healthy_bound, "persistent lag must raise the bound");
    assert!(stalled_bound <= FRESHNESS_WAIT);

    set.set_paused(false);
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());
}

// --- PR 7: host replication & coordinator failover -----------------------------

/// A participant whose decision message dies with the coordinator (see
/// the staging notes in tests/crash_recovery.rs).
struct LostDecision(datalinks::dlfm::DlfmClient);

impl datalinks::minidb::Participant for LostDecision {
    fn commit(&self, _txid: u64) {}
    fn abort(&self, txid: u64) {
        AgentConnection::abort(&self.0, txid);
    }
}

#[test]
fn unshipped_decision_is_presumed_aborted_on_promotion() {
    use datalinks::dlfm::OnUnlink;

    let mut sys = build_host(1, 1);
    let raw = sys.raw_fs(SRV).unwrap();
    raw.write_file(&APP, "/d/cand.bin", b"candidate").unwrap();
    assert!(sys.wait_host_replicas_caught_up(CATCH_UP));
    // Freeze shipping: whatever the host logs from here on exists on the
    // doomed coordinator's disk only.
    sys.set_host_replication_paused(true).unwrap();

    let agent = sys.node(SRV).unwrap().connect_agent();
    let tx = sys.begin();
    let txid = tx.id();
    agent.link(txid, "/d/cand.bin", ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
    sys.db().enlist_participant(txid, &format!("dlfm@{SRV}"), Arc::new(LostDecision(agent)));
    tx.commit().unwrap();
    assert!(sys.host_replication_lag() > 0, "the decision must still be unshipped");

    let report = sys.fail_over_host().unwrap();
    assert_eq!(
        report.in_doubt_resolved,
        vec![(SRV.to_string(), txid, false)],
        "a decision the shipped log prefix never saw is presumed aborted"
    );
    let server = &sys.node(SRV).unwrap().server;
    assert!(server.pending_host_txns().is_empty());
    assert!(
        server.repository().get_file("/d/cand.bin").is_none(),
        "the aborted claim leaves no half-applied link"
    );

    // The promoted coordinator carries normal traffic.
    write_once(&sys, 0, b"post failover");
    let tp = read_token_path(&sys, 0);
    assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), b"post failover");
}

#[test]
fn zombie_coordinator_decisions_are_fenced_after_host_crash() {
    use datalinks::dlfm::OnUnlink;

    let mut sys = build_host(1, 1);
    let raw = sys.raw_fs(SRV).unwrap();
    raw.write_file(&APP, "/d/cand.bin", b"candidate").unwrap();
    let agent = sys.node(SRV).unwrap().connect_agent();
    let tx = sys.begin();
    let txid = tx.id();
    agent.link(txid, "/d/cand.bin", ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
    std::mem::forget(tx); // the coordinator "dies" holding the decision

    // A read token minted before the outage keeps working through it.
    let tp = read_token_path(&sys, 0);
    assert!(sys.wait_host_replicas_caught_up(CATCH_UP));
    let epoch = sys.crash_host().unwrap();
    assert!(sys.host_is_down());
    assert_eq!(sys.coordinator_epoch(), epoch);
    assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), b"seed-0");

    // The zombie wakes up and decides commit: the fence drops the
    // decision instead of applying it behind the new coordinator's back.
    let server = Arc::clone(&sys.node(SRV).unwrap().server);
    let before = server.stats.stale_coord_rejections.get();
    agent.commit(txid);
    assert!(
        server.stats.stale_coord_rejections.get() > before,
        "the stale decision must be counted as rejected"
    );
    assert_eq!(
        server.pending_host_txns(),
        vec![txid],
        "the fenced decision must not settle the claim"
    );
    // Fresh work under the old generation is refused outright.
    raw.write_file(&APP, "/d/cand2.bin", b"late").unwrap();
    let err = agent.link(txid + 1, "/d/cand2.bin", ControlMode::Rdd, true, OnUnlink::Restore);
    assert!(err.unwrap_err().contains("stale coordinator"), "zombie link must be fenced");

    // Promotion settles the claim by presumed abort — the zombie's
    // decision never became durable on the surviving timeline.
    let report = sys.promote_host().unwrap();
    assert!(!sys.host_is_down());
    assert_eq!(report.in_doubt_resolved, vec![(SRV.to_string(), txid, false)]);
    assert!(server.repository().get_file("/d/cand.bin").is_none());

    write_once(&sys, 0, b"post failover");
    let tp = read_token_path(&sys, 0);
    assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), b"post failover");
}

#[test]
fn host_failover_reprovisions_standbys_by_delta_with_bounded_shipping() {
    // A deep host history under a tight checkpoint budget, with a fleet of
    // standbys. After promotion the rebuilt fleet must be seeded by delta
    // (checkpoint install + WAL suffix), never by replaying the full
    // history — pinned by a hard bound on the re-shipped bytes.
    const BUDGET: u64 = 4 * 1024;
    let mut sys = DataLinksSystem::builder()
        .clock(Arc::new(SimClock::new(1_000_000)))
        .host_db_opts(DbOptions { checkpoint_every_bytes: BUDGET, ..Default::default() })
        .host_replicas(3)
        .file_server(SRV)
        .build()
        .unwrap();
    sys = seed(sys, 1);
    sys.create_table(
        Schema::new(
            "history",
            vec![Column::new("id", ColumnType::Int), Column::new("v", ColumnType::Text)],
            "id",
        )
        .unwrap(),
    )
    .unwrap();
    for i in 0..200i64 {
        let mut tx = sys.begin();
        tx.insert(
            "history",
            vec![Value::Int(i), Value::Text(format!("row {i} {}", "x".repeat(128)))],
        )
        .unwrap();
        tx.commit().unwrap();
    }
    assert!(sys.wait_host_replicas_caught_up(CATCH_UP));
    // The budget forced truncation, so the history is provably deeper than
    // the retained log — full replay is no longer even possible.
    assert!(sys.db().wal_base_lsn() > 0, "the budget must have truncated the host log");
    // Full replay would carry at least the 200 rows' payloads — an
    // analytic floor independent of framing overhead.
    let full_history_floor: u64 = 200 * 128;
    assert!(full_history_floor > 4 * BUDGET, "the history must dwarf the budget");

    sys.fail_over_host().unwrap();
    assert!(sys.wait_host_replicas_caught_up(CATCH_UP));
    let set = sys.host_replication().unwrap();
    assert!(
        set.stats().checkpoints_shipped() >= 1,
        "fleet re-provisioning must install a checkpoint image, not replay history"
    );
    // The regression pin: per-standby delta shipping stays within the
    // checkpoint budget (plus frame slack), far under the full history.
    let reshipped_per_standby = set.stats().bytes_shipped() / 3;
    assert!(
        reshipped_per_standby <= BUDGET + 8 * 1024,
        "delta catch-up shipped {reshipped_per_standby} bytes per standby (budget {BUDGET})"
    );
    assert!(
        reshipped_per_standby < full_history_floor / 2,
        "re-seeding must beat full replay, shipped {reshipped_per_standby} of {full_history_floor}"
    );

    // The promoted coordinator with its rebuilt fleet carries traffic and
    // keeps the budget.
    assert_eq!(sys.db().count("history").unwrap(), 200);
    write_once(&sys, 0, b"post failover");
    let tp = read_token_path(&sys, 0);
    assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), b"post failover");
    assert!(sys.wait_host_replicas_caught_up(CATCH_UP));
    assert!(sys.db().wal_retained_bytes() <= BUDGET + 8 * 1024);
}

#[test]
fn whole_system_crash_during_host_outage_recovers_from_the_promoted_disk() {
    let mut sys = build_host(2, 1);
    write_once(&sys, 0, b"replicated state");
    assert!(sys.wait_host_replicas_caught_up(CATCH_UP));
    let epoch = sys.crash_host().unwrap();

    // The whole machine dies mid-outage: the dead host's own disk is
    // behind the fence, so recovery must come up from the promotion
    // target's replicated image — and keep the fence generation.
    let image = sys.crash();
    let (sys, _) = DataLinksSystem::recover(image).unwrap();
    assert_eq!(sys.coordinator_epoch(), epoch, "the coordinator generation survives the crash");
    assert!(sys.host_replication().is_some(), "the surviving standby slot re-provisions");

    let tp = read_token_path(&sys, 0);
    assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), b"replicated state");
    write_once(&sys, 0, b"after recover");
    let tp = read_token_path(&sys, 0);
    assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), b"after recover");
}

#[test]
fn node_crash_after_a_host_failover_lost_an_update_takes_the_host_version_from_the_archive() {
    // Host shipping is asynchronous: the promoted host keeps v2 and loses
    // v3's `Commit`, while the node's disk holds v3's bytes at rest. The
    // node then crashes and loses both updates' unforced records — the
    // promotion flushed them, so a torn tail stands in for a crash before
    // that flush — and `dl_files` comes back at v1: behind the host row,
    // which is behind the disk. The roll-forward to v2 takes v2's bytes
    // from the archive, not the disk's.
    let faults = DiskFaults::new();
    let mut spec = FileServerSpec::new(SRV);
    spec.repo_env = StorageEnv::mem_with_faults(Arc::clone(&faults), 0);
    let sys = DataLinksSystem::builder()
        .clock(Arc::new(SimClock::new(1_000_000)))
        .host_replicas(1)
        .file_server_with(spec)
        .build()
        .unwrap();
    let mut sys = seed(sys, 1);
    let repo = sys.node(SRV).unwrap().server.repository().db().clone();
    repo.flush().unwrap();
    let wal = repo.env().device("wal").unwrap();
    let before_updates = wal.len().unwrap();
    write_once(&sys, 0, b"version two");
    assert!(sys.wait_host_replicas_caught_up(CATCH_UP));
    sys.set_host_replication_paused(true).unwrap();
    write_once(&sys, 0, b"version three");
    assert!(sys.host_replication_lag() > 0, "v3's commit must still be unshipped");

    sys.fail_over_host().unwrap();
    assert_eq!(repo.durable_lsn(), repo.state_id(), "the promotion flushed the node's tail");
    faults.arm_torn_tail("wal", wal.len().unwrap() - before_updates);
    drop((repo, wal));
    let (sys, reports) = DataLinksSystem::recover(sys.crash()).unwrap();
    let report = &reports[SRV];
    assert_eq!((report.updates_rolled_forward, report.updates_rolled_back), (1, 0));

    assert_rows_agree(&sys, 0, Some(2));
    let disk = sys.raw_fs(SRV).unwrap().read_file(&Cred::root(), "/d/f0.bin").unwrap();
    assert_eq!(disk, b"version two", "the host row's bytes, not the lost update's");
    write_once(&sys, 0, b"version three again");
    assert_rows_agree(&sys, 0, Some(3));
}
