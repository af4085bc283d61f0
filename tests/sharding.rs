//! Cross-shard 2PC torture suite for the sharded DLFM namespace (PR 9).
//!
//! A logical file server partitioned across N shard nodes must keep the
//! paper's §4.2 atomicity story under every failure the single-node system
//! survives: a multi-file host transaction that touches several shards
//! commits on all of them or none, a shard whose primary fails over before
//! the decision aborts the whole transaction, a crashed *coordinator* mid-fan-out leaves every
//! shard presumed-aborted, and a zombie coordinator is fenced on each
//! shard independently. Routing itself is a pure hash — stable across
//! rebuilds and balanced — proven by proptests at the bottom.
//!
//! The scale-out claim is gated as counts, not as a cycle rate: through
//! 1, 2 and 4 shards, every shard serves its own writers, its repository
//! syncs exactly their share, and the shards' repositories sync side by
//! side — as many syncs in flight at once as there are shards.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use datalinks::core::{DataLinksSystem, DlColumnOptions, FileServerSpec, ShardRouter};
use datalinks::dlfm::{AgentConnection, ControlMode, OnUnlink, TokenKind};
use datalinks::fskit::{Cred, FsError, OpenOptions, SetAttr, SimClock};
use datalinks::minidb::{Column, ColumnType, DbOptions, Schema, StorageEnv, Value, WalOptions};

const APP: Cred = Cred { uid: 100, gid: 100 };
const SRV: &str = "srv1";
const CATCH_UP: Duration = Duration::from_secs(30);

fn shard_name(i: usize) -> String {
    ShardRouter::shard_name(SRV, i)
}

/// A `/data` path the `shards`-way router places on shard `want`. The
/// search is bounded, so a router that never picks `want` fails the test
/// instead of hanging it.
fn path_on(shards: usize, want: usize, tag: &str) -> String {
    let router = ShardRouter::new(SRV, shards);
    (0..4096)
        .map(|k| format!("/data/{tag}{k}.bin"))
        .find(|p| router.shard_of(p) == want)
        .expect("some candidate path hashes to every shard")
}

fn build(shards: usize, replicas: usize, host_replicas: usize) -> DataLinksSystem {
    let sys = DataLinksSystem::builder()
        .clock(Arc::new(SimClock::new(1_000_000)))
        .host_replicas(host_replicas)
        .file_server_with(FileServerSpec::new(SRV).shards(shards).replicas(replicas))
        .build()
        .unwrap();
    let raw = sys.raw_fs(SRV).unwrap();
    raw.mkdir_p(&Cred::root(), "/data", 0o777).unwrap();
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
        DlColumnOptions::new(ControlMode::Rdd).on_unlink(OnUnlink::Restore).token_ttl_ms(600_000),
    )
    .unwrap();
    // Host shipping is asynchronous: a test that fails the host over right
    // away must still find the schema on the standby it promotes.
    assert!(sys.wait_host_replicas_caught_up(CATCH_UP));
    sys
}

fn seed_file(sys: &DataLinksSystem, path: &str, content: &[u8]) {
    sys.raw_fs(SRV).unwrap().write_file(&APP, path, content).unwrap();
}

fn link_row(sys: &DataLinksSystem, id: i64, path: &str) {
    let mut tx = sys.begin();
    tx.insert("t", vec![Value::Int(id), Value::DataLink(format!("dlfs://{SRV}{path}"))]).unwrap();
    tx.commit().unwrap();
}

/// One managed update-in-place cycle through the sharded front.
fn update(sys: &DataLinksSystem, id: i64, path: &str, content: &[u8]) {
    let (url, tp) = sys.select_datalink("t", &Value::Int(id), "body", TokenKind::Write).unwrap();
    let fs = sys.fs(SRV).unwrap();
    let fd = fs.open(&APP, &tp, OpenOptions::write_truncate()).unwrap();
    fs.write(fd, content).unwrap();
    fs.close(fd).unwrap();
    let owner = {
        let router = sys.shard_router(SRV).unwrap();
        router.name_of(router.shard_of(&url.path)).to_string()
    };
    sys.node(&owner).unwrap().server.archive_store().wait_archived(path);
}

#[test]
fn cross_shard_transaction_commits_atomically_on_every_shard() {
    let sys = build(4, 0, 0);
    let router = Arc::clone(sys.shard_router(SRV).unwrap());
    // One file per shard, all linked by a single host transaction.
    let paths: Vec<String> = (0..4).map(|i| path_on(4, i, "atomic")).collect();
    for p in &paths {
        seed_file(&sys, p, b"seed");
    }
    let mut tx = sys.begin();
    for (i, p) in paths.iter().enumerate() {
        tx.insert("t", vec![Value::Int(i as i64), Value::DataLink(format!("dlfs://{SRV}{p}"))])
            .unwrap();
    }
    tx.commit().unwrap();

    // Every shard holds exactly its own file, and no claim is left open.
    for (i, p) in paths.iter().enumerate() {
        let node = sys.node(&shard_name(i)).unwrap();
        assert!(node.server.repository().get_file(p).is_some(), "shard {i} must own {p}");
        assert_eq!(node.server.repository().list_files().len(), 1, "shard {i} owns one file");
        assert!(node.server.pending_host_txns().is_empty(), "commit settled shard {i}");
        assert_eq!(node.server.stats.links.get(), 1, "one link landed on shard {i}");
        assert_eq!(router.routed(i), 1, "the router sent one DML to shard {i}");
    }

    // The managed update cycle runs against each shard through the one
    // logical mount, and tokens minted under the logical name validate.
    for (i, p) in paths.iter().enumerate() {
        let body = format!("version-two on shard {i}");
        update(&sys, i as i64, p, body.as_bytes());
        let data = sys.raw_fs(SRV).unwrap().read_file(&Cred::root(), p).unwrap();
        assert_eq!(data, body.as_bytes());
        let url = datalinks::core::DatalinkUrl::parse(&format!("dlfs://{SRV}{p}")).unwrap();
        let (_, _, version) = sys.engine().file_meta(&url).unwrap();
        assert_eq!(version, 2, "metadata agrees with the file on shard {i}");
    }
}

#[test]
fn aborted_cross_shard_transaction_leaves_no_shard_changed() {
    let sys = build(2, 0, 0);
    let p0 = path_on(2, 0, "abort");
    let p1 = path_on(2, 1, "abort");
    seed_file(&sys, &p0, b"seed");
    seed_file(&sys, &p1, b"seed");

    let mut tx = sys.begin();
    tx.insert("t", vec![Value::Int(0), Value::DataLink(format!("dlfs://{SRV}{p0}"))]).unwrap();
    tx.insert("t", vec![Value::Int(1), Value::DataLink(format!("dlfs://{SRV}{p1}"))]).unwrap();
    tx.abort();

    for i in 0..2 {
        let node = sys.node(&shard_name(i)).unwrap();
        assert!(node.server.repository().list_files().is_empty(), "abort undid shard {i}");
        assert!(node.server.pending_host_txns().is_empty());
    }
    // The same links commit cleanly afterwards.
    link_row(&sys, 0, &p0);
    link_row(&sys, 1, &p1);
    assert!(sys.node(&shard_name(0)).unwrap().server.repository().get_file(&p0).is_some());
    assert!(sys.node(&shard_name(1)).unwrap().server.repository().get_file(&p1).is_some());
}

#[test]
fn crash_of_one_shard_mid_prepare_aborts_on_both_shards() {
    // Both shards voted with their links; shard 1 dies before the
    // decision. The coordinator must abort everywhere, and the promoted
    // shard-1 standby must hold no link (the coordinator never logged an
    // outcome, and a link's vote writes nothing on the node).
    let mut sys = build(2, 1, 0);
    let p0 = path_on(2, 0, "prep");
    let p1 = path_on(2, 1, "prep");
    seed_file(&sys, &p0, b"cand-0");
    seed_file(&sys, &p1, b"cand-1");

    let a0 = sys.node(&shard_name(0)).unwrap().connect_agent();
    let a1 = sys.node(&shard_name(1)).unwrap().connect_agent();
    let tx = sys.begin();
    let txid = tx.id();
    a0.link(txid, &p0, ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
    a1.link(txid, &p1, ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
    // Whatever shard 1 logged ships to its standby before it dies.
    assert!(sys.wait_replicas_caught_up(&shard_name(1), CATCH_UP).unwrap());
    assert_eq!(
        sys.node(&shard_name(0)).unwrap().server.pending_host_txns(),
        vec![txid],
        "shard 0 voted yes"
    );

    // Shard 1 crashes before the decision; its standby takes over. Its
    // vote wrote nothing and took nothing over, so the promotion has no
    // branch to settle and no file to hand back.
    let report = sys.fail_over(&shard_name(1)).unwrap();
    assert_eq!(report.links_undone, 0, "the link's vote left nothing to undo");
    assert!(report.in_doubt_resolved.is_empty(), "a link leaves no intent in doubt");
    let s1 = sys.node(&shard_name(1)).unwrap();
    assert!(s1.server.pending_host_txns().is_empty(), "promotion settled shard 1's claim");
    assert!(s1.server.repository().get_file(&p1).is_none(), "the aborted link left nothing");

    // Seeing the failed shard, the coordinator aborts the transaction:
    // shard 0's voted branch rolls back too.
    tx.abort();
    a0.abort(txid);
    let s0 = sys.node(&shard_name(0)).unwrap();
    assert!(s0.server.pending_host_txns().is_empty(), "the abort settled shard 0");
    assert!(s0.server.repository().get_file(&p0).is_none(), "no half-linked file on shard 0");

    // The system carries the same cross-shard transaction afterwards.
    let mut tx = sys.begin();
    tx.insert("t", vec![Value::Int(0), Value::DataLink(format!("dlfs://{SRV}{p0}"))]).unwrap();
    tx.insert("t", vec![Value::Int(1), Value::DataLink(format!("dlfs://{SRV}{p1}"))]).unwrap();
    tx.commit().unwrap();
    assert!(sys.node(&shard_name(0)).unwrap().server.repository().get_file(&p0).is_some());
    assert!(sys.node(&shard_name(1)).unwrap().server.repository().get_file(&p1).is_some());
}

#[test]
fn a_host_transaction_linking_on_two_shards_aborts_when_one_shard_fails_over() {
    // The engine links a file on each shard; shard 1's primary dies before
    // the host decides. The failover aborts the undecided host transaction
    // before it reads the host rows, so the promotion finds no link of
    // shard 1's branch, the commit fails, and shard 0 hears the abort too.
    let mut sys = build(2, 1, 0);
    let p0 = path_on(2, 0, "twin");
    let p1 = path_on(2, 1, "twin");
    seed_file(&sys, &p0, b"cand-0");
    seed_file(&sys, &p1, b"cand-1");

    let mut tx = sys.begin();
    tx.insert("t", vec![Value::Int(0), Value::DataLink(format!("dlfs://{SRV}{p0}"))]).unwrap();
    tx.insert("t", vec![Value::Int(1), Value::DataLink(format!("dlfs://{SRV}{p1}"))]).unwrap();
    assert!(sys.wait_replicas_caught_up(&shard_name(1), CATCH_UP).unwrap());

    let report = sys.fail_over(&shard_name(1)).unwrap();
    assert!(report.in_doubt_resolved.is_empty(), "shard 1's link left no intent in doubt");
    assert!(tx.commit().is_err(), "the whole host transaction aborts");

    for (i, p) in [&p0, &p1].into_iter().enumerate() {
        let node = sys.node(&shard_name(i)).unwrap();
        assert!(node.server.pending_host_txns().is_empty(), "shard {i} settled");
        assert!(node.server.repository().get_file(p).is_none(), "no link left on shard {i}");
        let attr = sys.raw_fs(SRV).unwrap().stat(&Cred::root(), p).unwrap();
        assert_eq!(attr.uid, APP.uid, "shard {i} handed its file back");
        let url = datalinks::core::DatalinkUrl::parse(&format!("dlfs://{SRV}{p}")).unwrap();
        assert!(sys.engine().file_meta(&url).is_none(), "no __dl_meta row for shard {i}");
        assert!(sys.db().get_committed("t", &Value::Int(i as i64)).unwrap().is_none());
    }

    // The system carries the same cross-shard transaction afterwards.
    link_row(&sys, 0, &p0);
    link_row(&sys, 1, &p1);
    assert!(sys.node(&shard_name(0)).unwrap().server.repository().get_file(&p0).is_some());
    assert!(sys.node(&shard_name(1)).unwrap().server.repository().get_file(&p1).is_some());
}

#[test]
fn coordinator_crash_mid_fan_out_presumed_aborts_every_shard() {
    // Both shards vote yes; the coordinator dies before logging any
    // decision. Host failover must resolve the in-doubt sub-transaction
    // on *every* shard — by presumed abort, since no outcome shipped.
    let mut sys = build(2, 0, 1);
    let p0 = path_on(2, 0, "fanout");
    let p1 = path_on(2, 1, "fanout");
    seed_file(&sys, &p0, b"cand-0");
    seed_file(&sys, &p1, b"cand-1");

    let a0 = sys.node(&shard_name(0)).unwrap().connect_agent();
    let a1 = sys.node(&shard_name(1)).unwrap().connect_agent();
    let tx = sys.begin();
    let txid = tx.id();
    a0.link(txid, &p0, ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
    a1.link(txid, &p1, ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
    std::mem::forget(tx); // the coordinator dies holding both yes-votes

    let report = sys.fail_over_host().unwrap();
    let mut resolved = report.in_doubt_resolved.clone();
    resolved.sort();
    assert_eq!(
        resolved,
        vec![(shard_name(0), txid, false), (shard_name(1), txid, false)],
        "failover must settle the in-doubt claim on every shard"
    );
    for i in 0..2 {
        let node = sys.node(&shard_name(i)).unwrap();
        assert!(node.server.pending_host_txns().is_empty(), "shard {i} settled");
        assert!(node.server.repository().list_files().is_empty(), "shard {i} clean");
    }

    // The promoted coordinator commits the same cross-shard transaction.
    let mut tx = sys.begin();
    tx.insert("t", vec![Value::Int(0), Value::DataLink(format!("dlfs://{SRV}{p0}"))]).unwrap();
    tx.insert("t", vec![Value::Int(1), Value::DataLink(format!("dlfs://{SRV}{p1}"))]).unwrap();
    tx.commit().unwrap();
    assert!(sys.node(&shard_name(0)).unwrap().server.repository().get_file(&p0).is_some());
    assert!(sys.node(&shard_name(1)).unwrap().server.repository().get_file(&p1).is_some());
}

#[test]
fn zombie_coordinator_is_fenced_on_every_shard() {
    let mut sys = build(2, 0, 1);
    let p0 = path_on(2, 0, "zombie");
    let p1 = path_on(2, 1, "zombie");
    seed_file(&sys, &p0, b"cand-0");
    seed_file(&sys, &p1, b"cand-1");

    let a0 = sys.node(&shard_name(0)).unwrap().connect_agent();
    let a1 = sys.node(&shard_name(1)).unwrap().connect_agent();
    let tx = sys.begin();
    let txid = tx.id();
    a0.link(txid, &p0, ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
    a1.link(txid, &p1, ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
    std::mem::forget(tx);

    assert!(sys.wait_host_replicas_caught_up(CATCH_UP));
    let epoch = sys.crash_host().unwrap();
    assert_eq!(sys.coordinator_epoch(), epoch);

    // The zombie wakes up and decides commit on both shards: each shard's
    // fence must drop the decision independently.
    let servers: Vec<_> =
        (0..2).map(|i| Arc::clone(&sys.node(&shard_name(i)).unwrap().server)).collect();
    let before: Vec<u64> = servers.iter().map(|s| s.stats.stale_coord_rejections.get()).collect();
    a0.commit(txid);
    a1.commit(txid);
    for (i, server) in servers.iter().enumerate() {
        assert!(
            server.stats.stale_coord_rejections.get() > before[i],
            "shard {i} must count the fenced decision"
        );
        assert_eq!(
            server.pending_host_txns(),
            vec![txid],
            "the fenced decision must not settle shard {i}"
        );
    }
    // Fresh work under the dead generation is refused on each shard.
    let err0 = a0.link(txid + 1, &p0, ControlMode::Rdd, true, OnUnlink::Restore).unwrap_err();
    let err1 = a1.link(txid + 1, &p1, ControlMode::Rdd, true, OnUnlink::Restore).unwrap_err();
    assert!(err0.contains("stale coordinator"), "got {err0}");
    assert!(err1.contains("stale coordinator"), "got {err1}");

    // Promotion settles both shards by presumed abort — the zombie's
    // decision never reached the surviving timeline.
    let report = sys.promote_host().unwrap();
    let mut resolved = report.in_doubt_resolved.clone();
    resolved.sort();
    assert_eq!(resolved, vec![(shard_name(0), txid, false), (shard_name(1), txid, false)]);
    for (i, server) in servers.iter().enumerate() {
        assert!(server.repository().get_file([&p0, &p1][i]).is_none());
    }
}

#[test]
fn shard_crash_mid_burst_resolves_all_in_doubt_with_zero_atomicity_violations() {
    let shards = 4;
    let n_files = 8;
    let mut sys = build(shards, 1, 0);
    let paths: Vec<String> =
        (0..n_files).map(|i| path_on(shards, i % shards, &format!("burst{i}_"))).collect();
    for (i, p) in paths.iter().enumerate() {
        seed_file(&sys, p, b"seed");
        link_row(&sys, i as i64, p);
    }

    // Burst phase 1: concurrent update cycles across every shard.
    std::thread::scope(|scope| {
        for (i, p) in paths.iter().enumerate() {
            let sys = &sys;
            scope.spawn(move || {
                for round in 0..3 {
                    update(sys, i as i64, p, format!("phase1 f{i} r{round}").as_bytes());
                }
            });
        }
    });

    // An update is in flight on shard 1 (write-open claimed, dirty bytes,
    // no close) when the shard dies.
    let victim = paths.iter().position(|p| {
        let router = sys.shard_router(SRV).unwrap();
        router.shard_of(p) == 1
    });
    let victim = victim.expect("some file lives on shard 1");
    let (_, tp) =
        sys.select_datalink("t", &Value::Int(victim as i64), "body", TokenKind::Write).unwrap();
    let fs = sys.fs(SRV).unwrap();
    let fd = fs.open(&APP, &tp, OpenOptions::write_truncate()).unwrap();
    fs.write(fd, b"doomed in-flight bytes").unwrap();
    assert!(sys.wait_replicas_caught_up(&shard_name(1), CATCH_UP).unwrap());

    let report = sys.fail_over(&shard_name(1)).unwrap();
    assert_eq!(report.updates_rolled_back, 1, "the in-flight update rolls back on promotion");
    for i in 0..shards {
        assert!(
            sys.node(&shard_name(i)).unwrap().server.pending_host_txns().is_empty(),
            "no shard may be left in doubt after the failover"
        );
    }

    // Burst phase 2 through the promoted shard, then the atomicity audit:
    // every file holds the content its committed metadata version names.
    std::thread::scope(|scope| {
        for (i, p) in paths.iter().enumerate() {
            let sys = &sys;
            scope.spawn(move || {
                for round in 0..2 {
                    update(sys, i as i64, p, format!("phase2 f{i} r{round}").as_bytes());
                }
            });
        }
    });
    for (i, p) in paths.iter().enumerate() {
        let data = sys.raw_fs(SRV).unwrap().read_file(&Cred::root(), p).unwrap();
        assert_eq!(data, format!("phase2 f{i} r1").as_bytes(), "file {p} torn");
        let url = datalinks::core::DatalinkUrl::parse(&format!("dlfs://{SRV}{p}")).unwrap();
        let owner_shard = sys.shard_router(SRV).unwrap().shard_of(p);
        let (size, _, version) = sys.engine().file_meta(&url).unwrap();
        assert_eq!(size as usize, data.len(), "metadata size agrees for {p}");
        // Link (v1) + 3 phase-1 updates + 2 phase-2 updates, except the
        // victim, whose rolled-back in-flight open never became a version.
        assert_eq!(version, 6, "metadata version agrees for {p} (shard {owner_shard})");
    }
}

/// The close path's one commit point, per shard: each shard's DLFM asks
/// the host hook about *its* files under the logical server's URL. An
/// acknowledged update on either shard loses its unforced repository
/// records to the crash; an open on shard 0 is still in flight, its claim
/// flushed to the shard's disk. Every shard settles its own updates by the
/// host's metadata rows.
#[test]
fn whole_system_crash_settles_each_shards_claims_by_the_host_rows() {
    let sys = build(2, 0, 0);
    let acked = [path_on(2, 0, "acked"), path_on(2, 1, "acked")];
    let in_flight = path_on(2, 0, "open");
    for (i, p) in acked.iter().chain([&in_flight]).enumerate() {
        seed_file(&sys, p, b"version-1");
        link_row(&sys, i as i64, p);
    }
    let (_, tp) = sys.select_datalink("t", &Value::Int(2), "body", TokenKind::Write).unwrap();
    let fs = sys.fs(SRV).unwrap();
    let fd = fs.open(&APP, &tp, OpenOptions::write_truncate()).unwrap();
    fs.write(fd, b"doomed").unwrap();
    for (i, p) in acked.iter().enumerate() {
        // The links' branch ends reach the disk; the in-flight write open
        // logged nothing.
        let repo = sys.node(&shard_name(i)).unwrap().server.repository().db();
        repo.flush().unwrap();
        update(&sys, i as i64, p, b"version-2");
        assert!(repo.durable_lsn() < repo.state_id(), "shard {i}: the update is unsynced");
    }
    drop(fs);

    let (sys, reports) = DataLinksSystem::recover(sys.crash()).unwrap();
    for (i, back) in [(0, 1), (1, 0)] {
        let report = &reports[&shard_name(i)];
        assert!(report.in_doubt_resolved.is_empty(), "shard {i}: {report:?}");
        assert_eq!(
            (report.updates_rolled_forward, report.updates_rolled_back),
            (1, back),
            "shard {i}: {report:?}"
        );
    }
    let raw = sys.raw_fs(SRV).unwrap();
    let meta_version = |p: &str| {
        let url = datalinks::core::DatalinkUrl::parse(&format!("dlfs://{SRV}{p}")).unwrap();
        sys.engine().file_meta(&url).unwrap().2
    };
    for (i, p) in acked.iter().enumerate() {
        let server = &sys.node(&shard_name(i)).unwrap().server;
        assert_eq!(raw.read_file(&Cred::root(), p).unwrap(), b"version-2");
        assert_eq!((meta_version(p), server.repository().get_file(p).unwrap().cur_version), (2, 2));
        assert!(server.repository().opens().entries(p).is_empty(), "shard {i}: a writer came back");
        assert_eq!(server.archive_store().get(p, 2).unwrap().data, b"version-2");
        update(&sys, i as i64, p, b"version-3");
        assert_eq!(meta_version(p), 3);
    }
    assert_eq!(raw.read_file(&Cred::root(), &in_flight).unwrap(), b"version-1");
    assert_eq!(meta_version(&in_flight), 1);
    update(&sys, 2, &in_flight, b"version-2");
    assert_eq!(meta_version(&in_flight), 2);
}

/// What one scale-out run counted, per shard.
struct ScaleOut {
    /// Shard nodes whose DLFS served managed opens.
    busy_shards: usize,
    /// `engine.shard.<srv>.s<i>.routed`: the link DML the router sent each
    /// shard (empty with one shard: there is no router).
    routed: Vec<u64>,
    /// Writers whose file lives on each shard.
    writers: Vec<u64>,
    /// Device syncs of each shard's repository log over the update cycles.
    syncs: Vec<u64>,
    /// Update cycles that committed (the file's `__dl_meta` version moved).
    committed: u64,
    /// The most repository syncs in flight at once, across the shards.
    peak_syncs_in_flight: u64,
}

/// Writer threads of a scale-out run, and the update cycles each runs.
const WRITERS: usize = 8;
const CYCLES: usize = 4;

/// `WRITERS` threads each run `CYCLES` token/open/write/close update
/// cycles on a file of their own, writer `t`'s on shard `t % shards`,
/// through one logical server whose repositories sync every commit on
/// 200 µs devices while the host's devices are free: the repository logs
/// are what the cycles wait on.
fn scale_out(shards: usize) -> ScaleOut {
    let mut spec = FileServerSpec::new(SRV).shards(shards);
    spec.dlfm.sync_archive = true;
    spec.dlfm.db = DbOptions { wal: WalOptions::per_commit_sync(), ..Default::default() };
    spec.repo_env = StorageEnv::mem_with_sync_latency(200_000);
    let sys = DataLinksSystem::builder()
        .clock(Arc::new(SimClock::new(1_000_000)))
        .file_server_with(spec)
        .build()
        .unwrap();
    sys.raw_fs(SRV).unwrap().mkdir_p(&Cred::root(), "/data", 0o777).unwrap();
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
        DlColumnOptions::new(ControlMode::Rdd).on_unlink(OnUnlink::Restore).token_ttl_ms(600_000),
    )
    .unwrap();
    let node_names: Vec<String> =
        if shards > 1 { (0..shards).map(shard_name).collect() } else { vec![SRV.to_string()] };
    // Writer `t`'s file: the first candidate the router places on shard
    // `t % shards`. A router that ignores the path still gets its writers
    // (on whatever shard it picks), and the gates below name it.
    let router = ShardRouter::new(SRV, shards);
    let paths: Vec<String> = (0..WRITERS)
        .map(|t| {
            (0..256)
                .map(|k| format!("/data/w{t}_{k}.bin"))
                .find(|p| router.shard_of(p) == t % shards)
                .unwrap_or_else(|| format!("/data/w{t}_0.bin"))
        })
        .collect();
    for (t, p) in paths.iter().enumerate() {
        seed_file(&sys, p, b"seed");
        link_row(&sys, t as i64, p);
    }
    let repo_syncs = || -> Vec<u64> {
        node_names
            .iter()
            .map(|n| {
                let repo = sys.node(n).unwrap().server.repository().db().clone();
                repo.wal_telemetry().fsync_ns.snapshot().count
            })
            .collect()
    };
    let before = repo_syncs();
    let fs = sys.fs(SRV).unwrap();
    std::thread::scope(|scope| {
        for t in 0..WRITERS {
            let (sys, fs) = (&sys, &fs);
            scope.spawn(move || {
                for _ in 0..CYCLES {
                    let (_, tp) = sys
                        .select_datalink("t", &Value::Int(t as i64), "body", TokenKind::Write)
                        .unwrap();
                    let fd = fs.open(&APP, &tp, OpenOptions::write_truncate()).unwrap();
                    fs.write(fd, b"one more version").unwrap();
                    fs.close(fd).unwrap();
                }
            });
        }
    });
    let syncs: Vec<u64> = repo_syncs().iter().zip(&before).map(|(a, b)| a - b).collect();

    let snap = sys.metrics();
    let counter = |name: String| snap.counters.get(&name).copied().unwrap_or(0);
    let busy_shards =
        node_names.iter().filter(|n| counter(format!("dlfm.{n}.open_checks")) > 0).count();
    let routed = if shards > 1 {
        (0..shards).map(|i| counter(format!("engine.shard.{SRV}.s{i}.routed"))).collect()
    } else {
        Vec::new()
    };
    let mut writers = vec![0u64; shards];
    for p in &paths {
        writers[sys.shard_router(SRV).map_or(0, |r| r.shard_of(p))] += 1;
    }
    let committed = paths
        .iter()
        .map(|p| {
            let url = datalinks::core::DatalinkUrl::parse(&format!("dlfs://{SRV}{p}")).unwrap();
            sys.engine().file_meta(&url).unwrap().2 - 1
        })
        .sum();
    // Shard 0's environment: the others share its sync gauge.
    let repo_env = sys.node(&node_names[0]).unwrap().server.repository().db().env().clone();
    let peak_syncs_in_flight = repo_env.sync_gauge().unwrap().peak();
    ScaleOut { busy_shards, routed, writers, syncs, committed, peak_syncs_in_flight }
}

/// The a13 gates, as counts. Each shard serves the writers the router
/// places on it, its repository log syncs exactly their share, and the
/// repositories sync side by side: at some moment every shard has a sync
/// in flight. The cycle rate each shard count reaches is the repo
/// benchmark's to measure; these are the mechanisms it stands on.
#[test]
fn each_shard_syncs_its_own_writers_share_side_by_side() {
    for shards in [1, 2, 4] {
        let run = scale_out(shards);
        eprintln!(
            "{shards} shards: busy {}, routed {:?}, writers {:?}, syncs {:?}, peak in flight {}",
            run.busy_shards, run.routed, run.writers, run.syncs, run.peak_syncs_in_flight
        );
        assert_eq!(
            run.committed,
            (WRITERS * CYCLES) as u64,
            "{shards} shards: every cycle commits"
        );
        assert_eq!(run.busy_shards, shards, "{shards} shards: every shard serves opens");
        for (i, &r) in run.routed.iter().enumerate() {
            assert!(r >= 1, "{shards} shards: the router sent shard {i} no link");
        }
        // Per-commit sync: an update's two repository records — the close
        // record and the archiver's `needs_archive` clear — each sync the
        // owning shard's log once. The write open logs nothing.
        let share: Vec<u64> = run.writers.iter().map(|w| 2 * CYCLES as u64 * w).collect();
        assert_eq!(run.syncs, share, "{shards} shards: each log syncs its own writers' cycles");
        assert!(
            run.peak_syncs_in_flight >= shards as u64,
            "{shards} shards: at most {} repository syncs were in flight at once",
            run.peak_syncs_in_flight
        );
    }
}

#[test]
fn router_metrics_agree_with_per_shard_dlfm_traffic() {
    let shards = 3;
    let n = 12;
    let sys = build(shards, 0, 0);
    let router = Arc::clone(sys.shard_router(SRV).unwrap());
    let paths: Vec<String> = (0..n).map(|i| format!("/data/traffic{i}.bin")).collect();
    for (i, p) in paths.iter().enumerate() {
        seed_file(&sys, p, b"seed");
        link_row(&sys, i as i64, p);
    }
    // Unlink a third of the rows: deletes route one unlink DML each.
    for i in (0..n).step_by(3) {
        let mut tx = sys.begin();
        tx.delete("t", &Value::Int(i as i64)).unwrap();
        tx.commit().unwrap();
    }

    let mut total = 0;
    for i in 0..shards {
        let stats = &sys.node(&shard_name(i)).unwrap().server.stats;
        let dml = stats.links.get() + stats.unlinks.get();
        assert_eq!(
            router.routed(i),
            dml,
            "router decisions for shard {i} must equal the DML the shard served"
        );
        total += dml;
    }
    assert_eq!(total, n as u64 + n as u64 / 3, "every link and unlink routed exactly once");
}

/// A directory's rename or chmod reaches every file below it, whichever
/// shard holds the file's link: DLFS asks every shard, and the one holding
/// the link refuses, as one node does for all its files unsharded.
#[test]
fn a_directory_holding_a_link_on_another_shard_refuses_rename_and_chmod() {
    let sys = build(2, 0, 0);
    let dir = "/d0";
    let router = ShardRouter::new(SRV, 2);
    let file = (0..4096)
        .map(|k| format!("{dir}/g{k}.bin"))
        .find(|p| router.shard_of(p) != router.shard_of(dir))
        .expect("some candidate path hashes to the other shard");
    let raw = sys.raw_fs(SRV).unwrap();
    raw.mkdir_p(&APP, dir, 0o777).unwrap();
    seed_file(&sys, &file, b"linked");
    link_row(&sys, 1, &file);

    let fs = sys.fs(SRV).unwrap();
    let refused = |outcome: Result<(), FsError>| match outcome {
        Err(FsError::Rejected(msg)) => assert!(msg.contains(&file), "{msg}"),
        other => panic!("{dir} holds linked {file}, yet the mutation returned {other:?}"),
    };
    refused(fs.rename(&APP, dir, "/d1"));
    refused(fs.setattr(&APP, dir, &SetAttr::chmod(0o700)).map(|_| ()));
    assert!(raw.exists(&Cred::root(), &file), "the linked file stays where its row says");
}

/// A file server handle taken before a node fails over reaches the
/// promoted node afterwards, sharded or not: the mount outlives the
/// failover, which swaps the promoted node's client into its slot. The
/// node that fails over is the last shard's, and the read is of a file it
/// holds.
fn held_mount_reaches_the_promoted_node(shards: usize) {
    let mut sys = build(shards, 1, 0);
    let last = shards - 1;
    let node = if shards == 1 { SRV.to_string() } else { shard_name(last) };
    let path = path_on(shards, last, "held");
    seed_file(&sys, &path, b"before the failover");
    link_row(&sys, 1, &path);
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());

    let held = sys.fs(SRV).unwrap();
    let deposed = Arc::clone(&sys.node(&node).unwrap().server);
    sys.fail_over(&node).unwrap();
    let promoted = Arc::clone(&sys.node(&node).unwrap().server);
    let checks = || (deposed.stats.open_checks.get(), promoted.stats.open_checks.get());
    let before = checks();

    let (_, tp) = sys.select_datalink("t", &Value::Int(1), "body", TokenKind::Read).unwrap();
    let fd = held.open(&APP, &tp, OpenOptions::read_only()).unwrap();
    assert_eq!(held.read_to_end(fd).unwrap(), b"before the failover");
    held.close(fd).unwrap();

    let after = checks();
    assert_eq!(after.0 - before.0, 0, "{shards} shard(s): the deposed node answered");
    assert_eq!(after.1 - before.1, 1, "{shards} shard(s): the promoted node was not asked");
}

#[test]
fn a_mount_held_across_a_failover_reaches_the_promoted_node() {
    held_mount_reaches_the_promoted_node(1);
}

#[test]
fn a_mount_held_across_a_shard_failover_reaches_the_promoted_shard() {
    held_mount_reaches_the_promoted_node(2);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Routing is a pure function of (logical name, shard count, path):
    /// rebuilding the router — as crash recovery and failover do — must
    /// assign every path to the same shard, and routing traffic through
    /// one router must not perturb its assignments.
    #[test]
    fn routing_is_stable_across_router_rebuilds(
        shards in 1usize..=8,
        paths in proptest::collection::vec("/[a-z]{1,3}/[a-z0-9]{1,12}", 1..40),
    ) {
        let a = ShardRouter::new(SRV, shards);
        let b = ShardRouter::new(SRV, shards);
        for p in &paths {
            let shard = a.shard_of(p);
            prop_assert!(shard < shards);
            prop_assert_eq!(shard, b.shard_of(p), "rebuild moved {}", p);
            // Counted routing (the DML path) picks the same shard.
            prop_assert_eq!(a.route(p), b.name_of(shard));
            prop_assert_eq!(a.shard_of(p), shard, "routing traffic perturbed the hash");
        }
    }

    /// Over a large random path population the hash spreads load within
    /// 2x of uniform on every shard — no shard becomes a hot spot and the
    /// a13 scale-out claim has a routing-level basis.
    #[test]
    fn distribution_stays_within_2x_of_uniform(
        salt in 0u64..1_000_000,
        shards in 2usize..=8,
    ) {
        let n_paths = 512usize;
        let router = ShardRouter::new(SRV, shards);
        let mut counts = vec![0usize; shards];
        for i in 0..n_paths {
            let path = format!("/vol{:x}/dir{}/file{:08x}.dat", salt & 0xF, i % 7, salt ^ (i as u64) << 13);
            counts[router.shard_of(&path)] += 1;
        }
        let uniform = n_paths / shards;
        for (i, &c) in counts.iter().enumerate() {
            prop_assert!(
                c <= 2 * uniform,
                "shard {} holds {} of {} paths (uniform {}, {} shards)",
                i, c, n_paths, uniform, shards
            );
        }
    }
}
