//! Whole-system atomicity properties (§4.2): no matter where a crash lands
//! in a sequence of update-in-place cycles, recovery leaves every linked
//! file at *some committed version*, with file content and database
//! metadata agreeing — never a torn or half-applied state.

use std::sync::Arc;

use proptest::prelude::*;

use datalinks::core::{DataLinksSystem, DlColumnOptions};
use datalinks::dlfm::{ControlMode, TokenKind};
use datalinks::fskit::{Cred, OpenOptions, SimClock};
use datalinks::minidb::{Column, ColumnType, Schema, Value};

const APP: Cred = Cred { uid: 100, gid: 100 };

fn build() -> DataLinksSystem {
    let sys = DataLinksSystem::builder()
        .clock(Arc::new(SimClock::new(1_000_000)))
        .file_server("srv")
        .build()
        .unwrap();
    let raw = sys.raw_fs("srv").unwrap();
    raw.mkdir_p(&Cred::root(), "/d", 0o777).unwrap();
    raw.write_file(&APP, "/d/f.bin", b"version-1").unwrap();
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
    sys.define_datalink_column("t", "body", DlColumnOptions::new(ControlMode::Rdd)).unwrap();
    let mut tx = sys.begin();
    tx.insert("t", vec![Value::Int(1), Value::DataLink("dlfs://srv/d/f.bin".into())]).unwrap();
    tx.commit().unwrap();
    sys
}

fn content_of(v: usize) -> Vec<u8> {
    format!("version-{v}").into_bytes()
}

fn update(sys: &DataLinksSystem, content: &[u8]) {
    let (_, path) = sys.select_datalink("t", &Value::Int(1), "body", TokenKind::Write).unwrap();
    let fs = sys.fs("srv").unwrap();
    let fd = fs.open(&APP, &path, OpenOptions::write_truncate()).unwrap();
    fs.write(fd, content).unwrap();
    fs.close(fd).unwrap();
    sys.node("srv").unwrap().server.archive_store().wait_archived("/d/f.bin");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Crash after `committed` clean updates, with `dirty` uncommitted
    /// bytes possibly in flight: recovery restores exactly the last
    /// committed content and the metadata version agrees.
    #[test]
    fn crash_anywhere_preserves_atomicity(
        committed in 1usize..5,
        crash_mid_update in any::<bool>(),
        dirty in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let sys = build();
        for v in 2..=committed + 1 {
            update(&sys, &content_of(v));
        }
        let expected = content_of(committed + 1);
        let expected_version = (committed + 1) as u64;

        if crash_mid_update {
            let (_, path) = sys
                .select_datalink("t", &Value::Int(1), "body", TokenKind::Write)
                .unwrap();
            let fs = sys.fs("srv").unwrap();
            let fd = fs.open(&APP, &path, OpenOptions::write_truncate()).unwrap();
            fs.write(fd, &dirty).unwrap();
            // no close — crash takes the torn write down with it
        }

        let image = sys.crash();
        let (sys, _) = DataLinksSystem::recover(image).unwrap();

        let data = sys
            .raw_fs("srv")
            .unwrap()
            .read_file(&Cred::root(), "/d/f.bin")
            .unwrap();
        prop_assert_eq!(&data, &expected, "file must hold the last committed version");

        let url = datalinks::core::DatalinkUrl::parse("dlfs://srv/d/f.bin").unwrap();
        let (_, _, version) = sys.engine().file_meta(&url).unwrap();
        prop_assert_eq!(version, expected_version, "metadata agrees with the file");

        // The system still works: one more update commits cleanly.
        update(&sys, b"post-recovery");
        let data = sys
            .raw_fs("srv")
            .unwrap()
            .read_file(&Cred::root(), "/d/f.bin")
            .unwrap();
        prop_assert_eq!(data, b"post-recovery".to_vec());
    }

    /// Double crash (crash during recovery's aftermath) is still safe:
    /// recovery is idempotent.
    #[test]
    fn recovery_is_idempotent_under_repeated_crashes(extra_crashes in 1usize..4) {
        let sys = build();
        update(&sys, b"the committed truth");

        // Torn write then crash.
        let (_, path) = sys
            .select_datalink("t", &Value::Int(1), "body", TokenKind::Write)
            .unwrap();
        let fs = sys.fs("srv").unwrap();
        let fd = fs.open(&APP, &path, OpenOptions::write_truncate()).unwrap();
        fs.write(fd, b"torn").unwrap();
        let _ = fd;

        let mut image = sys.crash();
        for _ in 0..extra_crashes {
            let (sys, _) = DataLinksSystem::recover(image).unwrap();
            image = sys.crash();
        }
        let (sys, _) = DataLinksSystem::recover(image).unwrap();
        let data = sys
            .raw_fs("srv")
            .unwrap()
            .read_file(&Cred::root(), "/d/f.bin")
            .unwrap();
        prop_assert_eq!(data, b"the committed truth".to_vec());
    }
}

/// Crash points of the checkpoint-and-truncate protocol, at the database
/// level: whatever instant the crash lands on — before the checkpoint,
/// after it, mid-truncation with a torn control record, or with a torn
/// snapshot slot — recovery must produce the same committed state.
mod checkpoint_truncation_crashes {
    use datalinks::minidb::snapshot::latest_valid_snapshot;
    use datalinks::minidb::{
        Column, ColumnType, Database, DbError, DbOptions, Schema, StorageEnv, Value,
    };

    fn open(env: &StorageEnv) -> Database {
        Database::open(env.clone()).unwrap()
    }

    fn seeded(n: i64) -> (StorageEnv, Database) {
        let env = StorageEnv::mem();
        let db = open(&env);
        db.create_table(
            Schema::new(
                "t",
                vec![Column::new("id", ColumnType::Int), Column::new("v", ColumnType::Text)],
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        for i in 0..n {
            let mut tx = db.begin();
            tx.insert("t", vec![Value::Int(i), Value::Text(format!("v{i}"))]).unwrap();
            tx.commit().unwrap();
        }
        (env, db)
    }

    fn state(db: &Database) -> Vec<Vec<Value>> {
        let mut rows = db.scan_committed("t").unwrap();
        rows.sort_by_key(|r| r[0].as_int().unwrap());
        rows
    }

    #[test]
    fn crash_after_checkpoint_truncate_equals_crash_before() {
        let (env, db) = seeded(12);
        let before = env.fork().unwrap(); // the disks the instant before
        db.checkpoint_and_truncate().unwrap();
        let after = env.fork().unwrap(); // ...and the instant after
        assert!(db.wal_base_lsn() > 0);
        drop(db);

        let db_before = open(&before);
        let db_after = open(&after);
        assert_eq!(state(&db_before), state(&db_after), "recovery equivalence");
        assert!(db_after.wal_base_lsn() > 0, "truncation survives the crash");
        // Both recoveries accept new commits.
        for db in [&db_before, &db_after] {
            let mut tx = db.begin();
            tx.insert("t", vec![Value::Int(100), Value::Text("post".into())]).unwrap();
            tx.commit().unwrap();
            assert_eq!(db.count("t").unwrap(), 13);
        }
    }

    #[test]
    fn torn_wal_ctl_record_recovers_pre_truncation_state() {
        // The control-record flip is the truncation's commit point. Tear
        // the record the flip wrote (the first truncation writes ctl seq 1,
        // which lives in ctl slot 1 at byte offset 32): recovery must fall
        // back to the untruncated slot — which still holds the full log —
        // and lose nothing.
        let (env, db) = seeded(8);
        db.checkpoint_and_truncate().unwrap();
        let expected = state(&db);
        drop(db);
        env.device("wal.ctl").unwrap().write_at(32, &[0xFF; 28]).unwrap();

        let db = open(&env);
        assert_eq!(db.wal_base_lsn(), 0, "torn flip means the truncation never happened");
        assert_eq!(state(&db), expected, "no committed state lost either way");
        let mut tx = db.begin();
        tx.insert("t", vec![Value::Int(100), Value::Text("post".into())]).unwrap();
        tx.commit().unwrap();
    }

    #[test]
    fn torn_snapshot_slot_without_truncation_falls_back_to_replay() {
        // A crash mid-checkpoint (before any truncation) tears the slot
        // being written; the full log is still there, so recovery replays
        // it and the state is exactly the pre-checkpoint one.
        let (env, db) = seeded(8);
        db.checkpoint().unwrap(); // generation 1 lands in snap.a
        let expected = state(&db);
        drop(db);
        env.device("snap.a").unwrap().write_at(0, &[0xFF; 64]).unwrap();

        let db = open(&env);
        assert_eq!(state(&db), expected);
    }

    #[test]
    fn unforced_commit_survives_truncation() {
        // An unforced commit (a close record, a link/unlink branch's end) is
        // still sitting in the group-commit batch when the checkpoint runs.
        // The image holds its rows, and the log below the image's base must
        // hold its record, so a crash right after the truncation recovers
        // the committed state as is.
        let (env, db) = seeded(1);
        let mut tx = db.begin();
        tx.insert("t", vec![Value::Int(50), Value::Text("unforced".into())]).unwrap();
        tx.commit_unforced().unwrap();
        assert!(db.durable_lsn() < db.state_id(), "the commit is batched, not synced");
        let (_, base) = db.checkpoint_and_truncate().unwrap();
        assert!(db.durable_lsn() >= base, "the checkpoint flushed it below its base");
        let image = latest_valid_snapshot(&env, |_| true).unwrap().expect("snapshot");
        assert_eq!(image.tables["t"].len(), 2);
        drop(db);

        let db = open(&env);
        assert_eq!(db.count("t").unwrap(), 2);
    }

    #[test]
    fn point_in_time_restore_below_low_water_mark_is_refused() {
        // Truncation trades PITR depth for bounded logs; asking for a state
        // below the low-water mark must fail loudly, not restore garbage.
        let (env, db) = seeded(1);
        let mut tx = db.begin();
        tx.insert("t", vec![Value::Int(10), Value::Text("early".into())]).unwrap();
        let early = tx.commit().unwrap();
        for i in 20..30 {
            let mut tx = db.begin();
            tx.insert("t", vec![Value::Int(i), Value::Text("later".into())]).unwrap();
            tx.commit().unwrap();
        }
        db.checkpoint_and_truncate().unwrap();
        let backup = db.backup().unwrap();
        match Database::open_with(
            backup,
            DbOptions { stop_at_lsn: Some(early), ..Default::default() },
        ) {
            Err(DbError::TruncatedLog { .. }) => {}
            Err(e) => panic!("expected TruncatedLog, got {e}"),
            Ok(_) => panic!("restore below the low-water mark must be refused"),
        }
        drop(env);
    }
}

/// In-doubt edges of the host-coordinator failover: the host dies at the
/// worst moments of its own two-phase commit. The staging drives the DLFM
/// agent protocol directly so the crash lands between vote and decision; the
/// promoted standby must settle every sub-transaction the old coordinator
/// left behind — by the replicated decision when one shipped, by presumed
/// abort when none did.
mod host_failover_2pc {
    use std::sync::Arc;
    use std::time::Duration;

    use datalinks::core::{DataLinksSystem, DlColumnOptions};
    use datalinks::dlfm::{AgentConnection, ControlMode, DlfmClient, OnUnlink};
    use datalinks::fskit::{Cred, SimClock};
    use datalinks::minidb::{Column, ColumnType, Schema, Value};

    const APP: Cred = Cred { uid: 100, gid: 100 };
    const SRV: &str = "srv";
    const CATCH_UP: Duration = Duration::from_secs(30);

    fn build(host_replicas: usize) -> DataLinksSystem {
        let sys = DataLinksSystem::builder()
            .clock(Arc::new(SimClock::new(1_000_000)))
            .host_replicas(host_replicas)
            .file_server(SRV)
            .build()
            .unwrap();
        let raw = sys.raw_fs(SRV).unwrap();
        raw.mkdir_p(&Cred::root(), "/d", 0o777).unwrap();
        raw.write_file(&APP, "/d/new.bin", b"link candidate").unwrap();
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
        sys.define_datalink_column("t", "body", DlColumnOptions::new(ControlMode::Rdd)).unwrap();
        // Host shipping is asynchronous: a test that fails the host over
        // right away must still find the schema on the standby it promotes.
        assert!(sys.wait_host_replicas_caught_up(CATCH_UP));
        sys
    }

    /// A participant whose decision message dies with the coordinator: the
    /// link's vote went through, the decision never reaches the DLFM.
    struct LostDecision(DlfmClient);

    impl datalinks::minidb::Participant for LostDecision {
        fn commit(&self, _txid: u64) {}
        fn abort(&self, txid: u64) {
            AgentConnection::abort(&self.0, txid);
        }
    }

    #[test]
    fn crash_between_prepare_and_decision_presumed_aborts() {
        let mut sys = build(1);
        let agent = sys.node(SRV).unwrap().connect_agent();
        let tx = sys.begin();
        let txid = tx.id();
        agent.link(txid, "/d/new.bin", ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
        assert_eq!(sys.node(SRV).unwrap().server.pending_host_txns(), vec![txid]);
        // The coordinator dies with the sub-transaction voted and no
        // decision logged anywhere.
        std::mem::forget(tx);

        let report = sys.fail_over_host().unwrap();
        assert_eq!(
            report.in_doubt_resolved,
            vec![(SRV.to_string(), txid, false)],
            "an undecided voted claim is presumed aborted"
        );
        let server = Arc::clone(&sys.node(SRV).unwrap().server);
        assert!(server.pending_host_txns().is_empty(), "promotion settles every claim");
        assert!(
            server.repository().get_file("/d/new.bin").is_none(),
            "the aborted link leaves nothing behind"
        );

        // The promoted coordinator runs the same link to completion.
        let mut tx = sys.begin();
        tx.insert("t", vec![Value::Int(1), Value::DataLink(format!("dlfs://{SRV}/d/new.bin"))])
            .unwrap();
        tx.commit().unwrap();
        assert!(server.repository().get_file("/d/new.bin").is_some());
    }

    #[test]
    fn shipped_decision_is_finished_by_the_promoted_host() {
        let mut sys = build(1);
        let agent = sys.node(SRV).unwrap().connect_agent();
        let mut tx = sys.begin();
        let txid = tx.id();
        // Enlisted first, under the engine's own participant name, so the
        // engine's enlist for the link below dedupes against it.
        sys.db().enlist_participant(txid, &format!("dlfm@{SRV}"), Arc::new(LostDecision(agent)));
        tx.insert("t", vec![Value::Int(1), Value::DataLink(format!("dlfs://{SRV}/d/new.bin"))])
            .unwrap();
        // Durably logs the commit decision — the file's metadata row with
        // it — but the decision message dies with the coordinator.
        tx.commit().unwrap();
        assert_eq!(sys.node(SRV).unwrap().server.pending_host_txns(), vec![txid]);
        assert!(sys.wait_host_replicas_caught_up(CATCH_UP), "the decision must ship");

        let report = sys.fail_over_host().unwrap();
        assert_eq!(
            report.in_doubt_resolved,
            vec![(SRV.to_string(), txid, true)],
            "a decision in the replicated log is finished, not re-decided"
        );
        let server = &sys.node(SRV).unwrap().server;
        assert!(server.pending_host_txns().is_empty());
        assert!(
            server.repository().get_file("/d/new.bin").is_some(),
            "the decided link commits exactly once"
        );
    }
}

/// PR 9: the same in-doubt edges with the logical server partitioned
/// across shards — the coordinator's 2PC fans out to one participant per
/// shard, and its crash must leave *both* shards consistent with the one
/// durable truth (the replicated decision, or its absence).
mod sharded_host_failover_2pc {
    use std::sync::Arc;
    use std::time::Duration;

    use datalinks::core::{DataLinksSystem, DlColumnOptions, FileServerSpec, ShardRouter};
    use datalinks::dlfm::{AgentConnection, ControlMode, DlfmClient, OnUnlink};
    use datalinks::fskit::{Cred, SimClock};
    use datalinks::minidb::{Column, ColumnType, Schema, Value};

    const APP: Cred = Cred { uid: 100, gid: 100 };
    const SRV: &str = "srv1";
    const CATCH_UP: Duration = Duration::from_secs(30);

    fn shard_name(i: usize) -> String {
        ShardRouter::shard_name(SRV, i)
    }

    /// A `/d` path the two-way router places on shard `want`.
    fn path_on(want: usize, tag: &str) -> String {
        let router = ShardRouter::new(SRV, 2);
        (0..).map(|k| format!("/d/{tag}{k}.bin")).find(|p| router.shard_of(p) == want).unwrap()
    }

    fn build() -> DataLinksSystem {
        let sys = DataLinksSystem::builder()
            .clock(Arc::new(SimClock::new(1_000_000)))
            .host_replicas(1)
            .file_server_with(FileServerSpec::new(SRV).shards(2))
            .build()
            .unwrap();
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
        sys.define_datalink_column("t", "body", DlColumnOptions::new(ControlMode::Rdd)).unwrap();
        // Host shipping is asynchronous: a test that fails the host over
        // right away must still find the schema on the standby it promotes.
        assert!(sys.wait_host_replicas_caught_up(CATCH_UP));
        sys
    }

    /// A participant whose decision message dies with the coordinator.
    struct LostDecision(DlfmClient);

    impl datalinks::minidb::Participant for LostDecision {
        fn commit(&self, _txid: u64) {}
        fn abort(&self, txid: u64) {
            AgentConnection::abort(&self.0, txid);
        }
    }

    #[test]
    fn prepare_on_shard_a_without_any_decision_presumed_aborts_both_shards() {
        // Both shards voted with their links; the coordinator died before
        // logging an outcome. Failover must settle both shards by presumed
        // abort: both come out identical — untouched.
        let mut sys = build();
        let pa = path_on(0, "vote");
        let pb = path_on(1, "vote");
        let raw = sys.raw_fs(SRV).unwrap();
        raw.write_file(&APP, &pa, b"cand-a").unwrap();
        raw.write_file(&APP, &pb, b"cand-b").unwrap();

        let a = sys.node(&shard_name(0)).unwrap().connect_agent();
        let b = sys.node(&shard_name(1)).unwrap().connect_agent();
        let tx = sys.begin();
        let txid = tx.id();
        a.link(txid, &pa, ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
        b.link(txid, &pb, ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
        std::mem::forget(tx);

        let report = sys.fail_over_host().unwrap();
        let mut resolved = report.in_doubt_resolved.clone();
        resolved.sort();
        assert_eq!(
            resolved,
            vec![(shard_name(0), txid, false), (shard_name(1), txid, false)],
            "both shards settle by presumed abort"
        );
        for (i, p) in [&pa, &pb].into_iter().enumerate() {
            let node = sys.node(&shard_name(i)).unwrap();
            assert!(node.server.pending_host_txns().is_empty(), "shard {i} fully settled");
            assert!(
                node.server.repository().get_file(p).is_none(),
                "presumed abort may leave no link on shard {i}"
            );
        }

        // The promoted coordinator runs the same cross-shard link cleanly.
        let mut tx = sys.begin();
        tx.insert("t", vec![Value::Int(0), Value::DataLink(format!("dlfs://{SRV}{pa}"))]).unwrap();
        tx.insert("t", vec![Value::Int(1), Value::DataLink(format!("dlfs://{SRV}{pb}"))]).unwrap();
        tx.commit().unwrap();
        assert!(sys.node(&shard_name(0)).unwrap().server.repository().get_file(&pa).is_some());
        assert!(sys.node(&shard_name(1)).unwrap().server.repository().get_file(&pb).is_some());
    }

    #[test]
    fn decision_unshipped_to_shard_b_is_finished_from_the_replicated_log() {
        // Both shards voted yes and the commit decision is durable in the
        // replicated host log — but the decision message to shard B died
        // with the coordinator. The promoted host must *finish* B from the
        // logged decision, not re-decide it: both shards end committed.
        let mut sys = build();
        let pa = path_on(0, "done");
        let pb = path_on(1, "done");
        let raw = sys.raw_fs(SRV).unwrap();
        raw.write_file(&APP, &pa, b"cand-a").unwrap();
        raw.write_file(&APP, &pb, b"cand-b").unwrap();

        let b = sys.node(&shard_name(1)).unwrap().connect_agent();
        let mut tx = sys.begin();
        let txid = tx.id();
        // Enlisted first, under the engine's own name for shard B, so the
        // engine's enlist for the link below dedupes against it.
        sys.db().enlist_participant(
            txid,
            &format!("dlfm@{}", shard_name(1)),
            Arc::new(LostDecision(b)),
        );
        tx.insert("t", vec![Value::Int(0), Value::DataLink(format!("dlfs://{SRV}{pa}"))]).unwrap();
        tx.insert("t", vec![Value::Int(1), Value::DataLink(format!("dlfs://{SRV}{pb}"))]).unwrap();
        tx.commit().unwrap(); // the decision lands on A, dies on the way to B
        assert!(sys.node(&shard_name(0)).unwrap().server.pending_host_txns().is_empty());
        assert_eq!(sys.node(&shard_name(1)).unwrap().server.pending_host_txns(), vec![txid]);
        assert!(sys.wait_host_replicas_caught_up(CATCH_UP), "the decision must ship");

        let report = sys.fail_over_host().unwrap();
        assert_eq!(
            report.in_doubt_resolved,
            vec![(shard_name(1), txid, true)],
            "shard B is finished from the replicated decision, not re-decided"
        );
        for (i, p) in [&pa, &pb].into_iter().enumerate() {
            let node = sys.node(&shard_name(i)).unwrap();
            assert!(node.server.pending_host_txns().is_empty());
            assert!(
                node.server.repository().get_file(p).is_some(),
                "the decided link commits exactly once on shard {i}"
            );
        }
    }
}

/// The crash-boundary torn write, end to end: a commit the live process
/// believed durable never reached the platter; the crash — and only the
/// crash — reveals the shear, and recovery loses exactly that commit.
#[test]
fn torn_host_wal_tail_loses_exactly_the_sheared_commit() {
    use datalinks::minidb::{DiskFaults, StorageEnv};

    let faults = DiskFaults::new();
    let env = StorageEnv::mem_with_faults(Arc::clone(&faults), 0);
    let sys = DataLinksSystem::builder()
        .clock(Arc::new(SimClock::new(1_000_000)))
        .host_env(env.clone())
        .file_server("srv")
        .build()
        .unwrap();
    sys.create_table(
        Schema::new(
            "p",
            vec![Column::new("id", ColumnType::Int), Column::new("v", ColumnType::Text)],
            "id",
        )
        .unwrap(),
    )
    .unwrap();
    let mut tx = sys.begin();
    tx.insert("p", vec![Value::Int(1), Value::Text("durable".into())]).unwrap();
    tx.commit().unwrap();

    let before = env.device("wal").unwrap().len().unwrap();
    let mut tx = sys.begin();
    tx.insert("p", vec![Value::Int(2), Value::Text("torn".into())]).unwrap();
    tx.commit().unwrap();
    let after = env.device("wal").unwrap().len().unwrap();
    faults.arm_torn_tail("wal", after - before);

    // The live system still sees both rows — the tear is invisible until
    // the crash applies it.
    assert_eq!(sys.db().count("p").unwrap(), 2);
    let image = sys.crash();
    let (sys, _) = DataLinksSystem::recover(image).unwrap();

    assert_eq!(sys.db().count("p").unwrap(), 1, "exactly the sheared commit is lost");
    assert!(sys.db().get_committed("p", &Value::Int(1)).unwrap().is_some());
    assert!(sys.db().get_committed("p", &Value::Int(2)).unwrap().is_none());
    // The recovered log accepts new commits past the shear point.
    let mut tx = sys.begin();
    tx.insert("p", vec![Value::Int(3), Value::Text("post".into())]).unwrap();
    tx.commit().unwrap();
    assert_eq!(sys.db().count("p").unwrap(), 2);
}

/// Deterministic companion: a crash exactly between the host commit and the
/// archive completion must not lose the committed version (the
/// needs_archive recovery path).
#[test]
fn crash_between_commit_and_archive_recovers_version() {
    let sys = build();
    // Commit an update but crash immediately, racing the archiver.
    let (_, path) = sys.select_datalink("t", &Value::Int(1), "body", TokenKind::Write).unwrap();
    let fs = sys.fs("srv").unwrap();
    let fd = fs.open(&APP, &path, OpenOptions::write_truncate()).unwrap();
    fs.write(fd, b"committed v2").unwrap();
    fs.close(fd).unwrap();
    // Crash without waiting for the archive.
    let image = sys.crash();
    let (sys, _) = DataLinksSystem::recover(image).unwrap();

    let data = sys.raw_fs("srv").unwrap().read_file(&Cred::root(), "/d/f.bin").unwrap();
    assert_eq!(data, b"committed v2");
    // The archive holds v2 after recovery (re-archived if the job was lost).
    let archived = sys.node("srv").unwrap().server.archive_store().get("/d/f.bin", 2);
    assert!(archived.is_some(), "committed version must be archived after recovery");
    assert_eq!(archived.unwrap().data, b"committed v2");
}

/// Token entries and Sync entries live in DLFM's memory (they describe open
/// descriptors): a crash with a write open granted loses both — and nothing
/// recovery needs. The file's write-grant attributes still drive the
/// rollback, the surviving token string must be validated afresh before it
/// admits anyone, and no ghost Sync row blocks the unlink.
#[test]
fn crash_with_a_granted_write_open_loses_only_the_open_file_state() {
    let sys = build();
    update(&sys, b"the committed truth");

    let (_, write_path) =
        sys.select_datalink("t", &Value::Int(1), "body", TokenKind::Write).unwrap();
    let fs = sys.fs("srv").unwrap();
    let fd = fs.open(&APP, &write_path, OpenOptions::write_truncate()).unwrap();
    fs.write(fd, b"torn").unwrap();
    let _ = fd; // never closed: the crash takes the descriptor down
    {
        let node = sys.node("srv").unwrap();
        let repo = node.server.repository();
        let now = node.server.clock().now_ms();
        assert!(repo.get_uip("/d/f.bin").is_some());
        assert_eq!(repo.sync_entries("/d/f.bin").len(), 1);
        assert!(repo.check_token_entry(APP.uid, "/d/f.bin", TokenKind::Write, now));
        // The live Sync row does its job: unlink is refused while open.
        let mut tx = sys.begin();
        assert!(tx.delete("t", &Value::Int(1)).is_err());
        tx.abort();
    }

    let (sys, reports) = DataLinksSystem::recover(sys.crash()).unwrap();
    assert_eq!(reports["srv"].updates_rolled_back, 1, "the grant's attributes drove the rollback");
    let raw = sys.raw_fs("srv").unwrap();
    assert_eq!(raw.read_file(&Cred::root(), "/d/f.bin").unwrap(), b"the committed truth");
    let url = datalinks::core::DatalinkUrl::parse("dlfs://srv/d/f.bin").unwrap();
    assert_eq!(sys.engine().file_meta(&url).unwrap().2, 2, "metadata still at version 2");

    let node = sys.node("srv").unwrap();
    let repo = node.server.repository();
    let now = node.server.clock().now_ms();
    assert!(repo.get_uip("/d/f.bin").is_none());
    assert!(repo.sync_entries("/d/f.bin").is_empty(), "no ghost Sync row");
    assert!(
        !repo.check_token_entry(APP.uid, "/d/f.bin", TokenKind::Write, now),
        "the pre-crash token entry must not survive"
    );
    // Without an entry the bare name admits nobody; the (unexpired) token
    // string has to go through validation again, and then does.
    let fs = sys.fs("srv").unwrap();
    assert!(fs.open(&APP, "/d/f.bin", OpenOptions::write_truncate()).is_err());
    let fd = fs.open(&APP, &write_path, OpenOptions::write_truncate()).unwrap();
    fs.close(fd).unwrap();

    // Unlink goes through.
    let mut tx = sys.begin();
    tx.delete("t", &Value::Int(1)).unwrap();
    tx.commit().unwrap();
    assert!(repo.get_file("/d/f.bin").is_none());
}

/// A write open whose claim the crash cuts out of the repository's unforced
/// tail: nothing in the log says a write was in flight, but the disk does —
/// the file carries the write grant's attributes — and recovery rolls the
/// write back by them (§4.2), to the last committed bytes and at rest.
#[test]
fn crash_that_cuts_a_write_claim_rolls_the_write_back_by_its_grant_attributes() {
    let sys = build();
    update(&sys, b"the committed truth");
    let repo = sys.node("srv").unwrap().server.repository().db().clone();
    repo.flush().unwrap();
    let (_, write_path) =
        sys.select_datalink("t", &Value::Int(1), "body", TokenKind::Write).unwrap();
    let fs = sys.fs("srv").unwrap();
    let fd = fs.open(&APP, &write_path, OpenOptions::write_truncate()).unwrap();
    fs.write(fd, b"dirty").unwrap();
    let _ = fd; // never closed: the crash takes the descriptor down
    assert!(repo.durable_lsn() < repo.state_id(), "the claim is in the unforced tail");
    drop(repo);

    let (sys, reports) = DataLinksSystem::recover(sys.crash()).unwrap();
    let report = &reports["srv"];
    assert!(report.in_doubt_resolved.is_empty());
    assert_eq!((report.updates_rolled_forward, report.updates_rolled_back), (0, 1));
    let node = sys.node("srv").unwrap();
    assert!(node.server.repository().list_uip().is_empty());
    let raw = sys.raw_fs("srv").unwrap();
    assert_eq!(raw.read_file(&Cred::root(), "/d/f.bin").unwrap(), b"the committed truth");
    let dlfm = node.server.config().dlfm_cred;
    let attr = raw.stat(&Cred::root(), "/d/f.bin").unwrap();
    assert_eq!((attr.uid, attr.gid, attr.mode), (dlfm.uid, dlfm.gid, 0o400), "back at rest");
    let quarantined = node.server.archive_store().quarantined_data("/d/f.bin");
    assert_eq!(quarantined.as_deref(), Some(&b"dirty"[..]), "the dirty bytes are kept aside");

    update(&sys, b"version-3");
    let url = datalinks::core::DatalinkUrl::parse("dlfs://srv/d/f.bin").unwrap();
    assert_eq!(sys.engine().file_meta(&url).unwrap().2, 3, "the next update lands at v+1");
    assert_eq!(raw.read_file(&Cred::root(), "/d/f.bin").unwrap(), b"version-3");
}

/// The window between "the file server is ready" and "the host decided",
/// for every kind of DLFM transaction. Link and unlink are 2PC branches:
/// the branch has voted and the crash lands (a) before the host's `Commit`
/// record or (b) after it but before the branch's own unforced `Commit`.
/// An unlink's vote is its durable intent, which recovery settles by the
/// *host's* metadata row; a link's vote wrote nothing on the file server,
/// so recovery finds the link in the host's row or nowhere. An update has
/// no branch and forces
/// nothing on the file server: its claim at open and its close record are
/// unforced appends, and the host's `Commit` of the metadata row is the one
/// commit point. The same two crash points — (a) host undecided, (b) host
/// committed, the repository's records of the update lost either way —
/// settle by the version in the host's metadata row and the file's
/// attributes: a file still carrying the write grant's rolls back to the
/// host's version under (a), a file at rest rolls forward to it under (b).
///
/// The crash is staged by shearing the logs at record boundaries after a
/// clean run (logs are append-only, so a sheared log *is* the log as of
/// that instant). What no shear can take back is the file-server side of a
/// finished run — the archive copy of the new version, the attributes an
/// unlink restored — so case (a) of a link or an unlink asserts on link
/// state, content and metadata only, and case (a) of an update puts back
/// the write grant's attributes a crash before the host's `Commit` finds.
mod in_doubt_branch_follows_the_host_outcome {
    use std::sync::Arc;

    use datalinks::core::{DataLinksSystem, DatalinkUrl, DlColumnOptions, FileServerSpec};
    use datalinks::dlfm::RecoveryReport;
    use datalinks::dlfm::{ControlMode, TokenKind};
    use datalinks::fskit::{Cred, OpenOptions, SetAttr, SimClock};
    use datalinks::minidb::wal::{read_until, WalRecord};
    use datalinks::minidb::{Column, ColumnType, Lsn, RowOp, Schema, StorageEnv, Value};

    const APP: Cred = Cred { uid: 100, gid: 100 };
    const SRV: &str = "srv";

    struct Rig {
        sys: DataLinksSystem,
        host_env: StorageEnv,
        repo_env: StorageEnv,
    }

    /// `/d/f.bin` linked as row 1 at version 1, the link's branch end on
    /// the repository's disk; `/d/new.bin` on disk, unlinked.
    fn rig() -> Rig {
        let (host_env, repo_env) = (StorageEnv::mem(), StorageEnv::mem());
        let mut spec = FileServerSpec::new(SRV);
        spec.repo_env = repo_env.clone();
        let sys = DataLinksSystem::builder()
            .clock(Arc::new(SimClock::new(1_000_000)))
            .host_env(host_env.clone())
            .file_server_with(spec)
            .build()
            .unwrap();
        let raw = sys.raw_fs(SRV).unwrap();
        raw.mkdir_p(&Cred::root(), "/d", 0o777).unwrap();
        raw.write_file(&APP, "/d/f.bin", b"version-1").unwrap();
        raw.write_file(&APP, "/d/new.bin", b"candidate").unwrap();
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
        sys.define_datalink_column("t", "body", DlColumnOptions::new(ControlMode::Rdd)).unwrap();
        link(&sys, 1, "/d/f.bin");
        sys.node(SRV).unwrap().server.repository().db().flush().unwrap();
        Rig { sys, host_env, repo_env }
    }

    fn link(sys: &DataLinksSystem, id: i64, path: &str) {
        let mut tx = sys.begin();
        tx.insert("t", vec![Value::Int(id), Value::DataLink(format!("dlfs://{SRV}{path}"))])
            .unwrap();
        tx.commit().unwrap();
    }

    fn unlink(sys: &DataLinksSystem, id: i64) {
        let mut tx = sys.begin();
        tx.delete("t", &Value::Int(id)).unwrap();
        tx.commit().unwrap();
    }

    fn update(sys: &DataLinksSystem, content: &[u8]) {
        let (_, path) = sys.select_datalink("t", &Value::Int(1), "body", TokenKind::Write).unwrap();
        let fs = sys.fs(SRV).unwrap();
        let fd = fs.open(&APP, &path, OpenOptions::write_truncate()).unwrap();
        fs.write(fd, content).unwrap();
        fs.close(fd).unwrap();
        sys.node(SRV).unwrap().server.archive_store().wait_archived("/d/f.bin");
    }

    /// Shears `env`'s log just below the last record at or above `from`
    /// that matches `which`: that record and everything after it never
    /// reached the disk. Returns whether there was such a record.
    fn shear_from_last(env: &StorageEnv, from: Lsn, which: impl Fn(&WalRecord) -> bool) -> bool {
        let dev = env.device("wal").unwrap();
        let records = read_until(&dev, 0, None).unwrap();
        let at = records.iter().rev().find(|(lsn, rec)| *lsn >= from && which(rec));
        if let Some((lsn, _)) = at {
            dev.set_len(*lsn).unwrap();
        }
        at.is_some()
    }

    /// A host commit that carries a `__dl_meta` op — `alone` for an
    /// update's close, beside the user row's op for a link or an unlink.
    fn is_meta_commit(rec: &WalRecord, alone: bool) -> bool {
        matches!(rec, WalRecord::Commit { ops, .. }
            if ops.iter().any(|op| op.table() == "__dl_meta")
                && ops.iter().all(|op| op.table() == "__dl_meta") == alone)
    }

    /// Runs `op`, crashes, shears the repository log below the branch's
    /// end — the commit that removes an unlink's intent or inserts a link's
    /// row — and, for a crash *before* the host's decision, the host log
    /// below the op's `Commit`; then recovers. (The branch's end is an
    /// unforced append: when nothing flushed it before the crash it is
    /// already gone, which is the same disk.) An unlink leaves its intent
    /// in doubt; a link leaves nothing to settle. A link's take-over waits
    /// for the decision, so a crash before the host's `Commit` finds
    /// `/d/new.bin` still with its owner's attributes: they are put back.
    fn crash_in_the_window(
        rig: Rig,
        host_committed: bool,
        unlinks: bool,
        op: impl FnOnce(&DataLinksSystem),
    ) -> DataLinksSystem {
        let Rig { sys, host_env, repo_env } = rig;
        let host_mark = sys.state_id();
        let repo_mark = sys.node(SRV).unwrap().server.repository().db().state_id();
        op(&sys);
        let raw = sys.raw_fs(SRV).unwrap();
        let image = sys.crash();
        if !host_committed && !unlinks {
            let owner = SetAttr {
                uid: Some(APP.uid),
                gid: Some(APP.gid),
                mode: Some(0o644),
                ..Default::default()
            };
            raw.setattr(&Cred::root(), "/d/new.bin", &owner).unwrap();
        }
        shear_from_last(&repo_env, repo_mark, |rec| {
            matches!(rec, WalRecord::Commit { ops, .. } if ops.iter().any(|op| matches!(op,
                RowOp::Delete { table, .. } if table == "dl_intents")
                || matches!(op, RowOp::Insert { table, .. } if table == "dl_files"),
            ))
        });
        if !host_committed {
            assert!(shear_from_last(&host_env, host_mark, |rec| is_meta_commit(rec, false)));
        }
        let (sys, reports) = DataLinksSystem::recover(image).unwrap();
        let resolved: Vec<bool> =
            reports[SRV].in_doubt_resolved.iter().map(|(_, commit)| *commit).collect();
        let in_doubt = if unlinks { vec![host_committed] } else { vec![] };
        assert_eq!(resolved, in_doubt, "one surviving unlink branch, settled the host's way");
        sys
    }

    /// The repository's record of a finished close: the commit that
    /// deletes the `dl_uip` claim (and bumps `dl_files` with it).
    fn is_close_record(rec: &WalRecord) -> bool {
        matches!(rec, WalRecord::Commit { ops, .. } if ops.iter().any(
            |op| matches!(op, RowOp::Delete { table, .. } if table == "dl_uip"),
        ))
    }

    /// Runs one update of `/d/f.bin`, crashes, shears the repository log
    /// below the update's close record — an unforced append: when nothing
    /// flushed it before the crash it is already gone, which is the same
    /// disk — and, for a crash *before* the host's decision, the host log
    /// below the update's `Commit`, with the file back under the write
    /// grant's attributes it had then; then recovers. No branch is ever in
    /// doubt: the update settles by the host's metadata row.
    fn crash_before_the_close_record(
        rig: Rig,
        host_committed: bool,
        content: &[u8],
    ) -> (DataLinksSystem, RecoveryReport) {
        let Rig { sys, host_env, repo_env } = rig;
        let host_mark = sys.state_id();
        let repo_mark = sys.node(SRV).unwrap().server.repository().db().state_id();
        update(&sys, content);
        let dlfm = sys.node(SRV).unwrap().server.config().dlfm_cred;
        let raw = sys.raw_fs(SRV).unwrap();
        let image = sys.crash();
        shear_from_last(&repo_env, repo_mark, is_close_record);
        if !host_committed {
            assert!(shear_from_last(&host_env, host_mark, |rec| is_meta_commit(rec, true)));
            let granted = SetAttr {
                uid: Some(dlfm.uid),
                gid: Some(dlfm.gid),
                mode: Some(0o600),
                ..Default::default()
            };
            raw.setattr(&Cred::root(), "/d/f.bin", &granted).unwrap();
        }
        let (sys, mut reports) = DataLinksSystem::recover(image).unwrap();
        let report = reports.remove(SRV).unwrap();
        assert!(report.in_doubt_resolved.is_empty(), "an update leaves no branch in doubt");
        (sys, report)
    }

    fn meta_version(sys: &DataLinksSystem, path: &str) -> Option<u64> {
        let url = DatalinkUrl::parse(&format!("dlfs://{SRV}{path}")).unwrap();
        sys.engine().file_meta(&url).map(|(_, _, version)| version)
    }

    fn content(sys: &DataLinksSystem, path: &str) -> Vec<u8> {
        sys.raw_fs(SRV).unwrap().read_file(&Cred::root(), path).unwrap()
    }

    #[test]
    fn update_prepared_but_host_undecided_rolls_back_file_and_metadata() {
        let (sys, report) = crash_before_the_close_record(rig(), false, b"version-2");
        assert_eq!((report.updates_rolled_forward, report.updates_rolled_back), (0, 1));
        assert_eq!(content(&sys, "/d/f.bin"), b"version-1");
        assert_eq!(meta_version(&sys, "/d/f.bin"), Some(1));
        let repo = sys.node(SRV).unwrap().server.repository();
        assert_eq!(repo.get_file("/d/f.bin").unwrap().cur_version, 1);
        assert!(repo.get_uip("/d/f.bin").is_none(), "the in-flight update is rolled back");
    }

    #[test]
    fn update_decided_by_the_host_commits_file_and_metadata() {
        let (sys, report) = crash_before_the_close_record(rig(), true, b"version-2");
        assert_eq!((report.updates_rolled_forward, report.updates_rolled_back), (1, 0));
        assert_eq!(content(&sys, "/d/f.bin"), b"version-2", "the acknowledged write survives");
        assert_eq!(meta_version(&sys, "/d/f.bin"), Some(2));
        let server = &sys.node(SRV).unwrap().server;
        assert_eq!(server.repository().get_file("/d/f.bin").unwrap().cur_version, 2);
        assert!(server.repository().get_uip("/d/f.bin").is_none());
        let archived = server.archive_store().get("/d/f.bin", 2).expect("version 2 archived");
        assert_eq!(archived.data, b"version-2");
        // And the next update builds on version 2.
        update(&sys, b"version-3");
        assert_eq!(meta_version(&sys, "/d/f.bin"), Some(3));
    }

    #[test]
    fn acknowledged_update_survives_a_crash_that_takes_its_unforced_decide() {
        // No shear: the close returned, the archive copy landed, and the
        // update's repository records — claim, close record, the
        // archiver's flag clear — are still in the group-commit batch:
        // unforced appends nothing has flushed. The crash loses them all;
        // the forced host `Commit` of the metadata row is ahead of
        // `dl_files`, and the file is at rest, so the update rolls forward
        // to the host's version, the archived copy of it.
        let Rig { sys, .. } = rig();
        update(&sys, b"version-2");
        let repo = sys.node(SRV).unwrap().server.repository().db().clone();
        assert!(repo.durable_lsn() < repo.state_id(), "the update's records were never synced");
        drop(repo);

        let (sys, reports) = DataLinksSystem::recover(sys.crash()).unwrap();
        let report = &reports[SRV];
        assert!(report.in_doubt_resolved.is_empty(), "an update leaves no branch in doubt");
        assert_eq!(
            (report.updates_rolled_forward, report.updates_rolled_back),
            (1, 0),
            "the lost update is committed by the host's metadata row"
        );
        assert_eq!(content(&sys, "/d/f.bin"), b"version-2");
        assert_eq!(meta_version(&sys, "/d/f.bin"), Some(2));
        let server = &sys.node(SRV).unwrap().server;
        let entry = server.repository().get_file("/d/f.bin").unwrap();
        assert_eq!((entry.cur_version, entry.needs_archive), (2, false));
        assert_eq!(server.archive_store().get("/d/f.bin", 2).unwrap().data, b"version-2");
    }

    #[test]
    fn link_follows_the_host_outcome() {
        for host_committed in [false, true] {
            let sys =
                crash_in_the_window(rig(), host_committed, false, |sys| link(sys, 2, "/d/new.bin"));
            let linked = sys.node(SRV).unwrap().server.repository().get_file("/d/new.bin");
            assert_eq!(linked.is_some(), host_committed);
            assert_eq!(
                sys.db().get_committed("t", &Value::Int(2)).unwrap().is_some(),
                host_committed
            );
            assert_eq!(meta_version(&sys, "/d/new.bin").is_some(), host_committed);
            let attr = sys.raw_fs(SRV).unwrap().stat(&Cred::root(), "/d/new.bin").unwrap();
            assert_eq!(attr.uid == APP.uid, !host_committed, "take-over undone iff aborted");
            assert!(sys.node(SRV).unwrap().server.repository().list_intents().is_empty());
        }
    }

    #[test]
    fn unlink_follows_the_host_outcome() {
        for host_committed in [false, true] {
            let sys = crash_in_the_window(rig(), host_committed, true, |sys| unlink(sys, 1));
            let linked = sys.node(SRV).unwrap().server.repository().get_file("/d/f.bin");
            assert_eq!(linked.is_none(), host_committed);
            assert_eq!(
                sys.db().get_committed("t", &Value::Int(1)).unwrap().is_none(),
                host_committed
            );
            assert_eq!(meta_version(&sys, "/d/f.bin").is_none(), host_committed);
            assert!(sys.node(SRV).unwrap().server.repository().list_intents().is_empty());
            if host_committed {
                let attr = sys.raw_fs(SRV).unwrap().stat(&Cred::root(), "/d/f.bin").unwrap();
                assert_eq!(attr.uid, APP.uid, "the committed unlink hands the file back");
            }
        }
    }
}
