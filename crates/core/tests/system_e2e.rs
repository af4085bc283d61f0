//! End-to-end tests of the assembled DataLinks system: SQL-driven
//! link/unlink, update-in-place with metadata consistency, crash recovery,
//! and coordinated point-in-time restore.

use std::sync::Arc;

use dl_core::{
    ControlMode, DataLinksSystem, DatalinkUrl, DlColumnOptions, FileServerSpec, OnUnlink, TokenKind,
};
use dl_fskit::{Cred, FsError, FsResult, Lfs, OpenOptions, SetAttr, SimClock};
use dl_minidb::{Column, ColumnType, DbError, DiskFaults, Schema, StorageEnv, Value};

const ALICE: Cred = Cred { uid: 100, gid: 100 };

fn movies_schema() -> Schema {
    Schema::new(
        "movies",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("title", ColumnType::Text),
            Column::nullable("clip", ColumnType::DataLink),
        ],
        "id",
    )
    .unwrap()
}

fn build_system(mode: ControlMode) -> DataLinksSystem {
    build_system_on(mode, StorageEnv::mem())
}

/// [`build_system`] with the file server's repository log on `repo_env`.
fn build_system_on(mode: ControlMode, repo_env: StorageEnv) -> DataLinksSystem {
    let mut spec = FileServerSpec::new("srv1");
    spec.repo_env = repo_env;
    let sys = DataLinksSystem::builder()
        .clock(Arc::new(SimClock::new(1_000_000)))
        .file_server_with(spec)
        .build()
        .unwrap();
    let raw = sys.raw_fs("srv1").unwrap();
    raw.mkdir_p(&Cred::root(), "/movies", 0o777).unwrap();
    raw.write_file(&ALICE, "/movies/alien.mpg", b"alien v1").unwrap();
    raw.write_file(&ALICE, "/movies/brazil.mpg", b"brazil v1").unwrap();
    sys.create_table(movies_schema()).unwrap();
    sys.define_datalink_column("movies", "clip", DlColumnOptions::new(mode)).unwrap();
    sys
}

fn insert_movie(sys: &DataLinksSystem, id: i64, title: &str, url: Option<&str>) {
    let mut tx = sys.begin();
    tx.insert(
        "movies",
        vec![
            Value::Int(id),
            Value::Text(title.into()),
            url.map(|u| Value::DataLink(u.into())).unwrap_or(Value::Null),
        ],
    )
    .unwrap();
    tx.commit().unwrap();
}

/// Update a linked file in place through the public file API.
fn update_file(sys: &DataLinksSystem, id: i64, content: &[u8]) {
    let (_url, path) =
        sys.select_datalink("movies", &Value::Int(id), "clip", TokenKind::Write).unwrap();
    let fs = sys.fs("srv1").unwrap();
    let fd = fs.open(&ALICE, &path, OpenOptions::write_truncate()).unwrap();
    fs.write(fd, content).unwrap();
    fs.close(fd).unwrap();
}

fn read_file(sys: &DataLinksSystem, id: i64) -> Vec<u8> {
    let (_url, path) =
        sys.select_datalink("movies", &Value::Int(id), "clip", TokenKind::Read).unwrap();
    let fs = sys.fs("srv1").unwrap();
    let fd = fs.open(&ALICE, &path, OpenOptions::read_only()).unwrap();
    let data = fs.read_to_end(fd).unwrap();
    fs.close(fd).unwrap();
    data
}

#[test]
fn insert_links_and_abort_unlinks_nothing() {
    let sys = build_system(ControlMode::Rdd);
    insert_movie(&sys, 1, "Alien", Some("dlfs://srv1/movies/alien.mpg"));
    let node = sys.node("srv1").unwrap();
    assert!(node.server.repository().get_file("/movies/alien.mpg").is_some());

    // Aborted INSERT leaves no link behind and restores permissions.
    let mut tx = sys.begin();
    tx.insert(
        "movies",
        vec![
            Value::Int(2),
            Value::Text("Brazil".into()),
            Value::DataLink("dlfs://srv1/movies/brazil.mpg".into()),
        ],
    )
    .unwrap();
    assert!(
        node.server.repository().get_file("/movies/brazil.mpg").is_some()
            || node.server.has_pending(tx.id())
    );
    tx.abort();
    assert!(node.server.repository().get_file("/movies/brazil.mpg").is_none());
    let attr = node.raw.stat(&Cred::root(), "/movies/brazil.mpg").unwrap();
    assert_eq!((attr.uid, attr.mode), (ALICE.uid, 0o644));
}

#[test]
fn metadata_row_tracks_link_lifecycle() {
    let sys = build_system(ControlMode::Rdd);
    let url = DatalinkUrl::parse("dlfs://srv1/movies/alien.mpg").unwrap();
    assert!(sys.engine().file_meta(&url).is_none());

    insert_movie(&sys, 1, "Alien", Some("dlfs://srv1/movies/alien.mpg"));
    let (size, _mtime, version) = sys.engine().file_meta(&url).unwrap();
    assert_eq!(size, 8, "linked size recorded");
    assert_eq!(version, 1);

    // DELETE of the row unlinks and removes the metadata.
    let mut tx = sys.begin();
    tx.delete("movies", &Value::Int(1)).unwrap();
    tx.commit().unwrap();
    assert!(sys.engine().file_meta(&url).is_none());
    let node = sys.node("srv1").unwrap();
    assert!(node.server.repository().get_file("/movies/alien.mpg").is_none());
}

#[test]
fn host_checkpoint_image_does_not_grow_with_link_unlink_history() {
    // A catalogue runs for years: what a host checkpoint carries must be a
    // function of what is linked now, not of how many 2PC transactions it
    // took to get here. (Until PR 22 every link and every unlink left a
    // 9-byte outcome entry in every image, forever.)
    let sys = build_system(ControlMode::Rdd);
    let cycles = |n: usize| {
        for _ in 0..n {
            insert_movie(&sys, 1, "Alien", Some("dlfs://srv1/movies/alien.mpg"));
            let mut tx = sys.begin();
            tx.delete("movies", &Value::Int(1)).unwrap();
            tx.commit().unwrap();
        }
    };
    let image_bytes = || {
        sys.db().checkpoint_and_truncate().unwrap();
        sys.metrics().gauges["minidb.host.checkpoint_bytes"]
    };
    cycles(10);
    let after_ten = image_bytes();
    assert!(after_ten > 0.0);
    cycles(2_000);
    assert_eq!(image_bytes(), after_ten, "the image grew with history");
}

#[test]
fn update_in_place_keeps_metadata_consistent() {
    let sys = build_system(ControlMode::Rdd);
    insert_movie(&sys, 1, "Alien", Some("dlfs://srv1/movies/alien.mpg"));
    let url = DatalinkUrl::parse("dlfs://srv1/movies/alien.mpg").unwrap();

    update_file(&sys, 1, b"alien v2 with longer director's cut");
    let (size, _mtime, version) = sys.engine().file_meta(&url).unwrap();
    assert_eq!(version, 2, "metadata version moved with the file (§4.3)");
    assert_eq!(size, 35);
    assert_eq!(read_file(&sys, 1), b"alien v2 with longer director's cut");

    update_file(&sys, 1, b"v3");
    let (size, _, version) = sys.engine().file_meta(&url).unwrap();
    assert_eq!((size, version), (2, 3));
}

#[test]
fn switching_datalink_value_relinks_atomically() {
    let sys = build_system(ControlMode::Rdd);
    insert_movie(&sys, 1, "Alien", Some("dlfs://srv1/movies/alien.mpg"));

    // UPDATE the column from alien to brazil: unlink old, link new, one txn.
    let mut tx = sys.begin();
    tx.update_column(
        "movies",
        &Value::Int(1),
        "clip",
        Value::DataLink("dlfs://srv1/movies/brazil.mpg".into()),
    )
    .unwrap();
    tx.commit().unwrap();

    let node = sys.node("srv1").unwrap();
    assert!(node.server.repository().get_file("/movies/alien.mpg").is_none());
    assert!(node.server.repository().get_file("/movies/brazil.mpg").is_some());
    // Old file back to its owner; new file taken over.
    let old = node.raw.stat(&Cred::root(), "/movies/alien.mpg").unwrap();
    assert_eq!(old.uid, ALICE.uid);
    let new = node.raw.stat(&Cred::root(), "/movies/brazil.mpg").unwrap();
    assert_eq!(new.uid, node.server.config().dlfm_cred.uid);
}

#[test]
fn linking_missing_file_vetoes_the_statement() {
    let sys = build_system(ControlMode::Rdd);
    let mut tx = sys.begin();
    let err = tx
        .insert(
            "movies",
            vec![
                Value::Int(1),
                Value::Text("Ghost".into()),
                Value::DataLink("dlfs://srv1/movies/missing.mpg".into()),
            ],
        )
        .unwrap_err();
    assert!(matches!(err, DbError::Vetoed(_)), "{err}");
    // Statement failed but the transaction survives (SQL semantics).
    tx.insert("movies", vec![Value::Int(1), Value::Text("Ghost".into()), Value::Null]).unwrap();
    tx.commit().unwrap();
}

#[test]
fn unlink_rejected_while_file_open() {
    let sys = build_system(ControlMode::Rdd);
    insert_movie(&sys, 1, "Alien", Some("dlfs://srv1/movies/alien.mpg"));

    let (_url, path) =
        sys.select_datalink("movies", &Value::Int(1), "clip", TokenKind::Write).unwrap();
    let fs = sys.fs("srv1").unwrap();
    let fd = fs.open(&ALICE, &path, OpenOptions::read_write()).unwrap();

    let mut tx = sys.begin();
    let err = tx.delete("movies", &Value::Int(1)).unwrap_err();
    assert!(matches!(err, DbError::Vetoed(ref m) if m.contains("open")), "{err}");
    tx.abort();

    fs.close(fd).unwrap();
    let mut tx = sys.begin();
    tx.delete("movies", &Value::Int(1)).unwrap();
    tx.commit().unwrap();
}

#[test]
fn dangling_reference_prevented_through_app_fs() {
    let sys = build_system(ControlMode::Rff);
    insert_movie(&sys, 1, "Alien", Some("dlfs://srv1/movies/alien.mpg"));
    let fs = sys.fs("srv1").unwrap();
    assert!(matches!(fs.remove(&ALICE, "/movies/alien.mpg"), Err(FsError::Rejected(_))));
    assert!(matches!(
        fs.rename(&ALICE, "/movies/alien.mpg", "/movies/renamed.mpg"),
        Err(FsError::Rejected(_))
    ));
}

/// The probe of a voted link, in every mode with referential integrity:
/// the INSERT makes the link vote, the owner then tries `mutate` on the
/// file through DLFS, and only then does the transaction commit. The
/// branch is live though its row is not committed, so the mutation check
/// refuses, and the commit links the file that is there, under its name,
/// with the attributes the vote read.
fn probe_voted_link(what: &str, mutate: fn(&Lfs) -> FsResult<()>) {
    for mode in [ControlMode::Rff, ControlMode::Rfb, ControlMode::Rdb, ControlMode::Rdd] {
        let sys = build_system(mode);
        let mut tx = sys.begin();
        let url = Value::DataLink("dlfs://srv1/movies/alien.mpg".into());
        tx.insert("movies", vec![Value::Int(1), Value::Text("Alien".into()), url]).unwrap();
        let refused = mutate(&sys.fs("srv1").unwrap());
        assert!(matches!(refused, Err(FsError::Rejected(_))), "{mode} {what}: {refused:?}");
        tx.commit().unwrap();
        let repo = sys.node("srv1").unwrap().server.repository();
        let entry = repo.get_file("/movies/alien.mpg").expect("linked");
        assert_eq!((entry.orig_uid, entry.orig_mode), (ALICE.uid, 0o644), "{mode} {what}");
        assert_eq!(read_file(&sys, 1), b"alien v1", "{mode} {what}");
    }
}

#[test]
fn a_voted_link_refuses_the_remove_of_its_file() {
    probe_voted_link("remove", |fs| fs.remove(&ALICE, "/movies/alien.mpg"));
}

#[test]
fn a_voted_link_refuses_the_rename_of_its_file() {
    probe_voted_link("rename", |fs| fs.rename(&ALICE, "/movies/alien.mpg", "/movies/moved.mpg"));
}

#[test]
fn a_voted_link_refuses_a_chmod_of_its_file() {
    probe_voted_link("chmod", |fs| {
        let set = SetAttr { mode: Some(0o600), ..Default::default() };
        fs.setattr(&ALICE, "/movies/alien.mpg", &set).map(|_| ())
    });
}

#[test]
fn a_voted_unlink_refuses_the_remove_of_its_file() {
    // The DELETE makes the unlink vote; the file's committed row stands
    // until the host decides, so the owner's remove is refused, and the
    // commit hands the file back whole.
    for mode in [ControlMode::Rff, ControlMode::Rdd] {
        let sys = build_system(mode);
        insert_movie(&sys, 1, "Alien", Some("dlfs://srv1/movies/alien.mpg"));
        let mut tx = sys.begin();
        tx.delete("movies", &Value::Int(1)).unwrap();
        let refused = sys.fs("srv1").unwrap().remove(&ALICE, "/movies/alien.mpg");
        assert!(matches!(refused, Err(FsError::Rejected(_))), "{mode}: {refused:?}");
        tx.commit().unwrap();
        let attr = sys.raw_fs("srv1").unwrap().stat(&Cred::root(), "/movies/alien.mpg").unwrap();
        assert_eq!((attr.uid, attr.mode), (ALICE.uid, 0o644), "{mode}");
    }
}

#[test]
fn rfd_mode_full_cycle_through_sql() {
    let sys = build_system(ControlMode::Rfd);
    insert_movie(&sys, 1, "Alien", Some("dlfs://srv1/movies/alien.mpg"));

    // Plain read path — no token, no upcalls beyond mutation checks.
    let fs = sys.fs("srv1").unwrap();
    let fd = fs.open(&ALICE, "/movies/alien.mpg", OpenOptions::read_only()).unwrap();
    assert_eq!(fs.read_to_end(fd).unwrap(), b"alien v1");
    fs.close(fd).unwrap();

    update_file(&sys, 1, b"alien rfd v2");
    assert_eq!(
        sys.raw_fs("srv1").unwrap().read_file(&Cred::root(), "/movies/alien.mpg").unwrap(),
        b"alien rfd v2"
    );
    let url = DatalinkUrl::parse("dlfs://srv1/movies/alien.mpg").unwrap();
    assert_eq!(sys.engine().file_meta(&url).unwrap().2, 2);
}

#[test]
fn crash_mid_update_recovers_last_committed_everywhere() {
    let sys = build_system(ControlMode::Rdd);
    insert_movie(&sys, 1, "Alien", Some("dlfs://srv1/movies/alien.mpg"));
    update_file(&sys, 1, b"committed v2");
    sys.node("srv1").unwrap().server.archive_store().wait_archived("/movies/alien.mpg");

    // Open for write, scribble, crash before close.
    let (_url, path) =
        sys.select_datalink("movies", &Value::Int(1), "clip", TokenKind::Write).unwrap();
    let fs = sys.fs("srv1").unwrap();
    let fd = fs.open(&ALICE, &path, OpenOptions::write_truncate()).unwrap();
    fs.write(fd, b"half-written garbage that must vanish").unwrap();
    // No close: the descriptor dies with the crash below.

    let image = sys.crash();
    let (sys, reports) = DataLinksSystem::recover(image).unwrap();
    assert_eq!(reports["srv1"].updates_rolled_back, 1);

    // File and metadata agree on v2.
    let url = DatalinkUrl::parse("dlfs://srv1/movies/alien.mpg").unwrap();
    assert_eq!(sys.engine().file_meta(&url).unwrap().2, 2);
    assert_eq!(read_file(&sys, 1), b"committed v2");
}

#[test]
fn crash_between_prepare_and_commit_resolves_with_host_outcome() {
    // The in-doubt path: we can't easily freeze the host mid-2PC from here,
    // so drive the agent surface directly like the host would. The link's
    // vote wrote nothing on the node and took nothing over, so the crash
    // leaves no branch in doubt and the file with its owner.
    let sys = build_system(ControlMode::Rdd);
    let node = sys.node("srv1").unwrap();

    // A transaction that voted at DLFM but whose decision is unknown
    // there; the host DB has no commit record for it → presumed abort.
    let orphan_txid = 4_242;
    node.server
        .link_file(orphan_txid, "/movies/brazil.mpg", ControlMode::Rdd, true, OnUnlink::Restore)
        .unwrap();

    let image = sys.crash();
    let (sys, reports) = DataLinksSystem::recover(image).unwrap();
    let report = &reports["srv1"];
    assert!(report.in_doubt_resolved.is_empty(), "a link leaves no intent");

    let node = sys.node("srv1").unwrap();
    assert!(node.server.repository().get_file("/movies/brazil.mpg").is_none());
    let attr = node.raw.stat(&Cred::root(), "/movies/brazil.mpg").unwrap();
    assert_eq!((attr.uid, attr.mode), (ALICE.uid, 0o644), "link undone at recovery");
}

#[test]
fn committed_links_survive_crash() {
    let sys = build_system(ControlMode::Rdd);
    insert_movie(&sys, 1, "Alien", Some("dlfs://srv1/movies/alien.mpg"));
    update_file(&sys, 1, b"v2 content");
    sys.node("srv1").unwrap().server.archive_store().wait_archived("/movies/alien.mpg");

    let image = sys.crash();
    let (sys, _) = DataLinksSystem::recover(image).unwrap();

    let node = sys.node("srv1").unwrap();
    let entry = node.server.repository().get_file("/movies/alien.mpg").unwrap();
    assert_eq!(entry.cur_version, 2);
    assert_eq!(read_file(&sys, 1), b"v2 content");

    // The system is fully operational after recovery: another update works.
    update_file(&sys, 1, b"v3 after recovery");
    assert_eq!(read_file(&sys, 1), b"v3 after recovery");
}

#[test]
fn coordinated_point_in_time_restore() {
    let sys = build_system(ControlMode::Rdd);
    insert_movie(&sys, 1, "Alien", Some("dlfs://srv1/movies/alien.mpg"));

    // Build five versions, remembering the state id after each commit.
    let mut state_ids = Vec::new();
    state_ids.push(sys.state_id()); // after link, version 1
    for v in 2..=5u64 {
        update_file(&sys, 1, format!("alien v{v}").as_bytes());
        sys.node("srv1").unwrap().server.archive_store().wait_archived("/movies/alien.mpg");
        state_ids.push(sys.state_id());
    }
    let backup = sys.backup().unwrap();

    // Restore to the state after version 3 was committed.
    let (sys, reports) = sys.restore(&backup, state_ids[2]).unwrap();
    let report = &reports["srv1"];
    assert_eq!(report.versions_rolled_back, 1);
    let url = DatalinkUrl::parse("dlfs://srv1/movies/alien.mpg").unwrap();
    let (_, _, version) = sys.engine().file_meta(&url).unwrap();
    assert_eq!(version, 3, "metadata restored to v3");
    assert_eq!(read_file(&sys, 1), b"alien v3", "file restored to match (§4.4)");
}

/// Arms a tear of the repository log's unforced tail — the end of the
/// link or unlink branch just committed, after the last forced record (an
/// unlink's intent) — so the crash that stops the stack loses that end
/// even though `restore` flushed it first.
fn tear_the_branch_end(sys: &DataLinksSystem, faults: &DiskFaults) {
    let db = sys.node("srv1").unwrap().server.repository().db();
    let wal = db.env().device("wal").unwrap();
    let durable = wal.len().unwrap();
    db.flush().unwrap();
    let end = wal.len().unwrap() - durable;
    assert!(end > 0, "the branch end sat in the unforced tail");
    faults.arm_torn_tail("wal", end);
}

#[test]
fn a_link_whose_branch_end_a_crash_tears_is_relinked_from_the_host_row() {
    // The host's `Commit` is the link's one forced write. A crash that
    // tears the node's unforced tail loses the link's `dl_files` row, and
    // recovery re-links the file from the host row, with the original
    // attributes the vote recorded there: a later unlink gives the file
    // back to its owner with its original mode.
    let faults = DiskFaults::new();
    let repo_env = StorageEnv::mem_with_faults(Arc::clone(&faults), 0);
    let sys = build_system_on(ControlMode::Rdd, repo_env);
    insert_movie(&sys, 1, "Alien", Some("dlfs://srv1/movies/alien.mpg"));
    tear_the_branch_end(&sys, &faults);

    let (sys, reports) = DataLinksSystem::recover(sys.crash()).unwrap();
    let report = &reports["srv1"];
    assert_eq!((report.files_relinked, report.in_doubt_resolved.len()), (1, 0));
    let node = sys.node("srv1").unwrap();
    let entry = node.server.repository().get_file("/movies/alien.mpg").unwrap();
    assert_eq!((entry.orig_uid, entry.orig_gid, entry.orig_mode), (ALICE.uid, ALICE.gid, 0o644));
    let attr = node.raw.stat(&Cred::root(), "/movies/alien.mpg").unwrap();
    assert_eq!((attr.uid, attr.mode), (node.server.config().dlfm_cred.uid, 0o400));

    update_file(&sys, 1, b"alien v2");
    let mut tx = sys.begin();
    tx.delete("movies", &Value::Int(1)).unwrap();
    tx.commit().unwrap();
    let attr = sys.raw_fs("srv1").unwrap().stat(&Cred::root(), "/movies/alien.mpg").unwrap();
    assert_eq!((attr.uid, attr.gid, attr.mode), (ALICE.uid, ALICE.gid, 0o644), "owner's again");
}

#[test]
fn restore_relinks_files_unlinked_after_the_restore_point() {
    // The restore flushes each repository, then crashes the running stack.
    // With the unlink's unforced `Commit` on disk the repository comes back
    // without the link, and the reconcile pass re-links it; with the
    // `Commit` torn off the surviving intent settles by the *restored*
    // rows, which still hold the file — the unlink aborts before the
    // reconcile pass looks. Either way the link comes back, taken over
    // again.
    for end_durable in [true, false] {
        let faults = DiskFaults::new();
        let repo_env = StorageEnv::mem_with_faults(Arc::clone(&faults), 0);
        let sys = build_system_on(ControlMode::Rdd, repo_env);
        insert_movie(&sys, 1, "Alien", Some("dlfs://srv1/movies/alien.mpg"));
        let linked_state = sys.state_id();
        let backup_early = sys.backup().unwrap();

        // Unlink after the backup point.
        let mut tx = sys.begin();
        tx.delete("movies", &Value::Int(1)).unwrap();
        tx.commit().unwrap();
        assert!(sys
            .node("srv1")
            .unwrap()
            .server
            .repository()
            .get_file("/movies/alien.mpg")
            .is_none());
        if !end_durable {
            tear_the_branch_end(&sys, &faults);
        }

        // Restore to when it was linked: the link must come back.
        let (sys, reports) = sys.restore(&backup_early, linked_state).unwrap();
        let report = &reports["srv1"];
        assert_eq!(report.files_relinked, u64::from(end_durable));
        let node = sys.node("srv1").unwrap();
        let entry = node.server.repository().get_file("/movies/alien.mpg").unwrap();
        assert_eq!(entry.mode, ControlMode::Rdd);
        assert!(node.server.repository().list_intents().is_empty());
        let attr = node.raw.stat(&Cred::root(), "/movies/alien.mpg").unwrap();
        assert_eq!(attr.uid, node.server.config().dlfm_cred.uid, "taken over again");
        assert_eq!(read_file(&sys, 1), b"alien v1");
    }
}

#[test]
fn restore_unlinks_files_linked_after_the_restore_point() {
    // The restore flushes each repository, then crashes the running stack.
    // With the link's unforced `Commit` on disk the repository comes back
    // holding the link, and the reconcile pass unlinks it; with the
    // `Commit` torn off the node has no record of the link at all, and the
    // file is handed back from the running host's row of it, which the
    // restore passes along. Either way the file ends unlinked and back with
    // its owner.
    for end_durable in [true, false] {
        let faults = DiskFaults::new();
        let repo_env = StorageEnv::mem_with_faults(Arc::clone(&faults), 0);
        let sys = build_system_on(ControlMode::Rdd, repo_env);
        insert_movie(&sys, 1, "Alien", Some("dlfs://srv1/movies/alien.mpg"));
        let before_brazil = sys.state_id();
        insert_movie(&sys, 2, "Brazil", Some("dlfs://srv1/movies/brazil.mpg"));
        if !end_durable {
            tear_the_branch_end(&sys, &faults);
        }

        let backup = sys.backup().unwrap();
        let (sys, reports) = sys.restore(&backup, before_brazil).unwrap();
        let report = &reports["srv1"];
        assert_eq!(report.files_unlinked, u64::from(end_durable));
        let node = sys.node("srv1").unwrap();
        assert!(node.server.repository().get_file("/movies/brazil.mpg").is_none());
        assert!(node.server.repository().list_intents().is_empty());
        let attr = node.raw.stat(&Cred::root(), "/movies/brazil.mpg").unwrap();
        assert_eq!(attr.uid, ALICE.uid, "brazil handed back to its owner");
        assert!(node.server.repository().get_file("/movies/alien.mpg").is_some());
    }
}

#[test]
fn restore_to_before_an_unlink_takes_the_restored_version_from_the_archive() {
    // The file was updated again after the restore point and then unlinked:
    // the node has no record of the link, and its disk holds the later
    // version. The re-link takes the restored row's version from the
    // archive, not the bytes it finds.
    let sys = build_system(ControlMode::Rdd);
    insert_movie(&sys, 1, "Alien", Some("dlfs://srv1/movies/alien.mpg"));
    let archive = Arc::clone(sys.node("srv1").unwrap().server.archive_store());
    update_file(&sys, 1, b"alien v2");
    archive.wait_archived("/movies/alien.mpg");
    let v2_state = sys.state_id();
    update_file(&sys, 1, b"alien v3");
    archive.wait_archived("/movies/alien.mpg");
    let backup = sys.backup().unwrap();
    let mut tx = sys.begin();
    tx.delete("movies", &Value::Int(1)).unwrap();
    tx.commit().unwrap();

    let (sys, reports) = sys.restore(&backup, v2_state).unwrap();
    let report = &reports["srv1"];
    assert_eq!(report.files_relinked, 1);
    assert!(report.missing_versions.is_empty(), "{report:?}");
    let url = DatalinkUrl::parse("dlfs://srv1/movies/alien.mpg").unwrap();
    assert_eq!(sys.engine().file_meta(&url).unwrap().2, 2);
    assert_eq!(read_file(&sys, 1), b"alien v2");
}

#[test]
fn multi_server_system_routes_by_url() {
    let sys = DataLinksSystem::builder()
        .clock(Arc::new(SimClock::new(1_000_000)))
        .file_server("east")
        .file_server("west")
        .build()
        .unwrap();
    for name in ["east", "west"] {
        let raw = sys.raw_fs(name).unwrap();
        raw.mkdir_p(&Cred::root(), "/pages", 0o777).unwrap();
        raw.write_file(&ALICE, "/pages/home.html", format!("{name} home").as_bytes()).unwrap();
    }
    sys.create_table(
        Schema::new(
            "pages",
            vec![
                Column::new("id", ColumnType::Int),
                Column::nullable("body", ColumnType::DataLink),
            ],
            "id",
        )
        .unwrap(),
    )
    .unwrap();
    sys.define_datalink_column("pages", "body", DlColumnOptions::new(ControlMode::Rdd)).unwrap();

    let mut tx = sys.begin();
    tx.insert("pages", vec![Value::Int(1), Value::DataLink("dlfs://east/pages/home.html".into())])
        .unwrap();
    tx.insert("pages", vec![Value::Int(2), Value::DataLink("dlfs://west/pages/home.html".into())])
        .unwrap();
    tx.commit().unwrap();

    assert!(sys.node("east").unwrap().server.repository().get_file("/pages/home.html").is_some());
    assert!(sys.node("west").unwrap().server.repository().get_file("/pages/home.html").is_some());

    // Tokens are per-server: an east token cannot open the west file.
    let (_, east_path) =
        sys.select_datalink("pages", &Value::Int(1), "body", TokenKind::Read).unwrap();
    let west_fs = sys.fs("west").unwrap();
    assert!(west_fs.open(&ALICE, &east_path, OpenOptions::read_only()).is_err());
    let east_fs = sys.fs("east").unwrap();
    let fd = east_fs.open(&ALICE, &east_path, OpenOptions::read_only()).unwrap();
    assert_eq!(east_fs.read_to_end(fd).unwrap(), b"east home");
    east_fs.close(fd).unwrap();
}

#[test]
fn same_user_transaction_updates_row_and_file_together() {
    // The video-merchant scenario from §1: update the price and replace the
    // clip content under one business operation.
    let sys = build_system(ControlMode::Rdd);
    insert_movie(&sys, 1, "Alien", Some("dlfs://srv1/movies/alien.mpg"));

    let mut tx = sys.begin();
    tx.update_column("movies", &Value::Int(1), "title", Value::Text("Alien (remastered)".into()))
        .unwrap();
    tx.commit().unwrap();

    update_file(&sys, 1, b"remastered clip");
    assert_eq!(read_file(&sys, 1), b"remastered clip");
    let row = sys.db().get_committed("movies", &Value::Int(1)).unwrap().unwrap();
    assert_eq!(row[1], Value::Text("Alien (remastered)".into()));
}

/// Table names of a commit record's redo ops.
fn op_tables(rec: &dl_minidb::wal::WalRecord) -> Vec<&str> {
    match rec {
        dl_minidb::wal::WalRecord::Commit { ops, .. } => ops.iter().map(|op| op.table()).collect(),
        other => panic!("commit records only, got {other:?}"),
    }
}

#[test]
fn update_commits_once_on_the_host_with_no_participant_and_no_two_phase_record() {
    let sys = build_system(ControlMode::Rdd);
    insert_movie(&sys, 1, "Alien", Some("dlfs://srv1/movies/alien.mpg"));
    let node = sys.node("srv1").unwrap();
    let (host, repo) = (sys.db().clone(), node.server.repository().db().clone());
    repo.flush().unwrap();
    let (host_mark, repo_mark) = (host.state_id(), repo.state_id());
    let (host_wal, repo_wal) = (host.wal_telemetry(), repo.wal_telemetry());
    let syncs = |wal: &dl_minidb::WalTelemetry| wal.fsync_ns.snapshot().count;
    let (host_syncs, repo_syncs) = (syncs(&host_wal), syncs(&repo_wal));
    let repo_unforced = repo_wal.unforced_appends.get();

    update_file(&sys, 1, b"alien v2");
    node.server.archive_store().wait_archived("/movies/alien.mpg");

    // One forced log write per update: the host's commit. The close record
    // and the flag clear wait on no sync; the write open logs nothing.
    assert_eq!(syncs(&repo_wal) - repo_syncs, 0, "the repository forces nothing");
    assert_eq!(syncs(&host_wal) - host_syncs, 1, "the host forces its one commit");
    assert_eq!(repo_wal.unforced_appends.get() - repo_unforced, 2);
    assert_eq!(host_wal.unforced_appends.get(), 0);

    // The repository log of the cycle: close, flag clear — two plain
    // commits of the file's row.
    repo.flush().unwrap();
    let repo_log = repo.wal_reader().read_from(repo_mark).unwrap().records;
    let tables: Vec<Vec<&str>> = repo_log.iter().map(|(_, rec)| op_tables(rec)).collect();
    assert_eq!(tables, [vec!["dl_files"], vec!["dl_files"]]);

    // The host log of the cycle: one commit, of the metadata row alone. It
    // enlisted nobody — no link/unlink branch rode it.
    let host_log = host.wal_reader().read_from(host_mark).unwrap().records;
    let [(_, dl_minidb::wal::WalRecord::Commit { ops, .. })] = &host_log[..] else {
        panic!("one host commit expected, got {host_log:?}");
    };
    assert_eq!(ops.iter().map(|op| op.table()).collect::<Vec<_>>(), ["__dl_meta"]);
    assert_eq!(sys.engine().stats.meta_updates.get(), 1);
}

#[test]
fn link_and_unlink_each_force_their_intent_and_the_host_commit_only() {
    // An unlink's intent is its vote: it forces that intent and the host's
    // 2PC `Commit`, and ends its branch with one unforced repository commit
    // of its `dl_files` row and the intent's removal. A link's vote travels
    // in its reply and writes nothing on the node: the host's `Commit` is
    // its one forced write, and its branch ends with one unforced commit of
    // its `dl_files` row.
    let sys = build_system(ControlMode::Rdd);
    let node = sys.node("srv1").unwrap();
    let (host, repo) = (sys.db().clone(), node.server.repository().db().clone());
    let syncs = |db: &dl_minidb::Database| db.wal_telemetry().fsync_ns.snapshot().count;
    let repo_log_of = |intents: u64, op: &dyn Fn()| {
        repo.flush().unwrap();
        let (host_syncs, repo_syncs, mark) = (syncs(&host), syncs(&repo), repo.state_id());
        op();
        assert_eq!(syncs(&repo) - repo_syncs, intents, "the repository forces the intent only");
        assert_eq!(syncs(&host) - host_syncs, 1, "the host forces its commit");
        repo.flush().unwrap();
        let log = repo.wal_reader().read_from(mark).unwrap().records;
        log.iter().map(|(_, rec)| op_tables(rec).join("+")).collect::<Vec<_>>()
    };
    let link =
        repo_log_of(0, &|| insert_movie(&sys, 1, "Alien", Some("dlfs://srv1/movies/alien.mpg")));
    assert_eq!(link, ["dl_files"]);
    let unlink = repo_log_of(1, &|| {
        let mut tx = sys.begin();
        tx.delete("movies", &Value::Int(1)).unwrap();
        tx.commit().unwrap();
    });
    assert_eq!(unlink, ["dl_intents", "dl_files+dl_intents"]);
    assert_eq!(host.wal_telemetry().unforced_appends.get(), 0);
}

#[test]
fn failed_host_commit_rolls_the_file_back_and_moves_no_counter_or_version() {
    // The host's disk fills up exactly under the close's commit record.
    let faults = dl_minidb::DiskFaults::new();
    let sys = DataLinksSystem::builder()
        .clock(Arc::new(SimClock::new(1_000_000)))
        .host_env(dl_minidb::StorageEnv::mem_with_faults(Arc::clone(&faults), 0))
        .file_server("srv1")
        .build()
        .unwrap();
    let raw = sys.raw_fs("srv1").unwrap();
    raw.mkdir_p(&Cred::root(), "/movies", 0o777).unwrap();
    raw.write_file(&ALICE, "/movies/alien.mpg", b"alien v1").unwrap();
    sys.create_table(movies_schema()).unwrap();
    sys.define_datalink_column("movies", "clip", DlColumnOptions::new(ControlMode::Rdd)).unwrap();
    insert_movie(&sys, 1, "Alien", Some("dlfs://srv1/movies/alien.mpg"));
    update_file(&sys, 1, b"alien v2");
    let node = sys.node("srv1").unwrap();
    node.server.archive_store().wait_archived("/movies/alien.mpg");
    assert_eq!(sys.engine().stats.meta_updates.get(), 1);

    let (_, path) =
        sys.select_datalink("movies", &Value::Int(1), "clip", TokenKind::Write).unwrap();
    let fs = sys.fs("srv1").unwrap();
    let fd = fs.open(&ALICE, &path, OpenOptions::write_truncate()).unwrap();
    fs.write(fd, b"doomed bytes").unwrap();
    faults.inject_enospc(1);
    assert!(fs.close(fd).is_err(), "the close reports the aborted update");
    assert_eq!(faults.enospc_hits(), 1, "the fault landed on the host's commit");

    assert_eq!(sys.engine().stats.meta_updates.get(), 1, "a failed commit is not an update");
    assert_eq!(raw.read_file(&Cred::root(), "/movies/alien.mpg").unwrap(), b"alien v2");
    let repo = node.server.repository();
    assert!(repo.sync_entries("/movies/alien.mpg").is_empty(), "the writer slot is released");
    assert_eq!(repo.get_file("/movies/alien.mpg").unwrap().cur_version, 2);
    let url = DatalinkUrl::parse("dlfs://srv1/movies/alien.mpg").unwrap();
    assert_eq!(sys.engine().file_meta(&url).unwrap().2, 2, "host metadata unmoved");
    assert_eq!(node.server.stats.rollbacks.get(), 1);

    // The disk freed up: the next update takes the version the failed one
    // had claimed.
    update_file(&sys, 1, b"alien v3");
    assert_eq!(repo.get_file("/movies/alien.mpg").unwrap().cur_version, 3);
    assert_eq!(sys.engine().file_meta(&url).unwrap().2, 3);
    assert_eq!(sys.engine().stats.meta_updates.get(), 2);
}
