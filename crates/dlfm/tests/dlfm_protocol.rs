//! End-to-end tests of the DLFM protocol machinery: link/unlink
//! sub-transactions with 2PC, the open/close update protocol, take-over,
//! archiving, rollback and crash recovery.

use std::sync::Arc;

use dl_dlfm::{
    embed_token, AccessToken, AgentConnection, ArchiveStore, ControlMode, DlfmClient, DlfmConfig,
    DlfmServer, FaultInjector, HostFile, HostHook, MainDaemon, Message, OnUnlink, OpenDecision,
    TokenKind, UpcallTransport, WireConnector, WireDaemon,
};
use dl_fskit::{
    Clock, Cred, DirEntry, FileAttr, FileSystem, FsResult, Ino, Lfs, LockOp, LockOwner, MemFs,
    OpenFlags, SetAttr, SimClock,
};
use dl_minidb::{Database, StorageEnv};

const ALICE: Cred = Cred { uid: 100, gid: 100 };

struct Fixture {
    fs: Arc<MemFs>,
    server: Arc<DlfmServer>,
    clock: Arc<SimClock>,
    admin: Lfs,
}

fn fixture_with(cfg: DlfmConfig) -> Fixture {
    let clock = Arc::new(SimClock::new(1_000_000));
    let fs = Arc::new(MemFs::with_clock(clock.clone()));
    let admin = Lfs::new(fs.clone() as Arc<dyn FileSystem>);
    admin.mkdir_p(&Cred::root(), "/data", 0o777).unwrap();
    admin.write_file(&ALICE, "/data/clip.mpg", b"committed v1").unwrap();
    let server = Arc::new(
        DlfmServer::new(
            cfg,
            fs.clone() as Arc<dyn FileSystem>,
            Database::open(StorageEnv::mem()).unwrap(),
            Arc::new(ArchiveStore::new()),
            clock.clone(),
        )
        .unwrap(),
    );
    Fixture { fs, server, clock, admin }
}

fn fixture() -> Fixture {
    fixture_with(DlfmConfig::new("srv1"))
}

fn write_token(f: &Fixture, path: &str) -> AccessToken {
    AccessToken::generate(
        &f.server.config().token_key,
        "srv1",
        path,
        TokenKind::Write,
        f.clock.now_ms() + 60_000,
    )
}

fn read_token(f: &Fixture, path: &str) -> AccessToken {
    AccessToken::generate(
        &f.server.config().token_key,
        "srv1",
        path,
        TokenKind::Read,
        f.clock.now_ms() + 60_000,
    )
}

/// Links a file and commits the surrounding "host transaction" directly
/// through the server's 2PC surface.
fn link_committed(f: &Fixture, host_txid: u64, path: &str, mode: ControlMode) {
    f.server.link_file(host_txid, path, mode, true, OnUnlink::Restore).unwrap();
    f.server.prepare_host(host_txid).unwrap();
    f.server.commit_host(host_txid);
}

/// Validates a write token and opens the file for update; returns opener id.
fn approved_write_open(f: &Fixture, path: &str, opener: u64) -> Cred {
    let tok = write_token(f, path);
    f.server.validate_token(path, &tok.encode(), ALICE.uid).unwrap();
    match f.server.open_check(path, ALICE.uid, TokenKind::Write, opener) {
        OpenDecision::Approved { open_as } => open_as,
        other => panic!("expected approval, got {other:?}"),
    }
}

#[test]
fn link_applies_constraints_and_commit_makes_durable() {
    let f = fixture();
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);

    // Full control: owned by dlfm, mode 0400 — other users cannot read.
    let attr = f.admin.stat(&Cred::root(), "/data/clip.mpg").unwrap();
    assert_eq!(attr.uid, f.server.config().dlfm_cred.uid);
    assert_eq!(attr.mode, 0o400);
    assert!(f.admin.read_file(&ALICE, "/data/clip.mpg").is_err());

    let entry = f.server.repository().get_file("/data/clip.mpg").unwrap();
    assert_eq!(entry.mode, ControlMode::Rdd);
    assert_eq!(entry.cur_version, 1);
    assert_eq!(entry.orig_uid, ALICE.uid);
    // The link intent was consumed by the commit.
    assert!(f.server.repository().list_intents().is_empty());
}

#[test]
fn link_abort_restores_file_attributes() {
    let f = fixture();
    f.server.link_file(7, "/data/clip.mpg", ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
    // Constraint applied eagerly...
    assert_eq!(
        f.admin.stat(&Cred::root(), "/data/clip.mpg").unwrap().uid,
        f.server.config().dlfm_cred.uid
    );
    // ...and undone on abort.
    f.server.abort_host(7);
    let attr = f.admin.stat(&Cred::root(), "/data/clip.mpg").unwrap();
    assert_eq!(attr.uid, ALICE.uid);
    assert_eq!(attr.mode, 0o644);
    assert!(f.server.repository().get_file("/data/clip.mpg").is_none());
    assert!(f.server.repository().list_intents().is_empty());
}

#[test]
fn rfd_link_keeps_owner_but_strips_write_bits() {
    let f = fixture();
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rfd);
    let attr = f.admin.stat(&Cred::root(), "/data/clip.mpg").unwrap();
    assert_eq!(attr.uid, ALICE.uid, "rfd: ownership is not changed (§2.2)");
    assert_eq!(attr.mode, 0o444, "write permission disabled");
    // Reads still work through the plain FS path.
    assert_eq!(f.admin.read_file(&ALICE, "/data/clip.mpg").unwrap(), b"committed v1");
}

#[test]
fn double_link_rejected() {
    let f = fixture();
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rff);
    let err = f
        .server
        .link_file(2, "/data/clip.mpg", ControlMode::Rff, false, OnUnlink::Restore)
        .unwrap_err();
    assert!(err.contains("already linked"));
}

#[test]
fn link_missing_file_rejected() {
    let f = fixture();
    let err = f
        .server
        .link_file(1, "/data/nope", ControlMode::Rff, false, OnUnlink::Restore)
        .unwrap_err();
    assert!(err.contains("cannot link"));
}

#[test]
fn unlink_restores_original_attributes_at_commit() {
    let f = fixture();
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);

    f.server.unlink_file(2, "/data/clip.mpg").unwrap();
    // Deferred: constraints still in force before commit.
    assert!(f.admin.read_file(&ALICE, "/data/clip.mpg").is_err());
    f.server.prepare_host(2).unwrap();
    f.server.commit_host(2);

    let attr = f.admin.stat(&Cred::root(), "/data/clip.mpg").unwrap();
    assert_eq!((attr.uid, attr.mode), (ALICE.uid, 0o644));
    assert!(f.server.repository().get_file("/data/clip.mpg").is_none());
    assert!(f.server.repository().list_intents().is_empty());
}

#[test]
fn unlink_abort_keeps_file_linked() {
    let f = fixture();
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);
    f.server.unlink_file(2, "/data/clip.mpg").unwrap();
    f.server.abort_host(2);
    assert!(f.server.repository().get_file("/data/clip.mpg").is_some());
    assert!(f.admin.read_file(&ALICE, "/data/clip.mpg").is_err(), "still taken over");
    assert!(f.server.repository().list_intents().is_empty());
}

#[test]
fn unlink_delete_removes_file_and_archive() {
    let f = fixture();
    f.server.link_file(1, "/data/clip.mpg", ControlMode::Rdd, true, OnUnlink::Delete).unwrap();
    f.server.prepare_host(1).unwrap();
    f.server.commit_host(1);

    f.server.unlink_file(2, "/data/clip.mpg").unwrap();
    f.server.prepare_host(2).unwrap();
    f.server.commit_host(2);
    assert!(!f.admin.exists(&Cred::root(), "/data/clip.mpg"));
    assert!(f.server.archive_store().latest("/data/clip.mpg").is_none());
}

#[test]
fn unlink_rejected_while_file_open() {
    let f = fixture();
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);
    approved_write_open(&f, "/data/clip.mpg", 42);

    let err = f.server.unlink_file(2, "/data/clip.mpg").unwrap_err();
    assert!(err.contains("open"), "§4.5 sync-table veto, got: {err}");

    // After close the unlink proceeds.
    f.server.close_notify("/data/clip.mpg", 42, false, 0, 0).unwrap();
    f.server.unlink_file(3, "/data/clip.mpg").unwrap();
    f.server.prepare_host(3).unwrap();
    f.server.commit_host(3);
}

#[test]
fn write_open_requires_valid_token_entry() {
    let f = fixture();
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);
    // No token validated yet.
    match f.server.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Write, 1) {
        OpenDecision::Rejected(msg) => assert!(msg.contains("token")),
        other => panic!("expected rejection, got {other:?}"),
    }
}

#[test]
fn expired_token_rejected_at_validation() {
    let f = fixture();
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);
    let tok = AccessToken::generate(
        &f.server.config().token_key,
        "srv1",
        "/data/clip.mpg",
        TokenKind::Write,
        f.clock.now_ms().saturating_sub(10),
    );
    let err = f.server.validate_token("/data/clip.mpg", &tok.encode(), ALICE.uid).unwrap_err();
    assert!(err.contains("expired"));
}

#[test]
fn read_token_cannot_open_for_write() {
    // The §4.1 attack: use a read token to open for update.
    let f = fixture();
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);
    let tok = read_token(&f, "/data/clip.mpg");
    f.server.validate_token("/data/clip.mpg", &tok.encode(), ALICE.uid).unwrap();
    match f.server.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Write, 1) {
        OpenDecision::Rejected(msg) => assert!(msg.contains("token")),
        other => panic!("read token must not grant write, got {other:?}"),
    }
}

#[test]
fn write_open_grants_and_close_without_write_releases() {
    let f = fixture();
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);
    let open_as = approved_write_open(&f, "/data/clip.mpg", 5);
    assert_eq!(open_as, f.server.config().dlfm_cred);

    // Grant: dlfm-owned, mode 0600; UIP + sync entries exist.
    let attr = f.admin.stat(&Cred::root(), "/data/clip.mpg").unwrap();
    assert_eq!(attr.mode, 0o600);
    assert!(f.server.repository().get_uip("/data/clip.mpg").is_some());
    assert_eq!(f.server.repository().sync_entries("/data/clip.mpg").len(), 1);

    // Closing without modification: no version bump, state released.
    f.server.close_notify("/data/clip.mpg", 5, false, 12, 0).unwrap();
    let entry = f.server.repository().get_file("/data/clip.mpg").unwrap();
    assert_eq!(entry.cur_version, 1);
    assert!(f.server.repository().get_uip("/data/clip.mpg").is_none());
    assert!(f.server.repository().sync_entries("/data/clip.mpg").is_empty());
    assert_eq!(
        f.admin.stat(&Cred::root(), "/data/clip.mpg").unwrap().mode,
        0o400,
        "rdd at-rest attributes restored"
    );
}

#[test]
fn committed_update_bumps_version_and_archives() {
    let f = fixture();
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);
    let dlfm = approved_write_open(&f, "/data/clip.mpg", 5);

    // Write through the physical FS as the granted identity.
    f.admin.write_file(&dlfm, "/data/clip.mpg", b"brand new v2").unwrap();
    let attr = f.admin.stat(&Cred::root(), "/data/clip.mpg").unwrap();
    f.server.close_notify("/data/clip.mpg", 5, true, attr.size, attr.mtime).unwrap();

    let entry = f.server.repository().get_file("/data/clip.mpg").unwrap();
    assert_eq!(entry.cur_version, 2);

    // v1 before-image and v2 committed image both archived.
    f.server.archive_store().wait_archived("/data/clip.mpg");
    assert_eq!(f.server.archive_store().get("/data/clip.mpg", 1).unwrap().data, b"committed v1");
    assert_eq!(f.server.archive_store().get("/data/clip.mpg", 2).unwrap().data, b"brand new v2");
}

#[test]
fn needs_archive_clears_eagerly_after_async_archive() {
    // The archiver's completion callback clears the flag once the store
    // durably holds the version — no crash recovery needed (the lazy clear
    // in recovery remains only as the crash backstop).
    let f = fixture();
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);
    let dlfm = approved_write_open(&f, "/data/clip.mpg", 5);
    f.admin.write_file(&dlfm, "/data/clip.mpg", b"async v2").unwrap();
    let attr = f.admin.stat(&Cred::root(), "/data/clip.mpg").unwrap();
    f.server.close_notify("/data/clip.mpg", 5, true, attr.size, attr.mtime).unwrap();

    // The flag is set inside the close sub-transaction and may only clear
    // after the archive store holds v2.
    f.server.archive_store().wait_archived("/data/clip.mpg");
    assert!(f.server.archive_store().get("/data/clip.mpg", 2).is_some());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let entry = f.server.repository().get_file("/data/clip.mpg").unwrap();
        if !entry.needs_archive {
            break; // eagerly cleared by the completion callback
        }
        assert!(
            std::time::Instant::now() < deadline,
            "needs_archive was not cleared eagerly by the archiver callback"
        );
        std::thread::yield_now();
    }
    assert!(f.server.repository().files_needing_archive().is_empty());
}

#[test]
fn write_write_conflict_is_busy_until_close() {
    let f = fixture();
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);
    approved_write_open(&f, "/data/clip.mpg", 5);

    let tok = write_token(&f, "/data/clip.mpg");
    f.server.validate_token("/data/clip.mpg", &tok.encode(), ALICE.uid).unwrap();
    assert_eq!(
        f.server.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Write, 6),
        OpenDecision::Busy
    );

    f.server.close_notify("/data/clip.mpg", 5, false, 0, 0).unwrap();
    assert!(matches!(
        f.server.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Write, 6),
        OpenDecision::Approved { .. }
    ));
}

#[test]
fn rdd_read_blocks_writer_and_vice_versa() {
    let f = fixture();
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);

    // Reader opens with a read token.
    let tok = read_token(&f, "/data/clip.mpg");
    f.server.validate_token("/data/clip.mpg", &tok.encode(), ALICE.uid).unwrap();
    assert!(matches!(
        f.server.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Read, 1),
        OpenDecision::Approved { .. }
    ));

    // Writer is told Busy (read-write serialization at open, §4.2).
    let wtok = write_token(&f, "/data/clip.mpg");
    f.server.validate_token("/data/clip.mpg", &wtok.encode(), ALICE.uid).unwrap();
    assert_eq!(
        f.server.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Write, 2),
        OpenDecision::Busy
    );

    // Reader closes; writer proceeds; reader now blocked by writer.
    f.server.close_notify("/data/clip.mpg", 1, false, 0, 0).unwrap();
    assert!(matches!(
        f.server.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Write, 2),
        OpenDecision::Approved { .. }
    ));
    assert_eq!(
        f.server.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Read, 3),
        OpenDecision::Busy
    );
}

#[test]
fn blocked_mode_rejects_writes_outright() {
    let f = fixture();
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rfb);
    let tok = write_token(&f, "/data/clip.mpg");
    f.server.validate_token("/data/clip.mpg", &tok.encode(), ALICE.uid).unwrap();
    match f.server.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Write, 1) {
        OpenDecision::Rejected(msg) => assert!(msg.contains("blocked")),
        other => panic!("rfb write must be rejected, got {other:?}"),
    }
}

#[test]
fn mutation_check_vetoes_linked_files_only() {
    let f = fixture();
    assert!(f.server.mutation_check("/data/clip.mpg").is_ok());
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rff);
    let err = f.server.mutation_check("/data/clip.mpg").unwrap_err();
    assert!(err.contains("linked"));

    // nff: no referential integrity — mutations allowed.
    f.admin.write_file(&ALICE, "/data/loose.txt", b"x").unwrap();
    link_committed(&f, 2, "/data/loose.txt", ControlMode::Nff);
    assert!(f.server.mutation_check("/data/loose.txt").is_ok());
}

struct FailingHook;
impl HostHook for FailingHook {
    fn state_id(&self) -> u64 {
        0
    }
    fn commit_file_update(
        &self,
        _url: &str,
        _size: u64,
        _mtime: u64,
        _version: u64,
    ) -> Result<u64, String> {
        Err("host metadata update failed".into())
    }
    fn file_version(&self, _url: &str) -> Option<u64> {
        None
    }
}

#[test]
fn failed_close_commit_rolls_back_to_last_committed_version() {
    let f = fixture();
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);
    f.server.set_host_hook(Arc::new(FailingHook));

    let dlfm = approved_write_open(&f, "/data/clip.mpg", 5);
    f.admin.write_file(&dlfm, "/data/clip.mpg", b"doomed bytes").unwrap();
    let err = f.server.close_notify("/data/clip.mpg", 5, true, 12, 99).unwrap_err();
    assert!(err.contains("aborted"));

    // §4.2: the last committed version is restored; the dirty image is
    // quarantined; the version number did not move.
    assert_eq!(f.admin.read_file(&Cred::root(), "/data/clip.mpg").unwrap(), b"committed v1");
    let entry = f.server.repository().get_file("/data/clip.mpg").unwrap();
    assert_eq!(entry.cur_version, 1);
    assert_eq!(f.server.archive_store().quarantined().len(), 1);
    assert_eq!(f.server.stats.rollbacks.get(), 1);
}

// --- crash recovery ----------------------------------------------------------

const CLIP_URL: &str = "dlfs://srv1/data/clip.mpg";

/// A host whose committed `__dl_meta` rows are fixed: url -> version.
struct FixedRows(std::collections::HashMap<String, u64>);
impl HostHook for FixedRows {
    fn state_id(&self) -> u64 {
        0
    }
    fn commit_file_update(
        &self,
        _url: &str,
        _size: u64,
        _mtime: u64,
        _version: u64,
    ) -> Result<u64, String> {
        Err("not used".into())
    }
    fn file_version(&self, url: &str) -> Option<u64> {
        self.0.get(url).copied()
    }
}

/// Crash = drop the server, keep fs/repo-env/archive, rebuild, recover.
fn crash_and_recover(
    f: Fixture,
    repo_env: StorageEnv,
    host_rows: &[(&str, u64)],
) -> (Arc<MemFs>, Arc<DlfmServer>, dl_dlfm::RecoveryReport) {
    let Fixture { fs, server, clock, .. } = f;
    let archive = Arc::clone(server.archive_store());
    let cfg = server.config().clone();
    server.simulate_crash();
    drop(server); // the crash

    let server2 = Arc::new(
        DlfmServer::new(
            cfg,
            fs.clone() as Arc<dyn FileSystem>,
            Database::open(repo_env).unwrap(),
            archive,
            clock,
        )
        .unwrap(),
    );
    let rows = host_rows.iter().map(|(url, version)| (url.to_string(), *version)).collect();
    server2.set_host_hook(Arc::new(FixedRows(rows)));
    // The same rows as the host's view of this node (every file here is
    // linked rdd).
    let view = host_rows
        .iter()
        .map(|(url, version)| {
            let path = url.strip_prefix("dlfs://srv1").unwrap().to_string();
            let row = HostFile {
                version: *version,
                mode: ControlMode::Rdd,
                recovery: true,
                on_unlink: OnUnlink::Restore,
            };
            (path, row)
        })
        .collect();
    let report = server2.recover(&view).unwrap();
    (fs, server2, report)
}

#[test]
fn crash_mid_update_restores_last_committed_version() {
    let repo_env = StorageEnv::mem();
    let clock = Arc::new(SimClock::new(1_000_000));
    let fs = Arc::new(MemFs::with_clock(clock.clone()));
    let admin = Lfs::new(fs.clone() as Arc<dyn FileSystem>);
    admin.mkdir_p(&Cred::root(), "/data", 0o777).unwrap();
    admin.write_file(&ALICE, "/data/clip.mpg", b"committed v1").unwrap();
    let server = Arc::new(
        DlfmServer::new(
            DlfmConfig::new("srv1"),
            fs.clone() as Arc<dyn FileSystem>,
            Database::open(repo_env.clone()).unwrap(),
            Arc::new(ArchiveStore::new()),
            clock.clone(),
        )
        .unwrap(),
    );
    let f = Fixture { fs, server, clock, admin };
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);
    let dlfm = approved_write_open(&f, "/data/clip.mpg", 9);
    f.admin.write_file(&dlfm, "/data/clip.mpg", b"half-written garbage").unwrap();
    // CRASH before close.
    let (fs, server2, report) = crash_and_recover(f, repo_env, &[(CLIP_URL, 1)]);

    assert_eq!(report.updates_rolled_back, 1);
    let admin = Lfs::new(fs as Arc<dyn FileSystem>);
    assert_eq!(
        admin.read_file(&Cred::root(), "/data/clip.mpg").unwrap(),
        b"committed v1",
        "atomicity: none of the in-flight changes survive (§4.2)"
    );
    let entry = server2.repository().get_file("/data/clip.mpg").unwrap();
    assert_eq!(entry.cur_version, 1);
    assert!(server2.repository().get_uip("/data/clip.mpg").is_none());
    assert_eq!(server2.archive_store().quarantined().len(), 1);
    // At-rest attributes re-enforced.
    assert_eq!(admin.stat(&Cred::root(), "/data/clip.mpg").unwrap().mode, 0o400);
}

#[test]
fn crash_with_in_doubt_link_resolves_by_host_outcome() {
    for (host_committed, expect_linked) in [(true, true), (false, false)] {
        let repo_env = StorageEnv::mem();
        let clock = Arc::new(SimClock::new(1_000_000));
        let fs = Arc::new(MemFs::with_clock(clock.clone()));
        let admin = Lfs::new(fs.clone() as Arc<dyn FileSystem>);
        admin.mkdir_p(&Cred::root(), "/data", 0o777).unwrap();
        admin.write_file(&ALICE, "/data/clip.mpg", b"v1").unwrap();
        let server = Arc::new(
            DlfmServer::new(
                DlfmConfig::new("srv1"),
                fs.clone() as Arc<dyn FileSystem>,
                Database::open(repo_env.clone()).unwrap(),
                Arc::new(ArchiveStore::new()),
                clock.clone(),
            )
            .unwrap(),
        );
        let f = Fixture { fs, server, clock, admin };

        f.server
            .link_file(77, "/data/clip.mpg", ControlMode::Rdd, true, OnUnlink::Restore)
            .unwrap();
        f.server.prepare_host(77).unwrap();
        // CRASH between prepare and commit: the sub-transaction is in doubt.
        // The host transaction that links the file inserts its metadata
        // row at version 1: the row is there iff the host committed.
        let host_rows: &[(&str, u64)] = if host_committed { &[(CLIP_URL, 1)] } else { &[] };
        let (fs, server2, report) = crash_and_recover(f, repo_env, host_rows);

        assert_eq!(report.in_doubt_resolved.len(), 1);
        assert_eq!(report.in_doubt_resolved[0].1, host_committed);
        let admin = Lfs::new(fs as Arc<dyn FileSystem>);
        let attr = admin.stat(&Cred::root(), "/data/clip.mpg").unwrap();
        if expect_linked {
            assert!(server2.repository().get_file("/data/clip.mpg").is_some());
            assert_eq!(attr.mode, 0o400, "take-over enforced after commit");
        } else {
            assert!(server2.repository().get_file("/data/clip.mpg").is_none());
            assert_eq!(attr.uid, ALICE.uid, "original owner restored");
            assert_eq!(attr.mode, 0o644, "original mode restored");
        }
        assert!(server2.repository().list_intents().is_empty());
    }
}

#[test]
fn recovery_clears_transient_token_and_sync_state() {
    let repo_env = StorageEnv::mem();
    let clock = Arc::new(SimClock::new(1_000_000));
    let fs = Arc::new(MemFs::with_clock(clock.clone()));
    let admin = Lfs::new(fs.clone() as Arc<dyn FileSystem>);
    admin.mkdir_p(&Cred::root(), "/data", 0o777).unwrap();
    admin.write_file(&ALICE, "/data/clip.mpg", b"v1").unwrap();
    let server = Arc::new(
        DlfmServer::new(
            DlfmConfig::new("srv1"),
            fs.clone() as Arc<dyn FileSystem>,
            Database::open(repo_env.clone()).unwrap(),
            Arc::new(ArchiveStore::new()),
            clock.clone(),
        )
        .unwrap(),
    );
    let f = Fixture { fs, server, clock, admin };
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);
    let tok = read_token(&f, "/data/clip.mpg");
    f.server.validate_token("/data/clip.mpg", &tok.encode(), ALICE.uid).unwrap();
    assert!(matches!(
        f.server.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Read, 3),
        OpenDecision::Approved { .. }
    ));

    let (_fs, server2, _report) = crash_and_recover(f, repo_env, &[(CLIP_URL, 1)]);
    assert!(server2.repository().sync_entries("/data/clip.mpg").is_empty());
    // A write open straight after recovery succeeds (no stale conflicts),
    // once a fresh token is presented.
    let tok = AccessToken::generate(
        &server2.config().token_key,
        "srv1",
        "/data/clip.mpg",
        TokenKind::Write,
        u64::MAX,
    );
    server2.validate_token("/data/clip.mpg", &tok.encode(), ALICE.uid).unwrap();
    assert!(matches!(
        server2.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Write, 4),
        OpenDecision::Approved { .. }
    ));
}

// --- daemons -------------------------------------------------------------------

#[test]
fn upcall_daemon_round_trips() {
    let f = fixture();
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);
    let client = MainDaemon::new(Arc::clone(&f.server)).connect();

    let tok = write_token(&f, "/data/clip.mpg");
    let kind = client.validate_token("/data/clip.mpg", &tok.encode(), ALICE.uid).unwrap();
    assert_eq!(kind, TokenKind::Write);

    match client.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Write, 8).1 {
        OpenDecision::Approved { open_as } => assert_eq!(open_as, f.server.config().dlfm_cred),
        other => panic!("unexpected {other:?}"),
    }
    client.close_notify("/data/clip.mpg", 8, false, 0, 0).unwrap();
    assert!(client.mutation_check("/data/clip.mpg").is_err());
    assert_eq!(client.round_trip_count(), 4);
}

#[test]
fn token_embedding_in_names_parses() {
    let f = fixture();
    let tok = write_token(&f, "/data/clip.mpg");
    let with = embed_token("/data/clip.mpg", &tok);
    assert!(with.starts_with("/data/clip.mpg;dltoken="));
}

#[test]
fn child_agents_drive_link_through_2pc() {
    let f = fixture();
    let daemon = MainDaemon::new(Arc::clone(&f.server));
    let agent = daemon.connect();
    assert_eq!(daemon.child_count(), 1);

    agent.link(11, "/data/clip.mpg", ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
    agent.prepare(11).unwrap();
    agent.commit(11);
    assert!(f.server.repository().get_file("/data/clip.mpg").is_some());

    agent.unlink(12, "/data/clip.mpg").unwrap();
    agent.prepare(12).unwrap();
    agent.commit(12);
    assert!(f.server.repository().get_file("/data/clip.mpg").is_none());
}

#[test]
fn agent_abort_undoes_link() {
    let f = fixture();
    let daemon = MainDaemon::new(Arc::clone(&f.server));
    let agent = daemon.connect();
    agent.link(21, "/data/clip.mpg", ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
    agent.abort(21);
    assert!(f.server.repository().get_file("/data/clip.mpg").is_none());
    assert_eq!(f.admin.stat(&Cred::root(), "/data/clip.mpg").unwrap().uid, ALICE.uid);
}

#[test]
fn strict_link_rejects_linking_open_files() {
    let mut cfg = DlfmConfig::new("srv1");
    cfg.strict_link = true;
    let f = fixture_with(cfg);
    // Register an open of the (unlinked) file, as strict DLFS would.
    assert_eq!(
        f.server.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Read, 99),
        OpenDecision::NotManaged
    );
    let err = f
        .server
        .link_file(1, "/data/clip.mpg", ControlMode::Rdd, true, OnUnlink::Restore)
        .unwrap_err();
    assert!(err.contains("open"), "strict link closes the §4.5 window: {err}");

    f.server.unregister_open("/data/clip.mpg", 99);
    f.server.link_file(2, "/data/clip.mpg", ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
}

#[test]
fn archive_blocks_next_update_until_complete() {
    let mut cfg = DlfmConfig::new("srv1");
    cfg.sync_archive = false;
    let f = fixture_with(cfg);
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);

    let dlfm = approved_write_open(&f, "/data/clip.mpg", 5);
    f.admin.write_file(&dlfm, "/data/clip.mpg", b"v2").unwrap();
    f.server.close_notify("/data/clip.mpg", 5, true, 2, 999).unwrap();

    // Wait for the async job, then the next update is approved again.
    f.server.archive_store().wait_archived("/data/clip.mpg");
    let tok = write_token(&f, "/data/clip.mpg");
    f.server.validate_token("/data/clip.mpg", &tok.encode(), ALICE.uid).unwrap();
    assert!(matches!(
        f.server.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Write, 6),
        OpenDecision::Approved { .. }
    ));
}

#[test]
fn versions_accumulate_with_recovery_option() {
    let f = fixture();
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);
    for round in 2..=4u64 {
        let opener = round * 10;
        let dlfm = approved_write_open(&f, "/data/clip.mpg", opener);
        f.admin
            .write_file(&dlfm, "/data/clip.mpg", format!("content v{round}").as_bytes())
            .unwrap();
        f.server.close_notify("/data/clip.mpg", opener, true, 10, round).unwrap();
        f.server.archive_store().wait_archived("/data/clip.mpg");
    }
    let versions = f.server.archive_store().versions("/data/clip.mpg");
    assert_eq!(versions.len(), 4, "v1 before-image + three updates");
    assert_eq!(f.server.repository().get_file("/data/clip.mpg").unwrap().cur_version, 4);
    // State identifiers are non-decreasing.
    let ids: Vec<u64> = versions.iter().map(|(_, s)| *s).collect();
    assert!(ids.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn no_recovery_option_prunes_old_versions() {
    let f = fixture();
    f.server.link_file(1, "/data/clip.mpg", ControlMode::Rdd, false, OnUnlink::Restore).unwrap();
    f.server.prepare_host(1).unwrap();
    f.server.commit_host(1);

    for round in 2..=3u64 {
        let opener = round * 10;
        let dlfm = approved_write_open(&f, "/data/clip.mpg", opener);
        f.admin.write_file(&dlfm, "/data/clip.mpg", format!("v{round}").as_bytes()).unwrap();
        f.server.close_notify("/data/clip.mpg", opener, true, 2, round).unwrap();
        f.server.archive_store().wait_archived("/data/clip.mpg");
    }
    let versions = f.server.archive_store().versions("/data/clip.mpg");
    assert_eq!(versions.len(), 1, "only the last committed version is kept");
    assert_eq!(versions[0].0, 3);
}

// --- PR 5 front-door regressions ------------------------------------------------

/// Regression (PR 5): strict-link registration of an open of a *managed*
/// file must be recorded. The old dispatch routed `RegisterOpen` through
/// `open_check`, whose managed arm returned `NotManaged` for FS-controlled
/// reads without touching the Sync table — so an rff-linked file could be
/// unlinked while an application held it open, the exact §4.5 window
/// strict mode exists to close.
#[test]
fn strict_register_open_of_managed_file_blocks_unlink() {
    let mut cfg = DlfmConfig::new("srv1");
    cfg.strict_link = true;
    let f = fixture_with(cfg);
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rff);

    let client = MainDaemon::new(Arc::clone(&f.server)).connect();
    client.register_open("/data/clip.mpg", ALICE.uid, 41);
    let err = f.server.unlink_file(2, "/data/clip.mpg").unwrap_err();
    assert!(err.contains("open"), "registered open must block unlink: {err}");
    f.server.abort_host(2);

    // Close releases the registration — no leaked opener claims.
    client.unregister_open("/data/clip.mpg", 41);
    assert!(f.server.repository().sync_entries("/data/clip.mpg").is_empty());
    assert!(f.server.repository().get_uip("/data/clip.mpg").is_none());
    f.server.unlink_file(3, "/data/clip.mpg").unwrap();
    f.server.prepare_host(3).unwrap();
    f.server.commit_host(3);
}

/// Regression (PR 5): registration must not run the open-grant protocol.
/// The old dispatch claimed a conflict-checked read open on managed paths,
/// so a registration racing an in-flight write came back `Busy` and was
/// silently dropped — link/unlink could no longer see that open at all.
#[test]
fn strict_register_open_never_runs_the_grant_protocol() {
    let mut cfg = DlfmConfig::new("srv1");
    cfg.strict_link = true;
    let f = fixture_with(cfg);
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);

    // A granted write is in flight (UIP + write Sync row held by opener 7).
    let dlfm = approved_write_open(&f, "/data/clip.mpg", 7);

    // Registration while the write is open must still be recorded (the
    // grant protocol would answer Busy here and record nothing).
    let client = MainDaemon::new(Arc::clone(&f.server)).connect();
    client.register_open("/data/clip.mpg", ALICE.uid, 8);
    let sync = f.server.repository().sync_entries("/data/clip.mpg");
    assert_eq!(sync.len(), 2, "write grant + registration must both be visible: {sync:?}");

    // And it releases without disturbing the write's claim.
    client.unregister_open("/data/clip.mpg", 8);
    let sync = f.server.repository().sync_entries("/data/clip.mpg");
    assert_eq!(sync.len(), 1);
    assert_eq!(sync[0].opener, 7);
    f.admin.write_file(&dlfm, "/data/clip.mpg", b"v2").unwrap();
    f.server.close_notify("/data/clip.mpg", 7, true, 2, 99).unwrap();
    assert!(f.server.repository().sync_entries("/data/clip.mpg").is_empty());
    assert!(f.server.repository().get_uip("/data/clip.mpg").is_none());
}

/// Both carriers over one node: an in-process connection and a framed
/// socket connection to a wire daemon on the same lanes.
struct Carriers {
    main: MainDaemon,
    clients: [(&'static str, DlfmClient); 2],
    _wire: WireDaemon,
}

fn carriers(f: &Fixture, fault: Option<FaultInjector>) -> Carriers {
    let main = MainDaemon::with_fault_injector(Arc::clone(&f.server), fault);
    let wire = WireDaemon::spawn(&main, Arc::new(dl_obs::NetStats::new())).unwrap();
    let connector =
        WireConnector::new(Arc::new(dl_obs::NetStats::new()), std::time::Duration::from_secs(30));
    let conn = connector.connect(wire.socket_path(), "test").unwrap();
    let clients = [("local", main.connect()), ("wire", DlfmClient::connect(conn, "test").unwrap())];
    Carriers { main, clients, _wire: wire }
}

/// Regression (PR 5): a panic mid-dispatch must cost that request only,
/// whichever thread serves it — a pool worker for the socket frame, the
/// caller itself in-process. (The old one-shot reply channel was simply
/// dropped on a panic, so the client reported "upcall daemon is down"
/// against a healthy pool.)
#[test]
fn upcall_worker_panic_is_contained_and_labelled() {
    // A lane one head wide makes the claim sharpest: the one worker must
    // survive its own panic and keep serving, and the in-process caller's
    // unwind must hand back the lane's only slot — leaked, the very next
    // local call would wait for it forever.
    let f = fixture_with(DlfmConfig::new("srv1").upcall_workers(1, 1));
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);
    let injector: FaultInjector = Arc::new(|req| {
        if let Message::MutationCheck { path } = req {
            if path == "/data/boom" {
                panic!("injected worker fault");
            }
        }
    });
    let c = carriers(&f, Some(injector));

    for (served, (carrier, client)) in c.clients.iter().enumerate() {
        let err = client.mutation_check("/data/boom").unwrap_err();
        assert_eq!(
            err, "DLFM worker panicked while serving MutationCheck: injected worker fault",
            "{carrier}: panic must surface in-band with its context (and no \"daemon is down\")"
        );

        // The pool survives and keeps serving.
        assert!(client.mutation_check("/data/clip.mpg").is_err(), "linked file still vetoes");
        let tok = read_token(&f, "/data/clip.mpg");
        client.validate_token("/data/clip.mpg", &tok.encode(), ALICE.uid).unwrap();
        assert!(c.main.wait_upcalls_idle(std::time::Duration::from_secs(5)));
        assert_eq!(c.main.upcall_pool_stats().panics(), served as u64 + 1);
        assert!(c.main.upcall_pool_stats().workers() >= 1);
    }
    // Three requests per carrier; the local ones never left their caller.
    assert_eq!(c.main.upcall_pool_stats().tasks(), 6);
    assert_eq!(c.main.upcall_pool_stats().caller_served(), 3);
    assert_eq!(c.main.upcall_pool_stats().peak_workers(), 1);
}

// --- one protocol, one dispatcher ------------------------------------------------

/// Every request of the protocol, in an order that makes each reply
/// meaningful, plus what a server must refuse: bytes that name no enum
/// variant, a fenced coordinator's traffic, and a reply sent as a request.
/// The server's coordinator fence is at `FENCE`.
const FENCE: u64 = 5;

fn every_request(f: &Fixture) -> Vec<Message> {
    let clip = || "/data/clip.mpg".to_string();
    let link = |txid, coord_epoch, mode, on_unlink| Message::Link {
        txid,
        coord_epoch,
        path: clip(),
        mode,
        recovery: true,
        on_unlink,
    };
    let open = |wanted, opener| Message::OpenCheck { path: clip(), uid: ALICE.uid, wanted, opener };
    vec![
        Message::Hello { client: "table".into() },
        Message::EpochGet,
        Message::FreshnessToken,
        link(1, FENCE, ControlMode::Rdd.into(), OnUnlink::Restore.into()),
        Message::Prepare { txid: 1, coord_epoch: FENCE },
        Message::Commit { txid: 1, coord_epoch: FENCE },
        Message::ValidateToken {
            path: clip(),
            token: write_token(f, "/data/clip.mpg").encode(),
            uid: ALICE.uid,
        },
        Message::ValidateToken { path: clip(), token: "garbage".into(), uid: ALICE.uid },
        open(TokenKind::Write.into(), 7),
        open(TokenKind::Write.into(), 8), // Busy, with the epoch
        Message::CloseNotify { path: clip(), opener: 7, wrote: false, size: 0, mtime: 0 },
        Message::MutationCheck { path: clip() },
        Message::MutationCheck { path: "/data/unlinked".into() },
        Message::RegisterOpen { path: "/data/other".into(), uid: ALICE.uid, opener: 9 },
        Message::UnregisterOpen { path: "/data/other".into(), opener: 9 },
        Message::Unlink { txid: 2, coord_epoch: FENCE, path: clip() },
        Message::Abort { txid: 2, coord_epoch: FENCE },
        Message::EpochGet,
        Message::FreshnessToken,
        // Discriminants no variant owns.
        link(3, FENCE, 6, 0),
        link(3, FENCE, 0, 2),
        open(2, 10),
        // A deposed coordinator's traffic.
        link(4, FENCE - 1, 0, 0),
        Message::Unlink { txid: 4, coord_epoch: FENCE - 1, path: clip() },
        Message::Prepare { txid: 4, coord_epoch: FENCE - 1 },
        Message::Commit { txid: 4, coord_epoch: FENCE - 1 },
        // A reply is not a request.
        Message::Ok,
        Message::OpenBusy(3),
    ]
}

/// The equivalence three dispatchers used to only promise: `handle` on a
/// bare server, the in-process carrier and the socket carrier answer every
/// request with the same `Message`.
#[test]
fn every_request_gets_the_same_reply_from_handle_and_both_carriers() {
    let direct = fixture();
    direct.server.fence_coordinator(FENCE);
    let expected: Vec<(Message, Message)> = every_request(&direct)
        .into_iter()
        .map(|msg| (msg.clone(), direct.server.handle(msg)))
        .collect();
    // Spot checks: the table is only worth comparing if it says something.
    let reply_to = |name: &str, nth: usize| {
        &expected.iter().filter(|(req, _)| req.name() == name).nth(nth).unwrap().1
    };
    assert!(matches!(reply_to("Hello", 0), Message::HelloAck { coord_epoch: FENCE, .. }));
    assert_eq!(reply_to("Link", 0), &Message::Ok);
    assert_eq!(reply_to("ValidateToken", 0), &Message::TokenKindIs(TokenKind::Write.into()));
    assert!(matches!(reply_to("OpenCheck", 0), Message::OpenApproved { .. }));
    assert!(matches!(reply_to("OpenCheck", 1), Message::OpenBusy(_)));
    assert!(matches!(reply_to("MutationCheck", 0), Message::Err(_)));
    assert_eq!(reply_to("MutationCheck", 1), &Message::Ok);
    assert!(matches!(reply_to("Link", 1), Message::Err(e) if e.contains("control-mode")));
    assert!(matches!(reply_to("Link", 2), Message::Err(e) if e.contains("on-unlink")));
    assert!(
        matches!(reply_to("OpenCheck", 2), Message::OpenRejected(e) if e.contains("token-kind"))
    );
    assert!(matches!(reply_to("Link", 3), Message::Err(e) if e.contains("stale coordinator")));
    assert_eq!(reply_to("Commit", 1), &Message::Ok, "a fenced decision is dropped, not refused");
    assert!(matches!(reply_to("Ok", 0), Message::Err(e) if e.starts_with("unexpected message")));

    for carrier in [0, 1] {
        let f = fixture();
        f.server.fence_coordinator(FENCE);
        let c = carriers(&f, None);
        let (name, client) = &c.clients[carrier];
        for (msg, want) in &expected {
            assert_eq!(&client.call(msg.clone()).unwrap(), want, "{name}: reply to {msg:?}");
        }
    }
}

/// `OpenBusy` carries the sync epoch read immediately before the check
/// ran, on either carrier: a release that lands between the check and the
/// caller's wait has already moved the epoch past it, so the wait returns
/// at once instead of sleeping through the only wake-up there will be.
#[test]
fn a_release_between_busy_and_wait_is_never_slept_through() {
    let f = fixture();
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);
    let c = carriers(&f, None);
    for (round, (carrier, client)) in c.clients.iter().enumerate() {
        let (holder, waiter) = (10 * round as u64 + 1, 10 * round as u64 + 2);
        let tok = write_token(&f, "/data/clip.mpg");
        client.validate_token("/data/clip.mpg", &tok.encode(), ALICE.uid).unwrap();
        let (_, held) = client.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Write, holder);
        assert!(matches!(held, OpenDecision::Approved { .. }), "{carrier}: {held:?}");
        let (seen, busy) = client.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Write, waiter);
        assert_eq!(busy, OpenDecision::Busy, "{carrier}");

        // The release lands before the waiter gets round to waiting.
        client.close_notify("/data/clip.mpg", holder, false, 0, 0).unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                client.wait_epoch_change(seen);
                let _ = done_tx.send(());
            });
            let woke = done_rx.recv_timeout(std::time::Duration::from_secs(10));
            if woke.is_err() {
                // Unpark the waiter so the scope can end, then fail.
                f.server.unregister_open("/data/none", 0);
            }
            assert!(woke.is_ok(), "{carrier}: waited on an epoch the release had already passed");
        });
    }
}

// --- one archive store per node --------------------------------------------------

/// A node's disk whose content reads wait while `gate` is held for writing:
/// how a test keeps an archive job, which reads the file lazily, queued.
struct GatedFs {
    fs: Arc<MemFs>,
    gate: std::sync::RwLock<()>,
}

impl FileSystem for GatedFs {
    fn root(&self) -> Ino {
        self.fs.root()
    }
    fn fs_lookup(&self, cred: &Cred, parent: Ino, name: &str) -> FsResult<Ino> {
        self.fs.fs_lookup(cred, parent, name)
    }
    fn fs_getattr(&self, cred: &Cred, ino: Ino) -> FsResult<FileAttr> {
        self.fs.fs_getattr(cred, ino)
    }
    fn fs_setattr(&self, cred: &Cred, ino: Ino, set: &SetAttr) -> FsResult<FileAttr> {
        self.fs.fs_setattr(cred, ino, set)
    }
    fn fs_create(&self, cred: &Cred, parent: Ino, name: &str, mode: u16) -> FsResult<Ino> {
        self.fs.fs_create(cred, parent, name, mode)
    }
    fn fs_mkdir(&self, cred: &Cred, parent: Ino, name: &str, mode: u16) -> FsResult<Ino> {
        self.fs.fs_mkdir(cred, parent, name, mode)
    }
    fn fs_open(&self, cred: &Cred, ino: Ino, flags: OpenFlags) -> FsResult<()> {
        self.fs.fs_open(cred, ino, flags)
    }
    fn fs_close(&self, cred: &Cred, ino: Ino, flags: OpenFlags, written: bool) -> FsResult<()> {
        self.fs.fs_close(cred, ino, flags, written)
    }
    fn fs_read(&self, cred: &Cred, ino: Ino, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        let _open = self.gate.read().unwrap();
        self.fs.fs_read(cred, ino, offset, buf)
    }
    fn fs_write(&self, cred: &Cred, ino: Ino, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.fs.fs_write(cred, ino, offset, data)
    }
    fn fs_remove(&self, cred: &Cred, parent: Ino, name: &str) -> FsResult<()> {
        self.fs.fs_remove(cred, parent, name)
    }
    fn fs_rmdir(&self, cred: &Cred, parent: Ino, name: &str) -> FsResult<()> {
        self.fs.fs_rmdir(cred, parent, name)
    }
    fn fs_rename(
        &self,
        cred: &Cred,
        parent: Ino,
        name: &str,
        new_parent: Ino,
        new_name: &str,
    ) -> FsResult<()> {
        self.fs.fs_rename(cred, parent, name, new_parent, new_name)
    }
    fn fs_readdir(&self, cred: &Cred, ino: Ino) -> FsResult<Vec<DirEntry>> {
        self.fs.fs_readdir(cred, ino)
    }
    fn fs_lockctl(&self, cred: &Cred, ino: Ino, owner: LockOwner, op: LockOp) -> FsResult<bool> {
        self.fs.fs_lockctl(cred, ino, owner, op)
    }
}

/// A failover while the primary's archive job is still queued: the
/// promoted server is a new writer of the node's one store. Its first write
/// open of the file must not answer `Busy` on the deposed job's account;
/// and the deposed job, once it runs, reads the promoted node's bytes — it
/// must neither become the archived committed version nor clear the
/// marker of the promoted node's own job.
#[test]
fn failover_with_an_archive_job_queued_on_the_primary() {
    const CLIP: &str = "/data/clip.mpg";
    let clock = Arc::new(SimClock::new(1_000_000));
    let disk = Arc::new(MemFs::with_clock(clock.clone()));
    let admin = Lfs::new(disk.clone() as Arc<dyn FileSystem>);
    admin.mkdir_p(&Cred::root(), "/data", 0o777).unwrap();
    admin.write_file(&ALICE, CLIP, b"committed v1").unwrap();
    // One disk, one gate per server: each server's archive jobs can be
    // held on their own.
    let gated = || Arc::new(GatedFs { fs: Arc::clone(&disk), gate: Default::default() });
    let (primary_disk, promoted_disk) = (gated(), gated());
    let archive = Arc::new(ArchiveStore::new());
    let repo_env = StorageEnv::mem();
    let server = DlfmServer::new(
        DlfmConfig::new("srv1"),
        primary_disk.clone() as Arc<dyn FileSystem>,
        Database::open(repo_env.clone()).unwrap(),
        Arc::clone(&archive),
        clock.clone(),
    )
    .unwrap();
    let f = Fixture { fs: Arc::clone(&disk), server: Arc::new(server), clock, admin };
    link_committed(&f, 1, CLIP, ControlMode::Rdd);
    let dlfm = approved_write_open(&f, CLIP, 5);
    f.admin.write_file(&dlfm, CLIP, b"committed v2").unwrap();
    let primary_shut = primary_disk.gate.write().unwrap();
    f.server.close_notify(CLIP, 5, true, 12, 0).unwrap();
    assert!(archive.is_archiving(CLIP), "the job is queued behind the gate");

    // The standby holds the whole log; the primary dies and the standby's
    // server takes the node over, on the same disk and the same store.
    f.server.repository().db().flush().unwrap();
    f.server.simulate_crash();
    let promoted = DlfmServer::new(
        DlfmConfig::new("srv1"),
        promoted_disk.clone() as Arc<dyn FileSystem>,
        Database::open(repo_env.fork().unwrap()).unwrap(),
        Arc::clone(&archive),
        f.clock.clone(),
    )
    .unwrap();
    let row = HostFile {
        version: 2,
        mode: ControlMode::Rdd,
        recovery: true,
        on_unlink: OnUnlink::Restore,
    };
    let report = promoted.recover(&[(CLIP.to_string(), row)].into()).unwrap();
    assert_eq!(report.archives_recovered, 1, "the promoted server archives v2 itself");

    let tok = write_token(&f, CLIP);
    promoted.validate_token(CLIP, &tok.encode(), ALICE.uid).unwrap();
    let open = promoted.open_check(CLIP, ALICE.uid, TokenKind::Write, 6);
    assert!(matches!(open, OpenDecision::Approved { .. }), "{open:?}");
    f.admin.write_file(&dlfm, CLIP, b"committed v3").unwrap();
    let promoted_shut = promoted_disk.gate.write().unwrap();
    promoted.close_notify(CLIP, 6, true, 12, 0).unwrap();

    // Only now does the deposed job read the file; dropping its server
    // joins the archiver once the job has run.
    drop(primary_shut);
    drop(f);
    assert_eq!(archive.get(CLIP, 2).unwrap().data, b"committed v2");
    assert!(archive.is_archiving(CLIP), "the deposed job cleared the promoted node's marker");

    drop(promoted_shut);
    archive.wait_archived(CLIP);
    assert_eq!(archive.get(CLIP, 3).unwrap().data, b"committed v3");
}
