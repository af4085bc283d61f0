//! End-to-end tests of the DLFM protocol machinery: link/unlink
//! sub-transactions with 2PC, the open/close update protocol, take-over,
//! archiving, rollback and crash recovery.

use std::sync::Arc;

use dl_dlfm::{
    embed_token, AccessToken, AgentConnection, ArchiveStore, ControlMode, DlfmClient, DlfmConfig,
    DlfmServer, FaultInjector, HostFile, HostHook, HostView, MainDaemon, Message, OnUnlink,
    OpenDecision, Repository, TokenKey, TokenKind, WireConnector, WireDaemon,
};
use dl_fskit::{
    Clock, Cred, DirEntry, FileAttr, FileSystem, FsResult, Ino, Lfs, LockOp, LockOwner, MemFs,
    OpenFlags, SetAttr, SimClock,
};
use dl_minidb::StorageEnv;

#[path = "support/mem_host.rs"]
mod mem_host;
use mem_host::MemHost;

const ALICE: Cred = Cred { uid: 100, gid: 100 };

struct Fixture {
    fs: Arc<MemFs>,
    server: Arc<DlfmServer>,
    clock: Arc<SimClock>,
    admin: Lfs,
}

fn fixture_with(cfg: DlfmConfig) -> Fixture {
    fixture_under(cfg, MemHost::new())
}

fn fixture_under(cfg: DlfmConfig, host: Arc<MemHost>) -> Fixture {
    let clock = Arc::new(SimClock::new(1_000_000));
    let fs = Arc::new(MemFs::with_clock(clock.clone()));
    let admin = Lfs::new(fs.clone() as Arc<dyn FileSystem>);
    admin.mkdir_p(&Cred::root(), "/data", 0o777).unwrap();
    admin.write_file(&ALICE, "/data/clip.mpg", b"committed v1").unwrap();
    let server = Arc::new(DlfmServer::new(
        cfg,
        fs.clone() as Arc<dyn FileSystem>,
        Repository::open(StorageEnv::mem()).unwrap(),
        Arc::new(ArchiveStore::new()),
        clock.clone(),
        host,
    ));
    Fixture { fs, server, clock, admin }
}

fn fixture() -> Fixture {
    fixture_with(DlfmConfig::new("srv1"))
}

fn write_token(f: &Fixture, path: &str) -> AccessToken {
    AccessToken::generate(
        f.server.token_key(),
        "srv1",
        path,
        TokenKind::Write,
        f.clock.now_ms() + 60_000,
    )
}

fn read_token(f: &Fixture, path: &str) -> AccessToken {
    AccessToken::generate(
        f.server.token_key(),
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
    f.server.commit_host(host_txid);
}

/// Validates a write token and opens the file for update; returns opener id.
fn approved_write_open(f: &Fixture, path: &str, opener: u64) -> Cred {
    let tok = write_token(f, path);
    f.server.validate_token(path, &tok.encode(), ALICE.uid).unwrap();
    match f.server.open_check(path, ALICE.uid, TokenKind::Write, opener, None) {
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
    // A link forces no intent.
    assert!(f.server.repository().list_intents().is_empty());
}

#[test]
fn link_abort_restores_file_attributes() {
    let f = fixture();
    f.server.link_file(7, "/data/clip.mpg", ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
    // The take-over waits for the decision...
    assert_eq!(f.admin.stat(&Cred::root(), "/data/clip.mpg").unwrap().uid, ALICE.uid);
    assert!(f.server.repository().list_intents().is_empty(), "the vote wrote nothing");
    // ...so an abort leaves the file as it was.
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
    f.server.commit_host(1);

    f.server.unlink_file(2, "/data/clip.mpg").unwrap();
    f.server.commit_host(2);
    assert!(!f.admin.exists(&Cred::root(), "/data/clip.mpg"));
    assert!(f.server.archive_store().latest("/data/clip.mpg").is_none());
}

#[test]
fn unlink_finishes_the_files_queued_archive_job() {
    // The close queues its archive job (asynchronous archiving); the
    // unlink hands the file back to its owner at commit. Were the job
    // still queued then, it would read whatever the owner wrote next into
    // the committed version's slot. The unlink's vote runs the job first.
    let f = fixture();
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);
    let dlfm = approved_write_open(&f, "/data/clip.mpg", 5);
    f.admin.write_file(&dlfm, "/data/clip.mpg", b"committed v2").unwrap();
    let attr = f.admin.stat(&Cred::root(), "/data/clip.mpg").unwrap();
    f.server.close_notify("/data/clip.mpg", 5, true, attr.size, attr.mtime).unwrap();

    f.server.unlink_file(2, "/data/clip.mpg").unwrap();
    f.server.commit_host(2);
    f.admin.write_file(&ALICE, "/data/clip.mpg", b"the owner's own bytes").unwrap();

    f.server.archive_store().wait_archived("/data/clip.mpg");
    assert_eq!(f.server.archive_store().get("/data/clip.mpg", 2).unwrap().data, b"committed v2");
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
    f.server.commit_host(3);
}

#[test]
fn write_open_requires_valid_token_entry() {
    let f = fixture();
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);
    // No token validated yet.
    match f.server.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Write, 1, None) {
        OpenDecision::Rejected(msg) => assert!(msg.contains("token")),
        other => panic!("expected rejection, got {other:?}"),
    }
}

#[test]
fn expired_token_rejected_at_validation() {
    let f = fixture();
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);
    let tok = AccessToken::generate(
        f.server.token_key(),
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
    match f.server.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Write, 1, None) {
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
        f.server.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Write, 6, None),
        OpenDecision::Busy
    );

    f.server.close_notify("/data/clip.mpg", 5, false, 0, 0).unwrap();
    assert!(matches!(
        f.server.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Write, 6, None),
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
        f.server.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Read, 1, None),
        OpenDecision::Approved { .. }
    ));

    // Writer is told Busy (read-write serialization at open, §4.2).
    let wtok = write_token(&f, "/data/clip.mpg");
    f.server.validate_token("/data/clip.mpg", &wtok.encode(), ALICE.uid).unwrap();
    assert_eq!(
        f.server.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Write, 2, None),
        OpenDecision::Busy
    );

    // Reader closes; writer proceeds; reader now blocked by writer.
    f.server.close_notify("/data/clip.mpg", 1, false, 0, 0).unwrap();
    assert!(matches!(
        f.server.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Write, 2, None),
        OpenDecision::Approved { .. }
    ));
    assert_eq!(
        f.server.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Read, 3, None),
        OpenDecision::Busy
    );
}

#[test]
fn blocked_mode_rejects_writes_outright() {
    let f = fixture();
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rfb);
    let tok = write_token(&f, "/data/clip.mpg");
    f.server.validate_token("/data/clip.mpg", &tok.encode(), ALICE.uid).unwrap();
    match f.server.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Write, 1, None) {
        OpenDecision::Rejected(msg) => assert!(msg.contains("blocked")),
        other => panic!("rfb write must be rejected, got {other:?}"),
    }
}

/// §4.1 with the token riding the open check: the check validates the
/// token first, lets it stand in for the token entry, and leaves the entry
/// behind on every outcome — inside the claim transaction when the open is
/// granted, so a granted open costs one repository transaction.
#[test]
fn a_presented_token_records_its_entry_on_every_outcome() {
    const BOB: u32 = 101;
    let f = fixture();
    f.admin.write_file(&ALICE, "/data/rfb.bin", b"blocked").unwrap();
    f.admin.write_file(&ALICE, "/data/plain.bin", b"unlinked").unwrap();
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);
    link_committed(&f, 2, "/data/rfb.bin", ControlMode::Rfb);
    let repo = f.server.repository();
    let has_entry = |uid, path, kind| repo.check_token_entry(uid, path, kind, f.clock.now_ms());
    let open = |path, uid, wanted, opener, token: &AccessToken| {
        f.server.open_check(path, uid, wanted, opener, Some(&token.encode()))
    };
    let clip = "/data/clip.mpg";

    // Granted: the claim records the entry, in its own transaction.
    let ops = repo.update_op_count();
    assert!(matches!(
        open(clip, ALICE.uid, TokenKind::Write, 5, &write_token(&f, clip)),
        OpenDecision::Approved { .. }
    ));
    assert_eq!(repo.update_op_count() - ops, 1, "one repository transaction per open");
    assert!(has_entry(ALICE.uid, clip, TokenKind::Write));

    // Busy: the write above is still open.
    assert_eq!(open(clip, BOB, TokenKind::Write, 6, &write_token(&f, clip)), OpenDecision::Busy);
    assert!(has_entry(BOB, clip, TokenKind::Write));

    // Rejected for another reason than the token.
    let rfb = "/data/rfb.bin";
    match open(rfb, ALICE.uid, TokenKind::Write, 7, &write_token(&f, rfb)) {
        OpenDecision::Rejected(msg) => assert!(msg.contains("blocked"), "{msg}"),
        other => panic!("rfb write must be rejected, got {other:?}"),
    }
    assert!(has_entry(ALICE.uid, rfb, TokenKind::Write));

    // Not managed.
    let plain = "/data/plain.bin";
    let decision = open(plain, ALICE.uid, TokenKind::Write, 8, &write_token(&f, plain));
    assert_eq!(decision, OpenDecision::NotManaged);
    assert!(has_entry(ALICE.uid, plain, TokenKind::Write));

    // A read token for a write: a valid token of the wrong kind. The open
    // is refused for want of a write entry, and the read entry recorded.
    f.server.close_notify(clip, 5, false, 0, 0).unwrap();
    match open(clip, 102, TokenKind::Write, 9, &read_token(&f, clip)) {
        OpenDecision::Rejected(msg) => assert!(msg.contains("no valid write token"), "{msg}"),
        other => panic!("a read token cannot open for write, got {other:?}"),
    }
    assert!(has_entry(102, clip, TokenKind::Read));
    assert!(!has_entry(102, clip, TokenKind::Write));

    // Forged and expired tokens are refused with validate_token's words,
    // before anything is recorded.
    let forged = AccessToken::generate(
        &TokenKey::new(b"not the key"),
        "srv1",
        clip,
        TokenKind::Read,
        u64::MAX,
    );
    let expired = AccessToken::generate(
        f.server.token_key(),
        "srv1",
        clip,
        TokenKind::Read,
        f.clock.now_ms() - 1,
    );
    for bad in [forged, expired] {
        let refusal = f.server.validate_token(clip, &bad.encode(), 103).unwrap_err();
        assert_eq!(open(clip, 103, TokenKind::Read, 10, &bad), OpenDecision::Rejected(refusal));
    }
    assert!(!has_entry(103, clip, TokenKind::Read));
}

/// The untracked-read ablation takes no claim transaction: the token's
/// entry is recorded on its own.
#[test]
fn an_untracked_read_records_the_presented_tokens_entry_on_its_own() {
    let mut cfg = DlfmConfig::new("srv1");
    cfg.track_read_sync = false;
    let f = fixture_with(cfg);
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);
    let repo = f.server.repository();
    let ops = repo.update_op_count();
    let token = read_token(&f, "/data/clip.mpg").encode();
    assert!(matches!(
        f.server.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Read, 1, Some(&token)),
        OpenDecision::Approved { .. }
    ));
    assert_eq!(repo.update_op_count() - ops, 1);
    assert!(repo.check_token_entry(ALICE.uid, "/data/clip.mpg", TokenKind::Read, 0));
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

#[test]
fn failed_close_commit_rolls_back_to_last_committed_version() {
    let f = fixture_under(DlfmConfig::new("srv1"), MemHost::failing());
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);

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

    let server2 = Arc::new(DlfmServer::new(
        cfg,
        fs.clone() as Arc<dyn FileSystem>,
        Repository::open(repo_env).unwrap(),
        archive,
        clock,
        MemHost::with_rows(host_rows),
    ));
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
                orig_uid: ALICE.uid,
                orig_gid: ALICE.gid,
                orig_mode: 0o644,
            };
            (path, row)
        })
        .collect();
    let report = server2.recover(&view, &HostView::new()).unwrap();
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
    let server = Arc::new(DlfmServer::new(
        DlfmConfig::new("srv1"),
        fs.clone() as Arc<dyn FileSystem>,
        Repository::open(repo_env.clone()).unwrap(),
        Arc::new(ArchiveStore::new()),
        clock.clone(),
        MemHost::new(),
    ));
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
        let server = Arc::new(DlfmServer::new(
            DlfmConfig::new("srv1"),
            fs.clone() as Arc<dyn FileSystem>,
            Repository::open(repo_env.clone()).unwrap(),
            Arc::new(ArchiveStore::new()),
            clock.clone(),
            MemHost::new(),
        ));
        let f = Fixture { fs, server, clock, admin };

        f.server
            .link_file(77, "/data/clip.mpg", ControlMode::Rdd, true, OnUnlink::Restore)
            .unwrap();
        // CRASH between the vote and the decision. The vote wrote nothing
        // here: the host transaction that links the file inserts its
        // metadata row at version 1, with the original attributes, and the
        // row is there iff the host committed.
        let host_rows: &[(&str, u64)] = if host_committed { &[(CLIP_URL, 1)] } else { &[] };
        let (fs, server2, report) = crash_and_recover(f, repo_env, host_rows);

        assert!(report.in_doubt_resolved.is_empty(), "a link leaves no intent in doubt");
        assert_eq!(report.files_relinked, u64::from(host_committed));
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
    let server = Arc::new(DlfmServer::new(
        DlfmConfig::new("srv1"),
        fs.clone() as Arc<dyn FileSystem>,
        Repository::open(repo_env.clone()).unwrap(),
        Arc::new(ArchiveStore::new()),
        clock.clone(),
        MemHost::new(),
    ));
    let f = Fixture { fs, server, clock, admin };
    link_committed(&f, 1, "/data/clip.mpg", ControlMode::Rdd);
    let tok = read_token(&f, "/data/clip.mpg");
    f.server.validate_token("/data/clip.mpg", &tok.encode(), ALICE.uid).unwrap();
    assert!(matches!(
        f.server.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Read, 3, None),
        OpenDecision::Approved { .. }
    ));

    let (_fs, server2, _report) = crash_and_recover(f, repo_env, &[(CLIP_URL, 1)]);
    assert!(server2.repository().sync_entries("/data/clip.mpg").is_empty());
    // A write open straight after recovery succeeds (no stale conflicts),
    // once a fresh token is presented.
    let tok = AccessToken::generate(
        server2.token_key(),
        "srv1",
        "/data/clip.mpg",
        TokenKind::Write,
        u64::MAX,
    );
    server2.validate_token("/data/clip.mpg", &tok.encode(), ALICE.uid).unwrap();
    assert!(matches!(
        server2.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Write, 4, None),
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

    match client.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Write, 8, None).1 {
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
    agent.commit(11);
    assert!(f.server.repository().get_file("/data/clip.mpg").is_some());

    agent.unlink(12, "/data/clip.mpg").unwrap();
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
        f.server.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Read, 99, None),
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
        f.server.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Write, 6, None),
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
    client.register_open("/data/clip.mpg", ALICE.uid, 41).unwrap();
    let err = f.server.unlink_file(2, "/data/clip.mpg").unwrap_err();
    assert!(err.contains("open"), "registered open must block unlink: {err}");
    f.server.abort_host(2);

    // Close releases the registration — no leaked opener claims.
    client.unregister_open("/data/clip.mpg", 41);
    assert!(f.server.repository().sync_entries("/data/clip.mpg").is_empty());
    assert!(f.server.repository().get_uip("/data/clip.mpg").is_none());
    f.server.unlink_file(3, "/data/clip.mpg").unwrap();
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
    client.register_open("/data/clip.mpg", ALICE.uid, 8).unwrap();
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
/// whichever thread serves it — the reactor thread that read the socket
/// frame, the caller itself in-process. (The old one-shot reply channel was simply
/// dropped on a panic, so the client reported "upcall daemon is down"
/// against a healthy pool.)
#[test]
fn upcall_worker_panic_is_contained_and_labelled() {
    // A lane one head wide makes the claim sharpest: the serving thread
    // must survive its own panic and keep serving, and the unwind must hand
    // back the lane's only slot — leaked, the very next call would wait
    // (in-process) or park (over the wire) for it forever.
    let f = fixture_with(DlfmConfig::new("srv1").upcall_workers(1));
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

        // A reply goes out before its head leaves the lane — before a
        // panic has finished unwinding, too. Let the head leave before the
        // next call (a leaked slot fails here), so each frame finds the one
        // slot free and is served where it was read rather than parked
        // behind the previous head.
        let idle = || assert!(c.main.wait_upcalls_idle(std::time::Duration::from_secs(5)));
        idle();

        // The lane survives and keeps serving.
        assert!(client.mutation_check("/data/clip.mpg").is_err(), "linked file still vetoes");
        idle();
        let tok = read_token(&f, "/data/clip.mpg");
        client.validate_token("/data/clip.mpg", &tok.encode(), ALICE.uid).unwrap();
        idle();
        assert_eq!(c.main.upcall_pool_stats().panics(), served as u64 + 1);
        assert_eq!(c.main.upcall_pool_stats().workers(), 0, "the slot came back");
    }
    // Three requests per carrier, each served on the thread that had it:
    // the caller's own, or the one that read the frame.
    assert_eq!(c.main.upcall_pool_stats().tasks(), 6);
    assert_eq!(c.main.upcall_pool_stats().caller_served(), 6);
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
    let open = |wanted, opener, token: &str| Message::OpenCheck {
        path: clip(),
        uid: ALICE.uid,
        wanted,
        opener,
        token: token.into(),
    };
    vec![
        Message::Hello { client: "table".into() },
        Message::EpochGet,
        Message::FreshnessToken,
        link(1, FENCE, ControlMode::Rdd.into(), OnUnlink::Restore.into()),
        Message::Commit { txid: 1, coord_epoch: FENCE },
        Message::ValidateToken {
            path: clip(),
            token: write_token(f, "/data/clip.mpg").encode(),
            uid: ALICE.uid,
        },
        Message::ValidateToken { path: clip(), token: "garbage".into(), uid: ALICE.uid },
        open(TokenKind::Write.into(), 7, ""),
        open(TokenKind::Write.into(), 8, ""), // Busy, with the epoch
        Message::CloseNotify { path: clip(), opener: 7, wrote: false, size: 0, mtime: 0 },
        // An open presenting its token, and one presenting garbage.
        open(TokenKind::Write.into(), 11, &write_token(f, "/data/clip.mpg").encode()),
        Message::CloseNotify { path: clip(), opener: 11, wrote: false, size: 0, mtime: 0 },
        open(TokenKind::Write.into(), 12, "garbage"),
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
        open(2, 10, ""),
        // A deposed coordinator's traffic.
        link(4, FENCE - 1, 0, 0),
        Message::Unlink { txid: 4, coord_epoch: FENCE - 1, path: clip() },
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
    assert!(matches!(reply_to("Link", 0), Message::LinkVote { uid: 100, mode: 0o644, .. }));
    assert_eq!(reply_to("ValidateToken", 0), &Message::TokenKindIs(TokenKind::Write.into()));
    assert!(matches!(reply_to("OpenCheck", 0), Message::OpenApproved { .. }));
    assert!(matches!(reply_to("OpenCheck", 1), Message::OpenBusy(_)));
    assert!(matches!(reply_to("OpenCheck", 2), Message::OpenApproved { .. }));
    assert_eq!(reply_to("OpenCheck", 3), &Message::OpenRejected("malformed token".into()));
    assert!(matches!(reply_to("MutationCheck", 0), Message::Err(_)));
    assert_eq!(reply_to("MutationCheck", 1), &Message::Ok);
    assert!(matches!(reply_to("Link", 1), Message::Err(e) if e.contains("control-mode")));
    assert!(matches!(reply_to("Link", 2), Message::Err(e) if e.contains("on-unlink")));
    assert!(
        matches!(reply_to("OpenCheck", 4), Message::OpenRejected(e) if e.contains("token-kind"))
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
        let (_, held) =
            client.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Write, holder, None);
        assert!(matches!(held, OpenDecision::Approved { .. }), "{carrier}: {held:?}");
        let (seen, busy) =
            client.open_check("/data/clip.mpg", ALICE.uid, TokenKind::Write, waiter, None);
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
/// `reads` counts the reads that have reached the gate.
struct GatedFs {
    fs: Arc<MemFs>,
    gate: std::sync::RwLock<()>,
    reads: std::sync::atomic::AtomicUsize,
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
        self.reads.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
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
    let gated = || {
        Arc::new(GatedFs {
            fs: Arc::clone(&disk),
            gate: Default::default(),
            reads: Default::default(),
        })
    };
    let (primary_disk, promoted_disk) = (gated(), gated());
    let archive = Arc::new(ArchiveStore::new());
    let repo_env = StorageEnv::mem();
    let server = DlfmServer::new(
        DlfmConfig::new("srv1"),
        primary_disk.clone() as Arc<dyn FileSystem>,
        Repository::open(repo_env.clone()).unwrap(),
        Arc::clone(&archive),
        clock.clone(),
        MemHost::new(),
    );
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
        Repository::open(repo_env.fork().unwrap()).unwrap(),
        Arc::clone(&archive),
        f.clock.clone(),
        MemHost::new(),
    );
    let row = HostFile {
        version: 2,
        mode: ControlMode::Rdd,
        recovery: true,
        on_unlink: OnUnlink::Restore,
        orig_uid: ALICE.uid,
        orig_gid: ALICE.gid,
        orig_mode: 0o644,
    };
    let report = promoted.recover(&[(CLIP.to_string(), row)].into(), &HostView::new()).unwrap();
    assert_eq!(report.archives_recovered, 1, "the promoted server archives v2 itself");

    let tok = write_token(&f, CLIP);
    promoted.validate_token(CLIP, &tok.encode(), ALICE.uid).unwrap();
    let open = promoted.open_check(CLIP, ALICE.uid, TokenKind::Write, 6, None);
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

// --- a write open finishes its file's archive job ------------------------------

/// §4.4 blocks "any new update request to the file ... until the archiving
/// completes": a write open that meets its file's queued job is granted
/// with no `Busy`, and only once the store holds the version the close
/// committed.
#[test]
fn a_write_open_right_after_a_close_is_granted_with_the_version_archived() {
    const CLIP: &str = "/data/clip.mpg";
    let f = fixture();
    link_committed(&f, 1, CLIP, ControlMode::Rdd);
    for version in 2..=6u64 {
        let dlfm = approved_write_open(&f, CLIP, version);
        assert!(
            f.server.archive_store().contains(CLIP, version - 1),
            "granted before v{}",
            version - 1
        );
        f.admin.write_file(&dlfm, CLIP, format!("v{version}").as_bytes()).unwrap();
        f.server.close_notify(CLIP, version, true, 2, version).unwrap();
    }
    f.server.archive_store().wait_archived(CLIP);
    assert_eq!(f.server.archive_store().get(CLIP, 6).unwrap().data, b"v6");
    assert_eq!(f.server.stats.busy_responses.get(), 0);
}

/// A write open that meets the job the archiver's worker has already
/// started waits it out — no `Busy` — and is granted once it has run.
#[test]
fn a_write_open_waits_out_the_archive_job_the_worker_started() {
    use std::sync::atomic::Ordering;
    const CLIP: &str = "/data/clip.mpg";
    let clock = Arc::new(SimClock::new(1_000_000));
    let disk = Arc::new(MemFs::with_clock(clock.clone()));
    let admin = Lfs::new(disk.clone() as Arc<dyn FileSystem>);
    admin.mkdir_p(&Cred::root(), "/data", 0o777).unwrap();
    admin.write_file(&ALICE, CLIP, b"committed v1").unwrap();
    let gated = Arc::new(GatedFs {
        fs: Arc::clone(&disk),
        gate: Default::default(),
        reads: Default::default(),
    });
    let server = DlfmServer::new(
        DlfmConfig::new("srv1"),
        gated.clone() as Arc<dyn FileSystem>,
        Repository::open(StorageEnv::mem()).unwrap(),
        Arc::new(ArchiveStore::new()),
        clock.clone(),
        MemHost::new(),
    );
    let f = Fixture { fs: disk, server: Arc::new(server), clock, admin };
    link_committed(&f, 1, CLIP, ControlMode::Rdd);
    let dlfm = approved_write_open(&f, CLIP, 5);
    f.admin.write_file(&dlfm, CLIP, b"committed v2").unwrap();

    let shut = gated.gate.write().unwrap();
    let reads = gated.reads.load(Ordering::SeqCst);
    f.server.close_notify(CLIP, 5, true, 12, 0).unwrap();
    // Nobody else reads the disk: the next read is the worker's, stuck
    // behind the gate with the job started.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while gated.reads.load(Ordering::SeqCst) == reads {
        assert!(std::time::Instant::now() < deadline, "the worker never started the job");
        std::thread::yield_now();
    }
    let tok = write_token(&f, CLIP);
    f.server.validate_token(CLIP, &tok.encode(), ALICE.uid).unwrap();
    let (done_tx, done) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            let open = f.server.open_check(CLIP, ALICE.uid, TokenKind::Write, 6, None);
            done_tx.send(open).unwrap();
        });
        assert!(
            done.recv_timeout(std::time::Duration::from_millis(50)).is_err(),
            "the open returned while the archive job was still running"
        );
        drop(shut);
        let open = done.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        assert!(matches!(open, OpenDecision::Approved { .. }), "{open:?}");
    });
    assert_eq!(f.server.archive_store().get(CLIP, 2).unwrap().data, b"committed v2");
    assert_eq!(f.server.stats.busy_responses.get(), 0);
    assert_eq!(f.server.stats.archive_jobs_by_opener.get(), 0, "the worker ran the job");
}

/// The archiver's `needs_archive` clear never waits for the file's row: it
/// skips a row another transaction holds, leaving the flag set, and
/// recovery's re-archive pass clears it.
#[test]
fn a_needs_archive_clear_skips_a_held_row_and_recovery_clears_it() {
    use dl_minidb::Value;
    const CLIP: &str = "/data/clip.mpg";
    let repo_env = StorageEnv::mem();
    let clock = Arc::new(SimClock::new(1_000_000));
    let fs = Arc::new(MemFs::with_clock(clock.clone()));
    let admin = Lfs::new(fs.clone() as Arc<dyn FileSystem>);
    admin.mkdir_p(&Cred::root(), "/data", 0o777).unwrap();
    admin.write_file(&ALICE, CLIP, b"committed v1").unwrap();
    let server = DlfmServer::new(
        DlfmConfig::new("srv1"),
        fs.clone() as Arc<dyn FileSystem>,
        Repository::open(repo_env.clone()).unwrap(),
        Arc::new(ArchiveStore::new()),
        clock.clone(),
        MemHost::new(),
    );
    let f = Fixture { fs, server: Arc::new(server), clock, admin };
    link_committed(&f, 1, CLIP, ControlMode::Rdd);
    let dlfm = approved_write_open(&f, CLIP, 5);
    f.admin.write_file(&dlfm, CLIP, b"committed v2").unwrap();
    f.server.close_notify(CLIP, 5, true, 12, 0).unwrap();
    f.server.archive_store().wait_archived(CLIP);

    // Whatever the job's own clear did, the flag is set again, and another
    // transaction holds the row.
    let repo = f.server.repository();
    let key = Value::Text(CLIP.to_string());
    let mut txn = repo.db().begin();
    txn.update_column("dl_files", &key, "needs_archive", Value::Bool(true)).unwrap();
    txn.commit().unwrap();
    let holder = repo.db().begin();
    holder.get_for_update("dl_files", &key).unwrap();
    assert_eq!(
        repo.clear_needs_archive_if_version(CLIP, 2),
        Ok(false),
        "the clear waited or wrote"
    );
    drop(holder);
    assert!(repo.get_file(CLIP).unwrap().needs_archive, "the skipped clear cleared the flag");

    repo.db().flush().unwrap();
    let (_, server, report) = crash_and_recover(f, repo_env, &[(CLIP_URL, 2)]);
    assert_eq!(report.archives_recovered, 0, "the store already held v2");
    assert!(!server.repository().get_file(CLIP).unwrap().needs_archive);
}

// --- open-file state races ---------------------------------------------------------

/// Opens `path` for `wanted` as `opener`, waiting out every `Busy` until
/// the sync epoch moves (failing, rather than hanging, after 10 s of
/// them). Returns the decision and whether `settled` was set when it came
/// back.
fn open_waiting(
    f: &Fixture,
    path: &str,
    wanted: TokenKind,
    opener: u64,
    settled: &std::sync::atomic::AtomicBool,
) -> (OpenDecision, bool) {
    use std::sync::atomic::Ordering::SeqCst;
    use std::time::{Duration, Instant};
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let epoch = f.server.epoch();
        let decision = f.server.open_check(path, ALICE.uid, wanted, opener, None);
        if decision != OpenDecision::Busy {
            return (decision, settled.load(SeqCst));
        }
        while f.server.epoch() == epoch {
            assert!(Instant::now() < deadline, "opener {opener}: Busy for 10 s");
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

/// A read open racing an unlink branch of its file is seen by the unlink's
/// open check — the unlink is refused — or it is not approved until the
/// branch is decided: never `Approved` on a file whose unlink has voted.
/// First at fixed cuts (before the vote, then during the branch through
/// its commit and its abort), then under free-running interleavings.
#[test]
fn a_read_open_racing_an_unlink_is_seen_or_waits_for_the_decision() {
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
    const CLIP: &str = "/data/clip.mpg";
    let f = fixture();
    link_committed(&f, 1, CLIP, ControlMode::Rdd);
    let tok = read_token(&f, CLIP);
    f.server.validate_token(CLIP, &tok.encode(), ALICE.uid).unwrap();
    let mut txid = 100;

    // Before the vote: the open is seen, and the unlink refused.
    let never = AtomicBool::new(false);
    let (opened, _) = open_waiting(&f, CLIP, TokenKind::Read, 1, &never);
    assert!(matches!(opened, OpenDecision::Approved { .. }), "{opened:?}");
    let err = f.server.unlink_file(txid, CLIP).unwrap_err();
    assert!(err.contains("open"), "{err}");
    assert!(!f.server.has_pending(txid), "a refused unlink leaves no branch");
    f.server.close_notify(CLIP, 1, false, 0, 0).unwrap();

    // During the branch: the open waits for the decision; a commit leaves
    // the file unmanaged, an abort lets the open through.
    for commit in [false, true] {
        txid += 1;
        f.server.unlink_file(txid, CLIP).unwrap();
        let settled = AtomicBool::new(false);
        let (decision, after) = std::thread::scope(|s| {
            let reader = s.spawn(|| open_waiting(&f, CLIP, TokenKind::Read, 2, &settled));
            std::thread::sleep(std::time::Duration::from_millis(30));
            settled.store(true, SeqCst);
            if commit {
                f.server.commit_host(txid);
            } else {
                f.server.abort_host(txid);
            }
            reader.join().unwrap()
        });
        assert!(after, "commit={commit}: {decision:?} before the branch was decided");
        if commit {
            assert_eq!(decision, OpenDecision::NotManaged);
        } else {
            assert!(matches!(decision, OpenDecision::Approved { .. }), "{decision:?}");
            f.server.close_notify(CLIP, 2, false, 0, 0).unwrap();
        }
    }

    // Free-running: a reader and an unlink start together.
    txid += 1;
    link_committed(&f, txid, CLIP, ControlMode::Rdd);
    for round in 0..120u64 {
        txid += 1;
        let opener = 1_000 + round;
        let settled = AtomicBool::new(false);
        let (unlinked, (decision, after)) = std::thread::scope(|s| {
            let reader = s.spawn(|| open_waiting(&f, CLIP, TokenKind::Read, opener, &settled));
            let unlinked = f.server.unlink_file(txid, CLIP);
            if unlinked.is_ok() {
                settled.store(true, SeqCst);
                if round % 2 == 0 {
                    f.server.commit_host(txid);
                } else {
                    f.server.abort_host(txid);
                }
            }
            (unlinked, reader.join().unwrap())
        });
        match unlinked {
            Ok(()) => {
                let approved = matches!(decision, OpenDecision::Approved { .. });
                assert!(!approved || after, "round {round}: approved while the unlink was voted");
            }
            Err(e) => {
                assert!(e.contains("open"), "round {round}: {e}");
                assert!(matches!(decision, OpenDecision::Approved { .. }), "{decision:?}");
            }
        }
        if matches!(decision, OpenDecision::Approved { .. }) {
            f.server.close_notify(CLIP, opener, false, 0, 0).unwrap();
        }
        if f.server.repository().get_file(CLIP).is_none() {
            txid += 1;
            link_committed(&f, txid, CLIP, ControlMode::Rdd);
        }
    }
}

/// Four threads alternate read and write opens and closes of one rdd file;
/// a shared count of the granted opens proves no writer ever held the file
/// beside a reader or another writer.
#[test]
fn concurrent_read_and_write_opens_of_an_rdd_file_never_overlap_a_writer() {
    use std::sync::Mutex;
    const CLIP: &str = "/data/clip.mpg";
    let f = fixture();
    link_committed(&f, 1, CLIP, ControlMode::Rdd);
    let wtok = write_token(&f, CLIP);
    f.server.validate_token(CLIP, &wtok.encode(), ALICE.uid).unwrap();
    let dlfm = f.server.config().dlfm_cred;
    // (readers, writers) holding a granted open. A thread records what it
    // saw go wrong and carries on, so that no open stays held.
    let held = Mutex::new((0u32, 0u32));
    let wrong = Mutex::new(Vec::new());
    let never = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        for thread in 0..4u64 {
            let (f, held, wrong, never) = (&f, &held, &wrong, &never);
            s.spawn(move || {
                for i in 0..60u64 {
                    let opener = thread * 1_000 + i + 1;
                    let write = (i + thread) % 2 == 0;
                    let wanted = if write { TokenKind::Write } else { TokenKind::Read };
                    let (decision, _) = open_waiting(f, CLIP, wanted, opener, never);
                    if !matches!(decision, OpenDecision::Approved { .. }) {
                        wrong.lock().unwrap().push(format!("opener {opener}: {decision:?}"));
                        continue;
                    }
                    {
                        let mut held = held.lock().unwrap();
                        if write {
                            held.1 += 1;
                        } else {
                            held.0 += 1;
                        }
                        if held.1 > 0 && *held != (0, 1) {
                            wrong.lock().unwrap().push(format!("readers, writers: {held:?}"));
                        }
                    }
                    std::thread::yield_now();
                    let wrote = write && i % 4 == 0;
                    if wrote {
                        f.admin.write_file(&dlfm, CLIP, format!("v{opener}").as_bytes()).unwrap();
                    }
                    {
                        let mut held = held.lock().unwrap();
                        if write {
                            held.1 -= 1;
                        } else {
                            held.0 -= 1;
                        }
                    }
                    f.server.close_notify(CLIP, opener, wrote, 5, opener).unwrap();
                }
            });
        }
    });
    assert_eq!(wrong.into_inner().unwrap(), Vec::<String>::new());
    assert!(f.server.repository().sync_entries(CLIP).is_empty());
    assert!(f.server.repository().get_uip(CLIP).is_none());
}

/// Strict link: a registration of an open racing a link branch of its
/// file is refused, or the link sees it and is refused — never both
/// granted while the branch is undecided.
#[test]
fn a_strict_registration_racing_a_link_is_refused_or_seen() {
    const CLIP: &str = "/data/clip.mpg";
    let mut cfg = DlfmConfig::new("srv1");
    cfg.strict_link = true;
    let f = fixture_with(cfg);

    // Fixed cuts: a live branch refuses the registration; a registration
    // refuses the link.
    f.server.link_file(1, CLIP, ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
    let err = f.server.register_open(CLIP, ALICE.uid, 7).unwrap_err();
    assert!(err.contains("being linked"), "{err}");
    f.server.abort_host(1);
    f.server.register_open(CLIP, ALICE.uid, 7).unwrap();
    let err = f.server.link_file(2, CLIP, ControlMode::Rdd, true, OnUnlink::Restore).unwrap_err();
    assert!(err.contains("open"), "{err}");
    f.server.unregister_open(CLIP, 7);

    // Free-running: a registration and a link start together; the branch
    // is decided only after both answered.
    for round in 0..150u64 {
        let (txid, opener) = (10 + round, 100 + round);
        let (linked, registered) = std::thread::scope(|s| {
            let registrar = s.spawn(|| f.server.register_open(CLIP, ALICE.uid, opener));
            let linked = f.server.link_file(txid, CLIP, ControlMode::Rdd, true, OnUnlink::Restore);
            (linked, registrar.join().unwrap())
        });
        assert!(
            linked.is_err() || registered.is_err(),
            "round {round}: a registration and a link both granted"
        );
        assert!(linked.is_ok() || registered.is_ok(), "round {round}: both refused");
        if linked.is_ok() {
            f.server.abort_host(txid);
        } else {
            f.server.unregister_open(CLIP, opener);
        }
    }
    assert!(f.server.repository().sync_entries(CLIP).is_empty());
}
