//! Full-stack tests: application → LFS → DLFS → MemFs, with DLFM and its
//! upcall daemon behind the scenes. This is the complete Figure 1
//! architecture minus the host database (dl-core adds that on top).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dl_dlfm::{
    embed_token, AccessToken, ArchiveStore, ControlMode, DlfmConfig, DlfmServer, HostFile,
    HostHook, HostView, MainDaemon, OnUnlink, Repository, TokenKey, TokenKind,
};
use dl_dlfs::Dlfs;
use dl_fskit::{
    Clock, Cred, FileSystem, FsError, Lfs, MemFs, OpenFlags, OpenOptions, SetAttr, SimClock,
};
use dl_minidb::StorageEnv;

#[path = "../../dlfm/tests/support/mem_host.rs"]
mod mem_host;
use mem_host::MemHost;

const ALICE: Cred = Cred { uid: 100, gid: 100 };
const BOB: Cred = Cred { uid: 101, gid: 101 };

struct Stack {
    /// Application-facing logical file system (mounted over DLFS).
    lfs: Arc<Lfs>,
    /// Admin view over the raw physical file system.
    raw: Lfs,
    server: Arc<DlfmServer>,
    dlfs: Arc<Dlfs>,
    clock: Arc<SimClock>,
    _daemon: MainDaemon,
}

fn stack_with(dlfm_cfg: DlfmConfig) -> Stack {
    let clock = Arc::new(SimClock::new(1_000_000));
    let fs = Arc::new(MemFs::with_clock(clock.clone()));
    let raw = Lfs::new(fs.clone() as Arc<dyn FileSystem>);
    raw.mkdir_p(&Cred::root(), "/web", 0o777).unwrap();
    raw.write_file(&ALICE, "/web/index.html", b"<html>v1</html>").unwrap();
    raw.write_file(&ALICE, "/web/plain.txt", b"not linked").unwrap();

    let server = Arc::new(DlfmServer::new(
        dlfm_cfg,
        fs.clone() as Arc<dyn FileSystem>,
        Repository::open(StorageEnv::mem()).unwrap(),
        Arc::new(ArchiveStore::new()),
        clock.clone(),
        MemHost::new(),
    ));
    let daemon = MainDaemon::new(Arc::clone(&server));
    let dlfs = Arc::new(Dlfs::new(fs as Arc<dyn FileSystem>, daemon.connect()));
    let lfs = Arc::new(Lfs::new(dlfs.clone() as Arc<dyn FileSystem>));
    Stack { lfs, raw, server, dlfs, clock, _daemon: daemon }
}

fn stack() -> Stack {
    stack_with(DlfmConfig::new("srv1"))
}

fn link(s: &Stack, path: &str, mode: ControlMode) {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1000);
    let txid = NEXT.fetch_add(1, Ordering::Relaxed);
    s.server.link_file(txid, path, mode, true, OnUnlink::Restore).unwrap();
    s.server.commit_host(txid);
}

fn tok(s: &Stack, path: &str, kind: TokenKind) -> AccessToken {
    AccessToken::generate(s.server.token_key(), "srv1", path, kind, s.clock.now_ms() + 600_000)
}

#[test]
fn unlinked_files_behave_normally_with_zero_upcalls() {
    let s = stack();
    let fd = s.lfs.open(&ALICE, "/web/plain.txt", OpenOptions::read_only()).unwrap();
    let data = s.lfs.read_to_end(fd).unwrap();
    s.lfs.close(fd).unwrap();
    assert_eq!(data, b"not linked");

    let fd = s.lfs.open(&ALICE, "/web/plain.txt", OpenOptions::write_truncate()).unwrap();
    s.lfs.write(fd, b"rewritten").unwrap();
    s.lfs.close(fd).unwrap();

    assert_eq!(s.dlfs.upcall_client().round_trip_count(), 0, "no DLFM involvement");
    assert_eq!(s.dlfs.stats.passthrough_opens.get(), 2);
}

#[test]
fn rdd_read_requires_token_in_name() {
    let s = stack();
    link(&s, "/web/index.html", ControlMode::Rdd);

    // Without a token the open is rejected by DLFM.
    match s.lfs.open(&ALICE, "/web/index.html", OpenOptions::read_only()) {
        Err(FsError::Rejected(msg)) => assert!(msg.contains("token"), "{msg}"),
        other => panic!("expected rejection, got {other:?}"),
    }

    // With a token embedded in the name it succeeds, and the read flows
    // through the plain fs_read path.
    let path = embed_token("/web/index.html", &tok(&s, "/web/index.html", TokenKind::Read));
    let fd = s.lfs.open(&ALICE, &path, OpenOptions::read_only()).unwrap();
    let data = s.lfs.read_to_end(fd).unwrap();
    s.lfs.close(fd).unwrap();
    assert_eq!(data, b"<html>v1</html>");
    assert_eq!(s.dlfs.stats.token_lookups.get(), 1);
    assert_eq!(s.dlfs.stats.managed_opens.get(), 1);
}

#[test]
fn userid_keyed_token_entry_shares_across_descriptors() {
    // §4.1: once a token entry exists for a userid, all of that user's
    // opens are covered — but other users are not.
    let s = stack();
    link(&s, "/web/index.html", ControlMode::Rdd);
    let path = embed_token("/web/index.html", &tok(&s, "/web/index.html", TokenKind::Read));
    let fd = s.lfs.open(&ALICE, &path, OpenOptions::read_only()).unwrap();
    s.lfs.close(fd).unwrap();

    // Second open *without* the token, same uid: the entry admits it.
    let fd = s.lfs.open(&ALICE, "/web/index.html", OpenOptions::read_only()).unwrap();
    s.lfs.close(fd).unwrap();

    // Different uid, no token: rejected.
    assert!(matches!(
        s.lfs.open(&BOB, "/web/index.html", OpenOptions::read_only()),
        Err(FsError::Rejected(_))
    ));
}

#[test]
fn rdd_update_in_place_full_cycle() {
    let s = stack();
    link(&s, "/web/index.html", ControlMode::Rdd);

    let wpath = embed_token("/web/index.html", &tok(&s, "/web/index.html", TokenKind::Write));
    let fd = s.lfs.open(&ALICE, &wpath, OpenOptions::read_write()).unwrap();
    let old = s.lfs.read_to_end(fd).unwrap();
    assert_eq!(old, b"<html>v1</html>");
    s.lfs.seek(fd, 0).unwrap();
    s.lfs.write(fd, b"<html>v2 totally new</html>").unwrap();
    s.lfs.close(fd).unwrap();

    // Version bumped, metadata in repository reflects the commit.
    let entry = s.server.repository().get_file("/web/index.html").unwrap();
    assert_eq!(entry.cur_version, 2);
    s.server.archive_store().wait_archived("/web/index.html");
    assert_eq!(
        s.server.archive_store().get("/web/index.html", 2).unwrap().data,
        b"<html>v2 totally new</html>"
    );

    // Subsequent read (with read token) sees the new content.
    let rpath = embed_token("/web/index.html", &tok(&s, "/web/index.html", TokenKind::Read));
    let fd = s.lfs.open(&ALICE, &rpath, OpenOptions::read_only()).unwrap();
    assert_eq!(s.lfs.read_to_end(fd).unwrap(), b"<html>v2 totally new</html>");
    s.lfs.close(fd).unwrap();
}

#[test]
fn rfd_write_takes_slow_path_and_reads_stay_fast() {
    let s = stack();
    link(&s, "/web/index.html", ControlMode::Rfd);

    // Reads need no token and no upcall (rfd read = file-system control).
    let fd = s.lfs.open(&BOB, "/web/index.html", OpenOptions::read_only()).unwrap();
    assert_eq!(s.lfs.read_to_end(fd).unwrap(), b"<html>v1</html>");
    s.lfs.close(fd).unwrap();
    assert_eq!(s.dlfs.upcall_client().round_trip_count(), 0, "rfd read path: zero upcalls");

    // A write without a token fails: the physical open fails (read-only
    // file) and DLFM rejects the takeover for lack of a token entry.
    assert!(matches!(
        s.lfs.open(&ALICE, "/web/index.html", OpenOptions::write_only()),
        Err(FsError::Rejected(_))
    ));

    // With a write token: open fails physically, DLFS upcalls, DLFM takes
    // the file over, the open is retried as the DLFM identity.
    let wpath = embed_token("/web/index.html", &tok(&s, "/web/index.html", TokenKind::Write));
    let fd = s.lfs.open(&ALICE, &wpath, OpenOptions::write_truncate()).unwrap();
    s.lfs.write(fd, b"fresh content").unwrap();

    // During the update the file is taken over: plain reads fail at the FS
    // level — the implicit read/write serialization of §4.2.
    assert!(s.lfs.open(&BOB, "/web/index.html", OpenOptions::read_only()).is_err());

    s.lfs.close(fd).unwrap();

    // After close the rfd at-rest state is restored: original owner,
    // read-only; plain reads work again.
    let attr = s.raw.stat(&Cred::root(), "/web/index.html").unwrap();
    assert_eq!(attr.uid, ALICE.uid);
    assert_eq!(attr.mode, 0o444);
    let fd = s.lfs.open(&BOB, "/web/index.html", OpenOptions::read_only()).unwrap();
    assert_eq!(s.lfs.read_to_end(fd).unwrap(), b"fresh content");
    s.lfs.close(fd).unwrap();
    assert_eq!(s.server.repository().get_file("/web/index.html").unwrap().cur_version, 2);
}

#[test]
fn plain_readonly_file_write_still_fails_cleanly() {
    // A chmod 444 file that is NOT linked: the rfd fallback upcall answers
    // NotManaged and the original EACCES surfaces.
    let s = stack();
    s.raw.setattr(&ALICE, "/web/plain.txt", &SetAttr::chmod(0o444)).unwrap();
    assert_eq!(
        s.lfs.open(&ALICE, "/web/plain.txt", OpenOptions::write_only()),
        Err(FsError::AccessDenied)
    );
    assert_eq!(s.dlfs.upcall_client().round_trip_count(), 1, "one upcall to ask");
}

#[test]
fn remove_and_rename_of_linked_files_rejected() {
    let s = stack();
    link(&s, "/web/index.html", ControlMode::Rff);

    assert!(matches!(s.lfs.remove(&ALICE, "/web/index.html"), Err(FsError::Rejected(_))));
    assert!(matches!(
        s.lfs.rename(&ALICE, "/web/index.html", "/web/index2.html"),
        Err(FsError::Rejected(_))
    ));
    // Unlinked files remove fine.
    s.lfs.remove(&ALICE, "/web/plain.txt").unwrap();
}

#[test]
fn chmod_of_linked_file_rejected() {
    let s = stack();
    link(&s, "/web/index.html", ControlMode::Rfd);
    // Owner tries to re-grant themselves write permission — would bypass
    // database write control entirely.
    assert!(matches!(
        s.lfs.setattr(&ALICE, "/web/index.html", &SetAttr::chmod(0o644)),
        Err(FsError::Rejected(_))
    ));
    // Size-only changes (truncate) are not a permission bypass and follow
    // the normal FS rules (which reject them here: file is read-only).
    assert!(s.lfs.setattr(&ALICE, "/web/plain.txt", &SetAttr::chmod(0o600)).is_ok());
}

#[test]
fn write_write_blocking_across_threads() {
    let s = stack();
    link(&s, "/web/index.html", ControlMode::Rdd);

    let wpath = embed_token("/web/index.html", &tok(&s, "/web/index.html", TokenKind::Write));
    let fd = s.lfs.open(&ALICE, &wpath, OpenOptions::write_truncate()).unwrap();

    let lfs2 = Arc::clone(&s.lfs);
    let wpath2 = wpath.clone();
    let waiter = thread::spawn(move || {
        let fd2 = lfs2.open(&ALICE, &wpath2, OpenOptions::write_truncate()).unwrap();
        lfs2.write(fd2, b"second writer").unwrap();
        lfs2.close(fd2).unwrap();
    });
    thread::sleep(Duration::from_millis(50));
    assert!(!waiter.is_finished(), "second writer must block at open");

    s.lfs.write(fd, b"first writer").unwrap();
    s.lfs.close(fd).unwrap();
    s.server.archive_store().wait_archived("/web/index.html");
    waiter.join().unwrap();

    assert_eq!(
        s.server.repository().get_file("/web/index.html").unwrap().cur_version,
        3,
        "both updates committed, serially"
    );
    assert_eq!(s.raw.read_file(&Cred::root(), "/web/index.html").unwrap(), b"second writer");
}

#[test]
fn aborted_update_restores_content_via_recovery_path() {
    // Crash while a write is in flight; recovery restores v1.
    let clock = Arc::new(SimClock::new(1_000_000));
    let fs = Arc::new(MemFs::with_clock(clock.clone()));
    let raw = Lfs::new(fs.clone() as Arc<dyn FileSystem>);
    raw.mkdir_p(&Cred::root(), "/web", 0o777).unwrap();
    raw.write_file(&ALICE, "/web/a.html", b"stable").unwrap();
    let repo_env = StorageEnv::mem();
    let archive = Arc::new(ArchiveStore::new());
    let server = Arc::new(DlfmServer::new(
        DlfmConfig::new("srv1"),
        fs.clone() as Arc<dyn FileSystem>,
        Repository::open(repo_env.clone()).unwrap(),
        Arc::clone(&archive),
        clock.clone(),
        MemHost::new(),
    ));
    let daemon = MainDaemon::new(Arc::clone(&server));
    let dlfs = Arc::new(Dlfs::new(fs.clone() as Arc<dyn FileSystem>, daemon.connect()));
    let lfs = Lfs::new(dlfs.clone() as Arc<dyn FileSystem>);

    server.link_file(1, "/web/a.html", ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
    server.commit_host(1);

    let token = AccessToken::generate(
        server.token_key(),
        "srv1",
        "/web/a.html",
        TokenKind::Write,
        clock.now_ms() + 600_000,
    );
    let wpath = embed_token("/web/a.html", &token);
    let fd = lfs.open(&ALICE, &wpath, OpenOptions::write_truncate()).unwrap();
    lfs.write(fd, b"torn write").unwrap();
    // CRASH: never close. Drop the stack, keep fs/repo/archive.
    server.simulate_crash();
    drop((lfs, dlfs, daemon));
    let cfg = server.config().clone();
    drop(server);

    let server2 = Arc::new(DlfmServer::new(
        cfg,
        fs.clone() as Arc<dyn FileSystem>,
        Repository::open(repo_env).unwrap(),
        archive,
        clock,
        MemHost::new(),
    ));
    // The host still records the link at version 1: the update never
    // reached its commit point.
    let row = HostFile {
        version: 1,
        mode: ControlMode::Rdd,
        recovery: true,
        on_unlink: OnUnlink::Restore,
        orig_uid: ALICE.uid,
        orig_gid: ALICE.gid,
        orig_mode: 0o644,
    };
    let report =
        server2.recover(&[("/web/a.html".to_string(), row)].into(), &HostView::new()).unwrap();
    assert_eq!(report.updates_rolled_back, 1);
    assert_eq!(raw.read_file(&Cred::root(), "/web/a.html").unwrap(), b"stable");
}

#[test]
fn strict_mode_blocks_link_of_open_file() {
    let mut dlfm_cfg = DlfmConfig::new("srv1");
    dlfm_cfg.strict_link = true;
    let s = stack_with(dlfm_cfg);

    // An application holds plain.txt open (unlinked, plain read).
    let fd = s.lfs.open(&ALICE, "/web/plain.txt", OpenOptions::read_only()).unwrap();

    // Linking it now fails — the §4.5 window is closed.
    let err = s
        .server
        .link_file(50, "/web/plain.txt", ControlMode::Rdd, true, OnUnlink::Restore)
        .unwrap_err();
    assert!(err.contains("open"), "{err}");
    s.server.abort_host(50);

    // After close, linking succeeds.
    s.lfs.close(fd).unwrap();
    s.server.link_file(51, "/web/plain.txt", ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
    s.server.commit_host(51);
}

#[test]
fn strict_mode_refuses_an_open_during_a_live_link_branch() {
    // The link has voted on a file no registered open held; until its
    // decision, strict mode refuses the registration — and with it the
    // open, which DLFS registers before the physical open.
    let mut dlfm_cfg = DlfmConfig::new("srv1");
    dlfm_cfg.strict_link = true;
    let s = stack_with(dlfm_cfg);
    s.server.link_file(52, "/web/plain.txt", ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
    for opts in [OpenOptions::read_only(), OpenOptions::write_truncate()] {
        let err = s.lfs.open(&ALICE, "/web/plain.txt", opts).unwrap_err();
        assert!(matches!(&err, FsError::Rejected(e) if e.contains("being linked")), "{err:?}");
    }
    assert!(
        s.server.repository().opens().entries("/web/plain.txt").is_empty(),
        "nothing registered"
    );

    // Once the branch aborts, the file opens again.
    s.server.abort_host(52);
    let fd = s.lfs.open(&ALICE, "/web/plain.txt", OpenOptions::read_only()).unwrap();
    assert_eq!(s.server.repository().opens().entries("/web/plain.txt").len(), 1);
    s.lfs.close(fd).unwrap();
    assert!(s.server.repository().opens().entries("/web/plain.txt").is_empty());
}

#[test]
fn non_strict_mode_has_the_link_window() {
    // The paper's documented limitation: "a link transaction can succeed
    // even when the file is currently open by other applications" (§4.5).
    let s = stack();
    let fd = s.lfs.open(&ALICE, "/web/plain.txt", OpenOptions::read_only()).unwrap();
    s.server.link_file(60, "/web/plain.txt", ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
    s.server.commit_host(60);
    // The reader still holds a descriptor to a now-fully-controlled file.
    assert!(s.server.repository().get_file("/web/plain.txt").is_some());
    s.lfs.close(fd).unwrap();
}

#[test]
fn expired_token_rejected_at_lookup_time() {
    let s = stack();
    link(&s, "/web/index.html", ControlMode::Rdd);
    let stale = AccessToken::generate(
        s.server.token_key(),
        "srv1",
        "/web/index.html",
        TokenKind::Read,
        s.clock.now_ms(),
    );
    s.clock.advance(10_000);
    let path = embed_token("/web/index.html", &stale);
    match s.lfs.open(&ALICE, &path, OpenOptions::read_only()) {
        Err(FsError::Rejected(msg)) => assert!(msg.contains("expired"), "{msg}"),
        other => panic!("expected expiry rejection, got {other:?}"),
    }
}

#[test]
fn forged_token_rejected() {
    let s = stack();
    link(&s, "/web/index.html", ControlMode::Rdd);
    let forged = AccessToken::generate(
        &TokenKey::new(b"not the real key"),
        "srv1",
        "/web/index.html",
        TokenKind::Write,
        u64::MAX,
    );
    let path = embed_token("/web/index.html", &forged);
    assert!(matches!(
        s.lfs.open(&ALICE, &path, OpenOptions::read_write()),
        Err(FsError::Rejected(_))
    ));
}

#[test]
fn many_concurrent_readers_on_rdd_file() {
    let s = stack();
    link(&s, "/web/index.html", ControlMode::Rdd);
    let rpath = embed_token("/web/index.html", &tok(&s, "/web/index.html", TokenKind::Read));

    // Prime the token entry once.
    let fd = s.lfs.open(&ALICE, &rpath, OpenOptions::read_only()).unwrap();
    s.lfs.close(fd).unwrap();

    let mut handles = Vec::new();
    for _ in 0..8 {
        let lfs = Arc::clone(&s.lfs);
        handles.push(thread::spawn(move || {
            let fd = lfs.open(&ALICE, "/web/index.html", OpenOptions::read_only()).unwrap();
            let data = lfs.read_to_end(fd).unwrap();
            lfs.close(fd).unwrap();
            data
        }));
    }
    for h in handles {
        assert_eq!(h.join().unwrap(), b"<html>v1</html>");
    }
    assert!(s.server.repository().opens().entries("/web/index.html").is_empty());
}

#[test]
fn a_lookup_no_open_follows_makes_no_upcall() {
    let s = stack();
    link(&s, "/web/index.html", ControlMode::Rdd);
    let path = embed_token("/web/index.html", &tok(&s, "/web/index.html", TokenKind::Read));
    s.lfs.stat(&ALICE, &path).unwrap();
    assert_eq!(s.dlfs.stats.token_lookups.get(), 1);
    assert_eq!(s.dlfs.upcall_client().round_trip_count(), 0, "the token waits for an open");
}

/// A write token and a read token of one userid, looked up by two threads
/// in turn before either opens: each open presents a token of its own kind.
#[test]
fn interleaved_lookups_of_one_user_each_open_with_their_own_kind() {
    let s = stack();
    link(&s, "/web/index.html", ControlMode::Rdd);
    let name = |kind| embed_token("index.html", &tok(&s, "/web/index.html", kind));
    let (wname, rname) = (name(TokenKind::Write), name(TokenKind::Read));
    let dir = s.lfs.resolve(&ALICE, "/web").unwrap();
    let has_entry = |kind| {
        s.server.repository().opens().token_admits(
            ALICE.uid,
            "/web/index.html",
            kind,
            s.clock.now_ms(),
        )
    };
    let turn = std::sync::Barrier::new(2);
    let write = OpenFlags { read: false, write: true, truncate: true };
    thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let ino = s.dlfs.fs_lookup(&ALICE, dir, &wname).unwrap();
            turn.wait(); // the writer has looked up
            turn.wait(); // the reader has looked up, opened and closed
            s.dlfs.fs_open(&ALICE, ino, write).unwrap();
            s.dlfs.fs_write(&ALICE, ino, 0, b"<html>v2</html>").unwrap();
            s.dlfs.fs_close(&ALICE, ino, write, true).unwrap();
        });
        let reader = scope.spawn(|| {
            turn.wait();
            let ino = s.dlfs.fs_lookup(&ALICE, dir, &rname).unwrap();
            let read = OpenFlags::read_only();
            let opened = s.dlfs.fs_open(&ALICE, ino, read).and_then(|()| {
                s.dlfs.fs_close(&ALICE, ino, read, false)?;
                Ok((has_entry(TokenKind::Read), has_entry(TokenKind::Write)))
            });
            turn.wait();
            opened
        });
        // The read presented the read token: no write entry yet.
        assert_eq!(reader.join().unwrap(), Ok((true, false)));
        writer.join().unwrap();
    });
    assert!(has_entry(TokenKind::Write));
    assert_eq!(s.server.repository().get_file("/web/index.html").unwrap().cur_version, 2);
    assert_eq!(s.dlfs.upcall_client().round_trip_count(), 4, "an open check and a close each");
}

#[test]
fn a_busy_open_leaves_its_token_entry() {
    let s = stack();
    link(&s, "/web/index.html", ControlMode::Rdd);
    let wpath = embed_token("/web/index.html", &tok(&s, "/web/index.html", TokenKind::Write));
    let fd = s.lfs.open(&ALICE, &wpath, OpenOptions::write_truncate()).unwrap();
    let bob_has_entry = || {
        s.server.repository().opens().token_admits(BOB.uid, "/web/index.html", TokenKind::Write, 0)
    };
    assert!(!bob_has_entry());
    thread::scope(|scope| {
        let bob = scope.spawn(|| {
            let fd = s.lfs.open(&BOB, &wpath, OpenOptions::write_truncate()).unwrap();
            s.lfs.close(fd).unwrap();
        });
        // BOB's open answered Busy and waits out ALICE's update; his token
        // was validated all the same.
        let deadline = Instant::now() + Duration::from_secs(10);
        while s.dlfs.stats.busy_waits.get() < 1 {
            assert!(!bob.is_finished(), "BOB's open never waited");
            assert!(Instant::now() < deadline, "BOB's open neither waited nor finished in 10 s");
            thread::sleep(Duration::from_millis(1));
        }
        assert!(bob_has_entry(), "a busy open leaves its token entry");
        s.lfs.close(fd).unwrap();
        bob.join().unwrap();
    });
    s.server.archive_store().wait_archived("/web/index.html");
    // His plain-name open is admitted by the entry the busy open left.
    let fd = s.lfs.open(&BOB, "/web/index.html", OpenOptions::write_truncate()).unwrap();
    s.lfs.close(fd).unwrap();
}

#[test]
fn every_bad_token_is_refused_with_its_reason() {
    let s = stack();
    link(&s, "/web/index.html", ControlMode::Rdd);
    let refusal = |path: &str, opts| match s.lfs.open(&ALICE, path, opts) {
        Err(FsError::Rejected(msg)) => msg,
        other => panic!("{path}: expected a rejection, got {other:?}"),
    };
    let forged = AccessToken::generate(
        &TokenKey::new(b"wrong"),
        "srv1",
        "/web/index.html",
        TokenKind::Read,
        !0,
    );
    let expired = AccessToken::generate(
        s.server.token_key(),
        "srv1",
        "/web/index.html",
        TokenKind::Read,
        s.clock.now_ms() - 1,
    );
    let read = tok(&s, "/web/index.html", TokenKind::Read);
    let embed = |t: &AccessToken| embed_token("/web/index.html", t);
    let read_only = OpenOptions::read_only;
    assert_eq!(refusal(&embed(&forged), read_only()), "token signature mismatch");
    assert_eq!(refusal(&embed(&expired), read_only()), "token expired");
    assert_eq!(refusal("/web/index.html;dltoken=r1-zz", read_only()), "malformed token");
    // None of these left an entry behind.
    assert!(!s.server.repository().opens().token_admits(
        ALICE.uid,
        "/web/index.html",
        TokenKind::Read,
        0
    ));
    // A valid read token cannot open for write — but it is still a valid
    // token, whose entry then admits a plain-name read.
    let msg = refusal(&embed(&read), OpenOptions::read_write());
    assert!(msg.contains("no valid write token entry"), "{msg}");
    let fd = s.lfs.open(&ALICE, "/web/index.html", read_only()).unwrap();
    s.lfs.close(fd).unwrap();
}

#[test]
fn a_held_token_is_not_presented_under_another_path() {
    let s = stack();
    // A token for the unlinked plain.txt, looked up by this thread.
    let name = embed_token("plain.txt", &tok(&s, "/web/plain.txt", TokenKind::Read));
    let dir = s.lfs.resolve(&ALICE, "/web").unwrap();
    let ino = s.dlfs.fs_lookup(&ALICE, dir, &name).unwrap();
    // Another thread renames it before the open: the inode opens under a
    // path the token is not bound to, straight through, presenting nothing.
    thread::scope(|scope| {
        scope.spawn(|| s.lfs.rename(&ALICE, "/web/plain.txt", "/web/moved.txt").unwrap());
    });
    let round_trips = s.dlfs.upcall_client().round_trip_count();
    let read = OpenFlags::read_only();
    s.dlfs.fs_open(&ALICE, ino, read).unwrap();
    s.dlfs.fs_close(&ALICE, ino, read, false).unwrap();
    assert_eq!(s.dlfs.upcall_client().round_trip_count(), round_trips);
}

/// A token a lookup stripped reaches only the open right after it: a stat
/// through a token name leaves nothing behind for later plain-name opens,
/// valid or expired.
#[test]
fn a_token_a_stat_looked_up_reaches_no_later_open() {
    let s = stack();
    s.raw.write_file(&ALICE, "/web/rdd.html", b"rdd").unwrap();
    link(&s, "/web/index.html", ControlMode::Rff);
    link(&s, "/web/rdd.html", ControlMode::Rdd);
    // ALICE's write entry for the rdd file, good for ten minutes.
    let wpath = embed_token("/web/rdd.html", &tok(&s, "/web/rdd.html", TokenKind::Write));
    let fd = s.lfs.open(&ALICE, &wpath, OpenOptions::read_write()).unwrap();
    s.lfs.close(fd).unwrap();
    let short = |path| {
        let expiry = s.clock.now_ms() + 1_000;
        let token =
            AccessToken::generate(s.server.token_key(), "srv1", path, TokenKind::Read, expiry);
        embed_token(path, &token)
    };
    // The unlinked and rff reads make no upcall; the rdd read, admitted by
    // the write entry, one open check and one close.
    let reads = [("/web/plain.txt", 0), ("/web/index.html", 0), ("/web/rdd.html", 2)];
    for expired in [false, true] {
        for (path, upcalls) in reads {
            s.lfs.stat(&ALICE, &short(path)).unwrap();
            if expired {
                s.clock.advance(10_000);
            }
            let round_trips = s.dlfs.upcall_client().round_trip_count();
            let fd = s.lfs.open(&ALICE, path, OpenOptions::read_only()).unwrap();
            s.lfs.close(fd).unwrap();
            let made = s.dlfs.upcall_client().round_trip_count() - round_trips;
            assert_eq!(made, upcalls, "{path}, expired {expired}");
        }
    }
}

#[test]
fn a_pass_through_open_validates_its_token_first() {
    let s = stack();
    link(&s, "/web/index.html", ControlMode::Rff);
    // One upcall, ahead of the physical open; a bad token opens nothing.
    let read = tok(&s, "/web/index.html", TokenKind::Read);
    let fd = s.lfs.open(&ALICE, &embed_token("/web/index.html", &read), OpenOptions::read_only());
    s.lfs.close(fd.unwrap()).unwrap();
    assert_eq!(s.dlfs.upcall_client().round_trip_count(), 1);
    let forged = AccessToken::generate(
        &TokenKey::new(b"wrong"),
        "srv1",
        "/web/index.html",
        TokenKind::Write,
        !0,
    );
    let wpath = embed_token("/web/index.html", &forged);
    assert!(matches!(
        s.lfs.open(&ALICE, &wpath, OpenOptions::write_truncate()),
        Err(FsError::Rejected(_))
    ));
    assert_eq!(s.raw.read_file(&ALICE, "/web/index.html").unwrap(), b"<html>v1</html>");
}
