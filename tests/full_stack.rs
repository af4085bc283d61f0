//! Cross-crate integration scenarios exercised through the umbrella crate:
//! concurrent readers/writers against the full stack, the paper's
//! consistency anomalies, and multi-file transactional behaviour.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use datalinks::core::{DataLinksSystem, DlColumnOptions};
use datalinks::dlfm::{AgentConnection, ControlMode, TokenKind};
use datalinks::fskit::{Cred, FsError, OpenOptions, SimClock};
use datalinks::minidb::{Column, ColumnType, Schema, Value};

const APP: Cred = Cred { uid: 100, gid: 100 };

fn build(mode: ControlMode, n_files: usize) -> DataLinksSystem {
    let sys = DataLinksSystem::builder()
        .clock(Arc::new(SimClock::new(1_000_000)))
        .file_server("srv")
        .build()
        .unwrap();
    let raw = sys.raw_fs("srv").unwrap();
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
    sys.define_datalink_column("t", "body", DlColumnOptions::new(mode).token_ttl_ms(600_000))
        .unwrap();
    for i in 0..n_files {
        raw.write_file(&APP, &format!("/d/f{i}.bin"), format!("seed-{i}").as_bytes()).unwrap();
        let mut tx = sys.begin();
        tx.insert(
            "t",
            vec![Value::Int(i as i64), Value::DataLink(format!("dlfs://srv/d/f{i}.bin"))],
        )
        .unwrap();
        tx.commit().unwrap();
    }
    sys
}

fn write_once(sys: &DataLinksSystem, id: i64, content: &[u8]) {
    let (_, path) = sys.select_datalink("t", &Value::Int(id), "body", TokenKind::Write).unwrap();
    let fs = sys.fs("srv").unwrap();
    let fd = fs.open(&APP, &path, OpenOptions::write_truncate()).unwrap();
    fs.write(fd, content).unwrap();
    fs.close(fd).unwrap();
}

#[test]
fn concurrent_writers_across_distinct_files_scale() {
    let sys = Arc::new(build(ControlMode::Rdd, 8));
    let done = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for i in 0..8u64 {
        let sys = Arc::clone(&sys);
        let done = Arc::clone(&done);
        handles.push(thread::spawn(move || {
            for round in 0..5 {
                write_once(&sys, i as i64, format!("file{i}-round{round}").as_bytes());
                sys.node("srv")
                    .unwrap()
                    .server
                    .archive_store()
                    .wait_archived(&format!("/d/f{i}.bin"));
            }
            done.fetch_add(1, Ordering::SeqCst);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(done.load(Ordering::SeqCst), 8);
    for i in 0..8 {
        let entry =
            sys.node("srv").unwrap().server.repository().get_file(&format!("/d/f{i}.bin")).unwrap();
        assert_eq!(entry.cur_version, 6, "file {i}: 5 updates on top of v1");
    }
}

#[test]
fn no_lost_updates_under_contention() {
    // Many writers hammer ONE file; every committed version must be
    // distinct and the final version count must equal the update count —
    // the property CAU cannot give (see dl-baselines).
    let sys = Arc::new(build(ControlMode::Rdd, 1));
    let writers = 6;
    let per = 4;
    let mut handles = Vec::new();
    for w in 0..writers {
        let sys = Arc::clone(&sys);
        handles.push(thread::spawn(move || {
            for k in 0..per {
                write_once(&sys, 0, format!("writer{w}-update{k}").as_bytes());
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    sys.node("srv").unwrap().server.archive_store().wait_archived("/d/f0.bin");
    let entry = sys.node("srv").unwrap().server.repository().get_file("/d/f0.bin").unwrap();
    assert_eq!(entry.cur_version as usize, 1 + writers * per);
    // All versions are archived (RECOVERY YES) with distinct contents.
    let versions = sys.node("srv").unwrap().server.archive_store().versions("/d/f0.bin");
    assert_eq!(versions.len(), 1 + writers * per);
}

/// Reads file 0 in a loop while one update rewrites it `AAAAAAAAAA` →
/// `BBBBBBBBBB`, with `open_path` giving the path of each open. Every read
/// must be one of `allowed`; returns how many reads succeeded. Afterwards
/// the file holds the new bytes.
fn read_through_an_update(
    mode: ControlMode,
    open_path: fn(&DataLinksSystem) -> String,
    allowed: &'static [&'static [u8]],
) -> u64 {
    let sys = Arc::new(build(mode, 1));
    write_once(&sys, 0, b"AAAAAAAAAA");
    sys.node("srv").unwrap().server.archive_store().wait_archived("/d/f0.bin");

    let stop = Arc::new(AtomicU64::new(0));
    let sys_r = Arc::clone(&sys);
    let stop_r = Arc::clone(&stop);
    let reader = thread::spawn(move || {
        let fs = sys_r.fs("srv").unwrap();
        let mut reads = 0u64;
        while stop_r.load(Ordering::Relaxed) == 0 {
            match fs.open(&APP, &open_path(&sys_r), OpenOptions::read_only()) {
                Ok(fd) => {
                    let data = fs.read_to_end(fd).unwrap();
                    fs.close(fd).unwrap();
                    assert!(allowed.contains(&data.as_slice()), "read observed {data:?}");
                    reads += 1;
                }
                Err(FsError::AccessDenied) | Err(FsError::Rejected(_)) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        reads
    });

    thread::sleep(Duration::from_millis(10));
    write_once(&sys, 0, b"BBBBBBBBBB");
    thread::sleep(Duration::from_millis(10));
    stop.store(1, Ordering::Relaxed);
    let reads = reader.join().unwrap();
    let raw = sys.raw_fs("srv").unwrap();
    assert_eq!(raw.read_file(&Cred::root(), "/d/f0.bin").unwrap(), b"BBBBBBBBBB");
    reads
}

#[test]
fn rfd_reader_sees_old_empty_or_new_bytes() {
    // rfd reads are file-system controlled: no token, no upcall, no Sync
    // row. The take-over makes opens fail while the update holds the file,
    // but a descriptor opened before it stays valid and may read the file
    // between the writer's truncate and its write. So a read returns the
    // old bytes, nothing, or the new bytes — never anything else.
    let reads = read_through_an_update(
        ControlMode::Rfd,
        |_| "/d/f0.bin".to_string(),
        &[b"AAAAAAAAAA", b"", b"BBBBBBBBBB"],
    );
    assert!(reads > 0, "reader made progress");
}

#[test]
fn rdd_reader_sees_before_or_after_never_torn() {
    // rdd reads are DB-controlled: every open presents a fresh read token
    // and registers in the Sync table, so it conflicts with the update's
    // write claim — a read open during the write waits out `Busy`, and a
    // write open waits for the readers to close. Each read sees the old or
    // the new committed bytes.
    let reads = read_through_an_update(
        ControlMode::Rdd,
        |sys| sys.select_datalink("t", &Value::Int(0), "body", TokenKind::Read).unwrap().1,
        &[b"AAAAAAAAAA", b"BBBBBBBBBB"],
    );
    assert!(reads > 0, "reader made progress");
}

#[test]
fn transaction_spanning_multiple_links_is_atomic() {
    let sys = build(ControlMode::Rdd, 0);
    let raw = sys.raw_fs("srv").unwrap();
    for name in ["a", "b", "c"] {
        raw.write_file(&APP, &format!("/d/{name}.bin"), b"x").unwrap();
    }
    // Link three files in one transaction; the third insert fails
    // (duplicate key), and the app aborts: nothing stays linked.
    let mut tx = sys.begin();
    tx.insert("t", vec![Value::Int(10), Value::DataLink("dlfs://srv/d/a.bin".into())]).unwrap();
    tx.insert("t", vec![Value::Int(11), Value::DataLink("dlfs://srv/d/b.bin".into())]).unwrap();
    assert!(tx
        .insert("t", vec![Value::Int(10), Value::DataLink("dlfs://srv/d/c.bin".into())])
        .is_err());
    tx.abort();
    let repo = &sys.node("srv").unwrap().server;
    assert!(repo.repository().get_file("/d/a.bin").is_none());
    assert!(repo.repository().get_file("/d/b.bin").is_none());

    // Same three links, committed: all present.
    let mut tx = sys.begin();
    for (id, name) in [(10, "a"), (11, "b"), (12, "c")] {
        tx.insert("t", vec![Value::Int(id), Value::DataLink(format!("dlfs://srv/d/{name}.bin"))])
            .unwrap();
    }
    tx.commit().unwrap();
    for name in ["a", "b", "c"] {
        assert!(repo.repository().get_file(&format!("/d/{name}.bin")).is_some());
    }
}

#[test]
fn token_expiry_enforced_end_to_end() {
    let clock = Arc::new(SimClock::new(1_000_000));
    let sys = DataLinksSystem::builder().clock(clock.clone()).file_server("srv").build().unwrap();
    let raw = sys.raw_fs("srv").unwrap();
    raw.mkdir_p(&Cred::root(), "/d", 0o777).unwrap();
    raw.write_file(&APP, "/d/f.bin", b"data").unwrap();
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
        DlColumnOptions::new(ControlMode::Rdd).token_ttl_ms(1_000),
    )
    .unwrap();
    let mut tx = sys.begin();
    tx.insert("t", vec![Value::Int(1), Value::DataLink("dlfs://srv/d/f.bin".into())]).unwrap();
    tx.commit().unwrap();

    let (_, path) = sys.select_datalink("t", &Value::Int(1), "body", TokenKind::Read).unwrap();
    // Let the token age out before first use.
    clock.advance(10_000);
    let fs = sys.fs("srv").unwrap();
    match fs.open(&APP, &path, OpenOptions::read_only()) {
        Err(FsError::Rejected(msg)) => assert!(msg.contains("expired"), "{msg}"),
        other => panic!("expired token must be rejected, got {other:?}"),
    }

    // A fresh token works.
    let (_, path) = sys.select_datalink("t", &Value::Int(1), "body", TokenKind::Read).unwrap();
    let fd = fs.open(&APP, &path, OpenOptions::read_only()).unwrap();
    fs.close(fd).unwrap();
}

#[test]
fn read_path_makes_zero_upcalls_for_unlinked_files() {
    // The paper's headline performance property, asserted as a correctness
    // property: ordinary file traffic must never touch DLFM.
    let sys = build(ControlMode::Rdd, 1);
    let raw = sys.raw_fs("srv").unwrap();
    raw.write_file(&APP, "/d/plain.txt", b"ordinary").unwrap();

    let before = sys.node("srv").unwrap().dlfs.upcall_client().round_trip_count();
    let fs = sys.fs("srv").unwrap();
    for _ in 0..50 {
        let fd = fs.open(&APP, "/d/plain.txt", OpenOptions::read_only()).unwrap();
        let _ = fs.read_to_end(fd).unwrap();
        fs.close(fd).unwrap();
    }
    let after = sys.node("srv").unwrap().dlfs.upcall_client().round_trip_count();
    assert_eq!(after - before, 0, "unlinked traffic must bypass DLFM entirely");
}

/// Runs `step` on its own thread and fails the test unless it finishes
/// within five seconds — the lock manager has no timeout, so a step stuck
/// behind a row lock nobody will release would otherwise hang the suite.
fn within<T: Send + 'static>(what: &str, step: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, finished) = std::sync::mpsc::channel();
    thread::spawn(move || done.send(step()));
    finished.recv_timeout(Duration::from_secs(5)).unwrap_or_else(|_| {
        panic!("{what} is still waiting after 5 s: a branch holds its row lock")
    })
}

/// Blocks until `txid` has a link/unlink branch on the server — the racing
/// op has passed its early checks and is about to queue on the row lock.
fn wait_for_branch(sys: &DataLinksSystem, txid: u64) {
    let server = &sys.node("srv").unwrap().server;
    while !server.has_pending(txid) {
        thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_link_that_loses_a_same_path_race_leaves_no_branch_behind() {
    // A links a file; B links the same file and queues behind A's row
    // lock; A commits, so B finds the file linked and its statement fails.
    // B's branch was opened but no participant was ever enlisted for it:
    // the failed link must end it, or its row lock wedges the file.
    let sys = Arc::new(build(ControlMode::Rdd, 0));
    sys.raw_fs("srv").unwrap().write_file(&APP, "/d/race.bin", b"contested").unwrap();
    let url = || Value::DataLink("dlfs://srv/d/race.bin".into());
    let mut a = sys.begin();
    a.insert("t", vec![Value::Int(1), url()]).unwrap();

    let (b_txid, b_started) = std::sync::mpsc::channel();
    let b = {
        let sys = Arc::clone(&sys);
        thread::spawn(move || {
            let mut b = sys.begin();
            b_txid.send(b.id()).unwrap();
            let linked = b.insert("t", vec![Value::Int(2), url()]);
            b.commit().unwrap();
            linked
        })
    };
    wait_for_branch(&sys, b_started.recv().unwrap());
    a.commit().unwrap();
    assert!(b.join().unwrap().is_err(), "B's link finds the file linked");

    let writer = Arc::clone(&sys);
    within("the next write open", move || write_once(&writer, 1, b"after the race"));
    assert!(sys.node("srv").unwrap().server.pending_host_txns().is_empty());
    assert!(sys.node("srv").unwrap().server.repository().list_intents().is_empty());
}

#[test]
fn an_unlink_that_loses_a_same_path_race_leaves_no_branch_behind() {
    // A unlinks a file; B's unlink of it (the agent call the engine makes,
    // which enlists B only if it succeeds) queues behind A's row lock; A
    // commits, so B finds no row. B's branch must end with the failure.
    let sys = Arc::new(build(ControlMode::Rdd, 1));
    let mut a = sys.begin();
    a.delete("t", &Value::Int(0)).unwrap();

    let b = sys.begin();
    let b_txid = b.id();
    let agent = sys.node("srv").unwrap().connect_agent();
    let unlinked = thread::spawn(move || agent.unlink(b_txid, "/d/f0.bin"));
    wait_for_branch(&sys, b_txid);
    a.commit().unwrap();
    assert!(unlinked.join().unwrap().is_err(), "B's unlink finds the file unlinked");
    b.abort();

    let linker = Arc::clone(&sys);
    within("the next link", move || {
        let mut tx = linker.begin();
        tx.insert("t", vec![Value::Int(0), Value::DataLink("dlfs://srv/d/f0.bin".into())]).unwrap();
        tx.commit().unwrap();
    });
    assert!(sys.node("srv").unwrap().server.pending_host_txns().is_empty());
}
