//! Wire-transport smoke (PR 10): the full stack speaking over real Unix
//! sockets. `Transport::Socket` routes the engine's agent protocol and
//! DLFS's upcalls through the framed codec and the poll(2) reactor, and
//! these scenarios pin that the behaviour is indistinguishable from the
//! in-process path: engine DML 2PC, managed token writes, presumed abort
//! when a connection dies mid-2PC, and coordinator fencing across host
//! failover. The client side has no I/O thread — each concurrent caller
//! checks out a socket of its own and reads its reply itself — so the
//! shared-connection cases (concurrent calls, sever with calls in flight)
//! and the frame cost of a managed open are pinned here too.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use datalinks::core::{
    DataLinksSystem, DatalinkUrl, DlColumnOptions, FileServerSpec, ServerRegistration,
};
use datalinks::dlfm::{AgentConnection, ControlMode, DlfmClient, OnUnlink, TokenKind, Transport};
use datalinks::fskit::{Cred, OpenOptions, SimClock};
use datalinks::minidb::{Column, ColumnType, Schema, Value};
use dl_net::Message;

const APP: Cred = Cred { uid: 100, gid: 100 };
const SRV: &str = "srv";

fn spec() -> FileServerSpec {
    FileServerSpec::new(SRV).transport(Transport::Socket)
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

fn build(n_files: usize) -> DataLinksSystem {
    let sys = DataLinksSystem::builder()
        .clock(Arc::new(SimClock::new(1_000_000)))
        .file_server_with(spec())
        .build()
        .unwrap();
    seed(sys, n_files)
}

fn write_once(sys: &DataLinksSystem, id: i64, content: &[u8]) {
    let (_, path) = sys.select_datalink("t", &Value::Int(id), "body", TokenKind::Write).unwrap();
    let fs = sys.fs(SRV).unwrap();
    let fd = fs.open(&APP, &path, OpenOptions::write_truncate()).unwrap();
    fs.write(fd, content).unwrap();
    fs.close(fd).unwrap();
}

fn read_token_path(sys: &DataLinksSystem, id: i64) -> String {
    let (_, path) = sys.select_datalink("t", &Value::Int(id), "body", TokenKind::Read).unwrap();
    path
}

// ---------------------------------------------------------------------------
// engine DML and managed updates over the socket
// ---------------------------------------------------------------------------

#[test]
fn engine_dml_two_phase_commit_runs_over_the_socket() {
    let sys = build(2);
    let node = sys.node(SRV).unwrap();
    assert!(node.wire().is_some(), "Transport::Socket must bring the wire front end up");

    // The seed inserts linked two files: each was a full link + 2PC
    // round over the socket.
    for i in 0..2 {
        let entry = node.server.repository().get_file(&format!("/d/f{i}.bin"));
        assert!(entry.is_some(), "seed row {i} must be linked through the wire");
    }

    // And the frames were real: server-side instruments counted them.
    let snap = sys.registry().snapshot();
    let counter = |k: &str| *snap.counters.get(&format!("net.{SRV}.{k}")).unwrap_or(&0);
    assert!(counter("frames_in") > 0, "link/commit frames must be counted in");
    assert!(counter("frames_out") > 0, "replies must be counted out");
    assert!(counter("bytes_in") > counter("frames_in"), "every frame is > 1 byte");
    assert_eq!(counter("decode_errors"), 0);
    assert!(counter("accepts") >= 2, "engine and DLFS each hold a connection");
    assert!(
        snap.gauges.get(&format!("net.{SRV}.connections")).copied().unwrap_or(0.0) >= 2.0,
        "both standing connections must be live"
    );
    let rt = snap.histograms.get(&format!("net.{SRV}.round_trip_ns")).unwrap();
    assert!(rt.count > 0, "client round trips must be timed");
}

#[test]
fn managed_token_update_flows_through_the_wire_upcall() {
    let sys = build(1);

    // Write under a write token: DLFS validates the token, registers the
    // open and reports the close over the socket.
    write_once(&sys, 0, b"over the wire");
    let node = sys.node(SRV).unwrap();
    node.server.archive_store().wait_archived("/d/f0.bin");
    let entry = node.server.repository().get_file("/d/f0.bin").unwrap();
    assert_eq!(entry.cur_version, 2, "one update on top of v1");

    // Read it back under a read token, again through the wire upcall.
    let tp = read_token_path(&sys, 0);
    assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), b"over the wire");
}

// ---------------------------------------------------------------------------
// one connection, many callers: whoever reads the socket reads for everyone
// ---------------------------------------------------------------------------

#[test]
fn concurrent_calls_on_one_connection_each_get_their_own_reply() {
    const CALLERS: usize = 8;
    let sys = build(CALLERS);
    let conn = sys.node(SRV).unwrap().wire().unwrap().connect("shared").unwrap();

    // A mutation check on a linked file is refused with the file's own
    // path in the text: eight callers, eight distinct reply payloads.
    let start = Barrier::new(CALLERS);
    std::thread::scope(|s| {
        for t in 0..CALLERS {
            let (conn, start) = (&conn, &start);
            s.spawn(move || {
                let path = format!("/d/f{t}.bin");
                start.wait();
                for _ in 0..200 {
                    match conn.call(Message::MutationCheck { path: path.clone() }) {
                        Ok(Message::Err(e)) => {
                            assert!(
                                e.starts_with(&path),
                                "caller {t} got someone else's reply: {e}"
                            )
                        }
                        other => panic!("caller {t}: unexpected {other:?}"),
                    }
                }
            });
        }
    });
    assert!(!conn.is_dead());
    let snap = sys.registry().snapshot();
    assert_eq!(snap.counters.get(&format!("net.{SRV}.decode_errors")), Some(&0));
    assert_eq!(snap.counters.get(&format!("net.{SRV}.call_timeouts")), Some(&0));
}

#[test]
fn sever_with_calls_in_flight_fails_them_all_promptly() {
    const CALLERS: usize = 4;
    // The threads serving the `/d/hang` mutation checks park inside them
    // until the test lets go, so the calls below are in flight for as long
    // as it needs them to be.
    let arrived = Arc::new(AtomicUsize::new(0));
    let (release, parked) = mpsc::channel::<()>();
    let parked = Mutex::new(parked);
    let hook = {
        let arrived = Arc::clone(&arrived);
        Arc::new(move |req: &Message| {
            if matches!(req, Message::MutationCheck { path } if path == "/d/hang") {
                arrived.fetch_add(1, Ordering::SeqCst);
                let _ = parked.lock().unwrap().recv();
            }
        })
    };
    let sys = DataLinksSystem::builder()
        .clock(Arc::new(SimClock::new(1_000_000)))
        .file_server_with(spec().upcall_fault_injector(hook))
        .build()
        .unwrap();
    let conn = sys.node(SRV).unwrap().wire().unwrap().connect("doomed").unwrap();

    std::thread::scope(|s| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|_| {
                let conn = &conn;
                s.spawn(move || conn.call(Message::MutationCheck { path: "/d/hang".into() }))
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while arrived.load(Ordering::SeqCst) < CALLERS {
            assert!(Instant::now() < deadline, "calls never reached the daemon");
            std::thread::sleep(Duration::from_millis(1));
        }

        let severed = Instant::now();
        conn.sever();
        for c in callers {
            let err = c.join().unwrap().expect_err("a severed call cannot succeed");
            assert!(err.contains("connection lost"), "{err}");
        }
        assert!(severed.elapsed() < Duration::from_secs(1), "took {:?}", severed.elapsed());
    });
    assert!(conn.is_dead());
    assert!(conn.call(Message::EpochGet).unwrap_err().contains("is closed"));
    drop(release); // unparks the serving threads: their replies go nowhere
}

// ---------------------------------------------------------------------------
// the sync epoch rides the Busy reply: a managed open is one round trip
// ---------------------------------------------------------------------------

#[test]
fn uncontended_token_open_close_costs_two_request_frames() {
    let sys = build(1);
    let frames_in =
        || *sys.registry().snapshot().counters.get(&format!("net.{SRV}.frames_in")).unwrap();
    let before = frames_in();
    write_once(&sys, 0, b"two frames");
    // OpenCheck (open, the token inside it) and CloseNotify (close): the
    // lookup makes no upcall, and no EpochGet precedes the open check.
    assert_eq!(frames_in() - before, 2);

    // A token read costs the same two.
    let path = read_token_path(&sys, 0);
    let fs = sys.fs(SRV).unwrap();
    let before = frames_in();
    let fd = fs.open(&APP, &path, OpenOptions::read_only()).unwrap();
    assert_eq!(fs.read_to_end(fd).unwrap(), b"two frames");
    fs.close(fd).unwrap();
    assert_eq!(frames_in() - before, 2);
}

#[test]
fn a_link_and_an_unlink_each_cost_two_request_frames() {
    let sys = build(0);
    sys.raw_fs(SRV).unwrap().write_file(&APP, "/d/f0.bin", b"two frames").unwrap();
    let frames_in =
        || *sys.registry().snapshot().counters.get(&format!("net.{SRV}.frames_in")).unwrap();

    // `Link` — its reply is the branch's vote — then the decision: no
    // prepare round.
    let before = frames_in();
    let mut tx = sys.begin();
    tx.insert("t", vec![Value::Int(0), Value::DataLink(format!("dlfs://{SRV}/d/f0.bin"))]).unwrap();
    tx.commit().unwrap();
    assert_eq!(frames_in() - before, 2, "Link + Commit");

    let before = frames_in();
    let mut tx = sys.begin();
    tx.delete("t", &Value::Int(0)).unwrap();
    tx.commit().unwrap();
    assert_eq!(frames_in() - before, 2, "Unlink + Commit");
    assert!(sys.node(SRV).unwrap().server.repository().get_file("/d/f0.bin").is_none());
}

/// A served frame borrows the seat: a sequential client has one frame in
/// flight, so its thread reads one event per poll and serves it on a lent
/// poll set, then takes the set back — no follower wakes per frame. Over
/// sequential link → update → read → unlink lifecycles, nearly every
/// request frame ends in a reclaim; a reactor that gave the seat away per
/// frame would reclaim none.
#[test]
fn sequential_lifecycles_reclaim_the_seat_for_nearly_every_frame() {
    const LIFECYCLES: i64 = 50;
    let sys = build(0);
    let counter = |k: &str| sys.registry().snapshot().counters[&format!("net.{SRV}.{k}")];
    let (frames_before, reclaims_before) = (counter("frames_in"), counter("seat_reclaims"));
    for i in 0..LIFECYCLES {
        let path = format!("/d/life{i}.bin");
        sys.raw_fs(SRV).unwrap().write_file(&APP, &path, b"v1").unwrap();
        let mut tx = sys.begin();
        tx.insert("t", vec![Value::Int(i), Value::DataLink(format!("dlfs://{SRV}{path}"))])
            .unwrap();
        tx.commit().unwrap();
        write_once(&sys, i, b"v2");
        let fs = sys.fs(SRV).unwrap();
        let fd = fs.open(&APP, &read_token_path(&sys, i), OpenOptions::read_only()).unwrap();
        assert_eq!(fs.read_to_end(fd).unwrap(), b"v2");
        fs.close(fd).unwrap();
        let mut tx = sys.begin();
        tx.delete("t", &Value::Int(i)).unwrap();
        tx.commit().unwrap();
    }
    let frames = counter("frames_in") - frames_before;
    let reclaims = counter("seat_reclaims") - reclaims_before;
    eprintln!("{reclaims} seat reclaims over {frames} request frames");
    assert_eq!(frames, 8 * LIFECYCLES as u64, "a lifecycle is 8 request frames");
    assert!(reclaims * 2 >= frames, "only {reclaims} of {frames} frames reclaimed their lend");
}

#[test]
fn second_writer_waits_out_busy_over_the_socket() {
    let sys = build(1);
    let busy_waits =
        || *sys.registry().snapshot().counters.get(&format!("dlfs.{SRV}.busy_waits")).unwrap();
    let waits_before = busy_waits();

    // The first writer holds the file open...
    let (_, path) = sys.select_datalink("t", &Value::Int(0), "body", TokenKind::Write).unwrap();
    let fs = sys.fs(SRV).unwrap();
    let fd = fs.open(&APP, &path, OpenOptions::write_truncate()).unwrap();

    std::thread::scope(|s| {
        // ...so the second one's open check comes back Busy with the
        // epoch to wait on, and it blocks polling for a change.
        let second = s.spawn(|| write_once(&sys, 0, b"second"));
        let deadline = Instant::now() + Duration::from_secs(10);
        while busy_waits() == waits_before {
            assert!(Instant::now() < deadline, "the second writer never saw Busy");
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20));
        assert!(!second.is_finished(), "the second writer must block while the file is open");

        fs.write(fd, b"first").unwrap();
        fs.close(fd).unwrap();
        second.join().unwrap();
    });

    let node = sys.node(SRV).unwrap();
    node.server.archive_store().wait_archived("/d/f0.bin");
    assert_eq!(node.server.repository().get_file("/d/f0.bin").unwrap().cur_version, 3);
    let tp = read_token_path(&sys, 0);
    assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), b"second");
}

// ---------------------------------------------------------------------------
// a severed connection mid-2PC resolves by presumed abort
// ---------------------------------------------------------------------------

/// What one sever-and-churn run counted.
struct SeverRun {
    /// `net.<srv>.peak_connections`: the most connections open at once.
    peak_connections: f64,
    /// The most threads that served the node's frames at once.
    executor_peak_threads: u64,
    /// Links left in the repository plus claims still pending.
    atomicity_violations: u64,
    /// `net.<srv>.presumed_aborts`.
    presumed_aborts: u64,
    /// Severed connections whose client endpoint knows it is dead.
    severed: u64,
    /// `net.<srv>.decode_errors`.
    decode_errors: u64,
    /// `net.<srv>.disconnects`.
    disconnects: u64,
    /// Link → commit → unlink → commit rounds that completed.
    churn_cycles: u64,
}

/// `connections` real sockets held open together against one node. The
/// first `severed` each link a file, and then their socket is cut before
/// the decision arrives: the host database never heard of those
/// transactions, so each in-doubt claim must resolve by presumed abort
/// and roll its link back. Every other connection drives one full link →
/// commit → unlink → commit round over the wire, 16 client threads in
/// all, while the severed claims resolve underneath. Anything left in
/// the repository afterwards, or any claim still pending, is an atomicity
/// violation.
fn sever_mid_two_phase_commit(connections: usize, severed: usize) -> SeverRun {
    let sys = build(0);
    let raw = sys.raw_fs(SRV).unwrap();
    let node = sys.node(SRV).unwrap();
    let wire = node.wire().expect("socket transport");
    let doomed_path = |j: usize| format!("/d/doomed{j:04}.bin");
    let churn_path = |i: usize| format!("/d/churn{i:04}.bin");
    for j in 0..severed {
        raw.write_file(&APP, &doomed_path(j), b"doomed").unwrap();
    }
    for i in 0..connections - severed {
        raw.write_file(&APP, &churn_path(i), b"churn").unwrap();
    }

    // Every connection is a real socket, and they are all open at once.
    let doomed: Vec<_> = (0..severed)
        .map(|j| {
            let conn = wire.connect(&format!("doomed-{j}")).unwrap();
            (DlfmClient::connect(conn.clone(), "doomed").unwrap(), conn)
        })
        .collect();
    let churners: Vec<DlfmClient> = (0..connections - severed)
        .map(|i| wire.connect_client(&format!("churn-{i}")).unwrap())
        .collect();

    let aborts_before = wire.daemon.presumed_aborts().get();
    for (j, (agent, conn)) in doomed.iter().enumerate() {
        let txid = 3_000_000 + 2 * j as u64;
        agent.link(txid, &doomed_path(j), ControlMode::Rff, true, OnUnlink::Restore).unwrap();
        conn.sever();
    }

    let threads = 16.min(churners.len().max(1));
    let churn_cycles = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (churners, churn_cycles) = (&churners, &churn_cycles);
            s.spawn(move || {
                for (i, agent) in churners.iter().enumerate().filter(|(i, _)| i % threads == t) {
                    let (link_tx, path) = (1_000_000 + 2 * i as u64, churn_path(i));
                    agent.link(link_tx, &path, ControlMode::Rff, true, OnUnlink::Restore).unwrap();
                    agent.commit(link_tx);
                    agent.unlink(link_tx + 1, &path).unwrap();
                    agent.commit(link_tx + 1);
                    churn_cycles.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    let deadline = Instant::now() + Duration::from_secs(30);
    while (!node.server.pending_host_txns().is_empty()
        || wire.daemon.presumed_aborts().get() < aborts_before + severed as u64)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    let atomicity_violations = (node.server.repository().list_files().len()
        + node.server.pending_host_txns().len()) as u64;

    // Read while the surviving connections are still open.
    let snap = sys.registry().snapshot();
    let counter = |k: &str| snap.counters.get(&format!("net.{SRV}.{k}")).copied().unwrap_or(0);
    let run = SeverRun {
        peak_connections: snap.gauges[&format!("net.{SRV}.peak_connections")],
        executor_peak_threads: wire.daemon.peak_threads() as u64,
        atomicity_violations,
        presumed_aborts: counter("presumed_aborts"),
        severed: doomed.iter().filter(|(_, conn)| conn.is_dead()).count() as u64,
        decode_errors: counter("decode_errors"),
        disconnects: counter("disconnects"),
        churn_cycles: churn_cycles.into_inner() as u64,
    };
    drop(churners);
    run
}

#[test]
fn severing_a_connection_mid_two_phase_commit_presumed_aborts() {
    let run = sever_mid_two_phase_commit(1, 1);
    assert_eq!(run.presumed_aborts, 1, "the orphan must be resolved by presumed abort");
    assert_eq!(run.atomicity_violations, 0, "the aborted link must leave no residue");
    assert_eq!(run.severed, 1, "the severed client endpoint must know it is dead");
    assert!(run.disconnects >= 1, "the registry mirrors the disconnect");
}

/// The wire front end at connection scale: 1,088 sockets open at once,
/// 32 of them severed mid-2PC while the other 1,056 each run a full
/// link/unlink round. Frames are served on the threads that read them, so
/// the connection count costs no threads: the serving threads stay at 32
/// or fewer.
#[test]
fn a_thousand_sockets_churn_while_32_are_severed_mid_two_phase_commit() {
    let run = sever_mid_two_phase_commit(1_088, 32);
    assert!(run.peak_connections >= 1024.0, "peak connections {}", run.peak_connections);
    assert!(run.executor_peak_threads <= 32, "{} serving threads", run.executor_peak_threads);
    assert_eq!(run.atomicity_violations, 0);
    assert!(run.presumed_aborts >= 32, "{} presumed aborts", run.presumed_aborts);
    assert_eq!(run.severed, 32);
    assert_eq!(run.decode_errors, 0, "every byte reassembled into a legal frame");
    assert_eq!(run.churn_cycles, 1_056, "every churn cycle completed");
}

/// A real host transaction whose agent connection is cut while it commits:
/// the disconnect sweep settles the branch without the host's word, and
/// the host commit may be anywhere — not begun, appending its decision,
/// applying its rows, or done. The sweep aborts the transaction on the host
/// if it is undecided before it reads the host rows, so every round ends
/// with the file linked exactly when the host rows say so.
#[test]
fn severing_the_agent_connection_mid_commit_never_splits_the_rows() {
    const ROUNDS: i64 = 200;
    let sys = build(0);
    let node = sys.node(SRV).unwrap();
    let wire = node.wire().unwrap();
    let mut committed_rounds = 0;
    for i in 0..ROUNDS {
        let path = format!("/d/race{i}.bin");
        sys.raw_fs(SRV).unwrap().write_file(&APP, &path, b"race").unwrap();
        // The engine's agent connection for this round: the one cut.
        let conn = wire.connect("racer").unwrap();
        sys.engine().register_server(ServerRegistration {
            name: SRV.to_string(),
            agent: Arc::new(DlfmClient::connect(conn.clone(), "racer").unwrap()),
            token_key: *node.server.token_key(),
            server: Arc::clone(&node.server),
            replication: None,
        });
        let url = format!("dlfs://{SRV}{path}");
        let mut tx = sys.begin();
        tx.insert("t", vec![Value::Int(i), Value::DataLink(url.clone())]).unwrap();

        let start = Barrier::new(2);
        let committed = std::thread::scope(|s| {
            let start = &start;
            let committer = s.spawn(move || {
                start.wait();
                // The cut takes a while to reach the sweep: stagger the
                // commit so the rounds land on every side of it.
                let stagger = Instant::now() + Duration::from_micros(i as u64 % 16 * 8);
                while Instant::now() < stagger {
                    std::hint::spin_loop();
                }
                tx.commit().is_ok()
            });
            start.wait();
            conn.sever();
            committer.join().unwrap()
        });
        committed_rounds += committed as usize;

        // Settled: the branch has left the pending table, and the commit or
        // abort that removes its intent has landed.
        let repo = node.server.repository();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !node.server.pending_host_txns().is_empty() || !repo.list_intents().is_empty() {
            assert!(Instant::now() < deadline, "round {i}: the sweep never settled the branch");
            std::thread::sleep(Duration::from_millis(1));
        }
        let meta = sys.engine().file_meta(&DatalinkUrl::parse(&url).unwrap()).is_some();
        let linked = repo.get_file(&path).is_some();
        let user_row = sys.db().get_committed("t", &Value::Int(i)).unwrap().is_some();
        assert_eq!(meta, linked, "round {i}: __dl_meta row iff dl_files row");
        assert_eq!((user_row, committed), (meta, meta), "round {i}: the host agrees");
    }
    eprintln!("{committed_rounds}/{ROUNDS} rounds committed before the cut");
}

// ---------------------------------------------------------------------------
// coordinator fencing holds over the wire across host failover
// ---------------------------------------------------------------------------

#[test]
fn host_failover_fences_stale_wire_agents() {
    let mut sys = DataLinksSystem::builder()
        .clock(Arc::new(SimClock::new(1_000_000)))
        .host_replicas(1)
        .file_server_with(spec())
        .build()
        .unwrap();
    sys = seed(sys, 1);
    let raw = sys.raw_fs(SRV).unwrap();
    raw.write_file(&APP, "/d/cand.bin", b"candidate").unwrap();
    let server = Arc::clone(&sys.node(SRV).unwrap().server);

    // A zombie coordinator: voted over the wire, then the host crashes
    // while it holds the decision.
    let zombie = {
        let node = sys.node(SRV).unwrap();
        node.wire().unwrap().connect_client("zombie").unwrap()
    };
    let tx = sys.begin();
    let txid = tx.id();
    zombie.link(txid, "/d/cand.bin", ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
    std::mem::forget(tx); // the coordinator "dies" holding the decision

    assert!(sys.wait_host_replicas_caught_up(Duration::from_secs(10)));
    sys.crash_host().unwrap();

    // The zombie wakes up and decides commit over its old connection: the
    // epoch it carries is stale, so the fence drops the decision.
    let before = server.stats.stale_coord_rejections.get();
    zombie.commit(txid);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats.stale_coord_rejections.get() == before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(server.stats.stale_coord_rejections.get() > before, "stale decision must be fenced");
    assert_eq!(server.pending_host_txns(), vec![txid], "the claim must not settle");

    // Fresh work under the old generation is refused outright.
    raw.write_file(&APP, "/d/cand2.bin", b"late").unwrap();
    let err = zombie.link(txid + 2, "/d/cand2.bin", ControlMode::Rdd, true, OnUnlink::Restore);
    assert!(err.unwrap_err().contains("stale coordinator"), "zombie link must be fenced");

    // Promotion settles the claim by presumed abort, and a fresh
    // connection handshakes into the new coordinator generation.
    let report = sys.promote_host().unwrap();
    assert_eq!(report.in_doubt_resolved, vec![(SRV.to_string(), txid, false)]);
    assert!(server.repository().get_file("/d/cand.bin").is_none());

    let fresh = {
        let node = sys.node(SRV).unwrap();
        node.wire().unwrap().connect_client("fresh").unwrap()
    };
    let txid2 = 9_100_001;
    fresh.link(txid2, "/d/cand.bin", ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
    fresh.commit(txid2);
    assert!(server.repository().get_file("/d/cand.bin").is_some());

    // And the promoted engine's own re-minted wire connections carry the
    // full managed-update path.
    write_once(&sys, 0, b"post failover");
    let tp = read_token_path(&sys, 0);
    assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), b"post failover");
}
