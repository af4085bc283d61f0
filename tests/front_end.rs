//! Front-end saturation scenarios (PR 5): the upcall lane under bursty
//! load, agent connect/disconnect storms over the shared executor,
//! and a property test that interleaves strict-link registration with the
//! managed open/close protocol asserting no opener claim ever leaks.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use datalinks::core::{DataLinksSystem, DlColumnOptions, FileServerSpec};
use datalinks::dlfm::{
    AccessToken, AgentConnection, ArchiveStore, ControlMode, DlfmClient, DlfmConfig, DlfmServer,
    FaultInjector, HostHook, MainDaemon, OnUnlink, OpenDecision, Repository, TokenKind,
    WireConnector, WireDaemon,
};
use datalinks::fskit::{Clock, Cred, FileSystem, Lfs, MemFs, OpenOptions, SimClock};
use datalinks::minidb::{Column, ColumnType, Schema, StorageEnv, Value};
use datalinks::obs::NetStats;

#[path = "../crates/dlfm/tests/support/mem_host.rs"]
mod mem_host;
use mem_host::MemHost;

const APP: Cred = Cred { uid: 100, gid: 100 };
const SRV: &str = "srv";

// ---------------------------------------------------------------------------
// upcall lane: serving threads grow with a burst and retire when idle
// ---------------------------------------------------------------------------

const BURST_CLIENTS: usize = 16;

/// A DLFM server under a host whose metadata commit parks for 400 µs, as a
/// forced log write would, with one linked full-control file per burst
/// client. The host's commit is the update's commit point, so every close
/// that wrote parks the thread serving it there — the occupancy that makes
/// a burst hold many heads at once. The archive copy is taken inside the
/// close, so the next open of the file is never `Busy`. The claim and the
/// close record are unforced appends, and token entries and Sync entries
/// live in DLFM's memory: they park nobody.
fn slow_host_server(width: usize) -> (Arc<DlfmServer>, Arc<SimClock>) {
    let clock = Arc::new(SimClock::new(1_000_000));
    let fs = Arc::new(MemFs::with_clock(clock.clone()));
    let admin = Lfs::new(fs.clone() as Arc<dyn FileSystem>);
    admin.mkdir_p(&Cred::root(), "/d", 0o777).unwrap();
    let mut cfg = DlfmConfig::new(SRV).upcall_workers(width);
    cfg.sync_archive = true;
    let server = Arc::new(DlfmServer::new(
        cfg,
        fs as Arc<dyn FileSystem>,
        Repository::open(StorageEnv::mem()).unwrap(),
        Arc::new(ArchiveStore::new()),
        clock.clone(),
        MemHost::parked(Duration::from_micros(400)),
    ));
    for t in 0..BURST_CLIENTS {
        let path = format!("/d/f{t}.bin");
        admin.write_file(&APP, &path, b"seed").unwrap();
        server.link_file(1, &path, ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
    }
    server.commit_host(1);
    (server, clock)
}

const BURST_CYCLES: u64 = 8;
const UPCALLS_PER_CYCLE: u64 = 3;

/// The burst: 16 threads sharing `client`, each cycling 8 updates of its
/// own file — token validation, the claimed write open, and a close that
/// commits the new version (~400 µs parked on the host's commit).
/// `after_cycle` runs on the client's thread after each cycle.
fn write_open_burst(
    server: &DlfmServer,
    clock: &SimClock,
    client: &DlfmClient,
    after_cycle: impl Fn() + Sync,
) {
    std::thread::scope(|scope| {
        for t in 0..BURST_CLIENTS {
            let after_cycle = &after_cycle;
            let key = *server.token_key();
            let now = clock.now_ms();
            scope.spawn(move || {
                let path = format!("/d/f{t}.bin");
                for k in 0..BURST_CYCLES {
                    let tok =
                        AccessToken::generate(&key, SRV, &path, TokenKind::Write, now + 60_000 + k);
                    client.validate_token(&path, &tok.encode(), APP.uid).unwrap();
                    let opener = (t as u64) * 100 + k;
                    let (_, decision) =
                        client.open_check(&path, APP.uid, TokenKind::Write, opener, None);
                    assert!(matches!(decision, OpenDecision::Approved { .. }), "{decision:?}");
                    client.close_notify(&path, opener, true, 4, 0).unwrap();
                    after_cycle();
                }
            });
        }
    });
}

/// Over the wire: a frame is served on the reactor thread that read it, so
/// a burst of frames parked in host commits is what recruits serving
/// threads (16 calls in flight on one connection, a socket each). Once the
/// burst is over they retire to the reactor's floor.
#[test]
fn upcall_burst_grows_the_pool_then_idles_back_to_the_floor() {
    let (server, clock) = slow_host_server(24);
    let daemon = MainDaemon::new(Arc::clone(&server));
    let wire = WireDaemon::spawn(&daemon, Arc::new(NetStats::new())).unwrap();
    let connector = WireConnector::new(Arc::new(NetStats::new()), Duration::from_secs(30));
    let conn = connector.connect(wire.socket_path(), "burst").unwrap();
    let client = DlfmClient::connect(conn, "burst").unwrap();

    write_open_burst(&server, &clock, &client, || {});

    let stats = daemon.upcall_pool_stats();
    assert!(
        stats.peak_workers() > 2,
        "a 16-client burst must hold more than 2 heads at once (peaked at {})",
        stats.peak_workers()
    );
    assert!(
        wire.peak_threads() > stats.peak_workers(),
        "every head inside the lane is a reactor thread, plus the leader (peaked at {})",
        wire.peak_threads()
    );

    // Idle: the burst is over; the serving threads must shed to the floor.
    assert!(daemon.wait_upcalls_idle(Duration::from_secs(5)));
    let deadline = Instant::now() + Duration::from_secs(5);
    while wire.threads() > 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(wire.threads(), 2, "idle serving threads must retire to the leader + one");
    assert_eq!(stats.workers(), 0);

    // And it still serves after shrinking (the veto is the answer here:
    // a linked full-control file cannot be removed).
    assert!(client.mutation_check("/d/f0.bin").is_err());
}

/// The in-process twin: callers serve their own upcalls as guests of the
/// lane, so the same burst recruits no thread at all — and
/// `upcall_workers_max` still bounds the heads inside the server at once.
#[test]
fn in_process_upcall_burst_serves_on_its_callers_bounded_by_max_workers() {
    const MAX: usize = 4;
    let (server, clock) = slow_host_server(MAX);
    // Ground truth from inside the slot (the hook runs under it, right
    // before `handle`): heads in at once, and their peak. Entrants hold
    // their slot until MAX are in together, which forces the lane to its
    // bound; a lane admitting fewer fails here by timeout, one admitting
    // more shows up in the peak.
    let inside = Arc::new((Mutex::new((0usize, 0usize)), Condvar::new()));
    let hook: FaultInjector = {
        let inside = Arc::clone(&inside);
        Arc::new(move |_| {
            let (lock, full) = &*inside;
            let mut heads = lock.lock().unwrap();
            heads.0 += 1;
            heads.1 = heads.1.max(heads.0);
            full.notify_all();
            let (mut heads, wait) = full
                .wait_timeout_while(heads, Duration::from_secs(10), |heads| heads.1 < MAX)
                .unwrap();
            heads.0 -= 1;
            assert!(!wait.timed_out(), "the lane never let {MAX} callers serve at once");
        })
    };
    let daemon = MainDaemon::with_fault_injector(Arc::clone(&server), Some(hook));
    let client = daemon.connect();
    let stats = daemon.upcall_pool_stats();

    write_open_burst(&server, &clock, &client, || {
        assert!(stats.workers() <= MAX, "heads inside the lane never pass its width");
    });

    assert_eq!(inside.0.lock().unwrap().1, MAX, "heads inside the lane at once");
    assert_eq!(stats.peak_workers(), MAX);
    assert_eq!(stats.peak_queue_depth(), 0, "nothing was parked");
    let sent = BURST_CLIENTS as u64 * BURST_CYCLES * UPCALLS_PER_CYCLE;
    assert_eq!(stats.tasks(), sent);
    assert_eq!(stats.caller_served(), sent);
    assert!(daemon.wait_upcalls_idle(Duration::from_secs(5)));
}

// ---------------------------------------------------------------------------
// shared agent executor: churn storms, thread bounds
// ---------------------------------------------------------------------------

fn system() -> DataLinksSystem {
    let spec = FileServerSpec::new(SRV);
    let sys = DataLinksSystem::builder()
        .clock(Arc::new(SimClock::new(1_000_000)))
        .file_server_with(spec)
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
    sys.define_datalink_column("t", "body", DlColumnOptions::new(ControlMode::Rff)).unwrap();
    sys
}

#[test]
fn agent_churn_storm_runs_on_a_bounded_executor() {
    let sys = system();
    let raw = sys.raw_fs(SRV).unwrap();
    let node = sys.node(SRV).unwrap();
    const STORMERS: usize = 8;
    const ROUNDS: usize = 12;
    for t in 0..STORMERS {
        for r in 0..ROUNDS {
            raw.write_file(&APP, &format!("/d/s{t}r{r}.bin"), b"x").unwrap();
        }
    }

    // Connect/disconnect storm: every round opens a fresh connection,
    // drives a full link + 2PC + unlink cycle, and drops the handle.
    std::thread::scope(|scope| {
        for t in 0..STORMERS {
            let node = &node;
            scope.spawn(move || {
                for r in 0..ROUNDS {
                    let agent = node.connect_agent();
                    let path = format!("/d/s{t}r{r}.bin");
                    let link_tx = 500_000 + (t * ROUNDS + r) as u64 * 2;
                    agent.link(link_tx, &path, ControlMode::Rff, true, OnUnlink::Restore).unwrap();
                    agent.commit(link_tx);
                    let unlink_tx = link_tx + 1;
                    agent.unlink(unlink_tx, &path).unwrap();
                    agent.commit(unlink_tx);
                    // handle drops here: disconnect
                }
            });
        }
    });

    // Every churned link was cleanly unlinked — no residue in the repo.
    assert!(node.server.repository().list_files().is_empty());
    // One connection per round (plus the engine's and DLFS's own), far
    // fewer threads.
    let main = node.main_daemon();
    assert_eq!(main.child_count(), STORMERS * ROUNDS + 2);
    let stats = main.executor_stats().expect("the agent executor always runs");
    assert!(
        stats.peak_workers() <= node.server.config().agent_executor_threads,
        "executor must never exceed its bound (peaked at {})",
        stats.peak_workers()
    );
}

#[test]
fn many_idle_connections_cost_no_threads() {
    let sys = system();
    let node = sys.node(SRV).unwrap();
    let handles: Vec<_> = (0..256).map(|_| node.connect_agent()).collect();
    assert_eq!(node.main_daemon().child_count(), 258, "256 + the engine's and DLFS's own");
    assert!(
        node.main_daemon().executor_threads() < 64,
        "256 idle connections must not pin 256 OS threads"
    );
    // Connections are live endpoints, not dead weight.
    let raw = sys.raw_fs(SRV).unwrap();
    raw.write_file(&APP, "/d/one.bin", b"x").unwrap();
    let agent = &handles[200];
    agent.link(900_001, "/d/one.bin", ControlMode::Rff, true, OnUnlink::Restore).unwrap();
    agent.commit(900_001);
    assert!(node.server.repository().get_file("/d/one.bin").is_some());
}

/// Regression (PR 5 review): link/unlink handlers block on repository row
/// locks until the holding transaction settles, so 2PC settlement must
/// run inline on the coordinator's thread — queued behind a bounded pool
/// full of lock-waiting link requests, the one commit that would release
/// them all starves and every connection hangs. A 2-worker executor with
/// 8 threads fighting over one path deadlocked before the fix; now it
/// must drain.
#[test]
fn contended_same_path_churn_cannot_deadlock_the_bounded_executor() {
    let mut spec = FileServerSpec::new(SRV);
    spec.dlfm.agent_executor_threads = 2;
    let sys = DataLinksSystem::builder()
        .clock(Arc::new(SimClock::new(1_000_000)))
        .file_server_with(spec)
        .build()
        .unwrap();
    let raw = sys.raw_fs(SRV).unwrap();
    raw.mkdir_p(&Cred::root(), "/d", 0o777).unwrap();
    raw.write_file(&APP, "/d/hot.bin", b"x").unwrap();
    let node = sys.node(SRV).unwrap();

    let linked = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..8usize {
            let node = &node;
            let linked = &linked;
            scope.spawn(move || {
                for r in 0..6usize {
                    let agent = node.connect_agent();
                    let txid = 700_000 + (t * 100 + r) as u64 * 2;
                    match agent.link(txid, "/d/hot.bin", ControlMode::Rff, true, OnUnlink::Restore)
                    {
                        Ok(_) => {
                            agent.commit(txid);
                            linked.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let untx = txid + 1;
                            agent.unlink(untx, "/d/hot.bin").unwrap();
                            agent.commit(untx);
                        }
                        // Lost the race: someone else holds the link.
                        Err(_) => agent.abort(txid),
                    }
                }
            });
        }
    });
    assert!(linked.load(std::sync::atomic::Ordering::Relaxed) > 0, "some links must win");
    assert!(node.server.repository().list_files().is_empty(), "every win was unlinked");
    // The eight linkers served their own requests, two at a time.
    let peak = node.main_daemon().executor_stats().expect("always runs").peak_workers();
    assert!(peak <= 2, "agent_executor_threads bounds callers too (peaked at {peak})");
}

/// Strict link is the server's setting alone: DLFS learns it at `Hello`
/// and registers every open it passes through, so a link of a file some
/// application holds open through the node's LFS is vetoed (§4.5's window
/// of inconsistency, closed) — and goes through once the file is closed.
#[test]
fn a_strict_link_server_vetoes_linking_a_file_open_through_its_lfs() {
    let mut spec = FileServerSpec::new(SRV);
    spec.dlfm.strict_link = true;
    let sys = DataLinksSystem::builder()
        .clock(Arc::new(SimClock::new(1_000_000)))
        .file_server_with(spec)
        .build()
        .unwrap();
    let raw = sys.raw_fs(SRV).unwrap();
    raw.mkdir_p(&Cred::root(), "/d", 0o777).unwrap();
    raw.write_file(&APP, "/d/f.bin", b"seed").unwrap();
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
    let row = || vec![Value::Int(1), Value::DataLink(format!("dlfs://{SRV}/d/f.bin"))];

    let fs = sys.fs(SRV).unwrap();
    let fd = fs.open(&APP, "/d/f.bin", OpenOptions::read_only()).unwrap();
    let mut tx = sys.begin();
    let err = tx.insert("t", row()).expect_err("the open file must veto its link").to_string();
    assert!(err.contains("currently open (strict link mode)"), "{err}");
    tx.abort();

    fs.close(fd).unwrap();
    let mut tx = sys.begin();
    tx.insert("t", row()).unwrap();
    tx.commit().unwrap();
    assert!(sys.node(SRV).unwrap().server.repository().get_file("/d/f.bin").is_some());
}

// ---------------------------------------------------------------------------
// property: strict registration interleaved with managed open/close never
// leaks opener claims
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum FrontOp {
    /// strict-link registration of opener `i` (plain open through DLFS).
    Register(u8),
    /// unregister opener `i` if registered.
    Unregister(u8),
    /// managed write open attempt by opener `i` (token primed).
    OpenWrite(u8),
    /// close opener `i`'s write descriptor if granted.
    CloseWrite(u8),
}

fn front_op() -> impl Strategy<Value = FrontOp> {
    prop_oneof![
        (0u8..6).prop_map(FrontOp::Register),
        (0u8..6).prop_map(FrontOp::Unregister),
        (0u8..6).prop_map(FrontOp::OpenWrite),
        (0u8..6).prop_map(FrontOp::CloseWrite),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Any interleaving of strict-link register/unregister with managed
    /// write open/close, followed by the matching releases, leaves the
    /// open table with zero Sync entries and the repository log as it was
    /// — no opener claim survives its descriptor, and none was logged.
    #[test]
    fn interleaved_register_and_open_close_leak_nothing(
        ops in proptest::collection::vec(front_op(), 1..24)
    ) {
        let clock = Arc::new(SimClock::new(1_000_000));
        let fs = Arc::new(MemFs::with_clock(clock.clone()));
        let admin = Lfs::new(fs.clone() as Arc<dyn FileSystem>);
        admin.mkdir_p(&Cred::root(), "/d", 0o777).unwrap();
        admin.write_file(&APP, "/d/f.bin", b"seed").unwrap();
        let mut cfg = DlfmConfig::new(SRV);
        cfg.strict_link = true;
        let server = Arc::new(DlfmServer::new(
            cfg,
            fs as Arc<dyn FileSystem>,
            Repository::open(StorageEnv::mem()).unwrap(),
            Arc::new(ArchiveStore::new()),
            clock.clone(),
            MemHost::new(),
        ));
        server.link_file(1, "/d/f.bin", ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
        server.commit_host(1);
        let mark = server.repository().db().state_id();

        // Openers 0..6 of the registration flavour use ids 100+i; write
        // openers use 200+i — mirrors DLFS's unique opener allocation.
        let mut registered = [false; 6];
        let mut writing = [false; 6];
        for op in &ops {
            match *op {
                FrontOp::Register(i) => {
                    if !registered[i as usize] {
                        server.register_open("/d/f.bin", APP.uid, 100 + i as u64).unwrap();
                        registered[i as usize] = true;
                    }
                }
                FrontOp::Unregister(i) => {
                    if registered[i as usize] {
                        server.unregister_open("/d/f.bin", 100 + i as u64);
                        registered[i as usize] = false;
                    }
                }
                FrontOp::OpenWrite(i) => {
                    if writing[i as usize] {
                        continue;
                    }
                    let tok = AccessToken::generate(
                        server.token_key(),
                        SRV,
                        "/d/f.bin",
                        TokenKind::Write,
                        clock.now_ms() + 60_000,
                    );
                    server.validate_token("/d/f.bin", &tok.encode(), APP.uid).unwrap();
                    match server.open_check("/d/f.bin", APP.uid, TokenKind::Write, 200 + i as u64, None) {
                        OpenDecision::Approved { .. } => writing[i as usize] = true,
                        // Busy against another writer (or a registration
                        // racing in full-control mode) is legal; the claim
                        // must then leave no residue — checked at the end.
                        OpenDecision::Busy => {}
                        other => prop_assert!(false, "unexpected decision {other:?}"),
                    }
                }
                FrontOp::CloseWrite(i) => {
                    if writing[i as usize] {
                        server
                            .close_notify("/d/f.bin", 200 + i as u64, false, 4, clock.now_ms())
                            .unwrap();
                        writing[i as usize] = false;
                    }
                }
            }
        }
        // Release everything still open, as DLFS's close path would.
        for i in 0..6u8 {
            if writing[i as usize] {
                server.close_notify("/d/f.bin", 200 + i as u64, false, 4, clock.now_ms()).unwrap();
            }
            if registered[i as usize] {
                server.unregister_open("/d/f.bin", 100 + i as u64);
            }
        }
        let sync = server.repository().opens().entries("/d/f.bin");
        prop_assert!(sync.is_empty(), "leaked opener claims: {sync:?}");
        prop_assert_eq!(server.repository().db().state_id(), mark, "a grant or release was logged");
        // The file is fully releasable: unlink now succeeds.
        server.unlink_file(2, "/d/f.bin").unwrap();
        server.commit_host(2);
    }
}
