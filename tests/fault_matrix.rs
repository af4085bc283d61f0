//! The fault matrix: the paper's promises checked under concurrent load
//! and injected faults. A linked file and its row change atomically
//! (§4.2–4.3), acked links survive a crash (§4.4), a deposed coordinator
//! never decides, and a fresh read never goes stale. Each test drives the
//! mixed driver (`dl_bench::mixed::run`) over one topology and fault
//! plan, then gates the counts it returns. The seed pins the op stream:
//! op `g`'s kind and file are a function of `(seed, g)` alone.
//!
//! Every metric a test names must be emitted: [`metric`] panics on a
//! missing one, so a renamed counter fails the test instead of passing it.

use std::collections::BTreeMap;

use dl_bench::mixed::{run, Fault, Mix, ReadRoute};
use dl_bench::SRV;

type Metrics = BTreeMap<String, f64>;

/// The value of `name` in `m`; panics if the driver never emitted it.
fn metric(m: &Metrics, name: &str) -> f64 {
    *m.get(name).unwrap_or_else(|| panic!("metric {name:?} was not emitted"))
}

fn drive(mix: &Mix, faults: &[(u64, Fault)]) -> Metrics {
    run(mix, faults, None).expect("mixed run")
}

/// Routed reads across a primary failover, at 0, 1, 2 and 4 replicas:
/// each replicated run crashes its primary at op 20 and fails over, so
/// some reads are served by the promoted node. Every link survives, every
/// read returns bytes some writer wrote, and the standbys end caught up.
#[test]
fn a10_routed_reads_survive_a_primary_failover_at_every_replica_count() {
    let variants = [
        (0, 0xf035_cef3_16d5_5834),
        (1, 0xbcb5_7301_2f23_8987),
        (2, 0x20b7_25ef_c209_6bcc),
        (4, 0xb783_454e_8314_2c10),
    ];
    for (replicas, seed) in variants {
        let mix = Mix {
            clients: 4,
            ops: 10,
            file_size: 2048,
            read_route: ReadRoute::Routed,
            sync_latency_us: 100,
            replicas,
            seed,
            ..Default::default()
        };
        let faults = if replicas > 0 { vec![(20, Fault::CrashPrimary)] } else { vec![] };
        let m = drive(&mix, &faults);
        let at = format!("replicas {replicas}: {m:?}");
        assert!(metric(&m, "end_lag_drained") == 1.0, "{at}");
        assert!(metric(&m, "max_lag") == 0.0, "{at}");
        assert!(metric(&m, "read_mismatches") == 0.0, "{at}");
        assert!(metric(&m, "lost_acked_links") == 0.0, "{at}");
        assert!(metric(&m, "leftover_links") == 0.0, "{at}");
        assert!(metric(&m, "ops_failed") == 0.0, "{at}");
        if replicas >= 2 {
            // The crash point drained the ship lag: the promoted standby
            // applied every record, so its recovery re-derives nothing.
            assert!(metric(&m, "failover_files_relinked") == 0.0, "{at}");
            assert!(metric(&m, "failover_updates_rolled_forward") == 0.0, "{at}");
        }
    }
}

/// The upcall lane under an update burst (8- and 64-wide, 2 and 32
/// clients), and agent churn over the shared executor. A 1 ms device sync
/// parks heads in fsync, so the lane's width, not the core count, decides
/// how many serve at once: the 64-wide lane serves past 8 heads at 32
/// clients and leaves none serving once idle. The churn run opens one
/// agent connection per op, and the shared executor serves them on fewer
/// than 64 heads.
#[test]
fn a12_upcall_lane_width_and_agent_churn() {
    let burst = |clients, pool_max, seed| Mix {
        clients,
        ops: 10,
        file_size: 64,
        write_ratio: 1.0,
        sync_latency_us: 1000,
        pool_max: Some(pool_max),
        seed,
        ..Default::default()
    };
    let churn = Mix {
        clients: 32,
        ops: 10,
        file_size: 64,
        churn_ratio: 1.0,
        sync_latency_us: 1000,
        seed: 0x1898_db8c_4ba0_0540,
        ..Default::default()
    };
    let variants = [
        burst(2, 8, 0xc072_c2ad_d171_6e02),
        burst(32, 8, 0xa3b0_8fb5_81d0_5fa5),
        burst(2, 64, 0x10df_37ca_ca75_2658),
        burst(32, 64, 0xb48b_1a7a_1219_0fba),
        churn,
    ];
    for (i, mix) in variants.iter().enumerate() {
        let m = drive(mix, &[]);
        let at = format!("variant {i}: {m:?}");
        assert!(metric(&m, "dlfm_srv1_agent_executor_peak_workers") < 64.0, "{at}");
        match i {
            3 => {
                assert!(metric(&m, "peak_upcall_workers") > 8.0, "{at}");
                assert!(metric(&m, "settled_upcall_workers") <= 2.0, "{at}");
            }
            4 => assert!(metric(&m, "dlfm_srv1_agent_executor_connections") >= 256.0, "{at}"),
            _ => {}
        }
    }
}

/// The repository disk runs full mid churn burst (the next 6 writes fail
/// with ENOSPC), then frees up. An op the fault hits fails at its first
/// forced repository write, before its vote; no half-applied churn
/// survives, and the system keeps serving once the disk frees up.
#[test]
fn disk_fault() {
    let mix = Mix {
        clients: 4,
        ops: 16,
        churn_ratio: 0.5,
        file_size: 256,
        seed: 0x3e48_14d2_c4d3_3ebe,
        ..Default::default()
    };
    let m = drive(&mix, &[(24, Fault::DiskEnospc { writes: 6 })]);
    assert!(metric(&m, "enospc_hits") >= 1.0, "{m:?}");
    assert!(metric(&m, "ops_failed") >= 1.0, "{m:?}");
    assert!(metric(&m, "ops_failed") <= 6.0, "{m:?}");
    assert!(metric(&m, "leftover_links") == 0.0, "{m:?}");
    assert!(metric(&m, "stale_reads") == 0.0, "{m:?}");
    assert!(metric(&m, "end_lag_drained") == 1.0, "{m:?}");
    assert!(metric(&m, "read_mismatches") == 0.0, "{m:?}");
}

/// A torn host-WAL tail at a crash boundary, mid-burst: recovery shears
/// exactly the torn probe commit, keeps the one before it, and the
/// recovered stack serves the rest of the burst.
#[test]
fn host_wal_torn_tail() {
    let mix = Mix {
        clients: 2,
        ops: 8,
        write_ratio: 0.5,
        file_size: 256,
        seed: 0xc915_ace5_d0ee_b3a6,
        ..Default::default()
    };
    let m = drive(&mix, &[(8, Fault::TornHostWal)]);
    assert!(metric(&m, "torn_commits_lost") == 1.0, "{m:?}");
    assert!(metric(&m, "torn_pre_commit_survived") == 1.0, "{m:?}");
    assert!(metric(&m, "ops_failed") == 0.0, "{m:?}");
    assert!(metric(&m, "leftover_links") == 0.0, "{m:?}");
    assert!(metric(&m, "stale_reads") == 0.0, "{m:?}");
    assert!(metric(&m, "end_lag_drained") == 1.0, "{m:?}");
    assert!(metric(&m, "read_mismatches") == 0.0, "{m:?}");
}

/// Crash the host database mid mixed burst: the crash point drains host
/// ship lag, fences every DLFM node at the new coordinator generation,
/// serves replica-routed reads through the outage off pre-minted tokens,
/// then promotes a host standby, which resolves every in-doubt branch from
/// the replicated log. No acked link is lost or applied twice. The
/// promotion's flight dump lands on disk and carries the cross-layer 2PC
/// span trail: host DML, DLFM claims, the raised fence and the promoted
/// coordinator's fenced decides.
#[test]
fn kill_host_mid_burst() {
    let dump_dir = std::env::temp_dir().join(format!("dl-flight-test-{}", std::process::id()));
    std::fs::create_dir_all(&dump_dir).expect("create dump dir");
    let mix = Mix {
        clients: 4,
        ops: 12,
        write_ratio: 0.4,
        churn_ratio: 0.2,
        replicas: 2,
        host_replicas: 2,
        file_size: 512,
        seed: 0xfada_c372_6b8e_0d62,
        ..Default::default()
    };
    let m = run(&mix, &[(24, Fault::CrashHost)], Some(&dump_dir));
    let mut dumps = Vec::new();
    for entry in std::fs::read_dir(&dump_dir).expect("dump dir readable") {
        let path = entry.expect("dir entry").path();
        dumps.push(std::fs::read_to_string(&path).expect("dump readable"));
    }
    let _ = std::fs::remove_dir_all(&dump_dir);
    let m = m.expect("mixed run");
    assert!(metric(&m, "host_failovers") == 1.0, "{m:?}");
    assert!(metric(&m, "in_doubt_resolved") >= 1.0, "{m:?}");
    assert!(metric(&m, "lost_acked_links") == 0.0, "{m:?}");
    assert!(metric(&m, "outage_reads_ok") >= 4.0, "{m:?}");
    assert!(metric(&m, "ops_failed") == 0.0, "{m:?}");
    assert!(metric(&m, "leftover_links") == 0.0, "{m:?}");
    assert!(metric(&m, "end_lag_drained") == 1.0, "{m:?}");
    assert!(metric(&m, "host_failover_ms") <= 5000.0, "{m:?}");
    assert!(metric(&m, "lab_flight_fence_raise_events") >= 1.0, "{m:?}");
    assert!(metric(&m, "lab_flight_decide_events") >= 1.0, "{m:?}");
    assert!(metric(&m, "read_mismatches") == 0.0, "{m:?}");

    let promo = dumps
        .iter()
        .find(|d| d.contains("reason: fail_over_host"))
        .expect("the host-failover dump is written at promotion");
    assert!(promo.contains("=== flight recorder engine.host"), "dump:\n{promo}");
    assert!(promo.contains(&format!("=== flight recorder dlfm.{SRV}")), "dump:\n{promo}");
    for needle in ["dml", "claim", "fence_raise", "decide", "outcome="] {
        assert!(promo.contains(needle), "dump lacks {needle:?}:\n{promo}");
    }
    // The decides carry the coordinator generation they were fenced
    // against.
    assert!(promo.contains("fence="), "decides must carry the fence epoch:\n{promo}");
}

/// Crash the primary DLFM mid write burst and fail over to a hot standby:
/// every link acknowledged before the crash survives with its version.
/// Writers own disjoint files, so an acked version is authoritative until
/// its owner overwrites it.
#[test]
fn kill_primary_mid_burst() {
    let mix = Mix {
        clients: 4,
        ops: 12,
        write_ratio: 0.5,
        replicas: 2,
        file_size: 512,
        seed: 0x0012_19c7_0ad4_b3c5,
        ..Default::default()
    };
    let m = drive(&mix, &[(24, Fault::CrashPrimary)]);
    assert!(metric(&m, "failovers") == 1.0, "{m:?}");
    assert!(metric(&m, "lost_acked_links") == 0.0, "{m:?}");
    assert!(metric(&m, "failover_files_relinked") == 0.0, "{m:?}");
    assert!(metric(&m, "failover_updates_rolled_forward") == 0.0, "{m:?}");
    assert!(metric(&m, "ops_failed") == 0.0, "{m:?}");
    assert!(metric(&m, "end_lag_drained") == 1.0, "{m:?}");
    assert!(metric(&m, "failover_ms") <= 5000.0, "{m:?}");
    assert!(metric(&m, "read_mismatches") == 0.0, "{m:?}");
}

/// A link/unlink ingest storm: every op is a full link → commit → unlink →
/// commit cycle on a fresh file over its own agent connection. No link is
/// left behind, and the shared agent executor serves all 80 connections
/// on fewer than 64 heads. (Churn never enters the upcall lane, so
/// `max_os_threads` — the lane's peak — reads 0 here; the executor's own
/// gauges are the gate the storm means.)
#[test]
fn link_churn_storm() {
    let mix = Mix {
        clients: 8,
        ops: 10,
        churn_ratio: 1.0,
        file_size: 256,
        pool_max: Some(64),
        seed: 0x07f5_58fa_a560_3c98,
        ..Default::default()
    };
    let m = drive(&mix, &[]);
    assert!(metric(&m, "leftover_links") == 0.0, "{m:?}");
    assert!(metric(&m, "ops_failed") == 0.0, "{m:?}");
    assert!(metric(&m, "max_os_threads") < 64.0, "{m:?}");
    assert!(metric(&m, "dlfm_srv1_agent_executor_peak_workers") < 64.0, "{m:?}");
    assert!(metric(&m, "dlfm_srv1_agent_executor_connections") >= 80.0, "{m:?}");
}

/// The fault matrix on the sharded namespace: two DLFM shards behind one
/// logical server, each with a hot standby. Crash the first shard's
/// primary mid-burst while the other keeps serving, then panic exactly two
/// upcall workers; containment fails exactly those two ops. The per-shard
/// instruments are summed across the `<srv>.s<i>` nodes, so a panic on one
/// shard cannot hide.
#[test]
fn sharded_fault_matrix() {
    let mix = Mix {
        clients: 4,
        ops: 12,
        shards: 2,
        replicas: 1,
        write_ratio: 0.4,
        churn_ratio: 0.2,
        file_size: 256,
        seed: 0x4e9a_cb03_9a26_516e,
        ..Default::default()
    };
    let m = drive(&mix, &[(24, Fault::CrashPrimary), (40, Fault::KillUpcallWorkers { count: 2 })]);
    assert!(metric(&m, "failovers") == 1.0, "{m:?}");
    assert!(metric(&m, "lost_acked_links") == 0.0, "{m:?}");
    assert!(metric(&m, "worker_panics") == 2.0, "{m:?}");
    assert!(metric(&m, "ops_failed") == 2.0, "{m:?}");
    assert!(metric(&m, "leftover_links") == 0.0, "{m:?}");
    assert!(metric(&m, "end_lag_drained") == 1.0, "{m:?}");
    assert!(metric(&m, "read_mismatches") == 0.0, "{m:?}");
}

/// A stalled standby under freshness-token reads: every read captures its
/// file's acked version before taking the token, and while the standby
/// lags the engine reroutes token-gated reads to the primary instead of
/// serving stale bytes, then drains the lag once shipping resumes.
#[test]
fn slow_standby_freshness() {
    let mix = Mix {
        clients: 2,
        ops: 20,
        write_ratio: 0.4,
        replicas: 1,
        file_size: 256,
        read_route: ReadRoute::Fresh,
        sync_latency_us: 50,
        seed: 0xd4cd_8954_b234_bbdf,
        ..Default::default()
    };
    let m = drive(&mix, &[(12, Fault::StallStandby), (44, Fault::ResumeStandby)]);
    assert!(metric(&m, "stale_reads") == 0.0, "{m:?}");
    assert!(metric(&m, "ops_failed") == 0.0, "{m:?}");
    assert!(metric(&m, "freshness_fallbacks") >= 1.0, "{m:?}");
    assert!(metric(&m, "end_lag_drained") == 1.0, "{m:?}");
    assert!(metric(&m, "read_mismatches") == 0.0, "{m:?}");
}

/// Gates read straight off the exported registry, under the names of the
/// text exposition: a healthy run refuses no decision from a deposed
/// coordinator, resolves every freshness wait well inside the 30 ms
/// routing window, ships records and forces the host log, and counts
/// every op it drove (2 clients × 16) in the per-op latency histogram.
#[test]
fn telemetry_gate() {
    let mix = Mix {
        clients: 2,
        ops: 16,
        write_ratio: 0.3,
        replicas: 1,
        read_route: ReadRoute::Fresh,
        file_size: 256,
        seed: 0xa8e8_5d2d_ac81_58e7,
        ..Default::default()
    };
    let m = drive(&mix, &[]);
    assert!(metric(&m, "dlfm_srv1_stale_coord_rejections") == 0.0, "{m:?}");
    assert!(metric(&m, "engine_freshness_wait_ns_p99") <= 30_000_000.0, "{m:?}");
    assert!(metric(&m, "repl_srv1_records_shipped") >= 1.0, "{m:?}");
    assert!(metric(&m, "minidb_host_fsync_ns_count") >= 1.0, "{m:?}");
    assert!(metric(&m, "lab_op_latency_ns_count") >= 32.0, "{m:?}");
    assert!(metric(&m, "op_p99_ms") > 0.0, "{m:?}");
    assert!(metric(&m, "ops_failed") == 0.0, "{m:?}");
    assert!(metric(&m, "stale_reads") == 0.0, "{m:?}");
    assert!(metric(&m, "read_mismatches") == 0.0, "{m:?}");
}

/// Upcall workers killed mid-run: each armed kill panics one admission
/// upcall on the thread serving it, containment turns the panic into a
/// `Rejected` reply, so exactly that op fails and the thread and the
/// daemon live. A read-only workload: the only failures are the injected
/// ones.
#[test]
fn worker_panic_storm() {
    let mix = Mix {
        clients: 4,
        ops: 16,
        file_size: 256,
        pool_max: Some(8),
        seed: 0xfdf3_898d_cfaa_4f9a,
        ..Default::default()
    };
    let m = drive(&mix, &[(40, Fault::KillUpcallWorkers { count: 3 })]);
    assert!(metric(&m, "worker_panics") == 3.0, "{m:?}");
    assert!(metric(&m, "ops_failed") == 3.0, "{m:?}");
    assert!(metric(&m, "end_lag_drained") == 1.0, "{m:?}");
    assert!(metric(&m, "read_mismatches") == 0.0, "{m:?}");
}
