//! End-to-end coverage of the unified telemetry layer: the system-wide
//! metric registry (`DataLinksSystem::metrics` / `metrics_text`) must
//! expose live instruments from every layer of the stack, and the crash
//! flight recorder must keep the fenced decide span even in a tiny ring.
//! (The full dump a host crash mid-burst leaves behind is checked by
//! `tests/fault_matrix.rs`, `kill_host_mid_burst`.)

use dl_bench::{fixture, make_content, FixtureOptions, SRV};

/// One snapshot carries counters and histograms from all four layers —
/// host database, replication, DLFM, DLFS — plus the engine and the
/// interposed file system, and the text exposition renders them under
/// their flattened names.
#[test]
fn metrics_snapshot_spans_every_layer() {
    let f = fixture(FixtureOptions {
        n_files: 2,
        file_size: 512,
        replicas: 1,
        sync_archive: true,
        ..Default::default()
    });
    let content = make_content(512);
    f.managed_update(0, &content);
    f.managed_read(0);

    let snap = f.sys.metrics();
    // Counters from DLFM, DLFS, engine, fskit and repl layers.
    for name in [
        "dlfm.srv1.links",
        "dlfm.srv1.token_validations",
        "dlfm.srv1.rollbacks",
        "dlfm.srv1.updates_rolled_forward",
        "dlfs.srv1.managed_opens",
        "engine.links",
        "engine.tokens_generated",
        "fskit.srv1.opens",
        "repl.srv1.records_shipped",
        "system.failovers",
        "system.host_failovers",
    ] {
        assert!(snap.counters.contains_key(name), "missing counter {name}: {snap:?}");
    }
    assert!(snap.counters["dlfm.srv1.links"] >= 2, "both fixture files were linked");
    // The WAL's unforced-append instruments, adopted per database like
    // fsync_ns: the update's close record and the archiver's flag clear
    // skipped their log waits on the repository; the host, a pure
    // coordinator, forces everything.
    assert!(snap.counters["minidb.srv1.unforced_appends"] >= 2, "{snap:?}");
    assert_eq!(snap.counters["minidb.host.unforced_appends"], 0);
    for name in ["minidb.srv1.unflushed_bytes", "minidb.host.unflushed_bytes"] {
        assert!(snap.gauges.contains_key(name), "missing gauge {name}");
    }
    assert_eq!(snap.gauges["minidb.host.unflushed_bytes"], 0.0);
    // The two-flushes-in-flight counter is adopted per database too.
    for name in ["minidb.srv1.overlapped_flushes", "minidb.host.overlapped_flushes"] {
        assert!(snap.counters.contains_key(name), "missing counter {name}");
    }
    // And the flight recorder says so on the decide span of a voted
    // branch (the fixture's links): nobody waited on a log sync for it.
    let ring = f.sys.node(SRV).unwrap().server.flight_recorder().render("dlfm.srv1", "test");
    assert!(ring.contains("outcome=commit") && ring.contains("forced=false"), "{ring}");
    assert!(snap.counters["dlfs.srv1.managed_opens"] >= 1, "the managed read went through dlfs");
    // Histograms from the host database (2PC fsync path), the DLFM upcall
    // round trip and the engine's freshness machinery.
    for name in [
        "minidb.host.fsync_ns",
        "minidb.srv1.fsync_ns",
        "dlfm.srv1.upcall_round_trip_ns",
        "engine.freshness_wait_ns",
    ] {
        assert!(snap.histograms.contains_key(name), "missing histogram {name}");
    }
    assert!(snap.histograms["minidb.host.fsync_ns"].count > 0, "host commits fsynced");
    assert!(snap.histograms["dlfm.srv1.upcall_round_trip_ns"].count > 0, "upcalls were timed");
    // Pool gauges are refreshed at snapshot time (the PR 5 PoolStats seam).
    for name in ["dlfm.srv1.upcall_pool.workers", "pool.total_workers"] {
        assert!(snap.gauges.contains_key(name), "missing gauge {name}");
    }
    // Heads serving right now: every call has returned.
    assert_eq!(snap.gauges["pool.total_workers"], 0.0);
    // "Queued or served in place?" — in-process, every link and every
    // upcall ran on its caller's thread.
    for lane in ["upcall_pool", "agent_executor"] {
        let served = snap.gauges[&format!("dlfm.srv1.{lane}.caller_served")];
        assert!(served >= 2.0, "{lane}: {snap:?}");
        assert_eq!(served, snap.gauges[&format!("dlfm.srv1.{lane}.tasks")], "{lane}");
    }

    // The exposition is the same data under flattened names.
    let text = f.sys.metrics_text();
    assert!(text.contains("# TYPE dlfm_srv1_links counter"), "exposition:\n{text}");
    assert!(text.contains("minidb_host_fsync_ns{quantile=\"0.99\"}"), "exposition:\n{text}");
    assert!(text.contains("pool_total_workers"), "exposition:\n{text}");
}

/// The flight-recorder ring capacity is a `DlfmConfig` knob (PR 9). Even a
/// drastically undersized ring must still capture the span that matters
/// most at failover — the promoted coordinator's decide on the in-doubt
/// transaction — because the ring keeps the *most recent* events and the
/// decide is by construction the last thing that happens before the dump.
#[test]
fn undersized_flight_ring_still_captures_the_fenced_decide_span() {
    use std::sync::Arc;

    use datalinks::core::{DataLinksSystem, DlColumnOptions, FileServerSpec};
    use datalinks::dlfm::{AgentConnection, ControlMode, OnUnlink};
    use datalinks::fskit::{Cred, SimClock};
    use datalinks::minidb::{Column, ColumnType, Schema, Value};

    const APP: Cred = Cred { uid: 100, gid: 100 };
    let mut spec = FileServerSpec::new("srv");
    spec.dlfm = spec.dlfm.flight_ring(4);
    let mut sys = DataLinksSystem::builder()
        .clock(Arc::new(SimClock::new(1_000_000)))
        .host_replicas(1)
        .file_server_with(spec)
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
    sys.define_datalink_column("t", "body", DlColumnOptions::new(ControlMode::Rdd)).unwrap();

    // Enough committed links to overflow the 4-slot ring several times.
    for i in 0..6i64 {
        raw.write_file(&APP, &format!("/d/f{i}.bin"), b"seed").unwrap();
        let mut tx = sys.begin();
        tx.insert("t", vec![Value::Int(i), Value::DataLink(format!("dlfs://srv/d/f{i}.bin"))])
            .unwrap();
        tx.commit().unwrap();
    }

    // Stage the in-doubt transaction, then kill and fail over the host.
    raw.write_file(&APP, "/d/cand.bin", b"candidate").unwrap();
    let agent = sys.node("srv").unwrap().connect_agent();
    let tx = sys.begin();
    let txid = tx.id();
    agent.link(txid, "/d/cand.bin", ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
    std::mem::forget(tx);
    let report = sys.fail_over_host().unwrap();
    assert_eq!(report.in_doubt_resolved, vec![("srv".to_string(), txid, false)]);

    let dump = sys.last_flight_dump().expect("failover leaves a dump behind");
    let dlfm = dump
        .split("=== flight recorder ")
        .find(|s| s.starts_with("dlfm.srv"))
        .expect("the DLFM recorder section is present");
    // The header proves the ring was undersized and truncating...
    let header = dlfm.lines().next().unwrap();
    let retained: usize = header
        .split(", ")
        .nth(1)
        .and_then(|part| part.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("header lacks the retained count: {header}"));
    let recorded: usize = header
        .split(" retained of ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("header lacks the recorded count: {header}"));
    assert!(retained <= 4, "ring capacity must cap retention: {header}");
    assert!(recorded > 4, "the workload must have overflowed the ring: {header}");
    // ...and the retained window still holds the promotion's decide span.
    assert!(dlfm.contains("decide"), "undersized ring lost the decide span:\n{dlfm}");
    assert!(dlfm.contains("outcome="), "the decide must carry its outcome:\n{dlfm}");
}
