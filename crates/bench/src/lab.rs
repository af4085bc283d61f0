//! The scenario-lab engine: drives `dl-lab` trial plans against a live
//! [`DataLinksSystem`] and renders the results through the same
//! [`Table`] / `BENCH_<id>.json` pipeline as the `report` binary.
//!
//! A scenario's [`Kind`] selects the engine loop:
//!
//! * [`Kind::CommitThroughput`] — the a9 sweep: bare-DB vs full-stack
//!   commit rate, per-commit sync vs group commit, one variant per
//!   committer count.
//! * [`Kind::Replication`] — the a10 sweep: routed reads vs replica
//!   count, lag drain, failover with link-state preservation.
//! * [`Kind::CheckpointShipping`] — the a11 arms: WAL retention budgets
//!   and fresh-standby delta catch-up.
//! * [`Kind::FrontEnd`] — the a12 arms: upcall bursts through a narrow
//!   and a wide upcall lane, and agent churn over the shared executor.
//! * [`Kind::Mixed`] — the generic client-mix loop with fault-injection
//!   points (crash the primary at op N, stall/resume a standby, kill
//!   upcall workers, exhaust the repository or host disk, shear the host
//!   WAL tail at a crash boundary).
//! * [`Kind::Sharding`] — the a13 sweep: write-cycle throughput vs shard
//!   count through the sharded DLFM front, fan-out proven off the
//!   per-shard registry counters.
//! * [`Kind::WireFrontEnd`] — the a14 arms: connection-scale churn over
//!   real Unix sockets (`Transport::Socket`), with a `sever_connections`
//!   injection cutting live connections mid-2PC; the in-doubt claims must
//!   resolve by presumed abort with zero atomicity violations, proven off
//!   the `net.*` registry instruments.
//!
//! Everything the old bespoke a9–a12 runners *asserted* is emitted here
//! as a named **metric**; the acceptance thresholds live in the scenario
//! file's `"assert"` list ([`check_asserts`]) — the lab's only gate. Row
//! labels come verbatim from the scenario's variant labels.
//!
//! Metric aggregation across `variant × repeat` trials: counter-like
//! metrics (`ops_failed`, `failovers`, `stale_reads`, ...) are summed,
//! gauge-like metrics (`failover_ms`, `max_os_threads`, ...) take the
//! max, and invariant flags (`lag_drained`, `links_preserved`, ...) take
//! the min — one bad trial fails the predicate.
//!
//! The mixed engine additionally captures the system's telemetry snapshot
//! ([`DataLinksSystem::metrics`]) at the end of every trial. Snapshots
//! merge across trials ([`Snapshot::merge`]: counters add, gauges keep
//! the max, histograms merge bucket-wise) and flatten into the same
//! metric map ([`Snapshot::flatten`]), so a scenario predicate can name
//! any exported registry metric — `dlfm_srv1_stale_coord_rejections`,
//! `engine_freshness_wait_ns_p99`, `repl_srv1_records_shipped`, ... —
//! exactly as it appears in the text exposition. Per-op latency rides the
//! same pipe as the `lab.op_latency_ns` histogram, surfaced as
//! `op_p50_ms` / `op_p99_ms` / `op_mean_ms` beside the mean-rate columns.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dl_core::{
    ControlMode, DataLinksSystem, DlColumnOptions, FileServerSpec, ShardRouter, TokenKind,
};
use dl_dlfm::{AgentConnection, DlfmClient, FaultInjector, Message, Transport};
use dl_fskit::{Cred, OpenOptions};
use dl_lab::{expand, InjectAction, Kind, LabRng, Params, Plan, ReadRoute, Scenario, TrialSpec};
use dl_minidb::{Column, ColumnType, Database, DbOptions, Schema, StorageEnv, Value, WalOptions};
use dl_obs::{Histogram, HistogramSnapshot, Snapshot};

use crate::experiments::Table;
use crate::{
    fixture, fixture_with_faults, fmt_ns, make_content, run_threads, time_once, Fixture,
    FixtureOptions, APP, SRV, TABLE,
};

/// One executed scenario: the printable/comparable table plus the metric
/// map its predicates are evaluated against.
pub struct ScenarioRun {
    pub table: Table,
    pub metrics: BTreeMap<String, f64>,
}

/// The outcome of one scenario-declared assertion.
pub struct AssertOutcome {
    /// `metric op value`, plus the measured value (or why it's missing).
    pub text: String,
    pub pass: bool,
}

/// Expands the scenario into its trial plan and drives every trial
/// through the kind's engine loop. The systems a fault scenario (`mixed`)
/// builds also write their flight-recorder dumps into `flight_dump_dir`.
pub fn run_scenario(
    sc: &Scenario,
    quick: bool,
    flight_dump_dir: Option<&Path>,
) -> Result<ScenarioRun, String> {
    let plan = expand(sc, quick).map_err(|e| e.to_string())?;
    let mut run = match sc.kind {
        Kind::CommitThroughput => commit_throughput(sc, &plan),
        Kind::Replication => replication(sc, &plan),
        Kind::CheckpointShipping => checkpoint_shipping(sc, &plan),
        Kind::FrontEnd => front_end(sc, &plan),
        Kind::Mixed => mixed(sc, &plan, flight_dump_dir),
        Kind::Sharding => sharding(sc, &plan),
        Kind::WireFrontEnd => wire_front_end(sc, &plan),
    }?;
    if let Some(title) = &sc.title {
        run.table.title = title.clone();
    }
    run.table.notes.extend(sc.notes.iter().cloned());
    Ok(run)
}

/// Evaluates the scenario's declared predicates against the metric map.
/// A predicate naming a metric the driver never emitted **fails** — a
/// typo must not read as a pass.
pub fn check_asserts(sc: &Scenario, metrics: &BTreeMap<String, f64>) -> Vec<AssertOutcome> {
    sc.asserts
        .iter()
        .map(|p| match metrics.get(&p.metric) {
            Some(&m) => AssertOutcome { text: format!("{p}  (measured {m})"), pass: p.holds(m) },
            None => AssertOutcome {
                text: format!(
                    "{p}  (metric {:?} was not emitted; known metrics: {})",
                    p.metric,
                    metrics.keys().cloned().collect::<Vec<_>>().join(", ")
                ),
                pass: false,
            },
        })
        .collect()
}

fn s(x: impl ToString) -> String {
    x.to_string()
}

fn need(sc: &Scenario, t: &TrialSpec, knob: &str, v: Option<u64>) -> Result<u64, String> {
    v.ok_or_else(|| {
        format!(
            "scenario {} ({}): variant {:?} is missing the {knob:?} knob its {} driver needs",
            sc.name,
            sc.file,
            t.variant,
            sc.kind.as_str()
        )
    })
}

/// The plan's trials, grouped per variant (expansion is variant-major).
fn per_variant(sc: &Scenario, plan: &Plan) -> Vec<Vec<TrialSpec>> {
    plan.trials.chunks(sc.repeats.max(1) as usize).map(|c| c.to_vec()).collect()
}

// ===========================================================================
// commit_throughput — the a9 engine loop
// ===========================================================================

/// Committed txns/sec of the bare database: `threads` committers each run
/// `commits` single-row insert transactions against a WAL device with the
/// given deterministic sync latency.
fn bare_db_commit_rate(
    threads: usize,
    commits: usize,
    sync_latency_ns: u64,
    wal: WalOptions,
) -> f64 {
    let env = StorageEnv::mem_with_sync_latency(sync_latency_ns);
    let db = Database::open_with(env, DbOptions { wal, ..Default::default() }).expect("db");
    db.create_table(
        Schema::new(
            "t",
            vec![Column::new("id", ColumnType::Int), Column::new("v", ColumnType::Int)],
            "id",
        )
        .expect("schema"),
    )
    .expect("create table");
    let elapsed = run_threads(threads, |t| {
        for k in 0..commits {
            let mut tx = db.begin();
            tx.insert("t", vec![Value::Int((t * commits + k) as i64), Value::Int(1)])
                .expect("insert");
            tx.commit().expect("commit");
        }
    });
    assert_eq!(db.count("t").expect("count"), threads * commits);
    (threads * commits) as f64 / elapsed.as_secs_f64()
}

/// One timed burst of update cycles against `f`: `threads` x `cycles`,
/// every thread rewriting its own linked file with `size` bytes (write
/// token → write open → write → close-as-commit). Records each cycle's
/// latency into `lat` when given; returns cycles/sec.
fn update_cycle_rate(
    f: &Fixture,
    threads: usize,
    cycles: usize,
    size: usize,
    lat: Option<&Histogram>,
) -> f64 {
    let content = make_content(size);
    let elapsed = run_threads(threads, |t| {
        for _ in 0..cycles {
            let started = Instant::now();
            f.managed_update_no_wait(t, &content);
            if let Some(lat) = lat {
                lat.record_duration(started.elapsed());
            }
        }
    });
    (threads * cycles) as f64 / elapsed.as_secs_f64()
}

/// Committed open/write/close cycles/sec through the full DataLinks stack:
/// every cycle drives several repository transactions plus the 2PC host
/// commit, all over WAL devices with the given sync latency.
fn stack_commit_rate(threads: usize, cycles: usize, sync_latency_ns: u64, wal: WalOptions) -> f64 {
    let f = fixture(FixtureOptions {
        n_files: threads,
        file_size: 1024,
        sync_archive: true,
        db: DbOptions { wal, ..Default::default() },
        db_sync_latency_ns: sync_latency_ns,
        ..Default::default()
    });
    update_cycle_rate(&f, threads, cycles, 1024, None)
}

fn commit_throughput(sc: &Scenario, plan: &Plan) -> Result<ScenarioRun, String> {
    let per_commit = WalOptions::per_commit_sync();
    let mut rows = Vec::new();
    let mut metrics = BTreeMap::new();
    let p0 = &plan.trials[0].params;
    let (mut title_commits, mut title_cycles) = (0u64, 0u64);
    let title_sync = p0.sync_latency_us.unwrap_or(0);
    for trials in per_variant(sc, plan) {
        let t0 = &trials[0];
        let p = &t0.params;
        let threads = need(sc, t0, "threads", p.threads)? as usize;
        let commits = need(sc, t0, "commits", p.commits)? as usize;
        let cycles = need(sc, t0, "cycles", p.cycles)? as usize;
        let sync_ns = p.sync_latency_us.unwrap_or(0) * 1000;
        (title_commits, title_cycles) = (commits as u64, cycles as u64);
        // The group arm self-tunes its gather window to the committer
        // count (`WalOptions::tuned_for`): zero delay at one or two
        // committers (two overlap their syncs instead of gathering), a
        // bounded window once followers exist to collect.
        let grouped = WalOptions::tuned_for(threads);
        let (mut bare_per, mut bare_grp, mut stack_per, mut stack_grp) = (0.0, 0.0, 0.0, 0.0);
        for _ in &trials {
            bare_per += bare_db_commit_rate(threads, commits, sync_ns, per_commit);
            bare_grp += bare_db_commit_rate(threads, commits, sync_ns, grouped);
            stack_per += stack_commit_rate(threads, cycles, sync_ns, per_commit);
            stack_grp += stack_commit_rate(threads, cycles, sync_ns, grouped);
        }
        let n = trials.len() as f64;
        let (bare_per, bare_grp) = (bare_per / n, bare_grp / n);
        let (stack_per, stack_grp) = (stack_per / n, stack_grp / n);
        metrics.insert(format!("bare_speedup_t{threads}"), bare_grp / bare_per);
        metrics.insert(format!("stack_speedup_t{threads}"), stack_grp / stack_per);
        rows.push(vec![
            t0.variant.clone(),
            s(format!("{bare_per:.0}")),
            s(format!("{bare_grp:.0}")),
            s(format!("{:.2}x", bare_grp / bare_per)),
            s(format!("{stack_per:.0}")),
            s(format!("{stack_grp:.0}")),
            s(format!("{:.2}x", stack_grp / stack_per)),
        ]);
    }
    metrics.insert("variants".into(), rows.len() as f64);
    Ok(ScenarioRun {
        table: Table {
            id: sc.name.clone(),
            title: format!(
                "commit throughput, per-commit sync vs group commit \
                 ({title_commits} txns/thread bare, {title_cycles} cycles/thread stack, \
                 {title_sync} µs device sync)"
            ),
            header: vec![
                s("threads"),
                s("bare DB commit-sync tx/s"),
                s("bare DB group tx/s"),
                s("bare speedup"),
                s("stack commit-sync cyc/s"),
                s("stack group cyc/s"),
                s("stack speedup"),
            ],
            rows,
            notes: Vec::new(),
        },
        metrics,
    })
}

// ===========================================================================
// replication — the a10 engine loop
// ===========================================================================

fn link_state(sys: &DataLinksSystem, nodes: &[String]) -> Vec<(String, u64)> {
    let mut files: Vec<(String, u64)> = nodes
        .iter()
        .flat_map(|n| sys.node(n).expect("node").server.repository().list_files())
        .map(|e| (e.path, e.cur_version))
        .collect();
    files.sort();
    files
}

fn replication(sc: &Scenario, plan: &Plan) -> Result<ScenarioRun, String> {
    let mut rows = Vec::new();
    let mut metrics = BTreeMap::new();
    let mut baseline_rate = 0.0f64;
    let mut speedup_max = 0.0f64;
    let mut lag_drained = 1.0f64;
    let mut max_lag = 0u64;
    let mut links_preserved = 1.0f64;
    let mut failover_ms = 0.0f64;
    let mut read_lat_all = HistogramSnapshot::default();
    let read_mismatches = AtomicU64::new(0);
    let p0 = &plan.trials[0].params;
    let (title_readers, title_reads, title_sync) =
        (p0.readers.unwrap_or(8), p0.reads_per.unwrap_or(40), p0.sync_latency_us.unwrap_or(0));
    for trials in per_variant(sc, plan) {
        let t0 = &trials[0];
        let p = &t0.params;
        let replicas = need(sc, t0, "replicas", p.replicas)? as usize;
        let readers = need(sc, t0, "readers", p.readers)? as usize;
        let reads_per = need(sc, t0, "reads_per", p.reads_per)? as usize;
        let n_files = p.n_files.unwrap_or(4) as usize;
        let file_size = p.file_size.unwrap_or(2048) as usize;
        let sync_ns = p.sync_latency_us.unwrap_or(0) * 1000;
        let content = make_content(file_size);
        let (mut rate_sum, mut drain_sum, mut failover_sum) = (0.0f64, 0.0f64, 0.0f64);
        let mut failover_cells = (s("--"), s("--"));
        let read_lat = Histogram::new();
        for _ in &trials {
            let f = fixture(FixtureOptions {
                n_files,
                file_size,
                replicas,
                sync_archive: true,
                db_sync_latency_ns: sync_ns,
                ..Default::default()
            });
            // One committed update per file so every replica archive holds
            // the current version's bytes.
            for i in 0..n_files {
                f.managed_update(i, &content);
            }

            // Replication lag after the write burst must drain to zero.
            let mut drained = false;
            let drain = time_once(|| {
                drained = f
                    .sys
                    .wait_replicas_caught_up(SRV, Duration::from_secs(30))
                    .expect("known server");
            });
            if !drained {
                lag_drained = 0.0;
            }
            max_lag = max_lag.max(f.sys.replication_lag(SRV).expect("lag"));

            // Routed reads: token validation + last-committed bytes, spread
            // round-robin over the standbys (all on the primary at 0
            // replicas).
            let elapsed = run_threads(readers, |t| {
                for k in 0..reads_per {
                    let i = (t + k) % n_files;
                    let tp = f.token_path(i, TokenKind::Read);
                    let started = Instant::now();
                    match f.sys.serve_read(SRV, &tp, APP.uid) {
                        Ok(data) if data == content => {}
                        _ => {
                            read_mismatches.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    read_lat.record_duration(started.elapsed());
                }
            });
            rate_sum += (readers * reads_per) as f64 / elapsed.as_secs_f64();
            drain_sum += drain.as_nanos() as f64;

            // Failover: promote a standby and check the link state survived.
            if replicas > 0 {
                let Fixture { mut sys, .. } = f;
                let before = link_state(&sys, &[SRV.to_string()]);
                let failover = time_once(|| {
                    sys.fail_over(SRV).expect("failover");
                });
                let after = link_state(&sys, &[SRV.to_string()]);
                let preserved = before == after;
                if !preserved {
                    links_preserved = 0.0;
                }
                // The promoted node serves the same committed bytes.
                let (_, tp) = sys
                    .select_datalink(TABLE, &Value::Int(0), "body", TokenKind::Read)
                    .expect("select after failover");
                match sys.serve_read(SRV, &tp, APP.uid) {
                    Ok(data) if data == content => {}
                    _ => {
                        read_mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                }
                failover_sum += failover.as_nanos() as f64;
                failover_ms = failover_ms.max(failover.as_nanos() as f64 / 1e6);
                failover_cells = (fmt_ns(failover.as_nanos() as f64), s(preserved));
            }
        }
        let n = trials.len() as f64;
        let rate = rate_sum / n;
        if rows.is_empty() {
            baseline_rate = rate;
        }
        speedup_max = speedup_max.max(rate / baseline_rate);
        if replicas > 0 {
            failover_cells.0 = fmt_ns(failover_sum / n);
        }
        let vlat = read_lat.snapshot();
        read_lat_all.merge(&vlat);
        rows.push(vec![
            t0.variant.clone(),
            s(format!("{rate:.0}")),
            s(format!("{:.2}x", rate / baseline_rate)),
            fmt_ns(vlat.percentile(0.99) as f64),
            fmt_ns(drain_sum / n),
            failover_cells.0,
            failover_cells.1,
        ]);
    }
    metrics.insert("read_p99_ms".into(), read_lat_all.percentile(0.99) as f64 / 1e6);
    metrics.insert("read_mean_ms".into(), read_lat_all.mean() / 1e6);
    metrics.insert("lag_drained".into(), lag_drained);
    metrics.insert("max_lag".into(), max_lag as f64);
    metrics.insert("read_mismatches".into(), read_mismatches.into_inner() as f64);
    metrics.insert("links_preserved".into(), links_preserved);
    metrics.insert("failover_ms".into(), failover_ms);
    metrics.insert("speedup_max".into(), speedup_max);
    Ok(ScenarioRun {
        table: Table {
            id: sc.name.clone(),
            title: format!(
                "WAL-shipping replication: routed reads vs replica count \
                 ({title_readers} readers x {title_reads} reads, {title_sync} µs device sync)"
            ),
            header: vec![
                s("replicas"),
                s("validated reads/s"),
                s("speedup vs primary-only"),
                s("read p99"),
                s("lag drain"),
                s("failover"),
                s("links preserved"),
            ],
            rows,
            notes: Vec::new(),
        },
        metrics,
    })
}

// ===========================================================================
// checkpoint_shipping — the a11 engine loop
// ===========================================================================

/// A primary database shaped like a DLFM repository workload: `rows` hot
/// rows, updated round-robin with ~130-byte payloads. In this engine's
/// scenario contract `budget == 0` means *unbounded* (the full-replay
/// arms need the log intact), which since the self-tuning default maps
/// to [`DbOptions::NO_AUTO_CHECKPOINT`].
fn ckpt_primary(rows: usize, budget: u64, sync_latency_ns: u64) -> Database {
    let env = if sync_latency_ns > 0 {
        StorageEnv::mem_with_sync_latency(sync_latency_ns)
    } else {
        StorageEnv::mem()
    };
    let budget = if budget == 0 { DbOptions::NO_AUTO_CHECKPOINT } else { budget };
    let db = Database::open_with(
        env,
        DbOptions { checkpoint_every_bytes: budget, ..Default::default() },
    )
    .expect("db");
    db.create_table(
        Schema::new(
            "t",
            vec![Column::new("id", ColumnType::Int), Column::new("v", ColumnType::Text)],
            "id",
        )
        .expect("schema"),
    )
    .expect("create table");
    let mut tx = db.begin();
    for i in 0..rows {
        tx.insert("t", vec![Value::Int(i as i64), Value::Text("seed".into())]).expect("seed");
    }
    tx.commit().expect("seed commit");
    db
}

fn ckpt_updates(db: &Database, rows: usize, updates: usize) {
    for u in 0..updates {
        let id = (u % rows) as i64;
        let mut tx = db.begin();
        tx.update("t", &Value::Int(id), vec![Value::Int(id), Value::Text(format!("{u:0>120}"))])
            .expect("update");
        tx.commit().expect("commit");
    }
}

/// One fresh follower + ship daemon over `db`'s feed — this kind measures
/// the storage layer, so no DLFM standby around it.
fn ckpt_standby(
    db: &Database,
) -> (Arc<dl_repl::Follower>, dl_repl::Replicator, Arc<dl_repl::ReplStats>) {
    let fence = Arc::new(dl_repl::EpochFence::new());
    let stats = Arc::new(dl_repl::ReplStats::default());
    let feed = db.replication_feed();
    let standby = Arc::new(
        dl_repl::Follower::new(
            "lab#0".into(),
            StorageEnv::mem(),
            feed.db_options(),
            fence,
            Arc::clone(&stats),
        )
        .expect("standby"),
    );
    let repl =
        dl_repl::Replicator::spawn("lab", feed, vec![Arc::clone(&standby)], 0, Arc::clone(&stats));
    (standby, repl, stats)
}

fn checkpoint_shipping(sc: &Scenario, plan: &Plan) -> Result<ScenarioRun, String> {
    const ROWS: usize = 64;
    let mut rows_out: Vec<Vec<String>> = Vec::new();
    let mut metrics = BTreeMap::new();
    let mut lag_drained = 1.0f64;
    let mut catchup_exact = 1.0f64;
    let mut unbounded_retained: Option<u64> = None;
    let mut full_records: Option<u64> = None;
    let p0 = &plan.trials[0].params;
    let (title_updates, title_sync) = (p0.updates.unwrap_or(400), p0.sync_latency_us.unwrap_or(0));
    let mut title_budget = 0u64;
    for trials in per_variant(sc, plan) {
        let t0 = &trials[0];
        let p = &t0.params;
        let updates = need(sc, t0, "updates", p.updates)? as usize;
        let sync_ns = p.sync_latency_us.unwrap_or(0) * 1000;
        match p.delta {
            // --- sustained load: budget off vs on ---------------------------
            None => {
                let budget = p.budget.unwrap_or(0);
                title_budget = title_budget.max(budget);
                let mut cells = Vec::new();
                for _ in &trials {
                    let db = ckpt_primary(ROWS, budget, sync_ns);
                    let (standby, repl, stats) = ckpt_standby(&db);
                    ckpt_updates(&db, ROWS, updates);
                    if !repl.wait_caught_up(Duration::from_secs(30)) {
                        lag_drained = 0.0;
                    }
                    let primary_wal = db.wal_retained_bytes();
                    let standby_wal = standby.wal_retained_bytes();
                    if budget == 0 {
                        unbounded_retained = Some(primary_wal);
                    } else {
                        // The retention claim: the budget bounds BOTH logs
                        // under sustained load (trigger slack: one commit
                        // past the budget, plus the Checkpoint record).
                        metrics.insert("budget_primary_wal_bytes".into(), primary_wal as f64);
                        metrics.insert("budget_standby_wal_bytes".into(), standby_wal as f64);
                        if let Some(unbounded) = unbounded_retained {
                            metrics.insert(
                                "budget_vs_unbounded".into(),
                                primary_wal as f64 / unbounded as f64,
                            );
                        }
                    }
                    cells = vec![
                        t0.variant.clone(),
                        s(primary_wal),
                        s(standby_wal),
                        s(stats.checkpoints_shipped()),
                        s(stats.records_shipped()),
                        s("--"),
                    ];
                }
                rows_out.push(cells);
            }
            // --- fresh-standby catch-up: full replay vs delta ---------------
            Some(delta) => {
                let mut cells = Vec::new();
                let mut catch_up_sum = 0.0f64;
                for _ in &trials {
                    let db = ckpt_primary(ROWS, 0, sync_ns);
                    ckpt_updates(&db, ROWS, updates);
                    if delta {
                        db.checkpoint_and_truncate().expect("checkpoint");
                    }
                    let (standby, repl, stats) = ckpt_standby(&db);
                    let catch_up = time_once(|| {
                        if !repl.wait_caught_up(Duration::from_secs(30)) {
                            lag_drained = 0.0;
                        }
                    });
                    catch_up_sum += catch_up.as_nanos() as f64;
                    if standby.applied_lsn() != db.durable_lsn() {
                        catchup_exact = 0.0;
                    }
                    if delta {
                        metrics.insert(
                            "delta_checkpoint_installs".into(),
                            stats.checkpoints_shipped() as f64,
                        );
                        if let Some(full) = full_records {
                            // The headline claim: delta catch-up ships a
                            // small constant suffix, not the whole history.
                            metrics.insert(
                                "delta_records_ratio".into(),
                                stats.records_shipped() as f64 / full as f64,
                            );
                        }
                    } else {
                        full_records = Some(stats.records_shipped());
                    }
                    cells = vec![
                        t0.variant.clone(),
                        s(db.wal_retained_bytes()),
                        s(standby.wal_retained_bytes()),
                        s(stats.checkpoints_shipped()),
                        s(stats.records_shipped()),
                        fmt_ns(catch_up_sum / trials.len() as f64),
                    ];
                }
                rows_out.push(cells);
            }
        }
    }
    metrics.insert("lag_drained".into(), lag_drained);
    metrics.insert("catchup_exact".into(), catchup_exact);
    Ok(ScenarioRun {
        table: Table {
            id: sc.name.clone(),
            title: format!(
                "checkpoint shipping: WAL bounds and delta catch-up \
                 ({title_updates} updates over {ROWS} rows, {title_sync} µs device sync, \
                 {title_budget} B budget)"
            ),
            header: vec![
                s("arm"),
                s("primary WAL bytes"),
                s("standby WAL bytes"),
                s("ckpt installs"),
                s("records shipped"),
                s("catch-up"),
            ],
            rows: rows_out,
            notes: Vec::new(),
        },
        metrics,
    })
}

// ===========================================================================
// front_end — the a12 engine loop
// ===========================================================================

/// Heads still serving the upcall lane once the burst is over (waits up
/// to 5 s for them to leave).
fn settled_workers(f: &Fixture) -> usize {
    let node = f.sys.node(SRV).expect("node");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let workers = node.upcall_pool_stats().workers();
        if workers <= 2 || std::time::Instant::now() >= deadline {
            return workers;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One link → commit → unlink → commit round on `path` through `agent`,
/// under host transactions `link_tx` and `link_tx + 1`.
fn churn_cycle(agent: &DlfmClient, link_tx: u64, path: &str) -> Result<(), String> {
    agent.link(link_tx, path, ControlMode::Rff, true, dl_dlfm::OnUnlink::Restore)?;
    agent.commit(link_tx);
    let unlink_tx = link_tx + 1;
    agent.unlink(unlink_tx, path)?;
    agent.commit(unlink_tx);
    Ok(())
}

/// The file agent `i` of a churn arm links and unlinks.
fn churn_path(i: usize) -> String {
    format!("/data/wchurn{i:04}.bin")
}

/// Drives `cycles` churn rounds through each of `agents` (agent `i` on
/// [`churn_path`]`(i)`, seeded by the caller), multiplexed over 16 driver
/// threads; link and unlink operations per second.
fn churn_rate(agents: &[DlfmClient], cycles: usize) -> f64 {
    let drivers = 16.min(agents.len().max(1));
    let elapsed = run_threads(drivers, |d| {
        for (i, agent) in agents.iter().enumerate() {
            if i % drivers != d {
                continue;
            }
            let path = churn_path(i);
            for r in 0..cycles {
                // Synthetic host txids well clear of the fixture's.
                churn_cycle(agent, 1_000_000 + 2 * (i * cycles + r) as u64, &path)
                    .expect("churn cycle");
            }
        }
    });
    (agents.len() * cycles * 2) as f64 / elapsed.as_secs_f64()
}

/// The most heads that ever served the node's agent executor at once.
fn executor_peak_threads(node: &dl_core::FileServerNode) -> usize {
    node.main_daemon().executor_stats().map_or(0, |stats| stats.peak_workers())
}

fn front_end(sc: &Scenario, plan: &Plan) -> Result<ScenarioRun, String> {
    let mut rows = Vec::new();
    let mut metrics = BTreeMap::new();
    // Which burst variant carries the "high concurrency" claims: the one
    // with the most clients.
    let high_clients = plan.trials.iter().filter_map(|t| t.params.clients).max().unwrap_or(0);
    let mut low_clients = u64::MAX;
    let mut fixed_rate: BTreeMap<u64, f64> = BTreeMap::new();
    // The narrowest upcall lane of the burst arms is the fixed baseline;
    // the wider ones are the "adaptive" arms the asserts name.
    let narrowest = plan
        .trials
        .iter()
        .filter(|t| t.params.agents.is_none())
        .filter_map(|t| t.params.pool_max)
        .min()
        .unwrap_or(0);
    let burst_lat = Histogram::new();
    let p0 = &plan.trials[0].params;
    let (title_cycles, title_sync) = (p0.cycles.unwrap_or(10), p0.sync_latency_us.unwrap_or(0));
    let mut title_agents = 0u64;
    for trials in per_variant(sc, plan) {
        let t0 = &trials[0];
        let p = &t0.params;
        let sync_ns = p.sync_latency_us.unwrap_or(0) * 1000;
        match p.agents {
            // --- bursty upcall load: narrow vs wide lane --------------------
            None => {
                let clients = need(sc, t0, "clients", p.clients)?;
                let cycles = need(sc, t0, "cycles", p.cycles)? as usize;
                let pool_max = need(sc, t0, "pool_max", p.pool_max)?;
                low_clients = low_clients.min(clients);
                let adaptive = pool_max > narrowest;
                let (mut rate_sum, mut peak, mut settled) = (0.0f64, 0usize, 0usize);
                for _ in &trials {
                    let f = fixture(FixtureOptions {
                        n_files: clients as usize,
                        file_size: 1024,
                        db_sync_latency_ns: sync_ns,
                        // Archive inside the close, in the upcall lane:
                        // back-to-back updates of one file then never wait
                        // on the single archiver thread.
                        sync_archive: true,
                        upcall_pool: Some(pool_max as usize),
                        // A gather window on the repository's group commit:
                        // each commit parks its upcall-lane head for the
                        // window, so served concurrency — the lane's width
                        // — is the deterministic bottleneck (the
                        // point of this experiment), not the raw CPU of
                        // the machine running it.
                        db: DbOptions {
                            wal: WalOptions {
                                group_commit: true,
                                max_batch: 64,
                                commit_delay_us: 200,
                            },
                            ..Default::default()
                        },
                        ..Default::default()
                    });
                    // The burst is *update* cycles: the open and the
                    // close-as-commit hold a head of the upcall lane through
                    // forced log writes — the `dl_uip` claim, then the host
                    // commit (the repository's close record is unforced). A token
                    // *read* cycle would not do: `dl_tokens`/`dl_sync` are
                    // unlogged, so it forces nothing and occupies a head for
                    // its CPU time only.
                    rate_sum +=
                        update_cycle_rate(&f, clients as usize, cycles, 64, Some(&burst_lat));
                    peak = f.sys.node(SRV).expect("node").upcall_pool_stats().peak_workers();
                    settled = settled_workers(&f);
                }
                let rate = rate_sum / trials.len() as f64;
                let vs_fixed = if adaptive {
                    let base = fixed_rate.get(&clients).copied();
                    if clients == high_clients {
                        metrics.insert("adaptive_high_peak_workers".into(), peak as f64);
                        metrics.insert("adaptive_high_settled_workers".into(), settled as f64);
                        if let Some(base) = base {
                            metrics.insert("adaptive_high_vs_fixed".into(), rate / base);
                        }
                    }
                    base.map_or(s("--"), |base| format!("{:.2}x", rate / base))
                } else {
                    fixed_rate.insert(clients, rate);
                    s("--")
                };
                rows.push(vec![
                    t0.variant.clone(),
                    s(clients),
                    s(format!("{rate:.0}")),
                    s(peak),
                    s(settled),
                    vs_fixed,
                ]);
            }
            // --- agent churn over the shared executor -----------------------
            Some(agents) => {
                let agents = agents as usize;
                title_agents = title_agents.max(agents as u64);
                let (mut rate_sum, mut threads, mut connections) = (0.0f64, 0usize, 0usize);
                for _ in &trials {
                    let f = fixture(FixtureOptions {
                        n_files: 1,
                        db_sync_latency_ns: sync_ns,
                        ..Default::default()
                    });
                    let raw = f.sys.raw_fs(SRV).expect("raw");
                    for i in 0..agents {
                        raw.write_file(&APP, &churn_path(i), b"x").expect("seed");
                    }
                    let node = f.sys.node(SRV).expect("node");
                    let handles: Vec<_> = (0..agents).map(|_| node.connect_agent()).collect();
                    rate_sum += churn_rate(&handles, 1);
                    threads = executor_peak_threads(node);
                    connections = node.main_daemon().child_count();
                }
                let rate = rate_sum / trials.len() as f64;
                metrics.insert("max_os_threads".into(), threads as f64);
                metrics.insert("churn_connections".into(), connections as f64);
                rows.push(vec![
                    t0.variant.clone(),
                    s(connections),
                    s(format!("{rate:.0}")),
                    s(threads),
                    s("--"),
                    s("connections multiplexed over the shared executor"),
                ]);
            }
        }
    }
    if low_clients == u64::MAX {
        low_clients = 0;
    }
    let lat = burst_lat.snapshot();
    metrics.insert("burst_p99_ms".into(), lat.percentile(0.99) as f64 / 1e6);
    metrics.insert("burst_mean_ms".into(), lat.mean() / 1e6);
    Ok(ScenarioRun {
        table: Table {
            id: sc.name.clone(),
            title: format!(
                "front end: upcall lane width + shared agent executor \
                 ({low_clients}/{high_clients} clients x {title_cycles} cycles, \
                 {title_agents} churn agents, {title_sync} µs device sync)"
            ),
            header: vec![
                s("arm"),
                s("clients/conns"),
                s("ops/s"),
                s("peak workers"),
                s("workers after idle"),
                s("vs narrowest / note"),
            ],
            rows,
            notes: Vec::new(),
        },
        metrics,
    })
}

// ===========================================================================
// mixed — the generic client-mix engine with fault injection
// ===========================================================================

/// What one mixed trial measured.
#[derive(Default)]
struct MixedOutcome {
    ops_ok: u64,
    ops_failed: u64,
    busy: Duration,
    worker_panics: u64,
    failovers: u64,
    host_failovers: u64,
    lost_acked_links: u64,
    failover_ms: f64,
    host_failover_ms: f64,
    /// Replica-routed reads served successfully *while the host was down*
    /// (between `crash_host` and `promote_host`).
    outage_reads_ok: u64,
    /// DLFM sub-transactions the promoted coordinator resolved from the
    /// replicated WAL.
    in_doubt_resolved: u64,
    /// Late 2PC decisions from a deposed coordinator refused by the fence.
    stale_coord_rejections: u64,
    /// Injected ENOSPC write failures actually consumed (repository or
    /// host side, whichever the scenario targeted).
    enospc_hits: u64,
    /// Torn-WAL probe commits the crash boundary sheared away — recovery
    /// must lose exactly these.
    torn_commits_lost: u64,
    /// Torn-WAL probe commits from *before* the shear that survived the
    /// crash.
    torn_pre_commit_survived: u64,
    stale_reads: u64,
    freshness_fallbacks: u64,
    leftover_links: u64,
    end_lag_drained: bool,
    peak_upcall_workers: u64,
    events: Vec<String>,
    /// The system's merged telemetry at the end of the trial — every
    /// layer's counters/gauges/histograms plus the trial's own
    /// `lab.op_latency_ns` distribution.
    snapshot: Snapshot,
}

/// The operation chosen for global op index `g` — a pure function of the
/// trial seed and `g`, so moving an injection boundary never changes what
/// the workload would have done.
enum Op {
    Write { file: usize },
    Churn,
    Read { file: usize },
}

fn pick_op(seed: u64, g: u64, client: u64, clients: u64, n_files: u64, p: &Params) -> Op {
    let mut rng = LabRng::new(seed ^ g.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let write_ratio = p.write_ratio.unwrap_or(0.0);
    let churn_ratio = p.churn_ratio.unwrap_or(0.0);
    let roll = rng.ratio();
    // Writers own the files where `file % clients == client` — no
    // write/write races, so an acked version is the file's version until
    // the owner overwrites it.
    let owned = (n_files / clients) + u64::from(client < n_files % clients);
    if roll < write_ratio && owned > 0 {
        Op::Write { file: (client + rng.below(owned) * clients) as usize }
    } else if roll < write_ratio + churn_ratio {
        Op::Churn
    } else {
        Op::Read { file: rng.below(n_files) as usize }
    }
}

/// Versioned payload for `file`: a parseable 20-digit version prefix,
/// padded to `file_size`.
fn versioned_content(version: u64, file_size: usize) -> Vec<u8> {
    let mut out = format!("{version:020}").into_bytes();
    while out.len() < file_size {
        out.push(b'v');
    }
    out
}

fn parse_version(data: &[u8]) -> u64 {
    if data.len() < 20 {
        return 0;
    }
    std::str::from_utf8(&data[..20]).ok().and_then(|t| t.parse().ok()).unwrap_or(0)
}

fn mixed_trial(
    sc: &Scenario,
    t: &TrialSpec,
    flight_dump_dir: Option<&Path>,
) -> Result<MixedOutcome, String> {
    let p = &t.params;
    let clients = p.clients.unwrap_or(4);
    let ops = need(sc, t, "ops", p.ops)?;
    let n_files = p.n_files.unwrap_or(clients);
    let file_size = p.file_size.unwrap_or(1024) as usize;
    let replicas = p.replicas.unwrap_or(0) as usize;
    let host_replicas = p.host_replicas.unwrap_or(0) as usize;
    let shards = p.shards.unwrap_or(1) as usize;
    let route = p.read_route.unwrap_or_default();
    let sync_ns = p.sync_latency_us.unwrap_or(0) * 1000;
    let injections = p.injections.clone().unwrap_or_default();

    // Shard topology (PR 9 seam): with `shards > 1` the fixture builds
    // the sharded front, nodes register as `<srv>.s<i>` and every
    // node-addressed step below routes by the file's owning shard.
    let router = ShardRouter::new(SRV, shards);
    let node_names: Vec<String> = if shards > 1 {
        (0..shards).map(|i| ShardRouter::shard_name(SRV, i)).collect()
    } else {
        vec![SRV.to_string()]
    };
    let owner = |path: &str| -> String {
        if shards > 1 {
            ShardRouter::shard_name(SRV, router.shard_of(path))
        } else {
            SRV.to_string()
        }
    };

    // The kill_upcall_workers injection point: an armed countdown the
    // upcall fault hook decrements — while positive, admission upcalls
    // panic on the thread serving them (in-process, the client's own;
    // containment turns that into a `Rejected` reply: the op fails, the
    // client thread and the daemon live).
    let armed = Arc::new(AtomicI64::new(0));
    let fault: Option<FaultInjector> =
        if injections.iter().any(|i| matches!(i.action, InjectAction::KillUpcallWorkers { .. })) {
            let armed = Arc::clone(&armed);
            Some(Arc::new(move |req: &Message| {
                if matches!(req, Message::ValidateToken { .. } | Message::OpenCheck { .. })
                    && armed.load(Ordering::Relaxed) > 0
                    && armed.fetch_sub(1, Ordering::Relaxed) > 0
                {
                    panic!("lab: injected upcall worker kill");
                }
            }))
        } else {
            None
        };

    // The disk_enospc injection point: a fault layer under the DLFM
    // repository's storage environment, armed at injection boundaries.
    let repo_faults = injections
        .iter()
        .any(|i| matches!(i.action, InjectAction::DiskEnospc { host: false, .. }))
        .then(dl_minidb::DiskFaults::new);

    // The host-side fault surface: `disk_enospc` with `"target": "host"`
    // and the torn-tail crash boundary both attach a fault layer under the
    // *coordinator's* storage environment instead of the repository's.
    let host_faults = injections
        .iter()
        .any(|i| {
            matches!(
                i.action,
                InjectAction::DiskEnospc { host: true, .. } | InjectAction::TornHostWal
            )
        })
        .then(dl_minidb::DiskFaults::new);

    let mut f = fixture_with_faults(
        FixtureOptions {
            n_files: n_files as usize,
            file_size,
            replicas,
            host_replicas,
            shards,
            sync_archive: true,
            db_sync_latency_ns: sync_ns,
            upcall_pool: p.pool_max.map(|width| width as usize),
            ..Default::default()
        },
        fault,
        repo_faults.clone(),
        host_faults.clone(),
        flight_dump_dir,
    );

    // Per-op latency, adopted into the system registry so it rides the
    // exported snapshot (`lab.op_latency_ns` flattens to the
    // `lab_op_latency_ns_p99` predicate name and the text exposition).
    let op_latency = Arc::new(Histogram::new());
    f.sys.registry().register_histogram("lab.op_latency_ns", Arc::clone(&op_latency));

    let mut out = MixedOutcome { end_lag_drained: true, ..Default::default() };
    let total = clients * ops;
    // Acked state per file: highest version whose update the client saw
    // complete (archive included). Fresh reads must observe >= this.
    let acked: Vec<AtomicU64> = (0..n_files).map(|_| AtomicU64::new(0)).collect();
    let next_version: Vec<AtomicU64> = (0..n_files).map(|_| AtomicU64::new(0)).collect();
    let ops_ok = AtomicU64::new(0);
    let ops_failed = AtomicU64::new(0);
    let stale_reads = AtomicU64::new(0);

    let run_op = |g: u64, client: u64, f: &Fixture| -> Result<(), String> {
        let op = pick_op(t.seed, g, client, clients, n_files, p);
        let fs = f.sys.fs(SRV)?;
        match op {
            Op::Write { file } => {
                let version = next_version[file].fetch_add(1, Ordering::Relaxed) + 1;
                let content = versioned_content(version, file_size);
                let (_, path) = f.sys.select_datalink(
                    TABLE,
                    &Value::Int(file as i64),
                    "body",
                    TokenKind::Write,
                )?;
                let fd = fs
                    .open(&APP, &path, OpenOptions::write_truncate())
                    .map_err(|e| e.to_string())?;
                let res = fs.write(fd, &content).map(|_| ()).map_err(|e| e.to_string());
                fs.close(fd).map_err(|e| e.to_string())?;
                res?;
                // The ack: the update is committed and archived. Anything
                // the system loses past this point is a lost acked write.
                f.sys
                    .node(&owner(&f.paths[file]))?
                    .server
                    .archive_store()
                    .wait_archived(&f.paths[file]);
                acked[file].fetch_max(version, Ordering::Relaxed);
                Ok(())
            }
            Op::Churn => {
                let path = format!("/data/churn_c{client:03}_{g:08}.bin");
                f.sys.raw_fs(SRV)?.write_file(&APP, &path, b"churn").map_err(|e| e.to_string())?;
                let node = f.sys.node(&owner(&path))?;
                let agent = node.connect_agent();
                let link_tx = 2_000_000 + 2 * g;
                let cycle = churn_cycle(&agent, link_tx, &path);
                if cycle.is_err() && node.server.repository().get_file(&path).is_some() {
                    // The link committed and the unlink failed: a full
                    // repository disk fails an unlink's forced intent,
                    // while a link's vote writes nothing there. The client
                    // re-issues the unlink, as an application re-issues a
                    // failed DELETE, until the disk frees up; the op still
                    // counts as failed.
                    for _ in 0..16 {
                        if agent.unlink(link_tx + 1, &path).is_ok() {
                            agent.commit(link_tx + 1);
                            break;
                        }
                    }
                }
                cycle
            }
            Op::Read { file } => {
                let acked_version = acked[file].load(Ordering::Relaxed);
                match route {
                    ReadRoute::Managed => {
                        let (_, path) = f.sys.select_datalink(
                            TABLE,
                            &Value::Int(file as i64),
                            "body",
                            TokenKind::Read,
                        )?;
                        let fd = fs
                            .open(&APP, &path, OpenOptions::read_only())
                            .map_err(|e| e.to_string())?;
                        let res = fs.read_to_end(fd).map_err(|e| e.to_string());
                        fs.close(fd).map_err(|e| e.to_string())?;
                        res?;
                    }
                    ReadRoute::Routed => {
                        let (_, path) = f.sys.select_datalink(
                            TABLE,
                            &Value::Int(file as i64),
                            "body",
                            TokenKind::Read,
                        )?;
                        f.sys.serve_read(SRV, &path, APP.uid)?;
                    }
                    ReadRoute::Fresh => {
                        // Read-your-writes: capture the acked version FIRST,
                        // then the freshness token — the token is >= the
                        // commit LSN of every acked write, so the routed
                        // read must observe a version >= acked.
                        let token = f.sys.freshness_token(SRV)?;
                        let (_, path) = f.sys.select_datalink(
                            TABLE,
                            &Value::Int(file as i64),
                            "body",
                            TokenKind::Read,
                        )?;
                        let data = f.sys.serve_read_fresh(SRV, &path, APP.uid, token)?;
                        if parse_version(&data) < acked_version {
                            stale_reads.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                Ok(())
            }
        }
    };

    // Segmented execution: run the clients up to each injection's op
    // boundary, join, apply the fault with exclusive access to the
    // system, resume. Op `g` is executed by client `g % clients`.
    let mut start = 0u64;
    let mut torn_probes = 0i64;
    let mut boundaries: Vec<(u64, &InjectAction)> =
        injections.iter().map(|i| (i.at_op.min(total), &i.action)).collect();
    boundaries.push((total, &InjectAction::ResumeStandby)); // sentinel; never applied
    for (idx, (end, action)) in boundaries.iter().enumerate() {
        let (end, is_sentinel) = (*end, idx == boundaries.len() - 1);
        if end > start {
            let seg = run_threads(clients as usize, |c| {
                let c = c as u64;
                for g in start..end {
                    if g % clients != c {
                        continue;
                    }
                    let started = Instant::now();
                    match run_op(g, c, &f) {
                        Ok(()) => {
                            ops_ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            ops_failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    op_latency.record_duration(started.elapsed());
                }
            });
            out.busy += seg;
            start = end;
        }
        if is_sentinel {
            break;
        }
        match action {
            InjectAction::CrashPrimary => {
                // With shards the victim is the first shard's primary; the
                // other shards keep serving through its outage.
                let victim = node_names[0].clone();
                if f.sys.node(&victim)?.replication.is_none() {
                    return Err(format!(
                        "scenario {}: crash_primary at op {end} needs replicas >= 1",
                        sc.name
                    ));
                }
                // Only acked (committed + shipped) state is owed across the
                // failover; drain the ship lag the same way a real
                // controlled promotion of a caught-up standby would.
                f.sys.wait_replicas_caught_up(SRV, Duration::from_secs(30))?;
                let before = link_state(&f.sys, &node_names);
                let started = Instant::now();
                let recovery = f.sys.fail_over(&victim).expect("failover");
                let dur = started.elapsed();
                let after = link_state(&f.sys, &node_names);
                let lost = before.iter().filter(|e| !after.contains(e)).count() as u64;
                out.failovers += 1;
                out.lost_acked_links += lost;
                out.failover_ms = out.failover_ms.max(dur.as_nanos() as f64 / 1e6);
                out.events.push(format!(
                    "crash_primary@{end}: failover {}, {lost} acked links lost, \
                     updates rolled forward {} / back {}",
                    fmt_ns(dur.as_nanos() as f64),
                    recovery.updates_rolled_forward,
                    recovery.updates_rolled_back
                ));
            }
            InjectAction::StallStandby => {
                f.sys.set_replication_paused(SRV, true)?;
                out.events.push(format!("stall_standby@{end}"));
            }
            InjectAction::ResumeStandby => {
                f.sys.set_replication_paused(SRV, false)?;
                out.events.push(format!("resume_standby@{end}"));
            }
            InjectAction::KillUpcallWorkers { count } => {
                armed.fetch_add(*count as i64, Ordering::Relaxed);
                out.events.push(format!("kill_upcall_workers@{end} x{count}"));
            }
            InjectAction::CrashHost => {
                if f.sys.host_replication().is_none() {
                    return Err(format!(
                        "scenario {}: crash_host at op {end} needs host_replicas >= 1",
                        sc.name
                    ));
                }
                // Only acked (committed + shipped) state is owed across a
                // host failover; drain the ship lag the way a controlled
                // promotion of a caught-up standby would.
                if !f.sys.wait_host_replicas_caught_up(Duration::from_secs(30)) {
                    return Err(format!(
                        "scenario {}: host replication lag did not drain before crash_host",
                        sc.name
                    ));
                }
                let before = link_state(&f.sys, &node_names);
                // Mint read-token paths while the host can still mint them
                // — during the outage no new SELECT is possible, but every
                // token already handed out keeps working off the replicas.
                let tokens: Vec<String> = (0..n_files)
                    .map(|i| {
                        f.sys
                            .select_datalink(TABLE, &Value::Int(i as i64), "body", TokenKind::Read)
                            .map(|(_, path)| path)
                    })
                    .collect::<Result<_, _>>()?;
                let (mut outage_reads, mut resolved) = (0u64, 0u64);
                let dur = time_once(|| {
                    f.sys.crash_host().expect("crash host");
                    // The coordinator is down and fenced; replica-routed
                    // reads must keep flowing off the DLFM standbys.
                    for path in &tokens {
                        if f.sys.serve_read(SRV, path, APP.uid).is_ok() {
                            outage_reads += 1;
                        }
                    }
                    let report = f.sys.promote_host().expect("promote host");
                    resolved = report.in_doubt_resolved.len() as u64;
                });
                let after = link_state(&f.sys, &node_names);
                let lost = before.iter().filter(|e| !after.contains(e)).count() as u64;
                out.host_failovers += 1;
                out.lost_acked_links += lost;
                out.outage_reads_ok += outage_reads;
                out.in_doubt_resolved += resolved;
                // Outage counters onto registry handles: the exported
                // snapshot is the one place trial state is read from.
                f.sys.registry().counter("lab.outage_reads_ok").add(outage_reads);
                f.sys.registry().counter("lab.in_doubt_resolved").add(resolved);
                out.host_failover_ms = out.host_failover_ms.max(dur.as_nanos() as f64 / 1e6);
                out.events.push(format!(
                    "crash_host@{end}: failover {}, {outage_reads} outage reads, \
                     {resolved} in-doubt resolved, {lost} acked links lost",
                    fmt_ns(dur.as_nanos() as f64)
                ));
            }
            InjectAction::DiskEnospc { writes, host } => {
                let faults = if *host { host_faults.as_ref() } else { repo_faults.as_ref() }
                    .expect("disk_enospc arms its fault layer");
                faults.inject_enospc(*writes);
                out.events.push(format!(
                    "disk_enospc@{end} x{writes} ({})",
                    if *host { "host" } else { "repo" }
                ));
            }
            InjectAction::TornHostWal => {
                let faults = host_faults.as_ref().expect("torn_host_wal arms the host fault layer");
                // A probe pair on a scratch table: one commit that must
                // survive the shear, then one whose exact WAL footprint the
                // armed tear covers. The live process believes both are
                // durable — only the crash reveals the torn tail.
                if torn_probes == 0 {
                    f.sys
                        .create_table(
                            Schema::new(
                                "lab_torn",
                                vec![
                                    Column::new("id", ColumnType::Int),
                                    Column::new("v", ColumnType::Text),
                                ],
                                "id",
                            )
                            .map_err(|e| e.to_string())?,
                        )
                        .map_err(|e| e.to_string())?;
                }
                let seq = 2 * torn_probes;
                torn_probes += 1;
                let mut tx = f.sys.begin();
                tx.insert("lab_torn", vec![Value::Int(seq), Value::Text("pre".into())])
                    .map_err(|e| e.to_string())?;
                tx.commit().map_err(|e| e.to_string())?;
                let wal = f.host_env.device("wal").map_err(|e| e.to_string())?;
                let before = wal.len().map_err(|e| e.to_string())?;
                let mut tx = f.sys.begin();
                tx.insert("lab_torn", vec![Value::Int(seq + 1), Value::Text("torn".into())])
                    .map_err(|e| e.to_string())?;
                tx.commit().map_err(|e| e.to_string())?;
                let sheared = wal.len().map_err(|e| e.to_string())? - before;
                faults.arm_torn_tail("wal", sheared);
                // Crash the whole system and recover it; the workload's
                // remaining segments then run against the recovered stack.
                let Fixture { sys, paths, urls, host_env } = f;
                let (sys, _) = DataLinksSystem::recover(sys.crash())?;
                f = Fixture { sys, paths, urls, host_env };
                // Recovery rebuilds the registry; re-adopt the trial's
                // latency histogram so it keeps riding the snapshot.
                f.sys.registry().register_histogram("lab.op_latency_ns", Arc::clone(&op_latency));
                let db = f.sys.db();
                let pre =
                    db.get_committed("lab_torn", &Value::Int(seq)).map_err(|e| e.to_string())?;
                let torn = db
                    .get_committed("lab_torn", &Value::Int(seq + 1))
                    .map_err(|e| e.to_string())?;
                out.torn_pre_commit_survived += u64::from(pre.is_some());
                out.torn_commits_lost += u64::from(torn.is_none());
                out.events.push(format!("torn_host_wal@{end}: sheared {sheared} B"));
            }
            InjectAction::SeverConnections { .. } => {
                return Err(format!(
                    "scenario {}: sever_connections needs the socket transport — use kind \
                     \"wire_front_end\"",
                    sc.name
                ));
            }
        }
    }

    // Settle: resume any stalled shipping and drain the lag, so the trial
    // ends with a consistent, comparable system.
    let any_replicated = node_names
        .iter()
        .any(|n| f.sys.node(n).map(|node| node.replication.is_some()).unwrap_or(false));
    if any_replicated {
        f.sys.set_replication_paused(SRV, false)?;
        out.end_lag_drained = f.sys.wait_replicas_caught_up(SRV, Duration::from_secs(30))?;
    }
    out.leftover_links = node_names
        .iter()
        .map(|n| {
            f.sys
                .node(n)
                .map(|node| node.server.repository().list_files().len() as u64)
                .unwrap_or(0)
        })
        .sum::<u64>()
        .saturating_sub(n_files);
    for faults in [&repo_faults, &host_faults].into_iter().flatten() {
        // The fault layers live outside the system; mirror their hit
        // counts onto a registry handle so they export like everything
        // else (one combined counter — a scenario targets one side).
        f.sys.registry().counter("lab.enospc_hits").add(faults.enospc_hits());
    }

    // The last flight dump's 2PC span trail, surfaced as assertable
    // metrics: a scenario can pin that the crash left (say) fenced decide
    // spans in the recorder without string-matching the dump itself.
    let dump = f.sys.last_flight_dump().unwrap_or_default();
    for stage in ["claim", "decide", "fence_raise", "fence_reject", "archive"] {
        let events = dump.matches(stage).count() as u64;
        f.sys.registry().counter(&format!("lab.flight_{stage}_events")).add(events);
    }

    // Everything the trial used to read from per-component stats structs
    // now comes off the system's one merged telemetry snapshot. Park the
    // upcall pools first: a killed worker reports its failure to the
    // waiting client before it finishes unwinding, so without the
    // quiesce the pool's panic counter can lag the last failed op.
    f.sys.quiesce_upcalls(Duration::from_secs(5));
    let snap = f.sys.metrics();
    let counter = |name: String| snap.counters.get(&name).copied().unwrap_or(0);
    let gauge = |name: String| snap.gauges.get(&name).copied().unwrap_or(0.0);
    for name in &node_names {
        out.worker_panics += gauge(format!("dlfm.{name}.upcall_pool.panics")) as u64;
        out.peak_upcall_workers = out
            .peak_upcall_workers
            .max(gauge(format!("dlfm.{name}.upcall_pool.peak_workers")) as u64);
        out.stale_coord_rejections += counter(format!("dlfm.{name}.stale_coord_rejections"));
    }
    out.freshness_fallbacks = counter("engine.freshness_fallbacks".into());
    out.enospc_hits = counter("lab.enospc_hits".into());
    out.snapshot = snap;
    out.ops_ok = ops_ok.into_inner();
    out.ops_failed = ops_failed.into_inner();
    out.stale_reads = stale_reads.into_inner();
    Ok(out)
}

fn mixed(
    sc: &Scenario,
    plan: &Plan,
    flight_dump_dir: Option<&Path>,
) -> Result<ScenarioRun, String> {
    let mut rows = Vec::new();
    let mut metrics = BTreeMap::new();
    let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
    let add = |m: &mut BTreeMap<&str, f64>, k: &'static str, v: f64| {
        *m.entry(k).or_insert(0.0) += v;
    };
    let (mut failover_ms, mut peak_workers) = (0.0f64, 0.0f64);
    let mut host_failover_ms = 0.0f64;
    let mut end_lag_drained = 1.0f64;
    let (mut first_rate, mut last_rate) = (None, 0.0f64);
    let mut snap_all = Snapshot::default();
    for trials in per_variant(sc, plan) {
        let t0 = &trials[0];
        let clients = t0.params.clients.unwrap_or(4);
        let (mut ok, mut failed, mut busy) = (0u64, 0u64, Duration::ZERO);
        let mut events = Vec::new();
        let mut vlat = HistogramSnapshot::default();
        for t in &trials {
            let o = mixed_trial(sc, t, flight_dump_dir)?;
            if let Some(lat) = o.snapshot.histograms.get("lab.op_latency_ns") {
                vlat.merge(lat);
            }
            snap_all.merge(&o.snapshot);
            ok += o.ops_ok;
            failed += o.ops_failed;
            busy += o.busy;
            add(&mut sums, "worker_panics", o.worker_panics as f64);
            add(&mut sums, "failovers", o.failovers as f64);
            add(&mut sums, "host_failovers", o.host_failovers as f64);
            add(&mut sums, "lost_acked_links", o.lost_acked_links as f64);
            add(&mut sums, "outage_reads_ok", o.outage_reads_ok as f64);
            add(&mut sums, "in_doubt_resolved", o.in_doubt_resolved as f64);
            add(&mut sums, "stale_coord_rejections", o.stale_coord_rejections as f64);
            add(&mut sums, "enospc_hits", o.enospc_hits as f64);
            add(&mut sums, "torn_commits_lost", o.torn_commits_lost as f64);
            add(&mut sums, "torn_pre_commit_survived", o.torn_pre_commit_survived as f64);
            add(&mut sums, "stale_reads", o.stale_reads as f64);
            add(&mut sums, "freshness_fallbacks", o.freshness_fallbacks as f64);
            add(&mut sums, "leftover_links", o.leftover_links as f64);
            failover_ms = failover_ms.max(o.failover_ms);
            host_failover_ms = host_failover_ms.max(o.host_failover_ms);
            peak_workers = peak_workers.max(o.peak_upcall_workers as f64);
            if !o.end_lag_drained {
                end_lag_drained = 0.0;
            }
            if events.is_empty() {
                events = o.events;
            }
        }
        let rate = (ok + failed) as f64 / busy.as_secs_f64().max(1e-9);
        if first_rate.is_none() {
            first_rate = Some(rate);
        }
        last_rate = rate;
        rows.push(vec![
            t0.variant.clone(),
            s(clients),
            s(format!("{rate:.0}")),
            fmt_ns(vlat.percentile(0.99) as f64),
            s(ok),
            s(failed),
            if events.is_empty() { s("--") } else { events.join("; ") },
        ]);
        add(&mut sums, "ops_ok", ok as f64);
        add(&mut sums, "ops_failed", failed as f64);
    }
    for (k, v) in sums {
        metrics.insert(k.to_string(), v);
    }
    metrics.insert("failover_ms".into(), failover_ms);
    metrics.insert("host_failover_ms".into(), host_failover_ms);
    metrics.insert("peak_upcall_workers".into(), peak_workers);
    // The only OS-thread pool a mixed trial can grow without bound is the
    // upcall pool — expose it under the generic name the issue's example
    // predicates use.
    metrics.insert("max_os_threads".into(), peak_workers);
    metrics.insert("end_lag_drained".into(), end_lag_drained);
    metrics
        .insert("throughput_ratio".into(), last_rate / first_rate.unwrap_or(last_rate).max(1e-9));
    // Latency percentiles alongside the wall-clock mean rate.
    let lat = snap_all.histograms.get("lab.op_latency_ns").cloned().unwrap_or_default();
    metrics.insert("op_p50_ms".into(), lat.percentile(0.50) as f64 / 1e6);
    metrics.insert("op_p99_ms".into(), lat.percentile(0.99) as f64 / 1e6);
    metrics.insert("op_mean_ms".into(), lat.mean() / 1e6);
    // Every exported registry metric is assertable under its flattened
    // name; the engine-level names above win any collision.
    for (name, v) in snap_all.flatten() {
        metrics.entry(name).or_insert(v);
    }
    Ok(ScenarioRun {
        table: Table {
            id: sc.name.clone(),
            title: format!("mixed client workload ({} variants)", rows.len()),
            header: vec![
                s("variant"),
                s("clients"),
                s("ops/s"),
                s("op p99"),
                s("ops ok"),
                s("ops failed"),
                s("events"),
            ],
            rows,
            notes: Vec::new(),
        },
        metrics,
    })
}

// ===========================================================================
// sharding — the a13 engine loop
// ===========================================================================

/// Committed open/write/close cycles/sec through a `shards`-way sharded
/// file server, plus the run's telemetry snapshot. Each writer thread owns
/// one file placed on shard `thread % shards`; the repository WALs run
/// per-commit sync over devices with the given sync latency while the host
/// database's devices are free — so the cycle rate is gated by how many
/// repository WALs can sync concurrently, i.e. by the shard count.
fn sharded_stack_rate(
    shards: usize,
    threads: usize,
    cycles: usize,
    file_size: usize,
    sync_latency_ns: u64,
) -> (f64, Snapshot) {
    let mut spec = FileServerSpec::new(SRV).shards(shards);
    spec.dlfm.sync_archive = true;
    spec.dlfm.db = DbOptions { wal: WalOptions::per_commit_sync(), ..Default::default() };
    spec.repo_env = StorageEnv::mem_with_sync_latency(sync_latency_ns);
    let sys = DataLinksSystem::builder().file_server_with(spec).build().expect("build system");
    let raw = sys.raw_fs(SRV).expect("raw fs");
    raw.mkdir_p(&Cred::root(), "/data", 0o777).expect("mkdir");
    sys.create_table(
        Schema::new(
            TABLE,
            vec![
                Column::new("id", ColumnType::Int),
                Column::nullable("body", ColumnType::DataLink),
            ],
            "id",
        )
        .expect("schema"),
    )
    .expect("create table");
    sys.define_datalink_column(
        TABLE,
        "body",
        DlColumnOptions::new(ControlMode::Rdd)
            .on_unlink(dl_dlfm::OnUnlink::Restore)
            .token_ttl_ms(600_000),
    )
    .expect("define column");
    // Deterministic placement: thread `t` writes a file owned by shard
    // `t % shards`, so the thread→shard fan-out is exact, not hash luck.
    let router = ShardRouter::new(SRV, shards);
    let content = make_content(file_size);
    for t in 0..threads {
        let path = (0..)
            .map(|k| format!("/data/w{t}_{k}.bin"))
            .find(|p| router.shard_of(p) == t % shards)
            .expect("some candidate path hashes to every shard");
        raw.write_file(&APP, &path, &content).expect("seed file");
        let mut tx = sys.begin();
        tx.insert(
            TABLE,
            vec![Value::Int(t as i64), Value::DataLink(format!("dlfs://{SRV}{path}"))],
        )
        .expect("insert");
        tx.commit().expect("link");
    }
    let fs = sys.fs(SRV).expect("fs");
    let elapsed = run_threads(threads, |t| {
        for _ in 0..cycles {
            let (_, tp) = sys
                .select_datalink(TABLE, &Value::Int(t as i64), "body", TokenKind::Write)
                .expect("select");
            let fd = fs.open(&APP, &tp, OpenOptions::write_truncate()).expect("open");
            fs.write(fd, &content).expect("write");
            fs.close(fd).expect("close");
        }
    });
    ((threads * cycles) as f64 / elapsed.as_secs_f64(), sys.metrics())
}

fn sharding(sc: &Scenario, plan: &Plan) -> Result<ScenarioRun, String> {
    let mut rows = Vec::new();
    let mut metrics = BTreeMap::new();
    let mut snap_all = Snapshot::default();
    let mut baseline_rate = 0.0f64;
    let p0 = &plan.trials[0].params;
    let (title_threads, title_cycles, title_sync) =
        (p0.threads.unwrap_or(8), p0.cycles.unwrap_or(8), p0.sync_latency_us.unwrap_or(0));
    for trials in per_variant(sc, plan) {
        let t0 = &trials[0];
        let p = &t0.params;
        let shards = need(sc, t0, "shards", p.shards)? as usize;
        let threads = need(sc, t0, "threads", p.threads)? as usize;
        let cycles = need(sc, t0, "cycles", p.cycles)? as usize;
        let file_size = p.file_size.unwrap_or(1024) as usize;
        let sync_ns = p.sync_latency_us.unwrap_or(0) * 1000;
        let (mut rate_sum, mut busy_min) = (0.0f64, u64::MAX);
        for _ in &trials {
            let (rate, snap) = sharded_stack_rate(shards, threads, cycles, file_size, sync_ns);
            rate_sum += rate;
            // Fan-out proof off the registry: every shard node's DLFS must
            // have served managed opens (the unsharded arm keeps the
            // logical node name, shard nodes register as `<srv>.s<i>`).
            let busy = (0..shards)
                .filter(|&i| {
                    let node =
                        if shards > 1 { ShardRouter::shard_name(SRV, i) } else { SRV.to_string() };
                    snap.counters.get(&format!("dlfs.{node}.managed_opens")).is_some_and(|&c| c > 0)
                })
                .count() as u64;
            busy_min = busy_min.min(busy);
            snap_all.merge(&snap);
        }
        let rate = rate_sum / trials.len() as f64;
        if rows.is_empty() {
            baseline_rate = rate;
        }
        metrics.insert(format!("write_rate_s{shards}"), rate);
        metrics.insert(format!("write_speedup_s{shards}"), rate / baseline_rate);
        metrics.insert(format!("busy_shards_s{shards}"), busy_min as f64);
        rows.push(vec![
            t0.variant.clone(),
            s(shards),
            s(format!("{rate:.0}")),
            s(format!("{:.2}x", rate / baseline_rate)),
            s(busy_min),
        ]);
    }
    // Every exported registry metric — per-shard router counters included
    // (`engine_shard_srv1_s0_routed`, ...) — is assertable by its
    // flattened name; the engine-level names above win any collision.
    for (name, v) in snap_all.flatten() {
        metrics.entry(name).or_insert(v);
    }
    Ok(ScenarioRun {
        table: Table {
            id: sc.name.clone(),
            title: format!(
                "sharded write scale-out: update cycles/s vs shard count \
                 ({title_threads} writers x {title_cycles} cycles, per-commit sync, \
                 {title_sync} µs device sync)"
            ),
            header: vec![
                s("shards"),
                s("shard nodes"),
                s("write cyc/s"),
                s("speedup vs 1 shard"),
                s("busy shards"),
            ],
            rows,
            notes: Vec::new(),
        },
        metrics,
    })
}

// ===========================================================================
// wire_front_end — the a14 engine loop
// ===========================================================================

/// What one a14 trial measured.
struct WireOutcome {
    rate: f64,
    severed: u64,
    presumed_aborts: u64,
    atomicity_violations: u64,
    executor_peak_threads: u64,
    peak_connections: f64,
    snapshot: Snapshot,
}

/// The same churn workload as [`wire_trial`]'s surviving connections, but
/// over the in-process `Transport::Local` path — the baseline the wire
/// path's throughput is budgeted against.
fn local_churn_rate(workers: usize, cycles: usize) -> f64 {
    let f = fixture(FixtureOptions { n_files: 1, file_size: 256, ..Default::default() });
    let raw = f.sys.raw_fs(SRV).expect("raw fs");
    for i in 0..workers {
        raw.write_file(&APP, &churn_path(i), b"x").expect("seed");
    }
    let node = f.sys.node(SRV).expect("node");
    let handles: Vec<_> = (0..workers).map(|_| node.connect_agent()).collect();
    churn_rate(&handles, cycles)
}

/// One a14 trial: `agents` real socket connections held open together
/// against a `Transport::Socket` node. The scenario's `sever_connections`
/// injections name how many of them link and then have their
/// socket cut mid-2PC — the host never heard of those transactions, so
/// the dropped claims must resolve by presumed abort. Every other
/// connection drives `cycles` full link/2PC/unlink rounds over the wire,
/// multiplexed over 16 driver threads. Afterwards the repository must
/// hold exactly the fixture's own links and no claim may still be
/// pending — anything else counts as an atomicity violation.
fn wire_trial(sc: &Scenario, t: &TrialSpec) -> Result<WireOutcome, String> {
    let p = &t.params;
    let agents = need(sc, t, "agents", p.agents)? as usize;
    let cycles = p.cycles.unwrap_or(1) as usize;
    let sever: usize = p
        .injections
        .as_deref()
        .unwrap_or_default()
        .iter()
        .map(|i| match i.action {
            InjectAction::SeverConnections { count } => count as usize,
            _ => 0,
        })
        .sum();
    if sever >= agents {
        return Err(format!(
            "scenario {}: sever_connections total {sever} must stay below agents = {agents}",
            sc.name
        ));
    }
    let f = fixture(FixtureOptions {
        n_files: 1,
        file_size: 256,
        transport: Transport::Socket,
        ..Default::default()
    });
    let node = f.sys.node(SRV)?;
    let wire = node.wire().ok_or("Transport::Socket must bring the wire front end up")?;
    let raw = f.sys.raw_fs(SRV)?;
    let workers = agents - sever;
    for i in 0..workers {
        raw.write_file(&APP, &churn_path(i), b"x").map_err(|e| e.to_string())?;
    }
    for j in 0..sever {
        raw.write_file(&APP, &format!("/data/doomed{j:04}.bin"), b"x")
            .map_err(|e| e.to_string())?;
    }

    // Every connection is a real socket, and they are all open at once:
    // the concurrency the scenario claims is whatever peak the net gauge
    // records, not an extrapolation.
    let churners: Vec<DlfmClient> =
        (0..workers).map(|i| wire.connect_client(&format!("a14-{i}"))).collect::<Result<_, _>>()?;
    let doomed = (0..sever)
        .map(|j| {
            let conn = wire.connect(&format!("a14-doomed-{j}"))?;
            Ok((Arc::clone(&conn), DlfmClient::connect(conn, "a14-doomed")?))
        })
        .collect::<Result<Vec<_>, String>>()?;

    // Mid-2PC severing: the doomed connections link, then die holding the
    // in-doubt claim.
    let aborts_before = wire.daemon.presumed_aborts().get();
    for (j, (conn, agent)) in doomed.iter().enumerate() {
        let txid = 3_000_000 + 2 * j as u64;
        let path = format!("/data/doomed{j:04}.bin");
        agent.link(txid, &path, ControlMode::Rff, true, dl_dlfm::OnUnlink::Restore)?;
        conn.sever();
    }

    // Churn: the surviving connections drive full link/2PC/unlink rounds
    // over the wire while the severed claims resolve underneath.
    let rate = churn_rate(&churners, cycles);

    // The severed claims must drain: presumed abort resolves each one and
    // the pending table empties.
    let deadline = Instant::now() + Duration::from_secs(30);
    while (wire.daemon.presumed_aborts().get() < aborts_before + sever as u64
        || !node.server.pending_host_txns().is_empty())
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    let presumed_aborts = wire.daemon.presumed_aborts().get() - aborts_before;

    // Atomicity audit, straight off the repository: any file beyond the
    // fixture's own links (a doomed link that survived its abort, a churn
    // link whose unlink never settled) or any still-pending claim is a
    // violation.
    let leftovers = node
        .server
        .repository()
        .list_files()
        .into_iter()
        .filter(|e| !f.paths.contains(&e.path))
        .count() as u64;
    let unresolved = node.server.pending_host_txns().len() as u64;
    let atomicity_violations = leftovers + unresolved;

    let executor_peak_threads = wire.daemon.peak_threads() as u64;

    // Snapshot while the surviving connections are still open, so the
    // live `net.*.connections` gauge backs the concurrency claim too.
    let snapshot = f.sys.metrics();
    let peak_connections =
        snapshot.gauges.get(&format!("net.{SRV}.peak_connections")).copied().unwrap_or(0.0);
    drop(churners);
    Ok(WireOutcome {
        rate,
        severed: sever as u64,
        presumed_aborts,
        atomicity_violations,
        executor_peak_threads,
        peak_connections,
        snapshot,
    })
}

fn wire_front_end(sc: &Scenario, plan: &Plan) -> Result<ScenarioRun, String> {
    let mut rows = Vec::new();
    let mut metrics = BTreeMap::new();
    let mut snap_all = Snapshot::default();
    let (mut severed, mut presumed, mut violations) = (0u64, 0u64, 0u64);
    let (mut peak_conns, mut exec_peak) = (0.0f64, 0u64);
    let mut wire_rate_first = None;
    let p0 = &plan.trials[0].params;
    let (title_agents, title_cycles) = (p0.agents.unwrap_or(0), p0.cycles.unwrap_or(1));

    // The in-process baseline the wire path is budgeted against: the same
    // churn workload shape as the first variant, over `Transport::Local`.
    let base_workers = (p0.agents.unwrap_or(64) as usize).saturating_sub(
        p0.injections
            .as_deref()
            .unwrap_or_default()
            .iter()
            .map(|i| match i.action {
                InjectAction::SeverConnections { count } => count as usize,
                _ => 0,
            })
            .sum(),
    );
    let local_rate = local_churn_rate(base_workers, p0.cycles.unwrap_or(1) as usize);
    metrics.insert("local_ops_s".into(), local_rate);
    rows.push(vec![
        s("local baseline"),
        s(base_workers),
        s(format!("{local_rate:.0}")),
        s("--"),
        s("--"),
        s("in-process Transport::Local, same churn shape"),
    ]);

    for trials in per_variant(sc, plan) {
        let t0 = &trials[0];
        let mut rate_sum = 0.0f64;
        let mut conns_cell = 0u64;
        for t in &trials {
            let o = wire_trial(sc, t)?;
            rate_sum += o.rate;
            severed += o.severed;
            presumed += o.presumed_aborts;
            violations += o.atomicity_violations;
            peak_conns = peak_conns.max(o.peak_connections);
            exec_peak = exec_peak.max(o.executor_peak_threads);
            conns_cell = t.params.agents.unwrap_or(0);
            snap_all.merge(&o.snapshot);
        }
        let rate = rate_sum / trials.len() as f64;
        if wire_rate_first.is_none() {
            wire_rate_first = Some(rate);
        }
        rows.push(vec![
            t0.variant.clone(),
            s(conns_cell),
            s(format!("{rate:.0}")),
            s(format!("{peak_conns:.0}")),
            s(exec_peak),
            s(format!("{severed} severed mid-2PC, {presumed} presumed aborts")),
        ]);
    }
    let wire_rate = wire_rate_first.unwrap_or(0.0);
    metrics.insert("wire_ops_s".into(), wire_rate);
    metrics.insert("wire_vs_local".into(), wire_rate / local_rate.max(1e-9));
    metrics.insert("peak_connections".into(), peak_conns);
    metrics.insert("executor_peak_threads".into(), exec_peak as f64);
    metrics.insert("severed".into(), severed as f64);
    metrics.insert("presumed_aborts".into(), presumed as f64);
    metrics.insert("atomicity_violations".into(), violations as f64);
    // Every exported registry metric — the `net.*` frame counters and
    // round-trip histogram included — is assertable by its flattened name.
    for (name, v) in snap_all.flatten() {
        metrics.entry(name).or_insert(v);
    }
    Ok(ScenarioRun {
        table: Table {
            id: sc.name.clone(),
            title: format!(
                "wire front end: {title_agents} socket connections x {title_cycles} churn \
                 cycles over the framed transport, severed mid-2PC connections resolved by \
                 presumed abort"
            ),
            header: vec![
                s("arm"),
                s("conns"),
                s("ops/s"),
                s("peak conns"),
                s("exec threads"),
                s("note"),
            ],
            rows,
            notes: Vec::new(),
        },
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_lab::parse_scenario;

    fn run(text: &str) -> ScenarioRun {
        let sc = parse_scenario("test.jsonl", text).unwrap();
        run_scenario(&sc, true, None).unwrap()
    }

    #[test]
    fn mixed_engine_runs_and_emits_metrics() {
        let run = run(concat!(
            r#"{"scenario":"m","kind":"mixed","seed":7,"#,
            r#""params":{"clients":2,"ops":8,"write_ratio":0.5,"file_size":64},"#,
            r#""assert":["ops_failed == 0","stale_reads == 0"]}"#,
            "\n",
            r#"{"variant":"tiny"}"#,
        ));
        assert_eq!(run.table.rows.len(), 1);
        assert_eq!(run.metrics["ops_ok"], 16.0);
        assert_eq!(run.metrics["ops_failed"], 0.0);
        // The registry snapshot rides the metric map under flattened names.
        assert!(run.metrics["op_p99_ms"] > 0.0, "per-op latency must be recorded");
        assert_eq!(run.metrics["lab_op_latency_ns_count"], 16.0);
        assert_eq!(run.metrics["dlfm_srv1_stale_coord_rejections"], 0.0);
        assert!(run.metrics.contains_key("engine_freshness_wait_ns_p99"));
        assert!(run.metrics["minidb_host_fsync_ns_count"] > 0.0);
        let sc = parse_scenario(
            "test.jsonl",
            concat!(
                r#"{"scenario":"m","kind":"mixed","seed":7,"#,
                r#""assert":["ops_failed == 0","no_such_metric == 1"]}"#,
                "\n",
                r#"{"variant":"tiny"}"#,
            ),
        )
        .unwrap();
        let outcomes = check_asserts(&sc, &run.metrics);
        assert!(outcomes[0].pass);
        assert!(!outcomes[1].pass, "unknown metric must fail, not silently pass");
    }

    #[test]
    fn kill_injection_panics_workers_and_fails_only_those_ops() {
        let run = run(concat!(
            r#"{"scenario":"k","kind":"mixed","seed":3,"#,
            r#""params":{"clients":2,"ops":12,"file_size":64,"#,
            r#""injections":[{"at_op":8,"action":"kill_upcall_workers","count":2}]}}"#,
            "\n",
            r#"{"variant":"kill"}"#,
        ));
        assert_eq!(run.metrics["worker_panics"], 2.0, "exactly the armed kills fire");
        assert_eq!(run.metrics["ops_failed"], 2.0, "one failed op per killed worker");
        assert_eq!(run.metrics["ops_ok"], 22.0);
    }

    #[test]
    fn stall_and_resume_keep_fresh_reads_fresh() {
        let run = run(concat!(
            r#"{"scenario":"sr","kind":"mixed","seed":11,"#,
            r#""params":{"clients":2,"ops":10,"replicas":1,"write_ratio":0.4,"#,
            r#""file_size":64,"read_route":"fresh","#,
            r#""injections":[{"at_op":4,"action":"stall_standby"},"#,
            r#"{"at_op":14,"action":"resume_standby"}]}}"#,
            "\n",
            r#"{"variant":"stall"}"#,
        ));
        assert_eq!(run.metrics["stale_reads"], 0.0, "freshness tokens must hold under stall");
        assert_eq!(run.metrics["ops_failed"], 0.0);
        assert_eq!(run.metrics["end_lag_drained"], 1.0);
    }

    #[test]
    fn mixed_engine_runs_the_fault_matrix_on_the_sharded_stack() {
        // The PR 9 sharded front under the PR 7 fault matrix: crash the
        // first shard's primary mid-workload while the other shard keeps
        // serving, then kill upcall workers. Only acked links survive the
        // failover and nothing leaks.
        let run = run(concat!(
            r#"{"scenario":"ms","kind":"mixed","seed":5,"#,
            r#""params":{"clients":2,"ops":12,"shards":2,"replicas":1,"#,
            r#""write_ratio":0.4,"churn_ratio":0.3,"file_size":64,"#,
            r#""injections":[{"at_op":6,"action":"crash_primary"},"#,
            r#"{"at_op":10,"action":"kill_upcall_workers","count":1}]}}"#,
            "\n",
            r#"{"variant":"sharded"}"#,
        ));
        assert_eq!(run.metrics["failovers"], 1.0);
        assert_eq!(run.metrics["lost_acked_links"], 0.0, "acked links must ride the standby");
        assert_eq!(run.metrics["worker_panics"], 1.0);
        assert_eq!(run.metrics["leftover_links"], 0.0, "churn links must all unwind");
        // Per-shard instruments are summed across `<srv>.s<i>` nodes, so
        // the panic shows up even though it hit only one shard.
        assert!(run.metrics["ops_ok"] > 0.0);
    }

    #[test]
    fn wire_engine_severs_mid_2pc_and_presumes_abort() {
        let run = run(concat!(
            r#"{"scenario":"w","kind":"wire_front_end","seed":2,"#,
            r#""params":{"agents":12,"cycles":1,"#,
            r#""injections":[{"at_op":0,"action":"sever_connections","count":3}]}}"#,
            "\n",
            r#"{"variant":"wire"}"#,
        ));
        assert_eq!(run.metrics["severed"], 3.0);
        assert_eq!(run.metrics["presumed_aborts"], 3.0, "every severed claim resolves by abort");
        assert_eq!(run.metrics["atomicity_violations"], 0.0);
        // 12 agent sockets + engine + DLFS standing connections.
        assert!(run.metrics["peak_connections"] >= 14.0);
        assert!(run.metrics["executor_peak_threads"] <= 32.0);
        assert!(run.metrics["wire_ops_s"] > 0.0);
        assert!(run.metrics["local_ops_s"] > 0.0);
        // The net instruments ride the metric map under flattened names.
        assert_eq!(run.metrics["net_srv1_decode_errors"], 0.0);
        assert!(run.metrics["net_srv1_frames_in"] > 0.0);
        assert!(run.metrics["net_srv1_round_trip_ns_count"] > 0.0);
        // Two rows: the in-process baseline and the wire arm.
        assert_eq!(run.table.rows.len(), 2);
    }

    #[test]
    fn sever_injection_is_rejected_off_the_wire() {
        let sc = parse_scenario(
            "test.jsonl",
            concat!(
                r#"{"scenario":"bad","kind":"mixed","seed":1,"#,
                r#""params":{"clients":1,"ops":4,"file_size":64,"#,
                r#""injections":[{"at_op":2,"action":"sever_connections"}]}}"#,
                "\n",
                r#"{"variant":"x"}"#,
            ),
        )
        .unwrap();
        let err = run_scenario(&sc, true, None).err().expect("sever off the wire must fail");
        assert!(err.contains("wire_front_end"), "must point at the wire kind: {err}");
    }

    #[test]
    fn pick_op_is_independent_of_segmentation() {
        let p =
            dl_lab::Params { write_ratio: Some(0.3), churn_ratio: Some(0.2), ..Default::default() };
        for g in 0..64u64 {
            let a = pick_op(42, g, g % 4, 4, 8, &p);
            let b = pick_op(42, g, g % 4, 4, 8, &p);
            let tag = |o: &Op| match o {
                Op::Write { file } => ("w", *file),
                Op::Churn => ("c", 0),
                Op::Read { file } => ("r", *file),
            };
            assert_eq!(tag(&a), tag(&b));
            if let Op::Write { file } = a {
                assert_eq!(file as u64 % 4, g % 4, "writers only touch owned files");
            }
        }
    }
}
