//! The scenario-lab engine: drives `dl-lab` trial plans against a live
//! [`DataLinksSystem`] and renders the results through the same
//! [`Table`] / `BENCH_<id>.json` pipeline as the `report` binary.
//!
//! One engine loop runs every scenario: a generic client mix (writes,
//! link/unlink churn, reads on any route) over any topology (replicas, host
//! standbys, shards, upcall lane width), with fault-injection points (crash
//! the primary or the host at op N, stall/resume a standby, kill upcall
//! workers, exhaust the repository or host disk, shear the host WAL tail at
//! a crash boundary). a10 (routed reads across a failover) and a12 (upcall
//! bursts through a narrow and a wide lane, agent churn) are scenarios of
//! it, beside the fault scenarios.
//!
//! The lab gates counts; rates are the repo benchmark's to measure. So
//! group commit (a9), checkpoint shipping (a11), the sharded namespace
//! (a13) and the wire front end (a14) have no engine here: their gates are
//! counts in tier-1 tests — device syncs per commit and per update cycle
//! in `tests/group_commit.rs`; log bytes, installs and records shipped in
//! `tests/replication.rs`; busy shards, per-shard syncs and repository
//! syncs in flight at once in `tests/sharding.rs`; connections, serving
//! threads, presumed aborts and seat reclaims per frame in
//! `tests/wire_transport.rs`.
//!
//! An engine measures; it does not judge. Its metric map holds
//! scenario-wide aggregates — counters summed over every trial, gauges
//! (`failover_ms`, `max_os_threads`, ...) at their max, invariant flags
//! (`end_lag_drained`, ...) at their min, so one bad trial fails the
//! predicate — and, beside them, each variant's own values as
//! `<metric>_v<i>` (`i` is the variant line's 0-based position, the value
//! is what the variant's row reports). A scenario's `metric op number`
//! predicates, evaluated by [`check_asserts`], are the lab's only gate.
//! Row labels come verbatim from the scenario's variant labels.
//!
//! The engine also captures the system's telemetry snapshot
//! ([`DataLinksSystem::metrics`]) at the end of every trial. Snapshots
//! merge across trials ([`Snapshot::merge`]: counters add, gauges keep the
//! max, histograms merge bucket-wise) and flatten into the same metric map
//! ([`Snapshot::flatten`]), so a scenario predicate can name any exported
//! registry metric — `dlfm_srv1_stale_coord_rejections`,
//! `engine_freshness_wait_ns_p99`, `repl_srv1_records_shipped`, ... —
//! exactly as it appears in the text exposition. Per-op latency rides the
//! same pipe as the `lab.op_latency_ns` histogram, surfaced as `op_p50_ms`
//! / `op_p99_ms` / `op_mean_ms` beside the mean-rate columns.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dl_core::{ControlMode, DataLinksSystem, ShardRouter, TokenKind};
use dl_dlfm::{AgentConnection, DlfmClient, FaultInjector, Message};
use dl_fskit::OpenOptions;
use dl_lab::{expand, InjectAction, LabRng, Params, Plan, ReadRoute, Scenario, TrialSpec};
use dl_minidb::{Column, ColumnType, Schema, Value};
use dl_obs::{Histogram, HistogramSnapshot, Snapshot};

use crate::experiments::Table;
use crate::{
    fixture_with_faults, fmt_ns, make_content, run_threads, time_once, Fixture, FixtureOptions,
    APP, SRV, TABLE,
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
/// through the engine loop. The systems a fault scenario builds also write
/// their flight-recorder dumps into `flight_dump_dir`.
pub fn run_scenario(
    sc: &Scenario,
    quick: bool,
    flight_dump_dir: Option<&Path>,
) -> Result<ScenarioRun, String> {
    let plan = expand(sc, quick).map_err(|e| e.to_string())?;
    let mut run = mixed(sc, &plan, flight_dump_dir)?;
    if let Some(title) = &sc.title {
        run.table.title = title.clone();
    }
    run.table.notes.extend(sc.notes.iter().cloned());
    Ok(run)
}

/// Evaluates the scenario's declared predicates against the metric map.
/// A predicate naming a metric the engine never emitted **fails** — a
/// typo must not read as a pass.
pub fn check_asserts(sc: &Scenario, metrics: &BTreeMap<String, f64>) -> Vec<AssertOutcome> {
    sc.asserts
        .iter()
        .map(|p| match p.measure(metrics) {
            Ok(m) => AssertOutcome { text: format!("{p}  (measured {m})"), pass: p.holds(m) },
            Err(why) => AssertOutcome { text: format!("{p}  ({why})"), pass: false },
        })
        .collect()
}

/// Emits one variant's own values as `<metric>_v<i>` — `i` is the
/// variant line's 0-based position — beside the scenario-wide metrics, so
/// a predicate can gate one variant (`"peak_upcall_workers_v3 > 8"`).
fn emit_variant<'a>(
    metrics: &mut BTreeMap<String, f64>,
    i: usize,
    values: impl IntoIterator<Item = (&'a str, f64)>,
) {
    for (name, v) in values {
        metrics.insert(format!("{name}_v{i}"), v);
    }
}

/// Adds every exported registry metric of `snapshots`, merged (counters
/// add, gauges keep the max), under its flattened name. Engine-level names
/// already in `metrics` win any collision.
fn add_registry<'a>(
    metrics: &mut BTreeMap<String, f64>,
    snapshots: impl IntoIterator<Item = &'a Snapshot>,
) {
    let mut merged = Snapshot::default();
    for snap in snapshots {
        merged.merge(snap);
    }
    for (name, v) in merged.flatten() {
        metrics.entry(name).or_insert(v);
    }
}

fn s(x: impl ToString) -> String {
    x.to_string()
}

fn need(sc: &Scenario, t: &TrialSpec, knob: &str, v: Option<u64>) -> Result<u64, String> {
    v.ok_or_else(|| {
        format!(
            "scenario {} ({}): variant {:?} is missing the {knob:?} knob the engine needs",
            sc.name, sc.file, t.variant
        )
    })
}

/// The plan's trials, grouped per variant (expansion is variant-major).
fn per_variant(sc: &Scenario, plan: &Plan) -> Vec<Vec<TrialSpec>> {
    plan.trials.chunks(sc.repeats.max(1) as usize).map(|c| c.to_vec()).collect()
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
    /// Reads whose bytes were neither the seed content nor a version this
    /// trial wrote.
    read_mismatches: u64,
    freshness_fallbacks: u64,
    leftover_links: u64,
    end_lag_drained: bool,
    /// Replication lag (bytes) read after the end-of-trial drain.
    max_lag: u64,
    peak_upcall_workers: u64,
    /// Heads still serving the upcall lanes once the trial has quiesced.
    settled_upcall_workers: u64,
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

/// Every committed link across `nodes`, with its version.
fn link_state(sys: &DataLinksSystem, nodes: &[String]) -> Vec<(String, u64)> {
    let mut files: Vec<(String, u64)> = nodes
        .iter()
        .flat_map(|n| sys.node(n).expect("node").server.repository().list_files())
        .map(|e| (e.path, e.cur_version))
        .collect();
    files.sort();
    files
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
    let read_mismatches = AtomicU64::new(0);
    let seed_content = make_content(file_size);

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
                // Read-your-writes: capture the acked version FIRST, then
                // the freshness token — the token is >= the commit LSN of
                // every acked write, so the routed read must observe a
                // version >= acked.
                let token = match route {
                    ReadRoute::Fresh => Some(f.sys.freshness_token(SRV)?),
                    _ => None,
                };
                let (_, path) = f.sys.select_datalink(
                    TABLE,
                    &Value::Int(file as i64),
                    "body",
                    TokenKind::Read,
                )?;
                let data = match (route, token) {
                    (ReadRoute::Managed, _) => {
                        let fd = fs
                            .open(&APP, &path, OpenOptions::read_only())
                            .map_err(|e| e.to_string())?;
                        let res = fs.read_to_end(fd).map_err(|e| e.to_string());
                        fs.close(fd).map_err(|e| e.to_string())?;
                        res?
                    }
                    (_, Some(token)) => f.sys.serve_read_fresh(SRV, &path, APP.uid, token)?,
                    (_, None) => f.sys.serve_read(SRV, &path, APP.uid)?,
                };
                // The bytes are the seed content or a version some writer
                // of this trial allocated (allocation precedes the write).
                let version = parse_version(&data);
                let known = if version == 0 {
                    data == seed_content
                } else {
                    version <= next_version[file].load(Ordering::Relaxed)
                        && data == versioned_content(version, file_size)
                };
                if !known {
                    read_mismatches.fetch_add(1, Ordering::Relaxed);
                }
                if route == ReadRoute::Fresh && version < acked_version {
                    stale_reads.fetch_add(1, Ordering::Relaxed);
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
        out.max_lag = f.sys.replication_lag(SRV)?;
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
        out.settled_upcall_workers += gauge(format!("dlfm.{name}.upcall_pool.workers")) as u64;
        out.stale_coord_rejections += counter(format!("dlfm.{name}.stale_coord_rejections"));
    }
    out.freshness_fallbacks = counter("engine.freshness_fallbacks".into());
    out.enospc_hits = counter("lab.enospc_hits".into());
    out.snapshot = snap;
    out.ops_ok = ops_ok.into_inner();
    out.ops_failed = ops_failed.into_inner();
    out.stale_reads = stale_reads.into_inner();
    out.read_mismatches = read_mismatches.into_inner();
    Ok(out)
}

/// The engine-level metrics of a set of mixed trials — one variant's, or
/// the whole scenario's: counters add, gauges keep the max, invariant
/// flags keep the min, `ops_s` is the mean of the trials' rates, and the
/// `op_*_ms` latencies come off the merged `lab.op_latency_ns`.
fn mixed_metrics(outcomes: &[MixedOutcome]) -> BTreeMap<&'static str, f64> {
    let sum = |f: fn(&MixedOutcome) -> u64| outcomes.iter().map(f).sum::<u64>() as f64;
    let max = |f: fn(&MixedOutcome) -> f64| outcomes.iter().map(f).fold(0.0, f64::max);
    let mut lat = HistogramSnapshot::default();
    for o in outcomes {
        if let Some(h) = o.snapshot.histograms.get("lab.op_latency_ns") {
            lat.merge(h);
        }
    }
    let rates: f64 = outcomes
        .iter()
        .map(|o| (o.ops_ok + o.ops_failed) as f64 / o.busy.as_secs_f64().max(1e-9))
        .sum();
    let peak_workers = max(|o| o.peak_upcall_workers as f64);
    BTreeMap::from([
        ("ops_ok", sum(|o| o.ops_ok)),
        ("ops_failed", sum(|o| o.ops_failed)),
        ("ops_s", rates / outcomes.len().max(1) as f64),
        ("worker_panics", sum(|o| o.worker_panics)),
        ("failovers", sum(|o| o.failovers)),
        ("host_failovers", sum(|o| o.host_failovers)),
        ("lost_acked_links", sum(|o| o.lost_acked_links)),
        ("outage_reads_ok", sum(|o| o.outage_reads_ok)),
        ("in_doubt_resolved", sum(|o| o.in_doubt_resolved)),
        ("stale_coord_rejections", sum(|o| o.stale_coord_rejections)),
        ("enospc_hits", sum(|o| o.enospc_hits)),
        ("torn_commits_lost", sum(|o| o.torn_commits_lost)),
        ("torn_pre_commit_survived", sum(|o| o.torn_pre_commit_survived)),
        ("stale_reads", sum(|o| o.stale_reads)),
        ("read_mismatches", sum(|o| o.read_mismatches)),
        ("freshness_fallbacks", sum(|o| o.freshness_fallbacks)),
        ("leftover_links", sum(|o| o.leftover_links)),
        ("failover_ms", max(|o| o.failover_ms)),
        ("host_failover_ms", max(|o| o.host_failover_ms)),
        ("max_lag", max(|o| o.max_lag as f64)),
        ("peak_upcall_workers", peak_workers),
        // The only OS-thread pool a mixed trial can grow without bound is
        // the upcall lane — exposed under a generic name as well.
        ("max_os_threads", peak_workers),
        ("settled_upcall_workers", max(|o| o.settled_upcall_workers as f64)),
        ("end_lag_drained", f64::from(u8::from(outcomes.iter().all(|o| o.end_lag_drained)))),
        ("op_p50_ms", lat.percentile(0.50) as f64 / 1e6),
        ("op_p99_ms", lat.percentile(0.99) as f64 / 1e6),
        ("op_mean_ms", lat.mean() / 1e6),
    ])
}

fn mixed(
    sc: &Scenario,
    plan: &Plan,
    flight_dump_dir: Option<&Path>,
) -> Result<ScenarioRun, String> {
    let mut rows = Vec::new();
    let mut metrics = BTreeMap::new();
    let mut all = Vec::new();
    for (i, trials) in per_variant(sc, plan).iter().enumerate() {
        let outcomes: Vec<MixedOutcome> =
            trials.iter().map(|t| mixed_trial(sc, t, flight_dump_dir)).collect::<Result<_, _>>()?;
        let variant = mixed_metrics(&outcomes);
        let events = outcomes.iter().map(|o| &o.events).find(|e| !e.is_empty());
        rows.push(vec![
            trials[0].variant.clone(),
            s(trials[0].params.clients.unwrap_or(4)),
            s(format!("{:.0}", variant["ops_s"])),
            fmt_ns(variant["op_p99_ms"] * 1e6),
            s(variant["ops_ok"]),
            s(variant["ops_failed"]),
            s(variant["peak_upcall_workers"]),
            events.map_or(s("--"), |e| e.join("; ")),
        ]);
        emit_variant(&mut metrics, i, variant);
        all.extend(outcomes);
    }
    metrics.extend(mixed_metrics(&all).into_iter().map(|(k, v)| (k.to_string(), v)));
    add_registry(&mut metrics, all.iter().map(|o| &o.snapshot));
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
                s("peak heads"),
                s("events"),
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
            r#"{"scenario":"m","seed":7,"#,
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
                r#"{"scenario":"m","seed":7,"#,
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
    fn each_variant_emits_its_own_metrics() {
        let text = concat!(
            r#"{"scenario":"v","seed":4,"#,
            r#""params":{"clients":2,"ops":4,"write_ratio":0.5,"file_size":64},"#,
            r#""assert":["ops_ok_v1 == 16","ops_failed_v0 > 0","ops_ok_v2 > 0"]}"#,
            "\n",
            r#"{"variant":"two","params":{"clients":2}}"#,
            "\n",
            r#"{"variant":"four","params":{"clients":4}}"#,
        );
        let run = run(text);
        // Each variant's values beside the scenario-wide aggregate.
        assert_eq!(run.metrics["ops_ok_v0"], 8.0);
        assert_eq!(run.metrics["ops_ok_v1"], 16.0);
        assert_eq!(run.metrics["ops_ok"], 24.0);
        assert!(run.metrics["ops_s_v0"] > 0.0 && run.metrics["ops_s_v1"] > 0.0);
        assert_eq!(run.metrics["read_mismatches_v1"], 0.0);
        let sc = parse_scenario("test.jsonl", text).unwrap();
        let outcomes = check_asserts(&sc, &run.metrics);
        assert!(outcomes[0].pass, "{}", outcomes[0].text);
        assert!(outcomes[0].text.contains("(measured 16)"), "{}", outcomes[0].text);
        assert!(
            !outcomes[1].pass && outcomes[1].text.contains("measured 0"),
            "{}",
            outcomes[1].text
        );
        // A variant index past the last line names a metric never emitted.
        assert!(!outcomes[2].pass && outcomes[2].text.contains("\"ops_ok_v2\" was not emitted"));
    }

    #[test]
    fn kill_injection_panics_workers_and_fails_only_those_ops() {
        let run = run(concat!(
            r#"{"scenario":"k","seed":3,"#,
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
            r#"{"scenario":"sr","seed":11,"#,
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
            r#"{"scenario":"ms","seed":5,"#,
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
