//! The scenario-lab engine: drives `dl-lab` trial plans against a live
//! [`DataLinksSystem`] and renders the results through the same
//! [`Table`] / `BENCH_<id>.json` pipeline as the `report` binary.
//!
//! A scenario's [`Kind`] selects the engine loop:
//!
//! * [`Kind::Mixed`] — the generic client-mix loop (writes, link/unlink
//!   churn, reads on any route) over any topology (replicas, host
//!   standbys, shards, upcall lane width), with fault-injection points
//!   (crash the primary or the host at op N, stall/resume a standby, kill
//!   upcall workers, exhaust the repository or host disk, shear the host
//!   WAL tail at a crash boundary). a10 (routed reads across a failover)
//!   and a12 (upcall bursts through a narrow and a wide lane, agent churn)
//!   are mixed scenarios.
//! * [`Kind::Sharding`] — the a13 sweep: write-cycle throughput vs shard
//!   count through the sharded DLFM front, per-commit-sync repository WALs
//!   beside a free host device, fan-out proven off the per-shard registry
//!   counters.
//! * [`Kind::WireFrontEnd`] — the a14 arms: connection-scale churn over
//!   real Unix sockets (`Transport::Socket`) held open at once, with a
//!   `sever_connections` injection cutting live connections mid-2PC; the
//!   in-doubt claims must resolve by presumed abort with zero atomicity
//!   violations, proven off the `net.*` registry instruments.
//!
//! Group commit (a9) and checkpoint shipping (a11) have no engine: their
//! gates are counts in tier-1 tests — device syncs per commit and per
//! update cycle in `tests/group_commit.rs`, log bytes, installs and
//! records shipped in `tests/replication.rs` — and their rates are the
//! repo benchmark's to measure.
//!
//! An engine measures; it does not judge. Its metric map holds
//! scenario-wide aggregates — counters summed over every trial, gauges
//! (`failover_ms`, `max_os_threads`, ...) at their max, invariant flags
//! (`end_lag_drained`, ...) at their min, so one bad trial fails the
//! predicate — and, beside them, each variant's own values as
//! `<metric>_v<i>` (`i` is the variant line's 0-based position, the value
//! is what the variant's row reports, a rate the mean over repeats). A
//! comparison between variants is a ratio predicate in
//! the scenario file (`"ops_s_v3 / ops_s_v1 >= 1"`), evaluated by
//! [`check_asserts`] — the lab's only gate. Row labels come verbatim from
//! the scenario's variant labels.
//!
//! The mixed, sharding and wire engines additionally capture the system's
//! telemetry snapshot ([`DataLinksSystem::metrics`]) at the end of every
//! trial. Snapshots merge across trials ([`Snapshot::merge`]: counters
//! add, gauges keep the max, histograms merge bucket-wise) and flatten
//! into the same metric map ([`Snapshot::flatten`]), so a scenario
//! predicate can name any exported registry metric —
//! `dlfm_srv1_stale_coord_rejections`, `engine_freshness_wait_ns_p99`,
//! `repl_srv1_records_shipped`, ... — exactly as it appears in the text
//! exposition. Per-op latency rides the same pipe as the
//! `lab.op_latency_ns` histogram, surfaced as `op_p50_ms` / `op_p99_ms` /
//! `op_mean_ms` beside the mean-rate columns.

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
use dl_minidb::{Column, ColumnType, DbOptions, Schema, StorageEnv, Value, WalOptions};
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
/// typo must not read as a pass — and so does a ratio over a zero
/// denominator. A ratio prints both operands.
pub fn check_asserts(sc: &Scenario, metrics: &BTreeMap<String, f64>) -> Vec<AssertOutcome> {
    sc.asserts
        .iter()
        .map(|p| match p.measure(metrics) {
            Ok(m) => {
                let operands = match &p.per {
                    Some(per) => format!(" = {} / {}", metrics[&p.metric], metrics[per]),
                    None => String::new(),
                };
                AssertOutcome { text: format!("{p}  (measured {m}{operands})"), pass: p.holds(m) }
            }
            Err(why) => AssertOutcome { text: format!("{p}  ({why})"), pass: false },
        })
        .collect()
}

/// Emits one variant's own values as `<metric>_v<i>` — `i` is the
/// variant line's 0-based position — beside the scenario-wide metrics, so
/// a predicate can compare variants (`"write_rate_v2 / write_rate_v0 >=
/// 2.5"`).
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
    let mut snapshots = Vec::new();
    let p0 = &plan.trials[0].params;
    let (title_threads, title_cycles, title_sync) =
        (p0.threads.unwrap_or(8), p0.cycles.unwrap_or(8), p0.sync_latency_us.unwrap_or(0));
    for (i, trials) in per_variant(sc, plan).iter().enumerate() {
        let t0 = &trials[0];
        let p = &t0.params;
        let shards = need(sc, t0, "shards", p.shards)? as usize;
        let threads = need(sc, t0, "threads", p.threads)? as usize;
        let cycles = need(sc, t0, "cycles", p.cycles)? as usize;
        let file_size = p.file_size.unwrap_or(1024) as usize;
        let sync_ns = p.sync_latency_us.unwrap_or(0) * 1000;
        let (mut rate_sum, mut busy_min) = (0.0f64, u64::MAX);
        for _ in trials {
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
            snapshots.push(snap);
        }
        let rate = rate_sum / trials.len() as f64;
        emit_variant(&mut metrics, i, [("write_rate", rate), ("busy_shards", busy_min as f64)]);
        rows.push(vec![t0.variant.clone(), s(shards), s(format!("{rate:.0}")), s(busy_min)]);
    }
    // The per-shard router counters included (`engine_shard_srv1_s0_routed`).
    add_registry(&mut metrics, &snapshots);
    Ok(ScenarioRun {
        table: Table {
            id: sc.name.clone(),
            title: format!(
                "sharded write scale-out: update cycles/s vs shard count \
                 ({title_threads} writers x {title_cycles} cycles, per-commit sync, \
                 {title_sync} µs device sync)"
            ),
            header: vec![s("shards"), s("shard nodes"), s("write cyc/s"), s("busy shards")],
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

/// The file agent `i` of a churn arm links and unlinks.
fn churn_path(i: usize) -> String {
    format!("/data/wchurn{i:04}.bin")
}

/// Drives `cycles` churn rounds through each of `agents` (agent `i` on
/// [`churn_path`]`(i)`, seeded by the caller), multiplexed over 16
/// threads; link and unlink operations per second.
fn churn_rate(agents: &[DlfmClient], cycles: usize) -> f64 {
    let threads = 16.min(agents.len().max(1));
    let elapsed = run_threads(threads, |t| {
        for (i, agent) in agents.iter().enumerate() {
            if i % threads != t {
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

/// The connections a trial's `sever_connections` injections cut, in all.
fn severed_connections(p: &Params) -> usize {
    let injections = p.injections.as_deref().unwrap_or_default();
    injections
        .iter()
        .map(|i| match i.action {
            InjectAction::SeverConnections { count } => count as usize,
            _ => 0,
        })
        .sum()
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
    let sever = severed_connections(p);
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

/// The metrics of a set of a14 trials — one variant's, or the whole
/// scenario's: counts add, peaks keep the max, `wire_ops_s` is the mean
/// of the trials' rates.
fn wire_metrics(outcomes: &[WireOutcome]) -> BTreeMap<&'static str, f64> {
    let sum = |f: fn(&WireOutcome) -> u64| outcomes.iter().map(f).sum::<u64>() as f64;
    let max = |f: fn(&WireOutcome) -> f64| outcomes.iter().map(f).fold(0.0, f64::max);
    BTreeMap::from([
        ("wire_ops_s", outcomes.iter().map(|o| o.rate).sum::<f64>() / outcomes.len() as f64),
        ("peak_connections", max(|o| o.peak_connections)),
        ("executor_peak_threads", max(|o| o.executor_peak_threads as f64)),
        ("severed", sum(|o| o.severed)),
        ("presumed_aborts", sum(|o| o.presumed_aborts)),
        ("atomicity_violations", sum(|o| o.atomicity_violations)),
    ])
}

fn wire_front_end(sc: &Scenario, plan: &Plan) -> Result<ScenarioRun, String> {
    let mut rows = Vec::new();
    let mut metrics = BTreeMap::new();
    let p0 = &plan.trials[0].params;
    let (title_agents, title_cycles) = (p0.agents.unwrap_or(0), p0.cycles.unwrap_or(1));

    // The in-process baseline the wire path is budgeted against: the same
    // churn workload shape as the first variant, over `Transport::Local`.
    let base_workers = (p0.agents.unwrap_or(64) as usize).saturating_sub(severed_connections(p0));
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

    let mut all = Vec::new();
    for (i, trials) in per_variant(sc, plan).iter().enumerate() {
        let outcomes: Vec<WireOutcome> =
            trials.iter().map(|t| wire_trial(sc, t)).collect::<Result<_, _>>()?;
        let variant = wire_metrics(&outcomes);
        rows.push(vec![
            trials[0].variant.clone(),
            s(trials[0].params.agents.unwrap_or(0)),
            s(format!("{:.0}", variant["wire_ops_s"])),
            s(variant["peak_connections"]),
            s(variant["executor_peak_threads"]),
            s(format!(
                "{} severed mid-2PC, {} presumed aborts",
                variant["severed"], variant["presumed_aborts"]
            )),
        ]);
        emit_variant(&mut metrics, i, variant);
        all.extend(outcomes);
    }
    metrics.extend(wire_metrics(&all).into_iter().map(|(k, v)| (k.to_string(), v)));
    // The `net.*` frame counters and round-trip histogram included.
    add_registry(&mut metrics, all.iter().map(|o| &o.snapshot));
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
    fn each_variant_emits_its_own_metrics_and_ratios_compare_them() {
        let text = concat!(
            r#"{"scenario":"v","kind":"mixed","seed":4,"#,
            r#""params":{"clients":2,"ops":4,"write_ratio":0.5,"file_size":64},"#,
            r#""assert":["ops_ok_v1 / ops_ok_v0 == 2","ops_s_v0 / ops_failed_v0 > 0","#,
            r#""ops_ok_v0 / no_such_metric > 0"]}"#,
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
        assert!(outcomes[0].text.contains("= 16 / 8"), "both operands print: {}", outcomes[0].text);
        assert!(!outcomes[1].pass && outcomes[1].text.contains("is 0"), "{}", outcomes[1].text);
        assert!(!outcomes[2].pass && outcomes[2].text.contains("no_such_metric"));
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
