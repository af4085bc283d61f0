//! The mixed driver: one client mix (writes, link/unlink churn, reads on
//! any route) over any topology (replicas, host standbys, shards, upcall
//! lane width), with faults injected at op boundaries — crash the primary
//! or the host, stall and resume a standby, kill upcall workers, exhaust
//! the repository or host disk, shear the host WAL tail at a crash
//! boundary. `tests/fault_matrix.rs` runs it once per fault scenario and
//! judges; the driver only measures.
//!
//! [`run`] returns one flat metric map: the driver's own counts
//! (`ops_failed`, `lost_acked_links`, `read_mismatches`, `leftover_links`,
//! ...) beside every metric of the system's telemetry snapshot under its
//! flattened exposition name (`dlfm_srv1_stale_coord_rejections`,
//! `engine_freshness_wait_ns_p99`, ...). Per-op latency rides the same
//! snapshot as the `lab.op_latency_ns` histogram. It counts; rates are the
//! repo benchmark's to measure.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dl_core::{ControlMode, DataLinksSystem, ShardRouter, TokenKind};
use dl_dlfm::{AgentConnection, FaultInjector, Message, OnUnlink};
use dl_fskit::OpenOptions;
use dl_minidb::{Column, ColumnType, Schema, Value};
use dl_obs::Histogram;

use crate::{
    fixture_with_faults, make_content, run_threads, time_once, Fixture, FixtureOptions, APP, SRV,
    TABLE,
};

/// How the driver routes its reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadRoute {
    /// Token-gated open/read/close on the primary (no replicas involved).
    Managed,
    /// `serve_read`: round-robin over standbys with primary fallback.
    Routed,
    /// `serve_read_fresh` with a freshness token (read-your-writes).
    Fresh,
}

/// A fault injected at a global op boundary.
#[derive(Debug, PartialEq)]
pub enum Fault {
    /// Crash the first shard's primary DLFM node and fail over to a
    /// promoted standby; its recovery report is counted
    /// (`failover_files_relinked`, `failover_updates_rolled_forward`).
    CrashPrimary,
    /// Pause WAL shipping to the standbys (they start lagging).
    StallStandby,
    /// Resume WAL shipping after a [`Fault::StallStandby`].
    ResumeStandby,
    /// Make the next `count` admission upcalls panic on the thread serving
    /// them.
    KillUpcallWorkers { count: u64 },
    /// Crash the host database (the 2PC coordinator) with one link branch
    /// voted and undecided, and fail over to a promoted host standby,
    /// serving reads through the fenced outage.
    CrashHost,
    /// The next `writes` writes against the repository's storage fail with
    /// ENOSPC; then the disk frees up.
    DiskEnospc { writes: u64 },
    /// Commit a probe pair on the host, arm a torn tail over the second
    /// commit's WAL bytes, then crash and recover the whole system:
    /// recovery must lose exactly the torn probe.
    TornHostWal,
}

/// The shape of one run: test inputs, not system knobs.
#[derive(Debug)]
pub struct Mix {
    /// Client threads; op `g` runs on client `g % clients`. One linked
    /// file per client.
    pub clients: u64,
    /// Ops per client.
    pub ops: u64,
    pub file_size: usize,
    /// The share of ops that update the client's own file ...
    pub write_ratio: f64,
    /// ... and the share that link and unlink a fresh file over an agent
    /// connection of their own. The rest are reads.
    pub churn_ratio: f64,
    /// Hot standbys per DLFM node.
    pub replicas: usize,
    /// Hot standbys of the host database.
    pub host_replicas: usize,
    /// DLFM namespace shards behind the node.
    pub shards: usize,
    pub read_route: ReadRoute,
    /// Device sync cost of the host and repository logs.
    pub sync_latency_us: u64,
    /// Width of the upcall lane; `None` keeps the `DlfmConfig` default.
    pub pool_max: Option<usize>,
    /// Seeds the op stream: op `g`'s kind and file are a function of
    /// `(seed, g)` alone, so a fault boundary never changes them.
    pub seed: u64,
}

impl Default for Mix {
    fn default() -> Self {
        Mix {
            clients: 4,
            ops: 10,
            file_size: 1024,
            write_ratio: 0.0,
            churn_ratio: 0.0,
            replicas: 0,
            host_replicas: 0,
            shards: 1,
            read_route: ReadRoute::Managed,
            sync_latency_us: 0,
            pool_max: None,
            seed: 0,
        }
    }
}

/// A small deterministic RNG for the op stream (xorshift64*, seeded
/// through one splitmix64 step so adjacent seeds diverge at once).
struct LabRng(u64);

impl LabRng {
    fn new(seed: u64) -> LabRng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        LabRng((z ^ (z >> 31)).max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `0..n` (n must be non-zero).
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform ratio in `[0, 1)`.
    fn ratio(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The operation chosen for global op index `g`.
enum Op {
    Write { file: usize },
    Churn,
    Read { file: usize },
}

fn pick_op(mix: &Mix, g: u64, client: u64) -> Op {
    let mut rng = LabRng::new(mix.seed ^ g.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let roll = rng.ratio();
    // A client writes only its own file — no write/write races, so an
    // acked version is the file's version until the owner overwrites it.
    if roll < mix.write_ratio {
        Op::Write { file: client as usize }
    } else if roll < mix.write_ratio + mix.churn_ratio {
        Op::Churn
    } else {
        Op::Read { file: rng.below(mix.clients) as usize }
    }
}

/// Versioned payload for `file`: a parseable 20-digit version prefix,
/// padded to `file_size`.
fn versioned_content(version: u64, file_size: usize) -> Vec<u8> {
    let mut out = format!("{version:020}").into_bytes();
    out.resize(file_size.max(out.len()), b'v');
    out
}

fn parse_version(data: &[u8]) -> u64 {
    let prefix = data.get(..20).and_then(|p| std::str::from_utf8(p).ok());
    prefix.and_then(|t| t.parse().ok()).unwrap_or(0)
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

/// Adds `v` to the metric `name` (`max`: keeps the larger of the two).
fn add(m: &mut BTreeMap<String, f64>, name: &str, v: f64, max: bool) {
    let e = m.entry(name.to_string()).or_default();
    *e = if max { e.max(v) } else { *e + v };
}

/// Drives `mix` against a fresh system, applying each `(at_op, fault)`
/// once `at_op` ops have run (faults in op order; an `at_op` past the end
/// fires after the last op). A system that crashes writes its
/// flight-recorder dumps into `flight_dump_dir`.
pub fn run(
    mix: &Mix,
    faults: &[(u64, Fault)],
    flight_dump_dir: Option<&Path>,
) -> Result<BTreeMap<String, f64>, String> {
    let clients = mix.clients;
    let n_files = clients;
    let (file_size, shards, route) = (mix.file_size, mix.shards, mix.read_route);

    // With `shards > 1` the fixture builds the sharded front, nodes
    // register as `<srv>.s<i>` and every node-addressed step below routes
    // by the file's owning shard.
    let router = ShardRouter::new(SRV, shards);
    let node_name = |i| if shards > 1 { ShardRouter::shard_name(SRV, i) } else { SRV.to_string() };
    let node_names: Vec<String> = (0..shards.max(1)).map(node_name).collect();
    let owner = |path: &str| node_name(router.shard_of(path));

    // The kill_upcall_workers injection point: an armed countdown the
    // upcall fault hook decrements — while positive, admission upcalls
    // panic on the thread serving them (in-process, the client's own;
    // containment turns that into a `Rejected` reply: the op fails, the
    // client thread and the daemon live).
    let armed = Arc::new(AtomicI64::new(0));
    let kills = faults.iter().any(|(_, f)| matches!(f, Fault::KillUpcallWorkers { .. }));
    let upcall_fault = kills.then(|| {
        let armed = Arc::clone(&armed);
        Arc::new(move |req: &Message| {
            if matches!(req, Message::ValidateToken { .. } | Message::OpenCheck { .. })
                && armed.load(Ordering::Relaxed) > 0
                && armed.fetch_sub(1, Ordering::Relaxed) > 0
            {
                panic!("mixed: injected upcall worker kill");
            }
        }) as FaultInjector
    });

    // A fault layer under the repository's storage for `DiskEnospc`, and
    // one under the host database's for `TornHostWal`.
    let repo_faults = faults
        .iter()
        .any(|(_, f)| matches!(f, Fault::DiskEnospc { .. }))
        .then(dl_minidb::DiskFaults::new);
    let host_faults =
        faults.iter().any(|(_, f)| *f == Fault::TornHostWal).then(dl_minidb::DiskFaults::new);

    let (mut f, host_env) = fixture_with_faults(
        FixtureOptions {
            n_files: n_files as usize,
            file_size,
            replicas: mix.replicas,
            host_replicas: mix.host_replicas,
            shards,
            sync_archive: true,
            db_sync_latency_ns: mix.sync_latency_us * 1000,
            upcall_pool: mix.pool_max,
            ..Default::default()
        },
        upcall_fault,
        repo_faults.clone(),
        host_faults.clone(),
        flight_dump_dir,
    );

    // Per-op latency, adopted into the system registry so it rides the
    // exported snapshot (`lab.op_latency_ns` flattens to
    // `lab_op_latency_ns_count`, `_p99`, ...).
    let op_latency = Arc::new(Histogram::new());
    f.sys.registry().register_histogram("lab.op_latency_ns", Arc::clone(&op_latency));

    // What the faults tally, zero until one fires.
    let mut m: BTreeMap<String, f64> = "failovers host_failovers lost_acked_links outage_reads_ok \
        in_doubt_resolved torn_commits_lost torn_pre_commit_survived failover_ms host_failover_ms \
        failover_files_relinked failover_updates_rolled_forward"
        .split_whitespace()
        .map(|k| (k.to_string(), 0.0))
        .collect();
    let total = clients * mix.ops;
    // Acked state per file: highest version whose update the client saw
    // complete (archive included). Fresh reads must observe >= this.
    let acked: Vec<AtomicU64> = (0..n_files).map(|_| AtomicU64::new(0)).collect();
    let next_version: Vec<AtomicU64> = (0..n_files).map(|_| AtomicU64::new(0)).collect();
    let [ops_ok, ops_failed, stale_reads, read_mismatches] = [(); 4].map(|_| AtomicU64::new(0));
    let seed_content = make_content(file_size);

    let run_op = |g: u64, client: u64, f: &Fixture| -> Result<(), String> {
        let fs = f.sys.fs(SRV)?;
        match pick_op(mix, g, client) {
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
                // Link → commit → unlink → commit, under host transactions
                // `link_tx` and `link_tx + 1`.
                let link_tx = 2_000_000 + 2 * g;
                let cycle = (|| -> Result<(), String> {
                    agent.link(link_tx, &path, ControlMode::Rff, true, OnUnlink::Restore)?;
                    agent.commit(link_tx);
                    agent.unlink(link_tx + 1, &path)?;
                    agent.commit(link_tx + 1);
                    Ok(())
                })();
                if cycle.is_err() && node.server.repository().get_file(&path).is_some() {
                    // The link committed and the unlink failed: a full
                    // repository disk fails an unlink's forced intent,
                    // while a link's vote writes nothing there. The client
                    // retries the unlink, as an application retries a failed
                    // DELETE, until the disk frees up; the op still counts
                    // as failed.
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
                // of this run allocated (allocation precedes the write).
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

    // Segmented execution: run the clients up to each fault's op boundary,
    // join, apply the fault with exclusive access to the system, resume.
    let mut faults: Vec<(u64, &Fault)> =
        faults.iter().map(|(at, x)| ((*at).min(total), x)).collect();
    faults.sort_by_key(|(at, _)| *at);
    let mut start = 0u64;
    let mut torn_probes = 0i64;
    for (end, fault) in faults.into_iter().map(|(at, x)| (at, Some(x))).chain([(total, None)]) {
        if end > start {
            run_threads(clients as usize, |c| {
                let c = c as u64;
                for g in (start..end).filter(|g| g % clients == c) {
                    let started = Instant::now();
                    let counter = if run_op(g, c, &f).is_ok() { &ops_ok } else { &ops_failed };
                    counter.fetch_add(1, Ordering::Relaxed);
                    op_latency.record_duration(started.elapsed());
                }
            });
            start = end;
        }
        let Some(fault) = fault else { break };
        match fault {
            Fault::CrashPrimary => {
                // With shards the victim is the first shard's primary; the
                // other shards keep serving through its outage.
                let victim = node_names[0].clone();
                if f.sys.node(&victim)?.replication.is_none() {
                    return Err(format!("crash_primary at op {end} needs replicas >= 1"));
                }
                // Only acked (committed + shipped) state is owed across the
                // failover; drain the ship lag the same way a real
                // controlled promotion of a caught-up standby would.
                f.sys.wait_replicas_caught_up(SRV, Duration::from_secs(30))?;
                let before = link_state(&f.sys, &node_names);
                let started = Instant::now();
                let report = f.sys.fail_over(&victim)?;
                let dur = started.elapsed();
                let after = link_state(&f.sys, &node_names);
                let lost = before.iter().filter(|e| !after.contains(e)).count();
                add(&mut m, "failovers", 1.0, false);
                add(&mut m, "lost_acked_links", lost as f64, false);
                add(&mut m, "failover_ms", dur.as_nanos() as f64 / 1e6, true);
                // What the promotion had to re-derive from the host rows:
                // a standby that applied every shipped record needs nothing.
                add(&mut m, "failover_files_relinked", report.files_relinked as f64, false);
                let forward = report.updates_rolled_forward as f64;
                add(&mut m, "failover_updates_rolled_forward", forward, false);
            }
            Fault::StallStandby => f.sys.set_replication_paused(SRV, true)?,
            Fault::ResumeStandby => f.sys.set_replication_paused(SRV, false)?,
            Fault::KillUpcallWorkers { count } => {
                armed.fetch_add(*count as i64, Ordering::Relaxed);
            }
            Fault::CrashHost => {
                if f.sys.host_replication().is_none() {
                    return Err(format!("crash_host at op {end} needs host_replicas >= 1"));
                }
                // Only acked (committed + shipped) state is owed across a
                // host failover; drain the ship lag the way a controlled
                // promotion of a caught-up standby would.
                if !f.sys.wait_host_replicas_caught_up(Duration::from_secs(30)) {
                    return Err("host replication lag did not drain before crash_host".into());
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
                // One link branch voted and undecided: a host transaction
                // links a fresh churn file and never commits. The crash
                // takes its decision with the coordinator, and the
                // promotion must settle the branch by the promoted rows.
                let doubt = "/data/churn_in_doubt.bin";
                f.sys.raw_fs(SRV)?.write_file(&APP, doubt, b"churn").map_err(|e| e.to_string())?;
                let mut tx = f.sys.begin();
                let row = vec![Value::Int(-1), Value::DataLink(format!("dlfs://{SRV}{doubt}"))];
                tx.insert(TABLE, row).map_err(|e| e.to_string())?;
                std::mem::forget(tx);
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
                let lost = before.iter().filter(|e| !after.contains(e)).count();
                add(&mut m, "host_failovers", 1.0, false);
                add(&mut m, "lost_acked_links", lost as f64, false);
                add(&mut m, "outage_reads_ok", outage_reads as f64, false);
                add(&mut m, "in_doubt_resolved", resolved as f64, false);
                add(&mut m, "host_failover_ms", dur.as_nanos() as f64 / 1e6, true);
            }
            Fault::DiskEnospc { writes } => repo_faults
                .as_ref()
                .expect("disk_enospc arms its fault layer")
                .inject_enospc(*writes),
            Fault::TornHostWal => {
                let faults = host_faults.as_ref().expect("torn_host_wal arms the host fault layer");
                // A probe pair on a table of its own: one commit that must
                // survive the shear, then one whose exact WAL footprint the
                // armed tear covers. The live process believes both are
                // durable — only the crash reveals the torn tail.
                if torn_probes == 0 {
                    let cols = vec![
                        Column::new("id", ColumnType::Int),
                        Column::new("v", ColumnType::Text),
                    ];
                    let schema = Schema::new("lab_torn", cols, "id").map_err(|e| e.to_string())?;
                    f.sys.create_table(schema).map_err(|e| e.to_string())?;
                }
                let seq = 2 * torn_probes;
                torn_probes += 1;
                let probe = |id: i64, v: &str| {
                    let mut tx = f.sys.begin();
                    tx.insert("lab_torn", vec![Value::Int(id), Value::Text(v.into())])?;
                    tx.commit()
                };
                probe(seq, "pre").map_err(|e| e.to_string())?;
                let wal = host_env.device("wal").map_err(|e| e.to_string())?;
                let before = wal.len().map_err(|e| e.to_string())?;
                probe(seq + 1, "torn").map_err(|e| e.to_string())?;
                faults.arm_torn_tail("wal", wal.len().map_err(|e| e.to_string())? - before);
                // Crash the whole system and recover it; the remaining
                // segments then run against the recovered stack.
                let (sys, _) = DataLinksSystem::recover(f.sys.crash())?;
                f = Fixture { sys, paths: f.paths };
                // Recovery rebuilds the registry; re-adopt the latency
                // histogram so it keeps riding the snapshot.
                f.sys.registry().register_histogram("lab.op_latency_ns", Arc::clone(&op_latency));
                let db = f.sys.db();
                let survived = |id: i64| {
                    db.get_committed("lab_torn", &Value::Int(id)).map(|row| row.is_some())
                };
                let pre = survived(seq).map_err(|e| e.to_string())?;
                let torn = survived(seq + 1).map_err(|e| e.to_string())?;
                add(&mut m, "torn_pre_commit_survived", f64::from(u8::from(pre)), false);
                add(&mut m, "torn_commits_lost", f64::from(u8::from(!torn)), false);
            }
        }
    }

    // Settle: resume any stalled shipping and drain the lag, so the run
    // ends with a consistent system.
    let any_replicated = node_names
        .iter()
        .any(|n| f.sys.node(n).map(|node| node.replication.is_some()).unwrap_or(false));
    let (mut end_lag_drained, mut max_lag) = (true, 0);
    if any_replicated {
        f.sys.set_replication_paused(SRV, false)?;
        end_lag_drained = f.sys.wait_replicas_caught_up(SRV, Duration::from_secs(30))?;
        max_lag = f.sys.replication_lag(SRV)?;
    }
    let linked: usize = node_names
        .iter()
        .map(|n| f.sys.node(n).map(|node| node.server.repository().list_files().len()).unwrap_or(0))
        .sum();
    let enospc_hits = repo_faults.as_ref().map_or(0, |d| d.enospc_hits());

    // The last flight dump's 2PC span trail, as countable metrics: a test
    // can pin that the crash left (say) fenced decide spans in the
    // recorder without string-matching the dump itself.
    let dump = f.sys.last_flight_dump().unwrap_or_default();
    for stage in ["claim", "decide", "fence_raise", "fence_reject", "archive"] {
        let events = dump.matches(stage).count() as u64;
        f.sys.registry().counter(&format!("lab.flight_{stage}_events")).add(events);
    }

    // Park the upcall lanes first: a killed worker reports its failure to
    // the waiting client before it finishes unwinding, so without the
    // quiesce the lane's panic gauge can lag the last failed op.
    f.sys.quiesce_upcalls(Duration::from_secs(5));
    let snap = f.sys.metrics();
    let fallbacks = snap.counters.get("engine.freshness_fallbacks").copied().unwrap_or(0);
    let gauge = |name: String| snap.gauges.get(&name).copied().unwrap_or(0.0);
    let (mut panics, mut peak_workers, mut settled) = (0.0, 0.0f64, 0.0);
    for name in &node_names {
        panics += gauge(format!("dlfm.{name}.upcall_pool.panics"));
        peak_workers = peak_workers.max(gauge(format!("dlfm.{name}.upcall_pool.peak_workers")));
        settled += gauge(format!("dlfm.{name}.upcall_pool.workers"));
    }
    let lat = snap.histograms.get("lab.op_latency_ns").cloned().unwrap_or_default();
    let count = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
    m.extend(
        [
            ("ops_ok", count(&ops_ok)),
            ("ops_failed", count(&ops_failed)),
            ("stale_reads", count(&stale_reads)),
            ("read_mismatches", count(&read_mismatches)),
            ("leftover_links", linked.saturating_sub(n_files as usize) as f64),
            ("end_lag_drained", f64::from(u8::from(end_lag_drained))),
            // Replication lag (bytes) read after the end-of-run drain.
            ("max_lag", max_lag as f64),
            ("worker_panics", panics),
            ("peak_upcall_workers", peak_workers),
            // The upcall lane's peak again, under the name
            // `link_churn_storm` gates (churn makes no upcall: it reads 0).
            ("max_os_threads", peak_workers),
            // Heads still serving the upcall lanes once the run quiesced.
            ("settled_upcall_workers", settled),
            ("freshness_fallbacks", fallbacks as f64),
            ("enospc_hits", enospc_hits as f64),
            ("op_p99_ms", lat.percentile(0.99) as f64 / 1e6),
        ]
        .map(|(k, v)| (k.to_string(), v)),
    );
    // Every exported registry metric under its flattened name; the
    // driver's own names win a collision.
    for (name, v) in snap.flatten() {
        m.entry(name).or_insert(v);
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_op_is_independent_of_segmentation() {
        let mix = Mix { seed: 42, write_ratio: 0.3, churn_ratio: 0.2, ..Default::default() };
        for g in 0..64u64 {
            let a = pick_op(&mix, g, g % 4);
            let b = pick_op(&mix, g, g % 4);
            let tag = |o: &Op| match o {
                Op::Write { file } => ("w", *file),
                Op::Churn => ("c", 0),
                Op::Read { file } => ("r", *file),
            };
            assert_eq!(tag(&a), tag(&b));
            if let Op::Write { file } = a {
                assert_eq!(file as u64, g % 4, "writers only touch their own file");
            }
        }
    }

    #[test]
    fn lab_rng_is_deterministic_and_spread() {
        let mut a = LabRng::new(7);
        let mut b = LabRng::new(7);
        let mut c = LabRng::new(8);
        let first: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(first, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(first[0], c.next_u64(), "adjacent seeds must diverge");
        let r = c.ratio();
        assert!((0.0..1.0).contains(&r));
        assert!(c.below(10) < 10);
    }
}
