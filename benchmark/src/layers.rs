//! The phases of a run, each executed in a child process of its own so
//! that memory, thread counts and allocator state never carry over:
//!
//! * `e2e` — one untraced two-client episode; the end-to-end metrics;
//! * `observed` — the same episode bracketed by registry snapshots (the
//!   **C** metrics that need both clients: batching, busy waits, pools,
//!   checkpoints, shipping) plus the `e2e.*` per-op-type latencies;
//! * `traced` — a single-client pass with a span around every public
//!   call and counters read around every op (**S** metrics and the
//!   per-op counts, which repeat exactly with one client and quiesced
//!   pools), interleaved with untraced blocks for `trace.overhead_pct`,
//!   then the **P** probes against the same live system.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use datalinks::dlfm::{split_token_suffix, AgentConnection, ControlMode, OnUnlink, TokenKind};
use datalinks::fskit::Cred;
use datalinks::minidb::{Column, ColumnType, Database, Schema, Value};
use datalinks::obs::{HistogramSnapshot, Snapshot};
use dl_net::{encode_frame, FrameDecoder, Message};

use crate::client::Client;
use crate::episode::{run_episode, Episode, Latencies};
use crate::ops::{Op, OpKind, Workload, OP_KINDS};
use crate::report::Phase;
use crate::stamp::Stamp;
use crate::stats::percentile;
use crate::system::{self, Bench, COLUMN, SRV, TABLE};
use crate::trace::{self, Recorder, Span};

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Percentile of sorted nanosecond samples in µs, `None` under the
/// samples-beyond rule.
fn pct_us(sorted: &[u64], p: f64) -> Option<f64> {
    percentile(sorted, p).ok().map(us)
}

impl Workload {
    /// Traced ops of the single-client pass; as many again run untraced.
    fn pass_ops(self) -> usize {
        match self {
            Workload::UipDurable => 1_200,
            _ => 4_000,
        }
    }
}

// --- e2e and observed -------------------------------------------------------

fn account(phase: &mut Phase, ep: &Episode) {
    phase.attempted = ep.attempted();
    phase.failed = ep.failed();
    phase.messages.extend(ep.window.messages.iter().cloned());
    phase.messages.extend(ep.violations.iter().cloned());
}

/// One untraced episode: every end-to-end metric, plus `diag.*` rows
/// (per-op-type percentiles, p99.9) that are printed but never gated.
pub fn e2e(workload: Workload, seed: u64) -> Result<Phase, String> {
    let ep = run_episode(workload, seed, false)?;
    let mut phase = Phase::default();
    account(&mut phase, &ep);
    let w = &ep.window;
    phase.put("ops_per_s", "1/s", w.succeeded() as f64 / w.wall.as_secs_f64(), w.succeeded());
    let updates = w.lat.of(OpKind::Update);
    let p50 = pct_us(updates, 0.5)
        .ok_or_else(|| format!("update_p50_us: only {} update samples", updates.len()))?;
    phase.put("update_p50_us", "us", p50, updates.len() as u64);
    phase.put("peak_rss_mb", "MiB", ep.peak_rss_mb, 1);
    phase.put("setup_s", "s", ep.setup.as_secs_f64(), 1);
    for kind in OP_KINDS {
        let lat = w.lat.of(kind);
        for (tag, p) in [("p50", 0.50), ("p99", 0.99), ("p999", 0.999)] {
            if let Some(v) = pct_us(lat, p) {
                phase.put(&format!("diag.{}_{tag}_us", kind.name()), "us", v, lat.len() as u64);
            }
        }
    }
    phase.put("diag.wall_s", "s", w.wall.as_secs_f64(), 1);
    Ok(phase)
}

fn counter(s: &Snapshot, name: &str) -> u64 {
    s.counters.get(name).copied().unwrap_or(0)
}

fn gauge(s: &Snapshot, name: &str) -> f64 {
    s.gauges.get(name).copied().unwrap_or(0.0)
}

/// The part of histogram `name` recorded between the two snapshots.
fn hist_between(before: &Snapshot, after: &Snapshot, name: &str) -> HistogramSnapshot {
    let mut h = after.histograms.get(name).cloned().unwrap_or_default();
    if let Some(b) = before.histograms.get(name) {
        for (mine, theirs) in h.buckets.iter_mut().zip(&b.buckets) {
            *mine -= theirs;
        }
        h.count -= b.count;
        h.sum -= b.sum;
    }
    h
}

/// The two-client episode again, with the registry read before the timed
/// window and after the drain.
pub fn observed(workload: Workload, seed: u64) -> Result<Phase, String> {
    let ep = run_episode(workload, seed, true)?;
    let mut phase = Phase::default();
    account(&mut phase, &ep);
    let w = &ep.window;
    let before = ep.before.as_ref().expect("observed episode snapshots the registry");
    let after = &ep.after;
    let delta = |name: &str| counter(after, name) - counter(before, name);
    let ops = w.succeeded();
    let kops = ops as f64 / 1e3;
    let updates = w.lat.of(OpKind::Update).len() as u64;

    for kind in OP_KINDS {
        let lat = w.lat.of(kind);
        for (tag, p) in [("p50", 0.50), ("p99", 0.99)] {
            // The update p50 is an end-to-end metric of the `e2e` phase.
            if (kind, tag) != (OpKind::Update, "p50") {
                let name = format!("e2e.{}_{tag}_us", kind.name());
                phase.put(&name, "us", pct_us(lat, p).unwrap_or(0.0), lat.len() as u64);
            }
        }
    }
    phase.put("core.recover_ms", "ms", ep.recover.map_or(0.0, ms), 1);
    phase.put(
        "dlfs.busy_waits_per_kop",
        "count",
        delta(&format!("dlfs.{SRV}.busy_waits")) as f64 / kops,
        ops,
    );
    phase.put(
        "dlfm.busy_responses_per_kop",
        "count",
        delta(&format!("dlfm.{SRV}.busy_responses")) as f64 / kops,
        ops,
    );
    let rtt = hist_between(before, after, &format!("dlfm.{SRV}.upcall_round_trip_ns"));
    phase.put("dlfm.upcall_rtt_p50_us", "us", us(rtt.percentile(0.5)), rtt.count);
    phase.put("dlfm.upcall_pool_peak_workers", "count", ep.pool_peaks.0 as f64, 1);
    phase.put("dlfm.executor_peak_threads", "count", ep.pool_peaks.1 as f64, 1);
    phase.put("dlfm.archive_drain_ms", "ms", ms(ep.archive_drain), 1);

    let rtt = hist_between(before, after, &format!("net.{SRV}.round_trip_ns"));
    phase.put("net.client_rtt_p50_us", "us", us(rtt.percentile(0.5)), rtt.count);
    for c in ["backpressure_stalls", "decode_errors"] {
        phase.put(&format!("net.{c}"), "count", delta(&format!("net.{SRV}.{c}")) as f64, ops);
    }

    let fsync = hist_between(before, after, &format!("minidb.{SRV}.fsync_ns"));
    phase.put("minidb.fsync_p50_us", "us", us(fsync.percentile(0.5)), fsync.count);
    let batch = hist_between(before, after, &format!("minidb.{SRV}.wal_batch_frames"));
    phase.put("minidb.batch_frames_mean", "count", batch.mean(), batch.count);
    let mut ckpt = hist_between(before, after, "minidb.host.checkpoint_ns");
    ckpt.merge(&hist_between(before, after, &format!("minidb.{SRV}.checkpoint_ns")));
    phase.put("minidb.checkpoints", "count", ckpt.count as f64, ckpt.count);
    phase.put("minidb.checkpoint_p50_ms", "ms", ckpt.percentile(0.5) as f64 / 1e6, ckpt.count);
    phase.put("minidb.checkpoint_max_ms", "ms", ckpt.percentile(1.0) as f64 / 1e6, ckpt.count);
    let retained = gauge(after, "minidb.host.wal_retained_bytes")
        + gauge(after, &format!("minidb.{SRV}.wal_retained_bytes"));
    phase.put("minidb.wal_retained_kb", "KiB", retained / 1024.0, 1);

    let shipped = delta(&format!("repl.{SRV}.bytes_shipped"));
    phase.put(
        "repl.bytes_shipped_per_update",
        "B",
        if updates == 0 { 0.0 } else { shipped as f64 / updates as f64 },
        updates,
    );
    let records = delta(&format!("repl.{SRV}.records_shipped"));
    phase.put("repl.records_shipped", "count", records as f64, records);
    phase.put("repl.drain_ms", "ms", ms(ep.repl_drain), 1);
    phase.put("repl.end_lag_bytes", "B", ep.end_lag_bytes as f64, 1);

    phase.put("proc.cpu_ms_per_kop", "ms", ms(ep.cpu) / kops, ops);
    phase.put("proc.threads_peak", "count", w.threads_peak as f64, 1);
    Ok(phase)
}

// --- single-client passes ---------------------------------------------------

/// Work counters read around every op of the traced pass.
const COUNTS: usize = 11;
const HOST_FSYNCS: usize = 0;
const REPO_FSYNCS: usize = 1;
const UPCALLS: usize = 2;
const TOKENS: usize = 3;
const META_UPDATES: usize = 4;
const ARCHIVES: usize = 5;
const FRAMES: usize = 6;
const NET_BYTES: usize = 7;
const FS_OPS: usize = 8;
const HOST_WAL: usize = 9;
const REPO_WAL: usize = 10;

type Counts = [u64; COUNTS];

fn read_counts(b: &Bench) -> Result<Counts, String> {
    let m = b.sys.metrics();
    let hist_count = |name: &str| m.histograms.get(name).map_or(0, |h| h.count);
    let sum = |layer: &str, names: &[&str]| -> u64 {
        names.iter().map(|n| counter(&m, &format!("{layer}.{SRV}.{n}"))).sum()
    };
    let mut c = [0; COUNTS];
    c[HOST_FSYNCS] = hist_count("minidb.host.fsync_ns");
    c[REPO_FSYNCS] = hist_count(&format!("minidb.{SRV}.fsync_ns"));
    c[UPCALLS] = counter(&m, &format!("dlfm.{SRV}.upcalls"));
    c[TOKENS] = counter(&m, "engine.tokens_generated");
    c[META_UPDATES] = counter(&m, "engine.meta_updates");
    c[ARCHIVES] = counter(&m, &format!("dlfm.{SRV}.archives"));
    // Request frames: each is answered by exactly one reply frame.
    c[FRAMES] = sum("net", &["frames_in"]);
    c[NET_BYTES] = sum("net", &["bytes_in", "bytes_out"]);
    c[FS_OPS] = sum("fskit", &["lookups", "opens", "reads", "writes", "setattrs"]);
    c[HOST_WAL] = b.sys.state_id();
    c[REPO_WAL] = b.sys.node(SRV)?.server.repository().db().state_id();
    Ok(c)
}

/// Ops per block of the single-client pass; blocks alternate between
/// traced and untraced.
const BLOCK: usize = 100;

struct Pass {
    bench: Bench,
    spans: Vec<Span>,
    /// Latencies of the ops in traced blocks, and in untraced blocks.
    traced: Latencies,
    untraced: Latencies,
    /// Per op kind: counter growth summed over its traced ops.
    counts: BTreeMap<OpKind, Counts>,
    /// Warm-up included.
    attempted: u64,
    messages: Vec<String>,
}

/// One client runs `2 × pass_ops` ops on a fresh system, in alternating
/// blocks: a traced block records a span per public call and reads the
/// work counters around every op; an untraced block does neither. Both
/// kinds of block see the same system state and the same sandbox noise,
/// so their latency difference is the tracing overhead and nothing else.
///
/// After every op the client waits — outside the op's timed interval —
/// until the background work it caused (archive copy, upcall workers)
/// has finished, so that each op's counter growth is its own.
fn single_client_pass(workload: Workload, seed: u64) -> Result<Pass, String> {
    let bench = system::build(workload)?;
    let warmup = workload.episode_size().warmup;
    let stream = workload.ops(seed, 0, warmup + 2 * workload.pass_ops());
    let mut client = Client::new(workload, 0, Recorder::Off);
    let server = std::sync::Arc::clone(&bench.sys.node(SRV)?.server);
    let quiesce = |client: &Client, op: Op| {
        let deadline = Instant::now() + Duration::from_secs(5);
        let wait_while = |busy: &dyn Fn() -> bool| {
            while busy() && Instant::now() < deadline {
                std::thread::yield_now();
            }
        };
        if op.kind == OpKind::Update {
            // The archiver clears the in-flight marker first and commits
            // `needs_archive = false` to the repository after it; that
            // commit is the update's last piece of work.
            let path = client.path_of(op.file);
            server.archive_store().wait_archived(&path);
            wait_while(&|| server.repository().get_file(&path).is_some_and(|f| f.needs_archive));
        }
        bench.sys.quiesce_upcalls(Duration::from_secs(5));
        // A commit that left more log behind than the retention budget
        // allows is followed, on its own thread, by an auto-checkpoint.
        for db in [bench.sys.db(), server.repository().db()] {
            wait_while(&|| db.wal_retained_bytes() > db.effective_checkpoint_budget());
        }
    };
    let mut messages = Vec::new();
    for &op in &stream[..warmup] {
        if let Err(e) = client.run(&bench, op) {
            messages.push(format!("warm-up {op:?}: {e}"));
        }
        quiesce(&client, op);
    }

    let (mut traced, mut untraced) = (Latencies::default(), Latencies::default());
    let mut counts: BTreeMap<OpKind, Counts> = BTreeMap::new();
    // The recorder the client is not using at the moment.
    let mut parked = Recorder::on();
    for (b, block) in stream[warmup..].chunks(BLOCK).enumerate() {
        let tracing = b % 2 == 0;
        std::mem::swap(&mut client.rec, &mut parked);
        let mut before = if tracing { Some(read_counts(&bench)?) } else { None };
        for &op in block {
            match client.run(&bench, op) {
                Ok(ns) if tracing => traced.0[op.kind as usize].push(ns),
                Ok(ns) => untraced.0[op.kind as usize].push(ns),
                Err(e) => messages.push(format!("{op:?}: {e}")),
            }
            quiesce(&client, op);
            if let Some(before) = before.as_mut() {
                // Read until two readings agree: whatever the op set in
                // motion has then come to rest.
                let mut after = read_counts(&bench)?;
                loop {
                    let again = read_counts(&bench)?;
                    if again == after {
                        break;
                    }
                    after = again;
                }
                let sum = counts.entry(op.kind).or_insert([0; COUNTS]);
                for i in 0..COUNTS {
                    sum[i] += after[i] - before[i];
                }
                *before = after;
            }
        }
    }
    traced.sort();
    untraced.sort();
    let spans = [client.rec, parked].into_iter().flat_map(Recorder::into_spans).collect();
    Ok(Pass { bench, spans, traced, untraced, counts, attempted: stream.len() as u64, messages })
}

/// The single-client pass, its budget table, and the probes.
pub fn traced(workload: Workload, seed: u64, out: &Path) -> Result<Phase, String> {
    let pass = single_client_pass(workload, seed)?;
    let mut phase = Phase {
        attempted: pass.attempted,
        failed: pass.messages.len() as u64,
        messages: pass.messages.clone(),
        ..Phase::default()
    };
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let file = out.join(format!("trace_{}.jsonl", workload.name()));
    trace::write_jsonl(&file, &pass.spans).map_err(|e| format!("write {}: {e}", file.display()))?;
    phase.text.push(format!("# {} spans written to {}", pass.spans.len(), file.display()));
    budget(&pass.spans, &mut phase);
    overhead(&pass, &mut phase);
    per_op_counts(&pass, &mut phase);
    probes(&pass.bench, &mut phase)?;
    Ok(phase)
}

/// `trace.overhead_pct`: how much slower the traced blocks ran than the
/// untraced ones, comparing the sum of the op types' p50s.
fn overhead(pass: &Pass, phase: &mut Phase) {
    let (mut with, mut without, mut samples) = (0.0, 0.0, 0);
    for kind in OP_KINDS {
        let (t, u) = (pass.traced.of(kind), pass.untraced.of(kind));
        if let (Some(t50), Some(u50)) = (pct_us(t, 0.5), pct_us(u, 0.5)) {
            phase.put(&format!("diag.traced_{}_p50_us", kind.name()), "us", t50, t.len() as u64);
            phase.put(&format!("diag.untraced_{}_p50_us", kind.name()), "us", u50, u.len() as u64);
            with += t50;
            without += u50;
            samples += (t.len() + u.len()) as u64;
        }
    }
    let pct = if without > 0.0 { 100.0 * (with - without) / without } else { 0.0 };
    phase.put("trace.overhead_pct", "%", pct, samples);
}

/// Span durations grouped by `(op type, span name)`; the op's own root
/// span is keyed by an empty span name, its self time by `"(self)"`.
fn group_spans(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), Vec<u64>> {
    let self_ns = trace::self_times(spans);
    let mut groups: BTreeMap<(&'static str, &'static str), Vec<u64>> = BTreeMap::new();
    for s in spans {
        match s.parent {
            None => {
                groups.entry((s.name, "")).or_default().push(s.duration_ns());
                groups.entry((s.name, "(self)")).or_default().push(self_ns[s.id as usize]);
            }
            Some(p) => {
                groups.entry((spans[p as usize].name, s.name)).or_default().push(s.duration_ns())
            }
        }
    }
    groups.values_mut().for_each(|v| v.sort_unstable());
    groups
}

/// Prints the budget (span → p50 → share of the op's p50) and stores the
/// **S** metrics.
fn budget(spans: &[Span], phase: &mut Phase) {
    let groups = group_spans(spans);
    let p50 = |op: &str, span: &str| -> (f64, u64) {
        groups
            .iter()
            .find(|((o, s), _)| *o == op && *s == span)
            .map_or((0.0, 0), |(_, v)| (pct_us(v, 0.5).unwrap_or(0.0), v.len() as u64))
    };
    let mut unexplained: f64 = 0.0;
    phase.text.push("# budget: op / span -> p50 us, share of the op's p50, samples".to_string());
    for kind in OP_KINDS {
        let (op_p50, n) = p50(kind.name(), "");
        if n == 0 {
            continue;
        }
        phase.text.push(format!(
            "#   {:<8} {:>24} {op_p50:>10.1} us  100.0 %  n={n}",
            kind.name(),
            ""
        ));
        for ((op, span), v) in &groups {
            if *op == kind.name() && !span.is_empty() {
                let v50 = pct_us(v, 0.5).unwrap_or(0.0);
                let share = 100.0 * v50 / op_p50;
                phase.text.push(format!(
                    "#   {:<8} {span:>24} {v50:>10.1} us  {share:>5.1} %  n={}",
                    "",
                    v.len()
                ));
            }
        }
        unexplained = unexplained.max(100.0 * p50(kind.name(), "(self)").0 / op_p50);
    }
    phase.put("trace.unexplained_pct", "%", unexplained, spans.len() as u64);

    // Token SELECTs of both op types fold into one number.
    let mut selects: Vec<u64> = ["update", "read"]
        .iter()
        .flat_map(|op| groups.get(&(*op, "select_datalink")).cloned().unwrap_or_default())
        .collect();
    selects.sort_unstable();
    phase.put(
        "core.select_token_us",
        "us",
        pct_us(&selects, 0.5).unwrap_or(0.0),
        selects.len() as u64,
    );
    for (name, op, span) in [
        ("core.link_dml_us", "link", "insert"),
        ("core.link_commit_us", "link", "commit"),
        ("core.unlink_dml_us", "unlink", "delete"),
        ("core.unlink_commit_us", "unlink", "commit"),
        ("dlfs.open_write_us", "update", "open"),
        ("dlfs.open_read_us", "read", "open"),
        ("dlfs.close_write_us", "update", "close"),
        ("dlfs.close_read_us", "read", "close"),
    ] {
        let (v, n) = p50(op, span);
        phase.put(name, "us", v, n);
    }
}

/// The **C** metrics of the traced pass: counter growth per op, by type.
fn per_op_counts(pass: &Pass, phase: &mut Phase) {
    let per = |kind: OpKind, idx: &[usize]| -> (f64, u64) {
        let n = pass.traced.of(kind).len() as u64;
        match pass.counts.get(&kind) {
            Some(c) if n > 0 => (idx.iter().map(|&i| c[i]).sum::<u64>() as f64 / n as f64, n),
            _ => (0.0, 0),
        }
    };
    let all_ops: u64 = pass.traced.0.iter().map(|v| v.len() as u64).sum();
    let tokens: u64 = pass.counts.values().map(|c| c[TOKENS]).sum();
    phase.put("core.tokens_per_op", "count", tokens as f64 / all_ops.max(1) as f64, all_ops);
    for (name, unit, kind, idx) in [
        ("core.meta_updates_per_update", "count", OpKind::Update, &[META_UPDATES][..]),
        ("dlfs.upcalls_per_update", "count", OpKind::Update, &[UPCALLS]),
        ("dlfs.upcalls_per_read", "count", OpKind::Read, &[UPCALLS]),
        ("dlfm.archives_per_update", "count", OpKind::Update, &[ARCHIVES]),
        ("minidb.host_fsyncs_per_update", "count", OpKind::Update, &[HOST_FSYNCS]),
        ("minidb.repo_fsyncs_per_update", "count", OpKind::Update, &[REPO_FSYNCS]),
        ("minidb.fsyncs_per_read", "count", OpKind::Read, &[HOST_FSYNCS, REPO_FSYNCS]),
        ("minidb.fsyncs_per_link", "count", OpKind::Link, &[HOST_FSYNCS, REPO_FSYNCS]),
        ("minidb.fsyncs_per_unlink", "count", OpKind::Unlink, &[HOST_FSYNCS, REPO_FSYNCS]),
        ("minidb.wal_bytes_per_update", "B", OpKind::Update, &[HOST_WAL, REPO_WAL]),
        ("minidb.wal_bytes_per_read", "B", OpKind::Read, &[HOST_WAL, REPO_WAL]),
        ("minidb.wal_bytes_per_link", "B", OpKind::Link, &[HOST_WAL, REPO_WAL]),
        ("fskit.ops_per_update", "count", OpKind::Update, &[FS_OPS]),
    ] {
        let (v, n) = per(kind, idx);
        phase.put(name, unit, v, n);
    }
    // A lifecycle is one op of each type.
    let lifecycles = pass.traced.of(OpKind::Unlink).len() as u64;
    for (name, unit, idx) in
        [("net.frames_per_lifecycle", "count", FRAMES), ("net.bytes_per_lifecycle", "B", NET_BYTES)]
    {
        let total: u64 = pass.counts.values().map(|c| c[idx]).sum();
        let v = if lifecycles == 0 { 0.0 } else { total as f64 / lifecycles as f64 };
        phase.put(name, unit, v, lifecycles);
    }
}

// --- probes -----------------------------------------------------------------

/// Times `n` calls of `f` one by one; the median in µs.
fn probe(n: u64, mut f: impl FnMut(u64) -> Result<(), String>) -> Result<f64, String> {
    let mut ns = Vec::with_capacity(n as usize);
    for i in 0..n {
        let t = Instant::now();
        f(i)?;
        ns.push(t.elapsed().as_nanos() as u64);
    }
    ns.sort_unstable();
    pct_us(&ns, 0.5).ok_or_else(|| format!("probe of {n} calls is too short for a median"))
}

/// Direct calls into single layers' public functions, against the live
/// system the traced pass just ran on.
fn probes(b: &Bench, phase: &mut Phase) -> Result<(), String> {
    const CALLS: u64 = 2_000;
    let node = b.sys.node(SRV)?;
    let raw = b.sys.raw_fs(SRV)?;
    let root = Cred::root();
    raw.mkdir_p(&root, "/probe", 0o777).map_err(|e| e.to_string())?;

    let (_, token_path) = b.sys.select_datalink(TABLE, &Value::Int(0), COLUMN, TokenKind::Read)?;
    let (path, token) = split_token_suffix(&token_path);
    let token = token.ok_or("SELECT returned no token")?;
    let v = probe(CALLS, |_| node.server.validate_token(path, token, 100).map(|_| ()))?;
    phase.put("dlfm.validate_token_us", "us", v, CALLS);

    // Six agent calls per round; synthetic host txids far above any the
    // host database has handed out.
    let agent_file = "/probe/agent.bin";
    raw.write_file(&root, agent_file, &Stamp::seed().encode()).map_err(|e| e.to_string())?;
    let agent = node.connect_agent();
    let rounds = CALLS / 5;
    let v = probe(rounds, |i| {
        let tx = (1 << 40) + 2 * i;
        AgentConnection::link(&agent, tx, agent_file, ControlMode::Rdd, true, OnUnlink::Restore)?;
        AgentConnection::prepare(&agent, tx)?;
        AgentConnection::commit(&agent, tx);
        AgentConnection::unlink(&agent, tx + 1, agent_file)?;
        AgentConnection::prepare(&agent, tx + 1)?;
        AgentConnection::commit(&agent, tx + 1);
        Ok(())
    })?;
    phase.put("dlfm.agent_2pc_us", "us", v, rounds * 6);

    // Sub-microsecond work: time batches, report per frame.
    let msg = Message::Link {
        txid: 1 << 40,
        coord_epoch: 0,
        path: "/churn/c0/f0001.bin".to_string(),
        mode: 0,
        recovery: true,
        on_unlink: 0,
    };
    let mut decoder = FrameDecoder::new();
    const BATCH: u64 = 100;
    let v = probe(CALLS / 10, |i| {
        for j in 0..BATCH {
            decoder.feed(&encode_frame(i * BATCH + j, black_box(&msg)));
            match decoder.next_frame() {
                Ok(Some(frame)) => drop(black_box(frame)),
                other => return Err(format!("codec probe decoded {other:?}")),
            }
        }
        Ok(())
    })?;
    phase.put("net.codec_us", "us", v / BATCH as f64, CALLS / 10 * BATCH);

    let v = match node.wire() {
        Some(wire) => {
            let conn = wire.connect("bench")?;
            probe(CALLS, |_| match conn.call(Message::EpochGet)? {
                Message::EpochIs(_) => Ok(()),
                other => Err(format!("EpochGet answered {other:?}")),
            })?
        }
        None => 0.0,
    };
    phase.put("net.null_rtt_us", "us", v, if v > 0.0 { CALLS } else { 0 });

    let db = Database::open(b.workload.storage_env()).map_err(|e| e.to_string())?;
    let schema = Schema::new(
        "t",
        vec![Column::new("id", ColumnType::Int), Column::new("v", ColumnType::Int)],
        "id",
    )
    .map_err(|e| e.to_string())?;
    db.create_table(schema).map_err(|e| e.to_string())?;
    let v = probe(CALLS, |i| {
        let mut tx = db.begin();
        tx.insert("t", vec![Value::Int(i as i64), Value::Int(i as i64)])
            .map_err(|e| e.to_string())?;
        tx.commit().map(|_| ()).map_err(|e| e.to_string())
    })?;
    phase.put("minidb.bare_commit_us", "us", v, CALLS);

    let io_file = "/probe/io.bin";
    let payload = Stamp::seed().encode();
    let v = probe(CALLS, |_| raw.write_file(&root, io_file, &payload).map_err(|e| e.to_string()))?;
    phase.put("fskit.write_4k_us", "us", v, CALLS);
    let v = probe(CALLS, |_| {
        raw.read_file(&root, io_file).map(|d| drop(black_box(d))).map_err(|e| e.to_string())
    })?;
    phase.put("fskit.read_4k_us", "us", v, CALLS);
    Ok(())
}
