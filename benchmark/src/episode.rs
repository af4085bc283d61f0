//! One episode: a fresh system, a warm-up, a timed window of a fixed,
//! seeded amount of work from two closed-loop clients, then drain and
//! audit. A run is as many episodes as fit in `--seconds`; every reported
//! number is the median over its episodes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use datalinks::core::{DataLinksSystem, DatalinkUrl};
use datalinks::fskit::Cred;
use datalinks::obs::Snapshot;

use crate::client::Client;
use crate::ops::{Op, OpKind, Workload, BASE_FILES, CHURN_FILES, CLIENTS};
use crate::proc;
use crate::stamp::Stamp;
use crate::system::{self, base_path, churn_path, url_of, Bench, SRV, TABLE};
use crate::trace::Recorder;

/// How long a drain may take before the episode is declared broken.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Raw per-op latencies in nanoseconds, one vector per [`OpKind`].
#[derive(Debug, Default, Clone)]
pub struct Latencies(pub [Vec<u64>; 4]);

impl Latencies {
    pub fn of(&self, kind: OpKind) -> &[u64] {
        &self.0[kind as usize]
    }

    fn absorb(&mut self, other: Latencies) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            mine.extend(theirs);
        }
    }

    pub fn sort(&mut self) {
        self.0.iter_mut().for_each(|v| v.sort_unstable());
    }
}

/// What a window of concurrent client work produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Latencies of the ops that succeeded, sorted ascending.
    pub lat: Latencies,
    /// First client start to last client end.
    pub wall: Duration,
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
    /// Most threads seen alive while the window ran (0 unless sampled).
    pub threads_peak: u64,
}

impl Window {
    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// Runs each client's `streams[c]` to completion, all clients released
/// together. With `sample_threads` the calling thread polls the process
/// thread count while it waits.
pub fn run_window(
    b: &Bench,
    clients: &mut [Client],
    streams: &[&[Op]],
    sample_threads: bool,
) -> Window {
    let barrier = Barrier::new(clients.len());
    let done = AtomicUsize::new(0);
    let mut window = Window::default();
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams)
            .map(|(client, ops)| {
                let (barrier, done) = (&barrier, &done);
                scope.spawn(move || {
                    let mut lat = Latencies::default();
                    let mut messages = Vec::new();
                    barrier.wait();
                    let start = Instant::now();
                    for &op in ops.iter() {
                        match client.run(b, op) {
                            Ok(ns) => lat.0[op.kind as usize].push(ns),
                            Err(e) => messages.push(format!("client {} {op:?}: {e}", client.id)),
                        }
                    }
                    let end = Instant::now();
                    done.fetch_add(1, Ordering::SeqCst);
                    (lat, messages, start, end)
                })
            })
            .collect();
        while sample_threads && done.load(Ordering::SeqCst) < handles.len() {
            window.threads_peak = window.threads_peak.max(proc::threads());
            std::thread::sleep(Duration::from_millis(20));
        }
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect::<Vec<_>>()
    });
    let first = parts.iter().map(|p| p.2).min().expect("at least one client");
    let last = parts.iter().map(|p| p.3).max().expect("at least one client");
    window.wall = last - first;
    window.attempted = streams.iter().map(|s| s.len() as u64).sum();
    for (lat, messages, _, _) in parts {
        window.lat.absorb(lat);
        window.messages.extend(messages);
    }
    window.failed = window.attempted - window.lat.0.iter().map(|v| v.len() as u64).sum::<u64>();
    window.lat.sort();
    window
}

pub struct Episode {
    /// Build the system, seed and link the base files, warm up.
    pub setup: Duration,
    pub window: Window,
    /// `VmHWM` when the timed window ended.
    pub peak_rss_mb: f64,
    /// Process CPU time the timed window consumed.
    pub cpu: Duration,
    /// Waiting for the archiver after the last op returned.
    pub archive_drain: Duration,
    /// Waiting for the standbys after the archiver drained.
    pub repl_drain: Duration,
    pub end_lag_bytes: u64,
    /// `crash()` → `recover()` returned (`uip_durable` only).
    pub recover: Option<Duration>,
    /// Correctness violations found after the window (each also counts as
    /// a failed op).
    pub violations: Vec<String>,
    /// Registry snapshot taken before the timed window (`observe` only).
    pub before: Option<Snapshot>,
    /// Registry snapshot taken after the drain.
    pub after: Snapshot,
    /// Pool high-water marks read from the live system after the drain:
    /// upcall pool workers, agent executor threads.
    pub pool_peaks: (u64, u64),
}

impl Episode {
    pub fn attempted(&self) -> u64 {
        self.window.attempted
    }

    /// Failed ops plus audit violations.
    pub fn failed(&self) -> u64 {
        self.window.failed + self.violations.len() as u64
    }
}

/// Runs one episode of `workload` with inputs from `seed`. `observe`
/// adds the registry snapshots and thread sampling the per-layer run
/// needs; the end-to-end run leaves them off.
pub fn run_episode(workload: Workload, seed: u64, observe: bool) -> Result<Episode, String> {
    let t0 = Instant::now();
    let b = system::build(workload)?;
    let streams: Vec<Vec<Op>> = (0..CLIENTS).map(|c| workload.episode_ops(seed, c)).collect();
    let size = workload.episode_size();
    let mut clients: Vec<Client> =
        (0..CLIENTS).map(|c| Client::new(workload, c, Recorder::Off)).collect();
    let warm: Vec<&[Op]> = streams.iter().map(|s| &s[..size.warmup]).collect();
    let warmup = run_window(&b, &mut clients, &warm, false);
    let setup = t0.elapsed();

    let before = observe.then(|| b.sys.metrics());
    let cpu0 = proc::cpu_time();
    let timed: Vec<&[Op]> = streams.iter().map(|s| &s[size.warmup..]).collect();
    let mut window = run_window(&b, &mut clients, &timed, observe);
    let cpu = proc::cpu_time() - cpu0;
    let peak_rss_mb = proc::peak_rss_mb();
    // A warm-up op that failed left state the timed window ran on.
    window.failed += warmup.failed;
    window.attempted += warmup.failed;
    window.messages.extend(warmup.messages);

    let t = Instant::now();
    drain_archiver(&b.sys, &clients)?;
    let archive_drain = t.elapsed();
    let t = Instant::now();
    if !b.sys.wait_replicas_caught_up(SRV, DRAIN_TIMEOUT)? {
        return Err(format!("standbys of {SRV} did not catch up within {DRAIN_TIMEOUT:?}"));
    }
    let repl_drain = t.elapsed();
    let end_lag_bytes = b.sys.replication_lag(SRV)?;
    let after = b.sys.metrics();
    let node = b.sys.node(SRV)?;
    let pool_peaks = (
        node.upcall_pool_stats().peak_workers() as u64,
        node.main_daemon().executor_stats().map_or(0, |s| s.peak_workers() as u64),
    );

    let mut violations = audit(&b.sys, workload, &clients);
    if end_lag_bytes != 0 {
        violations.push(format!("{end_lag_bytes} bytes of replication lag after the drain"));
    }
    let decode_errors = after.counters.get(&format!("net.{SRV}.decode_errors")).copied();
    if decode_errors.unwrap_or(0) != 0 {
        violations.push(format!("wire decode errors: {decode_errors:?}"));
    }
    let mut recover = None;
    if workload == Workload::UipDurable {
        // Acked-iff-durable: everything a client saw acknowledged must
        // survive losing all volatile state.
        let Bench { sys, fs, .. } = b;
        drop(fs);
        let t = Instant::now();
        let (sys, _reports) = DataLinksSystem::recover(sys.crash())?;
        recover = Some(t.elapsed());
        violations.extend(
            audit(&sys, workload, &clients).into_iter().map(|v| format!("after recovery: {v}")),
        );
    }
    Ok(Episode {
        setup,
        window,
        peak_rss_mb,
        cpu,
        archive_drain,
        repl_drain,
        end_lag_bytes,
        recover,
        violations,
        before,
        after,
        pool_peaks,
    })
}

/// Blocks until no archive job is in flight for any file a client
/// updated (the archiver is asynchronous: close returns before the copy
/// is made).
pub fn drain_archiver(sys: &DataLinksSystem, clients: &[Client]) -> Result<(), String> {
    let store = sys.node(SRV)?.server.archive_store();
    for c in clients {
        for (file, _) in c.acked.iter().enumerate().filter(|(_, &seq)| seq > 0) {
            store.wait_archived(&c.path_of(file as u32));
        }
    }
    Ok(())
}

/// The post-run audit; returns one message per violation.
///
/// * every base file holds one uniform stamp: the last update a client
///   saw acknowledged for it (either client's, where both write it), or
///   the seed stamp if nobody updated it;
/// * the host's metadata row of every base file agrees with the file
///   server on size and mtime;
/// * the lifecycle workloads leave every churn file unlinked and holding
///   its last acknowledged stamp, exactly the base rows in the table, and
///   no host transaction pending on the file server.
pub fn audit(sys: &DataLinksSystem, workload: Workload, clients: &[Client]) -> Vec<String> {
    let mut bad = Vec::new();
    let (raw, node) = match (sys.raw_fs(SRV), sys.node(SRV)) {
        (Ok(raw), Ok(node)) => (raw, node),
        _ => return vec![format!("file server {SRV} is gone")],
    };
    let content = |path: &str| -> Result<Stamp, String> {
        let data = raw.read_file(&Cred::root(), path).map_err(|e| format!("{path}: {e}"))?;
        Stamp::verify(&data).map_err(|e| format!("{path}: {e:?}"))
    };
    let expect = |path: &str, allowed: &[Stamp], bad: &mut Vec<String>| match content(path) {
        Ok(found) if allowed.contains(&found) => {}
        Ok(found) => bad.push(format!("{path}: holds {found:?}, last acked {allowed:?}")),
        Err(e) => bad.push(e),
    };

    for i in 0..BASE_FILES {
        let path = base_path(i);
        let mut allowed: Vec<Stamp> = if workload.is_lifecycle() {
            Vec::new()
        } else {
            clients
                .iter()
                .filter(|c| c.acked[i as usize] > 0)
                .map(|c| Stamp { client: c.id as u32, seq: c.acked[i as usize] })
                .collect()
        };
        if allowed.is_empty() {
            allowed.push(Stamp::seed());
        }
        expect(&path, &allowed, &mut bad);

        let host = DatalinkUrl::parse(&url_of(&path)).ok().and_then(|u| sys.engine().file_meta(&u));
        let server = node.server.stat_file(&path);
        match (host, server) {
            (Some((size, mtime, _)), Some((fsize, fmtime))) if size == fsize && mtime == fmtime => {
            }
            _ => bad.push(format!("{path}: host metadata {host:?} vs file server {server:?}")),
        }
    }

    if workload.is_lifecycle() {
        for c in clients {
            for i in 0..CHURN_FILES {
                let allowed = match c.acked[i as usize] {
                    0 => Stamp::seed(),
                    seq => Stamp { client: c.id as u32, seq },
                };
                expect(&churn_path(c.id, i), &[allowed], &mut bad);
            }
        }
        let linked = node.server.repository().list_files().len();
        if linked != BASE_FILES as usize {
            bad.push(format!("{linked} files linked after the run, expected {BASE_FILES}"));
        }
        match sys.db().count(TABLE) {
            Ok(rows) if rows == BASE_FILES as usize => {}
            other => bad.push(format!("{TABLE} holds {other:?} rows, expected {BASE_FILES}")),
        }
        let pending = node.server.pending_host_txns();
        if !pending.is_empty() {
            bad.push(format!("host transactions still pending on {SRV}: {pending:?}"));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Op;

    /// The command exits non-zero on any violation (`RunResult::correct`
    /// is `failed == 0`, and every violation counts as a failed op); this
    /// shows the audit turning corrupted and stale content into
    /// violations.
    #[test]
    fn audit_rejects_torn_and_stale_stamps() {
        let workload = Workload::ReadMix;
        let b = system::build(workload).unwrap();
        let mut clients: Vec<Client> =
            (0..CLIENTS).map(|c| Client::new(workload, c, Recorder::Off)).collect();
        for _ in 0..2 {
            clients[0].run(&b, Op { kind: OpKind::Update, file: 7 }).unwrap();
        }
        clients[1].run(&b, Op { kind: OpKind::Read, file: 7 }).unwrap();
        drain_archiver(&b.sys, &clients).unwrap();
        assert_eq!(audit(&b.sys, workload, &clients), Vec::<String>::new());

        let raw = b.sys.raw_fs(SRV).unwrap();
        let path = base_path(7);
        let good = raw.read_file(&Cred::root(), &path).unwrap();
        assert_eq!(Stamp::verify(&good), Ok(Stamp { client: 0, seq: 2 }));

        // Torn: half of the file still holds the previous update.
        let mut torn = good.clone();
        torn[..2048].copy_from_slice(&Stamp { client: 0, seq: 1 }.encode()[..2048]);
        raw.write_file(&Cred::root(), &path, &torn).unwrap();
        let bad = audit(&b.sys, workload, &clients);
        assert!(bad.iter().any(|m| m.contains("Torn")), "{bad:?}");

        // Stale: a uniform stamp, but of an update older than the last
        // acknowledged one — a lost update.
        raw.write_file(&Cred::root(), &path, &Stamp { client: 0, seq: 1 }.encode()).unwrap();
        let bad = audit(&b.sys, workload, &clients);
        assert!(bad.iter().any(|m| m.contains("last acked")), "{bad:?}");
        assert!(clients[1].run(&b, Op { kind: OpKind::Read, file: 7 }).is_ok(), "shared file");
        assert!(clients[0].run(&b, Op { kind: OpKind::Read, file: 7 }).is_err(), "own stale stamp");
    }
}
