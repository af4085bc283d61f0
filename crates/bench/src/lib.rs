//! Benchmark support: fixtures, workload generators and measurement
//! helpers.
//!
//! Every paper table from DESIGN.md (T1, E1–E4, A1–A8) has its runner in
//! [`experiments`], printed by the `report` binary; the fault scenarios run
//! the [`mixed`] driver from `tests/fault_matrix.rs`, which gates them.
//! Neither is a source of performance numbers: those come from the repo
//! benchmark (`benchmark/`), gated by its pipeline (EXPERIMENTS.md).

use std::time::{Duration, Instant};

use dl_core::{
    ControlMode, DataLinksSystem, DlColumnOptions, FileServerSpec, SystemBuilder, TokenKind,
};
use dl_dlfm::{DlfmConfig, FaultInjector, OnUnlink};
use dl_dlfs::{DlfsConfig, WaitPolicy};
use dl_fskit::memfs::IoModel;
use dl_fskit::{Cred, OpenOptions};
use dl_minidb::{Column, ColumnType, DbOptions, Schema, StorageEnv, Value};

pub mod experiments;
pub mod mixed;

/// The benchmark application user.
pub const APP: Cred = Cred { uid: 100, gid: 100 };
/// Name of the single file server used by fixtures.
pub const SRV: &str = "srv1";
/// Table used by fixtures.
pub const TABLE: &str = "docs";

/// A ready-to-measure system with linked files.
pub struct Fixture {
    pub sys: DataLinksSystem,
    pub paths: Vec<String>,
}

/// Options for building a fixture.
#[derive(Clone, Copy)]
pub struct FixtureOptions {
    pub mode: ControlMode,
    pub n_files: usize,
    pub file_size: usize,
    pub io: IoModel,
    pub sync_archive: bool,
    pub track_read_sync: bool,
    pub strict: bool,
    pub wait_policy: WaitPolicy,
    pub recovery: bool,
    /// Commit-pipeline options applied to *both* the host database and the
    /// DLFM repository (group commit vs per-commit sync, batch, delay).
    pub db: DbOptions,
    /// Deterministic `sync` cost charged by the WAL devices of the host
    /// database and the DLFM repository (commit-throughput experiments).
    pub db_sync_latency_ns: u64,
    /// Hot-standby repositories per file server (replication experiments).
    pub replicas: usize,
    /// Hot standbys of the *host database* (coordinator failover
    /// experiments). Zero keeps the paper's unreplicated coordinator.
    pub host_replicas: usize,
    /// Width of the upcall lane; `None` keeps the `DlfmConfig` default
    /// (a12 arms).
    pub upcall_pool: Option<usize>,
    /// DLFM namespace shards behind the node (the sharded fault matrix).
    pub shards: usize,
}

impl Default for FixtureOptions {
    fn default() -> Self {
        FixtureOptions {
            mode: ControlMode::Rdd,
            n_files: 4,
            file_size: 4 * 1024,
            io: IoModel::default(),
            sync_archive: false,
            track_read_sync: true,
            strict: false,
            wait_policy: WaitPolicy::Block,
            recovery: true,
            db: DbOptions::default(),
            db_sync_latency_ns: 0,
            replicas: 0,
            host_replicas: 0,
            upcall_pool: None,
            shards: 1,
        }
    }
}

/// Builds a system, seeds files, creates the table and links every file.
pub fn fixture(opts: FixtureOptions) -> Fixture {
    fixture_with_faults(opts, None, None, None, None).0
}

/// [`fixture`] with the [`mixed`] driver's fault surfaces: an upcall fault
/// injector on the node, a [`dl_minidb::DiskFaults`] layer under the DLFM
/// repository's storage environment, one under the *host database's*
/// (exhaust or shear the coordinator's WAL rather than the repository's),
/// and a directory for the system's flight-recorder dumps
/// (`SystemBuilder::flight_dump_dir`). Also returns the host database's
/// storage environment, where a torn tail is measured.
fn fixture_with_faults(
    opts: FixtureOptions,
    fault: Option<FaultInjector>,
    repo_faults: Option<std::sync::Arc<dl_minidb::DiskFaults>>,
    host_faults: Option<std::sync::Arc<dl_minidb::DiskFaults>>,
    flight_dump_dir: Option<&std::path::Path>,
) -> (Fixture, StorageEnv) {
    let mut dlfm = DlfmConfig::new(SRV);
    dlfm.sync_archive = opts.sync_archive;
    dlfm.track_read_sync = opts.track_read_sync;
    dlfm.strict_link = opts.strict;
    dlfm.db = opts.db;
    if let Some(width) = opts.upcall_pool {
        dlfm = dlfm.upcall_workers(width);
    }
    let mem_env = || {
        if opts.db_sync_latency_ns > 0 {
            StorageEnv::mem_with_sync_latency(opts.db_sync_latency_ns)
        } else {
            StorageEnv::mem()
        }
    };
    let repo_env = match &repo_faults {
        Some(faults) => {
            StorageEnv::mem_with_faults(std::sync::Arc::clone(faults), opts.db_sync_latency_ns)
        }
        None => mem_env(),
    };
    let spec = FileServerSpec {
        name: SRV.to_string(),
        dlfm,
        dlfs: DlfsConfig { wait_policy: opts.wait_policy, strict: opts.strict },
        io: opts.io,
        repo_env,
        replicas: opts.replicas,
        upcall_fault: fault,
        shards: opts.shards.max(1),
    };
    let host_env = match &host_faults {
        Some(faults) => {
            StorageEnv::mem_with_faults(std::sync::Arc::clone(faults), opts.db_sync_latency_ns)
        }
        None => mem_env(),
    };
    let mut builder = SystemBuilder::new()
        .host_env(host_env.clone())
        .host_db_opts(opts.db)
        .host_replicas(opts.host_replicas)
        .file_server_with(spec);
    if let Some(dir) = flight_dump_dir {
        builder = builder.flight_dump_dir(dir);
    }
    let sys = builder.build().expect("build system");

    let raw = sys.raw_fs(SRV).expect("raw fs");
    raw.mkdir_p(&Cred::root(), "/data", 0o777).expect("mkdir");
    let content = make_content(opts.file_size);

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
        DlColumnOptions::new(opts.mode)
            .recovery(opts.recovery)
            .on_unlink(OnUnlink::Restore)
            .token_ttl_ms(600_000),
    )
    .expect("define column");

    let mut paths = Vec::new();
    for i in 0..opts.n_files {
        let path = format!("/data/doc{i:04}.bin");
        raw.write_file(&APP, &path, &content).expect("seed file");
        let url = format!("dlfs://{SRV}{path}");
        let mut tx = sys.begin();
        tx.insert(TABLE, vec![Value::Int(i as i64), Value::DataLink(url)]).expect("insert");
        tx.commit().expect("commit");
        paths.push(path);
    }
    (Fixture { sys, paths }, host_env)
}

/// Deterministic pseudo-random content of `size` bytes.
pub fn make_content(size: usize) -> Vec<u8> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..size)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

impl Fixture {
    /// Token-embedded path for file `i`.
    pub fn token_path(&self, i: usize, kind: TokenKind) -> String {
        let (_, path) = self
            .sys
            .select_datalink(TABLE, &Value::Int(i as i64), "body", kind)
            .expect("select datalink");
        path
    }

    /// Full read of file `i` through the managed stack (token path).
    pub fn managed_read(&self, i: usize) -> usize {
        let path = self.token_path(i, TokenKind::Read);
        let fs = self.sys.fs(SRV).expect("fs");
        let fd = fs.open(&APP, &path, OpenOptions::read_only()).expect("open");
        let data = fs.read_to_end(fd).expect("read");
        fs.close(fd).expect("close");
        data.len()
    }

    /// Full read of an *unlinked* control file through the same stack.
    pub fn plain_read(&self, path: &str) -> usize {
        let fs = self.sys.fs(SRV).expect("fs");
        let fd = fs.open(&APP, path, OpenOptions::read_only()).expect("open");
        let data = fs.read_to_end(fd).expect("read");
        fs.close(fd).expect("close");
        data.len()
    }

    /// One full update-in-place cycle on file `i`, waiting out the async
    /// archive so back-to-back updates don't measure archive blocking
    /// unless the experiment wants exactly that.
    pub fn managed_update(&self, i: usize, content: &[u8]) {
        self.managed_update_no_wait(i, content);
        self.sys.node(SRV).expect("node").server.archive_store().wait_archived(&self.paths[i]);
    }

    /// One update cycle without waiting for the archiver.
    pub fn managed_update_no_wait(&self, i: usize, content: &[u8]) {
        let path = self.token_path(i, TokenKind::Write);
        let fs = self.sys.fs(SRV).expect("fs");
        let fd = fs.open(&APP, &path, OpenOptions::write_truncate()).expect("open");
        fs.write(fd, content).expect("write");
        fs.close(fd).expect("close");
    }
}

/// Measures `f` over `iters` iterations, returning ns/iter.
pub fn time_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Runs `f` once and returns the wall time.
pub fn time_once(f: impl FnOnce()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

/// Percentile from a sample vector (nanoseconds); sorts in place.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let idx = ((samples.len() as f64 - 1.0) * p).round() as usize;
    samples[idx]
}

/// Human formatting for ns quantities.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else if ns >= 1_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Spawns `n` threads over `f(thread_idx)` and joins them; returns elapsed.
pub fn run_threads(n: usize, f: impl Fn(usize) + Send + Sync) -> Duration {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let f = &f;
        for i in 0..n {
            scope.spawn(move || f(i));
        }
    });
    start.elapsed()
}
