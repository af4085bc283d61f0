//! Experiment runners — one per table/figure/claim in DESIGN.md.
//!
//! Each runner returns a printable table so `cargo run -p dl-bench --bin
//! report` regenerates the paper's evaluation (shapes, not absolute 1998
//! numbers) and EXPERIMENTS.md can quote the output verbatim.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dl_baselines::{CauManager, CicoManager, MergePolicy};
use dl_core::{ControlMode, TokenKind};
use dl_fskit::memfs::IoModel;
use dl_fskit::{Cred, FileSystem, Lfs, MemFs, OpenOptions};
use dl_minidb::{Database, StorageEnv, Value};

use crate::{
    fixture, fmt_ns, make_content, percentile, run_threads, time_ns, FixtureOptions, APP, SRV,
    TABLE,
};

/// A printable experiment result.
pub struct Table {
    pub id: String,
    pub title: String,
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
    pub notes: Vec<String>,
}

impl Table {
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let mut out = format!("== {}: {} ==\n", self.id, self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }

    /// Machine-readable form, written as `BENCH_<id>.json` by `report
    /// --json` (see EXPERIMENTS.md). Hand-rolled
    /// serialization: the workspace builds without serde (vendor/README.md).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        fn arr(items: &[String]) -> String {
            let cells: Vec<String> = items.iter().map(|c| format!("\"{}\"", esc(c))).collect();
            format!("[{}]", cells.join(","))
        }
        let rows: Vec<String> = self.rows.iter().map(|r| arr(r)).collect();
        format!(
            "{{\"id\":\"{}\",\"title\":\"{}\",\"header\":{},\"rows\":[{}],\"notes\":{}}}",
            esc(&self.id),
            esc(&self.title),
            arr(&self.header),
            rows.join(","),
            arr(&self.notes),
        )
    }
}

fn s(x: impl ToString) -> String {
    x.to_string()
}

// ===========================================================================
// T1 — Table 1 control-mode semantics matrix
// ===========================================================================

/// Reproduces Table 1 (plus the new rfd/rdd rows) as *observed behaviour*:
/// for each mode, what actually happens when an application reads, writes,
/// or removes the linked file, with and without a token.
pub fn t1_control_modes() -> Table {
    let mut rows = Vec::new();
    for mode in ControlMode::ALL {
        let f = fixture(FixtureOptions { mode, n_files: 1, ..Default::default() });
        let fs = f.sys.fs(SRV).expect("fs");
        let path = &f.paths[0];

        let plain_read = fs
            .open(&APP, path, OpenOptions::read_only())
            .map(|fd| {
                fs.close(fd).ok();
            })
            .is_ok();
        let token_read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let tp = f.token_path(0, TokenKind::Read);
            fs.open(&APP, &tp, OpenOptions::read_only())
                .map(|fd| {
                    fs.close(fd).ok();
                })
                .is_ok()
        }))
        .unwrap_or(false);
        let plain_write = fs
            .open(&APP, path, OpenOptions::write_only())
            .map(|fd| {
                fs.close(fd).ok();
            })
            .is_ok();
        let token_write = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let tp = f.token_path(0, TokenKind::Write);
            fs.open(&APP, &tp, OpenOptions::write_only())
                .map(|fd| {
                    fs.close(fd).ok();
                })
                .is_ok()
        }))
        .unwrap_or(false);
        let remove = fs.remove(&APP, path).is_ok();
        // Recreate if the nff remove actually went through.
        if remove {
            f.sys.raw_fs(SRV).expect("raw").write_file(&APP, path, b"recreated").expect("recreate");
        }

        let yn = |b: bool| if b { "allow" } else { "deny " }.to_string();
        rows.push(vec![
            mode.to_string(),
            s(mode.referential_integrity()),
            format!("{:?}", mode.read_control()),
            format!("{:?}", mode.write_control()),
            yn(plain_read),
            yn(token_read),
            yn(plain_write),
            yn(token_write),
            yn(remove),
        ]);
    }
    Table {
        id: "T1".into(),
        title: "control-mode semantics (observed behaviour; paper Table 1 + new rfd/rdd)".into(),
        header: [
            "mode",
            "ref.int",
            "read-ctl",
            "write-ctl",
            "read",
            "read+tok",
            "write",
            "write+tok",
            "remove",
        ]
        .iter()
        .map(|h| h.to_string())
        .collect(),
        rows,
        notes: vec![
            "rdb/rdd deny plain reads and grant token reads (read control = DBMS)".into(),
            "rfd/rdd grant writes only with a write token (the paper's new modes)".into(),
            "remove of a linked file is denied for all r?? modes (referential integrity)".into(),
        ],
    }
}

// ===========================================================================
// E1 — DATALINK retrieval incl. token generation (§3.2: < 3 ms in 1998)
// ===========================================================================

pub fn e1_select_datalink(iters: u64) -> Table {
    let f = fixture(FixtureOptions::default());
    let plain = time_ns(iters, || {
        f.sys.select_datalink_url(TABLE, &Value::Int(0), "body").expect("select");
    });
    let with_token = time_ns(iters, || {
        f.sys
            .select_datalink(TABLE, &Value::Int(0), "body", TokenKind::Read)
            .expect("select+token");
    });
    Table {
        id: "E1".into(),
        title: "DATALINK column retrieval at the host DB (paper §3.2: <3 ms incl. token)".into(),
        header: vec![s("operation"), s("ns/op"), s("time")],
        rows: vec![
            vec![s("SELECT datalink (no token)"), s(format!("{plain:.0}")), fmt_ns(plain)],
            vec![
                s("SELECT datalink + token generation"),
                s(format!("{with_token:.0}")),
                fmt_ns(with_token),
            ],
            vec![
                s("token generation overhead"),
                s(format!("{:.0}", with_token - plain)),
                fmt_ns(with_token - plain),
            ],
        ],
        notes: vec![
            "paper: <3ms on a 200MHz PowerPC 604; the claim is 'small constant overhead'".into()
        ],
    }
}

// ===========================================================================
// E2 — DLFS + token validation overhead on open/read/close (§3.2: ~1 ms)
// ===========================================================================

pub fn e2_open_close_overhead(iters: u64) -> Table {
    let f = fixture(FixtureOptions { file_size: 1024, ..Default::default() });
    // Control file: same stack (LFS over DLFS), not linked.
    f.sys
        .raw_fs(SRV)
        .expect("raw")
        .write_file(&APP, "/data/control.bin", &make_content(1024))
        .expect("control");

    let plain = time_ns(iters, || {
        f.plain_read("/data/control.bin");
    });
    // Token validated once per open (the open check carries it).
    let managed = time_ns(iters, || {
        f.managed_read(0);
    });
    Table {
        id: "E2".into(),
        title: "open+read+close of a 1 KiB file: DLFS+token vs plain (paper §3.2: ~1 ms added)".into(),
        header: vec![s("path"), s("ns/cycle"), s("time"), s("overhead")],
        rows: vec![
            vec![s("plain file through DLFS"), s(format!("{plain:.0}")), fmt_ns(plain), s("--")],
            vec![
                s("rdd-linked file (token + upcalls)"),
                s(format!("{managed:.0}")),
                fmt_ns(managed),
                s(format!("+{}", fmt_ns(managed - plain))),
            ],
        ],
        notes: vec![
            "managed cycle = token validation upcall + open-check upcall + close upcall + sync entries".into(),
        ],
    }
}

// ===========================================================================
// E3 — read overhead sweep by file size (§3.2: <1% CPU+I/O, ~3% CPU at 1MB)
// ===========================================================================

pub fn e3_read_overhead_sweep(iters: u64, with_io: bool) -> Table {
    let sizes = [64 * 1024, 256 * 1024, 1024 * 1024, 4 * 1024 * 1024, 16 * 1024 * 1024];
    let io = if with_io { IoModel::disk_like() } else { IoModel::default() };
    let mut rows = Vec::new();
    for size in sizes {
        let f = fixture(FixtureOptions { file_size: size, n_files: 1, io, ..Default::default() });
        f.sys
            .raw_fs(SRV)
            .expect("raw")
            .write_file(&APP, "/data/control.bin", &make_content(size))
            .expect("control");
        let plain = time_ns(iters, || {
            f.plain_read("/data/control.bin");
        });
        let managed = time_ns(iters, || {
            f.managed_read(0);
        });
        let overhead_pct = (managed - plain) / plain * 100.0;
        rows.push(vec![
            s(format!("{} KiB", size / 1024)),
            fmt_ns(plain),
            fmt_ns(managed),
            s(format!("{overhead_pct:.2}%")),
        ]);
    }
    Table {
        id: "E3".into(),
        title: format!(
            "full-file read overhead vs size ({}) — paper §3.2: <1% CPU+I/O, ~3% CPU-only at 1MB",
            if with_io { "CPU+I/O: disk-like model" } else { "CPU only" }
        ),
        header: vec![s("file size"), s("plain read"), s("DataLinks read"), s("overhead")],
        rows,
        notes: vec![
            "shape to verify: fixed per-open cost amortizes — overhead % falls as size grows"
                .into(),
        ],
    }
}

// ===========================================================================
// E4 — open-for-write response time by mode (§5: 'only minor difference')
// ===========================================================================

pub fn e4_open_write_modes(iters: u64) -> Table {
    let mut rows = Vec::new();

    // Plain (unlinked) baseline.
    let f = fixture(FixtureOptions { n_files: 1, ..Default::default() });
    let raw = f.sys.raw_fs(SRV).expect("raw");
    raw.write_file(&APP, "/data/unmanaged.bin", b"x").expect("seed");
    let fs = f.sys.fs(SRV).expect("fs");
    let plain = time_ns(iters, || {
        let fd = fs.open(&APP, "/data/unmanaged.bin", OpenOptions::write_only()).expect("open");
        fs.close(fd).expect("close");
    });
    rows.push(vec![s("plain file"), s(format!("{plain:.0}")), fmt_ns(plain), s("--")]);

    for mode in [ControlMode::Rfd, ControlMode::Rdd] {
        let f = fixture(FixtureOptions { mode, n_files: 1, ..Default::default() });
        let fs = f.sys.fs(SRV).expect("fs");
        // Open-for-write + close (unmodified, so no archive/commit path) —
        // measures exactly the grant/release and update-status maintenance.
        let path = f.token_path(0, TokenKind::Write);
        let ns = time_ns(iters, || {
            let fd = fs.open(&APP, &path, OpenOptions::write_only()).expect("open");
            fs.close(fd).expect("close");
        });
        rows.push(vec![
            s(format!("{mode}-linked")),
            s(format!("{ns:.0}")),
            fmt_ns(ns),
            s(format!("+{}", fmt_ns(ns - plain))),
        ]);
    }
    Table {
        id: "E4".into(),
        title: "open-for-write + close latency by control mode (paper §5: minor difference; \
                update-status maintenance 'insignificant')"
            .into(),
        header: vec![s("file"), s("ns/cycle"), s("time"), s("vs plain")],
        rows,
        notes: vec![
            "rfd pays: failed physical open + takeover upcall + writer entry + release".into(),
            "rdd pays: open-check upcall + writer entry + release (the writer entry is DLFM's \
             in-memory open table: the write open logs nothing)"
                .into(),
        ],
    }
}

// ===========================================================================
// A1 — UIP vs CICO vs CAU under concurrent writers (§3)
// ===========================================================================

pub fn a1_disciplines(writers: usize, updates_per_writer: usize) -> Table {
    let content = make_content(2048);

    // --- UIP: the real system, one shared file, blocking writers.
    let f = fixture(FixtureOptions { n_files: 1, sync_archive: true, ..Default::default() });
    let uip_elapsed = run_threads(writers, |_| {
        for _ in 0..updates_per_writer {
            let path = f.token_path(0, TokenKind::Write);
            let fs = f.sys.fs(SRV).expect("fs");
            let fd = fs.open(&APP, &path, OpenOptions::write_truncate()).expect("open");
            fs.write(fd, &content).expect("write");
            fs.close(fd).expect("close");
        }
    });
    let uip_version = f
        .sys
        .node(SRV)
        .expect("node")
        .server
        .repository()
        .get_file(&f.paths[0])
        .expect("entry")
        .cur_version;

    // --- CICO: explicit checkout lock with retry loop.
    let db = Database::open(StorageEnv::mem()).expect("db");
    let mem = Arc::new(MemFs::new());
    let lfs = Arc::new(Lfs::new(mem as Arc<dyn FileSystem>));
    lfs.write_file(&APP, "/shared.bin", &content).expect("seed");
    lfs.setattr(&APP, "/shared.bin", &dl_fskit::SetAttr::chmod(0o666)).expect("chmod");
    let cico = CicoManager::new(db, Arc::clone(&lfs)).expect("cico");
    let retries = AtomicU64::new(0);
    let cico_elapsed = run_threads(writers, |t| {
        let cred = Cred::user(100 + t as u32);
        for _ in 0..updates_per_writer {
            let ticket = loop {
                match cico.checkout(&cred, "/shared.bin") {
                    Ok(t) => break t,
                    Err(_) => {
                        retries.fetch_add(1, Ordering::Relaxed);
                        std::thread::yield_now();
                    }
                }
            };
            cico.fs.write_file(&cred, "/shared.bin", &content).expect("write");
            cico.checkin(&ticket).expect("checkin");
        }
    });

    // --- CAU last-writer-wins: never blocks, loses updates.
    let db = Database::open(StorageEnv::mem()).expect("db");
    let mem = Arc::new(MemFs::new());
    let lfs = Arc::new(Lfs::new(mem as Arc<dyn FileSystem>));
    lfs.setattr(&Cred::root(), "/", &dl_fskit::SetAttr::chmod(0o777)).expect("chmod root");
    lfs.write_file(&APP, "/shared.bin", &content).expect("seed");
    lfs.setattr(&APP, "/shared.bin", &dl_fskit::SetAttr::chmod(0o666)).expect("chmod");
    let cau = CauManager::new(db, lfs).expect("cau");
    let cau_elapsed = run_threads(writers, |t| {
        let cred = Cred::user(100 + t as u32);
        for _ in 0..updates_per_writer {
            let copy = cau.copy_out(&cred, "/shared.bin").expect("copy");
            cau.fs.write_file(&cred, &copy.copy, &content).expect("edit");
            cau.check_in(&cred, &copy, MergePolicy::LastWriterWins).expect("checkin");
        }
    });
    let lost = cau.lost_updates.load(Ordering::Relaxed);

    let total = (writers * updates_per_writer) as f64;
    let thr = |d: std::time::Duration| total / d.as_secs_f64();
    Table {
        id: "A1".into(),
        title: format!(
            "update disciplines, {writers} writers x {updates_per_writer} updates of one file (§3)"
        ),
        header: vec![s("discipline"), s("elapsed"), s("updates/s"), s("lost updates"), s("notes")],
        rows: vec![
            vec![
                s("UIP (this paper)"),
                s(format!("{:.1?}", uip_elapsed)),
                s(format!("{:.0}", thr(uip_elapsed))),
                s(0),
                s(format!("all {uip_version}-1 updates serialized at open, none lost")),
            ],
            vec![
                s("CICO"),
                s(format!("{:.1?}", cico_elapsed)),
                s(format!("{:.0}", thr(cico_elapsed))),
                s(0),
                s(format!(
                    "{} busy retries; 2 DB updates per session",
                    retries.load(Ordering::Relaxed)
                )),
            ],
            vec![
                s("CAU (last-writer-wins)"),
                s(format!("{:.1?}", cau_elapsed)),
                s(format!("{:.0}", thr(cau_elapsed))),
                s(lost),
                s("no blocking, but committed updates silently lost"),
            ],
        ],
        notes: vec![
            "expected shape: CAU fastest but unsafe; UIP and CICO serialize, with CICO paying \
             explicit lock-table writes and retry spinning"
                .into(),
        ],
    }
}

// ===========================================================================
// A2 — transaction boundary: per-write upcalls vs open/close (§3.1)
// ===========================================================================

pub fn a2_txn_boundary(writes_per_open: &[usize]) -> Table {
    let f = fixture(FixtureOptions { n_files: 1, sync_archive: true, ..Default::default() });
    let fs = f.sys.fs(SRV).expect("fs");
    let chunk = make_content(512);
    let dlfs = f.sys.dlfs(SRV).expect("dlfs");
    let upcall = f.sys.node(SRV).expect("node").connect_agent();

    let mut rows = Vec::new();
    for &n in writes_per_open {
        // Actual design: upcalls only at open/close.
        let before = dlfs.round_trips();
        let path = f.token_path(0, TokenKind::Write);
        let fd = fs.open(&APP, &path, OpenOptions::write_truncate()).expect("open");
        for k in 0..n {
            fs.write_at(fd, (k * chunk.len()) as u64, &chunk).expect("write");
        }
        fs.close(fd).expect("close");
        let actual = dlfs.round_trips() - before;

        // Rejected design (§3.1): every fs_readwrite would also upcall —
        // cost modelled as actual + n extra round-trips of the measured
        // upcall latency.
        let upcall_ns = time_ns(200, || {
            let _ = upcall.mutation_check("/data/doesnotexist");
        });
        rows.push(vec![s(n), s(actual), s(actual as usize + n), fmt_ns(upcall_ns * n as f64)]);
    }
    Table {
        id: "A2".into(),
        title: "transaction boundary ablation (§3.1): upcalls per update session".into(),
        header: vec![
            s("writes per open"),
            s("upcalls (open/close boundary)"),
            s("upcalls (per-write boundary)"),
            s("extra upcall time at per-write"),
        ],
        rows,
        notes: vec![
            "open/close boundary keeps the upcall count constant regardless of write count —\
             the paper's argument for treating open..close as the transaction"
                .into(),
        ],
    }
}

// ===========================================================================
// A3 — read path: rfd vs rdd (§4.2/§5)
// ===========================================================================

pub fn a3_read_path(iters: u64) -> Table {
    let mut rows = Vec::new();
    for mode in [ControlMode::Rfd, ControlMode::Rdd] {
        let f = fixture(FixtureOptions { mode, n_files: 1, file_size: 4096, ..Default::default() });
        let dlfs = f.sys.dlfs(SRV).expect("dlfs");
        let fs = f.sys.fs(SRV).expect("fs");

        // rfd reads need no token; rdd reads do (prime the token entry once
        // so the steady-state cost is visible separately).
        let path = if mode == ControlMode::Rdd {
            f.token_path(0, TokenKind::Read)
        } else {
            f.paths[0].clone()
        };
        let before = dlfs.round_trips();
        let ns = time_ns(iters, || {
            let fd = fs.open(&APP, &path, OpenOptions::read_only()).expect("open");
            fs.close(fd).expect("close");
        });
        let upcalls = dlfs.round_trips() - before;
        rows.push(vec![
            mode.to_string(),
            s(format!("{ns:.0}")),
            fmt_ns(ns),
            s(format!("{:.2}", upcalls as f64 / iters as f64)),
        ]);
    }
    Table {
        id: "A3".into(),
        title: "read-open cost: rfd (FS-controlled reads) vs rdd (DBMS-controlled) — §4.2".into(),
        header: vec![s("mode"), s("ns/open+close"), s("time"), s("upcalls/open")],
        rows,
        notes: vec![
            "rfd: zero upcalls on the read path — the paper's key optimization; the price is \
             the §5 read/write anomaly (demonstrated by test \
             rfd_write_takes_slow_path_and_reads_stay_fast)"
                .into(),
            "rdd: every open pays the token check + sync entries: the open check (carrying the \
             token) and the close, 2 upcalls per open"
                .into(),
        ],
    }
}

// ===========================================================================
// A4 — Sync-table read tracking cost (§4.5: 2 extra DB updates + 1 upcall)
// ===========================================================================

pub fn a4_sync_table_cost(iters: u64) -> Table {
    let mut rows = Vec::new();
    for track in [true, false] {
        let f = fixture(FixtureOptions {
            mode: ControlMode::Rdd,
            n_files: 1,
            track_read_sync: track,
            ..Default::default()
        });
        let fs = f.sys.fs(SRV).expect("fs");
        let path = f.token_path(0, TokenKind::Read);
        let node = f.sys.node(SRV).expect("node");
        let opens = node.server.repository().opens();
        let repo_before = opens.updates();
        let ns = time_ns(iters, || {
            let fd = fs.open(&APP, &path, OpenOptions::read_only()).expect("open");
            fs.close(fd).expect("close");
        });
        let repo_ops = opens.updates() - repo_before;
        rows.push(vec![
            s(if track { "sync entries on (default)" } else { "sync entries off (ablation)" }),
            s(format!("{ns:.0}")),
            fmt_ns(ns),
            s(format!("{:.2}", repo_ops as f64 / iters as f64)),
        ]);
    }
    Table {
        id: "A4".into(),
        title: "Sync-table read tracking (§4.5: 'two extra database update operations and one \
                extra upcall for every request that opens file for read')"
            .into(),
        header: vec![s("configuration"), s("ns/open+close"), s("time"), s("repo updates/open")],
        rows,
        notes: vec![
            "repo updates/open reads OpenTable::updates: Sync-table updates (in DLFM memory), \
             each a check-and-set of the open table counted once it took effect. on: \
             the read claim (the Sync entry + the entry of the token the open carries) + the \
             purge at close = 2. off: the token entry alone = 1 (no Sync entry can exist, so \
             the close purges nothing)"
                .into(),
            "so tracking still costs the paper's two extra updates (Sync insert and purge), but \
             neither is a repository transaction: no row lock, no commit, no log — the \
             ns/open+close gap between on and off is two table updates under one mutex, and \
             the ablation saves it at the price of the read/unlink race"
                .into(),
        ],
    }
}

// ===========================================================================
// A5 — async vs sync archiving (§4.4)
// ===========================================================================

pub fn a5_archive_async(sizes_kib: &[usize], iters: u64) -> Table {
    let mut rows = Vec::new();
    for &kib in sizes_kib {
        let mut cells = vec![s(format!("{kib} KiB"))];
        for sync in [false, true] {
            let f = fixture(FixtureOptions {
                n_files: 1,
                file_size: kib * 1024,
                sync_archive: sync,
                io: IoModel::disk_like(),
                ..Default::default()
            });
            let fs = f.sys.fs(SRV).expect("fs");
            let content = make_content(kib * 1024);
            // Measure the close() call alone: that is where §4.4's
            // asynchronous archiving pays off.
            let mut close_ns = 0u128;
            for _ in 0..iters {
                let path = f.token_path(0, TokenKind::Write);
                let fd = fs.open(&APP, &path, OpenOptions::write_truncate()).expect("open");
                fs.write(fd, &content).expect("write");
                let t = std::time::Instant::now();
                fs.close(fd).expect("close");
                close_ns += t.elapsed().as_nanos();
                f.sys.node(SRV).expect("node").server.archive_store().wait_archived(&f.paths[0]);
            }
            cells.push(fmt_ns(close_ns as f64 / iters as f64));
        }
        rows.push(cells);
    }
    Table {
        id: "A5".into(),
        title: "archiving policy (§4.4): close() latency, async (paper) vs sync (ablation)".into(),
        header: vec![s("file size"), s("close, async archive"), s("close, sync archive")],
        rows,
        notes: vec![
            "async archiving moves the content copy off the close path; a new update to the \
             same file still starts only once the archive holds the closed version (the §4.4 \
             blocking rule), but it waits for no other thread: the write open runs its file's \
             queued job itself, or waits out the one the archiver has started"
                .into(),
        ],
    }
}

// ===========================================================================
// A6 — atomicity under crash injection (§4.2)
// ===========================================================================

pub fn a6_crash_atomicity(rounds: usize) -> Table {
    use dl_core::DataLinksSystem;
    let mut survived = 0usize;
    let mut restored = 0usize;
    let mut kept = 0usize;
    let (mut rolled_back, mut rolled_forward) = (0u64, 0u64);
    for round in 0..rounds {
        let mut f = fixture(FixtureOptions { n_files: 1, ..Default::default() });
        let committed = make_content(1024 + round);
        f.managed_update(0, &committed);

        // Start another update, write garbage, crash before close.
        let path = f.token_path(0, TokenKind::Write);
        let fs = f.sys.fs(SRV).expect("fs");
        let fd = fs.open(&APP, &path, OpenOptions::write_truncate()).expect("open");
        fs.write(fd, b"doomed").expect("write");
        let (sys, reports) = DataLinksSystem::recover(f.sys.crash()).expect("recover");
        f.sys = sys;
        rolled_back += reports[SRV].updates_rolled_back;

        let raw = |sys: &DataLinksSystem| {
            sys.raw_fs(SRV).expect("raw").read_file(&Cred::root(), &f.paths[0]).expect("read")
        };
        if raw(&f.sys) == committed {
            restored += 1;
        }
        survived += 1;

        // The other side of the commit point: an *acknowledged* update,
        // crashed before anything flushed the repository's unforced close
        // record. The claim survives; the host row says it committed.
        let acked = make_content(2048 + round);
        f.managed_update(0, &acked);
        let (sys, reports) = DataLinksSystem::recover(f.sys.crash()).expect("recover");
        rolled_forward += reports[SRV].updates_rolled_forward;
        if raw(&sys) == acked {
            kept += 1;
        }
    }
    Table {
        id: "A6".into(),
        title: "atomicity: crash mid-update always restores the last committed version, \
                crash after the close always keeps the acknowledged one (§4.2)"
            .into(),
        header: vec![
            s("crash rounds"),
            s("recovered"),
            s("content == last committed"),
            s("acked update kept"),
        ],
        rows: vec![vec![s(rounds), s(survived), s(restored), s(kept)]],
        notes: vec![
            format!(
                "recovery reports, summed: updates_rolled_back {rolled_back}, \
                 updates_rolled_forward {rolled_forward} (a surviving claim whose version the \
                 host's metadata row already records)"
            ),
            "property-based variants live in tests/crash_recovery.rs; every cut point of the \
             close path in tests/close_commit_sweep.rs"
                .into(),
        ],
    }
}

// ===========================================================================
// A7 — coordinated point-in-time restore (§4.4)
// ===========================================================================

pub fn a7_point_in_time(versions: usize) -> Table {
    let f = fixture(FixtureOptions { n_files: 1, ..Default::default() });
    let mut states = vec![f.sys.state_id()];
    let mut contents =
        vec![f.sys.raw_fs(SRV).unwrap().read_file(&Cred::root(), &f.paths[0]).unwrap()];
    for v in 2..=versions {
        let content = make_content(512 + v);
        f.managed_update(0, &content);
        states.push(f.sys.state_id());
        contents.push(content);
    }
    let backup = f.sys.backup().expect("backup");

    let mut rows = Vec::new();
    let mut sys = f.sys;
    let paths = f.paths;
    for (i, state) in states.iter().enumerate().rev() {
        let (restored, reports) = sys.restore(&backup, *state).expect("restore");
        let rolled_back: u64 = reports.values().map(|r| r.versions_rolled_back).sum();
        let data =
            restored.raw_fs(SRV).expect("raw").read_file(&Cred::root(), &paths[0]).expect("read");
        let matches = data == contents[i];
        rows.push(vec![s(format!("v{}", i + 1)), s(*state), s(rolled_back), s(matches)]);
        sys = restored;
    }
    Table {
        id: "A7".into(),
        title: "coordinated point-in-time restore: file content matches restored metadata (§4.4)"
            .into(),
        header: vec![
            s("target version"),
            s("state id (LSN)"),
            s("files rolled back"),
            s("content matches"),
        ],
        rows,
        notes: vec![
            "restore walks backwards v5→v1; every step must land on that version's bytes".into()
        ],
    }
}

// ===========================================================================
// A8 — strict-link extension cost (§4.5 future work, implemented)
// ===========================================================================

pub fn a8_strict_link(iters: u64) -> Table {
    let mut rows = Vec::new();
    for strict in [false, true] {
        let f = fixture(FixtureOptions { strict, n_files: 1, ..Default::default() });
        f.sys
            .raw_fs(SRV)
            .expect("raw")
            .write_file(&APP, "/data/unlinked.bin", b"plain")
            .expect("seed");
        let fs = f.sys.fs(SRV).expect("fs");
        let dlfs = f.sys.dlfs(SRV).expect("dlfs");
        let before = dlfs.round_trips();
        let ns = time_ns(iters, || {
            let fd = fs.open(&APP, "/data/unlinked.bin", OpenOptions::read_only()).expect("open");
            fs.close(fd).expect("close");
        });
        let upcalls = (dlfs.round_trips() - before) as f64 / iters as f64;
        rows.push(vec![
            s(if strict { "strict (window closed)" } else { "default (paper prototype)" }),
            s(format!("{ns:.0}")),
            fmt_ns(ns),
            s(format!("{upcalls:.2}")),
        ]);
    }
    Table {
        id: "A8".into(),
        title: "closing the §4.5 link window: per-open cost of registering *unlinked* opens".into(),
        header: vec![s("configuration"), s("ns/open+close"), s("time"), s("upcalls/open")],
        rows,
        notes: vec![
            "the paper rejects this ('undesirable for performance reasons') and leaves it as \
             future work; the measured cost quantifies why"
                .into(),
        ],
    }
}

/// Latency distribution helper used by the report's appendix.
pub fn open_latency_distribution(mode: ControlMode, samples: usize) -> (u64, u64, u64) {
    let f = fixture(FixtureOptions { mode, n_files: 1, ..Default::default() });
    let fs = f.sys.fs(SRV).expect("fs");
    let path = match mode.read_control() {
        dl_dlfm::AccessControl::Dbms => f.token_path(0, TokenKind::Read),
        _ => f.paths[0].clone(),
    };
    let mut lat: Vec<u64> = (0..samples)
        .map(|_| {
            let t = std::time::Instant::now();
            let fd = fs.open(&APP, &path, OpenOptions::read_only()).expect("open");
            fs.close(fd).expect("close");
            t.elapsed().as_nanos() as u64
        })
        .collect();
    (percentile(&mut lat, 0.50), percentile(&mut lat, 0.99), percentile(&mut lat, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cell of the row labelled `row` (first cell) under `column`.
    fn cell<'a>(t: &'a Table, row: &str, column: &str) -> &'a str {
        let col = t.header.iter().position(|h| h == column).expect("column");
        let row = t.rows.iter().find(|r| r[0] == row).expect("row");
        row[col].trim()
    }

    /// The tables whose cells are deterministic, at `report --quick`
    /// iteration counts: nothing else in CI executes these runners.
    #[test]
    fn deterministic_paper_tables_hold_their_cells() {
        // T1: the paper's Table 1 plus the rfd/rdd rows.
        let t1 = t1_control_modes();
        let ops = ["read", "read+tok", "write", "write+tok", "remove"];
        for (mode, allowed) in [
            ("nff", [true, true, true, true, true]),
            ("rff", [true, true, true, true, false]),
            ("rfb", [true, true, false, false, false]),
            ("rdb", [false, true, false, false, false]),
            ("rfd", [true, true, false, true, false]),
            ("rdd", [false, true, false, true, false]),
        ] {
            for (op, allow) in ops.iter().zip(allowed) {
                let want = if allow { "allow" } else { "deny" };
                assert_eq!(cell(&t1, mode, op), want, "T1 {mode} / {op}");
            }
        }
        assert_eq!(t1.rows.len(), 6);

        // A2: 2 upcalls per session at the open/close boundary whatever the
        // write count (the token rides the open check), against writes + 2
        // at a per-write boundary.
        let sweep = [1usize, 8, 64, 256];
        let a2 = a2_txn_boundary(&sweep);
        assert_eq!(a2.rows.len(), sweep.len());
        for writes in sweep {
            let row = writes.to_string();
            assert_eq!(cell(&a2, &row, "upcalls (open/close boundary)"), "2");
            assert_eq!(cell(&a2, &row, "upcalls (per-write boundary)"), (writes + 2).to_string());
        }

        let a3 = a3_read_path(50);
        assert_eq!(cell(&a3, "rfd", "upcalls/open"), "0.00");
        assert_eq!(cell(&a3, "rdd", "upcalls/open"), "2.00");

        // A4: the paper's "two extra"; what the 3 and the 1 are is in the
        // table's own notes.
        let a4 = a4_sync_table_cost(50);
        assert_eq!(cell(&a4, "sync entries on (default)", "repo updates/open"), "2.00");
        assert_eq!(cell(&a4, "sync entries off (ablation)", "repo updates/open"), "1.00");

        let a6 = a6_crash_atomicity(3);
        assert_eq!(a6.rows, vec![vec![s(3), s(3), s(3), s(3)]]);
        assert!(a6.notes[0].contains("updates_rolled_back 3, updates_rolled_forward 3"));

        let a7 = a7_point_in_time(5);
        assert_eq!(a7.rows.len(), 5);
        for row in &a7.rows {
            assert_eq!(cell(&a7, &row[0], "content matches"), "true", "A7 {}", row[0]);
        }

        let a8 = a8_strict_link(50);
        assert_eq!(cell(&a8, "default (paper prototype)", "upcalls/open"), "0.00");
        assert_eq!(cell(&a8, "strict (window closed)", "upcalls/open"), "2.00");
    }

    /// `to_json` escapes what JSON requires — quote, backslash, newline,
    /// tab and every other control character — and passes the rest (`µ`)
    /// through as UTF-8.
    #[test]
    fn to_json_escapes_quotes_backslashes_and_control_characters() {
        let t = Table {
            id: "X1".into(),
            title: "a \"quoted\" title\nwith a newline".into(),
            header: vec![s("op"), s("back\\slash"), s("time")],
            rows: vec![
                vec![s("read"), s("bell\u{7}"), s("1.00 µs")],
                vec![s("write"), s(""), s("\t")],
            ],
            notes: vec![s("µ, \u{1f} and \"\\\" together")],
        };
        assert_eq!(
            t.to_json(),
            concat!(
                r#"{"id":"X1","title":"a \"quoted\" title\nwith a newline","#,
                r#""header":["op","back\\slash","time"],"#,
                r#""rows":[["read","bell\u0007","1.00 µs"],["write","","\t"]],"#,
                r#""notes":["µ, \u001f and \"\\\" together"]}"#,
            )
        );
    }
}
