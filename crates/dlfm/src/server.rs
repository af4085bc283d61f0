//! The DataLinks File Manager server.
//!
//! One `DlfmServer` runs per file server node (§2.2). It owns:
//!
//! * the repository (transaction state + linked-file state),
//! * the archive store and asynchronous archiver,
//! * root-credentialed admin access to the *raw* physical file system
//!   (bypassing DLFS) for take-over, restore and content capture,
//! * the link/unlink sub-transaction machinery driven by the host database
//!   through two-phase commit,
//! * the upcall service logic (token validation, open check, close
//!   processing, remove/rename vetoes) invoked by the upcall daemon.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dl_fskit::{Clock, Cred, FileKind, FileSystem, Lfs, SetAttr};
use dl_net::Message;
use parking_lot::{Condvar, Mutex, RwLock};

use crate::archive::{ArchiveJob, ArchiveStore, Archiver};
use crate::modes::{ControlMode, OnUnlink};
use crate::repository::{BranchOp, FileEntry, IntentEntry, Repository, SyncEntry, UipEntry};
use crate::token::{AccessToken, TokenKind};

/// How the host database and DLFS reach this DLFM instance: which carrier
/// their [`crate::DlfmClient`]s ride.
///
/// `Local` hands each [`dl_net::Message`] to the daemon pools in-process;
/// `Socket` puts the same messages on the wire — the node runs a
/// `WireDaemon` serving framed Unix-socket connections (see `crate::wire`),
/// which is how the paper's host↔DLFM boundary actually ships. Both end in
/// [`DlfmServer::handle`]; the choice is per-node via
/// [`DlfmConfig::transport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    #[default]
    Local,
    Socket,
}

/// Server configuration.
#[derive(Clone)]
pub struct DlfmConfig {
    /// Name under which the host database addresses this file server; also
    /// the server component of DATALINK URLs.
    pub server_name: String,
    /// The uid/gid DLFM's daemons run as; take-over transfers file
    /// ownership to this identity.
    pub dlfm_cred: Cred,
    /// Per-server secret shared with the DataLinks engine for token MACs.
    pub token_key: Vec<u8>,
    /// Archive the new version synchronously inside close processing
    /// instead of asynchronously (ablation A5; the paper uses async).
    pub sync_archive: bool,
    /// Track read opens of full-control files in the Sync table (§4.5).
    /// Disabling is the ablation that re-opens the read/unlink race.
    pub track_read_sync: bool,
    /// Close the §4.5 "window of inconsistency": require DLFS to register
    /// *every* open (even of unlinked files) so link can detect open files.
    /// The paper leaves this as future work because of its cost; we
    /// implement it as an ablation.
    pub strict_link: bool,
    /// Options for the repository's embedded minidb — notably the commit
    /// pipeline (group commit vs per-commit sync, batch size, delay).
    pub db: dl_minidb::DbOptions,
    /// Floor of the elastic upcall daemon pool: workers kept resident even
    /// when idle. More than one lets concurrent opens/closes drive
    /// concurrent repository commits (which the group-commit pipeline then
    /// batches).
    pub upcall_workers_min: usize,
    /// Ceiling of the elastic upcall pool: how far a request burst may
    /// grow the worker count before requests queue. Set equal to
    /// `upcall_workers_min` for a fixed pool (the PR 2 shape).
    pub upcall_workers_max: usize,
    /// Base idle window (milliseconds) after which an above-floor upcall
    /// worker retires; stretched automatically with observed service time
    /// (see `crates/dlfm/src/pool.rs`).
    pub upcall_idle_ms: u64,
    /// Ceiling of the shared agent executor that serves every agent
    /// connection's link/unlink requests: 256 connections multiplex over
    /// at most this many OS threads.
    pub agent_executor_threads: usize,
    /// How agents and upcalls reach this node: in-process calls
    /// ([`Transport::Local`], the default) or framed Unix-socket
    /// connections served by a `WireDaemon` ([`Transport::Socket`]).
    pub transport: Transport,
    /// How long a `Transport::Socket` client call waits for its reply
    /// frame before it fails (milliseconds, > 0; counted as
    /// `net.<node>.call_timeouts`). Generous by default: every
    /// server-side stage is pool-queued, and a stall this long means the
    /// daemon is gone or wedged.
    pub wire_call_timeout_ms: u64,
    /// Capacity of the server's flight-recorder ring (span events retained
    /// for the crash/failover dump). An undersized ring still keeps the
    /// *most recent* events — the fenced decides of an in-doubt
    /// resolution survive even when the burst that led up to them has
    /// been evicted.
    pub flight_ring_capacity: usize,
}

impl DlfmConfig {
    pub fn new(server_name: &str) -> DlfmConfig {
        DlfmConfig {
            server_name: server_name.to_string(),
            dlfm_cred: Cred::user(900),
            token_key: format!("dlfm-key-{server_name}").into_bytes(),
            sync_archive: false,
            track_read_sync: true,
            strict_link: false,
            db: dl_minidb::DbOptions::default(),
            upcall_workers_min: 2,
            upcall_workers_max: 64,
            upcall_idle_ms: 100,
            agent_executor_threads: 16,
            transport: Transport::default(),
            wire_call_timeout_ms: 30_000,
            flight_ring_capacity: 256,
        }
    }

    /// Sets the flight-recorder ring capacity (see
    /// [`DlfmConfig::flight_ring_capacity`]).
    pub fn flight_ring(mut self, capacity: usize) -> DlfmConfig {
        self.flight_ring_capacity = capacity;
        self
    }

    /// Sets the elastic upcall pool bounds.
    pub fn upcall_workers(mut self, min: usize, max: usize) -> DlfmConfig {
        self.upcall_workers_min = min;
        self.upcall_workers_max = max.max(min);
        self
    }
}

/// Operation counters (benchmarks and the telemetry registry read these).
#[derive(Debug, Default)]
pub struct DlfmStats {
    pub upcalls: dl_obs::Counter,
    pub token_validations: dl_obs::Counter,
    pub open_checks: dl_obs::Counter,
    pub close_notifies: dl_obs::Counter,
    pub links: dl_obs::Counter,
    pub unlinks: dl_obs::Counter,
    pub takeovers: dl_obs::Counter,
    pub archives: dl_obs::Counter,
    pub busy_responses: dl_obs::Counter,
    pub rollbacks: dl_obs::Counter,
    /// Surviving claims recovery found committed on the host and rolled
    /// forward (the close's unforced repository record was lost).
    pub updates_rolled_forward: dl_obs::Counter,
    /// 2PC traffic refused because it carried a stale coordinator epoch
    /// (a zombie host's late decisions bouncing off the fence).
    pub stale_coord_rejections: dl_obs::Counter,
}

/// Hook back into the host database, implemented by the DataLinks engine.
pub trait HostHook: Send + Sync {
    /// The host's current database state identifier (tail LSN).
    fn state_id(&self) -> u64;
    /// Runs a host transaction updating the file's metadata row (§4.3);
    /// returns the commit LSN. Its forced `Commit` record is the update's
    /// one commit point: the transaction enlists nobody, and `Ok` means the
    /// row durably says `new_version`.
    fn commit_file_update(
        &self,
        url: &str,
        new_size: u64,
        new_mtime: u64,
        new_version: u64,
    ) -> Result<u64, String>;
    /// The version the host's committed metadata row records for `url`
    /// (`None` = no row) — the one thing DLFM ever asks the host about a
    /// transaction's fate. The row is written by the very host transaction
    /// that links (version 1), updates (version + 1) or unlinks (deleted)
    /// the file, so a surviving update claim and a link/unlink branch whose
    /// decision never arrived both settle by it.
    fn file_version(&self, url: &str) -> Option<u64>;
}

/// A deferred file-system action executed when the sub-transaction commits.
enum DeferredFs {
    RestoreAttrs { path: String, uid: u32, gid: u32, mode: u16 },
    DeleteFile { path: String },
}

/// An undo action executed when the sub-transaction aborts.
enum UndoFs {
    RestoreAttrs { path: String, uid: u32, gid: u32, mode: u16 },
}

/// State of one host transaction's link/unlink work on this server.
struct SubTxn {
    txn: Option<dl_minidb::Txn>,
    undo: Vec<UndoFs>,
    deferred: Vec<DeferredFs>,
    /// The files this branch linked or unlinked, one forced intent each —
    /// what the settle rule asks the host about, and whose intents the
    /// decision clears.
    files: Vec<(String, BranchOp)>,
}

/// Decision returned by the open check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpenDecision {
    /// Open approved; DLFS must perform the physical open as this identity.
    Approved { open_as: Cred },
    /// The file is not managed by this DLFM.
    NotManaged,
    /// A conflicting open or an in-flight archive; retry after a change.
    Busy,
    /// Denied (bad token, blocked mode, ...).
    Rejected(String),
}

/// Where a request of the protocol runs (§2.2's daemons as lanes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Cheap session reads (`Hello`, `EpochGet`, `FreshnessToken`) — and
    /// anything that is not a request at all: served where it arrives.
    Inline,
    /// Link/unlink: the shared agent executor. These block on repository
    /// row locks until the lock-holding transaction settles.
    Agent,
    /// 2PC settlement: never behind the agent executor's bound. A lane
    /// saturated with lock-waiting links would leave no slot for the one
    /// commit that releases them, so settlement runs on the coordinator's
    /// own thread in-process and on a dedicated pool over the wire.
    Settle,
    /// The DLFS conversation: the elastic upcall pool.
    Upcall,
}

/// The lane `msg` is served on. Sibling of [`DlfmServer::handle`]: a
/// carrier asks this where to run a request, whoever serves the lane asks
/// `handle` what the request means.
pub fn lane(msg: &Message) -> Lane {
    match msg {
        Message::Link { .. } | Message::Unlink { .. } => Lane::Agent,
        Message::Prepare { .. } | Message::Commit { .. } | Message::Abort { .. } => Lane::Settle,
        Message::ValidateToken { .. }
        | Message::OpenCheck { .. }
        | Message::CloseNotify { .. }
        | Message::MutationCheck { .. }
        | Message::RegisterOpen { .. }
        | Message::UnregisterOpen { .. } => Lane::Upcall,
        _ => Lane::Inline,
    }
}

/// Mode-dependent attributes of a file *at rest* while linked.
fn linked_attrs(mode: ControlMode, entry: &FileEntry, dlfm: &Cred) -> (u32, u32, u16) {
    if mode.takes_over_at_link() {
        // Full control: owned by DLFM, readable by no one else.
        (dlfm.uid, dlfm.gid, 0o400)
    } else if mode.read_only_at_link() {
        // rfb/rfd: original owner, write bits stripped.
        (entry.orig_uid, entry.orig_gid, entry.orig_mode & !0o222)
    } else {
        (entry.orig_uid, entry.orig_gid, entry.orig_mode)
    }
}

/// Epoch bumped whenever sync/archive state changes; blocked opens wait on
/// it and retry. Shared (via `Arc`) with the archiver completion callback
/// so an asynchronous archive completion also wakes blocked writers.
#[derive(Default)]
struct SyncEpoch {
    epoch: Mutex<u64>,
    changed: Condvar,
}

impl SyncEpoch {
    fn bump(&self) {
        *self.epoch.lock() += 1;
        self.changed.notify_all();
    }

    fn get(&self) -> u64 {
        *self.epoch.lock()
    }

    fn wait_change(&self, seen: u64) {
        let mut epoch = self.epoch.lock();
        while *epoch == seen {
            self.changed.wait(&mut epoch);
        }
    }
}

/// The DLFM server.
pub struct DlfmServer {
    cfg: DlfmConfig,
    repo: Arc<Repository>,
    archive: Arc<ArchiveStore>,
    /// This server's writer generation on `archive`, stamped on every
    /// mutation it and its archiver make: a newer server on the same store
    /// (a promoted standby, a recovered node) fences this one.
    generation: u64,
    archiver: Archiver,
    /// Root-credentialed logical FS over the *raw* physical file system.
    admin: Lfs,
    clock: Arc<dyn Clock>,
    host: RwLock<Option<Arc<dyn HostHook>>>,
    pending: Mutex<HashMap<u64, Arc<Mutex<SubTxn>>>>,
    sync_epoch: Arc<SyncEpoch>,
    /// Lowest coordinator epoch (= host generation) whose 2PC traffic this
    /// server still accepts. Host failover raises it on every node; agent
    /// connections minted under an older host carry the older epoch, so a
    /// zombie coordinator's late decisions are refused rather than applied.
    coord_fence: AtomicU64,
    /// Trace ring for 2PC span events (claim/prepare/decide/fence/archive);
    /// dumped by the system layer on crash or failover.
    recorder: Arc<dl_obs::FlightRecorder>,
    /// `dlfm.<server_name>` — the `source` stamped on every span event.
    flight_source: String,
    /// Set by [`DlfmServer::simulate_crash`]: a crashed server must not
    /// tidy up on drop.
    crashed: std::sync::atomic::AtomicBool,
    pub stats: DlfmStats,
}

const ROOT: Cred = Cred::root();

impl DlfmServer {
    /// Creates a server over the raw physical file system `fs`, with its
    /// repository in `repo` — opened by the caller under
    /// [`DlfmConfig::db`] from its disks, or a standby promoted in place —
    /// and the node's archive store — pre-existing or new, it takes the
    /// store's next writer generation, which fences every server that wrote
    /// it before. Whatever the repository holds is brought to the host's
    /// rows by [`DlfmServer::recover`], before the node serves anyone.
    pub fn new(
        cfg: DlfmConfig,
        fs: Arc<dyn FileSystem>,
        repo: dl_minidb::Database,
        archive: Arc<ArchiveStore>,
        clock: Arc<dyn Clock>,
    ) -> Result<DlfmServer, String> {
        let generation = archive.take_generation();
        let repo = Arc::new(Repository::new(repo).map_err(|e| e.to_string())?);
        let sync_epoch = Arc::new(SyncEpoch::default());
        let source_fs = Lfs::new(Arc::clone(&fs));
        let source: crate::archive::ContentSource =
            Arc::new(move |path: &str| source_fs.read_file(&ROOT, path).ok());
        // Completion callback: once the store durably holds the version,
        // `needs_archive` can clear eagerly (recovery's lazy clear remains
        // as the backstop for crashes mid-archive). The clear is guarded
        // twice — the store must actually hold the version (a job whose
        // content read failed stores nothing) and the version must still
        // be current (a newer update may have committed meanwhile). The
        // epoch bump is unconditional: it wakes writers blocked on the
        // in-flight archive marker either way.
        let cb_repo = Arc::clone(&repo);
        let cb_epoch = Arc::clone(&sync_epoch);
        let cb_store = Arc::clone(&archive);
        let on_complete: crate::archive::ArchiveCompletion =
            Arc::new(move |path: &str, version: u64| {
                if cb_store.get(path, version).is_some() {
                    let _ = cb_repo.clear_needs_archive_if_version(path, version);
                }
                cb_epoch.bump();
            });
        let archiver = Archiver::spawn(Arc::clone(&archive), generation, source, on_complete);
        let flight_source = format!("dlfm.{}", cfg.server_name);
        let flight_ring_capacity = cfg.flight_ring_capacity;
        Ok(DlfmServer {
            cfg,
            repo,
            archive,
            generation,
            archiver,
            admin: Lfs::new(fs),
            clock,
            host: RwLock::new(None),
            pending: Mutex::new(HashMap::new()),
            sync_epoch,
            coord_fence: AtomicU64::new(0),
            recorder: Arc::new(dl_obs::FlightRecorder::new(flight_ring_capacity)),
            flight_source,
            crashed: std::sync::atomic::AtomicBool::new(false),
            stats: DlfmStats::default(),
        })
    }

    pub fn config(&self) -> &DlfmConfig {
        &self.cfg
    }

    pub fn repository(&self) -> &Repository {
        &self.repo
    }

    pub fn archive_store(&self) -> &Arc<ArchiveStore> {
        &self.archive
    }

    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Wires the host-database hook (the DataLinks engine).
    pub fn set_host_hook(&self, hook: Arc<dyn HostHook>) {
        *self.host.write() = Some(hook);
    }

    /// This node's flight recorder: the span events of every 2PC cycle that
    /// touched this server, retained in a fixed ring for post-mortem dumps.
    pub fn flight_recorder(&self) -> &Arc<dl_obs::FlightRecorder> {
        &self.recorder
    }

    // =====================================================================
    // Coordinator fencing (host failover)
    // =====================================================================

    /// The coordinator epoch (host generation) this server currently
    /// trusts. Agent connections capture it at connect time and stamp it
    /// on every 2PC request.
    pub fn coordinator_epoch(&self) -> u64 {
        self.coord_fence.load(Ordering::SeqCst)
    }

    /// Raises the coordinator fence to `epoch` (monotonic: a lower value
    /// is a no-op). Host failover calls this on every DLFM node *before*
    /// promoting the standby, so a deposed host that is still running —
    /// a zombie coordinator — has its late 2PC decisions refused
    /// everywhere rather than applied behind the new coordinator's back.
    pub fn fence_coordinator(&self, epoch: u64) {
        self.coord_fence.fetch_max(epoch, Ordering::SeqCst);
        self.recorder.record(&self.flight_source, "fence_raise", 0, "", format!("epoch={epoch}"));
    }

    /// Admits or refuses 2PC traffic stamped with `epoch`. A refusal is
    /// counted in [`DlfmStats::stale_coord_rejections`].
    pub fn guard_coordinator(&self, epoch: u64) -> Result<(), String> {
        let fence = self.coord_fence.load(Ordering::SeqCst);
        if epoch < fence {
            self.stats.stale_coord_rejections.inc();
            self.recorder.record(
                &self.flight_source,
                "fence_reject",
                0,
                "",
                format!("epoch={epoch} fence={fence}"),
            );
            return Err(format!(
                "stale coordinator epoch {epoch} rejected by fence at epoch {fence}"
            ));
        }
        Ok(())
    }

    /// Host transactions with live sub-transaction state on this server.
    /// The promoted coordinator walks this after a host failover and
    /// settles each by the replicated metadata rows (presumed abort when
    /// no decision shipped).
    pub fn pending_host_txns(&self) -> Vec<u64> {
        self.pending.lock().keys().copied().collect()
    }

    /// Size and mtime of a file on this server (engine metadata
    /// initialization at link time, §4.3).
    pub fn stat_file(&self, path: &str) -> Option<(u64, u64)> {
        self.admin.stat(&ROOT, path).ok().map(|a| (a.size, a.mtime))
    }

    /// Reads a *linked* file's **last committed** bytes with DLFM's own
    /// credentials — the primary arm of the routed read path (replicas
    /// serve the same request from the same archive store). Token
    /// validation is the caller's job; unlinked paths are refused.
    ///
    /// The archive copy of `cur_version` is preferred over the live file:
    /// a write open may be dirtying the live bytes right now, and the
    /// routed read promises committed data only. The live-file fallback is
    /// safe because the only files without an archived current version are
    /// those never write-opened since link (the first write open captures
    /// the before-image), whose live bytes *are* the committed bytes.
    pub fn read_linked(&self, path: &str) -> Result<Vec<u8>, String> {
        let entry = self.repo.get_file(path).ok_or_else(|| format!("file {path} is not linked"))?;
        if let Some(archived) = self.archive.get(path, entry.cur_version) {
            return Ok(archived.data);
        }
        self.admin.read_file(&ROOT, path).map_err(|e| format!("read {path}: {e}"))
    }

    fn bump_epoch(&self) {
        self.sync_epoch.bump();
    }

    /// Current epoch; pass to [`DlfmServer::wait_epoch_change`] to block
    /// until sync state moves (used by DLFS to wait out `Busy`).
    pub fn epoch(&self) -> u64 {
        self.sync_epoch.get()
    }

    /// Blocks until the epoch differs from `seen`.
    pub fn wait_epoch_change(&self, seen: u64) {
        self.sync_epoch.wait_change(seen);
    }

    // =====================================================================
    // Link / unlink sub-transactions (§2.2)
    // =====================================================================

    /// Runs one link/unlink `op` in `host_txid`'s branch, opening the
    /// branch on first use. A failed op that opened the branch aborts it
    /// before the error is returned: the engine enlists this server as a
    /// participant only after an op succeeds, so no `Commit` or `Abort`
    /// would ever reach that branch, and its row lock would be held forever.
    fn in_branch(
        &self,
        host_txid: u64,
        op: impl FnOnce(&mut SubTxn) -> Result<(), String>,
    ) -> Result<(), String> {
        let (cell, opened) = {
            let mut pending = self.pending.lock();
            match pending.get(&host_txid) {
                Some(cell) => (Arc::clone(cell), false),
                None => {
                    let cell = Arc::new(Mutex::new(SubTxn {
                        txn: Some(self.repo.db().begin()),
                        undo: Vec::new(),
                        deferred: Vec::new(),
                        files: Vec::new(),
                    }));
                    pending.insert(host_txid, Arc::clone(&cell));
                    (cell, true)
                }
            }
        };
        let result = op(&mut cell.lock());
        if result.is_err() && opened {
            self.abort_host(host_txid);
        }
        result
    }

    /// True when `host_txid` has link/unlink work pending on this server.
    pub fn has_pending(&self, host_txid: u64) -> bool {
        self.pending.lock().contains_key(&host_txid)
    }

    /// Simulates a process crash: pending sub-transactions are abandoned
    /// *without* running their abort paths (a real crash runs no
    /// destructors). Their forced intents stay in the repository log for
    /// recovery to settle; their buffered ops were never logged, and the
    /// repository log's unforced tail stays unflushed. Call before dropping
    /// the server in crash tests.
    pub fn simulate_crash(&self) {
        self.crashed.store(true, Ordering::SeqCst);
        let mut pending = self.pending.lock();
        for (_, cell) in pending.drain() {
            let mut sub = cell.lock();
            if let Some(txn) = sub.txn.take() {
                std::mem::forget(txn);
            }
            sub.undo.clear();
            sub.deferred.clear();
            sub.files.clear();
        }
    }

    /// Links `path` under `mode` as part of host transaction `host_txid`.
    ///
    /// Under the file's `dl_files` row lock the branch forces its intent —
    /// its vote, carrying the row it inserts and the undo information —
    /// then applies the access constraints (chmod/chown) to the file system
    /// *eagerly* and buffers the row, which commits with the host
    /// transaction through 2PC.
    pub fn link_file(
        &self,
        host_txid: u64,
        path: &str,
        mode: ControlMode,
        recovery: bool,
        on_unlink: OnUnlink,
    ) -> Result<(), String> {
        self.stats.links.inc();
        self.recorder.record(
            &self.flight_source,
            "claim",
            host_txid,
            path,
            format!("link mode={mode:?}"),
        );
        let attr = self.admin.stat(&ROOT, path).map_err(|e| format!("cannot link {path}: {e}"))?;
        if attr.kind != FileKind::File {
            return Err(format!("cannot link {path}: not a regular file"));
        }
        if self.cfg.strict_link && !self.repo.sync_entries(path).is_empty() {
            return Err(format!("file {path} is currently open (strict link mode)"));
        }
        let entry = FileEntry {
            path: path.to_string(),
            mode,
            recovery,
            on_unlink,
            cur_version: 1,
            orig_uid: attr.uid,
            orig_gid: attr.gid,
            orig_mode: attr.mode,
            ino: attr.ino,
            state_id: 0,
            needs_archive: false,
        };
        self.in_branch(host_txid, |sub| {
            let txn = sub.txn.as_mut().ok_or("sub-transaction already settled")?;
            if self.repo.lock_file_in(txn, path).map_err(|e| e.to_string())?.is_some() {
                return Err(format!("file {path} is already linked"));
            }
            // §2.2: "all these changes to the DLFM repository and file
            // system are applied as part of the same DBMS transaction".
            let intent = IntentEntry { host_txid, op: BranchOp::Link, file: entry.clone() };
            self.repo.add_intent(&intent).map_err(|e| e.to_string())?;
            let (uid, gid, bits) = linked_attrs(mode, &entry, &self.cfg.dlfm_cred);
            if (uid, gid, bits) != (attr.uid, attr.gid, attr.mode) {
                if let Err(e) = self.set_attrs(path, uid, gid, bits) {
                    // The file changed under us and nothing was applied:
                    // take the vote back, durably, so that every intent a
                    // crash leaves belongs to a branch that holds its file.
                    let _ = self.repo.remove_intent(host_txid, path);
                    return Err(e);
                }
                if mode.takes_over_at_link() {
                    self.stats.takeovers.inc();
                }
                sub.undo.push(UndoFs::RestoreAttrs {
                    path: path.to_string(),
                    uid: attr.uid,
                    gid: attr.gid,
                    mode: attr.mode,
                });
            }
            sub.files.push((path.to_string(), BranchOp::Link));
            // Cannot fail: the row lock is held and the row is absent.
            self.repo.insert_file_in(txn, &entry).map_err(|e| e.to_string())
        })
    }

    /// Unlinks `path` as part of host transaction `host_txid`. Rejected
    /// while the file is open (§4.5: the Sync table check). Under the
    /// file's row lock the branch forces its intent; the file-system
    /// restoration (or deletion, per ON UNLINK) is deferred to commit.
    pub fn unlink_file(&self, host_txid: u64, path: &str) -> Result<(), String> {
        self.stats.unlinks.inc();
        self.recorder.record(&self.flight_source, "claim", host_txid, path, "unlink");
        self.in_branch(host_txid, |sub| {
            let txn = sub.txn.as_mut().ok_or("sub-transaction already settled")?;
            let entry = self
                .repo
                .lock_file_in(txn, path)
                .map_err(|e| e.to_string())?
                .ok_or_else(|| format!("file {path} is not linked"))?;
            let sync = self.repo.sync_entries(path);
            if !sync.is_empty() {
                // §4.5: "when a read [or write] entry exists in the DLFM
                // Sync table, any unlink operation by other applications
                // will be rejected."
                return Err(format!(
                    "file {path} is open ({} active access(es)); unlink rejected",
                    sync.len()
                ));
            }
            if self.repo.get_uip(path).is_some() {
                return Err(format!("file {path} has an update in progress"));
            }
            let intent = IntentEntry { host_txid, op: BranchOp::Unlink, file: entry.clone() };
            self.repo.add_intent(&intent).map_err(|e| e.to_string())?;
            sub.files.push((path.to_string(), BranchOp::Unlink));
            self.repo.delete_file_in(txn, path).map_err(|e| e.to_string())?;
            sub.deferred.push(match entry.on_unlink {
                OnUnlink::Restore => DeferredFs::RestoreAttrs {
                    path: path.to_string(),
                    uid: entry.orig_uid,
                    gid: entry.orig_gid,
                    mode: entry.orig_mode,
                },
                OnUnlink::Delete => DeferredFs::DeleteFile { path: path.to_string() },
            });
            Ok(())
        })
    }

    /// 2PC phase one for `host_txid`'s sub-transaction. Writes nothing: the
    /// vote was forced with each intent, before the `Link`/`Unlink` reply,
    /// so it is durable before the coordinator can decide. What is left to
    /// check is that the branch is alive. A participant is enlisted only
    /// after a successful `Link`/`Unlink`, so no branch here means it was
    /// lost (a file-server failover) or already settled — and a yes for it
    /// would let the host commit rows with no file state behind them.
    pub fn prepare_host(&self, host_txid: u64) -> Result<(), String> {
        if !self.pending.lock().contains_key(&host_txid) {
            return Err(format!("no live sub-transaction for host tx{host_txid} here: vote no"));
        }
        self.recorder.record(&self.flight_source, "prepare", host_txid, "", "vote=yes");
        Ok(())
    }

    /// The `decide` span of a settled sub-transaction. `forced` says whether
    /// the decision waited on a log sync: under group commit the branch's
    /// end is an unforced append (the intent and the host's metadata row
    /// are the durable record).
    fn record_decide(&self, host_txid: u64, outcome: &str) {
        self.recorder.record(
            &self.flight_source,
            "decide",
            host_txid,
            "",
            format!(
                "outcome={outcome} fence={} forced={}",
                self.coord_fence.load(Ordering::SeqCst),
                !self.cfg.db.wal.group_commit
            ),
        );
    }

    /// 2PC phase two, commit path: the unlinks' file-system actions, then
    /// one ordinary unforced `Commit` carrying the branch's rows and the
    /// removal of its intents. Both happen while the branch still holds its
    /// `dl_files` row locks, so no later branch on the same files can force
    /// its intent before this one's is gone from the log.
    pub fn commit_host(&self, host_txid: u64) {
        let Some(cell) = self.pending.lock().remove(&host_txid) else { return };
        let mut sub = cell.lock();
        self.record_decide(host_txid, "commit");
        // Deferred FS actions (unlink restoration/deletion). A crash before
        // the `Commit` below lands leaves the intent, and recovery redoes
        // them.
        for action in sub.deferred.drain(..) {
            match action {
                DeferredFs::RestoreAttrs { path, uid, gid, mode } => {
                    let _ = self.set_attrs(&path, uid, gid, mode);
                }
                DeferredFs::DeleteFile { path } => {
                    let _ = self.admin.remove(&ROOT, &path);
                    self.archive.forget(self.generation, &path);
                }
            }
        }
        if let Some(mut txn) = sub.txn.take() {
            let result = sub
                .files
                .iter()
                .try_for_each(|(path, _)| self.repo.remove_intent_in(&mut txn, host_txid, path))
                .and_then(|()| txn.commit_unforced());
            if let Err(e) = result {
                // A failed local commit after the coordinator decided commit
                // is a serious invariant break; surface loudly.
                panic!("DLFM sub-transaction commit failed for host tx{host_txid}: {e}");
            }
        }
        sub.undo.clear();
        self.bump_epoch();
    }

    /// 2PC phase two, abort path (also called for never-prepared aborts):
    /// eager file-system changes are undone, the intents removed by one
    /// unforced append, and only then does the branch let go of its row
    /// locks (`Txn::abort`, which logs nothing).
    pub fn abort_host(&self, host_txid: u64) {
        let Some(cell) = self.pending.lock().remove(&host_txid) else { return };
        let mut sub = cell.lock();
        self.record_decide(host_txid, "abort");
        for UndoFs::RestoreAttrs { path, uid, gid, mode } in sub.undo.drain(..) {
            let _ = self.set_attrs(&path, uid, gid, mode);
        }
        if !sub.files.is_empty() {
            let paths = sub.files.iter().map(|(path, _)| path.as_str());
            let _ = self.repo.remove_intents(host_txid, paths);
        }
        if let Some(txn) = sub.txn.take() {
            txn.abort();
        }
        sub.deferred.clear();
        self.bump_epoch();
    }

    /// **The settle rule** — the one place a link/unlink branch whose
    /// decision never arrived is mapped to commit or abort. The host
    /// transaction that links a file upserts its `__dl_meta` row and the
    /// one that unlinks it deletes the row, in the same forced `Commit`
    /// that decides the branch: so the branch committed iff the row of a
    /// file it touched is **present for a link, absent for an unlink**. The
    /// row cannot have moved since: the branch still holds its `dl_files`
    /// row locks (live), or its intent survived a crash — and every later
    /// link, unlink or update of the path forces a repository record of its
    /// own after this branch's unforced end, so if that end was lost, so
    /// was everything later on the path, none of which the host can have
    /// committed. All files of one branch agree — the host commit is
    /// atomic — so the first decides, and a committed link finds its row at
    /// version 1. A branch with no file is presumed aborted. One `settle`
    /// span per branch says what was asked and found. `version_of` reads
    /// the host row of a path (live: the host hook; recovery: the host's
    /// view of this node); `txid` only labels the span.
    fn host_committed(
        &self,
        txid: u64,
        files: &[(String, BranchOp)],
        version_of: impl Fn(&str) -> Option<u64>,
    ) -> bool {
        let Some((path, op)) = files.first() else {
            self.recorder.record(
                &self.flight_source,
                "settle",
                txid,
                "",
                "outcome=presumed-abort (no file)",
            );
            return false;
        };
        // The row's version, and whether that is what a commit leaves.
        let ask = |path: &str, op: BranchOp| {
            let version = version_of(path);
            (version, version.is_some() == (op == BranchOp::Link))
        };
        let (version, committed) = ask(path, *op);
        debug_assert!(
            files.iter().all(|(path, op)| ask(path, *op).1 == committed),
            "the files of one branch disagree about its host transaction: {files:?}"
        );
        debug_assert!(
            !(committed && *op == BranchOp::Link) || version == Some(1),
            "a committed link found its host row at {version:?}, not version 1: {path}"
        );
        self.recorder.record(
            &self.flight_source,
            "settle",
            txid,
            path,
            format!(
                "expect={} host_version={} outcome={}",
                if *op == BranchOp::Link { "present" } else { "absent" },
                version.map_or("none".to_string(), |v| v.to_string()),
                if committed { "commit" } else { "presumed-abort" }
            ),
        );
        committed
    }

    /// Settles a pending host transaction whose coordinator is gone — its
    /// agent connection died mid-flight (the wire daemon calls this for
    /// every txid a severed connection left open), or the host itself
    /// failed over (the promoted coordinator calls it for every branch the
    /// old one left) — by the settle rule, the same as crash recovery: a
    /// coordinator that vanished between prepare and decide without the
    /// host row to show for it never committed, and with no host wired
    /// nothing did. Returns `true` when the transaction committed.
    /// Idempotent: a decision that raced in through another path finds no
    /// pending sub-transaction and settles nothing.
    pub fn resolve_client_loss(&self, host_txid: u64) -> bool {
        let Some(cell) = self.pending.lock().get(&host_txid).cloned() else { return false };
        let files = cell.lock().files.clone();
        let host = self.host.read().clone();
        let committed = host.is_some_and(|hook| {
            self.host_committed(host_txid, &files, |path| hook.file_version(&self.file_url(path)))
        });
        if committed {
            self.commit_host(host_txid);
        } else {
            self.abort_host(host_txid);
        }
        committed
    }

    fn set_attrs(&self, path: &str, uid: u32, gid: u32, mode: u16) -> Result<(), String> {
        self.admin
            .setattr(
                &ROOT,
                path,
                &SetAttr { uid: Some(uid), gid: Some(gid), mode: Some(mode), ..Default::default() },
            )
            .map(|_| ())
            .map_err(|e| format!("setattr {path}: {e}"))
    }

    // =====================================================================
    // Upcall services (§4.1–§4.5) — invoked by the upcall daemon
    // =====================================================================

    /// Token validation during `fs_lookup` interception (§4.1): verifies
    /// the MAC/expiry and records a token entry keyed by *userid*.
    pub fn validate_token(
        &self,
        path: &str,
        token_str: &str,
        uid: u32,
    ) -> Result<TokenKind, String> {
        self.stats.upcalls.inc();
        self.stats.token_validations.inc();
        let token = AccessToken::decode(token_str).map_err(|e| e.to_string())?;
        let now = self.clock.now_ms();
        token
            .verify(&self.cfg.token_key, &self.cfg.server_name, path, now)
            .map_err(|e| e.to_string())?;
        self.repo
            .put_token_entry(uid, path, token.kind, token.expires_at_ms)
            .map_err(|e| e.to_string())?;
        Ok(token.kind)
    }

    /// Open processing during `fs_open` interception (§4.2, §4.4, §4.5).
    ///
    /// For a write, this is the rfd slow path ("DLFS contacts DLFM through
    /// an upcall only if the fs_open() entry point of the file system
    /// fails", §4.2) as well as the full-control (rdd) mandatory path.
    pub fn open_check(&self, path: &str, uid: u32, wanted: TokenKind, opener: u64) -> OpenDecision {
        self.stats.upcalls.inc();
        self.stats.open_checks.inc();
        let Some(entry) = self.repo.get_file(path) else {
            if self.cfg.strict_link {
                // Register the open anyway so link can see it.
                let _ = self.repo.add_sync(&SyncEntry {
                    path: path.to_string(),
                    kind: wanted,
                    opener,
                    uid,
                });
            }
            return OpenDecision::NotManaged;
        };

        match wanted {
            TokenKind::Write => self.open_check_write(&entry, uid, opener),
            TokenKind::Read => self.open_check_read(&entry, uid, opener),
        }
    }

    fn open_check_write(&self, entry: &FileEntry, uid: u32, opener: u64) -> OpenDecision {
        let now = self.clock.now_ms();
        if !entry.mode.supports_update() {
            return OpenDecision::Rejected(format!(
                "write access to {} is {} while linked (mode {})",
                entry.path,
                if entry.mode.write_control() == crate::modes::AccessControl::Blocked {
                    "blocked"
                } else {
                    "file-system controlled"
                },
                entry.mode
            ));
        }
        if !self.repo.check_token_entry(uid, &entry.path, TokenKind::Write, now) {
            return OpenDecision::Rejected(format!(
                "no valid write token entry for uid {uid} on {}",
                entry.path
            ));
        }
        // Serialization (§4.2): claim the update slot atomically — one
        // repository transaction, serialized on the `dl_files` row lock,
        // re-reads the fresh version, checks conflicting Sync entries
        // (write-write always; in full control mode reads too) and inserts
        // the UIP + write Sync rows. Upcall workers run concurrently, so
        // the caller's `entry` may be stale; the claim's is not.
        let read_conflicts = entry.mode.full_control() && self.cfg.track_read_sync;
        let claim = match self.repo.claim_write_open(&entry.path, opener, uid, read_conflicts) {
            Ok(claim) => claim,
            Err(_) => {
                self.stats.busy_responses.inc();
                return OpenDecision::Busy;
            }
        };
        let (entry, _new_version) = match claim {
            crate::repository::WriteClaim::Granted { entry, new_version } => (entry, new_version),
            crate::repository::WriteClaim::Conflict => {
                self.stats.busy_responses.inc();
                return OpenDecision::Busy;
            }
            crate::repository::WriteClaim::NotLinked => {
                // Unlinked between the caller's lookup and the claim. Keep
                // the strict NotManaged arms symmetric: register the open.
                if self.cfg.strict_link {
                    let _ = self.repo.add_sync(&SyncEntry {
                        path: entry.path.clone(),
                        kind: TokenKind::Write,
                        opener,
                        uid,
                    });
                }
                return OpenDecision::NotManaged;
            }
        };
        // §4.4: "any new update request to the file is blocked until the
        // archiving completes." The close path pre-marks the archive before
        // its commit, so post-claim this check cannot miss an in-flight job.
        if self.archive.is_archiving(&entry.path) {
            self.repo.release_write_claim(&entry.path, opener);
            self.stats.busy_responses.inc();
            return OpenDecision::Busy;
        }

        // Guarantee a restorable before-image: the first update of a file
        // captures the linked content as version 1 (state 0 = "since link").
        if self.archive.get(&entry.path, entry.cur_version).is_none() {
            match self.admin.read_file(&ROOT, &entry.path) {
                Ok(data) => self.archive.put(
                    self.generation,
                    &entry.path,
                    entry.cur_version,
                    entry.state_id,
                    data,
                ),
                Err(e) => {
                    self.repo.release_write_claim(&entry.path, opener);
                    return OpenDecision::Rejected(format!(
                        "cannot capture before-image of {}: {e}",
                        entry.path
                    ));
                }
            }
        }

        // Grant write access at the FS level. rfd additionally requires the
        // take-over (§4.2: "DLFM ... takes-over the file granting it write
        // permission"); rdd already owns the file.
        if !entry.mode.takes_over_at_link() {
            self.stats.takeovers.inc();
        }
        let dlfm = self.cfg.dlfm_cred;
        if self.set_attrs(&entry.path, dlfm.uid, dlfm.gid, 0o600).is_err() {
            self.repo.release_write_claim(&entry.path, opener);
            return OpenDecision::Rejected(format!("take-over of {} failed", entry.path));
        }
        OpenDecision::Approved { open_as: dlfm }
    }

    fn open_check_read(&self, entry: &FileEntry, uid: u32, opener: u64) -> OpenDecision {
        let now = self.clock.now_ms();
        if entry.mode.read_control() != crate::modes::AccessControl::Dbms {
            // FS-controlled reads never upcall in the fast path; reaching
            // here means DLFS was configured strictly (e.g. a linked rff
            // file whose original owner is the DLFM uid). Approve as the
            // user — but register the open like every other NotManaged
            // arm, or strict unlink could miss it (DLFS records the
            // instance and unregisters at close).
            if self.cfg.strict_link {
                let _ = self.repo.add_sync(&SyncEntry {
                    path: entry.path.clone(),
                    kind: TokenKind::Read,
                    opener,
                    uid,
                });
            }
            return OpenDecision::NotManaged;
        }
        if !self.repo.check_token_entry(uid, &entry.path, TokenKind::Read, now) {
            return OpenDecision::Rejected(format!(
                "no valid read token entry for uid {uid} on {}",
                entry.path
            ));
        }
        // Full-control serialization: reads conflict with writes (§4.2).
        // With tracking on, the conflict check and the Sync insert are one
        // claim transaction on the `dl_files` row lock so a concurrent
        // write open cannot interleave; the untracked ablation keeps the
        // best-effort committed read (its documented trade-off).
        if self.cfg.track_read_sync {
            match self.repo.claim_read_sync(&entry.path, opener, uid) {
                Ok(true) => {}
                _ => {
                    self.stats.busy_responses.inc();
                    return OpenDecision::Busy;
                }
            }
        } else if self.repo.sync_entries(&entry.path).iter().any(|s| s.kind == TokenKind::Write) {
            self.stats.busy_responses.inc();
            return OpenDecision::Busy;
        }
        OpenDecision::Approved { open_as: self.cfg.dlfm_cred }
    }

    /// Close processing (§4.3–§4.4): metadata refresh in the host
    /// transaction context, version commit, asynchronous archiving; or, on
    /// failure/no-write, release of the write grant.
    pub fn close_notify(
        &self,
        path: &str,
        opener: u64,
        wrote: bool,
        new_size: u64,
        new_mtime: u64,
    ) -> Result<(), String> {
        self.stats.upcalls.inc();
        self.stats.close_notifies.inc();
        let Some(entry) = self.repo.get_file(path) else {
            if self.cfg.strict_link {
                let _ = self.repo.remove_sync(path, opener);
                self.bump_epoch();
            }
            return Ok(());
        };

        let uip = self.repo.get_uip(path).filter(|u| u.opener == opener);
        let Some(uip) = uip else {
            // Read close (or a write descriptor that never got a grant):
            // purge the sync entry. Only tracked reads and strict-link
            // registrations ever wrote one.
            if self.cfg.track_read_sync || self.cfg.strict_link {
                let _ = self.repo.remove_sync(path, opener);
            }
            self.bump_epoch();
            return Ok(());
        };

        if !wrote {
            // Opened for write but never modified: no new version (§4.4
            // checks the modification time for exactly this).
            let _ = self.repo.remove_uip(path);
            let _ = self.repo.remove_sync(path, opener);
            self.release_write_grant(&entry);
            self.bump_epoch();
            return Ok(());
        }

        // Committed update path. Pre-mark the archive as in flight *before*
        // the commit releases the `dl_files` row lock: a write open claimed
        // after the commit must observe either our Sync row or this marker
        // — never a guard-free window (§4.4's blocking rule, made airtight
        // for concurrent upcall workers).
        self.archive.begin_archiving(self.generation, path, uip.new_version);
        match self.commit_file_update(&uip, new_size, new_mtime) {
            Ok(state_id) => {
                let _ = self.repo.remove_sync(path, opener);
                self.release_write_grant(&entry);
                self.submit_archive(&entry, uip.new_version, state_id);
                self.bump_epoch();
                Ok(())
            }
            Err(e) => {
                self.archive.cancel_archiving(self.generation, path);
                // §4.2: roll the file back to the last committed version.
                self.rollback_update(&entry);
                let _ = self.repo.remove_uip(path);
                let _ = self.repo.remove_sync(path, opener);
                self.release_write_grant(&entry);
                self.bump_epoch();
                Err(format!("file update transaction aborted: {e}"))
            }
        }
    }

    /// `dlfs://<server><path>` — the key of the file's host metadata row.
    fn file_url(&self, path: &str) -> String {
        format!("dlfs://{}{path}", self.cfg.server_name)
    }

    /// Commits the update (§4.3: file metadata and version change together).
    /// With a host wired, the host's forced `Commit` of the metadata row is
    /// the single commit point: the repository rows are staged first (their
    /// row locks fence the file), the host commits, and the repository
    /// record follows **unforced** — recovery re-derives it from the claim
    /// and the host row ([`DlfmServer::recover`]). A host error drops the
    /// staged rows and the caller rolls the file back.
    fn commit_file_update(
        &self,
        uip: &UipEntry,
        new_size: u64,
        new_mtime: u64,
    ) -> Result<u64, String> {
        let host = self.host.read().clone();
        let state_hint =
            host.as_ref().map(|h| h.state_id()).unwrap_or_else(|| self.repo.db().state_id());
        // The close's rows, in lock order (`dl_files`, then `dl_uip` — the
        // order the open-grant claims use): the claimed version becomes
        // current and awaits archiving, the claim goes. Every value is the
        // claim row's, forced at open.
        let mut txn = self.repo.db().begin();
        let db_err = |e: dl_minidb::DbError| e.to_string();
        self.repo
            .commit_version_in(&mut txn, &uip.path, uip.new_version, state_hint)
            .map_err(db_err)?;
        self.repo.remove_uip_in(&mut txn, &uip.path).map_err(db_err)?;
        let Some(hook) = host else {
            // Standalone mode (no host database wired): the repository's
            // own forced commit is the commit point.
            return txn.commit().map_err(|e| e.to_string());
        };
        let lsn = hook.commit_file_update(
            &self.file_url(&uip.path),
            new_size,
            new_mtime,
            uip.new_version,
        )?;
        if let Err(e) = txn.commit_unforced() {
            // Same rule as `commit_host`: the coordinator has decided, so a
            // repository that cannot follow must not pretend otherwise. The
            // claim stays; recovery rolls it forward from the host row.
            panic!("DLFM close record failed after the host committed {}: {e}", uip.path);
        }
        Ok(lsn)
    }

    fn submit_archive(&self, entry: &FileEntry, version: u64, state_id: u64) {
        self.stats.archives.inc();
        self.recorder.record(
            &self.flight_source,
            "archive",
            0,
            &entry.path,
            format!("version={version} state_id={state_id}"),
        );
        // Asynchronous jobs carry no data: the worker reads the (stable,
        // update-blocked) file itself, keeping the copy entirely off the
        // close path (§4.4).
        let job = ArchiveJob {
            path: entry.path.clone(),
            version,
            state_id,
            data: None,
            prune: !entry.recovery,
        };
        // Either way, needs_archive stays set until the job is known
        // complete (a crash between submit and the worker's store.put would
        // otherwise lose the only committed copy); the archiver's completion
        // callback clears it eagerly right after the store holds the
        // version, with recovery's lazy clear as the crash backstop.
        if self.cfg.sync_archive {
            self.archiver.submit_sync(job);
        } else {
            self.archiver.submit(job);
        }
    }

    /// Restores the last committed version after a failed close-commit.
    fn rollback_update(&self, entry: &FileEntry) {
        self.stats.rollbacks.inc();
        if let Ok(dirty) = self.admin.read_file(&ROOT, &entry.path) {
            self.archive.quarantine(self.generation, &entry.path, dirty);
        }
        if let Some(committed) = self.archive.get(&entry.path, entry.cur_version) {
            let _ = self.admin.write_file(&ROOT, &entry.path, &committed.data);
        }
    }

    /// Returns the file to its at-rest linked attributes after a write.
    fn release_write_grant(&self, entry: &FileEntry) {
        let (uid, gid, mode) = linked_attrs(entry.mode, entry, &self.cfg.dlfm_cred);
        let _ = self.set_attrs(&entry.path, uid, gid, mode);
    }

    /// Remove/rename veto (§2.3): linked files with referential integrity
    /// cannot be removed or renamed — that would dangle the DATALINK.
    pub fn mutation_check(&self, path: &str) -> Result<(), String> {
        self.stats.upcalls.inc();
        match self.repo.get_file(path) {
            Some(entry) if entry.mode.referential_integrity() => Err(format!(
                "{path} is linked to the database (mode {}); remove/rename rejected",
                entry.mode
            )),
            _ => Ok(()),
        }
    }

    /// strict-link registration of an open (§4.5 future work, implemented
    /// as an ablation): records the open in the Sync table so link (and,
    /// for managed files, unlink) can detect it. Registration is pure
    /// bookkeeping — it must **never** run the open-grant protocol. Routing
    /// it through [`DlfmServer::open_check`] (the pre-PR 5 bug) either
    /// acquired a conflict-checked read claim on a managed path that no
    /// close-notify would release, or silently dropped the registration
    /// when the grant came back `Busy`/`Rejected` — re-opening exactly the
    /// window strict mode exists to close.
    pub fn register_open(&self, path: &str, uid: u32, opener: u64) {
        self.stats.upcalls.inc();
        let _ = self.repo.add_sync(&SyncEntry {
            path: path.to_string(),
            kind: TokenKind::Read,
            opener,
            uid,
        });
    }

    /// Close of a strict-link registered open.
    pub fn unregister_open(&self, path: &str, opener: u64) {
        let _ = self.repo.remove_sync(path, opener);
        self.bump_epoch();
    }

    // =====================================================================
    // Protocol dispatch — the one place a request becomes a server call
    // =====================================================================

    /// Serves one request of the agent/upcall protocol and shapes its
    /// reply. Every carrier ends here (`crate::agent` in-process,
    /// `crate::wire` over sockets), so the rules below hold on both:
    ///
    /// * link/unlink/prepare stamped with a fenced coordinator epoch are
    ///   refused; a fenced coordinator's *decision* is dropped, not applied
    ///   (the promoted host owns the outcome now), and still answered `Ok`
    ///   so the zombie's committing thread unblocks;
    /// * a `mode`/`on_unlink`/`wanted` byte that names no variant is
    ///   refused before anything runs;
    /// * `OpenBusy` carries the sync epoch as it stood immediately before
    ///   the check ran, so a release that lands while the check runs moves
    ///   the epoch past it and a caller waiting on it returns at once;
    /// * a reply-tagged message is not a request.
    ///
    /// A panic inside a server call propagates; lane workers contain it
    /// (`Service::serve` in `crate::agent`).
    pub fn handle(&self, msg: Message) -> Message {
        let unit = |result: Result<(), String>| match result {
            Ok(()) => Message::Ok,
            Err(e) => Message::Err(e),
        };
        match msg {
            Message::Hello { client: _ } => Message::HelloAck {
                server: self.cfg.server_name.clone(),
                coord_epoch: self.coordinator_epoch(),
                strict_link: self.cfg.strict_link,
                dlfm_uid: self.cfg.dlfm_cred.uid,
                dlfm_gid: self.cfg.dlfm_cred.gid,
            },
            Message::EpochGet => Message::EpochIs(self.epoch()),
            Message::FreshnessToken => Message::Freshness(self.repo.db().state_id()),

            Message::Link { txid, coord_epoch, path, mode, recovery, on_unlink } => unit((|| {
                let mode = ControlMode::try_from(mode)?;
                let on_unlink = OnUnlink::try_from(on_unlink)?;
                self.guard_coordinator(coord_epoch)?;
                self.link_file(txid, &path, mode, recovery, on_unlink)
            })(
            )),
            Message::Unlink { txid, coord_epoch, path } => unit(
                self.guard_coordinator(coord_epoch).and_then(|()| self.unlink_file(txid, &path)),
            ),
            Message::Prepare { txid, coord_epoch } => {
                unit(self.guard_coordinator(coord_epoch).and_then(|()| self.prepare_host(txid)))
            }
            Message::Commit { txid, coord_epoch } => {
                if self.guard_coordinator(coord_epoch).is_ok() {
                    self.commit_host(txid);
                }
                Message::Ok
            }
            Message::Abort { txid, coord_epoch } => {
                if self.guard_coordinator(coord_epoch).is_ok() {
                    self.abort_host(txid);
                }
                Message::Ok
            }

            Message::ValidateToken { path, token, uid } => {
                match self.validate_token(&path, &token, uid) {
                    Ok(kind) => Message::TokenKindIs(kind.into()),
                    Err(e) => Message::Err(e),
                }
            }
            Message::OpenCheck { path, uid, wanted, opener } => {
                let wanted = match TokenKind::try_from(wanted) {
                    Ok(wanted) => wanted,
                    Err(e) => return Message::OpenRejected(e),
                };
                let epoch = self.epoch();
                match self.open_check(&path, uid, wanted, opener) {
                    OpenDecision::Approved { open_as } => {
                        Message::OpenApproved { uid: open_as.uid, gid: open_as.gid }
                    }
                    OpenDecision::NotManaged => Message::OpenNotManaged,
                    OpenDecision::Busy => Message::OpenBusy(epoch),
                    OpenDecision::Rejected(e) => Message::OpenRejected(e),
                }
            }
            Message::CloseNotify { path, opener, wrote, size, mtime } => {
                unit(self.close_notify(&path, opener, wrote, size, mtime))
            }
            Message::MutationCheck { path } => unit(self.mutation_check(&path)),
            Message::RegisterOpen { path, uid, opener } => {
                self.register_open(&path, uid, opener);
                Message::Ok
            }
            Message::UnregisterOpen { path, opener } => {
                self.unregister_open(&path, opener);
                Message::Ok
            }

            other => Message::Err(format!("unexpected message {other:?}")),
        }
    }

    // =====================================================================
    // Recovery: one reconcile by the host rows (§4.2–§4.4)
    // =====================================================================

    /// Brings this node to what `host` — the host's rows naming it — says:
    /// the one recovery rule, run by crash recovery, file-server failover
    /// and point-in-time restore before the node serves anyone. Every path
    /// the view, `dl_files`, an intent or a claim names settles by
    /// `DlfmServer::reconcile_file` in one forced repository commit; then
    /// versions whose archive job was lost are archived from the disk.
    /// Token entries and Sync rows are unlogged: none come back.
    pub fn recover(&self, host: &HostView) -> Result<RecoveryReport, String> {
        let mut report = RecoveryReport::default();
        let mut local: BTreeMap<String, LocalRecords> = BTreeMap::new();
        let mut branches: BTreeMap<u64, Vec<(String, BranchOp)>> = BTreeMap::new();
        for intent in self.repo.list_intents() {
            let path = intent.file.path.clone();
            branches.entry(intent.host_txid).or_default().push((path.clone(), intent.op));
            local.entry(path).or_default().intent = Some(intent);
        }
        // A branch's outcome is the settle rule's, asked of the same rows
        // the per-file rule reads below — so each file of a branch is
        // finished the way the branch ended.
        for (txid, files) in &branches {
            let committed =
                self.host_committed(*txid, files, |path| host.get(path).map(|h| h.version));
            report.in_doubt_resolved.push((*txid, committed));
        }
        for file in self.repo.list_files() {
            let path = file.path.clone();
            local.entry(path).or_default().file = Some(file);
        }
        for claim in self.repo.list_uip() {
            let path = claim.path.clone();
            local.entry(path).or_default().claim = Some(claim);
        }
        for path in host.keys() {
            local.entry(path.clone()).or_default();
        }
        let host_state = self.host.read().as_ref().map(|hook| hook.state_id());
        let state_id = host_state.unwrap_or_else(|| self.repo.db().state_id());
        let mut txn = self.repo.db().begin();
        for (path, records) in local {
            self.reconcile_file(&mut txn, &path, host.get(&path), records, state_id, &mut report)?;
        }
        txn.commit().map_err(|e| e.to_string())?;

        // Re-archive committed versions whose archive job was lost.
        for entry in self.repo.files_needing_archive() {
            if self.archive.get(&entry.path, entry.cur_version).is_none() {
                if let Ok(data) = self.admin.read_file(&ROOT, &entry.path) {
                    self.archive.put(
                        self.generation,
                        &entry.path,
                        entry.cur_version,
                        entry.state_id,
                        data,
                    );
                    report.archives_recovered += 1;
                }
            }
            let _ = self.repo.clear_needs_archive(&entry.path);
        }

        self.bump_epoch();
        Ok(report)
    }

    /// **The reconcile rule** for one path — the table in DESIGN.md
    /// ("Recovery and replication"). `host` is the host's row, `local` what
    /// this node's log kept; the row changes go into `txn`. The host row
    /// decides every case: an intent only supplies the entry and the
    /// original attributes, a claim the version it reserved.
    fn reconcile_file(
        &self,
        txn: &mut dl_minidb::Txn,
        path: &str,
        host: Option<&HostFile>,
        local: LocalRecords,
        state_id: u64,
        report: &mut RecoveryReport,
    ) -> Result<(), String> {
        let LocalRecords { file, intent, claim } = local;
        let db_err = |e: dl_minidb::DbError| e.to_string();
        // A claim whose version the host row records committed (its close
        // record was lost, the bytes on disk are that version's) and rolls
        // forward below; any other claim never did, and its dirty bytes go.
        let committed = claim.as_ref().filter(|c| host.is_some_and(|h| h.version >= c.new_version));
        if claim.is_some() {
            if let (Some(entry), None) = (&file, committed) {
                self.rollback_update(entry);
                report.updates_rolled_back += 1;
            }
            self.repo.remove_uip_in(txn, path).map_err(db_err)?;
        }
        let unlink_action = match &intent {
            Some(IntentEntry { op: BranchOp::Unlink, file, .. }) => Some(file.on_unlink),
            _ => None,
        };
        match (host, file) {
            (None, Some(entry)) => {
                self.repo.delete_file_in(txn, path).map_err(db_err)?;
                if unlink_action == Some(OnUnlink::Delete) {
                    let _ = self.admin.remove(&ROOT, path);
                    self.archive.forget(self.generation, path);
                } else {
                    let _ = self.set_attrs(path, entry.orig_uid, entry.orig_gid, entry.orig_mode);
                }
                match unlink_action {
                    Some(_) => report.unlinks_completed += 1,
                    None => report.files_unlinked += 1,
                }
            }
            (None, None) => {
                if let Some(IntentEntry { op: BranchOp::Link, file, .. }) = &intent {
                    let _ = self.set_attrs(path, file.orig_uid, file.orig_gid, file.orig_mode);
                    report.links_undone += 1;
                }
            }
            (Some(row), None) => {
                let entry = match &intent {
                    Some(IntentEntry { op: BranchOp::Link, file, .. }) => Some(file.clone()),
                    _ => self.entry_on_disk(path, row),
                };
                if let Some(entry) = entry {
                    self.repo.insert_file_in(txn, &entry).map_err(db_err)?;
                    report.files_relinked += u64::from(intent.is_none());
                    self.move_to_version(txn, &entry, row.version, false, state_id, report)?;
                    self.release_write_grant(&entry);
                } else {
                    report.missing_versions.push((path.to_string(), row.version));
                }
            }
            (Some(row), Some(entry)) => {
                let on_disk = committed.is_some_and(|c| c.new_version == row.version);
                let moved =
                    self.move_to_version(txn, &entry, row.version, on_disk, state_id, report)?;
                if moved || claim.is_some() || unlink_action.is_some() {
                    self.release_write_grant(&entry);
                }
            }
        }
        if let Some(intent) = &intent {
            self.repo.remove_intent_in(txn, intent.host_txid, path).map_err(db_err)?;
        }
        Ok(())
    }

    /// The entry of a link the host committed and this node holds no
    /// record of (a restore to before an unlink, a failover to a standby
    /// the intent never reached): the column's options, and the attributes
    /// on disk as the original ones — after a lost take-over those are the
    /// linked ones, the owner being gone with the intent. `None` when the
    /// file is not on disk.
    fn entry_on_disk(&self, path: &str, row: &HostFile) -> Option<FileEntry> {
        let attr = self.admin.stat(&ROOT, path).ok()?;
        Some(FileEntry {
            path: path.to_string(),
            mode: row.mode,
            recovery: row.recovery,
            on_unlink: row.on_unlink,
            cur_version: 1,
            orig_uid: attr.uid,
            orig_gid: attr.gid,
            orig_mode: attr.mode,
            ino: attr.ino,
            state_id: 0,
            needs_archive: false,
        })
    }

    /// Moves `entry` to the host's `version`. The bytes: the disk's when
    /// `on_disk`, else the archived version's if the store holds it; a newer
    /// version it lacks is on disk, and an older one (RECOVERY NO prunes)
    /// is reported missing and the file stays. `needs_archive` is set, so
    /// the re-archive pass copies what the store lacks. Returns whether the
    /// version moved.
    fn move_to_version(
        &self,
        txn: &mut dl_minidb::Txn,
        entry: &FileEntry,
        version: u64,
        on_disk: bool,
        state_id: u64,
        report: &mut RecoveryReport,
    ) -> Result<bool, String> {
        let (path, from) = (&entry.path, entry.cur_version);
        if version == from {
            return Ok(false);
        }
        match self.archive.get(path, version).filter(|_| !on_disk) {
            Some(archived) => self
                .admin
                .write_file(&ROOT, path, &archived.data)
                .map_err(|e| format!("restore {path} to version {version}: {e}"))?,
            None if version < from => {
                report.missing_versions.push((path.clone(), version));
                return Ok(false);
            }
            None => {}
        }
        self.repo.commit_version_in(txn, path, version, state_id).map_err(|e| e.to_string())?;
        if version < from {
            report.versions_rolled_back += 1;
            return Ok(true);
        }
        self.stats.updates_rolled_forward.inc();
        self.recorder.record(
            &self.flight_source,
            "roll_forward",
            0,
            path,
            format!("version={version} host_version={version} from={from}"),
        );
        report.updates_rolled_forward += 1;
        Ok(true)
    }
}

impl Drop for DlfmServer {
    /// Clean shutdown: put the repository log's unforced tail on disk, so
    /// the next start finds closes recorded and branches ended instead of
    /// asking the host about each. A crashed server
    /// ([`DlfmServer::simulate_crash`]) skips it — losing that tail is what
    /// a crash does.
    fn drop(&mut self) {
        if !self.crashed.load(Ordering::SeqCst) {
            let _ = self.repo.db().flush();
        }
    }
}

/// One file of a node as the host's committed rows describe it: the
/// version its `__dl_meta` row records and the options of the DATALINK
/// column whose row references it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostFile {
    pub version: u64,
    pub mode: ControlMode,
    pub recovery: bool,
    pub on_unlink: OnUnlink,
}

/// The host's view of one node — path → [`HostFile`] for every file whose
/// `__dl_meta` row names the node: the one input [`DlfmServer::recover`]
/// takes from the host.
pub type HostView = HashMap<String, HostFile>;

/// What this node's own log kept about one path.
#[derive(Default)]
struct LocalRecords {
    file: Option<FileEntry>,
    intent: Option<IntentEntry>,
    claim: Option<UipEntry>,
}

/// What recovery did (assertable in tests, printed by the report binary).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// One entry per link/unlink branch a surviving intent left unsettled:
    /// `(host_txid, committed)`.
    pub in_doubt_resolved: Vec<(u64, bool)>,
    pub links_undone: u64,
    pub unlinks_completed: u64,
    /// Files moved forward to the host row's version: a surviving claim
    /// whose close record was lost, or an update this node never heard of.
    pub updates_rolled_forward: u64,
    /// Surviving claims the host never committed, rolled back.
    pub updates_rolled_back: u64,
    pub archives_recovered: u64,
    /// Links (`files_relinked`) and unlinks (`files_unlinked`) the host rows
    /// hold and this node had no record of.
    pub files_relinked: u64,
    pub files_unlinked: u64,
    /// Files moved back to the host row's older, archived version (a
    /// point-in-time restore).
    pub versions_rolled_back: u64,
    /// `(path, version)` pairs the host rows name and nothing here can
    /// supply: an old version a RECOVERY NO column pruned, a file gone.
    pub missing_versions: Vec<(String, u64)>,
}
