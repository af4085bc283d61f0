//! The DataLinks File Manager server.
//!
//! One `DlfmServer` runs per file server node (§2.2). It owns:
//!
//! * the repository (transaction state + linked-file state),
//! * the archive store and asynchronous archiver,
//! * root-credentialed admin access to the *raw* physical file system
//!   (bypassing DLFS) for take-over, restore and content capture,
//! * the link/unlink sub-transaction machinery driven by the host database
//!   through two-phase commit (a link's vote writes nothing durable here:
//!   the host's `Commit` of its metadata row is its one forced write),
//! * the upcall service logic (token validation, open check, close
//!   processing, remove/rename vetoes) invoked by the upcall daemon.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dl_fskit::{Clock, Cred, FileKind, FileSystem, Lfs, SetAttr};
use dl_net::Message;
use parking_lot::{Condvar, Mutex, RwLock};

use crate::archive::{ArchiveJob, ArchiveStore, Archiver, ContentSource};
use crate::modes::{ControlMode, OnUnlink};
use crate::repository::{FileEntry, IntentEntry, Repository, UipEntry};
use crate::token::{AccessToken, TokenKey, TokenKind};

/// What a link/unlink sub-transaction does to one file's `dl_files` row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BranchOp {
    Link,
    Unlink,
}

/// A link's vote, as its `Link` reply carries it ([`Message::LinkVote`]):
/// what the branch read of the file under its row lock. The host writes
/// it into the file's metadata row — size and mtime (§4.3), and the
/// original owner and permission bits, which the take-over at the
/// decision replaces and an unlink, or a recovery that finds the link
/// gone, hands back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkVote {
    pub size: u64,
    pub mtime: u64,
    pub uid: u32,
    pub gid: u32,
    pub mode: u16,
}

/// How the host database and DLFS reach this DLFM instance: which carrier
/// their [`crate::DlfmClient`]s ride.
///
/// `Local` hands each [`dl_net::Message`] to the daemon lanes in-process;
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
    /// Width of the upcall lane: at most this many threads serve DLFS's
    /// upcalls at once. More than one lets concurrent opens/closes drive
    /// concurrent repository commits (which the group-commit pipeline then
    /// batches). Past it an in-process caller waits for a head to leave
    /// and a wire frame parks (see `crates/dlfm/src/pool.rs`).
    pub upcall_workers_max: usize,
    /// Width of the shared agent executor that serves every agent
    /// connection's link/unlink requests: 256 connections multiplex over
    /// at most this many serving threads.
    pub agent_executor_threads: usize,
    /// How agents and upcalls reach this node: in-process calls
    /// ([`Transport::Local`], the default) or framed Unix-socket
    /// connections served by a `WireDaemon` ([`Transport::Socket`]).
    pub transport: Transport,
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
            upcall_workers_max: 64,
            agent_executor_threads: 16,
            transport: Transport::default(),
            flight_ring_capacity: 256,
        }
    }

    /// Sets the flight-recorder ring capacity (see
    /// [`DlfmConfig::flight_ring_capacity`]).
    pub fn flight_ring(mut self, capacity: usize) -> DlfmConfig {
        self.flight_ring_capacity = capacity;
        self
    }

    /// Sets the upcall lane's width.
    pub fn upcall_workers(mut self, max: usize) -> DlfmConfig {
        self.upcall_workers_max = max;
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
    /// Files recovery moved forward to the host row's version: updates the
    /// host committed whose unforced repository records were lost.
    pub updates_rolled_forward: dl_obs::Counter,
    /// 2PC traffic refused because it carried a stale coordinator epoch
    /// (a zombie host's late decisions bouncing off the fence).
    pub stale_coord_rejections: dl_obs::Counter,
    /// Times the archiver's worker thread left its idle sleep (the
    /// archiver's own counter).
    pub archive_wakeups: Arc<dl_obs::Counter>,
    /// Archive jobs a write open of their file ran on its own thread.
    pub archive_jobs_by_opener: dl_obs::Counter,
}

/// The host database a DLFM server runs under, implemented by the DataLinks
/// engine. Every server has one from construction ([`DlfmServer::new`]):
/// its metadata rows are the commit point of every update and the record
/// that settles every link and unlink branch.
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
    /// Aborts host transaction `host_txid` if the host has not decided it
    /// yet (`dl_minidb::Database::abort_undecided`): on return the host
    /// either committed it, rows applied, or never will. DLFM calls this
    /// before it settles a live branch without the host's word, so the
    /// rows it then reads are the transaction's final outcome.
    fn abort_undecided(&self, host_txid: u64);
}

/// A file-system action executed when the sub-transaction commits: a
/// link's take-over, an unlink's hand-back or deletion. An abort has
/// nothing to undo — the branch changed no file.
enum DeferredFs {
    SetAttrs { path: String, uid: u32, gid: u32, mode: u16 },
    DeleteFile { path: String },
}

/// State of one host transaction's link/unlink work on this server.
struct SubTxn {
    txn: Option<dl_minidb::Txn>,
    deferred: Vec<DeferredFs>,
    /// The files this branch linked or unlinked — what the settle rule
    /// asks the host about. Each unlink forced an intent, which the
    /// decision clears; a link wrote nothing durable.
    files: Vec<(String, BranchOp)>,
}

impl SubTxn {
    /// The paths this branch unlinked: the ones with an intent.
    fn unlinked(&self) -> impl Iterator<Item = &str> {
        self.files.iter().filter(|(_, op)| *op == BranchOp::Unlink).map(|(p, _)| p.as_str())
    }
}

/// Decision returned by the open check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpenDecision {
    /// Open approved; DLFS must perform the physical open as this identity.
    Approved { open_as: Cred },
    /// The file is not managed by this DLFM.
    NotManaged,
    /// A conflicting open; retry after a change.
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
    /// own thread in-process and under a gate of its own over the wire.
    Settle,
    /// The DLFS conversation: the upcall lane.
    Upcall,
}

/// The lane `msg` is served on. Sibling of [`DlfmServer::handle`]: a
/// carrier asks this where to run a request, whoever serves the lane asks
/// `handle` what the request means.
pub fn lane(msg: &Message) -> Lane {
    match msg {
        Message::Link { .. } | Message::Unlink { .. } => Lane::Agent,
        Message::Commit { .. } | Message::Abort { .. } => Lane::Settle,
        Message::ValidateToken { .. }
        | Message::OpenCheck { .. }
        | Message::CloseNotify { .. }
        | Message::MutationCheck { .. }
        | Message::RegisterOpen { .. }
        | Message::UnregisterOpen { .. } => Lane::Upcall,
        _ => Lane::Inline,
    }
}

/// The permission bits of a write grant: the file is handed to DLFM's
/// identity, owner read-write, for as long as the write open lasts (§4.2).
/// No update-capable mode's at-rest attributes ([`linked_attrs`]) keep a
/// write bit, so a file found with these is being written.
const GRANT_MODE: u16 = 0o600;

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
/// it and retry. Shared (via `Arc`) with the archiver completion callback,
/// so an epoch watcher also sees an archive job settle.
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
    /// `cfg.token_key`, ready to sign with.
    token_key: TokenKey,
    repo: Arc<Repository>,
    archive: Arc<ArchiveStore>,
    /// This server's writer generation on `archive`, stamped on every
    /// mutation it and its archiver make: a newer server on the same store
    /// (a promoted standby, a recovered node) fences this one.
    generation: u64,
    archiver: Archiver,
    /// See [`DlfmServer::content_source`].
    source: ContentSource,
    /// Root-credentialed logical FS over the *raw* physical file system.
    admin: Lfs,
    clock: Arc<dyn Clock>,
    host: RwLock<Arc<dyn HostHook>>,
    pending: Mutex<HashMap<u64, Arc<Mutex<SubTxn>>>>,
    /// The ordering rule's memory: per path, the repository LSN of its
    /// last committed unlink's end while that end may still sit in the
    /// log's unforced tail (`u64::MAX` while its commit is appending). A
    /// link makes it durable before it votes ([`DlfmServer::link_file`]).
    /// Entries already durable are dropped at the next unlink end, so the
    /// map is bounded by the tail, not by history.
    unlink_ends: Mutex<HashMap<String, u64>>,
    sync_epoch: Arc<SyncEpoch>,
    /// Lowest coordinator epoch (= host generation) whose 2PC traffic this
    /// server still accepts. Host failover raises it on every node; agent
    /// connections minted under an older host carry the older epoch, so a
    /// zombie coordinator's late decisions are refused rather than applied.
    coord_fence: AtomicU64,
    /// Trace ring for 2PC span events (claim/decide/settle/fence/archive);
    /// dumped by the system layer on crash or failover.
    recorder: Arc<dl_obs::FlightRecorder>,
    /// `dlfm.<server_name>` — the `source` stamped on every span event.
    flight_source: Arc<str>,
    /// Set by [`DlfmServer::simulate_crash`]: a crashed server must not
    /// tidy up on drop.
    crashed: std::sync::atomic::AtomicBool,
    pub stats: DlfmStats,
}

const ROOT: Cred = Cred::root();

impl DlfmServer {
    /// Creates a server over the raw physical file system `fs`, under the
    /// host database `host`, whose metadata rows commit every update and
    /// settle every branch. `repo` is opened by the caller under
    /// [`DlfmConfig::db`] from its disks, or is a standby promoted in place
    /// with its open table ([`Repository::with_opens`]). `archive` is the
    /// node's store, pre-existing or new: the server takes its next writer
    /// generation, which fences every server that wrote it before.
    /// Whatever the repository holds is brought to the host's rows by
    /// [`DlfmServer::recover`], before the node serves anyone.
    pub fn new(
        cfg: DlfmConfig,
        fs: Arc<dyn FileSystem>,
        repo: Repository,
        archive: Arc<ArchiveStore>,
        clock: Arc<dyn Clock>,
        host: Arc<dyn HostHook>,
    ) -> DlfmServer {
        let generation = archive.take_generation();
        let repo = Arc::new(repo);
        let sync_epoch = Arc::new(SyncEpoch::default());
        let source_fs = Lfs::new(Arc::clone(&fs));
        let source: ContentSource =
            Arc::new(move |path: &str| source_fs.read_file(&ROOT, path).ok());
        // Completion callback: once the store durably holds the version,
        // `needs_archive` can clear eagerly (recovery's lazy clear remains
        // as the backstop for crashes mid-archive). The clear is guarded
        // twice — the store must actually hold the version (a job whose
        // content read failed stores nothing) and the version must still
        // be current (a newer update may have committed meanwhile) — and it
        // skips a row another transaction holds. The epoch bump is
        // unconditional: it tells epoch watchers the job has settled.
        let cb_repo = Arc::clone(&repo);
        let cb_epoch = Arc::clone(&sync_epoch);
        let cb_store = Arc::clone(&archive);
        let on_complete: crate::archive::ArchiveCompletion =
            Arc::new(move |path: &str, version: u64| {
                if cb_store.contains(path, version) {
                    let _ = cb_repo.clear_needs_archive_if_version(path, version);
                }
                cb_epoch.bump();
            });
        let archiver =
            Archiver::spawn(Arc::clone(&archive), generation, Arc::clone(&source), on_complete);
        let flight_source: Arc<str> = Arc::from(format!("dlfm.{}", cfg.server_name));
        let flight_ring_capacity = cfg.flight_ring_capacity;
        DlfmServer {
            token_key: TokenKey::new(&cfg.token_key),
            cfg,
            repo,
            archive,
            generation,
            source,
            admin: Lfs::new(fs),
            clock,
            host: RwLock::new(host),
            pending: Mutex::new(HashMap::new()),
            unlink_ends: Mutex::new(HashMap::new()),
            sync_epoch,
            coord_fence: AtomicU64::new(0),
            recorder: Arc::new(dl_obs::FlightRecorder::new(flight_ring_capacity)),
            flight_source,
            crashed: std::sync::atomic::AtomicBool::new(false),
            stats: DlfmStats {
                archive_wakeups: Arc::clone(archiver.wakeups()),
                ..DlfmStats::default()
            },
            archiver,
        }
    }

    pub fn config(&self) -> &DlfmConfig {
        &self.cfg
    }

    /// The token secret of [`DlfmConfig::token_key`], ready to sign with:
    /// what the engine mints this server's tokens under.
    pub fn token_key(&self) -> &TokenKey {
        &self.token_key
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

    /// Points the server at another host database: the engine promoted
    /// by a host failover.
    pub fn set_host_hook(&self, hook: Arc<dyn HostHook>) {
        *self.host.write() = hook;
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
    fn guard_coordinator(&self, epoch: u64) -> Result<(), String> {
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

    /// Host transactions with live sub-transaction state on this server; a
    /// branch leaves once its decision has applied. The promoted
    /// coordinator walks this after a host failover and settles each by
    /// the replicated metadata rows (presumed abort when no decision
    /// shipped).
    pub fn pending_host_txns(&self) -> Vec<u64> {
        self.pending.lock().keys().copied().collect()
    }

    /// Size and mtime of a file on this server.
    pub fn stat_file(&self, path: &str) -> Option<(u64, u64)> {
        self.admin.stat(&ROOT, path).ok().map(|a| (a.size, a.mtime))
    }

    /// Reads a *linked* file's **last committed** bytes with DLFM's own
    /// credentials — the primary arm of the routed read path, by the same
    /// [`Repository::read_committed`] a replica serves it with. Token
    /// validation is the caller's job; unlinked paths are refused.
    pub fn read_linked(&self, path: &str) -> Result<Vec<u8>, String> {
        self.repo.read_committed(path, &self.archive, &self.source)
    }

    /// The node's one live-bytes source — root reads of the raw file
    /// system — that the archiver captures versions with and the committed
    /// read falls back to.
    pub fn content_source(&self) -> &ContentSource {
        &self.source
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
    /// branch on first use. The engine enlists this server as a participant
    /// *before* it sends the op, so the host can abort every transaction
    /// that may hold a branch here (`HostHook::abort_undecided`). A failed
    /// op that opened the branch aborts it before the error is returned:
    /// the host may still commit the transaction around the failed
    /// statement, and that commit must not apply a branch the statement
    /// left half done. A crashed server opens no branch.
    fn in_branch(
        &self,
        host_txid: u64,
        op: impl FnOnce(&mut SubTxn) -> Result<(), String>,
    ) -> Result<(), String> {
        let (cell, opened) = {
            let mut pending = self.pending.lock();
            match pending.get(&host_txid) {
                Some(cell) => (Arc::clone(cell), false),
                None if self.crashed.load(Ordering::SeqCst) => {
                    return Err(format!("{} has crashed", self.cfg.server_name));
                }
                None => {
                    let cell = Arc::new(Mutex::new(SubTxn {
                        txn: Some(self.repo.db().begin()),
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
    /// destructors). Their unlinks' forced intents stay in the repository
    /// log for recovery to settle; their links left nothing there, and
    /// changed no file; their buffered ops were never logged, and the
    /// repository log's unforced tail stays unflushed. Call before dropping
    /// the server in crash tests.
    pub fn simulate_crash(&self) {
        self.crashed.store(true, Ordering::SeqCst);
        let branches: Vec<_> = self.pending.lock().drain().collect();
        for (_, cell) in branches {
            let mut sub = cell.lock();
            if let Some(txn) = sub.txn.take() {
                std::mem::forget(txn);
            }
            sub.deferred.clear();
            sub.files.clear();
        }
    }

    /// Links `path` under `mode` as part of host transaction `host_txid`,
    /// and returns the branch's vote: what it read of the file.
    ///
    /// Under the file's `dl_files` row lock the branch buffers the row it
    /// inserts and writes nothing durable: the host's `Commit` of the
    /// metadata row, which carries the vote, is the link's one forced
    /// write. The take-over (chmod/chown) waits for that decision
    /// ([`DlfmServer::commit_host`]); until then the file is guarded by the
    /// mutation check, which sees the branch ([`DlfmServer::mutation_check`]).
    /// One ordering rule comes first: the path's last unlink end is made
    /// durable if it is still in the log's unforced tail. Otherwise a crash
    /// could lose that end together with this link's, and recovery would
    /// find the earlier life's row and intent next to this life's host row.
    pub fn link_file(
        &self,
        host_txid: u64,
        path: &str,
        mode: ControlMode,
        recovery: bool,
        on_unlink: OnUnlink,
    ) -> Result<LinkVote, String> {
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
            let unlink_end = self.unlink_ends.lock().get(path).copied();
            if unlink_end.is_some_and(|lsn| lsn > self.repo.db().durable_lsn()) {
                self.repo.db().flush().map_err(|e| e.to_string())?;
            }
            let strict = self.cfg.strict_link;
            self.repo
                .opens()
                .begin_branch(path, Some(mode), strict)
                .map_err(|_| format!("file {path} is currently open (strict link mode)"))?;
            // §2.2: "all these changes to the DLFM repository and file
            // system are applied as part of the same DBMS transaction".
            let (uid, gid, bits) = linked_attrs(mode, &entry, &self.cfg.dlfm_cred);
            if (uid, gid, bits) != (attr.uid, attr.gid, attr.mode) {
                if mode.takes_over_at_link() {
                    self.stats.takeovers.inc();
                }
                sub.deferred.push(DeferredFs::SetAttrs {
                    path: path.to_string(),
                    uid,
                    gid,
                    mode: bits,
                });
            }
            sub.files.push((path.to_string(), BranchOp::Link));
            // Cannot fail: the row lock is held and the row is absent.
            self.repo.insert_file_in(txn, &entry).map_err(|e| e.to_string())
        })?;
        Ok(LinkVote {
            size: attr.size,
            mtime: attr.mtime,
            uid: attr.uid,
            gid: attr.gid,
            mode: attr.mode,
        })
    }

    /// Unlinks `path` as part of host transaction `host_txid`. Rejected
    /// while the file is open, for update too (§4.5: the Sync table check,
    /// whose mark then turns read opens away until the branch is decided).
    /// Under the file's row lock the branch finishes the file's queued
    /// archive job, forces its intent — its vote, and the one durable record
    /// that names the path once the host deletes its row — and defers the
    /// file-system restoration (or deletion, per ON UNLINK) to commit.
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
            // §4.5: "when a read [or write] entry exists in the DLFM Sync
            // table, any unlink operation by other applications will be
            // rejected."
            self.repo.opens().begin_branch(path, None, true).map_err(|opens| {
                format!("file {path} is open ({opens} active access(es)); unlink rejected")
            })?;
            // The commit hands the file back to its owner, who may write it
            // at once: run its queued archive job now, while the file is
            // still linked and nobody else can write it, so the job reads
            // the committed bytes (as a write open does).
            if self.archive.is_archiving(path) {
                self.archiver.finish(path);
            }
            let intent = IntentEntry { host_txid, file: entry.clone() };
            if let Err(e) = self.repo.add_intent(&intent) {
                self.repo.opens().end_branch(path);
                return Err(e.to_string());
            }
            sub.files.push((path.to_string(), BranchOp::Unlink));
            self.repo.delete_file_in(txn, path).map_err(|e| e.to_string())?;
            sub.deferred.push(match entry.on_unlink {
                OnUnlink::Restore => DeferredFs::SetAttrs {
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

    /// 2PC decision, commit path: the branch's file-system actions — the
    /// links' take-overs, the unlinks' hand-backs or deletions — then one
    /// ordinary unforced `Commit` carrying the branch's rows and the
    /// removal of its unlinks' intents. Both happen while the branch still
    /// holds its `dl_files` row locks. A crash before that `Commit` lands
    /// loses it: recovery then re-links from the host row, or finishes the
    /// unlink from its intent. An unlink's end is remembered until it is
    /// durable, for the next link of the path to wait on.
    pub fn commit_host(&self, host_txid: u64) {
        let Some(cell) = self.branch(host_txid) else { return };
        let mut sub = cell.lock();
        let Some(mut txn) = sub.txn.take() else { return };
        self.record_decide(host_txid, "commit");
        for action in sub.deferred.drain(..) {
            match action {
                DeferredFs::SetAttrs { path, uid, gid, mode } => {
                    let _ = self.set_attrs(&path, uid, gid, mode);
                }
                DeferredFs::DeleteFile { path } => {
                    let _ = self.admin.remove(&ROOT, &path);
                    self.archive.forget(self.generation, &path);
                }
            }
        }
        let unlinked: Vec<String> = sub.unlinked().map(str::to_string).collect();
        if !unlinked.is_empty() {
            let mut ends = self.unlink_ends.lock();
            ends.extend(unlinked.iter().map(|path| (path.clone(), u64::MAX)));
        }
        let result = unlinked
            .iter()
            .try_for_each(|path| self.repo.remove_intent_in(&mut txn, host_txid, path))
            .and_then(|()| txn.commit_unforced());
        let lsn = match result {
            Ok(lsn) => lsn,
            // A failed local commit after the coordinator decided commit is
            // a serious invariant break; surface loudly.
            Err(e) => panic!("DLFM sub-transaction commit failed for host tx{host_txid}: {e}"),
        };
        if !unlinked.is_empty() {
            let durable = self.repo.db().durable_lsn();
            let mut ends = self.unlink_ends.lock();
            ends.extend(unlinked.into_iter().map(|path| (path, lsn)));
            ends.retain(|_, end| *end > durable);
        }
        self.decided(host_txid, &sub);
    }

    /// 2PC decision, abort path (also a failed op's own branch): the
    /// unlinks' intents are removed by one unforced append, and only then
    /// does the branch let go of its row locks (`Txn::abort`, which logs
    /// nothing). No file changed before the decision, so none is undone.
    pub fn abort_host(&self, host_txid: u64) {
        let Some(cell) = self.branch(host_txid) else { return };
        let mut sub = cell.lock();
        let Some(txn) = sub.txn.take() else { return };
        self.record_decide(host_txid, "abort");
        if sub.unlinked().next().is_some() {
            let _ = self.repo.remove_intents(host_txid, sub.unlinked());
        }
        txn.abort();
        sub.deferred.clear();
        self.decided(host_txid, &sub);
    }

    /// `host_txid`'s live branch. Its decider takes the branch's
    /// transaction — a second decider finds none and does nothing — and
    /// the branch stays in `pending` until its decision has applied
    /// ([`DlfmServer::decided`]).
    fn branch(&self, host_txid: u64) -> Option<Arc<Mutex<SubTxn>>> {
        self.pending.lock().get(&host_txid).cloned()
    }

    /// Retires a branch whose decision has applied: its files' marks leave
    /// the open table — after a commit the rows are what the checks see —
    /// and the branch leaves `pending`, so one gone from
    /// [`DlfmServer::pending_host_txns`] is settled.
    fn decided(&self, host_txid: u64, sub: &SubTxn) {
        for (path, _) in &sub.files {
            self.repo.opens().end_branch(path);
        }
        self.pending.lock().remove(&host_txid);
        self.bump_epoch();
    }

    /// **The settle rule** — the one place a link/unlink branch whose
    /// decision never arrived is mapped to commit or abort. The host
    /// transaction that links a file upserts its `__dl_meta` row and the
    /// one that unlinks it deletes the row, in the same forced `Commit`
    /// that decides the branch: so the branch committed iff the row of a
    /// file it touched is **present for a link, absent for an unlink**. The
    /// row's presence cannot have changed since: the branch still holds its
    /// `dl_files` row locks (live), or it is an unlink whose intent survived
    /// a crash — and a later unlink of the path forces its own intent after
    /// this branch's end, and a later link forces that end before it votes
    /// (the ordering rule of [`DlfmServer::link_file`]), so if the end was
    /// lost, no later link or unlink reached the host. A link leaves no
    /// intent: recovery reads a link off the host row alone.
    /// Later updates force nothing on this node, so a committed link may
    /// find its row above version 1: an update only moves the version. All
    /// files of one branch agree — the host commit is atomic — so the first
    /// decides. A branch with no file is presumed aborted. One `settle`
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
    /// old one left) — by the settle rule, the same as crash recovery. The
    /// host first aborts the transaction if it is still undecided, so the
    /// rows read next are its outcome for good: a transaction without the
    /// host row to show for it never commits. Returns `true` when the
    /// transaction committed. Idempotent: a decision that raced in through
    /// another path finds no pending sub-transaction and settles nothing.
    pub fn resolve_client_loss(&self, host_txid: u64) -> bool {
        let Some(cell) = self.pending.lock().get(&host_txid).cloned() else { return false };
        let files = cell.lock().files.clone();
        let host = self.host.read().clone();
        host.abort_undecided(host_txid);
        let committed =
            self.host_committed(host_txid, &files, |path| host.file_version(&self.file_url(path)));
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

    /// Token validation (§4.1) for an open not under full control, ahead
    /// of its physical open, and for the routed read: verifies the MAC/expiry
    /// and records a token entry keyed by *userid*.
    pub fn validate_token(&self, path: &str, token: &str, uid: u32) -> Result<TokenKind, String> {
        self.stats.upcalls.inc();
        self.stats.token_validations.inc();
        let (server, now) = (&self.cfg.server_name, self.clock.now_ms());
        self.repo.admit_token(&self.token_key, server, path, token, uid, now)
    }

    /// Open processing during `fs_open` interception (§4.1, §4.2, §4.4,
    /// §4.5).
    ///
    /// For a write, this is the rfd slow path ("DLFS contacts DLFM through
    /// an upcall only if the fs_open() entry point of the file system
    /// fails", §4.2) as well as the full-control (rdd) mandatory path.
    ///
    /// `token` is the access token the open presents, stripped from the
    /// name at lookup. It is validated here, MAC and expiry first, with the
    /// text [`DlfmServer::validate_token`] would reject it with; a token of
    /// a kind that authorizes `wanted` then stands in for the token-entry
    /// lookup. Its entry is recorded whatever the decision — inside the
    /// claim transaction when the open is granted, on its own otherwise —
    /// so a later open by the same userid is admitted by it, as §4.1's
    /// lookup-time validation left it. A read open runs no repository
    /// transaction: one committed lookup, then a claim in the open table.
    pub fn open_check(
        &self,
        path: &str,
        uid: u32,
        wanted: TokenKind,
        opener: u64,
        token: Option<&str>,
    ) -> OpenDecision {
        self.stats.upcalls.inc();
        self.stats.open_checks.inc();
        let mut carried = None;
        if let Some(token) = token {
            self.stats.token_validations.inc();
            let (server, now) = (&self.cfg.server_name, self.clock.now_ms());
            match AccessToken::decode_verified(token, &self.token_key, server, path, now) {
                Ok(token) => carried = Some(token),
                Err(e) => return OpenDecision::Rejected(e.to_string()),
            }
        }
        let unlinks_seen = self.repo.opens().unlinks_ended(path);
        let decision = match self.repo.get_file(path) {
            // Register the open anyway so link can see it.
            None => self.not_managed(path, wanted, opener, uid),
            Some(entry) => match wanted {
                TokenKind::Write => self.open_check_write(&entry, uid, opener, &mut carried),
                TokenKind::Read => {
                    self.open_check_read(&entry, uid, opener, &mut carried, unlinks_seen)
                }
            },
        };
        // A granted claim took the entry; every other outcome records it
        // here.
        if let Some(token) = carried {
            let _ = self.repo.put_token_entry(uid, path, token.kind, token.expires_at_ms);
        }
        decision
    }

    /// The open check's `NotManaged` answer. Under strict link it first
    /// registers the open, so a later link sees it — or refuses the open
    /// while a live link branch holds the path
    /// ([`Repository::register_open`]).
    fn not_managed(&self, path: &str, kind: TokenKind, opener: u64, uid: u32) -> OpenDecision {
        if !self.cfg.strict_link {
            return OpenDecision::NotManaged;
        }
        match self.repo.register_open(path, kind, opener, uid) {
            Ok(()) => OpenDecision::NotManaged,
            Err(e) => OpenDecision::Rejected(e),
        }
    }

    /// Is `uid` admitted to `wanted` access of `path` — by the token the
    /// open `carried`, or else by a token entry?
    fn token_admits(
        &self,
        carried: &Option<AccessToken>,
        uid: u32,
        path: &str,
        wanted: TokenKind,
    ) -> bool {
        carried.as_ref().is_some_and(|t| t.kind.authorizes(wanted))
            || self.repo.check_token_entry(uid, path, wanted, self.clock.now_ms())
    }

    /// The write arm of [`DlfmServer::open_check`]. A granted claim records
    /// the entry of the `carried` token and takes it.
    fn open_check_write(
        &self,
        entry: &FileEntry,
        uid: u32,
        opener: u64,
        carried: &mut Option<AccessToken>,
    ) -> OpenDecision {
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
        if !self.token_admits(carried, uid, &entry.path, TokenKind::Write) {
            return OpenDecision::Rejected(format!(
                "no valid write token entry for uid {uid} on {}",
                entry.path
            ));
        }
        // Serialization (§4.2): claim the update slot atomically — one
        // repository transaction, serialized on the `dl_files` row lock,
        // re-reads the fresh version, registers the writer in the open
        // table unless a conflicting open exists (write-write always; in
        // full control mode reads too) and inserts the UIP row. Upcall
        // workers run concurrently, so the caller's `entry` may be stale;
        // the claim's is not.
        let read_conflicts = entry.mode.full_control() && self.cfg.track_read_sync;
        let claim = match self.repo.claim_write_open(
            &entry.path,
            opener,
            uid,
            read_conflicts,
            carried.as_ref(),
        ) {
            Ok(claim) => claim,
            Err(_) => {
                self.stats.busy_responses.inc();
                return OpenDecision::Busy;
            }
        };
        let (entry, _new_version) = match claim {
            crate::repository::WriteClaim::Granted { entry, new_version } => {
                *carried = None;
                (entry, new_version)
            }
            crate::repository::WriteClaim::Conflict => {
                self.stats.busy_responses.inc();
                return OpenDecision::Busy;
            }
            crate::repository::WriteClaim::NotLinked => {
                // Unlinked between the caller's lookup and the claim. Keep
                // the strict NotManaged arms symmetric: register the open.
                return self.not_managed(&entry.path, TokenKind::Write, opener, uid);
            }
        };
        // §4.4: "any new update request to the file is blocked until the
        // archiving completes." The close path pre-marks the archive before
        // its commit, so post-claim this check cannot miss an in-flight job.
        // The open does not wait for the archiver: it runs its file's queued
        // job on this thread, or waits out the one the worker has started.
        // Its claim has committed, so it holds no row lock meanwhile.
        if self.archive.is_archiving(&entry.path) && self.archiver.finish(&entry.path) {
            self.stats.archive_jobs_by_opener.inc();
        }

        // Guarantee a restorable before-image: the first update of a file
        // captures the linked content as version 1 (state 0 = "since link").
        if !self.archive.contains(&entry.path, entry.cur_version) {
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
        if self.set_attrs(&entry.path, dlfm.uid, dlfm.gid, GRANT_MODE).is_err() {
            self.repo.release_write_claim(&entry.path, opener);
            return OpenDecision::Rejected(format!("take-over of {} failed", entry.path));
        }
        OpenDecision::Approved { open_as: dlfm }
    }

    /// The read arm of [`DlfmServer::open_check`]; takes the `carried` token
    /// like [`DlfmServer::open_check_write`]. `unlinks_seen` is the open
    /// table's unlink count from before `entry` was looked up.
    fn open_check_read(
        &self,
        entry: &FileEntry,
        uid: u32,
        opener: u64,
        carried: &mut Option<AccessToken>,
        unlinks_seen: u64,
    ) -> OpenDecision {
        if entry.mode.read_control() != crate::modes::AccessControl::Dbms {
            // FS-controlled reads never upcall in the fast path; reaching
            // here means DLFS was configured strictly (e.g. a linked rff
            // file whose original owner is the DLFM uid). Approve as the
            // user — but register the open like every other NotManaged
            // arm, or strict unlink could miss it (DLFS records the
            // instance and unregisters at close).
            return self.not_managed(&entry.path, TokenKind::Read, opener, uid);
        }
        if !self.token_admits(carried, uid, &entry.path, TokenKind::Read) {
            return OpenDecision::Rejected(format!(
                "no valid read token entry for uid {uid} on {}",
                entry.path
            ));
        }
        // Full-control serialization: reads conflict with writes (§4.2).
        // With tracking on, the conflict check and the Sync entry are one
        // check-and-set in the open table, so a concurrent write open or
        // unlink cannot interleave; the untracked ablation keeps the
        // best-effort check (its documented trade-off).
        if self.cfg.track_read_sync {
            let token = carried.as_ref();
            if !self.repo.claim_read(&entry.path, opener, uid, token, unlinks_seen) {
                self.stats.busy_responses.inc();
                return OpenDecision::Busy;
            }
            *carried = None;
        } else if self.repo.sync_entries(&entry.path).iter().any(|s| s.kind == TokenKind::Write) {
            self.stats.busy_responses.inc();
            return OpenDecision::Busy;
        }
        OpenDecision::Approved { open_as: self.cfg.dlfm_cred }
    }

    /// Close processing (§4.3–§4.4): metadata refresh in the host
    /// transaction context, version commit, asynchronous archiving; or, on
    /// failure/no-write, release of the write grant. A read's close is its
    /// purge from the open table alone; a writer leaves the table after its
    /// grant is released, so no new grant lands before that release.
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
        if self.repo.end_open(path, opener, false) != Some(TokenKind::Write) {
            // A read close, or a descriptor with no entry (an untracked
            // read, a write never granted).
            self.bump_epoch();
            return Ok(());
        }
        let claim = self.repo.get_file(path).and_then(|entry| {
            let uip = self.repo.get_uip(path).filter(|u| u.opener == opener)?;
            Some((entry, uip))
        });
        let Some((entry, uip)) = claim else {
            // A strict registration of a write open of an unmanaged file.
            self.repo.end_open(path, opener, true);
            self.bump_epoch();
            return Ok(());
        };

        if !wrote {
            // Opened for write but never modified: no new version (§4.4
            // checks the modification time for exactly this).
            let _ = self.repo.remove_uip(path);
            self.release_write_grant(&entry);
            self.repo.end_open(path, opener, true);
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
                self.release_write_grant(&entry);
                self.repo.opens().end(path, opener, true);
                self.submit_archive(&entry, uip.new_version, state_id);
                self.bump_epoch();
                Ok(())
            }
            Err(e) => {
                self.archive.cancel_archiving(self.generation, path);
                // §4.2: roll the file back to the last committed version.
                self.rollback_update(path, entry.cur_version);
                let _ = self.repo.remove_uip(path);
                self.release_write_grant(&entry);
                self.repo.end_open(path, opener, true);
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
    /// The host's forced `Commit` of the metadata row is the single commit
    /// point: the repository rows are staged first (their row locks fence
    /// the file), the host commits, and the repository record follows
    /// **unforced** — recovery re-derives it from the host row
    /// ([`DlfmServer::recover`]). The record carries the version and the
    /// claim's removal; the writer leaves the open table after it. A host
    /// error drops the staged rows and the caller rolls the file back.
    fn commit_file_update(
        &self,
        uip: &UipEntry,
        new_size: u64,
        new_mtime: u64,
    ) -> Result<u64, String> {
        let host = self.host.read().clone();
        let state_hint = host.state_id();
        // The close's rows, in lock order (`dl_files`, then `dl_uip` — the
        // order the write claim uses): the claimed version becomes current
        // and awaits archiving, and the claim goes. Every value is the
        // claim row's.
        let mut txn = self.repo.db().begin();
        let db_err = |e: dl_minidb::DbError| e.to_string();
        self.repo
            .commit_version_in(&mut txn, &uip.path, uip.new_version, state_hint)
            .map_err(db_err)?;
        self.repo.remove_uip_in(&mut txn, &uip.path).map_err(db_err)?;
        let lsn = host.commit_file_update(
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

    /// Puts committed `version`'s archived bytes back over a write that did
    /// not commit (a failed close-commit, or one recovery finds in flight),
    /// quarantining the dirty ones. Returns false, touching nothing, when
    /// the store lacks the version.
    fn rollback_update(&self, path: &str, version: u64) -> bool {
        let Some(committed) = self.archive.get(path, version) else { return false };
        self.stats.rollbacks.inc();
        if let Ok(dirty) = self.admin.read_file(&ROOT, path) {
            self.archive.quarantine(self.generation, path, dirty);
        }
        let _ = self.admin.write_file(&ROOT, path, &committed.data);
        true
    }

    /// Whether `entry`'s file carries a write grant's attributes: the disk's
    /// own record of a write in flight, "ascertained by examining the
    /// ownership of the file" (§4.2). Only update-capable modes are ever
    /// granted, and their at-rest attributes keep no write bit.
    fn write_granted(&self, entry: &FileEntry) -> bool {
        let dlfm = self.cfg.dlfm_cred;
        entry.mode.supports_update()
            && self
                .admin
                .stat(&ROOT, &entry.path)
                .is_ok_and(|a| (a.uid, a.gid, a.mode) == (dlfm.uid, dlfm.gid, GRANT_MODE))
    }

    /// Returns the file to its at-rest linked attributes after a write.
    fn release_write_grant(&self, entry: &FileEntry) {
        let (uid, gid, mode) = linked_attrs(entry.mode, entry, &self.cfg.dlfm_cred);
        let _ = self.set_attrs(&entry.path, uid, gid, mode);
    }

    /// Remove/rename/chmod/chown veto (§2.3): linked files with
    /// referential integrity cannot be removed or renamed — that would
    /// dangle the DATALINK — nor have their owner or permission bits
    /// changed. A file a live link branch holds counts as linked: the
    /// branch has voted on the file and its attributes, and the host may
    /// commit it at any time. The check refuses rather than answering
    /// `Busy`: the branch's transaction may be the caller's own, which
    /// would wait on itself. The branch is looked at before the committed
    /// row, which its commit makes visible before the branch is retired.
    pub fn mutation_check(&self, path: &str) -> Result<(), String> {
        self.stats.upcalls.inc();
        let voted = self.repo.opens().linking(path);
        match voted.or_else(|| self.repo.get_file(path).map(|entry| entry.mode)) {
            Some(mode) if mode.referential_integrity() => Err(format!(
                "{path} is linked to the database (mode {mode}); remove/rename/chmod rejected"
            )),
            _ => Ok(()),
        }
    }

    /// strict-link registration of an open (§4.5 future work, implemented
    /// as an ablation): records the open in the Sync table so link (and,
    /// for managed files, unlink) can detect it. Registration is pure
    /// bookkeeping and never runs the open-grant protocol, whose `Busy` or
    /// `Rejected` would drop it. DLFS registers before the physical open,
    /// so a refusal (a live link branch, which voted on a file with no
    /// registered open, holds the path) fails the open.
    pub fn register_open(&self, path: &str, uid: u32, opener: u64) -> Result<(), String> {
        self.stats.upcalls.inc();
        self.repo.register_open(path, TokenKind::Read, opener, uid)
    }

    /// Close of a strict-link registered open.
    pub fn unregister_open(&self, path: &str, opener: u64) {
        self.repo.end_open(path, opener, true);
        self.bump_epoch();
    }

    // =====================================================================
    // Protocol dispatch — the one place a request becomes a server call
    // =====================================================================

    /// Serves one request of the agent/upcall protocol and shapes its
    /// reply. Every carrier ends here (`crate::agent` in-process,
    /// `crate::wire` over sockets), so the rules below hold on both:
    ///
    /// * link/unlink stamped with a fenced coordinator epoch are
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
    /// A panic inside a server call propagates; the lanes contain it
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

            Message::Link { txid, coord_epoch, path, mode, recovery, on_unlink } => {
                let vote = (|| {
                    let mode = ControlMode::try_from(mode)?;
                    let on_unlink = OnUnlink::try_from(on_unlink)?;
                    self.guard_coordinator(coord_epoch)?;
                    self.link_file(txid, &path, mode, recovery, on_unlink)
                })();
                match vote {
                    Ok(LinkVote { size, mtime, uid, gid, mode }) => {
                        Message::LinkVote { size, mtime, uid, gid, mode }
                    }
                    Err(e) => Message::Err(e),
                }
            }
            Message::Unlink { txid, coord_epoch, path } => unit(
                self.guard_coordinator(coord_epoch).and_then(|()| self.unlink_file(txid, &path)),
            ),
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
            Message::OpenCheck { path, uid, wanted, opener, token } => {
                let wanted = match TokenKind::try_from(wanted) {
                    Ok(wanted) => wanted,
                    Err(e) => return Message::OpenRejected(e),
                };
                let token = (!token.is_empty()).then_some(token.as_str());
                let epoch = self.epoch();
                match self.open_check(&path, uid, wanted, opener, token) {
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
                unit(self.register_open(&path, uid, opener))
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
    /// the views, `dl_files`, an intent or a claim names settles by
    /// `DlfmServer::reconcile_file` — which also reads each linked file's
    /// attributes for a write in flight — in one forced repository commit; then
    /// versions whose archive job was lost are archived from the disk.
    /// Token entries and Sync entries live in memory: none come back. `before`
    /// is the host's rows as they stood before the host was rewound — a
    /// point-in-time restore passes the running host's; crash recovery and
    /// failover, which rewind nothing, pass none. A link only they hold is
    /// handed back from them: the node may keep no record of it, a link's
    /// end being unforced.
    pub fn recover(&self, host: &HostView, before: &HostView) -> Result<RecoveryReport, String> {
        let mut report = RecoveryReport::default();
        let mut local: BTreeMap<String, LocalRecords> = BTreeMap::new();
        let mut branches: BTreeMap<u64, Vec<(String, BranchOp)>> = BTreeMap::new();
        for intent in self.repo.list_intents() {
            let path = intent.file.path.clone();
            branches.entry(intent.host_txid).or_default().push((path.clone(), BranchOp::Unlink));
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
        for path in host.keys().chain(before.keys()) {
            local.entry(path.clone()).or_default();
        }
        let state_id = self.host.read().state_id();
        let mut txn = self.repo.db().begin();
        for (path, records) in local {
            let rows = (host.get(&path), before.get(&path));
            self.reconcile_file(&mut txn, &path, rows, records, state_id, &mut report)?;
        }
        txn.commit().map_err(|e| e.to_string())?;

        // Re-archive committed versions whose archive job was lost.
        for entry in self.repo.files_needing_archive() {
            if !self.archive.contains(&entry.path, entry.cur_version) {
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
    /// ("Recovery and replication"). `rows` are the host's row and the row
    /// from before a rewind ([`DlfmServer::recover`]'s `before`), `local`
    /// what this node's log kept; the row changes go into `txn`. The host
    /// row decides every case: a link's entry and original attributes come
    /// from this node's row or else the host row, an unlink's intent says
    /// what the unlink did, a claim the version it reserved, the disk
    /// whether a write is in flight.
    fn reconcile_file(
        &self,
        txn: &mut dl_minidb::Txn,
        path: &str,
        rows: (Option<&HostFile>, Option<&HostFile>),
        local: LocalRecords,
        state_id: u64,
        report: &mut RecoveryReport,
    ) -> Result<(), String> {
        let (host, before) = rows;
        let LocalRecords { file, intent, claim } = local;
        let db_err = |e: dl_minidb::DbError| e.to_string();
        // A claim whose version the host row records committed (its close
        // record was lost) rolls forward below; any other claim never did,
        // and its dirty bytes go.
        let uncommitted = claim.as_ref().filter(|c| host.is_none_or(|h| h.version < c.new_version));
        if claim.is_some() {
            if let (Some(entry), Some(_)) = (&file, uncommitted) {
                self.rollback_update(path, entry.cur_version);
                report.updates_rolled_back += 1;
            }
            self.repo.remove_uip_in(txn, path).map_err(db_err)?;
        }
        let unlink_action = intent.as_ref().map(|intent| intent.file.on_unlink);
        if let Some(intent) = &intent {
            self.repo.remove_intent_in(txn, intent.host_txid, path).map_err(db_err)?;
        }
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
                // A link the host was rewound past, whose row this node never
                // kept: hand the file back as the row from before the rewind
                // says — its take-over may have applied.
                if let Some(row) = before {
                    let _ = self.set_attrs(path, row.orig_uid, row.orig_gid, row.orig_mode);
                    report.links_undone += 1;
                }
            }
            (Some(row), file) => {
                // The link as this node recorded it, else as the host row
                // records it (its end was lost, or it was made before a
                // rewind past its unlink).
                let relink = file.is_none();
                let entry = file.or_else(|| self.entry_of_row(path, row));
                let Some(entry) = entry else {
                    report.missing_versions.push((path.to_string(), row.version));
                    return Ok(());
                };
                if relink {
                    self.repo.insert_file_in(txn, &entry).map_err(db_err)?;
                    report.files_relinked += 1;
                }
                // A write in flight that no uncommitted claim accounts for:
                // its claim was lost, or only an earlier update's committed
                // claim survived. Its bytes may be dirty; the host version's
                // are in the store — a grant waits until the version before
                // it is archived — except between a close's host commit and
                // its grant's release, when the disk holds them.
                let in_flight = uncommitted.is_none() && self.write_granted(&entry);
                if in_flight && self.rollback_update(path, row.version) {
                    report.updates_rolled_back += 1;
                }
                // At rest the disk may hold a version past the host row's (a
                // restore, or a host failover that lost an update's
                // `Commit`), so a move takes the store's copy of the row's
                // version, and the disk's only when the store lacks it.
                let moved =
                    self.move_to_version(txn, &entry, row.version, in_flight, state_id, report)?;
                if relink || moved || in_flight || claim.is_some() || unlink_action.is_some() {
                    self.release_write_grant(&entry);
                }
            }
        }
        Ok(())
    }

    /// The entry of a link the host committed and this node holds no row
    /// of (its end was lost to a crash or a failover, or a restore went
    /// back to before its unlink): the column's options and the original
    /// attributes the link's vote recorded in the host row. `None` when the
    /// file is not on disk.
    fn entry_of_row(&self, path: &str, row: &HostFile) -> Option<FileEntry> {
        let attr = self.admin.stat(&ROOT, path).ok()?;
        Some(FileEntry {
            path: path.to_string(),
            mode: row.mode,
            recovery: row.recovery,
            on_unlink: row.on_unlink,
            cur_version: 1,
            orig_uid: row.orig_uid,
            orig_gid: row.orig_gid,
            orig_mode: row.orig_mode,
            ino: attr.ino,
            state_id: 0,
            needs_archive: false,
        })
    }

    /// Moves `entry` to the host's `version`. The bytes: already in place
    /// when `on_disk` (a write in flight, rolled back), else the archived
    /// version's if the store holds it; a newer version it lacks is on
    /// disk, and an older one (RECOVERY NO prunes) is reported missing and
    /// the file stays. `needs_archive` is set, so the re-archive pass
    /// copies what the store lacks. Returns whether the version moved.
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
        if !on_disk {
            match self.archive.get(path, version) {
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
/// version and the original attributes its `__dl_meta` row records (the
/// latter from the link's [`LinkVote`]) and the options of the DATALINK
/// column whose row references it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostFile {
    pub version: u64,
    pub mode: ControlMode,
    pub recovery: bool,
    pub on_unlink: OnUnlink,
    pub orig_uid: u32,
    pub orig_gid: u32,
    pub orig_mode: u16,
}

/// The host's view of one node — path → [`HostFile`] for every file whose
/// `__dl_meta` row names the node: the one input [`DlfmServer::recover`]
/// takes from the host.
pub type HostView = HashMap<String, HostFile>;

/// What this node's own log kept about one path.
#[derive(Default)]
struct LocalRecords {
    file: Option<FileEntry>,
    /// A surviving unlink intent.
    intent: Option<IntentEntry>,
    claim: Option<UipEntry>,
}

/// What recovery did (assertable in tests, printed by the report binary).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// One entry per unlink branch a surviving intent left unsettled:
    /// `(host_txid, committed)`. A link leaves no intent.
    pub in_doubt_resolved: Vec<(u64, bool)>,
    /// Files handed back from the host's rows before a rewind: links the
    /// host no longer holds and this node kept no row of.
    pub links_undone: u64,
    pub unlinks_completed: u64,
    /// Files moved forward to the host row's version: a surviving claim
    /// whose close record was lost, or an update this node never heard of.
    pub updates_rolled_forward: u64,
    /// Writes rolled back to the host row's version: surviving claims the
    /// host never committed, and writes in flight whose claim was lost,
    /// found by the file's write-grant attributes.
    pub updates_rolled_back: u64,
    pub archives_recovered: u64,
    /// Links the host rows hold and this node kept no row of
    /// (`files_relinked`), and files this node held linked that the host
    /// rows no longer do with no unlink intent to show for it
    /// (`files_unlinked`).
    pub files_relinked: u64,
    pub files_unlinked: u64,
    /// Files moved back to the host row's older, archived version (a
    /// point-in-time restore).
    pub versions_rolled_back: u64,
    /// `(path, version)` pairs the host rows name and nothing here can
    /// supply: an old version a RECOVERY NO column pruned, a file gone.
    pub missing_versions: Vec<(String, u64)>,
}
