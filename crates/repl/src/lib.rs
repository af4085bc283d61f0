//! WAL-shipping replication for DLFM nodes.
//!
//! The paper's file server is a single point of failure: every token
//! validation and open upcall funnels into one DLFM repository, and a
//! crash is a full outage until recovery replays. This crate turns the
//! group-commit WAL (`dl_minidb::WalReader`) into a replication feed:
//!
//! * a [`Replicator`] daemon tails a primary's log and ships every durable
//!   frame range to one or more [`Follower`]s — the one thing it feeds: a
//!   `dl_minidb::Database` in follower mode (physical replication, its log
//!   a byte prefix of the primary's at all times) behind an epoch fence;
//! * the ship protocol carries an **epoch** number checked against a
//!   shared [`EpochFence`]: promotion bumps the fence, so a stale
//!   primary's shipper — one that missed the failover — has every
//!   subsequent frame rejected instead of silently diverging a follower;
//! * a [`Standby`] is a follower of a DLFM *repository* plus what only a
//!   read replica needs: a replica-local token-session store and a content
//!   fallback. Committed file bytes do not travel at all — the node has one
//!   `ArchiveStore`, outside its file server like the paper's archive
//!   device, and a standby reads the primary's versions there — so it
//!   serves reads without the primary;
//! * a [`ReplicaSet`] bundles the standbys of one primary with their
//!   shipper: `ReplicaSet<Standby>` is also the round-robin read router
//!   the DataLinks engine spreads token validation and replica-served
//!   reads over while writes stay on the primary; the host database's set
//!   is a `ReplicaSet<Follower>` — the coordinator needs durability and
//!   failover, not token validation.
//!
//! ## The replica read protocol
//!
//! A replica validates a read token *cryptographically* (same HMAC secret
//! the engine mints with) and records the resulting token entry in a
//! **replica-local** session database — not the replicated repository,
//! which is apply-only. The subsequent read is served from the node's
//! archive store at the file's replicated `cur_version`. Validation is
//! serialized per replica through a single lane, modelling the paper's
//! one-upcall-daemon-per-node prototype: a replica is one node's worth of
//! validation capacity, and fan-out across replicas is where throughput
//! scaling comes from (experiment a10).
//!
//! ## Checkpoint shipping
//!
//! The shipper consumes a [`ReplicationFeed`] rather than a bare
//! `WalReader`: when the primary has truncated its log below the shipper's
//! cursor (bounded-WAL operation, `DbOptions::checkpoint_every_bytes`),
//! the read reports `TruncatedLog` and the shipper falls back to
//! installing the primary's latest checkpoint image on every standby that
//! is behind it — *delta catch-up*: install the image, then tail only the
//! WAL suffix, instead of replaying the primary's whole history. Standbys
//! also truncate their own logs when a `Checkpoint` record flows through
//! ordinary shipping, so replica logs stay bounded in lockstep with the
//! primary's (experiment a11 measures both effects; OPERATIONS.md is the
//! operator runbook).

#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dl_dlfm::repository::FileEntry;
use dl_dlfm::{AccessToken, ArchiveStore, ContentSource, TokenKind};
use dl_fskit::Clock;
use dl_minidb::{
    Column, ColumnType, Database, DbError, DbOptions, Lsn, ReplicationFeed, Schema, ShippedFrames,
    SnapshotData, StorageEnv, Value,
};
use parking_lot::Mutex;

/// Replication failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplError {
    /// A frame carried an epoch older than the standby's fence: the sender
    /// is a fenced (stale) primary and must stop shipping.
    StaleEpoch {
        /// Epoch the sender was spawned under.
        shipped: u64,
        /// The standby fence's current epoch.
        fence: u64,
    },
    /// The standby refused or failed to apply (gap, I/O, corrupt frame).
    Apply(String),
    /// Reading the primary log failed.
    Read(String),
}

impl fmt::Display for ReplError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplError::StaleEpoch { shipped, fence } => {
                write!(f, "stale epoch {shipped} rejected by fence at epoch {fence}")
            }
            ReplError::Apply(e) => write!(f, "standby apply failed: {e}"),
            ReplError::Read(e) => write!(f, "primary log read failed: {e}"),
        }
    }
}

/// The failover fence: a monotonically increasing epoch shared by every
/// standby of one replica set. Promotion bumps it; a shipper carries the
/// epoch it was spawned under, so frames from a pre-failover primary are
/// recognizably stale.
#[derive(Debug, Default)]
pub struct EpochFence {
    current: AtomicU64,
}

impl EpochFence {
    /// A fence at epoch 0.
    pub fn new() -> EpochFence {
        EpochFence::default()
    }

    /// A fence starting at `epoch` — how a replica set rebuilt after a
    /// failover inherits the promoted coordinator's generation instead of
    /// restarting at 0 (a second failover must still out-rank the first).
    pub fn at(epoch: u64) -> EpochFence {
        EpochFence { current: AtomicU64::new(epoch) }
    }

    /// The current epoch.
    pub fn current(&self) -> u64 {
        self.current.load(Ordering::SeqCst)
    }

    /// Advances the fence (promotion); returns the new epoch.
    pub fn bump(&self) -> u64 {
        self.current.fetch_add(1, Ordering::SeqCst) + 1
    }
}

/// Counters for shipping and replica reads (benchmarks and tests).
#[derive(Debug, Default)]
pub struct ReplStats {
    /// Shipped frame ranges applied by every standby.
    pub batches_shipped: AtomicU64,
    /// Records carried by those ranges.
    pub records_shipped: AtomicU64,
    /// Raw log bytes carried by those ranges.
    pub bytes_shipped: AtomicU64,
    /// Checkpoint images installed on lagging standbys (delta catch-up).
    pub checkpoints_shipped: AtomicU64,
    /// Frame ranges or checkpoint installs rejected by the epoch fence.
    pub stale_rejections: AtomicU64,
}

impl ReplStats {
    /// Frame ranges or checkpoint installs rejected by the epoch fence.
    pub fn stale_rejections(&self) -> u64 {
        self.stale_rejections.load(Ordering::Relaxed)
    }

    /// Checkpoint images installed on lagging standbys.
    pub fn checkpoints_shipped(&self) -> u64 {
        self.checkpoints_shipped.load(Ordering::Relaxed)
    }

    /// Records carried by shipped frame ranges.
    pub fn records_shipped(&self) -> u64 {
        self.records_shipped.load(Ordering::Relaxed)
    }

    /// Raw log bytes carried by shipped frame ranges.
    pub fn bytes_shipped(&self) -> u64 {
        self.bytes_shipped.load(Ordering::Relaxed)
    }
}

/// A fenced follower: a `Database` in follower mode that takes frame
/// ranges and checkpoint images only from a shipper of the current epoch.
/// The one thing the ship daemon feeds — a host-database standby is
/// exactly this, a DLFM [`Standby`] wraps one. Everything it does not fence
/// is the database's own, reached by deref: `applied_lsn`, `wait_applied`,
/// `wal_retained_bytes`, `wait_snapshot_idle`, `snapshot_queue_depth`, the
/// ordinary read path — and `promote`, which a failover calls after
/// [`ReplicaSet::freeze`] to make this database the primary in place.
pub struct Follower {
    /// `<primary>#<ordinal>` (diagnostics).
    pub name: String,
    db: Database,
    fence: Arc<EpochFence>,
    stats: Arc<ReplStats>,
}

impl Follower {
    /// Opens a follower over `env` (the replicated database) under the
    /// options of the primary it follows
    /// ([`ReplicationFeed::db_options`]).
    pub fn new(
        name: String,
        env: StorageEnv,
        opts: DbOptions,
        fence: Arc<EpochFence>,
        stats: Arc<ReplStats>,
    ) -> Result<Follower, String> {
        let db = Database::open_follower(env, opts).map_err(|e| e.to_string())?;
        Ok(Follower { name, db, fence, stats })
    }

    /// Applies one shipped range, fencing stale epochs first. A rejected
    /// range leaves the follower untouched.
    pub fn apply(&self, epoch: u64, frames: &ShippedFrames) -> Result<(), ReplError> {
        self.check_fence(epoch)?;
        self.db.apply(frames).map_err(|e| ReplError::Apply(e.to_string()))
    }

    /// Installs a primary checkpoint image (delta catch-up), fencing stale
    /// epochs first. Returns whether the follower actually installed it
    /// (`false`: it was already at or past the image).
    pub fn install_checkpoint(&self, epoch: u64, snap: &SnapshotData) -> Result<bool, ReplError> {
        self.check_fence(epoch)?;
        self.db.install_checkpoint(snap).map_err(|e| ReplError::Apply(e.to_string()))
    }

    fn check_fence(&self, epoch: u64) -> Result<(), ReplError> {
        let fence = self.fence.current();
        if epoch != fence {
            self.stats.stale_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(ReplError::StaleEpoch { shipped: epoch, fence });
        }
        Ok(())
    }
}

impl std::ops::Deref for Follower {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.db
    }
}

/// Name of the replica-local session table holding validated token entries
/// — unlogged, like the primary's `dl_tokens`: a replica restart ends every
/// session it was serving.
const SESSION_TOKENS: &str = "repl_tokens";

/// One hot standby of a DLFM repository: a [`Follower`] of the repository
/// database (reached by deref — `name`, `applied_lsn`, `env`, …) plus what
/// makes it a read replica.
pub struct Standby {
    follower: Arc<Follower>,
    /// The node's one archive store, the primary's.
    archive: Arc<ArchiveStore>,
    /// Replica-local store for validated token entries (the replicated
    /// repository is apply-only).
    session: Database,
    /// Serializes validations: one validation daemon per node, as in the
    /// paper's prototype. Replica fan-out, not per-replica concurrency, is
    /// the scaling lever.
    lane: Mutex<()>,
    server_name: String,
    token_key: Vec<u8>,
    clock: Arc<dyn Clock>,
    /// Content fallback for linked-but-never-updated files, which have no
    /// archived version yet (the primary captures the before-image on the
    /// first write open).
    fallback: Option<ContentSource>,
    /// Read tokens validated at this replica.
    pub validations: AtomicU64,
    /// Reads served entirely from this replica (archive store/fallback).
    pub reads_served: AtomicU64,
}

impl Standby {
    /// Wraps `follower` (the replicated repository) with a replica-local
    /// token-session store over `session_env`; reads are served from
    /// `archive`, the primary's store.
    pub fn new(
        follower: Arc<Follower>,
        archive: Arc<ArchiveStore>,
        session_env: StorageEnv,
        server_name: String,
        token_key: Vec<u8>,
        clock: Arc<dyn Clock>,
        fallback: Option<ContentSource>,
    ) -> Result<Standby, String> {
        let session =
            Database::open_with(session_env, DbOptions::default()).map_err(|e| e.to_string())?;
        if !session.has_table(SESSION_TOKENS) {
            session
                .create_table(
                    Schema::new(
                        SESSION_TOKENS,
                        vec![
                            Column::new("tokkey", ColumnType::Text),
                            Column::new("expiry", ColumnType::Int),
                        ],
                        "tokkey",
                    )
                    .expect("static schema")
                    .unlogged(),
                )
                .map_err(|e| e.to_string())?;
        }
        Ok(Standby {
            follower,
            archive,
            session,
            lane: Mutex::new(()),
            server_name,
            token_key,
            clock,
            fallback,
            validations: AtomicU64::new(0),
            reads_served: AtomicU64::new(0),
        })
    }

    /// The fenced follower underneath — what a [`Replicator`] feeds.
    pub fn follower(&self) -> &Arc<Follower> {
        &self.follower
    }

    /// The archive store reads are served from: the primary's.
    pub fn archive_store(&self) -> &Arc<ArchiveStore> {
        &self.archive
    }

    /// The replicated file entry for `path`, if linked as of the applied
    /// watermark.
    pub fn file_entry(&self, path: &str) -> Option<FileEntry> {
        self.follower
            .get_committed("dl_files", &Value::Text(path.to_string()))
            .ok()
            .flatten()
            .and_then(|row| FileEntry::from_row(&row))
    }

    fn token_key_for(uid: u32, path: &str, kind: TokenKind) -> String {
        let k = match kind {
            TokenKind::Read => "r",
            TokenKind::Write => "w",
        };
        format!("{uid}|{path}|{k}")
    }

    /// Validates a read token exactly the way the primary's upcall path
    /// does — MAC + expiry against the shared per-server secret — and
    /// records the token entry in the replica-local session store.
    pub fn validate_read_token(
        &self,
        path: &str,
        token_str: &str,
        uid: u32,
    ) -> Result<TokenKind, String> {
        let _lane = self.lane.lock();
        let token = AccessToken::decode(token_str).map_err(|e| e.to_string())?;
        let now = self.clock.now_ms();
        token.verify(&self.token_key, &self.server_name, path, now).map_err(|e| e.to_string())?;
        let key = Self::token_key_for(uid, path, token.kind);
        let kv = Value::Text(key.clone());
        let row = vec![Value::Text(key), Value::Int(token.expires_at_ms as i64)];
        let mut txn = self.session.begin();
        if txn.get_for_update(SESSION_TOKENS, &kv).map_err(|e| e.to_string())?.is_some() {
            txn.update(SESSION_TOKENS, &kv, row).map_err(|e| e.to_string())?;
        } else {
            txn.insert(SESSION_TOKENS, row).map_err(|e| e.to_string())?;
        }
        txn.commit().map_err(|e| e.to_string())?;
        self.validations.fetch_add(1, Ordering::Relaxed);
        Ok(token.kind)
    }

    fn has_token_entry(&self, uid: u32, path: &str, now_ms: u64) -> bool {
        for kind in [TokenKind::Read, TokenKind::Write] {
            let key = Value::Text(Self::token_key_for(uid, path, kind));
            let live = self
                .session
                .get_committed(SESSION_TOKENS, &key)
                .ok()
                .flatten()
                .and_then(|row| row[1].as_int())
                .map(|exp| now_ms <= exp as u64)
                .unwrap_or(false);
            if live {
                return true;
            }
        }
        false
    }

    /// Serves the last committed bytes of `path` to a validated user: the
    /// archived version at the replicated `cur_version`, falling back to
    /// the content source for files never updated since link. The primary
    /// is not involved at all.
    pub fn serve_read(&self, path: &str, uid: u32) -> Result<Vec<u8>, String> {
        if !self.has_token_entry(uid, path, self.clock.now_ms()) {
            return Err(format!("no valid token entry for uid {uid} on {path} at this replica"));
        }
        let entry = self
            .file_entry(path)
            .ok_or_else(|| format!("file {path} is not linked (as replicated)"))?;
        if let Some(v) = self.archive.get(path, entry.cur_version) {
            self.reads_served.fetch_add(1, Ordering::Relaxed);
            return Ok(v.data);
        }
        if let Some(src) = &self.fallback {
            if let Some(data) = src(path) {
                self.reads_served.fetch_add(1, Ordering::Relaxed);
                return Ok(data);
            }
        }
        Err(format!("version {} of {path} not in the archive", entry.cur_version))
    }
}

impl std::ops::Deref for Standby {
    type Target = Follower;

    fn deref(&self) -> &Follower {
        &self.follower
    }
}

/// The shipping core shared by the daemon thread and synchronous callers.
struct ShipCore {
    feed: ReplicationFeed,
    standbys: Vec<Arc<Follower>>,
    /// Epoch this shipper was spawned under; carried on every range.
    epoch: u64,
    cursor: Mutex<Lsn>,
    stats: Arc<ReplStats>,
}

impl ShipCore {
    /// Ships everything durable past the cursor to every standby; the
    /// cursor only advances when *all* standbys applied (a lagging standby
    /// re-receives from its gap, never skips it). When the primary has
    /// truncated the log below the cursor, falls back to checkpoint
    /// shipping: install the latest image on every standby behind it, move
    /// the cursor to the image's base, and resume framing from there —
    /// delta catch-up instead of full-history replay.
    fn ship_once(&self) -> Result<usize, ReplError> {
        self.ship_from(&mut self.cursor.lock())
    }

    /// [`ShipCore::ship_once`] for a caller that already holds the cursor
    /// lock — a round holds it from its first read to its last counter.
    fn ship_from(&self, cursor: &mut Lsn) -> Result<usize, ReplError> {
        let frames = match self.feed.reader().read_from(*cursor) {
            Ok(frames) => frames,
            Err(DbError::TruncatedLog { base }) => {
                let snap = self
                    .feed
                    .latest_checkpoint()
                    .map_err(|e| ReplError::Read(e.to_string()))?
                    .filter(|snap| snap.base_lsn >= base);
                // A truncated log always has a covering snapshot; `None`
                // only happens transiently while the primary is
                // mid-checkpoint — retry on the next round.
                let Some(snap) = snap else { return Ok(0) };
                let mut installed = 0u64;
                for standby in &self.standbys {
                    if standby.install_checkpoint(self.epoch, &snap)? {
                        installed += 1;
                    }
                }
                *cursor = snap.base_lsn;
                self.stats.checkpoints_shipped.fetch_add(installed, Ordering::Relaxed);
                return Ok(0);
            }
            Err(e) => return Err(ReplError::Read(e.to_string())),
        };
        if frames.is_empty() {
            return Ok(0);
        }
        for standby in &self.standbys {
            standby.apply(self.epoch, &frames)?;
        }
        *cursor = frames.end;
        self.stats.batches_shipped.fetch_add(1, Ordering::Relaxed);
        self.stats.records_shipped.fetch_add(frames.records.len() as u64, Ordering::Relaxed);
        self.stats.bytes_shipped.fetch_add(frames.bytes.len() as u64, Ordering::Relaxed);
        Ok(frames.records.len())
    }

    fn cursor(&self) -> Lsn {
        *self.cursor.lock()
    }
}

/// How long the shipper waits for the durable watermark to grow before it
/// flushes the primary's unforced log tail itself.
const SHIP_POLL: Duration = Duration::from_millis(20);

/// The shipping daemon: wakes on the primary's durable watermark (fed by
/// the group-commit leader after each batch sync) and continuously applies
/// to the standbys. When the watermark sits still for one poll (20 ms) it
/// flushes the primary's log, so records appended unforced ship too.
/// [`Replicator::stop`] wakes it wherever it waits, so stopping an idle
/// daemon costs no poll.
pub struct Replicator {
    core: Arc<ShipCore>,
    stop: Arc<AtomicBool>,
    paused: Arc<AtomicBool>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Replicator {
    /// Spawns the daemon under `epoch` (the fence's current one) feeding
    /// `standbys`: bare followers, or [`Standby::follower`]s.
    pub fn spawn(
        name: &str,
        feed: ReplicationFeed,
        standbys: Vec<Arc<Follower>>,
        epoch: u64,
        stats: Arc<ReplStats>,
    ) -> Replicator {
        let start = standbys.iter().map(|s| s.applied_lsn()).min().unwrap_or(0);
        let core = Arc::new(ShipCore { feed, standbys, epoch, cursor: Mutex::new(start), stats });
        let stop = Arc::new(AtomicBool::new(false));
        let paused = Arc::new(AtomicBool::new(false));
        let worker_core = Arc::clone(&core);
        let worker_stop = Arc::clone(&stop);
        let worker_paused = Arc::clone(&paused);
        let handle = std::thread::Builder::new()
            .name(format!("dlfm-repl-{name}"))
            .spawn(move || loop {
                if worker_stop.load(Ordering::SeqCst) {
                    break;
                }
                if worker_paused.load(Ordering::SeqCst) {
                    std::thread::park_timeout(Duration::from_millis(5));
                    continue;
                }
                let seen = worker_core.cursor();
                let durable = worker_core.feed.reader().wait_past(seen, SHIP_POLL, &worker_stop);
                if worker_paused.load(Ordering::SeqCst) || worker_stop.load(Ordering::SeqCst) {
                    continue;
                }
                if durable <= seen {
                    // Nothing forced came by for a whole poll: whatever the
                    // primary appended unforced since (a close record, a
                    // branch's end, a flag clear) is waiting for a flush
                    // nobody else will lead.
                    // This bounds a standby's staleness at one poll of
                    // primary idleness without a timer thread of its own.
                    let _ = worker_core.feed.flush();
                }
                let shipped = {
                    // `set_paused(true)` passes through this lock before it
                    // returns, so a round either finished before the pause
                    // took effect or sees it here and never starts.
                    let mut cursor = worker_core.cursor.lock();
                    if worker_paused.load(Ordering::SeqCst) {
                        continue;
                    }
                    worker_core.ship_from(&mut cursor)
                };
                match shipped {
                    Ok(_) => {}
                    // A fenced shipper belongs to a deposed primary: stop.
                    Err(ReplError::StaleEpoch { .. }) => break,
                    // Apply/read errors: the standby refused (gap after a
                    // restart) — retry on the next wakeup rather than spin.
                    Err(_) => std::thread::park_timeout(Duration::from_millis(5)),
                }
            })
            .expect("spawn replication shipper");
        Replicator { core, stop, paused, handle: Mutex::new(Some(handle)) }
    }

    /// Synchronously ships everything durable (tests, catch-up waits).
    pub fn ship_once(&self) -> Result<usize, ReplError> {
        self.core.ship_once()
    }

    /// Pauses or resumes the background daemon. An operator drain hook
    /// (OPERATIONS.md) and the deterministic way tests/experiments create
    /// a staleness window; synchronous [`Replicator::ship_once`] calls
    /// still work while paused. When `set_paused(true)` returns the daemon
    /// is parked: a ship round that was in flight has finished, and the
    /// daemon re-checks the flag under the cursor lock it ships under, so
    /// no follower's applied watermark moves on its account until resumed.
    pub fn set_paused(&self, paused: bool) {
        self.paused.store(paused, Ordering::SeqCst);
        if paused {
            drop(self.core.cursor.lock());
        }
    }

    /// Primary durable watermark minus the slowest standby's applied
    /// watermark, in bytes.
    pub fn lag(&self) -> u64 {
        let durable = self.core.feed.reader().durable_lsn();
        let applied = self.core.standbys.iter().map(|s| s.applied_lsn()).min().unwrap_or(durable);
        durable.saturating_sub(applied)
    }

    /// Drives shipping until the standbys hold the primary's *whole* log
    /// tail — unforced records included, which are flushed first — or
    /// `timeout` elapses.
    pub fn wait_caught_up(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            // "Caught up" compares against the durable watermark, so put
            // the unforced tail under it first (a failed flush retries on
            // the next round, like a failed ship).
            let flushed = self.core.feed.flush().is_ok();
            if flushed && self.lag() == 0 {
                break;
            }
            if self.ship_once().is_err() || Instant::now() >= deadline {
                if !flushed || self.lag() != 0 {
                    return false;
                }
                break;
            }
        }
        // Drained — but the round that drained it may still be in flight
        // on the daemon thread: a standby's applied watermark advances
        // inside `apply`, *before* `ship_once` publishes its ReplStats
        // counters. Taking the cursor lock (held for the whole of
        // `ship_once`) fences that window, so a caller reading stats
        // right after a successful wait sees the totals for everything
        // applied. (The a11 full-replay arm flaked exactly here: caught
        // up with `records_shipped() == 0`.)
        drop(self.core.cursor.lock());
        // Caught up also means *bounded*: each standby truncates its log
        // on its own snapshotter thread after a shipped checkpoint, so
        // wait for those to go idle before callers assert on retained
        // bytes.
        for standby in &self.core.standbys {
            let now = Instant::now();
            if now >= deadline || !standby.wait_snapshot_idle(deadline - now) {
                return false;
            }
        }
        true
    }

    /// Signals the daemon to stop, wakes it — from its wait for the
    /// watermark or its paused nap — and joins it. Idempotent.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.core.feed.reader().wake();
        if let Some(handle) = self.handle.lock().take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

impl Drop for Replicator {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Options for provisioning a DLFM repository's replica set.
pub struct ReplicaSetOptions {
    /// Number of hot standbys to provision.
    pub replicas: usize,
    /// DLFM server name (token verification scope, standby naming).
    pub server_name: String,
    /// Shared HMAC token secret (matches the server's `DlfmConfig`).
    pub token_key: Vec<u8>,
    /// Clock for token expiry checks.
    pub clock: Arc<dyn Clock>,
    /// Content fallback for linked-but-never-updated files (no archived
    /// version exists yet).
    pub fallback: Option<ContentSource>,
}

/// A primary's hot standbys plus their shipping daemon. `S` is what the
/// set is made of: [`Standby`] for a DLFM repository (the default — such a
/// set is also the round-robin read router), bare [`Follower`]s for the
/// host database, the coordinator half of "no single node loss stops
/// traffic". There the fence epoch doubles as the **coordinator
/// generation**: promotion bumps it, every DLFM node is told the new
/// generation, and 2PC traffic from agent connections minted under an older
/// generation is refused (the zombie-coordinator guard).
pub struct ReplicaSet<S = Standby> {
    standbys: Vec<Arc<S>>,
    replicator: Replicator,
    fence: Arc<EpochFence>,
    stats: Arc<ReplStats>,
    next: AtomicUsize,
}

impl ReplicaSet<Standby> {
    /// Provisions `opts.replicas` fresh standbys fed from `feed`, reading
    /// the primary's `archive`, and spawns the shipper. A fresh standby
    /// catches up by delta when the primary's log is truncated (checkpoint
    /// install + WAL suffix) and by full-log replay otherwise.
    pub fn build(
        feed: ReplicationFeed,
        archive: Arc<ArchiveStore>,
        opts: ReplicaSetOptions,
    ) -> Result<Self, String> {
        Self::provision(&opts.server_name, feed, opts.replicas, 0, |follower| {
            let session_env = StorageEnv::mem_with_sync_latency(follower.env().sync_latency_ns());
            Standby::new(
                follower,
                Arc::clone(&archive),
                session_env,
                opts.server_name.clone(),
                opts.token_key.clone(),
                Arc::clone(&opts.clock),
                opts.fallback.clone(),
            )
            .map(Arc::new)
        })
    }

    /// Round-robin pick for read routing.
    pub fn pick(&self) -> &Arc<Standby> {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.standbys.len();
        &self.standbys[i]
    }
}

impl ReplicaSet<Follower> {
    /// Provisions `replicas` fresh bare followers `<name>#<i>` fed from
    /// `feed` — the host database's set — and spawns the shipper under
    /// `epoch`, the initial
    /// fence epoch: 0 for a first provisioning; a set rebuilt after
    /// `fail_over_host` passes the promoted coordinator generation so a
    /// later failover still out-ranks this one.
    pub fn build(
        name: &str,
        feed: ReplicationFeed,
        replicas: usize,
        epoch: u64,
    ) -> Result<Self, String> {
        Self::provision(name, feed, replicas, epoch, Ok)
    }
}

impl<S> ReplicaSet<S> {
    /// Opens the followers (in memory, syncing and configured like the
    /// primary), wraps each into the set's member type and spawns the one
    /// shipper that feeds them.
    fn provision(
        name: &str,
        feed: ReplicationFeed,
        replicas: usize,
        epoch: u64,
        member: impl Fn(Arc<Follower>) -> Result<Arc<S>, String>,
    ) -> Result<Self, String> {
        assert!(replicas > 0, "a replica set needs at least one standby");
        let fence = Arc::new(EpochFence::at(epoch));
        let stats = Arc::new(ReplStats::default());
        let (opts, latency) = (feed.db_options(), feed.db().env().sync_latency_ns());
        let followers = (0..replicas)
            .map(|i| {
                let env = StorageEnv::mem_with_sync_latency(latency);
                let (fence, stats) = (Arc::clone(&fence), Arc::clone(&stats));
                Follower::new(format!("{name}#{i}"), env, opts, fence, stats).map(Arc::new)
            })
            .collect::<Result<Vec<_>, String>>()?;
        let standbys = followers.iter().cloned().map(member).collect::<Result<Vec<_>, String>>()?;
        let replicator = Replicator::spawn(name, feed, followers, epoch, Arc::clone(&stats));
        Ok(ReplicaSet { standbys, replicator, fence, stats, next: AtomicUsize::new(0) })
    }

    /// The set's standbys, in provisioning order.
    pub fn standbys(&self) -> &[Arc<S>] {
        &self.standbys
    }

    /// Primary durable watermark minus the slowest standby's applied
    /// watermark, in bytes.
    pub fn lag(&self) -> u64 {
        self.replicator.lag()
    }

    /// Drives shipping until the lag drains to zero or `timeout` elapses.
    pub fn wait_caught_up(&self, timeout: Duration) -> bool {
        self.replicator.wait_caught_up(timeout)
    }

    /// Synchronous ship (tests; also how a fenced shipper's rejection is
    /// observed deterministically).
    pub fn ship_once(&self) -> Result<usize, ReplError> {
        self.replicator.ship_once()
    }

    /// Pauses or resumes the background shipper (operator drain hook, and
    /// the deterministic way to hold back a standby — e.g. to stage a
    /// decision logged on the host but not yet shipped; see
    /// [`Replicator::set_paused`]).
    pub fn set_paused(&self, paused: bool) {
        self.replicator.set_paused(paused);
    }

    /// Shipping and rejection counters.
    pub fn stats(&self) -> &Arc<ReplStats> {
        &self.stats
    }

    /// Deepest snapshotter backlog across this set's standbys (each 0–2).
    pub fn snapshot_queue_depth(&self) -> usize {
        let followers = &self.replicator.core.standbys;
        followers.iter().map(|s| s.snapshot_queue_depth()).max().unwrap_or(0)
    }

    /// The failover fence shared by this set's standbys.
    pub fn fence(&self) -> &Arc<EpochFence> {
        &self.fence
    }

    /// Fences the set for failover: bumps the epoch — every in-flight or
    /// future frame from the current shipper is now stale — and joins the
    /// shipping daemon (woken, not waited out) so no apply races the
    /// promotion that follows. Returns the new epoch.
    pub fn freeze(&self) -> u64 {
        let epoch = self.fence.bump();
        self.replicator.stop();
        epoch
    }

    /// The standby a failover promotes in place (the first; round-robin
    /// state does not affect durability, any standby is equally promotable
    /// after the fence).
    pub fn promote_target(&self) -> &Arc<S> {
        &self.standbys[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_fskit::SimClock;

    fn repo_like_db(env: &StorageEnv) -> Database {
        let db = Database::open(env.clone()).unwrap();
        db.create_table(
            Schema::new(
                "dl_files",
                vec![
                    Column::new("path", ColumnType::Text),
                    Column::new("mode", ColumnType::Text),
                    Column::new("recovery", ColumnType::Bool),
                    Column::new("on_unlink", ColumnType::Text),
                    Column::new("cur_version", ColumnType::Int),
                    Column::new("orig_uid", ColumnType::Int),
                    Column::new("orig_gid", ColumnType::Int),
                    Column::new("orig_mode", ColumnType::Int),
                    Column::new("ino", ColumnType::Int),
                    Column::new("state_id", ColumnType::Int),
                    Column::new("needs_archive", ColumnType::Bool),
                ],
                "path",
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    fn file_row(path: &str, version: i64) -> Vec<Value> {
        vec![
            Value::Text(path.to_string()),
            Value::Text("rdd".to_string()),
            Value::Bool(true),
            Value::Text("restore".to_string()),
            Value::Int(version),
            Value::Int(100),
            Value::Int(100),
            Value::Int(0o644),
            Value::Int(1),
            Value::Int(0),
            Value::Bool(false),
        ]
    }

    fn standby_for(db: &Database, name: &str) -> (Arc<Standby>, Arc<EpochFence>, Arc<ReplStats>) {
        let fence = Arc::new(EpochFence::new());
        let stats = Arc::new(ReplStats::default());
        let follower = Follower::new(
            name.to_string(),
            StorageEnv::mem(),
            db.replication_feed().db_options(),
            Arc::clone(&fence),
            Arc::clone(&stats),
        );
        let standby = Arc::new(
            Standby::new(
                Arc::new(follower.unwrap()),
                Arc::new(ArchiveStore::new()),
                StorageEnv::mem(),
                "srv1".to_string(),
                b"dlfm-key-srv1".to_vec(),
                Arc::new(SimClock::new(1_000)),
                None,
            )
            .unwrap(),
        );
        (standby, fence, stats)
    }

    #[test]
    fn replicator_ships_and_standby_serves_file_entries() {
        let env = StorageEnv::mem();
        let db = repo_like_db(&env);
        let (standby, _fence, stats) = standby_for(&db, "srv1#0");
        let repl = Replicator::spawn(
            "srv1",
            db.replication_feed(),
            vec![Arc::clone(standby.follower())],
            0,
            Arc::clone(&stats),
        );

        let mut tx = db.begin();
        tx.insert("dl_files", file_row("/f", 3)).unwrap();
        tx.commit().unwrap();

        assert!(repl.wait_caught_up(Duration::from_secs(5)));
        assert_eq!(repl.lag(), 0);
        let entry = standby.file_entry("/f").expect("replicated entry");
        assert_eq!(entry.cur_version, 3);
        assert!(stats.batches_shipped.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn fence_bump_rejects_stale_shipper() {
        let env = StorageEnv::mem();
        let db = repo_like_db(&env);
        let (standby, fence, stats) = standby_for(&db, "srv1#0");
        let repl = Replicator::spawn(
            "srv1",
            db.replication_feed(),
            vec![Arc::clone(standby.follower())],
            fence.current(),
            Arc::clone(&stats),
        );
        assert!(repl.wait_caught_up(Duration::from_secs(5)));
        let applied_before = standby.applied_lsn();

        // Failover elsewhere: the fence moves on, this shipper is stale.
        fence.bump();
        let mut tx = db.begin();
        tx.insert("dl_files", file_row("/late", 1)).unwrap();
        tx.commit().unwrap();

        let err = repl.ship_once().unwrap_err();
        assert!(matches!(err, ReplError::StaleEpoch { shipped: 0, fence: 1 }));
        // The background daemon may have been rejected too before our
        // synchronous attempt; at least one rejection is recorded.
        assert!(stats.stale_rejections() >= 1);
        assert_eq!(standby.applied_lsn(), applied_before, "rejected frames are not applied");
        assert!(standby.file_entry("/late").is_none());
    }

    #[test]
    fn replica_validates_tokens_and_serves_archived_bytes() {
        let env = StorageEnv::mem();
        let db = repo_like_db(&env);
        let clock = Arc::new(SimClock::new(1_000));
        let fence = Arc::new(EpochFence::new());
        let stats = Arc::new(ReplStats::default());
        let follower = Follower::new(
            "srv1#0".into(),
            StorageEnv::mem(),
            DbOptions::default(),
            Arc::clone(&fence),
            Arc::clone(&stats),
        );
        let archive = Arc::new(ArchiveStore::new());
        let standby = Arc::new(
            Standby::new(
                Arc::new(follower.unwrap()),
                Arc::clone(&archive),
                StorageEnv::mem(),
                "srv1".into(),
                b"key".to_vec(),
                clock.clone(),
                None,
            )
            .unwrap(),
        );
        let repl = Replicator::spawn(
            "srv1",
            db.replication_feed(),
            vec![Arc::clone(standby.follower())],
            0,
            stats,
        );

        let mut tx = db.begin();
        tx.insert("dl_files", file_row("/movies/clip.mpg", 2)).unwrap();
        tx.commit().unwrap();
        assert!(repl.wait_caught_up(Duration::from_secs(5)));
        // The primary archives version 2 into the node's store.
        archive.put(archive.take_generation(), "/movies/clip.mpg", 2, 9, b"v2 bytes".to_vec());

        // No token entry yet: the read is refused.
        assert!(standby.serve_read("/movies/clip.mpg", 42).is_err());

        let token =
            AccessToken::generate(b"key", "srv1", "/movies/clip.mpg", TokenKind::Read, 60_000);
        let kind = standby.validate_read_token("/movies/clip.mpg", &token.encode(), 42).unwrap();
        assert_eq!(kind, TokenKind::Read);
        assert_eq!(standby.serve_read("/movies/clip.mpg", 42).unwrap(), b"v2 bytes");
        // Another uid did not validate here: refused (userid-keyed, §4.1).
        assert!(standby.serve_read("/movies/clip.mpg", 43).is_err());

        // A garbage token is refused outright.
        assert!(standby.validate_read_token("/movies/clip.mpg", "nonsense", 42).is_err());
        // A token for the wrong path fails verification.
        let wrong = AccessToken::generate(b"key", "srv1", "/other", TokenKind::Read, 60_000);
        assert!(standby.validate_read_token("/movies/clip.mpg", &wrong.encode(), 42).is_err());
    }

    #[test]
    fn truncated_primary_ships_checkpoint_to_fresh_standby() {
        let env = StorageEnv::mem();
        let db = repo_like_db(&env);
        for i in 0..20i64 {
            let mut tx = db.begin();
            tx.insert("dl_files", file_row(&format!("/f{i}"), 1)).unwrap();
            tx.commit().unwrap();
        }
        db.checkpoint_and_truncate().unwrap();
        assert!(db.wal_base_lsn() > 0);

        // A fresh standby's cursor (0) is below the primary's base: the
        // shipper must install the checkpoint image, then tail the suffix.
        let (standby, _fence, stats) = standby_for(&db, "srv1#0");
        let repl = Replicator::spawn(
            "srv1",
            db.replication_feed(),
            vec![Arc::clone(standby.follower())],
            0,
            Arc::clone(&stats),
        );
        assert!(repl.wait_caught_up(Duration::from_secs(5)));
        assert_eq!(stats.checkpoints_shipped(), 1, "delta catch-up used the image once");
        assert!(standby.file_entry("/f0").is_some());
        assert!(standby.file_entry("/f19").is_some());
        assert_eq!(
            standby.wal_retained_bytes(),
            db.wal_retained_bytes(),
            "standby log is the same bounded suffix as the primary's"
        );

        // Subsequent commits ship as ordinary frames.
        let mut tx = db.begin();
        tx.insert("dl_files", file_row("/after", 1)).unwrap();
        tx.commit().unwrap();
        assert!(repl.wait_caught_up(Duration::from_secs(5)));
        assert!(standby.file_entry("/after").is_some());
        assert_eq!(stats.checkpoints_shipped(), 1, "no further installs needed");
    }

    #[test]
    fn paused_shipper_holds_lag_until_resumed() {
        let env = StorageEnv::mem();
        let db = repo_like_db(&env);
        let set = ReplicaSet::<Standby>::build(
            db.replication_feed(),
            Arc::new(ArchiveStore::new()),
            ReplicaSetOptions {
                replicas: 1,
                server_name: "srv1".into(),
                token_key: b"key".to_vec(),
                clock: Arc::new(SimClock::new(1_000)),
                fallback: None,
            },
        )
        .unwrap();
        assert!(set.wait_caught_up(Duration::from_secs(5)));
        let standby = &set.standbys()[0];
        set.set_paused(true);
        // Parked means parked *now*: the commit right behind the pause is
        // never shipped, wherever in its loop the daemon was.
        let applied = standby.applied_lsn();
        let mut tx = db.begin();
        tx.insert("dl_files", file_row("/held", 1)).unwrap();
        tx.commit().unwrap();
        // The daemon is parked: the lag stays.
        let watch_until = Instant::now() + Duration::from_millis(50);
        while Instant::now() < watch_until {
            assert_eq!(standby.applied_lsn(), applied, "a paused shipper shipped");
            std::thread::yield_now();
        }
        assert!(set.lag() > 0, "paused shipper must not drain the lag");
        assert!(standby.file_entry("/held").is_none());
        set.set_paused(false);
        assert!(set.wait_caught_up(Duration::from_secs(5)));
        assert!(standby.file_entry("/held").is_some());

        // The same under a stream of commits, so every pause lands while a
        // ship round is in flight: once `set_paused(true)` has returned that
        // round is over, and nothing moves until the resume.
        let stop = AtomicBool::new(false);
        let mut shipped_while_paused = 0;
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..100_000 {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let mut tx = db.begin();
                    tx.insert("dl_files", file_row(&format!("/stream{i}"), 1)).unwrap();
                    tx.commit().unwrap();
                }
            });
            for _ in 0..20 {
                // Long enough for the daemon to leave its paused nap (5 ms)
                // and be shipping the stream again.
                std::thread::sleep(Duration::from_millis(6));
                set.set_paused(true);
                let applied = standby.applied_lsn();
                std::thread::sleep(Duration::from_millis(3));
                shipped_while_paused += u32::from(standby.applied_lsn() != applied);
                set.set_paused(false);
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(shipped_while_paused, 0, "of 20 pauses under a commit stream");
        assert!(set.wait_caught_up(Duration::from_secs(5)));
    }

    #[test]
    fn replica_set_round_robins_and_catches_up() {
        let env = StorageEnv::mem();
        let db = repo_like_db(&env);
        let set = ReplicaSet::<Standby>::build(
            db.replication_feed(),
            Arc::new(ArchiveStore::new()),
            ReplicaSetOptions {
                replicas: 3,
                server_name: "srv1".into(),
                token_key: b"key".to_vec(),
                clock: Arc::new(SimClock::new(1_000)),
                fallback: None,
            },
        )
        .unwrap();

        let mut tx = db.begin();
        tx.insert("dl_files", file_row("/f", 1)).unwrap();
        tx.commit().unwrap();
        assert!(set.wait_caught_up(Duration::from_secs(5)));
        for s in set.standbys() {
            assert!(s.file_entry("/f").is_some(), "every standby applied");
        }

        // Round-robin covers all standbys.
        let names: Vec<String> = (0..3).map(|_| set.pick().name.clone()).collect();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 3, "picker rotates: {names:?}");
    }

    #[test]
    fn freeze_is_idempotent_and_promotable() {
        let env = StorageEnv::mem();
        let db = repo_like_db(&env);
        let set = ReplicaSet::<Standby>::build(
            db.replication_feed(),
            Arc::new(ArchiveStore::new()),
            ReplicaSetOptions {
                replicas: 1,
                server_name: "srv1".into(),
                token_key: b"key".to_vec(),
                clock: Arc::new(SimClock::new(1_000)),
                fallback: None,
            },
        )
        .unwrap();
        let mut tx = db.begin();
        tx.insert("dl_files", file_row("/f", 1)).unwrap();
        tx.commit().unwrap();
        assert!(set.wait_caught_up(Duration::from_secs(5)));

        let epoch = set.freeze();
        assert_eq!(epoch, 1);
        // Post-fence shipping is rejected, not applied.
        let mut tx = db.begin();
        tx.insert("dl_files", file_row("/post-fence", 1)).unwrap();
        tx.commit().unwrap();
        assert!(matches!(set.ship_once(), Err(ReplError::StaleEpoch { .. })));

        // The promote target becomes the primary in place, with the
        // pre-fence state only.
        let promoted = set.promote_target();
        promoted.promote().unwrap();
        assert!(promoted.get_committed("dl_files", &Value::Text("/f".into())).unwrap().is_some());
        assert!(promoted
            .get_committed("dl_files", &Value::Text("/post-fence".into()))
            .unwrap()
            .is_none());
    }

    #[test]
    fn freezing_an_idle_set_wakes_the_shipper_instead_of_waiting_out_its_poll() {
        let env = StorageEnv::mem();
        let db = repo_like_db(&env);
        let mut took: Vec<Duration> = (0..10)
            .map(|_| {
                let set =
                    ReplicaSet::<Follower>::build("host", db.replication_feed(), 1, 0).unwrap();
                assert!(set.wait_caught_up(Duration::from_secs(5)));
                // Idle: the daemon is parked in its wait for the watermark.
                std::thread::sleep(Duration::from_millis(3));
                let started = Instant::now();
                set.freeze();
                started.elapsed()
            })
            .collect();
        took.sort();
        assert!(took[5] < SHIP_POLL / 2, "median freeze {:?} of {took:?}", took[5]);
    }
}
