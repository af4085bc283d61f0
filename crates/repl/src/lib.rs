//! WAL-shipping replication for DLFM nodes.
//!
//! The paper's file server is a single point of failure: every token
//! validation and open upcall funnels into one DLFM repository, and a
//! crash is a full outage until recovery replays. This crate turns the
//! group-commit WAL (`dl_minidb::WalReader`) into a replication feed:
//!
//! * a [`ReplicaSet`]'s shipper — a step that a `dl_minidb::daemon::Daemon`
//!   runs — tails a primary's log and ships every durable frame range to
//!   one or more [`Follower`]s — the one thing it feeds: a
//!   `dl_minidb::Database` in follower mode (physical replication, its log
//!   a byte prefix of the primary's at all times) behind an epoch fence;
//! * the ship protocol carries an **epoch** number checked against a
//!   shared [`EpochFence`]: promotion bumps the fence, so a stale
//!   primary's shipper — one that missed the failover — has every
//!   subsequent frame rejected instead of silently diverging a follower;
//! * a [`Standby`] is a follower of a DLFM *repository* read through the
//!   primary's own [`Repository`] type, plus the node's live-bytes source.
//!   Committed file bytes do not travel at all — the node has one
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
//! A replica runs the primary's two read-side functions. Token admission
//! ([`Repository::admit_token`]) checks the token *cryptographically* (same
//! HMAC secret the engine mints with) and records the token entry in the
//! replica's own in-memory `dl_dlfm::OpenTable` (a follower writes nothing
//! locally), which the replica's promotion hands to the promoted server.
//! The committed read ([`Repository::read_committed`]) serves the node's
//! archive store at the file's replicated `cur_version`. The DataLinks
//! engine serializes validation per node — primary or replica — through a
//! single lane, modelling the paper's one-upcall-daemon-per-node
//! prototype: a replica is one node's worth of validation capacity, and
//! fan-out across replicas is where throughput scaling comes from
//! (experiment a10).
//!
//! ## Checkpoint shipping
//!
//! A primary that truncated its log below the shipper's cursor has the
//! shipper install its latest checkpoint image from the
//! [`ReplicationFeed`] and tail only the suffix (*delta catch-up*), and a
//! shipped `Checkpoint` record bounds each standby's log in lockstep
//! (`tests/replication.rs` gates both by counts; OPERATIONS.md §3 is the
//! operator runbook).

#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dl_dlfm::{ArchiveStore, ContentSource, Repository, TokenKey, TokenKind};
use dl_fskit::Clock;
use dl_minidb::daemon::{Daemon, Next, OnStop};
use dl_minidb::{Database, DbError, Lsn, ReplicationFeed, ShippedFrames, SnapshotData, StorageEnv};
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
/// `wal_retained_bytes`, `snapshotter`, `snapshot_queue_depth`, the
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

/// One hot standby of a DLFM repository: a [`Follower`] of the repository
/// database (reached by deref — `name`, `applied_lsn`, `env`, …) plus what
/// makes it a read replica — the [`Repository`] over that follower, which
/// admits tokens and serves committed reads with the primary's own code.
pub struct Standby {
    follower: Arc<Follower>,
    /// The replicated repository. Its token entries are in its own open
    /// table: they ship nowhere, and a promotion hands them over.
    repo: Repository,
    /// The node's one archive store, the primary's.
    archive: Arc<ArchiveStore>,
    /// The set's options: the server name and secret tokens are verified
    /// under, the clock they expire by, and the node's live-bytes source
    /// for linked-but-never-updated files, which have no archived version
    /// yet (the primary captures the before-image on the first write open).
    opts: Arc<ReplicaSetOptions>,
    /// Read tokens validated at this replica.
    pub validations: AtomicU64,
}

impl Standby {
    /// The replicated repository, as of the applied watermark.
    pub fn repository(&self) -> &Repository {
        &self.repo
    }

    /// The archive store reads are served from: the primary's.
    pub fn archive_store(&self) -> &Arc<ArchiveStore> {
        &self.archive
    }

    /// Validates a read token exactly as the primary's upcall path does
    /// ([`Repository::admit_token`]: MAC + expiry against the shared
    /// per-server secret) and records the token entry in this replica's
    /// repository.
    pub fn validate_read_token(
        &self,
        path: &str,
        token: &str,
        uid: u32,
    ) -> Result<TokenKind, String> {
        let (key, server, now) =
            (&self.opts.token_key, &self.opts.server_name, self.opts.clock.now_ms());
        let kind = self.repo.admit_token(key, server, path, token, uid, now)?;
        self.validations.fetch_add(1, Ordering::Relaxed);
        Ok(kind)
    }

    /// Serves the last committed bytes of `path` to a user validated here
    /// by the primary's committed read ([`Repository::read_committed`]):
    /// the archived version at the replicated `cur_version`, else the live
    /// bytes. The primary is not involved at all.
    pub fn serve_read(&self, path: &str, uid: u32) -> Result<Vec<u8>, String> {
        if !self.repo.check_token_entry(uid, path, TokenKind::Read, self.opts.clock.now_ms()) {
            return Err(format!("no valid token entry for uid {uid} on {path} at this replica"));
        }
        self.repo.read_committed(path, &self.archive, self.opts.fallback.as_ref())
    }
}

impl std::ops::Deref for Standby {
    type Target = Follower;

    fn deref(&self) -> &Follower {
        &self.follower
    }
}

/// How long the shipper waits for the durable watermark to grow before it
/// flushes the primary's unforced log tail itself.
const SHIP_POLL: Duration = Duration::from_millis(20);

/// How long the shipper waits before it retries a round a standby refused.
const SHIP_RETRY: Duration = Duration::from_millis(5);

/// A replica set's shipper: the step its daemon runs, and what the set's
/// synchronous calls ship with.
struct Ship {
    feed: ReplicationFeed,
    followers: Vec<Arc<Follower>>,
    fence: Arc<EpochFence>,
    /// Epoch this shipper was built under; carried on every range.
    epoch: u64,
    stats: Arc<ReplStats>,
    /// Held by a round from its first read to its last counter.
    state: Mutex<ShipState>,
}

struct ShipState {
    cursor: Lsn,
    paused: bool,
    /// When the idle flush is due: one poll after the last round.
    poll_at: Instant,
}

impl Ship {
    /// A shipper feeding `followers` from their slowest one's position.
    fn new(
        feed: ReplicationFeed,
        followers: Vec<Arc<Follower>>,
        fence: Arc<EpochFence>,
        epoch: u64,
        stats: Arc<ReplStats>,
    ) -> Ship {
        let cursor = followers.iter().map(|f| f.applied_lsn()).min().unwrap_or(0);
        let state = ShipState { cursor, paused: false, poll_at: Instant::now() + SHIP_POLL };
        Ship { feed, followers, fence, epoch, stats, state: Mutex::new(state) }
    }

    /// Ships everything durable past the cursor to every standby; the
    /// cursor only advances when *all* standbys applied (a lagging standby
    /// re-receives from its gap, never skips it). When the primary has
    /// truncated the log below the cursor, falls back to checkpoint
    /// shipping: install the latest image on every standby behind it, move
    /// the cursor to the image's base, and resume framing from there —
    /// delta catch-up instead of full-history replay.
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
                for follower in &self.followers {
                    if follower.install_checkpoint(self.epoch, &snap)? {
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
        for follower in &self.followers {
            follower.apply(self.epoch, &frames)?;
        }
        *cursor = frames.end;
        self.stats.batches_shipped.fetch_add(1, Ordering::Relaxed);
        self.stats.records_shipped.fetch_add(frames.records.len() as u64, Ordering::Relaxed);
        self.stats.bytes_shipped.fetch_add(frames.bytes.len() as u64, Ordering::Relaxed);
        Ok(frames.records.len())
    }

    /// The shipper's step: ships what the durable watermark grew by (the
    /// log kicks the daemon after each batch sync). When the watermark has
    /// sat still for a whole poll it flushes the primary first — what was
    /// appended unforced since (a close record, a branch's end, a flag
    /// clear) waits for a flush nobody else will lead — which bounds a
    /// standby's staleness at one poll of primary idleness. Paused or
    /// fenced (a deposed primary's shipper), it idles.
    fn step(&self, now: Instant) -> Next {
        let mut state = self.state.lock();
        if state.paused || self.fence.current() != self.epoch {
            return Next::Idle;
        }
        if self.feed.reader().durable_lsn() <= state.cursor {
            if now < state.poll_at {
                return Next::At(state.poll_at);
            }
            let _ = self.feed.db().flush();
        }
        let shipped = self.ship_from(&mut state.cursor);
        state.poll_at = now + SHIP_POLL;
        match shipped {
            Ok(_) => Next::At(state.poll_at),
            Err(ReplError::StaleEpoch { .. }) => Next::Idle,
            // The standby refused (gap after a restart): retry shortly
            // rather than spin.
            Err(_) => Next::At(now + SHIP_RETRY),
        }
    }
}

/// Options for provisioning a DLFM repository's replica set.
pub struct ReplicaSetOptions {
    /// Number of hot standbys to provision.
    pub replicas: usize,
    /// DLFM server name (token verification scope, standby naming).
    pub server_name: String,
    /// Shared HMAC token secret (matches the server's `DlfmConfig`), ready
    /// to verify with.
    pub token_key: TokenKey,
    /// Clock for token expiry checks.
    pub clock: Arc<dyn Clock>,
    /// Content fallback for linked-but-never-updated files (no archived
    /// version exists yet).
    pub fallback: Option<ContentSource>,
}

/// A primary's hot standbys plus their shipper, a daemon of its own. `S`
/// is what the set is made of: [`Standby`] for a DLFM repository (the
/// default — such a set is also the round-robin read router), bare
/// [`Follower`]s for the host database, the coordinator half of "no single
/// node loss stops traffic". There the fence epoch doubles as the
/// **coordinator generation**: promotion bumps it, every DLFM node is told
/// the new generation, and 2PC traffic from agent connections minted under
/// an older generation is refused (the zombie-coordinator guard).
pub struct ReplicaSet<S = Standby> {
    standbys: Vec<Arc<S>>,
    ship: Arc<Ship>,
    /// Steps `ship`; a drop stops it without a flush of the primary.
    shipper: Arc<Daemon>,
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
        let opts = Arc::new(opts);
        Self::provision(&opts.server_name, feed, opts.replicas, 0, |follower| {
            Arc::new(Standby {
                repo: Repository::over(Database::clone(&follower)),
                follower,
                archive: Arc::clone(&archive),
                opts: Arc::clone(&opts),
                validations: AtomicU64::new(0),
            })
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
    /// `feed` — the host database's set — under the initial fence `epoch`:
    /// 0 for a first provisioning; a set rebuilt after `fail_over_host`
    /// passes the promoted coordinator generation so a later failover
    /// still out-ranks this one.
    pub fn build(
        name: &str,
        feed: ReplicationFeed,
        replicas: usize,
        epoch: u64,
    ) -> Result<Self, String> {
        Self::provision(name, feed, replicas, epoch, |follower| follower)
    }
}

impl<S> ReplicaSet<S> {
    /// Opens the followers `<name>#<i>` (in memory, syncing and configured
    /// like the primary: [`ReplicationFeed::db_options`]), wraps each into
    /// the set's member type, ships one round —
    /// so a standby holds the repository's schema before anyone can route
    /// a read to it — and spawns the shipper that feeds them from then on.
    fn provision(
        name: &str,
        feed: ReplicationFeed,
        replicas: usize,
        epoch: u64,
        member: impl Fn(Arc<Follower>) -> Arc<S>,
    ) -> Result<Self, String> {
        assert!(replicas > 0, "a replica set needs at least one standby");
        let fence = Arc::new(EpochFence::at(epoch));
        let stats = Arc::new(ReplStats::default());
        let (opts, latency) = (feed.db_options(), feed.db().env().sync_latency_ns());
        let followers = (0..replicas)
            .map(|i| {
                let env = StorageEnv::mem_with_sync_latency(latency);
                let (fence, stats) = (Arc::clone(&fence), Arc::clone(&stats));
                let db = Database::open_follower(env, opts).map_err(|e| e.to_string())?;
                Ok(Arc::new(Follower { name: format!("{name}#{i}"), db, fence, stats }))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let standbys = followers.iter().cloned().map(member).collect();
        let ship = Arc::new(Ship::new(feed, followers, fence, epoch, stats));
        ship.ship_from(&mut ship.state.lock().cursor).map_err(|e| e.to_string())?;
        let step = Arc::clone(&ship);
        let shipper =
            Daemon::spawn(&format!("dlfm-repl-{name}"), OnStop::Abandon, move |now| step.step(now))
                .map_err(|e| format!("spawn replication shipper: {e}"))?;
        let shipper = Arc::new(shipper);
        ship.feed.reader().kick_on_durable(&shipper);
        Ok(ReplicaSet { standbys, ship, shipper, next: AtomicUsize::new(0) })
    }

    /// The set's standbys, in provisioning order.
    pub fn standbys(&self) -> &[Arc<S>] {
        &self.standbys
    }

    /// Primary durable watermark minus the slowest standby's applied
    /// watermark, in bytes.
    pub fn lag(&self) -> u64 {
        let durable = self.ship.feed.reader().durable_lsn();
        let applied = self.ship.followers.iter().map(|f| f.applied_lsn()).min().unwrap_or(durable);
        durable.saturating_sub(applied)
    }

    /// Drives shipping until the standbys hold the primary's *whole* log
    /// tail — unforced records included, which are flushed first — and
    /// every standby's snapshotter is idle, or `timeout` elapses.
    pub fn wait_caught_up(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            // "Caught up" compares against the durable watermark, so put
            // the unforced tail under it first (a failed flush retries on
            // the next round, like a failed ship).
            let flushed = self.ship.feed.db().flush().is_ok();
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
        // on the shipper's thread, its standbys' watermarks moved and its
        // ReplStats counters not yet: taking the state lock (held for the
        // whole round) fences that window, so a caller reading stats next
        // sees the totals for everything applied.
        drop(self.ship.state.lock());
        // Caught up also means *bounded*: each standby truncates its log
        // on its snapshotter after a shipped checkpoint, so wait for those
        // to go idle before callers assert on retained bytes.
        self.ship.followers.iter().filter_map(|f| f.snapshotter()).all(|snapshotter| {
            let left = deadline.saturating_duration_since(Instant::now());
            !left.is_zero() && snapshotter.wait_idle(left)
        })
    }

    /// Synchronous ship (tests; also how a fenced shipper's rejection is
    /// observed deterministically). Works while the shipper is paused.
    pub fn ship_once(&self) -> Result<usize, ReplError> {
        self.ship.ship_from(&mut self.ship.state.lock().cursor)
    }

    /// Pauses or resumes the shipper — an operator drain hook
    /// (OPERATIONS.md), and the deterministic way to hold back a standby,
    /// e.g. to stage a decision logged on the host but not yet shipped.
    /// When `set_paused(true)` returns the shipper is parked: a round that
    /// was in flight has finished, and every later step sees the flag
    /// under the lock it ships under, so no follower's applied watermark
    /// moves on its account until resumed.
    pub fn set_paused(&self, paused: bool) {
        self.ship.state.lock().paused = paused;
        if !paused {
            self.shipper.kick();
        }
    }

    /// Shipping and rejection counters.
    pub fn stats(&self) -> &Arc<ReplStats> {
        &self.ship.stats
    }

    /// Deepest snapshotter backlog across this set's standbys (each 0–2).
    pub fn snapshot_queue_depth(&self) -> usize {
        self.ship.followers.iter().map(|f| f.snapshot_queue_depth()).max().unwrap_or(0)
    }

    /// Fences the set for failover: bumps the epoch — every in-flight or
    /// future frame from the current shipper is now stale — and stops the
    /// shipper (woken, not waited out) so no apply races the promotion
    /// that follows. Returns the new epoch.
    pub fn freeze(&self) -> u64 {
        let epoch = self.ship.fence.bump();
        self.shipper.stop();
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
    use dl_dlfm::repository::FileEntry;
    use dl_dlfm::{AccessToken, ControlMode, OnUnlink};
    use dl_fskit::SimClock;
    use dl_minidb::Value;
    use std::sync::atomic::AtomicBool;

    /// A DLFM repository's database: the schema its standbys replicate.
    fn repo_db() -> Database {
        Repository::open(StorageEnv::mem()).unwrap().db().clone()
    }

    fn file_row(path: &str, version: u64) -> Vec<Value> {
        let entry = FileEntry {
            path: path.to_string(),
            mode: ControlMode::Rdd,
            recovery: true,
            on_unlink: OnUnlink::Restore,
            cur_version: version,
            orig_uid: 100,
            orig_gid: 100,
            orig_mode: 0o644,
            ino: 1,
            state_id: 0,
            needs_archive: false,
        };
        entry.to_row()
    }

    /// A one-standby set of `db`'s repository whose reads come from
    /// `archive`, verifying tokens under key `key` at `clock`.
    fn standby_set(db: &Database, archive: Arc<ArchiveStore>, clock: Arc<SimClock>) -> ReplicaSet {
        let opts = ReplicaSetOptions {
            replicas: 1,
            server_name: "srv1".into(),
            token_key: TokenKey::new(b"key"),
            clock,
            fallback: None,
        };
        ReplicaSet::<Standby>::build(db.replication_feed(), archive, opts).unwrap()
    }

    #[test]
    fn the_shipper_ships_and_the_standby_serves_file_entries() {
        let db = repo_db();
        let set = standby_set(&db, Arc::new(ArchiveStore::new()), Arc::new(SimClock::new(1_000)));
        let standby = &set.standbys()[0];

        let mut tx = db.begin();
        tx.insert("dl_files", file_row("/f", 3)).unwrap();
        tx.commit().unwrap();

        assert!(set.wait_caught_up(Duration::from_secs(5)));
        assert_eq!(set.lag(), 0);
        let entry = standby.repository().get_file("/f").expect("replicated entry");
        assert_eq!(entry.cur_version, 3);
        assert!(set.stats().batches_shipped.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn fence_bump_rejects_stale_shipper() {
        let db = repo_db();
        let set = standby_set(&db, Arc::new(ArchiveStore::new()), Arc::new(SimClock::new(1_000)));
        let standby = &set.standbys()[0];
        assert!(set.wait_caught_up(Duration::from_secs(5)));
        let applied_before = standby.applied_lsn();

        // Failover elsewhere: the fence moves on, this shipper is stale.
        set.ship.fence.bump();
        let mut tx = db.begin();
        tx.insert("dl_files", file_row("/late", 1)).unwrap();
        tx.commit().unwrap();

        let err = set.ship_once().unwrap_err();
        assert!(matches!(err, ReplError::StaleEpoch { shipped: 0, fence: 1 }));
        assert!(set.stats().stale_rejections() >= 1);
        assert_eq!(standby.applied_lsn(), applied_before, "rejected frames are not applied");
        assert!(standby.repository().get_file("/late").is_none());
    }

    #[test]
    fn replica_validates_tokens_and_serves_archived_bytes() {
        let db = repo_db();
        let clock = Arc::new(SimClock::new(1_000));
        let archive = Arc::new(ArchiveStore::new());
        let set = standby_set(&db, Arc::clone(&archive), clock);
        let standby = &set.standbys()[0];

        let mut tx = db.begin();
        tx.insert("dl_files", file_row("/movies/clip.mpg", 2)).unwrap();
        tx.commit().unwrap();
        assert!(set.wait_caught_up(Duration::from_secs(5)));
        // The primary archives version 2 into the node's store.
        archive.put(archive.take_generation(), "/movies/clip.mpg", 2, 9, b"v2 bytes".to_vec());

        // No token entry yet: the read is refused.
        assert!(standby.serve_read("/movies/clip.mpg", 42).is_err());

        let token = AccessToken::generate(
            &TokenKey::new(b"key"),
            "srv1",
            "/movies/clip.mpg",
            TokenKind::Read,
            60_000,
        );
        let kind = standby.validate_read_token("/movies/clip.mpg", &token.encode(), 42).unwrap();
        assert_eq!(kind, TokenKind::Read);
        assert_eq!(standby.serve_read("/movies/clip.mpg", 42).unwrap(), b"v2 bytes");
        // Another uid did not validate here: refused (userid-keyed, §4.1).
        assert!(standby.serve_read("/movies/clip.mpg", 43).is_err());

        // A garbage token is refused outright.
        assert!(standby.validate_read_token("/movies/clip.mpg", "nonsense", 42).is_err());
        // A token for the wrong path fails verification.
        let wrong = AccessToken::generate(
            &TokenKey::new(b"key"),
            "srv1",
            "/other",
            TokenKind::Read,
            60_000,
        );
        assert!(standby.validate_read_token("/movies/clip.mpg", &wrong.encode(), 42).is_err());
    }

    #[test]
    fn truncated_primary_ships_checkpoint_to_fresh_standby() {
        let db = repo_db();
        for i in 0..20i64 {
            let mut tx = db.begin();
            tx.insert("dl_files", file_row(&format!("/f{i}"), 1)).unwrap();
            tx.commit().unwrap();
        }
        db.checkpoint_and_truncate().unwrap();
        assert!(db.wal_base_lsn() > 0);

        // A fresh standby's cursor (0) is below the primary's base: the
        // shipper must install the checkpoint image, then tail the suffix.
        let set = standby_set(&db, Arc::new(ArchiveStore::new()), Arc::new(SimClock::new(1_000)));
        let (standby, stats) = (&set.standbys()[0], set.stats());
        assert!(set.wait_caught_up(Duration::from_secs(5)));
        assert_eq!(stats.checkpoints_shipped(), 1, "delta catch-up used the image once");
        assert!(standby.repository().get_file("/f0").is_some());
        assert!(standby.repository().get_file("/f19").is_some());
        assert_eq!(
            standby.wal_retained_bytes(),
            db.wal_retained_bytes(),
            "standby log is the same bounded suffix as the primary's"
        );

        // Subsequent commits ship as ordinary frames.
        let mut tx = db.begin();
        tx.insert("dl_files", file_row("/after", 1)).unwrap();
        tx.commit().unwrap();
        assert!(set.wait_caught_up(Duration::from_secs(5)));
        assert!(standby.repository().get_file("/after").is_some());
        assert_eq!(stats.checkpoints_shipped(), 1, "no further installs needed");
    }

    #[test]
    fn paused_shipper_holds_lag_until_resumed() {
        let db = repo_db();
        let set = ReplicaSet::<Standby>::build(
            db.replication_feed(),
            Arc::new(ArchiveStore::new()),
            ReplicaSetOptions {
                replicas: 1,
                server_name: "srv1".into(),
                token_key: TokenKey::new(b"key"),
                clock: Arc::new(SimClock::new(1_000)),
                fallback: None,
            },
        )
        .unwrap();
        assert!(set.wait_caught_up(Duration::from_secs(5)));
        let standby = &set.standbys()[0];
        set.set_paused(true);
        // Parked means parked *now*: the commit right behind the pause is
        // never shipped, wherever in its step the shipper was.
        let applied = standby.applied_lsn();
        let mut tx = db.begin();
        tx.insert("dl_files", file_row("/held", 1)).unwrap();
        tx.commit().unwrap();
        // The shipper is parked: the lag stays.
        let watch_until = Instant::now() + Duration::from_millis(50);
        while Instant::now() < watch_until {
            assert_eq!(standby.applied_lsn(), applied, "a paused shipper shipped");
            std::thread::yield_now();
        }
        assert!(set.lag() > 0, "paused shipper must not drain the lag");
        assert!(standby.repository().get_file("/held").is_none());
        set.set_paused(false);
        assert!(set.wait_caught_up(Duration::from_secs(5)));
        assert!(standby.repository().get_file("/held").is_some());

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
                // Long enough for the resumed shipper to be shipping the
                // stream again.
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
        let db = repo_db();
        let set = ReplicaSet::<Standby>::build(
            db.replication_feed(),
            Arc::new(ArchiveStore::new()),
            ReplicaSetOptions {
                replicas: 3,
                server_name: "srv1".into(),
                token_key: TokenKey::new(b"key"),
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
            assert!(s.repository().get_file("/f").is_some(), "every standby applied");
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
        let db = repo_db();
        let set = ReplicaSet::<Standby>::build(
            db.replication_feed(),
            Arc::new(ArchiveStore::new()),
            ReplicaSetOptions {
                replicas: 1,
                server_name: "srv1".into(),
                token_key: TokenKey::new(b"key"),
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
        let db = repo_db();
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

    /// Steps `ship` on a test clock until it asks for a deadline, twice:
    /// the first pass ships what is durable, and the step at the poll
    /// deadline flushes the primary's unforced tail and ships it.
    fn step_through_two_polls(ship: &Ship, mut now: Instant) -> Instant {
        for _ in 0..2 {
            loop {
                match ship.step(now) {
                    Next::Now => {}
                    Next::At(deadline) => break now = deadline,
                    Next::Idle => panic!("an unpaused, unfenced shipper idled"),
                }
            }
        }
        now
    }

    #[test]
    fn the_shipper_step_alone_reaches_the_threaded_standby_state() {
        let db = repo_db();
        let threaded =
            ReplicaSet::<Follower>::build("threaded", db.replication_feed(), 1, 0).unwrap();
        let (fence, stats) = (Arc::new(EpochFence::default()), Arc::new(ReplStats::default()));
        let stepped = Arc::new(Follower {
            name: "stepped#0".into(),
            db: Database::open_follower(StorageEnv::mem(), db.replication_feed().db_options())
                .unwrap(),
            fence: Arc::clone(&fence),
            stats: Arc::clone(&stats),
        });
        let ship = Ship::new(db.replication_feed(), vec![Arc::clone(&stepped)], fence, 0, stats);
        let mut now = Instant::now();
        // Forced and unforced commits, and a checkpoint that truncates the
        // primary's log mid-stream: the standbys truncate in lockstep.
        for round in 0..3 {
            for i in 0..10 {
                let mut tx = db.begin();
                tx.insert("dl_files", file_row(&format!("/f{round}.{i}"), 1)).unwrap();
                if i % 2 == 0 {
                    tx.commit().unwrap();
                } else {
                    tx.commit_unforced().unwrap();
                }
            }
            if round == 1 {
                db.checkpoint_and_truncate().unwrap();
            }
            now = step_through_two_polls(&ship, now);
        }
        assert!(threaded.wait_caught_up(Duration::from_secs(5)));
        assert!(stepped.snapshotter().unwrap().wait_idle(Duration::from_secs(5)));

        let threaded = &threaded.standbys()[0];
        assert_eq!(stepped.applied_lsn(), db.durable_lsn(), "the unforced tail shipped too");
        assert_eq!(stepped.applied_lsn(), threaded.applied_lsn());
        assert_eq!(stepped.wal_base_lsn(), threaded.wal_base_lsn());
        assert_eq!(stepped.wal_retained_bytes(), threaded.wal_retained_bytes());
        assert_eq!(stepped.count("dl_files").unwrap(), 30);
        assert_eq!(
            stepped.scan_committed("dl_files").unwrap(),
            threaded.scan_committed("dl_files").unwrap()
        );

        // Paused, the step idles and ships nothing; resumed, it ships.
        ship.state.lock().paused = true;
        let mut tx = db.begin();
        tx.insert("dl_files", file_row("/held", 1)).unwrap();
        tx.commit().unwrap();
        assert_eq!(ship.step(now), Next::Idle);
        assert!(stepped.applied_lsn() < db.durable_lsn());
        ship.state.lock().paused = false;
        step_through_two_polls(&ship, now);
        assert_eq!(stepped.applied_lsn(), db.durable_lsn());
    }
}
