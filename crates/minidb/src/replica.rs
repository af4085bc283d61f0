//! Following: a [`Database`] applying a primary's shipped WAL.
//!
//! Following is a *mode* of the one database type. A follower
//! ([`Database::open_follower`]) opens with the primary's open sequence
//! under the primary's [`DbOptions`], refuses local logged writes, DDL and
//! checkpoints ([`DbError::Following`]) — every transaction that writes —
//! keeps its rows once, in its own tables, and serves reads through the
//! ordinary read path.
//! [`Database::apply`] appends shipped bytes verbatim to its ordinary log
//! (byte-identical to the primary's over the shared LSN range) and redoes
//! them by the one recovery rule; [`Database::promote`] flips the mode in
//! place, reopening nothing.
//!
//! Two mechanisms bound a follower's log. **Lockstep truncation**: a
//! shipped [`WalRecord::Checkpoint`] queues a coalescing job for the
//! follower's snapshotter — a [`Daemon`] whose step writes the follower's
//! own image, then truncates below the record — so the slow image write
//! never stalls a ship round or the freshness readers waiting on it. **Checkpoint install**: a follower
//! whose next frame was truncated away on the primary installs the
//! primary's latest image ([`Database::install_checkpoint`], fed by
//! [`ReplicationFeed::latest_checkpoint`]) and tails only the suffix —
//! delta catch-up instead of a full-history replay.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::daemon::{Daemon, Next, OnStop};
use crate::db::{Database, DbInner, DbOptions};
use crate::device::StorageEnv;
use crate::error::{DbError, DbResult};
use crate::snapshot::{
    latest_valid_snapshot, redo, slot_for_generation, write_snapshot, SnapshotData,
};
use crate::wal::{Lsn, ShippedFrames, WalReader, WalRecord};

/// The primary-side feed a replication shipper consumes: the live
/// [`WalReader`] plus access to the primary's checkpoint images, so the
/// shipper can fall back to installing a checkpoint when the frames it
/// needs were truncated away (the reader reports
/// [`DbError::TruncatedLog`]). Obtained from
/// [`crate::Database::replication_feed`]; clones share the same source.
#[derive(Clone)]
pub struct ReplicationFeed {
    reader: WalReader,
    db: Database,
}

impl ReplicationFeed {
    pub(crate) fn new(db: Database) -> ReplicationFeed {
        ReplicationFeed { reader: db.wal_reader(), db }
    }

    /// The live WAL tail reader.
    pub fn reader(&self) -> &WalReader {
        &self.reader
    }

    /// The newest valid checkpoint image the primary has on disk, if any.
    /// May transiently return an older image (or `None`) while the primary
    /// is mid-checkpoint — a shipper simply retries on its next round.
    pub fn latest_checkpoint(&self) -> DbResult<Option<SnapshotData>> {
        latest_valid_snapshot(self.db.env(), |_| true)
    }

    /// The primary this feed reads.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The primary's options minus any point-in-time bound: what its
    /// followers open with, so a promoted one runs as the primary did.
    pub fn db_options(&self) -> DbOptions {
        DbOptions { stop_at_lsn: None, ..self.db.inner.opts }
    }
}

/// Follower mode and its state, in every database (idle on a primary).
/// Lock order: `snap_io`, `state`, the tables, the log.
pub(crate) struct Follow {
    /// Set by [`Database::open_follower`], cleared by [`Database::promote`].
    following: AtomicBool,
    state: Mutex<FollowState>,
    /// Signalled whenever the applied watermark advances.
    applied_grew: Condvar,
    /// The snapshot job the snapshotter has not started yet.
    job: Mutex<Option<SnapJob>>,
    /// Held by the snapshotter across its copy-and-write and by an install:
    /// both write the ping-pong slots, and a stale snapshot landing over the
    /// image an install just reset the log against would leave a restart
    /// with a log that starts above its newest image.
    snap_io: Mutex<()>,
}

struct FollowState {
    /// One past the last applied byte: every record below it is in the
    /// tables, and the next shipped range must start at or below it.
    applied: Lsn,
    /// Bumped by an install, which obsoletes any queued snapshot job.
    epoch: u64,
}

/// One coalesced snapshot job: image the state, then truncate the log
/// below `cut` (a newer checkpoint's job covers every older one).
#[derive(Clone, Copy)]
struct SnapJob {
    generation: u64,
    cut: Lsn,
    epoch: u64,
}

impl Follow {
    pub(crate) fn new(applied: Lsn) -> Follow {
        Follow {
            following: AtomicBool::new(false),
            state: Mutex::new(FollowState { applied, epoch: 0 }),
            applied_grew: Condvar::new(),
            job: Mutex::default(),
            snap_io: Mutex::new(()),
        }
    }

    pub(crate) fn is_following(&self) -> bool {
        self.following.load(Ordering::SeqCst)
    }

    fn require_following(&self) -> DbResult<()> {
        match self.is_following() {
            true => Ok(()),
            false => Err(DbError::InvalidTxnState("not a follower".into())),
        }
    }
}

impl DbInner {
    /// Writes one follower-side snapshot, then truncates below the job's
    /// cut. The tables are copied under the state lock — the applied
    /// watermark is a valid (possibly fresher-than-the-cut) base — and
    /// written with only the slots held, so `apply` keeps streaming; the
    /// epoch is re-checked before truncating in case an install replaced
    /// the state in between.
    fn perform_snapshot(&self, job: SnapJob) -> DbResult<()> {
        {
            let _slots = self.follow.snap_io.lock();
            let image = {
                let state = self.follow.state.lock();
                if state.epoch != job.epoch {
                    return Ok(());
                }
                SnapshotData {
                    generation: job.generation,
                    base_lsn: state.applied,
                    next_txid: self.next_txid.load(Ordering::SeqCst),
                    tables: self.tables.read().clone(),
                }
            };
            let dev = self.env.device(slot_for_generation(job.generation))?;
            write_snapshot(&dev, (&image).into())?;
            self.note_snapshot(job.generation, dev.len()?);
        }
        if self.follow.state.lock().epoch == job.epoch {
            self.wal.truncate_below(job.cut)?;
        }
        Ok(())
    }
}

impl Database {
    /// Opens (or, after a crash of its node, reopens) a follower over `env`
    /// with the primary's open sequence — newest valid image, redo of the
    /// log suffix, finishing an install a crash interrupted — under the
    /// primary's `opts` ([`ReplicationFeed::db_options`]), which a
    /// promotion inherits.
    /// Its snapshotter is a [`Daemon`] every handle shares, and the
    /// thread does not (it holds the database itself): the last handle
    /// dropped — a node restart in tests, a graceful stop — drains and
    /// joins it, leaving the last shipped checkpoint's image and
    /// truncation on disk.
    pub fn open_follower(env: StorageEnv, opts: DbOptions) -> DbResult<Database> {
        let mut db = Database::open_with(env, opts)?;
        db.inner.follow.following.store(true, Ordering::SeqCst);
        let inner = Arc::clone(&db.inner);
        // The step performs the queued job, if any. A failed snapshot
        // leaves the log unbounded but the state correct, and the next
        // shipped checkpoint retries.
        let snapshotter = Daemon::spawn("follower-snapshotter", OnStop::Drain, move |_| {
            let Some(job) = inner.follow.job.lock().take() else { return Next::Idle };
            let _ = inner.perform_snapshot(job);
            Next::Now
        })
        .map_err(|e| DbError::Io(e.to_string()))?;
        db.snapshotter = Some(Arc::new(snapshotter));
        Ok(db)
    }

    /// Applies one shipped range: appends the bytes not yet applied to the
    /// log verbatim, syncs, redoes their records into the tables and moves
    /// the applied watermark to the range's end. A range starting *past*
    /// the watermark is a ship gap and refused (diverging is not an
    /// option); an overlap is skipped (the shipper re-sends from the
    /// slowest follower's position). A `Checkpoint` record queues the
    /// lockstep-truncation job; the image is written off this thread.
    pub fn apply(&self, frames: &ShippedFrames) -> DbResult<()> {
        let inner = &self.inner;
        let follow = &inner.follow;
        let mut state = follow.state.lock();
        follow.require_following()?;
        let applied = state.applied;
        if frames.is_empty() || frames.end <= applied {
            return Ok(());
        }
        if frames.base > applied {
            return Err(DbError::InvalidTxnState(format!(
                "follower expects frames at lsn {applied}, got {} (ship gap)",
                frames.base
            )));
        }
        // The watermark sits on a frame boundary, so this skips exactly the
        // already-applied frames.
        let skip = (applied - frames.base) as usize;
        let _latch = inner.commit_latch.read();
        inner.wal.append_shipped(applied, &frames.bytes[skip..])?;
        let mut checkpoint = None;
        {
            let mut tables = inner.tables.write();
            let mut next_txid = inner.next_txid.load(Ordering::SeqCst);
            for (lsn, rec) in frames.records.iter().filter(|(lsn, _)| *lsn >= applied) {
                if let WalRecord::Checkpoint { generation } = rec {
                    checkpoint =
                        Some(SnapJob { generation: *generation, cut: *lsn, epoch: state.epoch });
                }
                redo(&mut tables, &mut next_txid, rec)?;
            }
            inner.next_txid.fetch_max(next_txid, Ordering::SeqCst);
        }
        state.applied = frames.end;
        if checkpoint.is_some() {
            *follow.job.lock() = checkpoint;
            if let Some(snapshotter) = &self.snapshotter {
                snapshotter.kick();
            }
        }
        follow.applied_grew.notify_all();
        Ok(())
    }

    /// Installs a primary checkpoint image (delta catch-up): persists it to
    /// the follower's own slot, resets the log to empty at its base and
    /// adopts its tables. Returns
    /// `false`, changing nothing, when the follower is already at or past
    /// the image. Crash-safe: the image is durable before the reset, and
    /// the next open finishes a reset a crash interrupted.
    pub fn install_checkpoint(&self, snap: &SnapshotData) -> DbResult<bool> {
        let inner = &self.inner;
        let follow = &inner.follow;
        let _slots = follow.snap_io.lock();
        let mut state = follow.state.lock();
        follow.require_following()?;
        if snap.base_lsn <= state.applied {
            return Ok(false);
        }
        let dev = inner.env.device(slot_for_generation(snap.generation))?;
        write_snapshot(&dev, snap.into())?;
        inner.wal.reset_to(snap.base_lsn)?;
        *inner.tables.write() = snap.tables.clone();
        inner.next_txid.fetch_max(snap.next_txid, Ordering::SeqCst);
        inner.note_snapshot(snap.generation, dev.len()?);
        state.applied = snap.base_lsn;
        state.epoch += 1;
        follow.applied_grew.notify_all();
        Ok(true)
    }

    /// Ends following in place: drains and joins the snapshotter, then
    /// flips the mode, so local logged transactions, DDL and checkpoints run
    /// from here on — on the tables, log and transaction-id horizon the
    /// follower applied, which is what a recovery of its disks would reach.
    /// The caller fences the shipper first; a range shipped after the flip
    /// is refused. A no-op on a primary.
    pub fn promote(&self) -> DbResult<()> {
        if let Some(snapshotter) = &self.snapshotter {
            snapshotter.stop();
        }
        let follow = &self.inner.follow;
        let _state = follow.state.lock();
        follow.following.store(false, Ordering::SeqCst);
        // A job queued after the drain only bounded the log; the promoted
        // database's next checkpoint does that.
        *follow.job.lock() = None;
        Ok(())
    }

    /// One past the last applied byte (lag = primary durable − this);
    /// frozen at the last apply once promoted.
    pub fn applied_lsn(&self) -> Lsn {
        self.inner.follow.state.lock().applied
    }

    /// Blocks until the applied watermark reaches `lsn` or `timeout`
    /// elapses; returns whether it did. The read-your-writes wait: once it
    /// returns `true`, reads see the rows of every record below `lsn`.
    pub fn wait_applied(&self, lsn: Lsn, timeout: Duration) -> bool {
        let follow = &self.inner.follow;
        let deadline = Instant::now() + timeout;
        let mut state = follow.state.lock();
        while state.applied < lsn {
            let left = deadline.saturating_duration_since(Instant::now());
            if follow.applied_grew.wait_for(&mut state, left).timed_out() {
                return state.applied >= lsn;
            }
        }
        true
    }

    /// A follower's snapshotter (`None` on a database opened as a
    /// primary). Once it is idle ([`Daemon::wait_idle`]) no job is queued
    /// or running, and the retained-bytes bound of the last shipped
    /// checkpoint is visible.
    pub fn snapshotter(&self) -> Option<&Daemon> {
        self.snapshotter.as_deref()
    }

    /// The snapshotter's backlog: the queued job plus one while it
    /// is awake (0–2). Stuck at 2 means checkpoints arrive faster than
    /// images are written.
    pub fn snapshot_queue_depth(&self) -> usize {
        let awake = self.snapshotter().is_some_and(|s| !s.wait_idle(Duration::ZERO));
        usize::from(self.inner.follow.job.lock().is_some()) + usize::from(awake)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Column, ColumnType, Row, Schema, Value};
    use crate::wal::WalOptions;

    fn schema(name: &str) -> Schema {
        Schema::new(
            name,
            vec![Column::new("id", ColumnType::Int), Column::nullable("v", ColumnType::Text)],
            "id",
        )
        .unwrap()
    }

    fn row(id: i64, v: &str) -> Row {
        vec![Value::Int(id), Value::Text(v.into())]
    }

    /// A follower over `env` under default options.
    fn follower(env: StorageEnv) -> Database {
        Database::open_follower(env, DbOptions::default()).unwrap()
    }

    /// Ships everything durable on `db` into `standby`, installing a
    /// checkpoint when the frames were truncated away — the same protocol
    /// `dl-repl`'s shipper runs.
    fn ship_all(db: &Database, standby: &Database) {
        let feed = db.replication_feed();
        loop {
            match feed.reader().read_from(standby.applied_lsn()) {
                Ok(frames) => {
                    standby.apply(&frames).unwrap();
                    return;
                }
                Err(DbError::TruncatedLog { .. }) => {
                    let snap = feed.latest_checkpoint().unwrap().expect("truncation => snapshot");
                    standby.install_checkpoint(&snap).unwrap();
                }
                Err(e) => panic!("ship failed: {e}"),
            }
        }
    }

    #[test]
    fn standby_mirrors_primary_state_and_log_bytes() {
        let primary_env = StorageEnv::mem();
        let db = Database::open(primary_env.clone()).unwrap();
        db.create_table(schema("t")).unwrap();
        let standby = follower(StorageEnv::mem());

        for i in 0..5i64 {
            let mut tx = db.begin();
            tx.insert("t", row(i, "x")).unwrap();
            tx.commit().unwrap();
        }
        ship_all(&db, &standby);
        assert_eq!(standby.count("t").unwrap(), 5);
        assert_eq!(standby.applied_lsn(), db.wal_reader().durable_lsn());

        // Physical replication: byte-identical logs.
        let p = primary_env.device("wal").unwrap();
        let s = standby.env().device("wal").unwrap();
        let mut pb = vec![0u8; p.len().unwrap() as usize];
        let mut sb = vec![0u8; s.len().unwrap() as usize];
        p.read_at(0, &mut pb).unwrap();
        s.read_at(0, &mut sb).unwrap();
        assert_eq!(pb, sb);
    }

    #[test]
    fn apply_rejects_ship_gaps() {
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        let mut tx = db.begin();
        tx.insert("t", row(1, "a")).unwrap();
        let mid = tx.commit().unwrap();
        let mut tx = db.begin();
        tx.insert("t", row(2, "b")).unwrap();
        tx.commit().unwrap();

        let standby = follower(StorageEnv::mem());
        // Ship only the tail: a gap the standby must refuse.
        let frames = db.wal_reader().read_from(mid).unwrap();
        assert!(standby.apply(&frames).is_err());
        assert_eq!(standby.applied_lsn(), 0, "nothing applied across a gap");
    }

    #[test]
    fn apply_skips_already_applied_overlap() {
        // The shipper re-sends from the slowest standby's position; a
        // standby that already applied part (or all) of the range must
        // skip the overlap instead of wedging on it.
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        let mut tx = db.begin();
        tx.insert("t", row(1, "a")).unwrap();
        tx.commit().unwrap();

        let standby = follower(StorageEnv::mem());
        let first = db.wal_reader().read_from(0).unwrap();
        standby.apply(&first).unwrap();
        let applied = standby.applied_lsn();

        // Full resend: idempotent no-op.
        standby.apply(&first).unwrap();
        assert_eq!(standby.applied_lsn(), applied);
        assert_eq!(standby.count("t").unwrap(), 1, "no double-apply");

        // Partial overlap: a range starting at 0 that extends past the
        // applied watermark applies only the new suffix.
        let mut tx = db.begin();
        tx.insert("t", row(2, "b")).unwrap();
        tx.commit().unwrap();
        let overlapping = db.wal_reader().read_from(0).unwrap();
        standby.apply(&overlapping).unwrap();
        assert_eq!(standby.applied_lsn(), overlapping.end);
        assert_eq!(standby.count("t").unwrap(), 2);
    }

    #[test]
    fn promotion_flips_the_follower_in_place() {
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        let mut tx = db.begin();
        tx.insert("t", row(7, "keep")).unwrap();
        tx.commit().unwrap();

        let standby = follower(StorageEnv::mem());
        ship_all(&db, &standby);

        standby.promote().unwrap();
        let promoted = &standby;
        assert_eq!(promoted.count("t").unwrap(), 1);
        // The promoted database is a full primary: it can commit.
        let mut tx = promoted.begin();
        tx.insert("t", row(9, "new-primary")).unwrap();
        tx.commit().unwrap();
        assert_eq!(promoted.count("t").unwrap(), 2);
    }

    #[test]
    fn standby_restart_replays_its_own_log() {
        let db = Database::open_with(
            StorageEnv::mem(),
            DbOptions { wal: WalOptions::tuned_for(4), ..Default::default() },
        )
        .unwrap();
        db.create_table(schema("t")).unwrap();
        let mut tx = db.begin();
        tx.insert("t", row(1, "a")).unwrap();
        tx.commit().unwrap();

        let standby_env = StorageEnv::mem();
        let applied = {
            let standby = follower(standby_env.clone());
            ship_all(&db, &standby);
            standby.applied_lsn()
        };
        // Standby restarts (crash of the replica node): state replays.
        let standby = follower(standby_env);
        assert_eq!(standby.applied_lsn(), applied);
        assert_eq!(standby.count("t").unwrap(), 1);

        // And shipping resumes where it left off.
        let mut tx = db.begin();
        tx.insert("t", row(2, "b")).unwrap();
        tx.commit().unwrap();
        ship_all(&db, &standby);
        assert_eq!(standby.count("t").unwrap(), 2);
    }

    #[test]
    fn unforced_commit_ships_with_the_next_flush() {
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        let standby = follower(StorageEnv::mem());

        // The primary shows an unforced commit at once; the standby — which
        // only ever sees synced frames — keeps serving the state before it
        // until a flush hands the record to the shipper.
        let mut tx = db.begin();
        tx.insert("t", row(1, "lazy")).unwrap();
        tx.commit_unforced().unwrap();
        assert_eq!(db.count("t").unwrap(), 1);
        ship_all(&db, &standby);
        assert_eq!(standby.count("t").unwrap(), 0, "an unflushed commit has not shipped");

        db.flush().unwrap();
        ship_all(&db, &standby);
        assert_eq!(standby.count("t").unwrap(), 1);
    }

    // --- checkpoint shipping ----------------------------------------------

    #[test]
    fn fresh_standby_installs_checkpoint_after_primary_truncation() {
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        for i in 0..20i64 {
            let mut tx = db.begin();
            tx.insert("t", row(i, "pre-truncation")).unwrap();
            tx.commit().unwrap();
        }
        let (_, base) = db.checkpoint_and_truncate().unwrap();
        assert!(base > 0);
        let mut tx = db.begin();
        tx.insert("t", row(100, "post-truncation")).unwrap();
        tx.commit().unwrap();

        // A fresh standby cannot tail from 0 — the frames are gone.
        let standby = follower(StorageEnv::mem());
        let feed = db.replication_feed();
        assert!(matches!(
            feed.reader().read_from(0),
            Err(DbError::TruncatedLog { base: b }) if b == base
        ));
        // Delta catch-up: install the image, then tail only the suffix.
        ship_all(&db, &standby);
        assert_eq!(standby.count("t").unwrap(), 21);
        assert_eq!(standby.applied_lsn(), db.durable_lsn());
        assert!(standby.wal_base_lsn() >= base, "standby log starts at the image base");
    }

    #[test]
    fn standby_truncates_in_lockstep_with_primary_checkpoints() {
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        let standby = follower(StorageEnv::mem());
        for round in 0..3u64 {
            for i in 0..10u64 {
                let mut tx = db.begin();
                tx.insert("t", row((round * 100 + i) as i64, "x")).unwrap();
                tx.commit().unwrap();
            }
            db.checkpoint_and_truncate().unwrap();
            ship_all(&db, &standby);
            // Lockstep: the standby truncates at the shipped Checkpoint
            // record — on its snapshotter thread, so wait for it — and
            // then its retained bytes match the primary's.
            assert!(standby.snapshotter().unwrap().wait_idle(std::time::Duration::from_secs(10)));
            assert_eq!(standby.wal_base_lsn(), db.wal_base_lsn());
            assert_eq!(standby.wal_retained_bytes(), db.wal_retained_bytes());
        }
        assert_eq!(standby.count("t").unwrap(), 30);

        // A standby restart after lockstep truncation recovers from its own
        // snapshot + suffix.
        let env = standby.env().clone();
        drop(standby);
        let standby = follower(env);
        assert_eq!(standby.count("t").unwrap(), 30);
        assert_eq!(standby.applied_lsn(), db.durable_lsn());
    }

    #[test]
    fn apply_does_not_block_on_slow_snapshot_writes() {
        // Regression guard for the async snapshotter: with a slow standby
        // disk, applying a checkpoint-carrying range must cost apply()
        // only its own log append sync — the (much bigger) snapshot image
        // write happens on the snapshotter thread. The inline version
        // paid image-write + truncation syncs inside apply, stalling the
        // ship round and every freshness waiter behind it.
        const SYNC_LATENCY: std::time::Duration = std::time::Duration::from_millis(25);
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        let standby = follower(StorageEnv::mem_with_sync_latency(SYNC_LATENCY.as_nanos() as u64));
        for i in 0..50i64 {
            let mut tx = db.begin();
            tx.insert("t", row(i, "bulk")).unwrap();
            tx.commit().unwrap();
        }
        ship_all(&db, &standby);
        db.checkpoint_and_truncate().unwrap();

        // The un-shipped range is exactly the Checkpoint frame: the apply
        // below is all checkpoint handling, no bulk row replay.
        let frames = db.replication_feed().reader().read_from(standby.applied_lsn()).unwrap();
        let start = std::time::Instant::now();
        standby.apply(&frames).unwrap();
        let apply_took = start.elapsed();
        // One append sync, plus slack for the apply loop itself. The old
        // inline path paid >= 3 extra device syncs here (image write +
        // slot-swap copy + control flip), i.e. >= 100ms at this latency.
        assert!(
            apply_took < SYNC_LATENCY * 3,
            "apply() stalled on snapshot i/o: {apply_took:?} at {SYNC_LATENCY:?} sync latency"
        );

        // The snapshot + truncation still happen — asynchronously.
        assert!(standby.snapshotter().unwrap().wait_idle(std::time::Duration::from_secs(30)));
        assert_eq!(standby.wal_base_lsn(), db.wal_base_lsn());
        assert_eq!(standby.count("t").unwrap(), 50);

        // And a restart recovers from the async-written snapshot + suffix.
        let env = standby.env().clone();
        drop(standby);
        let standby = follower(env);
        assert_eq!(standby.count("t").unwrap(), 50);
        assert_eq!(standby.applied_lsn(), db.durable_lsn());
    }

    #[test]
    fn install_checkpoint_is_skipped_when_already_ahead() {
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        let standby = follower(StorageEnv::mem());
        let mut tx = db.begin();
        tx.insert("t", row(1, "a")).unwrap();
        tx.commit().unwrap();
        db.checkpoint().unwrap();
        ship_all(&db, &standby);

        let snap = db.replication_feed().latest_checkpoint().unwrap().unwrap();
        assert!(!standby.install_checkpoint(&snap).unwrap(), "already past the image");
        assert_eq!(standby.count("t").unwrap(), 1);
    }

    #[test]
    fn crash_between_image_write_and_log_reset_is_finished_by_either_open() {
        // A checkpoint install makes the image durable, then resets the log
        // to the image's base. A crash in between leaves a log that ends
        // below its newest image; whichever open comes next — the standby's
        // restart or a promotion — must finish the reset, or what it logs
        // next would sit below the image and be skipped by every later
        // recovery.
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        let env = StorageEnv::mem();
        {
            let standby = follower(env.clone());
            ship_all(&db, &standby); // holds the DDL frame, nothing else
        }
        for i in 0..10i64 {
            let mut tx = db.begin();
            tx.insert("t", row(i, "imaged")).unwrap();
            tx.commit().unwrap();
        }
        db.checkpoint_and_truncate().unwrap();
        let snap = db.replication_feed().latest_checkpoint().unwrap().unwrap();
        // The first half of `install_checkpoint`, then the crash.
        write_snapshot(&env.device(slot_for_generation(snap.generation)).unwrap(), (&snap).into())
            .unwrap();

        let standby = follower(env.fork().unwrap());
        assert_eq!(standby.applied_lsn(), snap.base_lsn);
        assert_eq!(standby.wal_base_lsn(), snap.base_lsn);
        assert_eq!(standby.wal_retained_bytes(), 0);
        assert_eq!(standby.count("t").unwrap(), 10);
        ship_all(&db, &standby);
        assert_eq!(standby.applied_lsn(), db.durable_lsn(), "shipping resumes at the image");

        let promoted_env = env.fork().unwrap();
        let promoted = follower(promoted_env.clone());
        promoted.promote().unwrap();
        assert_eq!(promoted.wal_base_lsn(), snap.base_lsn);
        assert_eq!(promoted.count("t").unwrap(), 10);
        let mut tx = promoted.begin();
        tx.insert("t", row(100, "after-promotion")).unwrap();
        assert!(tx.commit().unwrap() > snap.base_lsn, "logged above the image, not below it");
        drop(promoted);
        assert_eq!(Database::open(promoted_env).unwrap().count("t").unwrap(), 11);
    }

    #[test]
    fn promotion_after_checkpoint_install_keeps_txids() {
        // The txid horizon must survive the image path: a promoted standby
        // never re-issues the id of a transaction whose records were
        // truncated away.
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        let mut tx = db.begin();
        let txid = tx.id();
        tx.insert("t", row(1, "truncated")).unwrap();
        tx.commit().unwrap();
        db.checkpoint_and_truncate().unwrap();

        let standby = follower(StorageEnv::mem());
        ship_all(&db, &standby);
        // The shipped `Checkpoint` queued a snapshot job; the promotion
        // drains it itself.
        standby.promote().unwrap();
        let tx = standby.begin();
        assert!(tx.id() > txid, "promoted primary must not reuse txids");
        tx.abort();
    }

    #[test]
    fn wait_applied_times_out_and_wakes() {
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        let standby = follower(StorageEnv::mem());
        let mut tx = db.begin();
        tx.insert("t", row(1, "a")).unwrap();
        let lsn = tx.commit().unwrap();

        // Not shipped yet: the wait must time out.
        assert!(!standby.wait_applied(lsn, std::time::Duration::from_millis(10)));

        let waiter = {
            let standby = standby.clone();
            std::thread::spawn(move || {
                standby.wait_applied(lsn, std::time::Duration::from_secs(10))
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        ship_all(&db, &standby);
        assert!(waiter.join().unwrap(), "apply must wake freshness waiters");
    }

    #[test]
    fn follower_refuses_local_writes_until_promoted_in_place() {
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        let mut shipped = Vec::new();
        for i in 0..3i64 {
            let mut tx = db.begin();
            shipped.push(tx.id());
            tx.insert("t", row(i, "shipped")).unwrap();
            tx.commit().unwrap();
        }
        let standby = follower(StorageEnv::mem());
        ship_all(&db, &standby);
        let (applied, tail) = (standby.applied_lsn(), standby.state_id());

        let mut tx = standby.begin();
        tx.insert("t", row(10, "local")).unwrap();
        assert_eq!(tx.commit(), Err(DbError::Following));
        let mut tx = standby.begin();
        tx.insert("t", row(11, "local")).unwrap();
        assert_eq!(tx.commit_unforced(), Err(DbError::Following), "unforced too");
        // A read-only transaction logs nothing, so it commits.
        let tx = standby.begin();
        assert_eq!(tx.get("t", &Value::Int(0)).unwrap(), Some(row(0, "shipped").into()));
        assert_eq!(tx.commit(), Ok(tail));
        assert_eq!(standby.create_table(schema("u")), Err(DbError::Following));
        assert_eq!(standby.checkpoint(), Err(DbError::Following));
        assert_eq!((standby.applied_lsn(), standby.state_id()), (applied, tail), "nothing logged");
        assert_eq!(standby.count("t").unwrap(), 3);
        assert!(!standby.has_table("u"));
        assert_eq!(standby.wal_base_lsn(), 0);

        standby.promote().unwrap();
        let mut tx = standby.begin();
        assert!(shipped.iter().all(|id| tx.id() > *id), "no shipped txid is re-issued");
        tx.insert("t", row(10, "local")).unwrap();
        assert!(tx.commit().unwrap() > tail);
        standby.create_table(schema("u")).unwrap();
        standby.checkpoint().unwrap();
        assert_eq!(standby.count("t").unwrap(), 4);
        // The promoted database no longer takes shipped state.
        assert!(standby.apply(&db.wal_reader().read_from(0).unwrap()).is_err());
    }
}
