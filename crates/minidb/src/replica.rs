//! Apply-only standby mode: the receiving end of WAL shipping.
//!
//! A [`StandbyDb`] is a *follower of the primary's own code*, not a second
//! implementation of it. Its state is the recovery image
//! ([`SnapshotData`]) kept current by the same [`SnapshotData::redo`] crash
//! recovery runs; its log is an ordinary [`Wal`] that it never originates
//! records into — shipped frame bytes ([`ShippedFrames`]) are appended
//! *verbatim* ([`Wal::append_shipped`]), physical replication, so the
//! standby's retained log is byte-identical to the primary's over the
//! shared LSN range; its restart is the primary's open sequence
//! (`SnapshotData::recover`). Promotion is therefore trivial: open a normal
//! [`crate::Database`] on the standby's environment and ordinary recovery
//! sees an honest crash image of the primary as of the last applied frame
//! — by construction the state the standby itself was serving.
//!
//! # Checkpoint shipping and bounded standby logs
//!
//! Two mechanisms keep a standby's log from growing forever:
//!
//! * **Lockstep truncation** — when the standby applies a
//!   [`WalRecord::Checkpoint`] frame it schedules its *own* snapshot
//!   ([`write_snapshot`] of its image) covering the log below that frame,
//!   then truncates its log below it ([`Wal::truncate_below`]), so a
//!   primary with a retention budget bounds every standby automatically.
//!   The snapshot is written by a background snapshotter thread, *not*
//!   inside [`StandbyDb::apply`]: the image write is the slow part
//!   (full-state serialization plus a device sync), and doing it inline
//!   would stall the ship round — and with it the standby's applied
//!   watermark, which freshness-token readers wait on — for the whole
//!   image write. `apply` only enqueues the (coalescing) snapshot job;
//!   [`StandbyDb::wait_snapshot_idle`] exists for callers that need the
//!   retained-bytes bound to be visible (operators, tests), and dropping
//!   the `StandbyDb` drains the queue.
//! * **Checkpoint install** — a newly-provisioned or badly-lagging standby
//!   whose next frame was already truncated away on the primary receives
//!   the primary's latest checkpoint image instead
//!   ([`StandbyDb::install_checkpoint`], fed by
//!   [`ReplicationFeed::latest_checkpoint`]): it persists the image to its
//!   own snapshot slot, resets its log to empty at the image's base
//!   ([`Wal::reset_to`]), adopts the image as its state, and resumes
//!   tailing only the WAL suffix — *delta catch-up*, instead of replaying
//!   the primary's whole history.
//!
//! The standby serves read-committed lookups (token checks, file-entry
//! reads) but no transactions: there is no lock manager, no commit path,
//! no observers. Readers that need *read-your-writes*
//! freshness wait on [`StandbyDb::wait_applied`] for the standby to reach
//! their write's commit LSN.

use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::db::Database;
use crate::device::StorageEnv;
use crate::error::{DbError, DbResult};
use crate::snapshot::{latest_valid_snapshot, slot_for_generation, write_snapshot, SnapshotData};
use crate::table::TableStore;
use crate::value::{Row, Value};
use crate::wal::{Lsn, ShippedFrames, Wal, WalOptions, WalReader, WalRecord};

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

    /// Flushes the primary's unforced log tail ([`Database::flush`]) so it
    /// becomes shippable. The reader only ever shows durable frames, and an
    /// unforced record otherwise waits for the next forced append: a
    /// shipper calls this when its wait for growth times out, and before
    /// it declares the standbys caught up.
    pub fn flush(&self) -> DbResult<()> {
        self.db.flush()
    }

    /// The newest valid checkpoint image the primary has on disk, if any.
    /// May transiently return an older image (or `None`) while the primary
    /// is mid-checkpoint — a shipper simply retries on its next round.
    pub fn latest_checkpoint(&self) -> DbResult<Option<SnapshotData>> {
        latest_valid_snapshot(&self.db.inner().env, |_| true)
    }
}

struct StandbyInner {
    /// The standby's whole state: the recovery image as of the applied
    /// watermark, which is its `base_lsn` — next expected frame base,
    /// everything below is applied. `next_txid` rides along so a promotion after truncation never
    /// re-issues a transaction id.
    image: SnapshotData,
    /// Bumped by [`StandbyDb::install_checkpoint`]; a queued snapshot job
    /// from an older epoch is obsolete (the install superseded it) and the
    /// snapshotter discards it instead of snapshotting/truncating state
    /// the job was never about.
    epoch: u64,
}

/// One scheduled standby-side snapshot: write an image covering the log
/// below `cut`, then truncate below `cut`. Jobs coalesce — only the newest
/// checkpoint matters, since its image covers everything the older ones
/// would have.
#[derive(Clone, Copy)]
struct SnapJob {
    generation: u64,
    cut: Lsn,
    epoch: u64,
}

struct SnapQueue {
    pending: Option<SnapJob>,
    /// A job is being performed right now (popped but not finished).
    busy: bool,
    shutdown: bool,
}

/// State shared between the standby's callers and its snapshotter thread.
/// Lock order: `snap_io`, then `inner`, then the log's own mutex.
struct StandbyShared {
    env: StorageEnv,
    /// The standby's log: shipped bytes in, never a record of its own.
    wal: Wal,
    inner: Mutex<StandbyInner>,
    /// Signalled whenever the applied watermark advances
    /// ([`StandbyDb::wait_applied`]).
    applied_grew: Condvar,
    snap_queue: Mutex<SnapQueue>,
    /// Signalled on enqueue, job completion, and shutdown.
    snap_cv: Condvar,
    /// Serializes the snapshotter's copy-and-write with
    /// [`StandbyDb::install_checkpoint`]: both write images into the
    /// ping-pong slots, and a stale snapshot landing over (or tearing) the
    /// image an install just reset the log against would leave a restart
    /// with a log that starts above its newest image.
    snap_io: Mutex<()>,
}

/// A standby database continuously applying a primary's shipped WAL.
pub struct StandbyDb {
    shared: Arc<StandbyShared>,
    snapshotter: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl StandbyDb {
    /// Opens (or re-opens after a standby restart) the apply-only database
    /// with the primary's own open sequence: newest valid checkpoint image,
    /// then redo of whatever log suffix its devices already hold. A
    /// half-installed checkpoint (image durable, log not yet reset) is
    /// completed there too, so the install protocol is crash-safe end to
    /// end.
    pub fn open(env: StorageEnv) -> DbResult<StandbyDb> {
        let (wal, image) = SnapshotData::recover(&env, WalOptions::default(), None)?;
        let shared = Arc::new(StandbyShared {
            env,
            wal,
            inner: Mutex::new(StandbyInner { image, epoch: 0 }),
            applied_grew: Condvar::new(),
            snap_queue: Mutex::new(SnapQueue { pending: None, busy: false, shutdown: false }),
            snap_cv: Condvar::new(),
            snap_io: Mutex::new(()),
        });
        let snapshotter = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("standby-snapshotter".into())
                .spawn(move || shared.snapshot_loop())
                .map_err(|e| DbError::Io(e.to_string()))?
        };
        Ok(StandbyDb { shared, snapshotter: Mutex::new(Some(snapshotter)) })
    }

    /// Applies one shipped range: appends the raw bytes to the standby log,
    /// syncs, then redoes the decoded records. The range may not start
    /// *past* the applied watermark — that gap means frames were lost in
    /// shipping and the standby must refuse rather than diverge — but an
    /// overlap with already-applied frames is fine: the shipper re-sends
    /// from the slowest standby's position, so a faster standby skips the
    /// prefix it already holds (apply is idempotent per frame).
    ///
    /// A [`WalRecord::Checkpoint`] frame in the range makes the standby
    /// schedule its own snapshot covering the log below that frame and the
    /// truncation of its log below it — the lockstep-truncation half of
    /// checkpoint shipping (module docs). The snapshot itself is written
    /// by the snapshotter thread; this call only enqueues the job, so a
    /// slow snapshot device never stalls the ship round.
    pub fn apply(&self, frames: &ShippedFrames) -> DbResult<()> {
        let mut inner = self.shared.inner.lock();
        let applied = inner.image.base_lsn;
        if frames.is_empty() {
            return Ok(());
        }
        if frames.base > applied {
            return Err(DbError::InvalidTxnState(format!(
                "standby expects frames at lsn {applied}, got {} (ship gap)",
                frames.base
            )));
        }
        if frames.end <= applied {
            return Ok(()); // full resend of applied frames: nothing to do
        }
        // The applied watermark always sits on a frame boundary, so the
        // byte skip is exactly the already-applied frame prefix.
        let skip = (applied - frames.base) as usize;
        self.shared.wal.append_shipped(applied, &frames.bytes[skip..])?;
        let mut checkpoint_cut: Option<(u64, Lsn)> = None;
        for (lsn, rec) in &frames.records {
            if *lsn < applied {
                continue;
            }
            if let WalRecord::Checkpoint { generation } = rec {
                checkpoint_cut = Some((*generation, *lsn));
            }
            inner.image.redo(rec)?;
        }
        inner.image.base_lsn = frames.end;
        if let Some((generation, cut)) = checkpoint_cut {
            // Coalescing enqueue: a newer checkpoint's image covers
            // everything an older pending one would have, so the newest
            // job simply replaces whatever is queued.
            let mut q = self.shared.snap_queue.lock();
            q.pending = Some(SnapJob { generation, cut, epoch: inner.epoch });
            self.shared.snap_cv.notify_all();
        }
        self.shared.applied_grew.notify_all();
        Ok(())
    }

    /// Installs a primary checkpoint image: delta catch-up for a standby
    /// whose next frame was truncated away on the primary (or a freshly
    /// provisioned one). Persists the image into the standby's own
    /// snapshot slot, resets the log to empty at the image's base, and
    /// adopts the image as the in-memory state. Returns `false` (and
    /// changes nothing) when the standby is already at or past the image —
    /// the shipper then just resumes framing. Crash-safe: the image is
    /// durable before the log reset, and [`StandbyDb::open`] completes a
    /// reset that a crash interrupted.
    pub fn install_checkpoint(&self, snap: &SnapshotData) -> DbResult<bool> {
        // Before `inner`: the snapshotter holds the slots across its own
        // copy-and-write, so no snapshot of pre-install state can land
        // after this image (see `StandbyShared::snap_io`).
        let _slots = self.shared.snap_io.lock();
        let mut inner = self.shared.inner.lock();
        if snap.base_lsn <= inner.image.base_lsn {
            return Ok(false);
        }
        write_snapshot(
            &self.shared.env.device(slot_for_generation(snap.generation))?,
            snap.into(),
        )?;
        self.shared.wal.reset_to(snap.base_lsn)?;
        inner.image = snap.clone();
        // Obsolete any queued snapshot job: it described a pre-install
        // checkpoint cut that the log reset just superseded.
        inner.epoch += 1;
        self.shared.applied_grew.notify_all();
        Ok(true)
    }

    /// Blocks until the snapshotter has no queued or in-flight job, or
    /// `timeout` elapses; returns whether it went idle. After a `true`
    /// return (with no new checkpoints shipping concurrently), the
    /// retained-bytes bound from the last shipped checkpoint is visible —
    /// the wait operators and tests use before asserting on
    /// [`StandbyDb::wal_retained_bytes`].
    pub fn wait_snapshot_idle(&self, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut q = self.shared.snap_queue.lock();
        while q.pending.is_some() || q.busy {
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            if self.shared.snap_cv.wait_for(&mut q, deadline - now).timed_out()
                && (q.pending.is_some() || q.busy)
            {
                return false;
            }
        }
        true
    }

    /// One past the last applied byte (lag = primary durable − this).
    pub fn applied_lsn(&self) -> Lsn {
        self.shared.inner.lock().image.base_lsn
    }

    /// Snapshotter backlog: queued plus in-progress snapshot jobs (0–2;
    /// jobs coalesce, so `pending` never holds more than one). A depth
    /// stuck at 2 means checkpoints arrive faster than images are written.
    pub fn snapshot_queue_depth(&self) -> usize {
        let q = self.shared.snap_queue.lock();
        usize::from(q.pending.is_some()) + usize::from(q.busy)
    }

    /// Blocks until the applied watermark reaches `lsn` or `timeout`
    /// elapses; returns whether the standby caught up. The read-your-writes
    /// wait: a reader holding the commit LSN of its last write as a
    /// freshness token parks here before reading from this standby.
    pub fn wait_applied(&self, lsn: Lsn, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.shared.inner.lock();
        while inner.image.base_lsn < lsn {
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            if self.shared.applied_grew.wait_for(&mut inner, deadline - now).timed_out()
                && inner.image.base_lsn < lsn
            {
                return false;
            }
        }
        true
    }

    /// A copy of the standby's whole state: its recovery image as of the
    /// applied watermark — what its next snapshot would persist, and what a
    /// promotion's recovery reaches from its disks.
    pub fn image(&self) -> SnapshotData {
        self.shared.inner.lock().image.clone()
    }

    /// The standby's log low-water mark (0 until its first truncation).
    pub fn wal_base_lsn(&self) -> Lsn {
        self.shared.wal.base_lsn()
    }

    /// Bytes of log the standby currently retains (`applied − base`): the
    /// quantity checkpoint shipping keeps bounded (once the snapshotter
    /// performed the truncation — [`StandbyDb::wait_snapshot_idle`]).
    pub fn wal_retained_bytes(&self) -> u64 {
        self.shared.wal.retained_bytes()
    }

    /// The standby's storage environment. Promotion opens a normal
    /// [`crate::Database`] on a clone of this.
    pub fn env(&self) -> &StorageEnv {
        &self.shared.env
    }

    // --- read-committed lookups (mirrors Database's helpers) ---------------

    /// Whether the replicated catalog has a table `name`.
    pub fn has_table(&self, name: &str) -> bool {
        self.shared.inner.lock().image.tables.contains_key(name)
    }

    /// Reads `table` of the replicated catalog under the state lock.
    fn with_table<T>(&self, table: &str, read: impl FnOnce(&TableStore) -> T) -> DbResult<T> {
        let inner = self.shared.inner.lock();
        let store = inner.image.tables.get(table);
        store.map(read).ok_or_else(|| DbError::NoSuchTable(table.to_string()))
    }

    /// Point lookup of the replicated committed row at `key`.
    pub fn get_committed(&self, table: &str, key: &Value) -> DbResult<Option<Row>> {
        self.with_table(table, |store| store.get(key).cloned())
    }

    /// All replicated committed rows of `table`.
    pub fn scan_committed(&self, table: &str) -> DbResult<Vec<Row>> {
        self.with_table(table, |store| store.iter().map(|(_, row)| row.clone()).collect())
    }

    /// Replicated committed row count of `table`.
    pub fn count(&self, table: &str) -> DbResult<usize> {
        self.with_table(table, TableStore::len)
    }
}

impl Drop for StandbyDb {
    /// Signals shutdown and joins the snapshotter, which drains any queued
    /// job first — so dropping a standby (node restart in tests, graceful
    /// stop in `dl-repl`) leaves the last shipped checkpoint's snapshot
    /// and truncation durable on disk.
    fn drop(&mut self) {
        self.shared.snap_queue.lock().shutdown = true;
        self.shared.snap_cv.notify_all();
        if let Some(handle) = self.snapshotter.lock().take() {
            let _ = handle.join();
        }
    }
}

impl StandbyShared {
    /// The snapshotter thread body: pop the (coalesced) job, perform it,
    /// repeat. On shutdown it drains a pending job before exiting.
    fn snapshot_loop(&self) {
        loop {
            let job = {
                let mut q = self.snap_queue.lock();
                loop {
                    if let Some(job) = q.pending.take() {
                        q.busy = true;
                        break job;
                    }
                    if q.shutdown {
                        return;
                    }
                    self.snap_cv.wait(&mut q);
                }
            };
            // A failed snapshot leaves the standby's log unbounded but its
            // state correct; the next shipped checkpoint retries. There is
            // nowhere structured to report the error to from a detached
            // thread, so it is intentionally dropped.
            let _ = self.perform_snapshot(job);
            let mut q = self.snap_queue.lock();
            q.busy = false;
            self.snap_cv.notify_all();
        }
    }

    /// Writes one standby-side snapshot and truncates the log below the
    /// job's cut. Clones the image under a brief lock, then performs the
    /// slow image write with only the slots held so `apply` keeps
    /// streaming; the epoch is re-checked before truncation in case a
    /// checkpoint install replaced the world in between.
    fn perform_snapshot(&self, job: SnapJob) -> DbResult<()> {
        {
            let _slots = self.snap_io.lock();
            let image = {
                let inner = self.inner.lock();
                if inner.epoch != job.epoch {
                    return Ok(());
                }
                // The applied watermark (the clone's `base_lsn`) sits on a
                // frame boundary and the image covers everything below it —
                // a valid (and possibly fresher-than-the-cut) snapshot base.
                SnapshotData { generation: job.generation, ..inner.image.clone() }
            };
            write_snapshot(
                &self.env.device(slot_for_generation(job.generation))?,
                (&image).into(),
            )?;
        }
        let inner = self.inner.lock();
        if inner.epoch == job.epoch {
            self.wal.truncate_below(job.cut)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DbOptions;
    use crate::value::{Column, ColumnType, Schema};
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

    /// Ships everything durable on `db` into `standby`, installing a
    /// checkpoint when the frames were truncated away — the same protocol
    /// `dl-repl`'s shipper runs.
    fn ship_all(db: &Database, standby: &StandbyDb) {
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
        let standby = StandbyDb::open(StorageEnv::mem()).unwrap();

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

        let standby = StandbyDb::open(StorageEnv::mem()).unwrap();
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

        let standby = StandbyDb::open(StorageEnv::mem()).unwrap();
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
    fn promotion_opens_a_normal_database_on_the_standby_env() {
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        let mut tx = db.begin();
        tx.insert("t", row(7, "keep")).unwrap();
        tx.commit().unwrap();

        let standby = StandbyDb::open(StorageEnv::mem()).unwrap();
        ship_all(&db, &standby);

        let promoted = Database::open(standby.env().clone()).unwrap();
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
            let standby = StandbyDb::open(standby_env.clone()).unwrap();
            ship_all(&db, &standby);
            standby.applied_lsn()
        };
        // Standby restarts (crash of the replica node): state replays.
        let standby = StandbyDb::open(standby_env).unwrap();
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
        let standby = StandbyDb::open(StorageEnv::mem()).unwrap();

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
        let standby = StandbyDb::open(StorageEnv::mem()).unwrap();
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
        let standby = StandbyDb::open(StorageEnv::mem()).unwrap();
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
            assert!(standby.wait_snapshot_idle(std::time::Duration::from_secs(10)));
            assert_eq!(standby.wal_base_lsn(), db.wal_base_lsn());
            assert_eq!(standby.wal_retained_bytes(), db.wal_retained_bytes());
        }
        assert_eq!(standby.count("t").unwrap(), 30);

        // A standby restart after lockstep truncation recovers from its own
        // snapshot + suffix.
        let env = standby.env().clone();
        drop(standby);
        let standby = StandbyDb::open(env).unwrap();
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
        let standby =
            StandbyDb::open(StorageEnv::mem_with_sync_latency(SYNC_LATENCY.as_nanos() as u64))
                .unwrap();
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
        assert!(standby.wait_snapshot_idle(std::time::Duration::from_secs(30)));
        assert_eq!(standby.wal_base_lsn(), db.wal_base_lsn());
        assert_eq!(standby.count("t").unwrap(), 50);

        // And a restart recovers from the async-written snapshot + suffix.
        let env = standby.env().clone();
        drop(standby);
        let standby = StandbyDb::open(env).unwrap();
        assert_eq!(standby.count("t").unwrap(), 50);
        assert_eq!(standby.applied_lsn(), db.durable_lsn());
    }

    #[test]
    fn install_checkpoint_is_skipped_when_already_ahead() {
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        let standby = StandbyDb::open(StorageEnv::mem()).unwrap();
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
            let standby = StandbyDb::open(env.clone()).unwrap();
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

        let standby = StandbyDb::open(env.fork().unwrap()).unwrap();
        assert_eq!(standby.applied_lsn(), snap.base_lsn);
        assert_eq!(standby.wal_base_lsn(), snap.base_lsn);
        assert_eq!(standby.wal_retained_bytes(), 0);
        assert_eq!(standby.count("t").unwrap(), 10);
        ship_all(&db, &standby);
        assert_eq!(standby.applied_lsn(), db.durable_lsn(), "shipping resumes at the image");

        let promoted_env = env.fork().unwrap();
        let promoted = Database::open(promoted_env.clone()).unwrap();
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

        let standby = StandbyDb::open(StorageEnv::mem()).unwrap();
        ship_all(&db, &standby);
        // Promotion opens disks nobody writes any more: let the snapshot
        // job the shipped `Checkpoint` queued finish first.
        assert!(standby.wait_snapshot_idle(std::time::Duration::from_secs(10)));
        let promoted = Database::open(standby.env().clone()).unwrap();
        let tx = promoted.begin();
        assert!(tx.id() > txid, "promoted primary must not reuse txids");
        tx.abort();
    }

    #[test]
    fn unlogged_rows_reach_no_standby_by_frames_or_by_image() {
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        db.create_table(schema("u").unlogged()).unwrap();
        db.create_index("u", "v").unwrap();
        let mut tx = db.begin();
        tx.insert("t", row(1, "durable")).unwrap();
        tx.insert("u", row(1, "transient")).unwrap();
        tx.commit().unwrap();

        // Frame shipping, then promotion.
        let tailing = StandbyDb::open(StorageEnv::mem()).unwrap();
        ship_all(&db, &tailing);
        // Checkpoint install (the frames are gone), then promotion.
        db.checkpoint_and_truncate().unwrap();
        let installed = StandbyDb::open(StorageEnv::mem()).unwrap();
        ship_all(&db, &installed);
        assert!(installed.wal_base_lsn() > 0, "caught up from the image");

        for standby in [tailing, installed] {
            assert_eq!(standby.count("t").unwrap(), 1);
            assert_eq!(standby.count("u").unwrap(), 0);
            let promoted = Database::open(standby.env().clone()).unwrap();
            assert_eq!(promoted.count("t").unwrap(), 1);
            assert!(promoted.schema("u").unwrap().unlogged);
            assert_eq!(promoted.count("u").unwrap(), 0);
            assert!(promoted.inner().tables.read()["u"].has_index("v"));
        }
        assert_eq!(db.count("u").unwrap(), 1, "the live primary keeps its rows");
    }

    #[test]
    fn wait_applied_times_out_and_wakes() {
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        let standby = Arc::new(StandbyDb::open(StorageEnv::mem()).unwrap());
        let mut tx = db.begin();
        tx.insert("t", row(1, "a")).unwrap();
        let lsn = tx.commit().unwrap();

        // Not shipped yet: the wait must time out.
        assert!(!standby.wait_applied(lsn, std::time::Duration::from_millis(10)));

        let waiter = {
            let standby = Arc::clone(&standby);
            std::thread::spawn(move || {
                standby.wait_applied(lsn, std::time::Duration::from_secs(10))
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        ship_all(&db, &standby);
        assert!(waiter.join().unwrap(), "apply must wake freshness waiters");
    }
}
