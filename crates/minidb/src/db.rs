//! The database facade: open/recover, DDL, transactions, checkpoints,
//! observers, 2PC participant registry, and read-committed helpers — of a
//! primary, or of a follower of one (`crate::replica`), which refuses local
//! logged writes until promoted.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::device::StorageEnv;
use crate::error::{DbError, DbResult};
use crate::lock::LockManager;
use crate::ops::RowOp;
use crate::replica::{Follow, ReplicationFeed, Snapshotter};
use crate::snapshot::{slot_for_generation, write_snapshot, SnapshotData, SnapshotSource};
use crate::table::TableStore;
use crate::txn::Txn;
use crate::value::{Row, Schema, SharedRow, Value};
use crate::wal::{Lsn, TxId, Wal, WalOptions, WalRecord};

/// Kind of DML statement reported to observers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Insert,
    Update,
    Delete,
}

/// A DML event delivered to observers *during statement execution*, inside
/// the transaction — the interception point the DataLinks engine uses to
/// turn DATALINK column changes into link/unlink sub-transactions (§2.2).
pub struct DmlEvent<'a> {
    pub txid: TxId,
    pub table: &'a str,
    pub kind: OpKind,
    pub key: &'a Value,
    pub before: Option<&'a [Value]>,
    pub after: Option<&'a [Value]>,
}

/// Synchronous DML hook. Returning `Err` vetoes the statement (the
/// transaction stays alive; the statement reports [`DbError::Vetoed`]).
pub trait DmlObserver: Send + Sync {
    fn on_dml(&self, db: &Database, event: &DmlEvent<'_>) -> Result<(), String>;
}

/// A two-phase-commit participant enlisted in a host transaction. DLFM
/// child agents implement this so link/unlink work commits and aborts with
/// the host SQL transaction (§2.2). There is no prepare round: a
/// participant votes before it is asked — DLFM forces its intent before it
/// answers the statement — and is only told the decision.
pub trait Participant: Send + Sync {
    /// The transaction committed. Must succeed (retries are internal).
    fn commit(&self, txid: TxId);
    /// The transaction aborted. Must be idempotent.
    fn abort(&self, txid: TxId);
}

/// A DML statement injected into a running transaction by an observer.
#[derive(Debug, Clone, PartialEq)]
pub enum InjectedDml {
    /// Insert the row, or replace the existing row with the same key.
    Upsert { table: String, row: Row },
    /// Delete the row at `key`; a missing row is not an error.
    Delete { table: String, key: Value },
}

/// Options for opening a database.
#[derive(Debug, Clone, Copy, Default)]
pub struct DbOptions {
    /// Replay the log only up to (and including) this LSN — point-in-time
    /// restore (§4.4 coordinated backup and recovery).
    pub stop_at_lsn: Option<Lsn>,
    /// Commit durability policy: group commit (default) or per-commit sync,
    /// batch bound and optional commit-delay window. See [`WalOptions`].
    pub wal: WalOptions,
    /// Log retention budget in bytes. A commit that leaves more than this
    /// many log bytes retained triggers an automatic
    /// [`Database::checkpoint_and_truncate`], keeping the log (and every
    /// standby log fed from it) bounded under sustained write load.
    ///
    /// Zero (the default) **self-tunes**: the effective budget is
    /// `max(128 KiB, 4 x last snapshot size)`, so small databases never
    /// checkpoint just for churn noise while large ones bound their log
    /// to a small multiple of the work a recovery replay would cost.
    /// [`DbOptions::NO_AUTO_CHECKPOINT`] disables automatic checkpointing
    /// entirely (the pre-self-tuning opt-out — full-replay experiments
    /// and deep point-in-time restores need the log intact). Note:
    /// truncation limits point-in-time restore to states at or above the
    /// low-water mark.
    pub checkpoint_every_bytes: u64,
}

impl DbOptions {
    /// Sentinel for [`DbOptions::checkpoint_every_bytes`]: never
    /// checkpoint automatically; the log grows until an explicit
    /// [`Database::checkpoint_and_truncate`].
    pub const NO_AUTO_CHECKPOINT: u64 = u64::MAX;

    /// Floor of the self-tuned retention budget: below this much retained
    /// log, replay is so cheap that truncation is pure overhead.
    pub const AUTO_CHECKPOINT_FLOOR: u64 = 128 * 1024;
}

/// One transaction's participants, keyed by deduplication name, and
/// whether [`Database::abort_undecided`] aborted it.
#[derive(Default)]
pub(crate) struct Enlisted {
    pub(crate) participants: Vec<(String, Arc<dyn Participant>)>,
    pub(crate) aborted: bool,
}

pub(crate) struct DbInner {
    pub(crate) env: StorageEnv,
    pub(crate) wal: Wal,
    pub(crate) tables: RwLock<HashMap<String, TableStore>>,
    pub(crate) locks: LockManager,
    pub(crate) next_txid: AtomicU64,
    observers: RwLock<Vec<Arc<dyn DmlObserver>>>,
    participants: Mutex<HashMap<TxId, Enlisted>>,
    /// Commit pipeline gate: committers hold it *shared* across log append
    /// and table apply (so they group-commit concurrently); checkpoints and
    /// backups take it *exclusive* to quiesce the pipeline and observe a
    /// state where the log tail and the committed stores agree, and
    /// [`Database::abort_undecided`] to find each transaction either
    /// decided and applied or not yet deciding.
    pub(crate) commit_latch: RwLock<()>,
    snapshot_gen: AtomicU64,
    /// Observer-injected statements awaiting pickup by their transaction.
    injected: Mutex<HashMap<TxId, Vec<InjectedDml>>>,
    /// The options it opened with (its followers open with them too).
    pub(crate) opts: DbOptions,
    /// Serialized size of the newest snapshot (0 = none yet) — what the
    /// self-tuned retention budget keys off.
    last_snapshot_bytes: AtomicU64,
    /// At most one automatic checkpoint runs at a time.
    checkpoint_running: AtomicBool,
    /// Checkpoint telemetry (see [`DbTelemetry`]).
    telemetry: DbTelemetry,
    pub(crate) follow: Follow,
}

/// Telemetry handles for one database, beyond what the WAL itself records
/// ([`crate::wal::WalTelemetry`]): shared `Arc`s a metric registry adopts.
#[derive(Clone)]
pub struct DbTelemetry {
    /// Wall-clock duration of each checkpoint (snapshot write + log
    /// record), in nanoseconds. Checkpoints run under the exclusive commit
    /// latch, so this is also how long the commit pipeline stalls.
    pub checkpoint_ns: Arc<dl_obs::Histogram>,
    /// Serialized size of the newest snapshot, in bytes.
    pub checkpoint_bytes: Arc<dl_obs::Gauge>,
}

impl DbTelemetry {
    fn new() -> DbTelemetry {
        DbTelemetry {
            checkpoint_ns: Arc::new(dl_obs::Histogram::new()),
            checkpoint_bytes: Arc::new(dl_obs::Gauge::new()),
        }
    }
}

/// Handle to a database. Clone freely; all clones share state.
#[derive(Clone)]
pub struct Database {
    pub(crate) inner: Arc<DbInner>,
    pub(crate) snapshotter: Arc<Snapshotter>,
}

/// Applies one logical op to the committed stores, moving its row in. Used
/// by live commits and by log replay; replay trusts the log and skips
/// validation.
pub(crate) fn apply_op(tables: &mut HashMap<String, TableStore>, op: RowOp) -> DbResult<()> {
    fn store<'a>(
        tables: &'a mut HashMap<String, TableStore>,
        table: &str,
    ) -> DbResult<&'a mut TableStore> {
        tables.get_mut(table).ok_or_else(|| DbError::NoSuchTable(table.to_string()))
    }
    match op {
        RowOp::CreateTable(schema) => {
            tables.entry(schema.table.clone()).or_insert_with(|| TableStore::new(schema));
        }
        RowOp::DropTable(name) => {
            tables.remove(&name);
        }
        RowOp::CreateIndex { table, column } => store(tables, &table)?.create_index(&column)?,
        RowOp::Insert { table, row } => store(tables, &table)?.apply_insert(row),
        RowOp::Update { table, key, row } => store(tables, &table)?.apply_update(key, row),
        RowOp::Delete { table, key } => store(tables, &table)?.apply_delete(&key),
    }
    Ok(())
}

impl DbInner {
    /// Records the newest image on disk (a checkpoint's, a follower's
    /// snapshot or install): the next checkpoint takes the generation after
    /// it, and the self-tuned retention budget keys off its size.
    pub(crate) fn note_snapshot(&self, generation: u64, bytes: u64) {
        self.snapshot_gen.fetch_max(generation, Ordering::SeqCst);
        self.last_snapshot_bytes.store(bytes, Ordering::SeqCst);
        self.telemetry.checkpoint_bytes.set(bytes.min(i64::MAX as u64) as i64);
    }
}

impl Database {
    /// Opens (and recovers) a database from `env`.
    pub fn open(env: StorageEnv) -> DbResult<Database> {
        Self::open_with(env, DbOptions::default())
    }

    /// Opens with options; `stop_at_lsn` gives point-in-time restore.
    /// Restores below the log's checkpoint low-water mark are impossible
    /// (the records are truncated away) and report
    /// [`DbError::TruncatedLog`].
    pub fn open_with(env: StorageEnv, opts: DbOptions) -> DbResult<Database> {
        // One recovery rule for every open (`SnapshotData::recover`): the
        // newest usable image, then `redo` of the retained log above it.
        let (wal, image) = SnapshotData::recover(&env, opts.wal, opts.stop_at_lsn)?;
        let generation = image.generation;

        // Seed the self-tuning checkpoint budget from the snapshot we
        // recovered off (its slot device length is its serialized size).
        let last_snapshot_bytes =
            if generation > 0 { env.device(slot_for_generation(generation))?.len()? } else { 0 };

        Ok(Database {
            inner: Arc::new(DbInner {
                env,
                wal,
                tables: RwLock::new(image.tables),
                locks: LockManager::new(),
                next_txid: AtomicU64::new(image.next_txid),
                observers: RwLock::new(Vec::new()),
                participants: Mutex::new(HashMap::new()),
                commit_latch: RwLock::new(()),
                snapshot_gen: AtomicU64::new(generation),
                injected: Mutex::new(HashMap::new()),
                opts,
                last_snapshot_bytes: AtomicU64::new(last_snapshot_bytes),
                checkpoint_running: AtomicBool::new(false),
                telemetry: DbTelemetry::new(),
                follow: Follow::new(image.base_lsn),
            }),
            snapshotter: Arc::default(),
        })
    }

    /// The storage environment this database lives in.
    pub fn env(&self) -> &StorageEnv {
        &self.inner.env
    }

    /// A follower's log holds the primary's bytes only: it takes no local
    /// logged write, DDL or checkpoint.
    pub(crate) fn refuse_if_following(&self) -> DbResult<()> {
        match self.inner.follow.is_following() {
            true => Err(DbError::Following),
            false => Ok(()),
        }
    }

    // --- DDL (auto-committed) ----------------------------------------------

    /// Creates a table. DDL is auto-committed and logged.
    pub fn create_table(&self, schema: Schema) -> DbResult<()> {
        self.refuse_if_following()?;
        let mut tables = self.inner.tables.write();
        if tables.contains_key(&schema.table) {
            return Err(DbError::TableExists(schema.table));
        }
        let op = RowOp::CreateTable(schema);
        self.inner.wal.append(&WalRecord::Ddl(op.clone()))?;
        apply_op(&mut tables, op)
    }

    /// Creates a secondary index on `table.column`, back-filling it.
    pub fn create_index(&self, table: &str, column: &str) -> DbResult<()> {
        self.refuse_if_following()?;
        let mut tables = self.inner.tables.write();
        let store = tables.get_mut(table).ok_or_else(|| DbError::NoSuchTable(table.to_string()))?;
        if !store.schema.columns.iter().any(|c| c.name == column) {
            return Err(DbError::NoSuchColumn(column.to_string()));
        }
        let op = RowOp::CreateIndex { table: table.to_string(), column: column.to_string() };
        self.inner.wal.append(&WalRecord::Ddl(op))?;
        store.create_index(column)
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.inner.tables.read().contains_key(name)
    }

    /// The table's schema: the one shared copy the table store holds.
    pub fn schema(&self, table: &str) -> DbResult<Arc<Schema>> {
        self.read_store(table, |store| Arc::clone(&store.schema))
    }

    // --- Transactions -------------------------------------------------------

    /// Begins a transaction.
    pub fn begin(&self) -> Txn {
        let id = self.inner.next_txid.fetch_add(1, Ordering::SeqCst);
        Txn::new(self.clone(), id)
    }

    /// Registers a DML observer (e.g. the DataLinks engine).
    pub fn register_observer(&self, obs: Arc<dyn DmlObserver>) {
        self.inner.observers.write().push(obs);
    }

    pub(crate) fn notify_observers(&self, event: &DmlEvent<'_>) -> DbResult<()> {
        let observers = self.inner.observers.read().clone();
        for obs in observers {
            obs.on_dml(self, event).map_err(DbError::Vetoed)?;
        }
        Ok(())
    }

    /// Queues a DML statement to be executed *by transaction `txid` itself*
    /// right after the current statement completes. This is how an observer
    /// (which only holds `&Database`) adds system-table maintenance to the
    /// transaction that triggered it — the DataLinks engine keeps its
    /// `__dl_meta` rows consistent "within the same transaction context"
    /// (§4.3) through this hook. Injected statements take normal locks but
    /// do not re-notify observers.
    pub fn inject_dml(&self, txid: TxId, dml: InjectedDml) {
        self.inner.injected.lock().entry(txid).or_default().push(dml);
    }

    pub(crate) fn take_injected(&self, txid: TxId) -> Vec<InjectedDml> {
        self.inner.injected.lock().remove(&txid).unwrap_or_default()
    }

    pub(crate) fn clear_injected(&self, txid: TxId) {
        self.inner.injected.lock().remove(&txid);
    }

    /// Enlists a 2PC participant in transaction `txid`; `name` deduplicates
    /// (one DLFM agent per file server per transaction).
    pub fn enlist_participant(&self, txid: TxId, name: &str, p: Arc<dyn Participant>) {
        let mut map = self.inner.participants.lock();
        let list = &mut map.entry(txid).or_default().participants;
        if !list.iter().any(|(n, _)| n == name) {
            list.push((name.to_string(), p));
        }
    }

    pub(crate) fn has_participants(&self, txid: TxId) -> bool {
        self.inner.participants.lock().contains_key(&txid)
    }

    pub(crate) fn take_participants(&self, txid: TxId) -> Enlisted {
        self.inner.participants.lock().remove(&txid).unwrap_or_default()
    }

    /// Aborts transaction `txid` if it enlisted a participant and has not
    /// decided: its commit fails with [`DbError::Aborted`] and tells its
    /// participants so. Runs under the exclusive commit latch, which a
    /// deciding commit holds shared until its rows are applied, so on
    /// return the transaction has applied its rows or never will — what a
    /// participant needs before it settles a branch by the host's rows.
    pub fn abort_undecided(&self, txid: TxId) -> bool {
        let _latch = self.inner.commit_latch.write();
        self.inner.participants.lock().get_mut(&txid).map(|e| e.aborted = true).is_some()
    }

    /// [`Database::abort_undecided`] for every transaction that enlisted
    /// the participant named `name`: all that may hold a branch on a lost
    /// resource manager.
    pub fn abort_undecided_enlisting(&self, name: &str) {
        let _latch = self.inner.commit_latch.write();
        for enlisted in self.inner.participants.lock().values_mut() {
            enlisted.aborted |= enlisted.participants.iter().any(|(n, _)| n == name);
        }
    }

    // --- Durability management ----------------------------------------------

    /// The current tail LSN — the paper's "database state identifier".
    pub fn state_id(&self) -> Lsn {
        self.inner.wal.tail_lsn()
    }

    /// One past the last byte the log has durably synced. Trails
    /// [`Database::state_id`] while a commit is in flight or an unforced
    /// record ([`Txn::commit_unforced`]) waits for the next flush.
    pub fn durable_lsn(&self) -> Lsn {
        self.inner.wal.durable_lsn()
    }

    /// Makes the whole log tail durable ([`crate::wal::Wal::flush`]); a
    /// no-op when nothing is pending. Unforced records need no flush for
    /// correctness — recovery re-derives them — so this is for whoever
    /// wants the tail *itself* on disk: a replication shipper with nothing
    /// else to wake it, a drain that compares LSNs, a clean shutdown.
    pub fn flush(&self) -> DbResult<()> {
        self.inner.wal.flush()
    }

    /// The log's checkpoint low-water mark (0 until the first truncation).
    pub fn wal_base_lsn(&self) -> Lsn {
        self.inner.wal.base_lsn()
    }

    /// Bytes of log currently retained (`tail − base`) — what
    /// [`DbOptions::checkpoint_every_bytes`] budgets against.
    pub fn wal_retained_bytes(&self) -> u64 {
        self.inner.wal.retained_bytes()
    }

    /// Checkpoint telemetry handles (see [`DbTelemetry`]).
    pub fn telemetry(&self) -> DbTelemetry {
        self.inner.telemetry.clone()
    }

    /// The WAL's telemetry handles: fsync latency and group-commit batch
    /// sizes (see [`crate::wal::WalTelemetry`]).
    pub fn wal_telemetry(&self) -> crate::wal::WalTelemetry {
        self.inner.wal.telemetry().clone()
    }

    /// A tail-reading handle over this database's live WAL, fed by the
    /// group-commit leader after every batch sync — the feed a replication
    /// shipper tails (see [`crate::wal::WalReader`] and `Database::apply`).
    pub fn wal_reader(&self) -> crate::wal::WalReader {
        self.inner.wal.reader()
    }

    /// The full replication feed: the WAL reader plus access to this
    /// database's checkpoint images, so a shipper can fall back to
    /// *checkpoint shipping* (install the latest snapshot, then tail the
    /// suffix) when the frames it needs were truncated away.
    pub fn replication_feed(&self) -> ReplicationFeed {
        ReplicationFeed::new(self.clone())
    }

    /// Writes a snapshot to the older ping-pong slot and logs a checkpoint.
    /// Returns the new snapshot generation. Since format v2 the snapshot is
    /// a complete recovery image (tables and next transaction id), which is
    /// what makes the
    /// follow-up [`Database::checkpoint_and_truncate`] safe.
    pub fn checkpoint(&self) -> DbResult<u64> {
        self.checkpoint_inner().map(|(generation, _)| generation)
    }

    /// Checkpoints, then truncates the log below the snapshot's base —
    /// the low-water mark. Returns `(generation, new log base)`. Everything
    /// a future recovery needs from below the base now lives in the
    /// snapshot; the `Checkpoint` record itself stays in the log (it is the
    /// first retained record), so standbys tailing the log observe the
    /// checkpoint and bound their own logs in lockstep.
    pub fn checkpoint_and_truncate(&self) -> DbResult<(u64, Lsn)> {
        let (generation, base_lsn) = self.checkpoint_inner()?;
        let new_base = self.inner.wal.truncate_below(base_lsn)?;
        Ok((generation, new_base))
    }

    fn checkpoint_inner(&self) -> DbResult<(u64, Lsn)> {
        self.refuse_if_following()?;
        let _latch = self.inner.commit_latch.write();
        let started = std::time::Instant::now();
        let generation = self.inner.snapshot_gen.load(Ordering::SeqCst) + 1;
        let dev = self.inner.env.device(slot_for_generation(generation))?;
        // The image below is of the in-memory tables, which already hold
        // the effects of unforced records still in the batch. Flush them
        // first: a crash between the snapshot sync and the `Checkpoint`
        // append must find a log that reaches the snapshot's base, or new
        // appends would land *below* it and be skipped by the next replay.
        self.inner.wal.flush()?;
        let base_lsn = self.inner.wal.tail_lsn();
        write_snapshot(
            &dev,
            SnapshotSource {
                generation,
                base_lsn,
                next_txid: self.inner.next_txid.load(Ordering::SeqCst),
                tables: &self.inner.tables.read(),
            },
        )?;
        self.inner.wal.append(&WalRecord::Checkpoint { generation })?;
        self.inner.note_snapshot(generation, dev.len()?);
        self.inner.telemetry.checkpoint_ns.record_duration(started.elapsed());
        Ok((generation, base_lsn))
    }

    /// The log-retention budget currently in force: the configured value,
    /// or — under the self-tuning default of 0 — `max(128 KiB, 4 x last
    /// snapshot size)`, so the retained log is bounded by a small multiple
    /// of what a recovery replay would re-derive from the snapshot anyway.
    pub fn effective_checkpoint_budget(&self) -> u64 {
        match self.inner.opts.checkpoint_every_bytes {
            0 => DbOptions::AUTO_CHECKPOINT_FLOOR
                .max(self.inner.last_snapshot_bytes.load(Ordering::SeqCst).saturating_mul(4)),
            n => n,
        }
    }

    /// Commit-path hook: when the log has outgrown the retention budget
    /// (configured or self-tuned — see
    /// [`Database::effective_checkpoint_budget`]), checkpoint-and-truncate
    /// once (concurrent committers skip rather than pile up behind the
    /// exclusive latch). Errors are deliberately swallowed: the commit
    /// itself already succeeded, and a failed automatic checkpoint
    /// surfaces on the next explicit one.
    pub(crate) fn maybe_auto_checkpoint(&self) {
        if self.inner.opts.checkpoint_every_bytes == DbOptions::NO_AUTO_CHECKPOINT {
            return;
        }
        let budget = self.effective_checkpoint_budget();
        if self.inner.wal.retained_bytes() <= budget {
            return;
        }
        if self.inner.checkpoint_running.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = self.checkpoint_and_truncate();
        self.inner.checkpoint_running.store(false, Ordering::SeqCst);
    }

    /// A moment-in-time backup: forks the storage environment under the
    /// commit latch so the copy is transaction-consistent, flushing any
    /// unforced log tail first so the copy holds the state the latch froze.
    pub fn backup(&self) -> DbResult<StorageEnv> {
        let _latch = self.inner.commit_latch.write();
        self.inner.wal.flush()?;
        self.inner.env.fork()
    }

    // --- Read-committed helpers (no locks) -----------------------------------

    /// Runs `f` over the committed store of `table`, under the tables read
    /// lock.
    pub(crate) fn read_store<T>(
        &self,
        table: &str,
        f: impl FnOnce(&TableStore) -> T,
    ) -> DbResult<T> {
        let tables = self.inner.tables.read();
        tables.get(table).map(f).ok_or_else(|| DbError::NoSuchTable(table.to_string()))
    }

    /// Reads the committed row at `key` without taking locks. The committed
    /// stores only change under the tables write lock (inside the shared
    /// commit latch), so this is a consistent read-committed point lookup.
    /// The row is the store's own, shared: a commit replaces it, never
    /// changes it in place.
    pub fn get_committed(&self, table: &str, key: &Value) -> DbResult<Option<SharedRow>> {
        self.read_store(table, |store| store.get(key).cloned())
    }

    /// Scans committed rows without locks.
    pub fn scan_committed(&self, table: &str) -> DbResult<Vec<Row>> {
        self.read_store(table, |store| store.iter().map(|(_, row)| row.to_vec()).collect())
    }

    /// Committed row count.
    pub fn count(&self, table: &str) -> DbResult<usize> {
        self.read_store(table, TableStore::len)
    }

    /// Committed primary keys whose `column` equals `value` (uses the index
    /// when present).
    pub fn find_committed(&self, table: &str, column: &str, value: &Value) -> DbResult<Vec<Value>> {
        self.read_store(table, |store| store.find_equal(column, value))?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Column, ColumnType};

    fn schema(name: &str) -> Schema {
        Schema::new(
            name,
            vec![Column::new("id", ColumnType::Int), Column::nullable("val", ColumnType::Text)],
            "id",
        )
        .unwrap()
    }

    fn row(id: i64, val: &str) -> Row {
        vec![Value::Int(id), Value::Text(val.into())]
    }

    #[test]
    fn try_lock_for_update_never_waits_for_a_held_row() {
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        let mut tx = db.begin();
        tx.insert("t", row(1, "a")).unwrap();
        tx.insert("t", row(2, "b")).unwrap();
        tx.commit().unwrap();

        let holder = db.begin();
        holder.get_for_update("t", &Value::Int(1)).unwrap();
        let mut other = db.begin();
        assert!(!other.try_lock_for_update("t", &Value::Int(1)).unwrap(), "row 1 is held");
        assert!(other.try_lock_for_update("t", &Value::Int(2)).unwrap(), "row 2 is free");
        other.update("t", &Value::Int(2), row(2, "b2")).unwrap();
        other.commit().unwrap();
        drop(holder);
        let again = db.begin();
        assert!(
            again.try_lock_for_update("t", &Value::Int(1)).unwrap(),
            "released with its holder"
        );
    }

    #[test]
    fn ddl_roundtrip_through_recovery() {
        let env = StorageEnv::mem();
        {
            let db = Database::open(env.clone()).unwrap();
            db.create_table(schema("t")).unwrap();
            db.create_index("t", "val").unwrap();
            assert!(db.has_table("t"));
            assert_eq!(db.create_table(schema("t")), Err(DbError::TableExists("t".into())));
        }
        let db = Database::open(env).unwrap();
        assert!(db.has_table("t"));
    }

    #[test]
    fn commit_survives_reopen_abort_does_not() {
        let env = StorageEnv::mem();
        {
            let db = Database::open(env.clone()).unwrap();
            db.create_table(schema("t")).unwrap();
            let mut tx = db.begin();
            tx.insert("t", row(1, "committed")).unwrap();
            tx.commit().unwrap();

            let mut tx2 = db.begin();
            tx2.insert("t", row(2, "aborted")).unwrap();
            tx2.abort();
        }
        let db = Database::open(env).unwrap();
        assert_eq!(db.count("t").unwrap(), 1);
        assert!(db.get_committed("t", &Value::Int(1)).unwrap().is_some());
        assert!(db.get_committed("t", &Value::Int(2)).unwrap().is_none());
    }

    #[test]
    fn checkpoint_then_more_commits_recovers_both() {
        let env = StorageEnv::mem();
        {
            let db = Database::open(env.clone()).unwrap();
            db.create_table(schema("t")).unwrap();
            let mut tx = db.begin();
            tx.insert("t", row(1, "before-ckpt")).unwrap();
            tx.commit().unwrap();
            db.checkpoint().unwrap();
            let mut tx = db.begin();
            tx.insert("t", row(2, "after-ckpt")).unwrap();
            tx.commit().unwrap();
        }
        let db = Database::open(env).unwrap();
        assert_eq!(db.count("t").unwrap(), 2);
    }

    #[test]
    fn double_checkpoint_ping_pongs() {
        let env = StorageEnv::mem();
        let db = Database::open(env.clone()).unwrap();
        db.create_table(schema("t")).unwrap();
        let g1 = db.checkpoint().unwrap();
        let g2 = db.checkpoint().unwrap();
        assert_eq!(g2, g1 + 1);
        let db2 = Database::open(env).unwrap();
        assert!(db2.has_table("t"));
    }

    #[test]
    fn self_tuned_default_bounds_the_log_under_sustained_churn() {
        // Nobody configured a budget: insert-then-delete churn appends far
        // more log than the floor, live data stays tiny, and the self-tuned
        // default must keep truncating without an explicit checkpoint.
        let env = StorageEnv::mem();
        let db = Database::open(env.clone()).unwrap();
        db.create_table(schema("t")).unwrap();
        assert_eq!(db.effective_checkpoint_budget(), DbOptions::AUTO_CHECKPOINT_FLOOR);

        let payload = "x".repeat(4096);
        let mut peak = 0u64;
        for i in 0..128i64 {
            let mut tx = db.begin();
            tx.insert("t", vec![Value::Int(i), Value::Text(payload.clone())]).unwrap();
            tx.commit().unwrap();
            let mut tx = db.begin();
            tx.delete("t", &Value::Int(i)).unwrap();
            tx.commit().unwrap();
            peak = peak.max(db.wal_retained_bytes());
        }

        assert!(db.wal_base_lsn() > 0, "churn alone must have triggered truncation");
        // The snapshot of a near-empty table stays under the floor, so the
        // effective budget is the floor; a committer can overshoot it by at
        // most the commit that noticed, before truncating synchronously.
        let slack = 2 * payload.len() as u64;
        assert!(
            peak <= DbOptions::AUTO_CHECKPOINT_FLOOR + slack,
            "retained log peaked at {peak} bytes against a {} budget",
            DbOptions::AUTO_CHECKPOINT_FLOOR
        );

        let db2 = Database::open(env).unwrap();
        assert_eq!(db2.count("t").unwrap(), 0, "recovery off the truncated log agrees");
    }

    #[test]
    fn point_in_time_restore_stops_at_lsn() {
        let env = StorageEnv::mem();
        let db = Database::open(env.clone()).unwrap();
        db.create_table(schema("t")).unwrap();

        let mut tx = db.begin();
        tx.insert("t", row(1, "first")).unwrap();
        let lsn1 = tx.commit().unwrap();

        let mut tx = db.begin();
        tx.insert("t", row(2, "second")).unwrap();
        tx.commit().unwrap();

        let backup = db.backup().unwrap();
        let restored = Database::open_with(
            backup,
            DbOptions { stop_at_lsn: Some(lsn1), ..Default::default() },
        )
        .unwrap();
        assert_eq!(restored.count("t").unwrap(), 1);
        assert!(restored.get_committed("t", &Value::Int(1)).unwrap().is_some());
    }

    #[test]
    fn point_in_time_restore_ignores_newer_snapshot() {
        let env = StorageEnv::mem();
        let db = Database::open(env.clone()).unwrap();
        db.create_table(schema("t")).unwrap();
        let mut tx = db.begin();
        tx.insert("t", row(1, "early")).unwrap();
        let lsn1 = tx.commit().unwrap();
        let mut tx = db.begin();
        tx.insert("t", row(2, "late")).unwrap();
        tx.commit().unwrap();
        db.checkpoint().unwrap(); // snapshot now contains both rows

        let backup = db.backup().unwrap();
        let restored = Database::open_with(
            backup,
            DbOptions { stop_at_lsn: Some(lsn1), ..Default::default() },
        )
        .unwrap();
        assert_eq!(
            restored.count("t").unwrap(),
            1,
            "restore must replay from scratch, not use the too-new snapshot"
        );
    }

    #[test]
    fn point_in_time_restore_keeps_discarded_txids_used() {
        // The restore drops the rows of what came after the point, not the
        // history: the restored database never hands a discarded id out
        // again (a participant may still hold a branch under it) — also
        // once the restored state is checkpointed and reopened, which is
        // how the DataLinks restore continues from it.
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        let mut tx = db.begin();
        tx.insert("t", row(1, "kept")).unwrap();
        let point = tx.commit().unwrap();
        let mut tx = db.begin();
        let discarded = tx.id();
        tx.insert("t", row(2, "discarded")).unwrap();
        tx.commit().unwrap();

        let env = db.backup().unwrap();
        let opts = DbOptions { stop_at_lsn: Some(point), ..Default::default() };
        let restored = Database::open_with(env.clone(), opts).unwrap();
        restored.checkpoint().unwrap();
        drop(restored);
        let restored = Database::open(env).unwrap();
        assert_eq!(restored.count("t").unwrap(), 1);
        assert!(restored.begin().id() > discarded);
    }

    #[test]
    fn backup_is_isolated_from_later_writes() {
        let env = StorageEnv::mem();
        let db = Database::open(env).unwrap();
        db.create_table(schema("t")).unwrap();
        let mut tx = db.begin();
        tx.insert("t", row(1, "a")).unwrap();
        tx.commit().unwrap();

        let backup = db.backup().unwrap();

        let mut tx = db.begin();
        tx.insert("t", row(2, "b")).unwrap();
        tx.commit().unwrap();

        let restored = Database::open(backup).unwrap();
        assert_eq!(restored.count("t").unwrap(), 1);
    }

    struct VetoAll;
    impl DmlObserver for VetoAll {
        fn on_dml(&self, _db: &Database, _event: &DmlEvent<'_>) -> Result<(), String> {
            Err("computer says no".into())
        }
    }

    #[test]
    fn observer_vetoes_statement_but_txn_survives() {
        let env = StorageEnv::mem();
        let db = Database::open(env).unwrap();
        db.create_table(schema("t")).unwrap();
        db.register_observer(Arc::new(VetoAll));
        let mut tx = db.begin();
        let err = tx.insert("t", row(1, "x")).unwrap_err();
        assert!(matches!(err, DbError::Vetoed(_)));
        // The transaction is still usable for reads and commit.
        assert!(tx.get("t", &Value::Int(1)).unwrap().is_none());
        tx.commit().unwrap();
    }

    struct CountingObserver(std::sync::atomic::AtomicU64);
    impl DmlObserver for CountingObserver {
        fn on_dml(&self, _db: &Database, event: &DmlEvent<'_>) -> Result<(), String> {
            // Only count DataLink-bearing tables to prove events carry data.
            assert!(!event.table.is_empty());
            self.0.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    #[test]
    fn observer_sees_before_and_after_images() {
        struct ImageCheck;
        impl DmlObserver for ImageCheck {
            fn on_dml(&self, _db: &Database, e: &DmlEvent<'_>) -> Result<(), String> {
                match e.kind {
                    OpKind::Insert => {
                        assert!(e.before.is_none());
                        assert!(e.after.is_some());
                    }
                    OpKind::Update => {
                        assert!(e.before.is_some());
                        assert!(e.after.is_some());
                    }
                    OpKind::Delete => {
                        assert!(e.before.is_some());
                        assert!(e.after.is_none());
                    }
                }
                Ok(())
            }
        }
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        db.register_observer(Arc::new(ImageCheck));
        let mut tx = db.begin();
        tx.insert("t", row(1, "a")).unwrap();
        tx.update("t", &Value::Int(1), row(1, "b")).unwrap();
        tx.delete("t", &Value::Int(1)).unwrap();
        tx.commit().unwrap();
    }

    #[test]
    fn observer_counts_all_dml() {
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        let obs = Arc::new(CountingObserver(AtomicU64::new(0)));
        db.register_observer(obs.clone());
        let mut tx = db.begin();
        tx.insert("t", row(1, "a")).unwrap();
        tx.update("t", &Value::Int(1), row(1, "b")).unwrap();
        tx.delete("t", &Value::Int(1)).unwrap();
        tx.commit().unwrap();
        assert_eq!(obs.0.load(Ordering::Relaxed), 3);
    }

    struct MetaMaintainer;
    impl DmlObserver for MetaMaintainer {
        fn on_dml(&self, db: &Database, e: &DmlEvent<'_>) -> Result<(), String> {
            if e.table != "t" {
                return Ok(());
            }
            match e.kind {
                OpKind::Insert | OpKind::Update => db.inject_dml(
                    e.txid,
                    InjectedDml::Upsert {
                        table: "meta".into(),
                        row: vec![e.key.clone(), Value::Int(1)],
                    },
                ),
                OpKind::Delete => db.inject_dml(
                    e.txid,
                    InjectedDml::Delete { table: "meta".into(), key: e.key.clone() },
                ),
            }
            Ok(())
        }
    }

    fn meta_schema() -> Schema {
        Schema::new(
            "meta",
            vec![Column::new("id", ColumnType::Int), Column::new("v", ColumnType::Int)],
            "id",
        )
        .unwrap()
    }

    #[test]
    fn injected_dml_rides_the_same_transaction() {
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        db.create_table(meta_schema()).unwrap();
        db.register_observer(Arc::new(MetaMaintainer));

        let mut tx = db.begin();
        tx.insert("t", row(1, "a")).unwrap();
        // Same-txn visibility of the injected row.
        assert!(tx.get("meta", &Value::Int(1)).unwrap().is_some());
        tx.commit().unwrap();
        assert_eq!(db.count("meta").unwrap(), 1);

        // Abort discards both the statement and the injected maintenance.
        let mut tx = db.begin();
        tx.insert("t", row(2, "b")).unwrap();
        tx.abort();
        assert!(db.get_committed("meta", &Value::Int(2)).unwrap().is_none());

        // Delete injects a meta delete.
        let mut tx = db.begin();
        tx.delete("t", &Value::Int(1)).unwrap();
        tx.commit().unwrap();
        assert_eq!(db.count("meta").unwrap(), 0);
    }

    #[test]
    fn injected_upsert_replaces_existing_row() {
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        db.create_table(meta_schema()).unwrap();
        db.register_observer(Arc::new(MetaMaintainer));
        let mut tx = db.begin();
        tx.insert("t", row(5, "x")).unwrap();
        tx.update("t", &Value::Int(5), row(5, "y")).unwrap();
        tx.commit().unwrap();
        assert_eq!(db.count("meta").unwrap(), 1);
    }

    // --- 2PC -----------------------------------------------------------------

    #[derive(Default)]
    struct FakeParticipant {
        committed: AtomicU64,
        aborted: AtomicU64,
    }
    impl Participant for FakeParticipant {
        fn commit(&self, _txid: TxId) {
            self.committed.fetch_add(1, Ordering::SeqCst);
        }
        fn abort(&self, _txid: TxId) {
            self.aborted.fetch_add(1, Ordering::SeqCst);
        }
    }
    impl FakeParticipant {
        fn heard(&self) -> (u64, u64) {
            (self.committed.load(Ordering::SeqCst), self.aborted.load(Ordering::SeqCst))
        }
    }

    #[test]
    fn two_phase_commit_drives_participants() {
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        let p = Arc::new(FakeParticipant::default());
        let mut tx = db.begin();
        let txid = tx.id();
        db.enlist_participant(txid, "dlfm@srv1", p.clone());
        tx.insert("t", row(1, "x")).unwrap();
        tx.commit().unwrap();
        assert_eq!(p.heard(), (1, 0));
        assert_eq!(db.count("t").unwrap(), 1);
    }

    #[test]
    fn an_undecided_transaction_aborted_by_the_host_cannot_commit() {
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        let (lost, kept) =
            (Arc::new(FakeParticipant::default()), Arc::new(FakeParticipant::default()));
        let mut tx = db.begin();
        db.enlist_participant(tx.id(), "lost", lost.clone());
        db.enlist_participant(tx.id(), "kept", kept.clone());
        tx.insert("t", row(1, "x")).unwrap();
        let mut other = db.begin();
        db.enlist_participant(other.id(), "kept", kept.clone());
        other.insert("t", row(2, "y")).unwrap();

        db.abort_undecided_enlisting("lost");
        assert!(matches!(tx.commit().unwrap_err(), DbError::Aborted(_)));
        assert_eq!((lost.heard(), kept.heard()), ((0, 1), (0, 1)), "every participant hears it");
        other.commit().expect("only the transaction that enlisted `lost` aborts");
        assert_eq!(kept.heard(), (1, 1));
        assert_eq!(db.count("t").unwrap(), 1);
    }

    #[test]
    fn a_decided_or_unknown_transaction_is_not_aborted() {
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        let p = Arc::new(FakeParticipant::default());
        let mut tx = db.begin();
        let txid = tx.id();
        db.enlist_participant(txid, "p", p.clone());
        tx.insert("t", row(1, "x")).unwrap();
        tx.commit().unwrap();
        assert!(!db.abort_undecided(txid), "decided: the rows stand");
        assert!(!db.abort_undecided(txid + 100), "never enlisted anyone");
        assert_eq!(db.count("t").unwrap(), 1);
        assert!(db.inner.participants.lock().is_empty(), "no mark outlives its transaction");
    }

    #[test]
    fn a_commit_racing_abort_undecided_either_applies_or_never_does() {
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        for i in 0..200 {
            let p = Arc::new(FakeParticipant::default());
            let mut tx = db.begin();
            let txid = tx.id();
            db.enlist_participant(txid, "p", p.clone());
            tx.insert("t", row(i, "x")).unwrap();
            let start = Arc::new(std::sync::Barrier::new(2));
            let go = Arc::clone(&start);
            let committer = std::thread::spawn(move || {
                go.wait();
                tx.commit().is_ok()
            });
            start.wait();
            let aborted = db.abort_undecided(txid);
            let committed = committer.join().unwrap();
            assert_ne!(aborted, committed, "round {i}");
            let present = db.get_committed("t", &Value::Int(i)).unwrap().is_some();
            assert_eq!(present, committed, "round {i}: the rows follow the decision");
            assert_eq!(p.heard(), (committed as u64, !committed as u64), "round {i}");
        }
    }

    #[test]
    fn failed_commit_record_aborts_the_participants() {
        // The disk fills under the coordinator's commit record: nothing was
        // decided, so the participant that voted yes must be rolled back.
        let faults = crate::device::DiskFaults::new();
        let db = Database::open(StorageEnv::mem_with_faults(Arc::clone(&faults), 0)).unwrap();
        db.create_table(schema("t")).unwrap();
        let p = Arc::new(FakeParticipant::default());
        let mut tx = db.begin();
        db.enlist_participant(tx.id(), "p", p.clone());
        tx.insert("t", row(1, "x")).unwrap();
        faults.inject_enospc(1);
        assert!(tx.commit().is_err());
        assert_eq!(p.heard(), (0, 1));
        assert_eq!(db.count("t").unwrap(), 0);
    }

    #[test]
    fn abort_notifies_participants() {
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        let p = Arc::new(FakeParticipant::default());
        let mut tx = db.begin();
        db.enlist_participant(tx.id(), "p", p.clone());
        tx.insert("t", row(1, "x")).unwrap();
        tx.abort();
        assert_eq!(p.heard(), (0, 1));
    }

    // --- unforced commits ------------------------------------------------------

    #[test]
    fn a_later_forced_commit_carries_the_unforced_one_to_disk() {
        let env = StorageEnv::mem();
        {
            let db = Database::open(env.clone()).unwrap();
            db.create_table(schema("t")).unwrap();
            let mut tx = db.begin();
            tx.insert("t", row(1, "lazy")).unwrap();
            tx.commit_unforced().unwrap();
            let syncs = db.wal_telemetry().fsync_ns.snapshot().count;
            let mut tx = db.begin();
            tx.insert("t", row(2, "plain")).unwrap();
            let lsn = tx.commit().unwrap();
            assert_eq!(db.durable_lsn(), lsn, "one flush covers both records");
            assert_eq!(db.wal_telemetry().fsync_ns.snapshot().count, syncs + 1);
            assert_eq!(db.wal_telemetry().unflushed_bytes.get(), 0);
        }
        let db = Database::open(env).unwrap();
        assert_eq!(db.count("t").unwrap(), 2);
    }

    #[test]
    fn unforced_commit_is_visible_at_once_and_durable_with_the_next_flush() {
        let env = StorageEnv::mem();
        let db = Database::open(env.clone()).unwrap();
        db.create_table(schema("t")).unwrap();
        let syncs = db.wal_telemetry().fsync_ns.snapshot().count;
        let mut tx = db.begin();
        tx.insert("t", row(1, "lazy")).unwrap();
        let lsn = tx.commit_unforced().unwrap();
        assert_eq!(db.count("t").unwrap(), 1);
        assert_eq!(db.wal_telemetry().fsync_ns.snapshot().count, syncs, "no device sync");
        assert!(db.durable_lsn() < lsn);
        // Crash now: the commit is gone, whole.
        assert_eq!(Database::open(env.fork().unwrap()).unwrap().count("t").unwrap(), 0);
        // A backup flushes first, so it holds what the live database shows.
        let backup = db.backup().unwrap();
        assert_eq!(db.durable_lsn(), lsn);
        assert_eq!(Database::open(backup).unwrap().count("t").unwrap(), 1);
    }

    #[test]
    fn unforced_commit_with_participants_is_forced_anyway() {
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(schema("t")).unwrap();
        let mut tx = db.begin();
        db.enlist_participant(tx.id(), "p", Arc::new(FakeParticipant::default()));
        tx.insert("t", row(1, "decision")).unwrap();
        let lsn = tx.commit_unforced().unwrap();
        assert_eq!(db.durable_lsn(), lsn, "a 2PC decision never rides unforced");
    }

    #[test]
    fn a_commit_logs_and_applies_its_ops_in_statement_order() {
        let env = StorageEnv::mem();
        let db = Database::open(env.clone()).unwrap();
        db.create_table(schema("t")).unwrap();
        let before = db.state_id();
        let mut tx = db.begin();
        tx.insert("t", row(1, "durable")).unwrap();
        tx.update("t", &Value::Int(1), row(1, "durable too")).unwrap();
        tx.insert("t", row(2, "gone")).unwrap();
        tx.delete("t", &Value::Int(2)).unwrap();
        tx.commit().unwrap();
        assert_eq!(db.scan_committed("t").unwrap(), vec![row(1, "durable too")]);

        let frames = db.wal_reader().read_from(before).unwrap();
        let [(_, WalRecord::Commit { ops, .. })] = &frames.records[..] else {
            panic!("one commit record expected, got {:?}", frames.records);
        };
        assert_eq!(
            ops,
            &[
                RowOp::Insert { table: "t".into(), row: row(1, "durable").into() },
                RowOp::Update {
                    table: "t".into(),
                    key: Value::Int(1),
                    row: row(1, "durable too").into()
                },
                RowOp::Insert { table: "t".into(), row: row(2, "gone").into() },
                RowOp::Delete { table: "t".into(), key: Value::Int(2) },
            ]
        );

        drop(db);
        let db = Database::open(env).unwrap();
        assert_eq!(db.scan_committed("t").unwrap(), vec![row(1, "durable too")]);
    }
}
