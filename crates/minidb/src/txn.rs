//! Transactions: deferred-update write sets, strict 2PL, one commit shape
//! (a `Commit` record, forced or not, that is the decision — for the
//! participants this transaction coordinates too).

use std::collections::{BTreeMap, HashMap};

use crate::db::{apply_op, Database, DmlEvent, Enlisted, InjectedDml, OpKind};
use crate::error::{DbError, DbResult};
use crate::lock::{LockMode, LockRes};
use crate::ops::RowOp;
use crate::value::{Row, SharedRow, Value};
use crate::wal::{Lsn, TxId, WalRecord};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnState {
    Active,
    Finished,
}

/// An open transaction. Writes are buffered privately (deferred update) and
/// applied to the shared stores at commit, after the commit record is
/// durable (or merely logged, for [`Txn::commit_unforced`]).
/// Dropping an unfinished transaction aborts it.
pub struct Txn {
    db: Database,
    id: TxId,
    /// Read-your-own-writes: per table written, key -> pending row (`None`
    /// = deleted). A transaction writes few tables, so a lookup compares
    /// table names and allocates nothing.
    overlay: Vec<(String, Pending)>,
    /// Ordered op list: the commit record carries it, and the commit
    /// applies it to the stores.
    ops: Vec<RowOp>,
    state: TxnState,
}

/// One table's buffered writes.
type Pending = HashMap<Value, Option<SharedRow>>;

impl Txn {
    pub(crate) fn new(db: Database, id: TxId) -> Self {
        Txn { db, id, overlay: Vec::new(), ops: Vec::new(), state: TxnState::Active }
    }

    /// This transaction's id (used to enlist participants).
    pub fn id(&self) -> TxId {
        self.id
    }

    fn ensure_active(&self) -> DbResult<()> {
        if self.state == TxnState::Active {
            Ok(())
        } else {
            Err(DbError::InvalidTxnState(format!("tx{} is {:?}, not active", self.id, self.state)))
        }
    }

    /// This transaction's buffered writes to `table`, if any.
    fn pending(&self, table: &str) -> Option<&Pending> {
        self.overlay.iter().find(|(t, _)| t == table).map(|(_, pending)| pending)
    }

    /// Buffers `row` (`None` = deleted) as the image of `key` in `table`.
    fn buffer(&mut self, table: &str, key: Value, row: Option<SharedRow>) {
        match self.overlay.iter_mut().find(|(t, _)| t == table) {
            Some((_, pending)) => {
                pending.insert(key, row);
            }
            None => self.overlay.push((table.to_string(), Pending::from([(key, row)]))),
        }
    }

    /// Committed-or-buffered current image of a row, assuming locks held.
    fn current(&self, table: &str, key: &Value) -> DbResult<Option<SharedRow>> {
        if let Some(pending) = self.pending(table).and_then(|p| p.get(key)) {
            return Ok(pending.clone());
        }
        self.db.get_committed(table, key)
    }

    /// Takes `table` in `table_mode` and its row `key` in `row_mode`.
    fn lock_row(
        &self,
        table: &str,
        key: &Value,
        table_mode: LockMode,
        row_mode: LockMode,
    ) -> DbResult<()> {
        let locks = &self.db.inner.locks;
        locks.lock(self.id, LockRes::table(table), table_mode)?;
        locks.lock(self.id, LockRes::row(table, key), row_mode)
    }

    // --- Reads ---------------------------------------------------------------

    /// Point read under a shared row lock (serializable read).
    pub fn get(&self, table: &str, key: &Value) -> DbResult<Option<SharedRow>> {
        self.ensure_active()?;
        self.lock_row(table, key, LockMode::IntentShared, LockMode::Shared)?;
        self.current(table, key)
    }

    /// Point read under an exclusive row lock; avoids the S→X upgrade
    /// deadlock in read-modify-write cycles.
    pub fn get_for_update(&self, table: &str, key: &Value) -> DbResult<Option<SharedRow>> {
        self.ensure_active()?;
        self.write_locks(table, key)?;
        self.current(table, key)
    }

    /// Takes the locks of [`Txn::get_for_update`] without waiting: `false`,
    /// holding no new row lock, when another transaction holds the row or
    /// its table in a conflicting mode.
    pub fn try_lock_for_update(&self, table: &str, key: &Value) -> DbResult<bool> {
        self.ensure_active()?;
        let locks = &self.db.inner.locks;
        Ok(locks.try_lock(self.id, LockRes::table(table), LockMode::IntentExclusive)
            && locks.try_lock(self.id, LockRes::row(table, key), LockMode::Exclusive))
    }

    /// Full scan under a table shared lock (blocks concurrent writers, so
    /// no phantoms). Rows are returned in primary-key order and reflect this
    /// transaction's own pending writes.
    pub fn scan(&self, table: &str) -> DbResult<Vec<Row>> {
        self.ensure_active()?;
        let locks = &self.db.inner.locks;
        locks.lock(self.id, LockRes::table(table), LockMode::Shared)?;
        let mut merged: BTreeMap<Value, SharedRow> = self.db.read_store(table, |store| {
            store.iter().map(|(key, row)| (key.clone(), row.clone())).collect()
        })?;
        for (key, pending) in self.pending(table).into_iter().flatten() {
            match pending {
                Some(row) => {
                    merged.insert(key.clone(), row.clone());
                }
                None => {
                    merged.remove(key);
                }
            }
        }
        Ok(merged.into_values().map(|row| row.to_vec()).collect())
    }

    /// Scan filtered by a predicate.
    pub fn select(&self, table: &str, pred: impl Fn(&Row) -> bool) -> DbResult<Vec<Row>> {
        Ok(self.scan(table)?.into_iter().filter(|r| pred(r)).collect())
    }

    /// Primary keys with `column == value`, index-accelerated when possible.
    /// Takes a table shared lock (same phantom protection as a scan).
    pub fn find_equal(&self, table: &str, column: &str, value: &Value) -> DbResult<Vec<Value>> {
        self.ensure_active()?;
        let locks = &self.db.inner.locks;
        locks.lock(self.id, LockRes::table(table), LockMode::Shared)?;
        let mut keys = self.db.find_committed(table, column, value)?;
        // Fold in pending writes.
        let schema = self.db.schema(table)?;
        let col =
            schema.column_index(column).ok_or_else(|| DbError::NoSuchColumn(column.to_string()))?;
        for (key, pending) in self.pending(table).into_iter().flatten() {
            match pending {
                Some(row) if &row[col] == value => {
                    if !keys.contains(key) {
                        keys.push(key.clone());
                    }
                }
                _ => keys.retain(|k| k != key),
            }
        }
        keys.sort();
        Ok(keys)
    }

    // --- Writes --------------------------------------------------------------

    fn write_locks(&self, table: &str, key: &Value) -> DbResult<()> {
        self.lock_row(table, key, LockMode::IntentExclusive, LockMode::Exclusive)
    }

    /// Inserts a row.
    pub fn insert(&mut self, table: &str, row: Row) -> DbResult<()> {
        self.ensure_active()?;
        let schema = self.db.schema(table)?;
        schema.validate(&row).map_err(DbError::SchemaMismatch)?;
        let key = schema.key_of(&row);
        self.write_locks(table, &key)?;
        if self.current(table, &key)?.is_some() {
            return Err(DbError::DuplicateKey(key.to_string()));
        }
        self.observe(&DmlEvent {
            txid: self.id,
            table,
            kind: OpKind::Insert,
            key: &key,
            before: None,
            after: Some(&row),
        })?;
        let row = SharedRow::from(row);
        self.buffer(table, key, Some(row.clone()));
        self.ops.push(RowOp::Insert { table: table.to_string(), row });
        self.apply_injected()
    }

    /// Replaces the row at `key` with `row` (primary key must be unchanged).
    pub fn update(&mut self, table: &str, key: &Value, row: Row) -> DbResult<()> {
        self.ensure_active()?;
        let schema = self.db.schema(table)?;
        schema.validate(&row).map_err(DbError::SchemaMismatch)?;
        if &schema.key_of(&row) != key {
            return Err(DbError::SchemaMismatch(
                "primary key is immutable; delete and re-insert instead".into(),
            ));
        }
        self.write_locks(table, key)?;
        let before = self.current(table, key)?.ok_or(DbError::RowNotFound)?;
        self.observe(&DmlEvent {
            txid: self.id,
            table,
            kind: OpKind::Update,
            key,
            before: Some(&before),
            after: Some(&row),
        })?;
        let row = SharedRow::from(row);
        self.buffer(table, key.clone(), Some(row.clone()));
        self.ops.push(RowOp::Update { table: table.to_string(), key: key.clone(), row });
        self.apply_injected()
    }

    /// Updates a single column of the row at `key`.
    pub fn update_column(
        &mut self,
        table: &str,
        key: &Value,
        column: &str,
        value: Value,
    ) -> DbResult<()> {
        self.ensure_active()?;
        let schema = self.db.schema(table)?;
        let col =
            schema.column_index(column).ok_or_else(|| DbError::NoSuchColumn(column.to_string()))?;
        self.write_locks(table, key)?;
        let mut row = self.current(table, key)?.ok_or(DbError::RowNotFound)?.to_vec();
        row[col] = value;
        self.update(table, key, row)
    }

    /// Deletes the row at `key`.
    pub fn delete(&mut self, table: &str, key: &Value) -> DbResult<()> {
        self.ensure_active()?;
        self.db.schema(table)?; // surface NoSuchTable before locking
        self.write_locks(table, key)?;
        let before = self.current(table, key)?.ok_or(DbError::RowNotFound)?;
        self.observe(&DmlEvent {
            txid: self.id,
            table,
            kind: OpKind::Delete,
            key,
            before: Some(&before),
            after: None,
        })?;
        self.buffer(table, key.clone(), None);
        self.ops.push(RowOp::Delete { table: table.to_string(), key: key.clone() });
        self.apply_injected()
    }

    /// Notifies observers; a veto clears any statements they injected.
    fn observe(&mut self, event: &DmlEvent<'_>) -> DbResult<()> {
        match self.db.notify_observers(event) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.db.clear_injected(self.id);
                Err(e)
            }
        }
    }

    /// Executes observer-injected statements as part of this transaction:
    /// normal locking and logging, but no observer re-notification.
    fn apply_injected(&mut self) -> DbResult<()> {
        let injected = self.db.take_injected(self.id);
        for dml in injected {
            match dml {
                InjectedDml::Upsert { table, row } => {
                    let schema = self.db.schema(&table)?;
                    schema.validate(&row).map_err(DbError::SchemaMismatch)?;
                    let key = schema.key_of(&row);
                    self.write_locks(&table, &key)?;
                    let exists = self.current(&table, &key)?.is_some();
                    let row = SharedRow::from(row);
                    self.buffer(&table, key.clone(), Some(row.clone()));
                    self.ops.push(if exists {
                        RowOp::Update { table, key, row }
                    } else {
                        RowOp::Insert { table, row }
                    });
                }
                InjectedDml::Delete { table, key } => {
                    self.write_locks(&table, &key)?;
                    if self.current(&table, &key)?.is_some() {
                        self.buffer(&table, key.clone(), None);
                        self.ops.push(RowOp::Delete { table, key });
                    }
                }
            }
        }
        Ok(())
    }

    // --- Coordinator commit ----------------------------------------------------

    /// Commits: logs the commit decision (with redo ops), applies to the
    /// shared stores, then tells any enlisted participants. Returns the
    /// commit LSN — the database state identifier the archive tags file
    /// versions with (§4.4). A read-only transaction with no participants
    /// appends nothing and returns the current tail — on a follower too,
    /// whose log holds the primary's bytes only. A transaction that wrote
    /// anything fails with [`DbError::Following`] on a follower, changing
    /// nothing; one the host aborted undecided
    /// ([`Database::abort_undecided`]) fails with [`DbError::Aborted`].
    pub fn commit(self) -> DbResult<Lsn> {
        self.commit_inner(true)
    }

    /// Commits without waiting for the commit record to reach the disk
    /// ([`crate::wal::Wal::append_unforced`]): applied and visible on
    /// return, durable with the next flush, and lost — together with
    /// everything logged after it — if a crash comes first. Only for
    /// changes whose loss recovery repairs by itself; DLFM clears
    /// `needs_archive` this way (losing the clear re-checks one archived
    /// version), claims a write open and records the update's version bump
    /// (losing them re-derives both from the host's metadata row and the
    /// file's write-grant attributes) and ends a link/unlink branch (losing
    /// it re-derives it from the host's metadata row, and for an unlink
    /// from its forced intent).
    /// A transaction with enlisted participants is forced
    /// regardless: its commit record *is* the 2PC decision.
    pub fn commit_unforced(self) -> DbResult<Lsn> {
        self.commit_inner(false)
    }

    fn commit_inner(mut self, force: bool) -> DbResult<Lsn> {
        self.ensure_active()?;
        let ops = std::mem::take(&mut self.ops);
        // The log write is for recovery: with no redo ops and no
        // participants awaiting an outcome there is nothing to log.
        let logs = !ops.is_empty() || self.db.has_participants(self.id);
        if logs {
            self.db.refuse_if_following()?; // dropping `self` aborts
        }
        let inner = &self.db.inner;
        // Shared: concurrent committers ride the same group-commit batch.
        // Held from reading the abort mark until the rows are applied, so
        // `Database::abort_undecided` (exclusive, like checkpoint and
        // backup) finds this transaction either undecided or applied. It
        // keeps log tail and stores in step, so a commit that logs nothing
        // skips it.
        let latch = logs.then(|| inner.commit_latch.read());
        let Enlisted { participants, aborted } = self.db.take_participants(self.id);
        let record = WalRecord::Commit { txid: self.id, ops };
        let decided = if aborted {
            Err(DbError::Aborted(format!("tx{} lost a participant's branch", self.id)))
        } else if logs {
            if force || !participants.is_empty() {
                inner.wal.append(&record)
            } else {
                inner.wal.append_unforced(&record)
            }
        } else {
            Ok(inner.wal.tail_lsn())
        };
        let lsn = match decided {
            Ok(lsn) => lsn,
            Err(e) => {
                // No record: the decision is abort, and the participants
                // must hear it.
                drop(latch);
                for (_, p) in &participants {
                    p.abort(self.id);
                }
                self.finish_local();
                return Err(e);
            }
        };
        // The ops go to the stores as the record carried them: the rows
        // the statements buffered, moved, not copied.
        let WalRecord::Commit { ops, .. } = record else { unreachable!("a commit") };
        if !ops.is_empty() {
            let mut tables = inner.tables.write();
            for op in ops {
                apply_op(&mut tables, op)?;
            }
        }
        drop(latch);

        for (_, p) in &participants {
            p.commit(self.id);
        }
        self.finish_local();
        // Log retention budget: an over-budget log checkpoints and
        // truncates now that this commit is fully done (outside the shared
        // latch, so it cannot deadlock with the exclusive checkpoint latch).
        self.db.maybe_auto_checkpoint();
        Ok(lsn)
    }

    /// Aborts: participants are told to roll back, locks released, buffered
    /// writes discarded. Never fails.
    pub fn abort(mut self) {
        self.abort_in_place();
    }

    fn abort_in_place(&mut self) {
        if self.state == TxnState::Finished {
            return;
        }
        for (_, p) in &self.db.take_participants(self.id).participants {
            p.abort(self.id);
        }
        self.finish_local();
    }

    fn finish_local(&mut self) {
        self.db.clear_injected(self.id);
        self.db.inner.locks.release_all(self.id);
        self.overlay.clear();
        self.state = TxnState::Finished;
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        self.abort_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::StorageEnv;
    use crate::value::{Column, ColumnType, Schema};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    fn db() -> Database {
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(
            Schema::new(
                "t",
                vec![Column::new("id", ColumnType::Int), Column::nullable("val", ColumnType::Text)],
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    fn row(id: i64, val: &str) -> Row {
        vec![Value::Int(id), Value::Text(val.into())]
    }

    #[test]
    fn read_your_own_writes() {
        let d = db();
        let mut tx = d.begin();
        tx.insert("t", row(1, "mine")).unwrap();
        assert_eq!(tx.get("t", &Value::Int(1)).unwrap().unwrap()[1], Value::Text("mine".into()));
        // Not visible outside before commit.
        assert!(d.get_committed("t", &Value::Int(1)).unwrap().is_none());
        tx.commit().unwrap();
        assert!(d.get_committed("t", &Value::Int(1)).unwrap().is_some());
    }

    #[test]
    fn delete_then_insert_same_key() {
        let d = db();
        let mut tx = d.begin();
        tx.insert("t", row(1, "a")).unwrap();
        tx.commit().unwrap();

        let mut tx = d.begin();
        tx.delete("t", &Value::Int(1)).unwrap();
        assert!(tx.get("t", &Value::Int(1)).unwrap().is_none());
        tx.insert("t", row(1, "b")).unwrap();
        tx.commit().unwrap();
        assert_eq!(
            d.get_committed("t", &Value::Int(1)).unwrap().unwrap()[1],
            Value::Text("b".into())
        );
    }

    #[test]
    fn duplicate_insert_rejected() {
        let d = db();
        let mut tx = d.begin();
        tx.insert("t", row(1, "a")).unwrap();
        assert!(matches!(tx.insert("t", row(1, "b")), Err(DbError::DuplicateKey(_))));
        tx.commit().unwrap();

        let mut tx = d.begin();
        assert!(matches!(tx.insert("t", row(1, "c")), Err(DbError::DuplicateKey(_))));
        tx.abort();
    }

    #[test]
    fn update_missing_row_fails() {
        let d = db();
        let mut tx = d.begin();
        assert_eq!(tx.update("t", &Value::Int(9), row(9, "x")), Err(DbError::RowNotFound));
        tx.abort();
    }

    #[test]
    fn primary_key_is_immutable() {
        let d = db();
        let mut tx = d.begin();
        tx.insert("t", row(1, "a")).unwrap();
        assert!(matches!(
            tx.update("t", &Value::Int(1), row(2, "a")),
            Err(DbError::SchemaMismatch(_))
        ));
        tx.abort();
    }

    #[test]
    fn update_column_convenience() {
        let d = db();
        let mut tx = d.begin();
        tx.insert("t", row(1, "a")).unwrap();
        tx.update_column("t", &Value::Int(1), "val", Value::Text("z".into())).unwrap();
        tx.commit().unwrap();
        assert_eq!(
            d.get_committed("t", &Value::Int(1)).unwrap().unwrap()[1],
            Value::Text("z".into())
        );
    }

    #[test]
    fn scan_merges_overlay() {
        let d = db();
        let mut setup = d.begin();
        setup.insert("t", row(1, "a")).unwrap();
        setup.insert("t", row(2, "b")).unwrap();
        setup.commit().unwrap();

        let mut tx = d.begin();
        tx.delete("t", &Value::Int(1)).unwrap();
        tx.insert("t", row(3, "c")).unwrap();
        tx.update("t", &Value::Int(2), row(2, "B")).unwrap();
        let rows = tx.scan("t").unwrap();
        let ids: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![2, 3]);
        assert_eq!(rows[0][1], Value::Text("B".into()));
        tx.abort();

        // Abort leaves committed state untouched.
        assert_eq!(d.count("t").unwrap(), 2);
    }

    #[test]
    fn select_filters() {
        let d = db();
        let mut tx = d.begin();
        for i in 0..10 {
            tx.insert("t", row(i, if i % 2 == 0 { "even" } else { "odd" })).unwrap();
        }
        let evens = tx.select("t", |r| r[1] == Value::Text("even".into())).unwrap();
        assert_eq!(evens.len(), 5);
        tx.commit().unwrap();
    }

    #[test]
    fn find_equal_respects_overlay() {
        let d = db();
        d.create_index("t", "val").unwrap();
        let mut setup = d.begin();
        setup.insert("t", row(1, "x")).unwrap();
        setup.insert("t", row(2, "y")).unwrap();
        setup.commit().unwrap();

        let mut tx = d.begin();
        tx.update("t", &Value::Int(2), row(2, "x")).unwrap();
        tx.insert("t", row(3, "x")).unwrap();
        tx.delete("t", &Value::Int(1)).unwrap();
        let hits = tx.find_equal("t", "val", &Value::Text("x".into())).unwrap();
        assert_eq!(hits, vec![Value::Int(2), Value::Int(3)]);
        tx.abort();
    }

    #[test]
    fn drop_aborts_active_txn() {
        let d = db();
        {
            let mut tx = d.begin();
            tx.insert("t", row(1, "ghost")).unwrap();
            // dropped here
        }
        assert_eq!(d.count("t").unwrap(), 0);
        // Locks were released: another writer proceeds immediately.
        let mut tx = d.begin();
        tx.insert("t", row(1, "real")).unwrap();
        tx.commit().unwrap();
    }

    #[test]
    fn writer_blocks_reader_until_commit() {
        let d = db();
        let mut setup = d.begin();
        setup.insert("t", row(1, "v0")).unwrap();
        setup.commit().unwrap();

        let mut writer = d.begin();
        writer.update("t", &Value::Int(1), row(1, "v1")).unwrap();

        let d2 = d.clone();
        let reader = thread::spawn(move || {
            let tx = d2.begin();
            let row = tx.get("t", &Value::Int(1)).unwrap().unwrap();
            row[1].clone()
        });
        thread::sleep(Duration::from_millis(30));
        assert!(!reader.is_finished(), "reader must block on writer's X lock");
        writer.commit().unwrap();
        assert_eq!(reader.join().unwrap(), Value::Text("v1".into()));
    }

    #[test]
    fn concurrent_disjoint_writers_proceed() {
        let d = db();
        let mut handles = Vec::new();
        for i in 0..8 {
            let d = d.clone();
            handles.push(thread::spawn(move || {
                let mut tx = d.begin();
                tx.insert("t", row(i, "w")).unwrap();
                tx.commit().unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(d.count("t").unwrap(), 8);
    }

    #[test]
    fn deadlock_victim_can_retry() {
        let d = db();
        let mut setup = d.begin();
        setup.insert("t", row(1, "a")).unwrap();
        setup.insert("t", row(2, "b")).unwrap();
        setup.commit().unwrap();

        // tx1 locks row1, tx2 locks row2; tx1 then wants row2 (blocks) and
        // tx2 wants row1 (deadlock). Victim retries and succeeds.
        let d1 = d.clone();
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let b1 = Arc::clone(&barrier);
        let h1 = thread::spawn(move || {
            let mut tx = d1.begin();
            tx.update("t", &Value::Int(1), row(1, "a1")).unwrap();
            b1.wait();
            match tx.update("t", &Value::Int(2), row(2, "b1")) {
                Ok(()) => {
                    tx.commit().unwrap();
                    true
                }
                Err(DbError::Deadlock) => {
                    tx.abort();
                    false
                }
                Err(e) => panic!("unexpected {e}"),
            }
        });
        let d2 = d.clone();
        let b2 = Arc::clone(&barrier);
        let h2 = thread::spawn(move || {
            let mut tx = d2.begin();
            tx.update("t", &Value::Int(2), row(2, "b2")).unwrap();
            b2.wait();
            match tx.update("t", &Value::Int(1), row(1, "a2")) {
                Ok(()) => {
                    tx.commit().unwrap();
                    true
                }
                Err(DbError::Deadlock) => {
                    tx.abort();
                    false
                }
                Err(e) => panic!("unexpected {e}"),
            }
        });
        let r1 = h1.join().unwrap();
        let r2 = h2.join().unwrap();
        assert!(r1 || r2, "at least one transaction must win");
        // No stuck locks remain either way.
        let mut tx = d.begin();
        tx.update("t", &Value::Int(1), row(1, "final")).unwrap();
        tx.update("t", &Value::Int(2), row(2, "final")).unwrap();
        tx.commit().unwrap();
    }

    #[test]
    fn empty_commit_is_cheap_and_valid() {
        let d = db();
        let before = d.state_id();
        let tx = d.begin();
        let lsn = tx.commit().unwrap();
        assert_eq!(lsn, before, "read-only commit writes nothing");
    }

    // --- the shared row path ---------------------------------------------------

    #[test]
    fn a_row_read_before_a_commit_is_unchanged_after_it() {
        let d = db();
        let mut setup = d.begin();
        setup.insert("t", row(1, "old")).unwrap();
        setup.commit().unwrap();

        let committed = d.get_committed("t", &Value::Int(1)).unwrap().unwrap();
        let reader = d.begin();
        let read = reader.get("t", &Value::Int(1)).unwrap().unwrap();
        reader.commit().unwrap();

        let mut tx = d.begin();
        tx.update_column("t", &Value::Int(1), "val", Value::Text("new".into())).unwrap();
        tx.commit().unwrap();
        let mut tx = d.begin();
        tx.delete("t", &Value::Int(1)).unwrap();
        tx.commit().unwrap();

        assert_eq!(&committed[..], &row(1, "old")[..]);
        assert_eq!(&read[..], &row(1, "old")[..]);
        assert!(d.get_committed("t", &Value::Int(1)).unwrap().is_none());
    }

    #[test]
    fn a_commit_stores_the_row_its_statement_buffered() {
        let d = db();
        let mut tx = d.begin();
        tx.insert("t", row(1, "mine")).unwrap();
        let buffered = tx.get("t", &Value::Int(1)).unwrap().unwrap();
        tx.commit().unwrap();
        let stored = d.get_committed("t", &Value::Int(1)).unwrap().unwrap();
        assert!(Arc::ptr_eq(&buffered, &stored), "moved through the log record, not copied");
        assert!(Arc::ptr_eq(&d.schema("t").unwrap(), &d.schema("t").unwrap()), "one schema");
    }
}
