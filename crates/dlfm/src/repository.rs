//! The DLFM repository (§2.2): "the DLFM maintains its own repository about
//! the transaction state and about files that are linked to the database."
//!
//! The repository is a second `dl-minidb` instance (the companion SIGMOD
//! 2000 paper describes DLFM as "a transactional resource manager" — it
//! really is a small database). Tables:
//!
//! | table        | contents                                                   |
//! |--------------|------------------------------------------------------------|
//! | `dl_files`   | linked files: control mode, options, saved owner/perms, current version |
//! | `dl_uip`     | update-in-progress entries (§4.4): files with an uncommitted update |
//! | `dl_intents` | unlink intents: one per file an unlink branch touches — its 2PC vote |
//!
//! An unlink sub-transaction forces exactly one kind of record: an intent
//! per file ([`IntentEntry`]), written under the file's `dl_files` row
//! lock before the branch answers its coordinator. The intent *is* the
//! branch's vote — it names the host transaction, the file, and what the
//! unlink does to it — and the branch's own `Commit` (which removes it) is
//! an unforced append. An intent that survives a crash is a branch whose
//! end the crash took; the host's metadata row for the file says which way
//! it went. A link forces nothing here: its vote travels in its reply, the
//! host's metadata row keeps it, and its `dl_files` row commits unforced.
//!
//! The token entries (§4.1) and the Sync table (§4.5) describe open-file
//! state, which no crash keeps: they live in the repository's
//! [`OpenTable`], in memory, so a token read runs no database transaction
//! (see `crate::opens`). The tables are the durable state recovery works
//! from, and every write to them that recovery could not re-derive is
//! forced before it is acted on (DESIGN.md "Force audit" lists the ones
//! that are not — the `dl_uip` claim among them: a claim a crash took is
//! read back off the disk, where the granted file carries the write
//! grant's attributes).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dl_minidb::{Column, ColumnType, Database, DbResult, Row, Schema, StorageEnv, Txn, Value};

use crate::archive::{ArchiveStore, ContentSource};
use crate::modes::{ControlMode, OnUnlink};
use crate::opens::OpenTable;
use crate::token::{AccessToken, TokenKey, TokenKind};

fn on_unlink_value(on_unlink: OnUnlink) -> Value {
    Value::Text(match on_unlink {
        OnUnlink::Restore => "restore".into(),
        OnUnlink::Delete => "delete".into(),
    })
}

fn on_unlink_from(value: &Value) -> Option<OnUnlink> {
    Some(if value.as_text()? == "delete" { OnUnlink::Delete } else { OnUnlink::Restore })
}

/// A row of `dl_files`.
#[derive(Debug, Clone, PartialEq)]
pub struct FileEntry {
    pub path: String,
    pub mode: ControlMode,
    pub recovery: bool,
    pub on_unlink: OnUnlink,
    pub cur_version: u64,
    pub orig_uid: u32,
    pub orig_gid: u32,
    pub orig_mode: u16,
    pub ino: u64,
    /// Database state identifier the current version is associated with
    /// (§4.4). A tail-LSN hint read at close-processing time.
    pub state_id: u64,
    /// True while the current version still awaits archiving; recovery
    /// re-submits the archive job when set (crash between commit and
    /// archive completion).
    pub needs_archive: bool,
}

impl FileEntry {
    pub fn to_row(&self) -> Row {
        vec![
            Value::Text(self.path.clone()),
            Value::Text(self.mode.to_string()),
            Value::Bool(self.recovery),
            on_unlink_value(self.on_unlink),
            Value::Int(self.cur_version as i64),
            Value::Int(self.orig_uid as i64),
            Value::Int(self.orig_gid as i64),
            Value::Int(self.orig_mode as i64),
            Value::Int(self.ino as i64),
            Value::Int(self.state_id as i64),
            Value::Bool(self.needs_archive),
        ]
    }

    fn from_row(row: &[Value]) -> Option<FileEntry> {
        Some(FileEntry {
            path: row[0].as_text()?.to_string(),
            mode: row[1].as_text()?.parse().ok()?,
            recovery: matches!(row[2], Value::Bool(true)),
            on_unlink: on_unlink_from(&row[3])?,
            cur_version: row[4].as_int()? as u64,
            orig_uid: row[5].as_int()? as u32,
            orig_gid: row[6].as_int()? as u32,
            orig_mode: row[7].as_int()? as u16,
            ino: row[8].as_int()? as u64,
            state_id: row[9].as_int()? as u64,
            needs_archive: matches!(row[10], Value::Bool(true)),
        })
    }
}

/// A Sync-table entry (§4.5) — one open of a managed file, or a strict-link
/// registration of an open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncEntry {
    pub path: String,
    pub kind: TokenKind,
    /// Unique per open-file instance; issued by DLFS.
    pub opener: u64,
    pub uid: u32,
}

/// A row of `dl_uip` — an update in progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UipEntry {
    pub path: String,
    pub new_version: u64,
    pub opener: u64,
}

impl UipEntry {
    fn to_row(&self) -> Row {
        let (version, opener) = (self.new_version as i64, self.opener as i64);
        vec![Value::Text(self.path.clone()), Value::Int(version), Value::Int(opener)]
    }

    fn from_row(row: &[Value]) -> Option<UipEntry> {
        let path = row[0].as_text()?.to_string();
        Some(UipEntry {
            path,
            new_version: row[1].as_int()? as u64,
            opener: row[2].as_int()? as u64,
        })
    }
}

/// A row of `dl_intents` — an unlink branch's vote on one file, forced
/// while the branch holds the file's `dl_files` row lock. Once the host
/// deletes its metadata row, it is the one durable record that names the
/// path: it carries the ON UNLINK action a committed unlink finishes and
/// the original attributes an ON UNLINK RESTORE puts back.
#[derive(Debug, Clone, PartialEq)]
pub struct IntentEntry {
    pub host_txid: u64,
    /// The file's identity and link options; its version is not recorded
    /// (it reads back as 1).
    pub file: FileEntry,
}

impl IntentEntry {
    fn key(host_txid: u64, path: &str) -> Value {
        Value::Text(format!("{host_txid}|{path}"))
    }

    fn to_row(&self) -> Row {
        let f = &self.file;
        vec![
            Self::key(self.host_txid, &f.path),
            Value::Text(f.mode.to_string()),
            Value::Bool(f.recovery),
            on_unlink_value(f.on_unlink),
            Value::Int(f.orig_uid as i64),
            Value::Int(f.orig_gid as i64),
            Value::Int(f.orig_mode as i64),
            Value::Int(f.ino as i64),
        ]
    }

    fn from_row(row: &[Value]) -> Option<IntentEntry> {
        let (host_txid, path) = row[0].as_text()?.split_once('|')?;
        Some(IntentEntry {
            host_txid: host_txid.parse().ok()?,
            file: FileEntry {
                path: path.to_string(),
                mode: row[1].as_text()?.parse().ok()?,
                recovery: matches!(row[2], Value::Bool(true)),
                on_unlink: on_unlink_from(&row[3])?,
                cur_version: 1,
                orig_uid: row[4].as_int()? as u32,
                orig_gid: row[5].as_int()? as u32,
                orig_mode: row[6].as_int()? as u16,
                ino: row[7].as_int()? as u64,
                state_id: 0,
                needs_archive: false,
            },
        })
    }
}

/// Outcome of [`Repository::claim_write_open`].
#[derive(Debug)]
pub enum WriteClaim {
    /// The update slot is claimed: the UIP row is committed and the writer
    /// is in the open table.
    Granted { entry: FileEntry, new_version: u64 },
    /// Another update is in progress or a conflicting open exists.
    Conflict,
    /// The file is not (or no longer) linked.
    NotLinked,
}

/// The repository: a typed wrapper over a `dl-minidb` database, and the
/// open table beside it.
pub struct Repository {
    db: Database,
    opens: Arc<OpenTable>,
    /// The "extra database update operations" the paper counts in §4.5:
    /// auto-commit write transactions, and the open table's claims, purges
    /// and standalone token entries, which stand where the paper's Sync
    /// and token table updates do.
    update_ops: AtomicU64,
}

impl Repository {
    /// Opens (or creates) the repository in `env` under default options,
    /// running recovery.
    pub fn open(env: StorageEnv) -> DbResult<Repository> {
        Self::new(Database::open(env)?)
    }

    /// The repository over an opened database — recovered from its disks,
    /// or a promoted follower — creating whatever tables it lacks.
    pub fn new(db: Database) -> DbResult<Repository> {
        Self::with_opens(db, Arc::default())
    }

    /// [`Repository::new`] keeping `opens`: a promoted standby's server
    /// takes over the open table the standby admitted sessions into.
    pub fn with_opens(db: Database, opens: Arc<OpenTable>) -> DbResult<Repository> {
        Self::ensure_schema(&db)?;
        Ok(Repository { db, opens, update_ops: AtomicU64::new(0) })
    }

    /// The repository over `db` as it stands, creating nothing: a read
    /// replica's view of its follower, which takes no DDL — the schema
    /// arrives by shipping. Its open table starts empty.
    pub fn over(db: Database) -> Repository {
        Repository { db, opens: Arc::default(), update_ops: AtomicU64::new(0) }
    }

    fn ensure_schema(db: &Database) -> DbResult<()> {
        use ColumnType::{Bool, Int, Text};
        let create = |table: &str, key: &str, columns: &[(&str, ColumnType)]| {
            if db.has_table(table) {
                return Ok(());
            }
            let columns = columns.iter().map(|&(name, ty)| Column::new(name, ty)).collect();
            db.create_table(Schema::new(table, columns, key).expect("static schema"))
        };
        create(
            "dl_files",
            "path",
            &[
                ("path", Text),
                ("mode", Text),
                ("recovery", Bool),
                ("on_unlink", Text),
                ("cur_version", Int),
                ("orig_uid", Int),
                ("orig_gid", Int),
                ("orig_mode", Int),
                ("ino", Int),
                ("state_id", Int),
                ("needs_archive", Bool),
            ],
        )?;
        create("dl_uip", "path", &[("path", Text), ("new_version", Int), ("opener", Int)])?;
        // `ikey` is `<host txid>|<path>`.
        create(
            "dl_intents",
            "ikey",
            &[
                ("ikey", Text),
                ("mode", Text),
                ("recovery", Bool),
                ("on_unlink", Text),
                ("orig_uid", Int),
                ("orig_gid", Int),
                ("orig_mode", Int),
                ("ino", Int),
            ],
        )
    }

    /// The underlying database (sub-transactions are built on it directly).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The open-file state: Sync entries, token entries, branch marks.
    pub fn opens(&self) -> &Arc<OpenTable> {
        &self.opens
    }

    /// Counts one update — called after it took effect, so a call that
    /// found nothing to change (an `end_open` of no entry) or lost a
    /// conflict is not an update.
    fn bump(&self) {
        self.update_ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of auto-commit repository updates committed so far (bench A4).
    pub fn update_op_count(&self) -> u64 {
        self.update_ops.load(Ordering::Relaxed)
    }

    // --- dl_files -------------------------------------------------------------

    /// Committed file entry for `path`.
    pub fn get_file(&self, path: &str) -> Option<FileEntry> {
        self.db
            .get_committed("dl_files", &Value::Text(path.to_string()))
            .ok()
            .flatten()
            .and_then(|row| FileEntry::from_row(&row))
    }

    /// All linked files.
    pub fn list_files(&self) -> Vec<FileEntry> {
        self.db
            .scan_committed("dl_files")
            .unwrap_or_default()
            .iter()
            .filter_map(|row| FileEntry::from_row(row))
            .collect()
    }

    /// The file's row under an exclusive row lock held by `txn` — the lock
    /// every link, unlink, open grant and close of the file takes first.
    pub fn lock_file_in(&self, txn: &Txn, path: &str) -> DbResult<Option<FileEntry>> {
        Ok(txn
            .get_for_update("dl_files", &Value::Text(path.to_string()))?
            .and_then(|row| FileEntry::from_row(&row)))
    }

    /// Adds the file row inside a caller-provided sub-transaction.
    pub fn insert_file_in(&self, txn: &mut Txn, entry: &FileEntry) -> DbResult<()> {
        txn.insert("dl_files", entry.to_row())
    }

    /// Removes the file row inside a caller-provided sub-transaction.
    pub fn delete_file_in(&self, txn: &mut Txn, path: &str) -> DbResult<()> {
        txn.delete("dl_files", &Value::Text(path.to_string()))
    }

    /// Records a committed update inside the close transaction: new
    /// version, its state identifier, and the pending-archive flag (§4.4).
    pub fn commit_version_in(
        &self,
        txn: &mut Txn,
        path: &str,
        version: u64,
        state_id: u64,
    ) -> DbResult<()> {
        let key = Value::Text(path.to_string());
        let mut row =
            txn.get_for_update("dl_files", &key)?.ok_or(dl_minidb::DbError::RowNotFound)?.to_vec();
        row[4] = Value::Int(version as i64);
        row[9] = Value::Int(state_id as i64);
        row[10] = Value::Bool(true);
        txn.update("dl_files", &key, row)
    }

    /// Clears the pending-archive flag once the archive job completed.
    pub fn clear_needs_archive(&self, path: &str) -> DbResult<()> {
        let mut txn = self.db.begin();
        txn.update_column(
            "dl_files",
            &Value::Text(path.to_string()),
            "needs_archive",
            Value::Bool(false),
        )?;
        txn.commit()?;
        self.bump();
        Ok(())
    }

    /// Clears the pending-archive flag only while `version` is still the
    /// current version. The archiver's completion callback uses this: by
    /// the time it runs, a newer update may already have committed (and
    /// re-set the flag for *its* version) — a stale clear must be a no-op
    /// or a crash could skip re-archiving the newest committed copy.
    ///
    /// The commit is **unforced** (`Txn::commit_unforced`): the flag only
    /// tells recovery which versions to look for in the archive store, so a
    /// clear lost in a crash costs one idempotent re-check, and nobody
    /// waits on a log sync for it. For the same reason it never waits for
    /// the row: when another transaction holds it (a write open claiming
    /// the file, a close) the clear is skipped and the flag stays set for
    /// recovery's re-archive pass. Returns whether the flag was cleared.
    pub fn clear_needs_archive_if_version(&self, path: &str, version: u64) -> DbResult<bool> {
        let key = Value::Text(path.to_string());
        let mut txn = self.db.begin();
        if !txn.try_lock_for_update("dl_files", &key)? {
            return Ok(false);
        }
        let row = txn.get_for_update("dl_files", &key)?.ok_or(dl_minidb::DbError::RowNotFound)?;
        let current = row[4] == Value::Int(version as i64);
        if current {
            let mut row = row.to_vec();
            row[10] = Value::Bool(false);
            txn.update("dl_files", &key, row)?;
        }
        txn.commit_unforced()?;
        self.bump();
        Ok(current)
    }

    /// The committed read the primary and every read replica serve: the
    /// bytes of `path`'s `cur_version` from `archive` — a write open may be
    /// dirtying the live file — else what `live` reads, the committed bytes
    /// of a file never write-opened since link. The first write open
    /// captures that before-image into `archive` before it grants the
    /// write, so a live read it overlapped finds the version archived when
    /// it looks again, and serves that instead of what it read. The token
    /// check is the caller's.
    pub fn read_committed(
        &self,
        path: &str,
        archive: &ArchiveStore,
        live: &ContentSource,
    ) -> Result<Vec<u8>, String> {
        let entry = self.get_file(path).ok_or_else(|| format!("file {path} is not linked"))?;
        let archived = || archive.get(path, entry.cur_version).map(|v| v.data);
        if let Some(data) = archived() {
            return Ok(data);
        }
        let data = live(path);
        archived().or(data).ok_or_else(|| {
            format!("version {} of {path} is neither archived nor readable", entry.cur_version)
        })
    }

    /// Files whose current version still awaits archiving (recovery).
    pub fn files_needing_archive(&self) -> Vec<FileEntry> {
        self.list_files().into_iter().filter(|f| f.needs_archive).collect()
    }

    // --- token entries -----------------------------------------------------------

    /// Records a validated token entry: "the user has permission to access
    /// the file till time t" (§4.1). Keyed by userid, not processid. In
    /// memory: a crash closes every descriptor the entry could admit.
    pub fn put_token_entry(
        &self,
        uid: u32,
        path: &str,
        kind: TokenKind,
        expiry_ms: u64,
    ) -> DbResult<()> {
        self.opens.put_token(uid, path, kind, expiry_ms);
        self.bump();
        Ok(())
    }

    /// Token admission (§4.1) — the one the upcall of an open not under
    /// full control, the routed read and every read replica run: decodes `token`, checks its
    /// MAC under `server`'s secret `key` and its expiry at `now_ms`, and
    /// records the token entry.
    pub fn admit_token(
        &self,
        key: &TokenKey,
        server: &str,
        path: &str,
        token: &str,
        uid: u32,
        now_ms: u64,
    ) -> Result<TokenKind, String> {
        let token = AccessToken::decode_verified(token, key, server, path, now_ms)
            .map_err(|e| e.to_string())?;
        self.put_token_entry(uid, path, token.kind, token.expires_at_ms)
            .map_err(|e| e.to_string())?;
        Ok(token.kind)
    }

    /// Does an unexpired token entry authorizing `wanted` exist for
    /// (`uid`, `path`)? A write entry authorizes reads too.
    pub fn check_token_entry(&self, uid: u32, path: &str, wanted: TokenKind, now_ms: u64) -> bool {
        self.opens.token_admits(uid, path, wanted, now_ms)
    }

    // --- the Sync table ---------------------------------------------------------

    /// Records a strict-link registration of an open (§4.5), refused while
    /// a live link branch holds the path ([`OpenTable::register`]).
    pub fn register_open(
        &self,
        path: &str,
        kind: TokenKind,
        opener: u64,
        uid: u32,
    ) -> Result<(), String> {
        self.opens.register(path, kind, opener, uid)?;
        self.bump();
        Ok(())
    }

    /// Purges the Sync-table entry at close (§4.5), a write open's only
    /// when `writes_too` ([`OpenTable::end`]).
    pub fn end_open(&self, path: &str, opener: u64, writes_too: bool) -> Option<TokenKind> {
        let kind = self.opens.end(path, opener, writes_too);
        if kind.is_some_and(|kind| writes_too || kind == TokenKind::Read) {
            self.bump();
        }
        kind
    }

    /// Sync entries for `path`.
    pub fn sync_entries(&self, path: &str) -> Vec<SyncEntry> {
        self.opens.entries(path)
    }

    // --- open-grant claims ------------------------------------------------------
    //
    // Every conflict check is a check-and-set in the open table. A write
    // claim makes its check while it holds the file's `dl_files` row lock
    // — the lock every link, unlink and close of the file takes first —
    // and commits its UIP row under it.

    /// Atomically grants a write open: under the `dl_files` row lock,
    /// re-reads the committed file entry (the caller's copy may be stale),
    /// registers the writer in the open table unless a conflicting open
    /// exists, and inserts the UIP row for `cur_version + 1` — then records
    /// the entry of `token`, the verified token the open carried (§4.1),
    /// when there is one. A claim that is not granted records nothing.
    ///
    /// The commit is **unforced**: nothing waits on a log sync for it. A
    /// claim a crash takes leaves its evidence on disk — the caller grants
    /// the file the write grant's attributes only after this returns — and
    /// recovery rolls the write back by those.
    pub fn claim_write_open(
        &self,
        path: &str,
        opener: u64,
        uid: u32,
        read_conflicts: bool,
        token: Option<&AccessToken>,
    ) -> DbResult<WriteClaim> {
        let key = Value::Text(path.to_string());
        let mut txn = self.db.begin();
        let Some(row) = txn.get_for_update("dl_files", &key)? else {
            return Ok(WriteClaim::NotLinked);
        };
        let Some(entry) = FileEntry::from_row(&row) else {
            return Ok(WriteClaim::NotLinked);
        };
        if !self.opens.claim_write(path, opener, uid, read_conflicts) {
            return Ok(WriteClaim::Conflict);
        }
        let new_version = entry.cur_version + 1;
        let uip = UipEntry { path: path.to_string(), new_version, opener };
        if let Err(e) = txn.insert("dl_uip", uip.to_row()).and_then(|()| txn.commit_unforced()) {
            self.opens.end(path, opener, true);
            let duplicate = matches!(e, dl_minidb::DbError::DuplicateKey(_));
            return if duplicate { Ok(WriteClaim::Conflict) } else { Err(e) };
        }
        if let Some(token) = token {
            self.opens.put_token(uid, path, token.kind, token.expires_at_ms);
        }
        self.bump();
        Ok(WriteClaim::Granted { entry, new_version })
    }

    /// Grants a tracked read open of a file the caller found linked at
    /// `unlinks_seen`, with the carried `token`'s entry: no database
    /// transaction, one check-and-set ([`OpenTable::claim_read`]). Returns
    /// false, recording nothing, on a conflict.
    pub fn claim_read(
        &self,
        path: &str,
        opener: u64,
        uid: u32,
        token: Option<&AccessToken>,
        unlinks_seen: u64,
    ) -> bool {
        let granted = self.opens.claim_read(path, opener, uid, token, unlinks_seen);
        if granted {
            self.bump();
        }
        granted
    }

    /// Rolls a write claim back (a failed before-image or take-over): removes
    /// the UIP row it inserted, unforced (see [`Repository::remove_uip`]),
    /// and its writer.
    pub fn release_write_claim(&self, path: &str, opener: u64) {
        let _ = self.remove_uip(path);
        self.end_open(path, opener, true);
    }

    // --- dl_uip -----------------------------------------------------------------

    /// Clears the update-in-progress entry (close rollback path; the commit
    /// path clears it inside the close transaction instead). **Unforced**:
    /// the claim it removes committed nothing, so losing the removal in a
    /// crash leaves a claim that recovery rolls back onto the same clean
    /// bytes.
    pub fn remove_uip(&self, path: &str) -> DbResult<()> {
        let mut txn = self.db.begin();
        txn.delete("dl_uip", &Value::Text(path.to_string()))?;
        txn.commit_unforced()?;
        self.bump();
        Ok(())
    }

    /// Removes the UIP row inside a caller-provided sub-transaction.
    pub fn remove_uip_in(&self, txn: &mut Txn, path: &str) -> DbResult<()> {
        txn.delete("dl_uip", &Value::Text(path.to_string()))
    }

    pub fn get_uip(&self, path: &str) -> Option<UipEntry> {
        let row = self.db.get_committed("dl_uip", &Value::Text(path.to_string())).ok()??;
        UipEntry::from_row(&row)
    }

    /// All update-in-progress entries (crash recovery walks these).
    pub fn list_uip(&self) -> Vec<UipEntry> {
        let rows = self.db.scan_committed("dl_uip").unwrap_or_default();
        rows.iter().filter_map(|row| UipEntry::from_row(row)).collect()
    }

    // --- dl_intents -------------------------------------------------------------

    /// Forces an unlink branch's intent — its vote — before the branch
    /// answers its coordinator.
    pub fn add_intent(&self, intent: &IntentEntry) -> DbResult<()> {
        let mut txn = self.db.begin();
        txn.insert("dl_intents", intent.to_row())?;
        txn.commit()?;
        self.bump();
        Ok(())
    }

    /// Removes an intent inside the committing sub-transaction.
    pub fn remove_intent_in(&self, txn: &mut Txn, host_txid: u64, path: &str) -> DbResult<()> {
        txn.delete("dl_intents", &IntentEntry::key(host_txid, path))
    }

    /// Removes an aborted branch's intents: one **unforced** commit. Losing
    /// it in a crash leaves intents whose host transaction has no row to
    /// show for them, which recovery settles as the same abort.
    pub fn remove_intents<'a>(
        &self,
        host_txid: u64,
        paths: impl IntoIterator<Item = &'a str>,
    ) -> DbResult<()> {
        let mut txn = self.db.begin();
        for path in paths {
            self.remove_intent_in(&mut txn, host_txid, path)?;
        }
        txn.commit_unforced()?;
        self.bump();
        Ok(())
    }

    /// All outstanding intents (crash recovery walks these).
    pub fn list_intents(&self) -> Vec<IntentEntry> {
        self.db
            .scan_committed("dl_intents")
            .unwrap_or_default()
            .iter()
            .filter_map(|row| IntentEntry::from_row(row))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo() -> Repository {
        Repository::open(StorageEnv::mem()).unwrap()
    }

    fn entry(path: &str) -> FileEntry {
        FileEntry {
            path: path.to_string(),
            mode: ControlMode::Rdd,
            recovery: true,
            on_unlink: OnUnlink::Restore,
            cur_version: 1,
            orig_uid: 100,
            orig_gid: 100,
            orig_mode: 0o644,
            ino: 7,
            state_id: 0,
            needs_archive: false,
        }
    }

    /// A tracked read open as the server makes one: the unlink count is
    /// read before the file's lookup.
    fn read_open(
        r: &Repository,
        path: &str,
        opener: u64,
        uid: u32,
        token: Option<&AccessToken>,
    ) -> bool {
        let unlinks_seen = r.opens().unlinks_ended(path);
        r.get_file(path).is_some() && r.claim_read(path, opener, uid, token, unlinks_seen)
    }

    #[test]
    fn schema_is_idempotent_across_reopen() {
        let env = StorageEnv::mem();
        {
            let _ = Repository::open(env.clone()).unwrap();
        }
        let repo = Repository::open(env).unwrap();
        for t in ["dl_files", "dl_uip", "dl_intents"] {
            assert!(repo.db().has_table(t), "missing {t}");
        }
    }

    #[test]
    fn file_entry_roundtrip() {
        let r = repo();
        let e = entry("/movies/clip.mpg");
        let mut txn = r.db().begin();
        r.insert_file_in(&mut txn, &e).unwrap();
        txn.commit().unwrap();
        assert_eq!(r.get_file("/movies/clip.mpg"), Some(e));
        assert_eq!(r.list_files().len(), 1);

        let mut txn = r.db().begin();
        r.commit_version_in(&mut txn, "/movies/clip.mpg", 5, 7).unwrap();
        txn.commit().unwrap();
        assert_eq!(r.get_file("/movies/clip.mpg").unwrap().cur_version, 5);

        let mut txn = r.db().begin();
        r.delete_file_in(&mut txn, "/movies/clip.mpg").unwrap();
        txn.commit().unwrap();
        assert!(r.get_file("/movies/clip.mpg").is_none());
    }

    #[test]
    fn token_entries_expire_and_subsume() {
        let r = repo();
        r.put_token_entry(42, "/f", TokenKind::Write, 1_000).unwrap();
        assert!(r.check_token_entry(42, "/f", TokenKind::Write, 999));
        assert!(r.check_token_entry(42, "/f", TokenKind::Read, 999), "write subsumes read");
        assert!(!r.check_token_entry(42, "/f", TokenKind::Write, 1_001), "expired");
        assert!(!r.check_token_entry(43, "/f", TokenKind::Write, 0), "other user");
        assert!(!r.check_token_entry(42, "/g", TokenKind::Write, 0), "other file");

        // Same userid: a second application under uid 42 shares the grant
        // (the paper's deliberate userid-keying consequence, §4.1).
        assert!(r.check_token_entry(42, "/f", TokenKind::Write, 500));
    }

    #[test]
    fn token_entry_refresh_extends_expiry() {
        let r = repo();
        r.put_token_entry(1, "/f", TokenKind::Read, 100).unwrap();
        r.put_token_entry(1, "/f", TokenKind::Read, 500).unwrap();
        assert!(r.check_token_entry(1, "/f", TokenKind::Read, 400));
    }

    #[test]
    fn sync_entries_per_path() {
        let r = repo();
        r.register_open("/a", TokenKind::Read, 1, 9).unwrap();
        r.register_open("/a", TokenKind::Write, 2, 9).unwrap();
        r.register_open("/b", TokenKind::Read, 3, 9).unwrap();
        let a = r.sync_entries("/a");
        assert_eq!(a.len(), 2);
        assert!(a.iter().any(|e| e.kind == TokenKind::Write));
        r.end_open("/a", 2, true);
        assert_eq!(r.sync_entries("/a").len(), 1);
        assert_eq!(r.sync_entries("/b").len(), 1);
        assert_eq!(r.sync_entries("/c").len(), 0);
    }

    #[test]
    fn uip_lifecycle() {
        let r = repo();
        let mut txn = r.db().begin();
        txn.insert("dl_uip", UipEntry { path: "/f".into(), new_version: 2, opener: 77 }.to_row())
            .unwrap();
        txn.commit().unwrap();
        assert_eq!(r.get_uip("/f").unwrap().new_version, 2);
        assert_eq!(r.list_uip().len(), 1);
        r.remove_uip("/f").unwrap();
        assert!(r.get_uip("/f").is_none());
    }

    #[test]
    fn intents_survive_reopen_but_transient_state_does_not() {
        let env = StorageEnv::mem();
        {
            let r = Repository::open(env.clone()).unwrap();
            r.add_intent(&IntentEntry { host_txid: 5, file: entry("/f") }).unwrap();
            r.put_token_entry(1, "/f", TokenKind::Read, u64::MAX).unwrap();
            r.register_open("/f", TokenKind::Read, 1, 1).unwrap();
        }
        let r = Repository::open(env).unwrap();
        // Crash recovery: durable intents remain, open-file state is gone.
        assert_eq!(r.list_intents(), [IntentEntry { host_txid: 5, file: entry("/f") }]);
        assert!(!r.check_token_entry(1, "/f", TokenKind::Read, 0));
        assert!(r.sync_entries("/f").is_empty());
    }

    #[test]
    fn a_committed_read_that_overlaps_the_first_write_open_serves_the_before_image() {
        let r = repo();
        let mut txn = r.db().begin();
        r.insert_file_in(&mut txn, &entry("/f")).unwrap();
        txn.commit().unwrap();
        let archive = Arc::new(ArchiveStore::new());
        let writer = archive.take_generation();
        // The live read runs while the first write open captures the
        // before-image, grants the write and the writer truncates.
        let store = Arc::clone(&archive);
        let racing: ContentSource = Arc::new(move |path: &str| {
            store.put(writer, path, 1, 0, b"linked content".to_vec());
            Some(Vec::new())
        });
        assert_eq!(r.read_committed("/f", &archive, &racing).unwrap(), b"linked content");
    }

    #[test]
    fn write_claim_is_atomic_and_reads_fresh_version() {
        let r = repo();
        let mut txn = r.db().begin();
        r.insert_file_in(&mut txn, &entry("/f")).unwrap();
        txn.commit().unwrap();

        // First claim: granted against cur_version 1 → new_version 2, and
        // the UIP + write Sync rows exist atomically.
        let WriteClaim::Granted { entry: fresh, new_version } =
            r.claim_write_open("/f", 10, 42, false, None).unwrap()
        else {
            panic!("first claim must be granted");
        };
        assert_eq!(fresh.cur_version, 1);
        assert_eq!(new_version, 2);
        assert_eq!(r.get_uip("/f").unwrap().new_version, 2);
        assert_eq!(r.sync_entries("/f").len(), 1);

        // Concurrent second claim conflicts (UIP slot taken), and a tracked
        // read conflicts with the active write grant: neither records the
        // entry of the token it carried.
        let token = AccessToken::generate(&TokenKey::new(b"k"), "s", "/f", TokenKind::Write, 5_000);
        let conflict = r.claim_write_open("/f", 11, 43, false, Some(&token)).unwrap();
        assert!(matches!(conflict, WriteClaim::Conflict));
        assert!(!read_open(&r, "/f", 12, 43, Some(&token)));
        assert!(!r.check_token_entry(43, "/f", TokenKind::Read, 0));

        // Commit the update the way close processing does, then re-claim:
        // the fresh version must be observed (the lost-update race a stale
        // snapshot would reintroduce).
        let mut txn = r.db().begin();
        r.commit_version_in(&mut txn, "/f", new_version, 99).unwrap();
        r.remove_uip_in(&mut txn, "/f").unwrap();
        txn.commit().unwrap();
        r.end_open("/f", 10, true);

        let WriteClaim::Granted { entry: fresh, new_version } =
            r.claim_write_open("/f", 20, 42, false, None).unwrap()
        else {
            panic!("re-claim must be granted");
        };
        assert_eq!(fresh.cur_version, 2);
        assert_eq!(new_version, 3);

        // Release rolls both rows back; claiming an unlinked path reports it.
        r.release_write_claim("/f", 20);
        assert!(r.get_uip("/f").is_none());
        assert!(r.sync_entries("/f").is_empty());
        assert!(matches!(
            r.claim_write_open("/nope", 1, 1, false, None).unwrap(),
            WriteClaim::NotLinked
        ));
    }

    #[test]
    fn read_claims_coexist_but_respect_writers() {
        let r = repo();
        let mut txn = r.db().begin();
        r.insert_file_in(&mut txn, &entry("/f")).unwrap();
        txn.commit().unwrap();

        assert!(read_open(&r, "/f", 1, 7, None));
        assert!(read_open(&r, "/f", 2, 8, None), "reads don't conflict with reads");
        // A full-control write claim sees the read conflict when asked to.
        assert!(matches!(
            r.claim_write_open("/f", 3, 9, true, None).unwrap(),
            WriteClaim::Conflict
        ));
        // Without read conflicts (rfd-style), the write claim proceeds.
        assert!(matches!(
            r.claim_write_open("/f", 3, 9, false, None).unwrap(),
            WriteClaim::Granted { .. }
        ));
    }

    #[test]
    fn open_file_state_forces_no_log_write_and_a_write_claim_logs_only_the_uip_row() {
        let r = repo();
        let mut txn = r.db().begin();
        r.insert_file_in(&mut txn, &entry("/f")).unwrap();
        txn.commit().unwrap();

        // Token entry, tracked read open, read close: the open table only.
        let tail = r.db().state_id();
        r.put_token_entry(7, "/f", TokenKind::Read, u64::MAX).unwrap();
        assert!(read_open(&r, "/f", 1, 7, None));
        r.end_open("/f", 1, true);
        assert_eq!(r.db().state_id(), tail);

        // The write grant's UIP row is logged alone — the writer and the
        // carried token's entry are in the open table — and unforced:
        // nothing waited on a sync.
        let token = AccessToken::generate(&TokenKey::new(b"k"), "s", "/f", TokenKind::Write, 5_000);
        assert!(matches!(
            r.claim_write_open("/f", 2, 7, true, Some(&token)).unwrap(),
            WriteClaim::Granted { .. }
        ));
        assert!(r.check_token_entry(7, "/f", TokenKind::Write, 5_000));
        assert!(r.db().durable_lsn() < r.db().state_id(), "the claim waited on no sync");
        r.db().flush().unwrap();
        let frames = r.db().wal_reader().read_from(tail).unwrap();
        let [(_, dl_minidb::wal::WalRecord::Commit { ops, .. })] = &frames.records[..] else {
            panic!("one commit record expected, got {:?}", frames.records);
        };
        assert_eq!(ops.iter().map(|op| op.table()).collect::<Vec<_>>(), ["dl_uip"]);
        assert_eq!(r.sync_entries("/f").len(), 1);
    }

    #[test]
    fn update_op_counter_counts_writes() {
        let r = repo();
        let before = r.update_op_count();
        r.register_open("/x", TokenKind::Read, 1, 1).unwrap();
        r.end_open("/x", 1, true);
        assert_eq!(r.update_op_count() - before, 2, "one update per sync op (§4.5)");
    }
}
