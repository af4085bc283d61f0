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
//! The token entries (§4.1), the Sync table (§4.5) and the writer of a file
//! in update (§4.2) describe open-file state, which no crash keeps: they
//! live in the repository's [`OpenTable`], in memory, so neither a token
//! read nor a write open runs a database transaction (see `crate::opens`).
//! Callers use that table directly ([`Repository::opens`]); the repository
//! only joins it to a file row ([`Repository::claim_write`]) or to token
//! decoding ([`Repository::admit_token`]).
//! An update's repository records are its close's and the archiver's
//! `needs_archive` clear. The tables are the durable state recovery works
//! from, and every write to them that recovery could not re-derive is
//! forced before it is acted on (DESIGN.md "Force audit" lists the ones
//! that are not). A write a crash left in flight is read back off the
//! disk, where the granted file carries the write grant's attributes.

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

/// A row of `dl_intents` — an unlink branch's vote on one file, forced
/// while the branch holds the file's `dl_files` row lock. It names the
/// host transaction and the path, and carries the ON UNLINK action a
/// committed unlink finishes; the original attributes an ON UNLINK RESTORE
/// puts back are the `dl_files` row's, which the crash that leaves the
/// intent in doubt leaves in place too (the branch's `Commit` deletes both).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntentEntry {
    pub host_txid: u64,
    pub path: String,
    pub on_unlink: OnUnlink,
}

impl IntentEntry {
    fn key(host_txid: u64, path: &str) -> Value {
        Value::Text(format!("{host_txid}|{path}"))
    }

    fn to_row(&self) -> Row {
        vec![Self::key(self.host_txid, &self.path), on_unlink_value(self.on_unlink)]
    }

    fn from_row(row: &[Value]) -> Option<IntentEntry> {
        let (host_txid, path) = row[0].as_text()?.split_once('|')?;
        Some(IntentEntry {
            host_txid: host_txid.parse().ok()?,
            path: path.to_string(),
            on_unlink: on_unlink_from(&row[1])?,
        })
    }
}

/// The repository: a typed wrapper over a `dl-minidb` database, and the
/// open table beside it.
pub struct Repository {
    db: Database,
    opens: Arc<OpenTable>,
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
        Ok(Repository { db, opens })
    }

    /// The repository over `db` as it stands, creating nothing: a read
    /// replica's view of its follower, which takes no DDL — the schema
    /// arrives by shipping. Its open table starts empty.
    pub fn over(db: Database) -> Repository {
        Repository { db, opens: Arc::default() }
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
        // `ikey` is `<host txid>|<path>`.
        create("dl_intents", "ikey", &[("ikey", Text), ("on_unlink", Text)])
    }

    /// The underlying database (sub-transactions are built on it directly).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The open-file state: Sync entries, token entries, branch marks, and
    /// the epoch and update count they move.
    pub fn opens(&self) -> &Arc<OpenTable> {
        &self.opens
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

    /// Clears the pending-archive flag inside a caller-provided
    /// transaction (recovery's, once the store holds the version).
    pub fn clear_needs_archive_in(&self, txn: &mut Txn, path: &str) -> DbResult<()> {
        let key = Value::Text(path.to_string());
        txn.update_column("dl_files", &key, "needs_archive", Value::Bool(false))
    }

    /// Clears the pending-archive flag only while `version` is still the
    /// current version (the archiver's completion callback: a newer update
    /// may have committed and set the flag for *its* version). The commit
    /// is **unforced**, and a row another transaction holds is skipped: the
    /// flag only tells recovery which versions to look for in the store, so
    /// a clear lost or skipped costs one idempotent re-check. Returns
    /// whether the flag was cleared.
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

    // --- token entries -----------------------------------------------------------

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
        self.opens.put_token(uid, path, token.kind, token.expires_at_ms);
        Ok(token.kind)
    }

    // --- open-grant claims ------------------------------------------------------
    //
    // Every conflict check is a check-and-set in the open table, and no
    // grant runs a database transaction.

    /// Grants a write open of a file the caller found linked at
    /// `unlinks_seen` ([`OpenTable::claim_write`]), then reads the file's
    /// committed row. The row is read *after* the claim: the previous writer
    /// left the table only once its close record applied, so the row's
    /// version is the one this writer's close succeeds. The writer's entry
    /// holds that next version, with the carried `token`'s entry
    /// ([`OpenTable::grant`]). Returns the row, or `None`, recording
    /// nothing, on a conflict.
    pub fn claim_write(
        &self,
        path: &str,
        opener: u64,
        uid: u32,
        read_conflicts: bool,
        token: Option<&AccessToken>,
        unlinks_seen: u64,
    ) -> Option<FileEntry> {
        if !self.opens.claim_write(path, opener, uid, read_conflicts, unlinks_seen) {
            return None;
        }
        // Cannot be gone: an unlink that began since the lookup left its
        // mark, or one that ended moved the count, and either refused the
        // claim.
        let Some(entry) = self.get_file(path) else {
            self.opens.end(path, opener, true);
            return None;
        };
        self.opens.grant(path, opener, entry.cur_version + 1, token);
        Some(entry)
    }

    // --- dl_intents -------------------------------------------------------------

    /// Forces an unlink branch's intent — its vote — before the branch
    /// answers its coordinator.
    pub fn add_intent(&self, intent: &IntentEntry) -> DbResult<()> {
        let mut txn = self.db.begin();
        txn.insert("dl_intents", intent.to_row())?;
        txn.commit()?;
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
    use crate::opens::Ended;

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

    fn intent() -> IntentEntry {
        IntentEntry { host_txid: 5, path: "/f".into(), on_unlink: OnUnlink::Delete }
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
        r.get_file(path).is_some() && r.opens().claim_read(path, opener, uid, token, unlinks_seen)
    }

    /// A write open as the server makes one, returning the version its
    /// close commits.
    fn write_open(
        r: &Repository,
        path: &str,
        opener: u64,
        read_conflicts: bool,
        token: Option<&AccessToken>,
    ) -> Option<u64> {
        let unlinks_seen = r.opens().unlinks_ended(path);
        r.get_file(path)?;
        let entry = r.claim_write(path, opener, 42, read_conflicts, token, unlinks_seen)?;
        Some(entry.cur_version + 1)
    }

    #[test]
    fn schema_is_idempotent_across_reopen() {
        let env = StorageEnv::mem();
        {
            let _ = Repository::open(env.clone()).unwrap();
        }
        let repo = Repository::open(env).unwrap();
        for t in ["dl_files", "dl_intents"] {
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
    fn intents_survive_reopen_but_transient_state_does_not() {
        let env = StorageEnv::mem();
        {
            let r = Repository::open(env.clone()).unwrap();
            r.add_intent(&intent()).unwrap();
            r.opens().put_token(1, "/f", TokenKind::Read, u64::MAX);
            r.opens().register("/f", TokenKind::Read, 1, 1).unwrap();
        }
        let r = Repository::open(env).unwrap();
        // Crash recovery: durable intents remain, open-file state is gone.
        assert_eq!(r.list_intents(), [intent()]);
        assert!(!r.opens().token_admits(1, "/f", TokenKind::Read, 0));
        assert!(r.opens().entries("/f").is_empty());
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

        // First claim: granted against cur_version 1, and the writer's
        // entry holds version 2.
        assert_eq!(write_open(&r, "/f", 10, false, None), Some(2));
        assert_eq!(r.opens().entries("/f").len(), 1);

        // A concurrent second claim conflicts (the writer slot is taken),
        // and a tracked read conflicts with the active write grant: neither
        // records the entry of the token it carried.
        let token = AccessToken::generate(&TokenKey::new(b"k"), "s", "/f", TokenKind::Write, 5_000);
        assert_eq!(write_open(&r, "/f", 11, false, Some(&token)), None);
        assert!(!read_open(&r, "/f", 12, 43, Some(&token)));
        assert!(!r.opens().token_admits(42, "/f", TokenKind::Read, 0));
        assert!(!r.opens().token_admits(43, "/f", TokenKind::Read, 0));

        // Commit the update the way close processing does — the record
        // applies before the writer leaves — then re-claim: the fresh
        // version is observed (the lost-update race a stale read would
        // reintroduce).
        assert_eq!(r.opens().end("/f", 10, false), Some(Ended::Writer(2)));
        let mut txn = r.db().begin();
        r.commit_version_in(&mut txn, "/f", 2, 99).unwrap();
        txn.commit().unwrap();
        r.opens().end("/f", 10, true);
        assert_eq!(write_open(&r, "/f", 20, false, None), Some(3));

        // Ending the writer frees the slot; an unlinked path is no claim.
        r.opens().end("/f", 20, true);
        assert!(r.opens().entries("/f").is_empty());
        assert_eq!(write_open(&r, "/nope", 1, false, None), None);
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
        assert_eq!(write_open(&r, "/f", 3, true, None), None);
        // Without read conflicts (rfd-style), the write claim proceeds.
        assert_eq!(write_open(&r, "/f", 3, false, None), Some(2));
    }

    #[test]
    fn open_file_state_and_a_write_open_log_nothing() {
        let r = repo();
        let mut txn = r.db().begin();
        r.insert_file_in(&mut txn, &entry("/f")).unwrap();
        txn.commit().unwrap();

        // Token entry, tracked read open, read close: the open table only.
        let tail = r.db().state_id();
        r.opens().put_token(7, "/f", TokenKind::Read, u64::MAX);
        assert!(read_open(&r, "/f", 1, 7, None));
        r.opens().end("/f", 1, true);
        assert_eq!(r.db().state_id(), tail);

        // A granted write open: the writer, the version it commits and the
        // carried token's entry are all in the open table.
        let token = AccessToken::generate(&TokenKey::new(b"k"), "s", "/f", TokenKind::Write, 5_000);
        let unlinks_seen = r.opens().unlinks_ended("/f");
        let granted = r.claim_write("/f", 2, 7, true, Some(&token), unlinks_seen);
        assert_eq!(granted.map(|e| e.cur_version), Some(1));
        assert!(r.opens().token_admits(7, "/f", TokenKind::Write, 5_000));
        assert_eq!(r.opens().entries("/f").len(), 1);
        assert_eq!(r.db().state_id(), tail, "the write open logged nothing");
    }
}
