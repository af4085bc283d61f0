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
//! | `dl_tokens`  | validated token entries keyed by *userid* + path + kind (§4.1) |
//! | `dl_sync`    | the Sync table (§4.5): one row per open of a managed file  |
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
//! `dl_tokens` and `dl_sync` describe *open-file* state, which cannot
//! survive a crash (every descriptor is gone). They are **unlogged** tables
//! (`dl_minidb::Schema::unlogged`): a write to them takes its row locks and
//! is visible at commit like any other, but forces no log record, reaches no
//! snapshot and no standby, and every reopen of the repository — crash
//! recovery, restore — finds both empty. A read replica writes token
//! entries of its own into its follower's `dl_tokens` (a follower commits
//! unlogged-only transactions), so a promoted standby starts with the
//! sessions it admitted and no Sync rows. `dl_files`,
//! `dl_uip` and `dl_intents` are the durable state recovery works
//! from, and every write to them that recovery could not re-derive is
//! forced before it is acted on (DESIGN.md "Force audit" lists the ones
//! that are not). A grant
//! that touches both classes (`claim_write_open`: `dl_uip` + `dl_sync`, and
//! the entry of the token the open carried) is
//! one commit whose log record carries the `dl_uip` row only — unforced,
//! like every claim removal: the update's one forced write is the host's
//! `Commit`, and a claim a crash took is read back off the disk, where the
//! granted file carries the write grant's attributes.

use std::sync::atomic::{AtomicU64, Ordering};

use dl_minidb::{Column, ColumnType, Database, DbResult, Row, Schema, StorageEnv, Txn, Value};

use crate::archive::{ArchiveStore, ContentSource};
use crate::modes::{ControlMode, OnUnlink};
use crate::token::{AccessToken, TokenKey, TokenKind};

/// Names of all repository tables.
pub const TABLES: [&str; 5] = ["dl_files", "dl_tokens", "dl_sync", "dl_uip", "dl_intents"];

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

/// A row of `dl_sync` — one open of a managed file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncEntry {
    pub path: String,
    pub kind: TokenKind,
    /// Unique per open-file instance; issued by DLFS.
    pub opener: u64,
    pub uid: u32,
}

impl SyncEntry {
    fn key(&self) -> String {
        sync_key(&self.path, self.opener)
    }

    fn to_row(&self) -> Row {
        vec![
            Value::Text(self.key()),
            Value::Text(self.path.clone()),
            Value::Text(kind_str(self.kind).to_string()),
            Value::Int(self.opener as i64),
            Value::Int(self.uid as i64),
        ]
    }
}

fn sync_key(path: &str, opener: u64) -> String {
    format!("{path}|{opener}")
}

fn kind_str(kind: TokenKind) -> &'static str {
    match kind {
        TokenKind::Read => "r",
        TokenKind::Write => "w",
    }
}

fn kind_from(s: &str) -> TokenKind {
    if s == "w" {
        TokenKind::Write
    } else {
        TokenKind::Read
    }
}

/// A row of `dl_uip` — an update in progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UipEntry {
    pub path: String,
    pub new_version: u64,
    pub opener: u64,
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
    /// The update slot is claimed: UIP + write Sync row are committed.
    Granted { entry: FileEntry, new_version: u64 },
    /// Another update is in progress or a conflicting open exists.
    Conflict,
    /// The file is not (or no longer) linked.
    NotLinked,
}

/// The repository: a typed wrapper over a `dl-minidb` database.
pub struct Repository {
    db: Database,
    /// Auto-commit write transactions performed (the "extra database update
    /// operations" the paper counts in §4.5), forced or unlogged alike.
    pub update_ops: AtomicU64,
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
        Self::ensure_schema(&db)?;
        Ok(Self::over(db))
    }

    /// The repository over `db` as it stands, creating nothing: a read
    /// replica's view of its follower, which takes no DDL — the schema
    /// arrives by shipping.
    pub fn over(db: Database) -> Repository {
        Repository { db, update_ops: AtomicU64::new(0) }
    }

    fn ensure_schema(db: &Database) -> DbResult<()> {
        if !db.has_table("dl_files") {
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
                .expect("static schema"),
            )?;
        }
        if !db.has_table("dl_tokens") {
            db.create_table(
                Schema::new(
                    "dl_tokens",
                    vec![
                        Column::new("tokkey", ColumnType::Text),
                        Column::new("expiry", ColumnType::Int),
                    ],
                    "tokkey",
                )
                .expect("static schema")
                .unlogged(),
            )?;
        }
        if !db.has_table("dl_sync") {
            db.create_table(
                Schema::new(
                    "dl_sync",
                    vec![
                        Column::new("synckey", ColumnType::Text),
                        Column::new("path", ColumnType::Text),
                        Column::new("kind", ColumnType::Text),
                        Column::new("opener", ColumnType::Int),
                        Column::new("uid", ColumnType::Int),
                    ],
                    "synckey",
                )
                .expect("static schema")
                .unlogged(),
            )?;
            db.create_index("dl_sync", "path")?;
        }
        if !db.has_table("dl_uip") {
            db.create_table(
                Schema::new(
                    "dl_uip",
                    vec![
                        Column::new("path", ColumnType::Text),
                        Column::new("new_version", ColumnType::Int),
                        Column::new("opener", ColumnType::Int),
                    ],
                    "path",
                )
                .expect("static schema"),
            )?;
        }
        if !db.has_table("dl_intents") {
            db.create_table(
                Schema::new(
                    "dl_intents",
                    vec![
                        // `<host txid>|<path>`
                        Column::new("ikey", ColumnType::Text),
                        Column::new("mode", ColumnType::Text),
                        Column::new("recovery", ColumnType::Bool),
                        Column::new("on_unlink", ColumnType::Text),
                        Column::new("orig_uid", ColumnType::Int),
                        Column::new("orig_gid", ColumnType::Int),
                        Column::new("orig_mode", ColumnType::Int),
                        Column::new("ino", ColumnType::Int),
                    ],
                    "ikey",
                )
                .expect("static schema"),
            )?;
        }
        Ok(())
    }

    /// The underlying database (sub-transactions are built on it directly).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Counts one auto-commit update — called after its commit succeeded,
    /// so a call that found nothing to change (a `remove_sync` of no row)
    /// or lost a conflict is not an update.
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
    /// the row: when another transaction holds it (a read or a write open
    /// claiming the file) the clear is skipped and the flag stays set for
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
    /// of a file never write-opened since link (the first write open
    /// captures the before-image). The token check is the caller's.
    pub fn read_committed(
        &self,
        path: &str,
        archive: &ArchiveStore,
        live: Option<&ContentSource>,
    ) -> Result<Vec<u8>, String> {
        let entry = self.get_file(path).ok_or_else(|| format!("file {path} is not linked"))?;
        if let Some(archived) = archive.get(path, entry.cur_version) {
            return Ok(archived.data);
        }
        live.and_then(|read| read(path)).ok_or_else(|| {
            format!("version {} of {path} is neither archived nor readable", entry.cur_version)
        })
    }

    /// Files whose current version still awaits archiving (recovery).
    pub fn files_needing_archive(&self) -> Vec<FileEntry> {
        self.list_files().into_iter().filter(|f| f.needs_archive).collect()
    }

    // --- dl_tokens --------------------------------------------------------------

    fn token_key(uid: u32, path: &str, kind: TokenKind) -> String {
        format!("{uid}|{path}|{}", kind_str(kind))
    }

    /// Records a validated token entry: "the user has permission to access
    /// the file till time t" (§4.1). Keyed by userid, not processid.
    /// Unlogged: a crash closes every descriptor the entry could admit.
    pub fn put_token_entry(
        &self,
        uid: u32,
        path: &str,
        kind: TokenKind,
        expiry_ms: u64,
    ) -> DbResult<()> {
        let mut txn = self.db.begin();
        Self::put_token_in(&mut txn, uid, path, kind, expiry_ms)?;
        txn.commit()?;
        self.bump();
        Ok(())
    }

    /// Upserts the token entry inside `txn` — on its own, or in the claim
    /// transaction of the open that carried the token.
    fn put_token_in(
        txn: &mut Txn,
        uid: u32,
        path: &str,
        kind: TokenKind,
        expiry_ms: u64,
    ) -> DbResult<()> {
        let key = Self::token_key(uid, path, kind);
        let kv = Value::Text(key.clone());
        let row = vec![Value::Text(key), Value::Int(expiry_ms as i64)];
        if txn.get_for_update("dl_tokens", &kv)?.is_some() {
            txn.update("dl_tokens", &kv, row)
        } else {
            txn.insert("dl_tokens", row)
        }
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
        let direct = self
            .db
            .get_committed("dl_tokens", &Value::Text(Self::token_key(uid, path, wanted)))
            .ok()
            .flatten()
            .and_then(|row| row[1].as_int())
            .map(|exp| now_ms <= exp as u64)
            .unwrap_or(false);
        if direct {
            return true;
        }
        if wanted == TokenKind::Read {
            return self
                .db
                .get_committed(
                    "dl_tokens",
                    &Value::Text(Self::token_key(uid, path, TokenKind::Write)),
                )
                .ok()
                .flatten()
                .and_then(|row| row[1].as_int())
                .map(|exp| now_ms <= exp as u64)
                .unwrap_or(false);
        }
        false
    }

    // --- dl_sync ---------------------------------------------------------------

    /// Inserts a Sync-table entry for an approved open (§4.5). Unlogged,
    /// like its removal at close.
    pub fn add_sync(&self, entry: &SyncEntry) -> DbResult<()> {
        let mut txn = self.db.begin();
        txn.insert("dl_sync", entry.to_row())?;
        txn.commit()?;
        self.bump();
        Ok(())
    }

    /// Purges the Sync-table entry at close (§4.5).
    pub fn remove_sync(&self, path: &str, opener: u64) -> DbResult<()> {
        let mut txn = self.db.begin();
        self.remove_sync_in(&mut txn, path, opener)?;
        txn.commit()?;
        self.bump();
        Ok(())
    }

    /// Purges a Sync-table entry inside a caller-provided transaction (the
    /// close's, for the write it ends).
    pub fn remove_sync_in(&self, txn: &mut Txn, path: &str, opener: u64) -> DbResult<()> {
        txn.delete("dl_sync", &Value::Text(sync_key(path, opener)))
    }

    /// Sync entries for `path` (index-accelerated).
    pub fn sync_entries(&self, path: &str) -> Vec<SyncEntry> {
        let keys = self
            .db
            .find_committed("dl_sync", "path", &Value::Text(path.to_string()))
            .unwrap_or_default();
        keys.iter()
            .filter_map(|k| self.db.get_committed("dl_sync", k).ok().flatten())
            .filter_map(|row| {
                Some(SyncEntry {
                    path: row[1].as_text()?.to_string(),
                    kind: kind_from(row[2].as_text()?),
                    opener: row[3].as_int()? as u64,
                    uid: row[4].as_int()? as u32,
                })
            })
            .collect()
    }

    // --- open-grant claims ------------------------------------------------------
    //
    // Open processing must be atomic: the single upcall daemon used to
    // serialize it implicitly, but with a worker pool two opens (or an
    // open and a close) can interleave. All grants for one file serialize
    // on its `dl_files` row lock — every claim transaction takes that row
    // exclusively *first* (the same first lock the close transaction
    // takes), reads the fresh state under it, and inserts its UIP/Sync
    // rows in the same commit.

    /// Atomically grants a write open: under the `dl_files` row lock,
    /// re-reads the committed file entry (the caller's copy may be stale),
    /// verifies no conflicting Sync entries, and inserts the UIP row for
    /// `cur_version + 1` plus the write Sync row in one transaction — with
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
        // Committed reads are race-free here: every grant commits (and
        // every close commits its removal) under this row lock.
        let conflict =
            self.sync_entries(path).iter().any(|s| s.kind == TokenKind::Write || read_conflicts);
        if conflict {
            return Ok(WriteClaim::Conflict);
        }
        let new_version = entry.cur_version + 1;
        let uip_row = vec![
            Value::Text(path.to_string()),
            Value::Int(new_version as i64),
            Value::Int(opener as i64),
        ];
        match txn.insert("dl_uip", uip_row) {
            Ok(()) => {}
            Err(dl_minidb::DbError::DuplicateKey(_)) => return Ok(WriteClaim::Conflict),
            Err(e) => return Err(e),
        }
        let sync = SyncEntry { path: path.to_string(), kind: TokenKind::Write, opener, uid };
        txn.insert("dl_sync", sync.to_row())?;
        if let Some(token) = token {
            Self::put_token_in(&mut txn, uid, path, token.kind, token.expires_at_ms)?;
        }
        txn.commit_unforced()?;
        self.bump();
        Ok(WriteClaim::Granted { entry, new_version })
    }

    /// Atomically grants a tracked read open: under the `dl_files` row
    /// lock, verifies no write Sync entry exists and inserts the read Sync
    /// row, with the entry of the carried `token` as in
    /// [`Repository::claim_write_open`]. Returns false, recording nothing,
    /// on a write conflict.
    pub fn claim_read_sync(
        &self,
        path: &str,
        opener: u64,
        uid: u32,
        token: Option<&AccessToken>,
    ) -> DbResult<bool> {
        let key = Value::Text(path.to_string());
        let mut txn = self.db.begin();
        if txn.get_for_update("dl_files", &key)?.is_none() {
            // Unlinked between the caller's lookup and now; treat as a
            // conflict so the caller re-evaluates.
            return Ok(false);
        }
        if self.sync_entries(path).iter().any(|s| s.kind == TokenKind::Write) {
            return Ok(false);
        }
        let sync = SyncEntry { path: path.to_string(), kind: TokenKind::Read, opener, uid };
        txn.insert("dl_sync", sync.to_row())?;
        if let Some(token) = token {
            Self::put_token_in(&mut txn, uid, path, token.kind, token.expires_at_ms)?;
        }
        txn.commit()?;
        self.bump();
        Ok(true)
    }

    /// Rolls a write claim back (a failed before-image or take-over): removes
    /// the UIP and Sync rows it inserted, unforced (see
    /// [`Repository::remove_uip`]).
    pub fn release_write_claim(&self, path: &str, opener: u64) {
        let _ = self.remove_uip(path);
        let _ = self.remove_sync(path, opener);
    }

    // --- dl_uip -----------------------------------------------------------------

    /// Records that `path` is being updated toward `new_version` (§4.4).
    pub fn put_uip(&self, entry: &UipEntry) -> DbResult<()> {
        let mut txn = self.db.begin();
        txn.insert(
            "dl_uip",
            vec![
                Value::Text(entry.path.clone()),
                Value::Int(entry.new_version as i64),
                Value::Int(entry.opener as i64),
            ],
        )?;
        txn.commit()?;
        self.bump();
        Ok(())
    }

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
        self.db.get_committed("dl_uip", &Value::Text(path.to_string())).ok().flatten().and_then(
            |row| {
                Some(UipEntry {
                    path: row[0].as_text()?.to_string(),
                    new_version: row[1].as_int()? as u64,
                    opener: row[2].as_int()? as u64,
                })
            },
        )
    }

    /// All update-in-progress entries (crash recovery walks these).
    pub fn list_uip(&self) -> Vec<UipEntry> {
        self.db
            .scan_committed("dl_uip")
            .unwrap_or_default()
            .iter()
            .filter_map(|row| {
                Some(UipEntry {
                    path: row[0].as_text()?.to_string(),
                    new_version: row[1].as_int()? as u64,
                    opener: row[2].as_int()? as u64,
                })
            })
            .collect()
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

    #[test]
    fn schema_is_idempotent_across_reopen() {
        let env = StorageEnv::mem();
        {
            let _ = Repository::open(env.clone()).unwrap();
        }
        let repo = Repository::open(env).unwrap();
        for t in TABLES {
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
        r.add_sync(&SyncEntry { path: "/a".into(), kind: TokenKind::Read, opener: 1, uid: 9 })
            .unwrap();
        r.add_sync(&SyncEntry { path: "/a".into(), kind: TokenKind::Write, opener: 2, uid: 9 })
            .unwrap();
        r.add_sync(&SyncEntry { path: "/b".into(), kind: TokenKind::Read, opener: 3, uid: 9 })
            .unwrap();
        let a = r.sync_entries("/a");
        assert_eq!(a.len(), 2);
        assert!(a.iter().any(|e| e.kind == TokenKind::Write));
        r.remove_sync("/a", 2).unwrap();
        assert_eq!(r.sync_entries("/a").len(), 1);
        assert_eq!(r.sync_entries("/b").len(), 1);
        assert_eq!(r.sync_entries("/c").len(), 0);
    }

    #[test]
    fn uip_lifecycle() {
        let r = repo();
        r.put_uip(&UipEntry { path: "/f".into(), new_version: 2, opener: 77 }).unwrap();
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
            r.add_sync(&SyncEntry { path: "/f".into(), kind: TokenKind::Read, opener: 1, uid: 1 })
                .unwrap();
        }
        let r = Repository::open(env).unwrap();
        // Crash recovery: durable intents remain, open-file state is gone.
        assert_eq!(r.list_intents(), [IntentEntry { host_txid: 5, file: entry("/f") }]);
        assert!(!r.check_token_entry(1, "/f", TokenKind::Read, 0));
        assert!(r.sync_entries("/f").is_empty());
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
        assert!(!r.claim_read_sync("/f", 12, 43, Some(&token)).unwrap());
        assert!(!r.check_token_entry(43, "/f", TokenKind::Read, 0));

        // Commit the update the way close processing does, then re-claim:
        // the fresh version must be observed (the lost-update race a stale
        // snapshot would reintroduce).
        let mut txn = r.db().begin();
        r.commit_version_in(&mut txn, "/f", new_version, 99).unwrap();
        r.remove_uip_in(&mut txn, "/f").unwrap();
        txn.commit().unwrap();
        r.remove_sync("/f", 10).unwrap();

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

        assert!(r.claim_read_sync("/f", 1, 7, None).unwrap());
        assert!(r.claim_read_sync("/f", 2, 8, None).unwrap(), "reads don't conflict with reads");
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

        // Token entry, tracked read open, read close: all unlogged.
        let tail = r.db().state_id();
        r.put_token_entry(7, "/f", TokenKind::Read, u64::MAX).unwrap();
        assert!(r.claim_read_sync("/f", 1, 7, None).unwrap());
        r.remove_sync("/f", 1).unwrap();
        assert_eq!(r.db().state_id(), tail);

        // The write grant's UIP row is logged alone, in the same commit
        // that adds the Sync row and the carried token's entry — and
        // unforced: nothing waited on a sync.
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
        r.add_sync(&SyncEntry { path: "/x".into(), kind: TokenKind::Read, opener: 1, uid: 1 })
            .unwrap();
        r.remove_sync("/x", 1).unwrap();
        assert_eq!(r.update_op_count() - before, 2, "one update per sync op (§4.5)");
    }
}
