//! Copy-and-update (§3, third approach).
//!
//! "Applications can first make a private copy of a file before updating
//! it. ... Multiple applications are allowed to make their own copies of
//! the same file. ... transaction semantics is not enforced by DBMS and
//! applications themselves need to worry about update atomicity. ...
//! As readers may point out that a lost update can occur with this
//! approach, if not done carefully, and it does occur."
//!
//! The manager versions each master file in a `dl_cau` table. `copy_out`
//! records the base version the copy was taken from; `check_in` compares
//! the base against the current version:
//!
//! * equal → clean replace, version bump;
//! * stale → depends on the [`MergePolicy`]: `Reject` (the careful shop)
//!   or `LastWriterWins` (the paper's anecdotal development lab, which
//!   silently **loses the intervening committed update** — benchmark A1
//!   counts exactly these).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dl_fskit::{Cred, Lfs};
use dl_minidb::{Column, ColumnType, Database, DbError, Schema, Value};

/// What to do when a check-in's base version is stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergePolicy {
    /// Refuse; the application must re-copy and re-apply its changes.
    Reject,
    /// Overwrite anyway — losing the intervening committed update(s).
    LastWriterWins,
}

/// Result of a successful check-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckinOutcome {
    /// The base version was current; nothing was lost.
    Clean,
    /// `LastWriterWins` overwrote `lost` committed update(s).
    LostUpdates { lost: u64 },
}

/// A private working copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CauCopy {
    /// Path of the master file.
    pub master: String,
    /// Path of the private copy.
    pub copy: String,
    /// Version of the master the copy was taken from.
    pub base_version: u64,
    pub owner: u32,
}

const TABLE: &str = "dl_cau";

/// The copy-and-update manager.
pub struct CauManager {
    db: Database,
    pub fs: Arc<Lfs>,
    next_copy: AtomicU64,
    /// Committed updates silently overwritten by LastWriterWins check-ins.
    pub lost_updates: AtomicU64,
    /// Check-ins rejected as conflicts.
    pub conflicts: AtomicU64,
}

impl CauManager {
    pub fn new(db: Database, fs: Arc<Lfs>) -> Result<CauManager, DbError> {
        if !db.has_table(TABLE) {
            db.create_table(
                Schema::new(
                    TABLE,
                    vec![
                        Column::new("path", ColumnType::Text),
                        Column::new("version", ColumnType::Int),
                    ],
                    "path",
                )
                .expect("static schema"),
            )?;
        }
        Ok(CauManager {
            db,
            fs,
            next_copy: AtomicU64::new(1),
            lost_updates: AtomicU64::new(0),
            conflicts: AtomicU64::new(0),
        })
    }

    fn version_of(&self, tx: &mut dl_minidb::Txn, path: &str) -> Result<u64, DbError> {
        let key = Value::Text(path.to_string());
        match tx.get_for_update(TABLE, &key)? {
            Some(row) => Ok(row[1].as_int().unwrap_or(0) as u64),
            None => {
                tx.insert(TABLE, vec![key, Value::Int(1)])?;
                Ok(1)
            }
        }
    }

    /// Takes a private copy of `master`. Never blocks anyone (§3: "making a
    /// private copy does not lock the file").
    pub fn copy_out(&self, cred: &Cred, master: &str) -> Result<CauCopy, String> {
        let mut tx = self.db.begin();
        let base_version = self.version_of(&mut tx, master).map_err(|e| e.to_string())?;
        tx.commit().map_err(|e| e.to_string())?;

        let n = self.next_copy.fetch_add(1, Ordering::Relaxed);
        let data = self.fs.read_file(cred, master).map_err(|e| e.to_string())?;
        let copy = format!("/tmp-cau-{}-{}", cred.uid, n);
        self.fs.mkdir_p(&Cred::root(), "/", 0o777).map_err(|e| e.to_string())?;
        self.fs.write_file(cred, &copy, &data).map_err(|e| e.to_string())?;
        Ok(CauCopy { master: master.to_string(), copy, base_version, owner: cred.uid })
    }

    /// Checks a private copy back in under `policy`.
    pub fn check_in(
        &self,
        cred: &Cred,
        copy: &CauCopy,
        policy: MergePolicy,
    ) -> Result<CheckinOutcome, String> {
        let data = self.fs.read_file(cred, &copy.copy).map_err(|e| e.to_string())?;
        let mut tx = self.db.begin();
        let current = self.version_of(&mut tx, &copy.master).map_err(|e| e.to_string())?;
        let stale_by = current.saturating_sub(copy.base_version);
        if stale_by > 0 && policy == MergePolicy::Reject {
            tx.abort();
            self.conflicts.fetch_add(1, Ordering::Relaxed);
            return Err(format!(
                "conflict: {} moved from v{} to v{} since copy-out",
                copy.master, copy.base_version, current
            ));
        }
        tx.update(
            TABLE,
            &Value::Text(copy.master.clone()),
            vec![Value::Text(copy.master.clone()), Value::Int((current + 1) as i64)],
        )
        .map_err(|e| e.to_string())?;
        // The file replace rides inside the version transaction's lock
        // window, so two racing check-ins serialize on the row lock.
        self.fs.write_file(cred, &copy.master, &data).map_err(|e| e.to_string())?;
        tx.commit().map_err(|e| e.to_string())?;
        let _ = self.fs.remove(cred, &copy.copy);

        if stale_by > 0 {
            self.lost_updates.fetch_add(stale_by, Ordering::Relaxed);
            Ok(CheckinOutcome::LostUpdates { lost: stale_by })
        } else {
            Ok(CheckinOutcome::Clean)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_fskit::{FileSystem, MemFs};
    use dl_minidb::StorageEnv;

    const ALICE: Cred = Cred { uid: 100, gid: 100 };
    const BOB: Cred = Cred { uid: 101, gid: 101 };

    fn manager() -> CauManager {
        let db = Database::open(StorageEnv::mem()).unwrap();
        let fs = Arc::new(Lfs::new(Arc::new(MemFs::new()) as Arc<dyn FileSystem>));
        fs.setattr(&Cred::root(), "/", &dl_fskit::SetAttr::chmod(0o777)).unwrap();
        fs.write_file(&ALICE, "/page.html", b"original").unwrap();
        fs.setattr(&ALICE, "/page.html", &dl_fskit::SetAttr::chmod(0o666)).unwrap();
        CauManager::new(db, fs).unwrap()
    }

    /// The committed version of a master file.
    fn version(m: &CauManager, path: &str) -> i64 {
        let row = m.db.get_committed(TABLE, &Value::Text(path.to_string())).unwrap().unwrap();
        row[1].as_int().unwrap()
    }

    #[test]
    fn clean_single_writer_cycle() {
        let m = manager();
        let copy = m.copy_out(&ALICE, "/page.html").unwrap();
        m.fs.write_file(&ALICE, &copy.copy, b"edited").unwrap();
        assert_eq!(m.check_in(&ALICE, &copy, MergePolicy::Reject).unwrap(), CheckinOutcome::Clean);
        assert_eq!(m.fs.read_file(&ALICE, "/page.html").unwrap(), b"edited");
        assert_eq!(version(&m, "/page.html"), 2);
    }

    #[test]
    fn copies_never_block_each_other() {
        let m = manager();
        let a = m.copy_out(&ALICE, "/page.html").unwrap();
        let b = m.copy_out(&BOB, "/page.html").unwrap();
        assert_ne!(a.copy, b.copy);
        assert_eq!(a.base_version, b.base_version);
    }

    #[test]
    fn reject_policy_detects_conflict() {
        let m = manager();
        let a = m.copy_out(&ALICE, "/page.html").unwrap();
        let b = m.copy_out(&BOB, "/page.html").unwrap();

        m.fs.write_file(&ALICE, &a.copy, b"alice's work").unwrap();
        m.check_in(&ALICE, &a, MergePolicy::Reject).unwrap();

        m.fs.write_file(&BOB, &b.copy, b"bob's work").unwrap();
        let err = m.check_in(&BOB, &b, MergePolicy::Reject).unwrap_err();
        assert!(err.contains("conflict"), "{err}");
        assert_eq!(m.conflicts.load(Ordering::Relaxed), 1);
        // Alice's work survived.
        assert_eq!(m.fs.read_file(&ALICE, "/page.html").unwrap(), b"alice's work");
    }

    #[test]
    fn last_writer_wins_loses_updates_and_counts_them() {
        // The paper's "and it does occur".
        let m = manager();
        let a = m.copy_out(&ALICE, "/page.html").unwrap();
        let b = m.copy_out(&BOB, "/page.html").unwrap();

        m.fs.write_file(&ALICE, &a.copy, b"alice's committed work").unwrap();
        m.check_in(&ALICE, &a, MergePolicy::LastWriterWins).unwrap();

        m.fs.write_file(&BOB, &b.copy, b"bob clobbers everything").unwrap();
        let outcome = m.check_in(&BOB, &b, MergePolicy::LastWriterWins).unwrap();
        assert_eq!(outcome, CheckinOutcome::LostUpdates { lost: 1 });
        assert_eq!(m.lost_updates.load(Ordering::Relaxed), 1);
        // Alice's committed update is gone — the lost update.
        assert_eq!(m.fs.read_file(&ALICE, "/page.html").unwrap(), b"bob clobbers everything");
        assert_eq!(version(&m, "/page.html"), 3);
    }

    #[test]
    fn rejected_checkin_can_retry_after_fresh_copy() {
        let m = manager();
        let a = m.copy_out(&ALICE, "/page.html").unwrap();
        let b = m.copy_out(&BOB, "/page.html").unwrap();
        m.fs.write_file(&ALICE, &a.copy, b"first").unwrap();
        m.check_in(&ALICE, &a, MergePolicy::Reject).unwrap();
        m.fs.write_file(&BOB, &b.copy, b"second attempt").unwrap();
        assert!(m.check_in(&BOB, &b, MergePolicy::Reject).is_err());

        // Re-copy (picking up Alice's version), re-apply, clean check-in.
        let b2 = m.copy_out(&BOB, "/page.html").unwrap();
        m.fs.write_file(&BOB, &b2.copy, b"second attempt rebased").unwrap();
        assert_eq!(m.check_in(&BOB, &b2, MergePolicy::Reject).unwrap(), CheckinOutcome::Clean);
    }
}
