//! Check-in/check-out (§3, second approach).
//!
//! "An application first checks-out the file it wishes to update. This, in
//! turn, places a lock on the file in the database. Before the lock is
//! removed explicitly, no other application is allowed to check-out the
//! same file. ... the DBMS needs to keep track of who has checked out what
//! files, which requires an extra database update operation for both
//! check-out and check-in requests."
//!
//! The checkout lock is a row in a `dl_checkouts` table whose primary-key
//! uniqueness *is* the lock: a concurrent checkout fails with a duplicate
//! key. The lock spans the application's entire edit session — the paper's
//! core criticism ("the lock is acquired and held for longer time, thereby
//! curtailing concurrency", and badly-behaved applications can hoard
//! checkouts).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dl_fskit::{Cred, Lfs};
use dl_minidb::{Column, ColumnType, Database, DbError, Schema, Value};

/// Errors from the checkout protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CicoError {
    /// Another application holds the checkout.
    CheckedOut { holder: u32 },
    /// The ticket does not match the current checkout (double check-in,
    /// stale ticket).
    BadTicket,
    /// Underlying database failure.
    Db(String),
}

impl std::fmt::Display for CicoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CicoError::CheckedOut { holder } => {
                write!(f, "file is checked out by uid {holder}")
            }
            CicoError::BadTicket => write!(f, "stale or invalid checkout ticket"),
            CicoError::Db(e) => write!(f, "database error: {e}"),
        }
    }
}

impl std::error::Error for CicoError {}

/// Proof of a successful checkout; required for check-in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckoutTicket {
    pub path: String,
    pub holder: u32,
    pub ticket: u64,
}

const TABLE: &str = "dl_checkouts";

/// The check-out/check-in manager.
pub struct CicoManager {
    db: Database,
    /// Raw file system; CICO does not interpose on file access at all —
    /// discipline lives entirely in the database.
    pub fs: Arc<Lfs>,
    next_ticket: AtomicU64,
    /// Database update operations performed (2 per edit session, §3).
    pub db_updates: AtomicU64,
}

impl CicoManager {
    pub fn new(db: Database, fs: Arc<Lfs>) -> Result<CicoManager, DbError> {
        if !db.has_table(TABLE) {
            db.create_table(
                Schema::new(
                    TABLE,
                    vec![
                        Column::new("path", ColumnType::Text),
                        Column::new("holder", ColumnType::Int),
                        Column::new("ticket", ColumnType::Int),
                    ],
                    "path",
                )
                .expect("static schema"),
            )?;
        }
        Ok(CicoManager { db, fs, next_ticket: AtomicU64::new(1), db_updates: AtomicU64::new(0) })
    }

    /// Checks a file out for exclusive update. One extra database update.
    pub fn checkout(&self, cred: &Cred, path: &str) -> Result<CheckoutTicket, CicoError> {
        self.db_updates.fetch_add(1, Ordering::Relaxed);
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let mut tx = self.db.begin();
        let result = tx.insert(
            TABLE,
            vec![
                Value::Text(path.to_string()),
                Value::Int(cred.uid as i64),
                Value::Int(ticket as i64),
            ],
        );
        match result {
            Ok(()) => {
                tx.commit().map_err(|e| CicoError::Db(e.to_string()))?;
                Ok(CheckoutTicket { path: path.to_string(), holder: cred.uid, ticket })
            }
            Err(DbError::DuplicateKey(_)) => {
                let holder = self
                    .db
                    .get_committed(TABLE, &Value::Text(path.to_string()))
                    .ok()
                    .flatten()
                    .and_then(|row| row[1].as_int())
                    .unwrap_or(0) as u32;
                tx.abort();
                Err(CicoError::CheckedOut { holder })
            }
            Err(e) => {
                tx.abort();
                Err(CicoError::Db(e.to_string()))
            }
        }
    }

    /// Checks the file back in, releasing the lock. One extra database
    /// update.
    pub fn checkin(&self, ticket: &CheckoutTicket) -> Result<(), CicoError> {
        self.db_updates.fetch_add(1, Ordering::Relaxed);
        let mut tx = self.db.begin();
        let key = Value::Text(ticket.path.clone());
        let row = tx
            .get_for_update(TABLE, &key)
            .map_err(|e| CicoError::Db(e.to_string()))?
            .ok_or(CicoError::BadTicket)?;
        if row[2].as_int() != Some(ticket.ticket as i64) {
            tx.abort();
            return Err(CicoError::BadTicket);
        }
        tx.delete(TABLE, &key).map_err(|e| CicoError::Db(e.to_string()))?;
        tx.commit().map_err(|e| CicoError::Db(e.to_string()))?;
        Ok(())
    }

    /// Who currently holds the checkout, if anyone.
    pub fn holder(&self, path: &str) -> Option<u32> {
        self.db
            .get_committed(TABLE, &Value::Text(path.to_string()))
            .ok()
            .flatten()
            .and_then(|row| row[1].as_int())
            .map(|uid| uid as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_fskit::{FileSystem, MemFs};
    use dl_minidb::StorageEnv;

    const ALICE: Cred = Cred { uid: 100, gid: 100 };
    const BOB: Cred = Cred { uid: 101, gid: 101 };

    fn manager() -> CicoManager {
        let db = Database::open(StorageEnv::mem()).unwrap();
        let fs = Arc::new(Lfs::new(Arc::new(MemFs::new()) as Arc<dyn FileSystem>));
        fs.write_file(&ALICE, "/doc.txt", b"v1").unwrap();
        CicoManager::new(db, fs).unwrap()
    }

    #[test]
    fn checkout_excludes_concurrent_checkout() {
        let m = manager();
        let ticket = m.checkout(&ALICE, "/doc.txt").unwrap();
        assert_eq!(m.checkout(&BOB, "/doc.txt"), Err(CicoError::CheckedOut { holder: ALICE.uid }));
        assert_eq!(m.holder("/doc.txt"), Some(ALICE.uid));
        m.checkin(&ticket).unwrap();
        assert!(m.checkout(&BOB, "/doc.txt").is_ok());
    }

    #[test]
    fn double_checkin_rejected() {
        let m = manager();
        let ticket = m.checkout(&ALICE, "/doc.txt").unwrap();
        m.checkin(&ticket).unwrap();
        assert_eq!(m.checkin(&ticket), Err(CicoError::BadTicket));
    }

    #[test]
    fn stale_ticket_rejected_after_reacquire() {
        let m = manager();
        let old = m.checkout(&ALICE, "/doc.txt").unwrap();
        m.checkin(&old).unwrap();
        let _new = m.checkout(&BOB, "/doc.txt").unwrap();
        assert_eq!(m.checkin(&old), Err(CicoError::BadTicket));
    }

    #[test]
    fn edit_session_under_checkout() {
        let m = manager();
        let ticket = m.checkout(&ALICE, "/doc.txt").unwrap();
        m.fs.write_file(&ALICE, "/doc.txt", b"v2 content").unwrap();
        m.checkin(&ticket).unwrap();
        assert_eq!(m.fs.read_file(&ALICE, "/doc.txt").unwrap(), b"v2 content");
        // Two DB updates per session, as the paper counts.
        assert_eq!(m.db_updates.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn hoarding_is_possible() {
        // The paper's complaint: nothing stops an application from checking
        // out many files in advance.
        let m = manager();
        for i in 0..10 {
            m.fs.write_file(&ALICE, &format!("/f{i}"), b"x").unwrap();
            m.checkout(&ALICE, &format!("/f{i}")).unwrap();
        }
        assert_eq!(m.db.count(TABLE).unwrap(), 10);
        for i in 0..10 {
            assert!(m.checkout(&BOB, &format!("/f{i}")).is_err());
        }
    }
}
