//! Backup and point-in-time restore helpers.
//!
//! A backup is a transaction-consistent fork of the storage environment
//! ([`crate::Database::backup`]). Restoring never consumes the backup:
//! [`restore_to_lsn`] forks it again (the newest state is
//! `Database::open(backup.fork()?)`), so one backup image supports any
//! number of restores to any number of points in time — exactly what §4.4's
//! "database may be restored to a specific time in the past for auditing
//! purposes" requires.

use crate::db::{Database, DbOptions};
use crate::device::StorageEnv;
use crate::error::DbResult;
use crate::wal::Lsn;

/// Restores the state as of `lsn` (commits with LSN ≤ `lsn` are included).
pub fn restore_to_lsn(backup: &StorageEnv, lsn: Lsn) -> DbResult<Database> {
    Database::open_with(backup.fork()?, DbOptions { stop_at_lsn: Some(lsn), ..Default::default() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Column, ColumnType, Row, Schema, Value};

    fn setup() -> (Database, Vec<Lsn>) {
        let db = Database::open(StorageEnv::mem()).unwrap();
        db.create_table(
            Schema::new(
                "pages",
                vec![Column::new("url", ColumnType::Text), Column::new("rev", ColumnType::Int)],
                "url",
            )
            .unwrap(),
        )
        .unwrap();
        let mut lsns = Vec::new();
        for rev in 0..5i64 {
            let mut tx = db.begin();
            let row: Row = vec![Value::Text("/index.html".into()), Value::Int(rev)];
            if rev == 0 {
                tx.insert("pages", row).unwrap();
            } else {
                tx.update("pages", &Value::Text("/index.html".into()), row).unwrap();
            }
            lsns.push(tx.commit().unwrap());
        }
        (db, lsns)
    }

    fn rev_of(db: &Database) -> i64 {
        db.get_committed("pages", &Value::Text("/index.html".into())).unwrap().unwrap()[1]
            .as_int()
            .unwrap()
    }

    #[test]
    fn restoring_the_newest_state_matches_source() {
        let (db, _) = setup();
        let backup = db.backup().unwrap();
        let restored = Database::open(backup.fork().unwrap()).unwrap();
        assert_eq!(rev_of(&restored), 4);
    }

    #[test]
    fn restore_to_each_historical_lsn() {
        let (db, lsns) = setup();
        let backup = db.backup().unwrap();
        for (rev, lsn) in lsns.iter().enumerate() {
            let restored = restore_to_lsn(&backup, *lsn).unwrap();
            assert_eq!(rev_of(&restored), rev as i64, "state at lsn {lsn}");
        }
    }

    #[test]
    fn one_backup_supports_many_restores() {
        let (db, lsns) = setup();
        let backup = db.backup().unwrap();
        let a = restore_to_lsn(&backup, lsns[1]).unwrap();
        let b = restore_to_lsn(&backup, lsns[3]).unwrap();
        let c = Database::open(backup.fork().unwrap()).unwrap();
        assert_eq!(rev_of(&a), 1);
        assert_eq!(rev_of(&b), 3);
        assert_eq!(rev_of(&c), 4);
    }

    #[test]
    fn restored_database_accepts_new_writes() {
        let (db, lsns) = setup();
        let backup = db.backup().unwrap();
        let restored = restore_to_lsn(&backup, lsns[2]).unwrap();
        let mut tx = restored.begin();
        tx.update(
            "pages",
            &Value::Text("/index.html".into()),
            vec![Value::Text("/index.html".into()), Value::Int(99)],
        )
        .unwrap();
        tx.commit().unwrap();
        assert_eq!(rev_of(&restored), 99);
        // Original untouched.
        assert_eq!(rev_of(&db), 4);
    }
}
