//! Database error type.

use std::fmt;

/// Result alias for database operations.
pub type DbResult<T> = Result<T, DbError>;

/// Errors surfaced by the relational engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// Named table does not exist.
    NoSuchTable(String),
    /// Named column does not exist in the table.
    NoSuchColumn(String),
    /// Primary key already present on insert.
    DuplicateKey(String),
    /// Row not found for update/delete/get-by-key.
    RowNotFound,
    /// Row shape or value type does not match the schema.
    SchemaMismatch(String),
    /// Table already exists on create.
    TableExists(String),
    /// Granting a lock would deadlock; the requesting transaction should
    /// abort and retry.
    Deadlock,
    /// Transaction handle used after commit/abort, or unknown txid.
    InvalidTxnState(String),
    /// A DML observer (e.g. the DataLinks engine) vetoed the statement.
    Vetoed(String),
    /// The host aborted the transaction before it decided
    /// (`Database::abort_undecided`): a participant's branch was lost.
    Aborted(String),
    /// The write-ahead log or snapshot is corrupt beyond the recoverable
    /// prefix.
    Corrupt(String),
    /// The requested log range lies below the checkpoint low-water mark:
    /// those frames were truncated away and are only reachable through a
    /// checkpoint image (a replication shipper falls back to installing
    /// the latest checkpoint, then tails from `base`).
    TruncatedLog {
        /// The current truncation low-water mark of the log.
        base: u64,
    },
    /// The database follows a primary: its log takes shipped frames and
    /// checkpoint images only, so it refuses local logged writes, DDL and
    /// checkpoints until promoted: every transaction that writes.
    Following,
    /// Underlying storage failure.
    Io(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            DbError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            DbError::DuplicateKey(k) => write!(f, "duplicate primary key: {k}"),
            DbError::RowNotFound => write!(f, "row not found"),
            DbError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            DbError::TableExists(t) => write!(f, "table already exists: {t}"),
            DbError::Deadlock => write!(f, "deadlock detected; transaction must abort"),
            DbError::InvalidTxnState(m) => write!(f, "invalid transaction state: {m}"),
            DbError::Vetoed(m) => write!(f, "statement vetoed: {m}"),
            DbError::Aborted(m) => write!(f, "transaction aborted: {m}"),
            DbError::Corrupt(m) => write!(f, "corrupt storage: {m}"),
            DbError::TruncatedLog { base } => {
                write!(f, "log truncated below checkpoint low-water mark {base}")
            }
            DbError::Following => write!(f, "a follower takes no logged writes until promoted"),
            DbError::Io(m) => write!(f, "i/o error: {m}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(DbError::NoSuchTable("t".into()).to_string(), "no such table: t");
        assert_eq!(DbError::Deadlock.to_string(), "deadlock detected; transaction must abort");
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::other("disk on fire");
        let db: DbError = io.into();
        assert!(matches!(db, DbError::Io(ref m) if m.contains("disk on fire")));
    }
}
