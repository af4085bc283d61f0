//! Embedded transactional relational engine — the host-RDBMS substrate for
//! the DataLinks reproduction.
//!
//! The ICDE 2001 paper assumes DB2 UDB underneath: transactional DML on
//! tables holding DATALINK columns, sub-transaction (two-phase commit)
//! enrollment of the DataLinks File Manager, log sequence numbers usable as
//! *database state identifiers* for coordinated file archiving (§4.4), and
//! point-in-time restore. `dl-minidb` provides those facilities:
//!
//! * **Storage model** — committed table data lives in memory; durability
//!   comes from a redo-only write-ahead log plus ping-pong snapshots
//!   (deferred-update architecture: transactions buffer writes privately and
//!   apply them at commit, so recovery never needs undo). The log runs a
//!   leader/follower group-commit pipeline ([`WalOptions`], via
//!   [`DbOptions::wal`](db::DbOptions)): concurrent committers share one
//!   device write + sync without ever being acknowledged before their own
//!   frame is durable. Records recovery can re-derive
//!   ([`Txn::commit_unforced`]) are appended *unforced*: logged in order,
//!   written by the next flush, never waited for.
//! * **Concurrency control** — strict two-phase locking with table-level
//!   intent locks, row-level S/X locks, and wait-for-graph deadlock
//!   detection.
//! * **Transactions** — `begin`/`commit`/`commit_unforced`/`abort`. There
//!   is no participant-side prepare: DLFM's repository, the participant of
//!   the companion SIGMOD 2000 paper "DLFM: A Transactional Resource
//!   Manager", votes on an unlink with a forced row of its own (its
//!   intent) and on a link with its reply alone, and ends its branch with
//!   an ordinary commit.
//! * **Coordinator hooks** — external resource managers enlist in a host
//!   transaction via [`Participant`] and are told its decision, logged
//!   first; there is no prepare round, and the rows the decision carries
//!   are what a participant that missed it asks about. Before a lost
//!   branch is settled by those rows, [`Database::abort_undecided`] makes
//!   them final.
//! * **DML observers** — synchronous hooks invoked during statement
//!   execution (the seam where the DataLinks engine intercepts DATALINK
//!   column changes and turns them into link/unlink sub-transactions).
//! * **Backup / point-in-time restore** — fork the storage environment and
//!   replay the log up to a chosen LSN (§4.4's coordinated restore).
//! * **One recovery rule** — a snapshot is a complete recovery image
//!   ([`SnapshotData`]) and [`snapshot::redo`] the only place a log
//!   record is mapped onto it; crash recovery, point-in-time restore, a
//!   follower's open and a follower's live apply are the same fold.
//! * **Log shipping and following** — [`WalReader`] tails the live log
//!   (the group-commit leader publishes the durable watermark after every
//!   batch sync); a follower is the same [`Database`] in *follower mode*
//!   ([`Database::open_follower`], module [`replica`]): it refuses local
//!   logged writes, appends shipped bytes verbatim to an ordinary [`wal::Wal`]
//!   (byte-identical follower logs), redoes them into its own tables by the
//!   one recovery rule, serves reads through the ordinary read path, and
//!   [`Database::promote`] flips it to a primary in place (the `dl-repl`
//!   crate builds on these).
//! * **Checkpoint shipping & bounded logs** — a snapshot is a complete
//!   recovery image (format v2), so
//!   [`Database::checkpoint_and_truncate`](db::Database::checkpoint_and_truncate)
//!   can drop the log below the snapshot's base (crash-safe slot-flip,
//!   [`wal::Wal::truncate_below`]); [`DbOptions::checkpoint_every_bytes`](db::DbOptions)
//!   automates it. A [`ReplicationFeed`] couples the WAL reader with the
//!   checkpoint images so followers do *delta catch-up* (install the latest
//!   image, tail only the suffix) and truncate their own logs in lockstep.

pub mod backup;
pub mod codec;
pub mod db;
pub mod device;
pub mod error;
pub mod lock;
pub mod ops;
pub mod replica;
pub mod snapshot;
pub mod table;
pub mod txn;
pub mod value;
pub mod wal;

pub use db::{
    Database, DbOptions, DbTelemetry, DmlEvent, DmlObserver, InjectedDml, OpKind, Participant,
};
pub use device::{Device, DiskFaults, FileDevice, MemDevice, StorageEnv};
pub use error::{DbError, DbResult};
pub use lock::LockMode;
pub use ops::RowOp;
pub use replica::ReplicationFeed;
pub use snapshot::SnapshotData;
pub use txn::Txn;
pub use value::{Column, ColumnType, Row, Schema, SharedRow, Value};
pub use wal::{Lsn, ShippedFrames, TxId, WalOptions, WalReader, WalTelemetry};
