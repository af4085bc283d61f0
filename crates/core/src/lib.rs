//! # DataLinks with update in-place — the paper's contribution
//!
//! Reproduction of *"Database Managed External File Update"* (Neeraj Mittal
//! and Hui-I Hsiao, ICDE 2001): an extension of IBM's DataLinks technology
//! that lets a relational database manage **in-place updates** to files
//! living in ordinary file systems, with ACID semantics spanning both the
//! file data and its metadata.
//!
//! The pieces, mapped to the paper:
//!
//! | paper concept | here |
//! |---|---|
//! | DATALINK data type (§2.1) | [`DatalinkUrl`], `dl_minidb::Value::DataLink` |
//! | control modes incl. new `rfd`/`rdd` (Table 1, §2.4) | `dl_dlfm::ControlMode` |
//! | DataLinks engine in the RDBMS (§2.2) | [`DataLinksEngine`] |
//! | DLFM daemon complex (§2.2) | `dl_dlfm` |
//! | DLFS interposition layer (§2.3) | `dl_dlfs` |
//! | access tokens (§4.1) | `dl_dlfm::AccessToken`, [`DataLinksEngine::token_path`] |
//! | update in-place: open = begin, close = commit (§3.1, §4.2) | the DLFS/DLFM open/close protocol |
//! | metadata consistency (§4.3) | `__dl_meta` + observer-injected DML |
//! | coordinated backup & restore (§4.4) | [`DataLinksSystem::backup`] / [`DataLinksSystem::restore`] |
//! | sync of access with (un)link (§4.5) | the Sync table + strict-link extension |
//!
//! ## Quick start
//!
//! ```
//! use dl_core::{DataLinksSystem, DlColumnOptions};
//! use dl_dlfm::{ControlMode, TokenKind};
//! use dl_fskit::{Cred, OpenOptions};
//! use dl_minidb::{Column, ColumnType, Schema, Value};
//!
//! let sys = DataLinksSystem::builder().file_server("srv1").build().unwrap();
//!
//! // A file lives in the file system...
//! let alice = Cred::user(100);
//! let raw = sys.raw_fs("srv1").unwrap();
//! raw.mkdir_p(&Cred::root(), "/movies", 0o777).unwrap();
//! raw.write_file(&alice, "/movies/clip.mpg", b"movie bits").unwrap();
//!
//! // ...and a table references it through a DATALINK column.
//! sys.create_table(Schema::new(
//!     "movies",
//!     vec![
//!         Column::new("id", ColumnType::Int),
//!         Column::nullable("clip", ColumnType::DataLink),
//!     ],
//!     "id",
//! ).unwrap()).unwrap();
//! sys.define_datalink_column("movies", "clip", DlColumnOptions::new(ControlMode::Rdd))
//!     .unwrap();
//!
//! // Linking happens transactionally with the INSERT.
//! let mut tx = sys.begin();
//! tx.insert("movies", vec![
//!     Value::Int(1),
//!     Value::DataLink("dlfs://srv1/movies/clip.mpg".into()),
//! ]).unwrap();
//! tx.commit().unwrap();
//!
//! // Retrieve the reference with a write token and update the file
//! // in place through the ordinary file API: open = begin, close = commit.
//! let (_url, path) = sys
//!     .select_datalink("movies", &Value::Int(1), "clip", TokenKind::Write)
//!     .unwrap();
//! let fs = sys.fs("srv1").unwrap();
//! let fd = fs.open(&alice, &path, OpenOptions::write_truncate()).unwrap();
//! fs.write(fd, b"better movie bits").unwrap();
//! fs.close(fd).unwrap();
//!
//! // The metadata row moved with the file, atomically.
//! let meta = sys.engine().file_meta(&_url).unwrap();
//! assert_eq!(meta.2, 2, "version bumped by the committed update");
//! ```

pub mod datalink;
pub mod engine;
pub mod shard;
pub mod system;

pub use datalink::{DatalinkUrl, DlColumnOptions, SCHEME};
pub use engine::{
    DataLinksEngine, EngineStats, LagEwma, ServerRegistration, COLUMNS_TABLE, FRESHNESS_WAIT,
    FRESHNESS_WAIT_FLOOR, META_TABLE,
};
pub use shard::ShardRouter;
pub use system::{
    CrashImage, DataLinksSystem, FileServerNode, FileServerSpec, HostFailoverReport, SystemBackup,
    SystemBuilder,
};

// Re-export the vocabulary types users need.
pub use dl_dlfm::{AccessControl, ControlMode, OnUnlink, TokenKind};
pub use dl_repl::{EpochFence, Follower, ReplError, ReplicaSet, Standby};
