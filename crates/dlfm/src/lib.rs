//! DataLinks File Manager (DLFM) — the per-file-server daemon complex from
//! the ICDE 2001 paper "Database Managed External File Update" (and the
//! companion SIGMOD 2000 paper "DLFM: A Transactional Resource Manager").
//!
//! A DLFM instance manages the files of one file server on behalf of a host
//! database:
//!
//! * [`repository`] — DLFM's own transactional store (a second `dl-minidb`)
//!   holding linked-file state, update-in-progress entries and unlink
//!   intents, beside its [`opens`] table.
//! * [`opens`] — open-file state, in memory: token entries, the Sync table
//!   and live link/unlink branch marks.
//! * [`server`] — link/unlink sub-transactions driven by the host's 2PC,
//!   the open/close protocol (token entries, serialization, take-over,
//!   metadata refresh, rollback).
//! * [`recovery`] — the one recovery rule: a pure plan per path to the
//!   host's committed rows, applied in one pass and committed once.
//! * [`client`], [`agent`], [`wire`] — the host↔DLFM conversation of §2.2
//!   (child agents for link/unlink + 2PC, the upcall daemon for DLFS) as
//!   **one protocol with one dispatcher**. `dl_net::Message` is the only
//!   message set; [`DlfmServer::handle`] is the only place a request
//!   becomes a server call, and [`server::lane`] names where it runs
//!   (inline, agent executor, settlement, upcall lane). The engine and
//!   DLFS hold a [`DlfmClient`] — the typed calls, written once — over a
//!   [`Carrier`]: the in-process one [`MainDaemon::connect`] mints, or a
//!   socket [`WireConn`] served by a [`WireDaemon`]. Both carriers serve
//!   the same messages under the same lanes, on the thread that has them:
//!   the caller's in-process, the reactor thread that read the frame over
//!   the wire.
//! * [`pool`] — the head gate behind every lane: a width bound that owns
//!   no thread, parks a frame that finds it full, and contains panics.
//! * [`archive`] — the versioned archive server with asynchronous archiving
//!   and database-state-identifier tagging (§4.4).
//! * [`modes`] — the DATALINK control modes (Table 1 + the new rfd/rdd).
//! * [`token`] — HMAC-based multi-type expiring access tokens (§4.1).

pub mod agent;
pub mod archive;
pub mod client;
pub mod modes;
pub mod opens;
pub mod pool;
pub mod recovery;
pub mod repository;
pub mod server;
pub mod token;
pub mod wire;

pub use agent::{FaultInjector, MainDaemon};
pub use archive::{ArchiveJob, ArchiveStore, Archiver, ContentSource};
pub use client::{AgentConnection, Carrier, DlfmClient};
pub use modes::{AccessControl, ControlMode, OnUnlink};
pub use opens::{OpenTable, SyncEntry};
pub use pool::{HeadGate, PoolStats};
pub use recovery::{HostFile, HostView, RecoveryReport};
pub use repository::{FileEntry, Repository};
pub use server::{
    lane, DlfmConfig, DlfmServer, DlfmStats, HostHook, Lane, LinkVote, OpenDecision, Transport,
    FLIGHT_RING_CAPACITY,
};
pub use token::{
    embed_token, hmac_sha256, sha256, split_token_suffix, AccessToken, TokenError, TokenKey,
    TokenKind, TOKEN_MARKER,
};
pub use wire::{WireConn, WireConnector, WireDaemon, WIRE_CALL_TIMEOUT};

/// The protocol's one message set.
pub use dl_net::Message;
