//! The upcall daemon (§2.2): "the upcall daemon ... services requests from
//! DLFS to check the control mode and verify access permissions of linked
//! files."
//!
//! DLFS runs in "the kernel" (our interposition layer); DLFM runs in user
//! space. Their conversation is IPC — modelled here as a pool of daemon
//! threads draining a queue of requests, each carrying a one-shot reply
//! channel. The round-trip through the queue is the cost the paper's
//! design works so hard to keep off the read path (§3.2, §4.2), and is what
//! benches E2/E4/A2/A3 measure.
//!
//! Since PR 5 the pool is *elastic* ([`crate::pool::ElasticPool`]): it
//! grows from `DlfmConfig::upcall_workers_min` toward
//! `DlfmConfig::upcall_workers_max` when the request backlog outruns the
//! idle workers, and sheds back to the floor when the burst passes. A
//! worker that panics mid-dispatch replies `Rejected` with the panic
//! context and the pool lives on — a poisoned request costs one reply,
//! never the daemon.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Sender};
use dl_obs::Histogram;

use crate::pool::{ElasticPool, PoolOptions, PoolStats};
use crate::server::{DlfmServer, OpenDecision};
use crate::token::TokenKind;

/// Requests DLFS sends to the upcall daemon.
#[derive(Debug)]
pub enum UpcallRequest {
    /// Validate a token found during `fs_lookup` and record a token entry.
    ValidateToken { path: String, token: String, uid: u32 },
    /// Authorize an open and acquire sync/UIP state (§4.2, §4.5).
    OpenCheck { path: String, uid: u32, wanted: TokenKind, opener: u64 },
    /// A descriptor closed; commit or release (§4.3, §4.4).
    CloseNotify { path: String, opener: u64, wrote: bool, size: u64, mtime: u64 },
    /// May `path` be removed or renamed?
    MutationCheck { path: String },
    /// strict-link mode: register an open (managed or not) so link/unlink
    /// can detect it. Pure bookkeeping — never acquires open-grant state.
    RegisterOpen { path: String, uid: u32, opener: u64 },
    /// strict-link mode: unregister such an open.
    UnregisterOpen { path: String, opener: u64 },
}

/// Replies from the daemon.
#[derive(Debug, PartialEq, Eq)]
pub enum UpcallReply {
    Ok,
    TokenValid(TokenKind),
    Open(OpenDecision),
    Rejected(String),
}

/// Where a worker delivers its reply: the blocking client's one-shot
/// channel, or a closure (the wire daemon replies by encoding a frame —
/// it must never park a reactor thread on a channel).
pub(crate) enum ReplySink {
    Chan(Sender<UpcallReply>),
    Fn(Box<dyn FnOnce(UpcallReply) + Send>),
}

impl ReplySink {
    fn deliver(self, reply: UpcallReply) {
        match self {
            ReplySink::Chan(tx) => {
                let _ = tx.send(reply);
            }
            ReplySink::Fn(f) => f(reply),
        }
    }
}

type Envelope = (UpcallRequest, ReplySink);

/// Test instrumentation: runs before every dispatch; a panicking hook
/// simulates a worker dying mid-request (the PR 5 panic-containment
/// regression tests inject through this).
pub type FaultInjector = Arc<dyn Fn(&UpcallRequest) + Send + Sync>;

/// Client handle held by DLFS. Cloneable; each call is one IPC round-trip.
/// Clients keep the worker pool alive even after the [`UpcallDaemon`]
/// handle is dropped (a crashing node abandons its daemons; a live mount
/// does not lose its IPC endpoint).
#[derive(Clone)]
pub struct UpcallClient {
    pool: Arc<ElasticPool<Envelope>>,
    server: Arc<DlfmServer>,
    round_trips: Arc<AtomicU64>,
    /// Queue wait + dispatch + reply, per round-trip — the IPC cost the
    /// paper's zero-upcall read path avoids. Shared with the daemon so the
    /// telemetry registry sees every client's calls in one distribution.
    round_trip_ns: Arc<Histogram>,
}

impl UpcallClient {
    fn call(&self, req: UpcallRequest) -> UpcallReply {
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let (reply_tx, reply_rx) = bounded(1);
        self.pool.submit((req, ReplySink::Chan(reply_tx)));
        // A dropped reply sender no longer means the daemon died: worker
        // panics are caught and answered in-band, so the only way the
        // channel closes unreplied is the whole pool shutting down.
        let reply =
            reply_rx.recv().unwrap_or(UpcallReply::Rejected("upcall daemon is down".into()));
        self.round_trip_ns.record_duration(started.elapsed());
        reply
    }

    /// Submits a request whose reply goes to `f` on the worker thread
    /// instead of blocking the caller — the wire daemon's path: a reactor
    /// thread hands the decoded frame to the pool and returns to polling;
    /// the closure encodes the reply frame when dispatch finishes.
    pub(crate) fn submit_with(
        &self,
        req: UpcallRequest,
        f: impl FnOnce(UpcallReply) + Send + 'static,
    ) {
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        self.pool.submit((req, ReplySink::Fn(Box::new(f))));
    }

    /// Number of upcall round-trips made through this client (benches).
    pub fn round_trip_count(&self) -> u64 {
        self.round_trips.load(Ordering::Relaxed)
    }

    /// Live worker-pool gauges (sizing experiments read these).
    pub fn pool_stats(&self) -> &PoolStats {
        self.pool.stats()
    }

    pub fn validate_token(&self, path: &str, token: &str, uid: u32) -> Result<TokenKind, String> {
        match self.call(UpcallRequest::ValidateToken {
            path: path.to_string(),
            token: token.to_string(),
            uid,
        }) {
            UpcallReply::TokenValid(kind) => Ok(kind),
            UpcallReply::Rejected(e) => Err(e),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    pub fn open_check(&self, path: &str, uid: u32, wanted: TokenKind, opener: u64) -> OpenDecision {
        match self.call(UpcallRequest::OpenCheck { path: path.to_string(), uid, wanted, opener }) {
            UpcallReply::Open(decision) => decision,
            UpcallReply::Rejected(e) => OpenDecision::Rejected(e),
            other => OpenDecision::Rejected(format!("unexpected reply {other:?}")),
        }
    }

    pub fn close_notify(
        &self,
        path: &str,
        opener: u64,
        wrote: bool,
        size: u64,
        mtime: u64,
    ) -> Result<(), String> {
        match self.call(UpcallRequest::CloseNotify {
            path: path.to_string(),
            opener,
            wrote,
            size,
            mtime,
        }) {
            UpcallReply::Ok => Ok(()),
            UpcallReply::Rejected(e) => Err(e),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    pub fn mutation_check(&self, path: &str) -> Result<(), String> {
        match self.call(UpcallRequest::MutationCheck { path: path.to_string() }) {
            UpcallReply::Ok => Ok(()),
            UpcallReply::Rejected(e) => Err(e),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    pub fn register_open(&self, path: &str, uid: u32, opener: u64) {
        let _ = self.call(UpcallRequest::RegisterOpen { path: path.to_string(), uid, opener });
    }

    pub fn unregister_open(&self, path: &str, opener: u64) {
        let _ = self.call(UpcallRequest::UnregisterOpen { path: path.to_string(), opener });
    }

    /// Is strict-link registration enabled on the server?
    pub fn strict_link(&self) -> bool {
        self.server.config().strict_link
    }

    /// The identity DLFM daemons run as (DLFS compares file owners to it).
    pub fn dlfm_uid(&self) -> u32 {
        self.server.config().dlfm_cred.uid
    }

    /// Epoch-based waiting for `Busy` replies: wait for a change from the
    /// epoch read before the check, retry.
    pub fn wait_epoch_change(&self, seen: u64) {
        self.server.wait_epoch_change(seen)
    }

    /// Type-erased live size of the daemon pool, for capacity aggregation.
    pub fn pool_probe(&self) -> Arc<dyn crate::pool::PoolProbe> {
        Arc::clone(&self.pool) as Arc<dyn crate::pool::PoolProbe>
    }
}

/// Everything DLFS needs from its upcall endpoint, independent of how the
/// conversation reaches DLFM: in-process queues ([`UpcallClient`], the
/// `Transport::Local` fast path) or framed socket connections
/// (`crate::wire::WireUpcall`). One trait keeps the filter's open/close
/// protocol identical over both.
pub trait UpcallTransport: Send + Sync {
    fn validate_token(&self, path: &str, token: &str, uid: u32) -> Result<TokenKind, String>;
    /// Runs the open check. The `u64` is the sync epoch as it stood
    /// *before* the check ran — what a `Busy` caller hands to
    /// [`UpcallTransport::wait_epoch_change`], so a release that lands
    /// between the check and the wait is never slept through. It means
    /// nothing beside any other decision.
    fn open_check(
        &self,
        path: &str,
        uid: u32,
        wanted: TokenKind,
        opener: u64,
    ) -> (u64, OpenDecision);
    fn close_notify(
        &self,
        path: &str,
        opener: u64,
        wrote: bool,
        size: u64,
        mtime: u64,
    ) -> Result<(), String>;
    fn mutation_check(&self, path: &str) -> Result<(), String>;
    fn register_open(&self, path: &str, uid: u32, opener: u64);
    fn unregister_open(&self, path: &str, opener: u64);
    /// Is strict-link registration enabled on the server?
    fn strict_link(&self) -> bool;
    /// The identity DLFM daemons run as (DLFS compares file owners to it).
    fn dlfm_uid(&self) -> u32;
    /// Blocks until the epoch moves past `seen`.
    fn wait_epoch_change(&self, seen: u64);
    /// Round-trips made through this endpoint (benches).
    fn round_trip_count(&self) -> u64;
}

impl UpcallTransport for UpcallClient {
    fn validate_token(&self, path: &str, token: &str, uid: u32) -> Result<TokenKind, String> {
        UpcallClient::validate_token(self, path, token, uid)
    }

    fn open_check(
        &self,
        path: &str,
        uid: u32,
        wanted: TokenKind,
        opener: u64,
    ) -> (u64, OpenDecision) {
        let epoch = self.server.epoch();
        (epoch, UpcallClient::open_check(self, path, uid, wanted, opener))
    }

    fn close_notify(
        &self,
        path: &str,
        opener: u64,
        wrote: bool,
        size: u64,
        mtime: u64,
    ) -> Result<(), String> {
        UpcallClient::close_notify(self, path, opener, wrote, size, mtime)
    }

    fn mutation_check(&self, path: &str) -> Result<(), String> {
        UpcallClient::mutation_check(self, path)
    }

    fn register_open(&self, path: &str, uid: u32, opener: u64) {
        UpcallClient::register_open(self, path, uid, opener)
    }

    fn unregister_open(&self, path: &str, opener: u64) {
        UpcallClient::unregister_open(self, path, opener)
    }

    fn strict_link(&self) -> bool {
        UpcallClient::strict_link(self)
    }

    fn dlfm_uid(&self) -> u32 {
        UpcallClient::dlfm_uid(self)
    }

    fn wait_epoch_change(&self, seen: u64) {
        UpcallClient::wait_epoch_change(self, seen)
    }

    fn round_trip_count(&self) -> u64 {
        UpcallClient::round_trip_count(self)
    }
}

/// The daemon: an elastic pool of worker threads draining one request
/// queue.
///
/// The paper's prototype ran one upcall daemon; a single thread, however,
/// serializes every token/open/close request and with it every repository
/// commit — the group-commit pipeline never sees two committers at once.
/// The pool is the moral equivalent of the multiple daemon processes a
/// production DLFM runs, and since PR 5 its head count follows load
/// instead of a fixed `upcall_workers` knob (see `crates/dlfm/src/pool.rs`
/// for the growth/shrink rules).
pub struct UpcallDaemon {
    pool: Arc<ElasticPool<Envelope>>,
    round_trip_ns: Arc<Histogram>,
}

impl UpcallDaemon {
    /// Spawns the daemon pool over `server` (bounds from
    /// `server.config().upcall_workers_{min,max}`) and returns
    /// (daemon, client).
    pub fn spawn(server: Arc<DlfmServer>) -> (UpcallDaemon, UpcallClient) {
        Self::spawn_with_fault_injector(server, None)
    }

    /// [`UpcallDaemon::spawn`] with a test-only fault injector invoked
    /// before every dispatch (a panicking injector exercises the pool's
    /// panic containment).
    pub fn spawn_with_fault_injector(
        server: Arc<DlfmServer>,
        fault: Option<FaultInjector>,
    ) -> (UpcallDaemon, UpcallClient) {
        let cfg = server.config();
        let opts = PoolOptions::adaptive(
            &format!("dlfm-upcall-{}", cfg.server_name),
            cfg.upcall_workers_min,
            cfg.upcall_workers_max,
        )
        .idle_timeout(Duration::from_millis(cfg.upcall_idle_ms.max(1)));
        let srv = Arc::clone(&server);
        let handler: Arc<dyn Fn(Envelope) + Send + Sync> =
            Arc::new(move |(req, reply_sink): Envelope| {
                // Containment: a panic anywhere in dispatch is caught here
                // so the waiting client gets an in-band `Rejected` (with
                // the panic context) instead of a dropped reply channel
                // mis-reporting a healthy pool as down. The label is a
                // static discriminant — this closure is the admission hot
                // path every E2/E4/A2/a12 cycle measures, so it must not
                // allocate for a message only the rare panic arm emits.
                let label = match &req {
                    UpcallRequest::ValidateToken { .. } => "ValidateToken",
                    UpcallRequest::OpenCheck { .. } => "OpenCheck",
                    UpcallRequest::CloseNotify { .. } => "CloseNotify",
                    UpcallRequest::MutationCheck { .. } => "MutationCheck",
                    UpcallRequest::RegisterOpen { .. } => "RegisterOpen",
                    UpcallRequest::UnregisterOpen { .. } => "UnregisterOpen",
                };
                crate::pool::deliver_or_rethrow(
                    label,
                    || {
                        if let Some(f) = &fault {
                            f(&req);
                        }
                        Self::dispatch(&srv, req)
                    },
                    |outcome| {
                        let reply = outcome.unwrap_or_else(|msg| {
                            UpcallReply::Rejected(format!("upcall worker {msg}"))
                        });
                        reply_sink.deliver(reply);
                    },
                );
            });
        let pool = Arc::new(ElasticPool::new(opts, handler));
        let round_trip_ns = Arc::new(Histogram::new());
        let client = UpcallClient {
            pool: Arc::clone(&pool),
            server,
            round_trips: Arc::new(AtomicU64::new(0)),
            round_trip_ns: Arc::clone(&round_trip_ns),
        };
        (UpcallDaemon { pool, round_trip_ns }, client)
    }

    fn dispatch(server: &DlfmServer, req: UpcallRequest) -> UpcallReply {
        match req {
            UpcallRequest::ValidateToken { path, token, uid } => {
                match server.validate_token(&path, &token, uid) {
                    Ok(kind) => UpcallReply::TokenValid(kind),
                    Err(e) => UpcallReply::Rejected(e),
                }
            }
            UpcallRequest::OpenCheck { path, uid, wanted, opener } => {
                UpcallReply::Open(server.open_check(&path, uid, wanted, opener))
            }
            UpcallRequest::CloseNotify { path, opener, wrote, size, mtime } => {
                match server.close_notify(&path, opener, wrote, size, mtime) {
                    Ok(()) => UpcallReply::Ok,
                    Err(e) => UpcallReply::Rejected(e),
                }
            }
            UpcallRequest::MutationCheck { path } => match server.mutation_check(&path) {
                Ok(()) => UpcallReply::Ok,
                Err(e) => UpcallReply::Rejected(e),
            },
            UpcallRequest::RegisterOpen { path, uid, opener } => {
                // Registration is bookkeeping only: record the open so
                // strict-link can detect it; never run the open-grant
                // protocol. (The old dispatch routed this through
                // `open_check`, which on a *managed* path either claimed
                // conflict-checked sync state no close would release, or —
                // on a Busy/Rejected decision — dropped the registration
                // silently, re-opening the §4.5 window for linked files.)
                server.register_open(&path, uid, opener);
                UpcallReply::Ok
            }
            UpcallRequest::UnregisterOpen { path, opener } => {
                server.unregister_open(&path, opener);
                UpcallReply::Ok
            }
        }
    }

    /// A second client on the same daemon (e.g. one per DLFS mount).
    pub fn client(&self, server: Arc<DlfmServer>) -> UpcallClient {
        UpcallClient {
            pool: Arc::clone(&self.pool),
            server,
            round_trips: Arc::new(AtomicU64::new(0)),
            round_trip_ns: Arc::clone(&self.round_trip_ns),
        }
    }

    /// Live worker-pool gauges.
    pub fn pool_stats(&self) -> &PoolStats {
        self.pool.stats()
    }

    /// Type-erased live size of the daemon pool, for capacity aggregation.
    pub fn pool_probe(&self) -> Arc<dyn crate::pool::PoolProbe> {
        Arc::clone(&self.pool) as Arc<dyn crate::pool::PoolProbe>
    }

    /// Round-trip latency distribution across every client of this daemon.
    pub fn round_trip_histogram(&self) -> &Arc<Histogram> {
        &self.round_trip_ns
    }

    /// Blocks until the queue drains and every worker parks (tests).
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        self.pool.wait_idle(timeout)
    }
}
