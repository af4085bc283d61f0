//! The DLFM protocol on the wire (`Transport::Socket`).
//!
//! The paper's host↔DLFM boundary is a network boundary: database agents
//! and DLFS talk to the daemon complex over connections, not function
//! calls. This module is that boundary made real on top of `dl-net`'s
//! frame codec and poll(2) reactor:
//!
//! * [`WireDaemon`] — the server. One reactor thread serves every agent
//!   and upcall connection of a node over a Unix-domain socket; decoded
//!   frames fan out to the *same* pools the in-process path uses — link/
//!   unlink to the shared agent executor, upcalls to the elastic upcall
//!   pool, and 2PC settlement to a small dedicated settle pool (never the
//!   agent executor: settlement queued behind lock-waiting link jobs is
//!   the classic bounded-executor deadlock, see `crate::agent`).
//!   Thousands of connections therefore ride on a fixed thread count.
//! * [`WireConnector`] / [`WireConn`] — the client, which has no thread
//!   of its own: a connection is a blocking socket, and each call writes
//!   its frame and then reads the socket itself (one caller at a time
//!   reads for everyone waiting on the connection) until its
//!   request-id-correlated reply is in.
//! * [`WireAgent`] / [`WireUpcall`] — adapters giving the wire client the
//!   [`AgentConnection`] and [`UpcallTransport`] surfaces, so the engine
//!   and DLFS cannot tell the transports apart.
//!
//! **Presumed abort on connection loss.** A severed connection's
//! unsettled host transactions are resolved on the settle pool through
//! [`DlfmServer::resolve_client_loss`]: commit only if the host recorded
//! a commit, abort otherwise — a client that died between prepare and
//! decide never committed. A link job racing the disconnect settles its
//! own sub-transaction when it finds its connection no longer live, so no
//! sub-transaction leaks the resolution sweep.

use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dl_net::{encode_frame, FrameDecoder, Message, NetEvent, Reactor, ReactorHandle};
use dl_obs::{Counter, NetStats};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::agent::{AgentConnection, AgentJob, MainDaemon};
use crate::modes::{ControlMode, OnUnlink};
use crate::pool::{ElasticPool, PoolOptions, PoolStats};
use crate::server::{DlfmServer, OpenDecision};
use crate::token::TokenKind;
use crate::upcall::{UpcallClient, UpcallReply, UpcallRequest, UpcallTransport};

// Enum ↔ u8 wire mappings. `dl-net` carries raw discriminants so it
// stays independent of DLFM's type definitions; this module is the one
// place the mapping lives.

fn mode_to_u8(m: ControlMode) -> u8 {
    match m {
        ControlMode::Nff => 0,
        ControlMode::Rff => 1,
        ControlMode::Rfb => 2,
        ControlMode::Rdb => 3,
        ControlMode::Rfd => 4,
        ControlMode::Rdd => 5,
    }
}

fn mode_from_u8(b: u8) -> Option<ControlMode> {
    Some(match b {
        0 => ControlMode::Nff,
        1 => ControlMode::Rff,
        2 => ControlMode::Rfb,
        3 => ControlMode::Rdb,
        4 => ControlMode::Rfd,
        5 => ControlMode::Rdd,
        _ => return None,
    })
}

fn on_unlink_to_u8(o: OnUnlink) -> u8 {
    match o {
        OnUnlink::Restore => 0,
        OnUnlink::Delete => 1,
    }
}

fn on_unlink_from_u8(b: u8) -> Option<OnUnlink> {
    Some(match b {
        0 => OnUnlink::Restore,
        1 => OnUnlink::Delete,
        _ => return None,
    })
}

fn token_kind_to_u8(k: TokenKind) -> u8 {
    match k {
        TokenKind::Read => 0,
        TokenKind::Write => 1,
    }
}

fn token_kind_from_u8(b: u8) -> Option<TokenKind> {
    Some(match b {
        0 => TokenKind::Read,
        1 => TokenKind::Write,
        _ => return None,
    })
}

fn result_msg(result: Result<(), String>) -> Message {
    match result {
        Ok(()) => Message::Ok,
        Err(e) => Message::Err(e),
    }
}

/// The server's per-connection bookkeeping: which connections are live,
/// and which host transactions each still has in flight. A connection is
/// in the table from its `Accepted` to its `Disconnected` and at no other
/// time, so the table is bounded by open sockets however many connections
/// come and go. Touched from the reactor thread and the pools; the map is
/// the serialization point.
#[derive(Default)]
struct Sessions(Mutex<HashMap<u64, HashSet<u64>>>);

impl Sessions {
    fn opened(&self, conn: u64) {
        self.0.lock().insert(conn, HashSet::new());
    }

    /// Forgets `conn`, returning the host transactions it left unsettled.
    fn closed(&self, conn: u64) -> Vec<u64> {
        self.0.lock().remove(&conn).map(|s| s.into_iter().collect()).unwrap_or_default()
    }

    /// Is `conn` still connected? Any queued job asks this before it
    /// applies work or replies.
    fn is_live(&self, conn: u64) -> bool {
        self.0.lock().contains_key(&conn)
    }

    fn track(&self, conn: u64, txid: u64) {
        if let Some(set) = self.0.lock().get_mut(&conn) {
            set.insert(txid);
        }
    }

    fn settled(&self, conn: u64, txid: u64) {
        if let Some(set) = self.0.lock().get_mut(&conn) {
            set.remove(&txid);
        }
    }
}

/// Distinguishes concurrently-running wire daemons' socket files within
/// one process (tests spin up many nodes).
static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

/// The server side: a reactor serving framed agent/upcall connections
/// over one Unix-domain socket, multiplexed onto the node's daemon pools.
pub struct WireDaemon {
    /// Owns the poller thread; dropped last-ish (field order) so handler
    /// state stays alive while it drains.
    _reactor: Reactor,
    path: PathBuf,
    /// 2PC settlement + disconnect resolution. Small and dedicated: these
    /// jobs must make progress even when every agent-executor worker
    /// blocks on a row lock only a settlement can release.
    settle: Arc<ElasticPool<Box<dyn FnOnce() + Send>>>,
    presumed_aborts: Arc<Counter>,
    stats: Arc<NetStats>,
    #[cfg(test)]
    sessions: Arc<Sessions>,
}

impl WireDaemon {
    /// Binds the node's wire socket and starts serving. Frames route to
    /// `main`'s shared agent executor (or a private one in
    /// `thread_per_agent` mode), `upcall`'s elastic pool, and a dedicated
    /// settle pool; `stats` sees every connection and frame.
    pub fn spawn(
        server: Arc<DlfmServer>,
        main: &MainDaemon,
        upcall: UpcallClient,
        stats: Arc<NetStats>,
    ) -> Result<WireDaemon, String> {
        let name = server.config().server_name.clone();
        let path = std::env::temp_dir().join(format!(
            "dl-wire-{}-{}-{}.sock",
            std::process::id(),
            SOCKET_SEQ.fetch_add(1, Ordering::Relaxed),
            name
        ));
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path)
            .map_err(|e| format!("bind wire socket {}: {e}", path.display()))?;

        let executor = main.wire_executor().unwrap_or_else(|| {
            // thread_per_agent mode has no shared executor; the wire
            // daemon still multiplexes — that is its whole point — so it
            // brings its own pool with the same bounds.
            let cfg = server.config();
            let opts = PoolOptions::adaptive(
                &format!("dlfm-wire-agent-{name}"),
                1,
                cfg.agent_executor_threads.max(1),
            );
            let handler: Arc<dyn Fn(AgentJob) + Send + Sync> = Arc::new(|job| {
                if let AgentJob::Wire(f) = job {
                    f()
                }
            });
            Arc::new(ElasticPool::new(opts, handler))
        });
        let settle: Arc<ElasticPool<Box<dyn FnOnce() + Send>>> = Arc::new(ElasticPool::new(
            PoolOptions::fixed(&format!("dlfm-settle-{name}"), 4),
            Arc::new(|f: Box<dyn FnOnce() + Send>| f()),
        ));
        let presumed_aborts = Arc::new(Counter::new());

        let sessions = Arc::new(Sessions::default());

        let reactor = {
            let server = Arc::clone(&server);
            let settle = Arc::clone(&settle);
            let presumed_aborts = Arc::clone(&presumed_aborts);
            let sessions = Arc::clone(&sessions);
            Reactor::spawn(&format!("wire-{name}"), Some(listener), Arc::clone(&stats), |h| {
                let h = h.clone();
                move |ev| {
                    serve_event(
                        ev,
                        &h,
                        &server,
                        &executor,
                        &settle,
                        &upcall,
                        &sessions,
                        &presumed_aborts,
                    )
                }
            })
            .map_err(|e| format!("spawn wire reactor: {e}"))?
        };

        Ok(WireDaemon {
            _reactor: reactor,
            path,
            settle,
            presumed_aborts,
            stats,
            #[cfg(test)]
            sessions,
        })
    }

    /// The Unix-socket path clients connect to.
    pub fn socket_path(&self) -> &Path {
        &self.path
    }

    /// Host transactions settled by presumed abort after their connection
    /// died mid-2PC.
    pub fn presumed_aborts(&self) -> &Arc<Counter> {
        &self.presumed_aborts
    }

    /// Live gauges of the settle pool (thread-accounting in benches).
    pub fn settle_stats(&self) -> &PoolStats {
        self.settle.stats()
    }

    /// This daemon's wire instruments.
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }
}

impl Drop for WireDaemon {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// One reactor event on the server: route a frame to the right pool, or
/// sweep a dead connection's transactions.
#[allow(clippy::too_many_arguments)]
fn serve_event(
    ev: NetEvent,
    h: &ReactorHandle,
    server: &Arc<DlfmServer>,
    executor: &Arc<ElasticPool<AgentJob>>,
    settle: &Arc<ElasticPool<Box<dyn FnOnce() + Send>>>,
    upcall: &UpcallClient,
    sessions: &Arc<Sessions>,
    presumed_aborts: &Arc<Counter>,
) {
    let (conn, rid, msg) = match ev {
        NetEvent::Accepted(conn) => return sessions.opened(conn),
        NetEvent::Disconnected(conn) => {
            // Off the table first: any queued or future job for this
            // connection must find it gone before deciding to apply work.
            let txids = sessions.closed(conn);
            if !txids.is_empty() {
                let server = Arc::clone(server);
                let presumed_aborts = Arc::clone(presumed_aborts);
                settle.submit(Box::new(move || {
                    for txid in txids {
                        if !server.resolve_client_loss(txid) {
                            presumed_aborts.inc();
                        }
                    }
                }));
            }
            return;
        }
        NetEvent::Frame { conn, request_id, msg } => (conn, request_id, msg),
    };

    match msg {
        // --- session, served inline on the reactor thread (cheap) -------
        Message::Hello { client: _ } => {
            let cfg = server.config();
            h.send(
                conn,
                rid,
                &Message::HelloAck {
                    server: cfg.server_name.clone(),
                    coord_epoch: server.coordinator_epoch(),
                    strict_link: cfg.strict_link,
                    dlfm_uid: cfg.dlfm_cred.uid,
                    dlfm_gid: cfg.dlfm_cred.gid,
                },
            );
        }
        Message::EpochGet => h.send(conn, rid, &Message::EpochIs(server.epoch())),
        Message::FreshnessToken => {
            h.send(conn, rid, &Message::Freshness(server.repository().db().state_id()))
        }

        // --- link/unlink, on the shared agent executor -------------------
        Message::Link { txid, coord_epoch, path, mode, recovery, on_unlink } => {
            let (Some(mode), Some(on_unlink)) = (mode_from_u8(mode), on_unlink_from_u8(on_unlink))
            else {
                h.send(conn, rid, &Message::Err("bad mode/on_unlink discriminant".into()));
                return;
            };
            sessions.track(conn, txid);
            let (h, server, sessions) = (h.clone(), Arc::clone(server), Arc::clone(sessions));
            executor.submit(AgentJob::Wire(Box::new(move || {
                if !sessions.is_live(conn) {
                    return;
                }
                let srv = &server;
                crate::pool::deliver_or_rethrow(
                    "WireLink",
                    || {
                        srv.guard_coordinator(coord_epoch)?;
                        srv.link_file(txid, &path, mode, recovery, on_unlink)
                    },
                    |outcome| {
                        let result = match outcome {
                            Ok(inner) => inner,
                            Err(msg) => Err(format!("agent {msg}")),
                        };
                        if !sessions.is_live(conn) {
                            // The connection died while we linked: the
                            // disconnect sweep may have run before this
                            // sub-transaction existed. Settle it here —
                            // presumed abort, same as the sweep.
                            if result.is_ok() {
                                srv.abort_host(txid);
                            }
                            return;
                        }
                        h.send(conn, rid, &result_msg(result));
                    },
                );
            })));
        }
        Message::Unlink { txid, coord_epoch, path } => {
            sessions.track(conn, txid);
            let (h, server, sessions) = (h.clone(), Arc::clone(server), Arc::clone(sessions));
            executor.submit(AgentJob::Wire(Box::new(move || {
                if !sessions.is_live(conn) {
                    return;
                }
                let srv = &server;
                crate::pool::deliver_or_rethrow(
                    "WireUnlink",
                    || {
                        srv.guard_coordinator(coord_epoch)?;
                        srv.unlink_file(txid, &path)
                    },
                    |outcome| {
                        let result = match outcome {
                            Ok(inner) => inner,
                            Err(msg) => Err(format!("agent {msg}")),
                        };
                        if !sessions.is_live(conn) {
                            if result.is_ok() {
                                srv.abort_host(txid);
                            }
                            return;
                        }
                        h.send(conn, rid, &result_msg(result));
                    },
                );
            })));
        }

        // --- 2PC settlement, on the dedicated settle pool ----------------
        Message::Prepare { txid, coord_epoch } => {
            sessions.track(conn, txid);
            let (h, server, sessions) = (h.clone(), Arc::clone(server), Arc::clone(sessions));
            settle.submit(Box::new(move || {
                let srv = &server;
                crate::pool::deliver_or_rethrow(
                    "WirePrepare",
                    || {
                        srv.guard_coordinator(coord_epoch)?;
                        srv.prepare_host(txid)
                    },
                    |outcome| {
                        let result = match outcome {
                            Ok(inner) => inner,
                            Err(msg) => Err(format!("agent {msg}")),
                        };
                        if sessions.is_live(conn) {
                            h.send(conn, rid, &result_msg(result));
                        }
                    },
                );
            }));
        }
        Message::Commit { txid, coord_epoch } => {
            let (h, server, sessions) = (h.clone(), Arc::clone(server), Arc::clone(sessions));
            settle.submit(Box::new(move || {
                // A fenced coordinator's decision is dropped, not applied
                // (the promoted host owns the outcome now); the reply
                // still unblocks the caller — same as the local route.
                if server.guard_coordinator(coord_epoch).is_ok() {
                    server.commit_host(txid);
                }
                sessions.settled(conn, txid);
                if sessions.is_live(conn) {
                    h.send(conn, rid, &Message::Ok);
                }
            }));
        }
        Message::Abort { txid, coord_epoch } => {
            let (h, server, sessions) = (h.clone(), Arc::clone(server), Arc::clone(sessions));
            settle.submit(Box::new(move || {
                if server.guard_coordinator(coord_epoch).is_ok() {
                    server.abort_host(txid);
                }
                sessions.settled(conn, txid);
                if sessions.is_live(conn) {
                    h.send(conn, rid, &Message::Ok);
                }
            }));
        }

        // --- upcalls, on the elastic upcall pool -------------------------
        Message::ValidateToken { path, token, uid } => {
            let h = h.clone();
            upcall.submit_with(UpcallRequest::ValidateToken { path, token, uid }, move |rep| {
                let msg = match rep {
                    UpcallReply::TokenValid(kind) => Message::TokenKindIs(token_kind_to_u8(kind)),
                    UpcallReply::Rejected(e) => Message::Err(e),
                    other => Message::Err(format!("unexpected reply {other:?}")),
                };
                h.send(conn, rid, &msg);
            });
        }
        Message::OpenCheck { path, uid, wanted, opener } => {
            let Some(wanted) = token_kind_from_u8(wanted) else {
                h.send(conn, rid, &Message::Err("bad token-kind discriminant".into()));
                return;
            };
            // Read before the check is queued: a release that lands while
            // the check runs moves the epoch past this value, so a client
            // that is told Busy and waits on it returns at once.
            let epoch = server.epoch();
            let h = h.clone();
            upcall.submit_with(
                UpcallRequest::OpenCheck { path, uid, wanted, opener },
                move |rep| {
                    let msg = match rep {
                        UpcallReply::Open(OpenDecision::Approved { open_as }) => {
                            Message::OpenApproved { uid: open_as.uid, gid: open_as.gid }
                        }
                        UpcallReply::Open(OpenDecision::NotManaged) => Message::OpenNotManaged,
                        UpcallReply::Open(OpenDecision::Busy) => Message::OpenBusy(epoch),
                        UpcallReply::Open(OpenDecision::Rejected(e)) => Message::OpenRejected(e),
                        UpcallReply::Rejected(e) => Message::OpenRejected(e),
                        other => Message::OpenRejected(format!("unexpected reply {other:?}")),
                    };
                    h.send(conn, rid, &msg);
                },
            );
        }
        Message::CloseNotify { path, opener, wrote, size, mtime } => {
            let h = h.clone();
            upcall.submit_with(
                UpcallRequest::CloseNotify { path, opener, wrote, size, mtime },
                move |rep| {
                    let msg = match rep {
                        UpcallReply::Ok => Message::Ok,
                        UpcallReply::Rejected(e) => Message::Err(e),
                        other => Message::Err(format!("unexpected reply {other:?}")),
                    };
                    h.send(conn, rid, &msg);
                },
            );
        }
        Message::MutationCheck { path } => {
            let h = h.clone();
            upcall.submit_with(UpcallRequest::MutationCheck { path }, move |rep| {
                let msg = match rep {
                    UpcallReply::Ok => Message::Ok,
                    UpcallReply::Rejected(e) => Message::Err(e),
                    other => Message::Err(format!("unexpected reply {other:?}")),
                };
                h.send(conn, rid, &msg);
            });
        }
        Message::RegisterOpen { path, uid, opener } => {
            let h = h.clone();
            upcall.submit_with(UpcallRequest::RegisterOpen { path, uid, opener }, move |_rep| {
                h.send(conn, rid, &Message::Ok);
            });
        }
        Message::UnregisterOpen { path, opener } => {
            let h = h.clone();
            upcall.submit_with(UpcallRequest::UnregisterOpen { path, opener }, move |_rep| {
                h.send(conn, rid, &Message::Ok);
            });
        }

        // A server never receives reply-tagged frames.
        other => {
            h.send(conn, rid, &Message::Err(format!("unexpected message {other:?}")));
        }
    }
}

/// The client side: mints outbound wire connections that share one set
/// of instruments and one call timeout. It runs no thread — every
/// connection does its own socket I/O on its callers' threads.
pub struct WireConnector {
    stats: Arc<NetStats>,
    call_timeout: Duration,
}

impl WireConnector {
    /// `stats` sees every connection's frames and the caller-observed
    /// round-trip latency; `call_timeout` bounds each call's wait for its
    /// reply (`DlfmConfig::wire_call_timeout_ms`).
    pub fn new(stats: Arc<NetStats>, call_timeout: Duration) -> WireConnector {
        WireConnector { stats, call_timeout }
    }

    /// Opens a connection to a [`WireDaemon`]'s socket and performs the
    /// Hello handshake. The returned connection is stamped with the
    /// coordinator epoch the server held at connect time — exactly like
    /// an in-process agent handle, so failover fencing works unchanged.
    pub fn connect(&self, socket: &Path, client: &str) -> Result<Arc<WireConn>, String> {
        let stream = UnixStream::connect(socket)
            .map_err(|e| format!("connect {}: {e}", socket.display()))?;
        // The socket's own timeouts are what wake a caller blocked in
        // `read`/`write` to re-check its deadline.
        stream
            .set_read_timeout(Some(self.call_timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.call_timeout)))
            .map_err(|e| format!("wire call timeout {:?}: {e}", self.call_timeout))?;
        self.stats.connection_opened();
        let mut conn = WireConn {
            stream,
            state: Mutex::new(CallState::default()),
            reply_parked: Condvar::new(),
            stats: Arc::clone(&self.stats),
            call_timeout: self.call_timeout,
            next_req: AtomicU64::new(1),
            round_trips: AtomicU64::new(0),
            server_name: String::new(),
            coord_epoch: 0,
            strict_link: false,
            dlfm_uid: 0,
            dlfm_gid: 0,
        };
        match conn.call(Message::Hello { client: client.to_string() })? {
            Message::HelloAck { server, coord_epoch, strict_link, dlfm_uid, dlfm_gid } => {
                conn.server_name = server;
                conn.coord_epoch = coord_epoch;
                conn.strict_link = strict_link;
                conn.dlfm_uid = dlfm_uid;
                conn.dlfm_gid = dlfm_gid;
            }
            other => return Err(format!("bad hello reply: {other:?}")),
        }
        Ok(Arc::new(conn))
    }

    /// This connector's wire instruments.
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }
}

/// What the callers of one connection share, under [`WireConn::state`].
#[derive(Default)]
struct CallState {
    decoder: FrameDecoder,
    /// Calls in flight by request-id: `None` while the reply is awaited,
    /// `Some` once the reader parked it. Replies to ids not in here (a
    /// call that timed out) are dropped.
    pending: HashMap<u64, Option<Message>>,
    /// Some caller is blocked in `read` on the socket, lock released; it
    /// reads for everyone in `pending`.
    reading: bool,
    dead: bool,
}

/// One client connection: request-id-correlated call/reply over a frame
/// stream, plus the session parameters cached from the Hello handshake.
///
/// There is no I/O thread behind it. A caller writes its frame, then
/// either becomes the connection's reader — one caller at a time reads
/// the socket, decodes every complete frame and parks replies for the
/// other request-ids waiting — or sleeps until the reader parks its
/// reply (the WAL's leader/follower shape). A lone caller therefore
/// does write → read with nobody to hand off to.
pub struct WireConn {
    stream: UnixStream,
    state: Mutex<CallState>,
    /// Signalled after every read that had other callers waiting on it,
    /// and when the connection dies.
    reply_parked: Condvar,
    stats: Arc<NetStats>,
    call_timeout: Duration,
    next_req: AtomicU64,
    round_trips: AtomicU64,
    server_name: String,
    coord_epoch: u64,
    strict_link: bool,
    dlfm_uid: u32,
    dlfm_gid: u32,
}

impl WireConn {
    /// One frame round-trip: send `msg`, block until the correlated reply
    /// arrives, the connection dies, or the call timeout passes. A call
    /// that turns reader late can overshoot its deadline by up to one
    /// more timeout (the socket's read timeout is the tick it re-checks
    /// on); a timed-out call leaves the connection usable.
    pub fn call(&self, msg: Message) -> Result<Message, String> {
        let rid = self.next_req.fetch_add(1, Ordering::Relaxed);
        let frame = encode_frame(rid, &msg);
        let started = Instant::now();
        let deadline = started + self.call_timeout;

        let mut st = self.state.lock();
        if st.dead {
            return Err(format!("wire connection to '{}' is closed", self.server_name));
        }
        // Written under the state lock, so frames never interleave.
        if (&self.stream).write_all(&frame).is_err() {
            self.mark_dead(&mut st);
            return Err(self.lost());
        }
        self.stats.frames_out.inc();
        self.stats.bytes_out.add(frame.len() as u64);
        st.pending.insert(rid, None);

        let mut buf = [0u8; 4096];
        loop {
            if let Some(reply) = st.pending.get_mut(&rid).and_then(Option::take) {
                st.pending.remove(&rid);
                self.stats.round_trip_ns.record_duration(started.elapsed());
                self.round_trips.fetch_add(1, Ordering::Relaxed);
                return Ok(reply);
            }
            if st.dead {
                st.pending.remove(&rid);
                return Err(self.lost());
            }
            let now = Instant::now();
            if now >= deadline {
                st.pending.remove(&rid);
                self.stats.call_timeouts.inc();
                return Err(format!(
                    "wire call to '{}' timed out after {:?}",
                    self.server_name, self.call_timeout
                ));
            }
            if st.reading {
                self.reply_parked.wait_for(&mut st, deadline - now);
                continue;
            }

            st.reading = true;
            let got = MutexGuard::unlocked(&mut st, || (&self.stream).read(&mut buf));
            st.reading = false;
            match got {
                Ok(0) => self.mark_dead(&mut st),
                Ok(n) => {
                    self.stats.bytes_in.add(n as u64);
                    self.park_replies(&mut st, &buf[..n]);
                }
                // The socket's read timeout, or a signal: back to the
                // deadline check above.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(_) => self.mark_dead(&mut st),
            }
            // Whoever else waits must look again: its reply may be parked,
            // and if this caller is done one of them has to read next.
            if st.pending.len() > 1 {
                self.reply_parked.notify_all();
            }
        }
    }

    /// Decodes every complete frame in `bytes` (plus what earlier reads
    /// left over) and parks each reply some caller still waits for.
    fn park_replies(&self, st: &mut CallState, bytes: &[u8]) {
        st.decoder.feed(bytes);
        loop {
            match st.decoder.next_frame() {
                Ok(Some((rid, msg))) => {
                    self.stats.frames_in.inc();
                    if let Some(slot) = st.pending.get_mut(&rid) {
                        *slot = Some(msg);
                    }
                }
                Ok(None) => return,
                Err(_) => {
                    self.stats.decode_errors.inc();
                    return self.mark_dead(st);
                }
            }
        }
    }

    /// Tears the connection down, once: shuts the socket (which also
    /// unblocks a reader mid-`read`) and fails every waiting caller.
    fn mark_dead(&self, st: &mut CallState) {
        if !st.dead {
            st.dead = true;
            self.stats.connection_closed();
            let _ = self.stream.shutdown(Shutdown::Both);
            self.reply_parked.notify_all();
        }
    }

    fn lost(&self) -> String {
        format!("wire call to '{}' failed: connection lost", self.server_name)
    }

    /// Severs the connection abruptly — no goodbye, no flush. This is the
    /// a14 scenario's fault injection: whatever 2PC state the connection
    /// held must resolve by presumed abort on the server.
    pub fn sever(&self) {
        // Socket first, lock second: a caller stuck in `write` holds the
        // lock, and the shutdown is what unsticks it.
        let _ = self.stream.shutdown(Shutdown::Both);
        self.mark_dead(&mut self.state.lock());
    }

    /// Has the connection been torn down — severed, or found lost by a
    /// call? Nothing watches an idle connection: one whose server went
    /// away reads as alive until its next call.
    pub fn is_dead(&self) -> bool {
        self.state.lock().dead
    }

    /// The server's repository log tail — the wire form of the freshness
    /// token read-your-writes routing uses (`DataLinksSystem::freshness_token`).
    pub fn freshness_token(&self) -> Result<u64, String> {
        match self.call(Message::FreshnessToken)? {
            Message::Freshness(lsn) => Ok(lsn),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    fn call_result(&self, msg: Message) -> Result<(), String> {
        match self.call(msg)? {
            Message::Ok => Ok(()),
            Message::Err(e) => Err(e),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }
}

impl Drop for WireConn {
    fn drop(&mut self) {
        if !self.state.get_mut().dead {
            self.stats.connection_closed();
        }
    }
}

/// A wire connection wearing the agent hat: the engine's 2PC participant
/// and link/unlink channel, indistinguishable from a local
/// [`crate::AgentHandle`].
pub struct WireAgent(pub Arc<WireConn>);

impl AgentConnection for WireAgent {
    fn link(
        &self,
        host_txid: u64,
        path: &str,
        mode: ControlMode,
        recovery: bool,
        on_unlink: OnUnlink,
    ) -> Result<(), String> {
        self.0.call_result(Message::Link {
            txid: host_txid,
            coord_epoch: self.0.coord_epoch,
            path: path.to_string(),
            mode: mode_to_u8(mode),
            recovery,
            on_unlink: on_unlink_to_u8(on_unlink),
        })
    }

    fn unlink(&self, host_txid: u64, path: &str) -> Result<(), String> {
        self.0.call_result(Message::Unlink {
            txid: host_txid,
            coord_epoch: self.0.coord_epoch,
            path: path.to_string(),
        })
    }

    fn prepare(&self, host_txid: u64) -> Result<(), String> {
        self.0.call_result(Message::Prepare { txid: host_txid, coord_epoch: self.0.coord_epoch })
    }

    fn commit(&self, host_txid: u64) {
        // A lost connection mid-decide is fine: the server's disconnect
        // sweep asks the host for the recorded outcome and applies it.
        let _ = self.0.call(Message::Commit { txid: host_txid, coord_epoch: self.0.coord_epoch });
    }

    fn abort(&self, host_txid: u64) {
        let _ = self.0.call(Message::Abort { txid: host_txid, coord_epoch: self.0.coord_epoch });
    }

    fn server_name(&self) -> &str {
        &self.0.server_name
    }

    fn coord_epoch(&self) -> u64 {
        self.0.coord_epoch
    }
}

/// A wire connection wearing the upcall hat: DLFS's endpoint when the
/// node runs `Transport::Socket`.
pub struct WireUpcall(pub Arc<WireConn>);

impl UpcallTransport for WireUpcall {
    fn validate_token(&self, path: &str, token: &str, uid: u32) -> Result<TokenKind, String> {
        match self.0.call(Message::ValidateToken {
            path: path.to_string(),
            token: token.to_string(),
            uid,
        })? {
            Message::TokenKindIs(k) => {
                token_kind_from_u8(k).ok_or_else(|| "bad token-kind discriminant".to_string())
            }
            Message::Err(e) => Err(e),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    fn open_check(
        &self,
        path: &str,
        uid: u32,
        wanted: TokenKind,
        opener: u64,
    ) -> (u64, OpenDecision) {
        let reply = self.0.call(Message::OpenCheck {
            path: path.to_string(),
            uid,
            wanted: token_kind_to_u8(wanted),
            opener,
        });
        let decision = match reply {
            Ok(Message::OpenApproved { uid, gid }) => {
                OpenDecision::Approved { open_as: dl_fskit::Cred { uid, gid } }
            }
            Ok(Message::OpenNotManaged) => OpenDecision::NotManaged,
            Ok(Message::OpenBusy(epoch)) => return (epoch, OpenDecision::Busy),
            Ok(Message::OpenRejected(e)) => OpenDecision::Rejected(e),
            Ok(other) => OpenDecision::Rejected(format!("unexpected reply {other:?}")),
            Err(e) => OpenDecision::Rejected(e),
        };
        (0, decision)
    }

    fn close_notify(
        &self,
        path: &str,
        opener: u64,
        wrote: bool,
        size: u64,
        mtime: u64,
    ) -> Result<(), String> {
        self.0.call_result(Message::CloseNotify {
            path: path.to_string(),
            opener,
            wrote,
            size,
            mtime,
        })
    }

    fn mutation_check(&self, path: &str) -> Result<(), String> {
        self.0.call_result(Message::MutationCheck { path: path.to_string() })
    }

    fn register_open(&self, path: &str, uid: u32, opener: u64) {
        let _ = self.0.call(Message::RegisterOpen { path: path.to_string(), uid, opener });
    }

    fn unregister_open(&self, path: &str, opener: u64) {
        let _ = self.0.call(Message::UnregisterOpen { path: path.to_string(), opener });
    }

    fn strict_link(&self) -> bool {
        self.0.strict_link
    }

    fn dlfm_uid(&self) -> u32 {
        self.0.dlfm_uid
    }

    fn wait_epoch_change(&self, seen: u64) {
        // No server-side blocking over the wire: poll the epoch with a
        // short sleep. A dead connection returns immediately — the caller
        // re-checks its condition and fails from there.
        loop {
            match self.0.call(Message::EpochGet) {
                Ok(Message::EpochIs(e)) if e == seen => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                _ => return,
            }
        }
    }

    fn round_trip_count(&self) -> u64 {
        self.0.round_trips.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArchiveStore, DlfmConfig, UpcallDaemon};
    use dl_fskit::{FileSystem, MemFs, SimClock};
    use dl_minidb::StorageEnv;

    fn daemon() -> WireDaemon {
        let clock = Arc::new(SimClock::new(1_000_000));
        let fs = Arc::new(MemFs::with_clock(clock.clone()));
        let server = Arc::new(
            DlfmServer::new(
                DlfmConfig::new("srv1"),
                fs as Arc<dyn FileSystem>,
                StorageEnv::mem(),
                Arc::new(ArchiveStore::new()),
                clock,
            )
            .unwrap(),
        );
        let (_upcalls, client) = UpcallDaemon::spawn(Arc::clone(&server));
        let main = MainDaemon::new(Arc::clone(&server));
        WireDaemon::spawn(server, &main, client, Arc::new(NetStats::new())).unwrap()
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn connection_bookkeeping_is_bounded_by_open_sockets() {
        let daemon = daemon();
        let tracked = || daemon.sessions.0.lock().len();
        let connector = WireConnector::new(Arc::new(NetStats::new()), Duration::from_secs(30));
        let standing = connector.connect(daemon.socket_path(), "standing").unwrap();
        assert_eq!(tracked(), 1);

        for i in 0..10_000u64 {
            drop(UnixStream::connect(daemon.socket_path()).unwrap());
            // Keep the backlog of half-dead sockets short of the listen
            // queue and the fd limit.
            if i % 64 == 63 {
                wait_until("churned sockets to drain", || daemon.stats.connections.get() == 1);
            }
        }
        wait_until("every churned connection to disconnect", || {
            daemon.stats.disconnects.get() == 10_000
        });
        assert_eq!(tracked(), 1, "only the standing connection may still be tracked");
        assert!(standing.call(Message::EpochGet).is_ok());
    }

    #[test]
    fn a_call_nobody_answers_times_out_and_is_counted() {
        let path = std::env::temp_dir().join(format!("dl-wire-mute-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
        // A daemon whose handler never replies — not even to Hello.
        let _mute =
            Reactor::spawn("mute", Some(listener), Arc::new(NetStats::new()), |_h| |_ev| {})
                .unwrap();

        let stats = Arc::new(NetStats::new());
        let connector = WireConnector::new(Arc::clone(&stats), Duration::from_millis(50));
        let started = Instant::now();
        let err = connector.connect(&path, "patient").err().expect("nobody answered");
        let waited = started.elapsed();
        let _ = std::fs::remove_file(&path);

        assert!(err.contains("timed out after 50ms"), "{err}");
        assert!(!err.contains("connection lost"), "{err}");
        assert!(waited >= Duration::from_millis(50), "gave up early: {waited:?}");
        assert!(waited < Duration::from_secs(5), "waited {waited:?}");
        assert_eq!(stats.call_timeouts.get(), 1);
        assert_eq!(stats.connections.get(), 0, "the abandoned connection is accounted closed");
    }
}
