//! The DLFM protocol on the wire (`Transport::Socket`).
//!
//! The paper's host↔DLFM boundary is a network boundary: database agents
//! and DLFS talk to the daemon complex over connections, not function
//! calls. This module is that boundary made real on top of `dl-net`'s
//! frame codec and poll(2) reactor:
//!
//! * [`WireDaemon`] — the server. One reactor thread serves every
//!   connection of a node over a Unix-domain socket; each decoded frame is
//!   queued on the lane [`crate::server::lane`] names — the *same* agent
//!   executor and upcall pool the in-process carrier uses, plus a small
//!   dedicated settle pool for 2PC settlement (never the agent executor:
//!   see [`Lane::Settle`]) — where a worker runs it through
//!   [`crate::DlfmServer::handle`]. Thousands of connections therefore ride on a
//!   fixed thread count. What this module adds around that is session
//!   bookkeeping only.
//! * [`WireConnector`] / [`WireConn`] — the socket [`Carrier`], which has
//!   no thread of its own: a connection is a blocking socket, and each
//!   call writes its frame and then reads the socket itself (one caller at
//!   a time reads for everyone waiting on the connection) until its
//!   request-id-correlated reply is in. A [`crate::DlfmClient`] over it
//!   gives the engine and DLFS the same typed calls they make in-process.
//!
//! **Presumed abort on connection loss.** A severed connection's
//! unsettled host transactions are resolved on the settle pool through
//! [`crate::DlfmServer::resolve_client_loss`]: the host aborts the
//! transaction if it is still undecided, then the branch commits only if
//! the host's metadata rows show the transaction committed, and aborts
//! otherwise. A link job racing the disconnect settles its own
//! sub-transaction when it finds its connection no longer live, so no
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

use crate::agent::{lane_pool, Job, Lanes, MainDaemon};
use crate::client::Carrier;
use crate::pool::{ElasticPool, PoolOptions, PoolStats};
use crate::server::{lane, Lane};

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
/// over one Unix-domain socket, multiplexed onto the node's lanes.
pub struct WireDaemon {
    /// Owns the poller thread; dropped last-ish (field order) so handler
    /// state stays alive while it drains.
    _reactor: Reactor,
    path: PathBuf,
    front: Arc<WireFront>,
    stats: Arc<NetStats>,
}

/// What the reactor's handler and the jobs it queues share.
struct WireFront {
    lanes: Arc<Lanes>,
    /// 2PC settlement + disconnect resolution. Small and dedicated: these
    /// jobs must make progress even when every agent-executor worker
    /// blocks on a row lock only a settlement can release.
    settle: Arc<ElasticPool<Job>>,
    sessions: Sessions,
    presumed_aborts: Arc<Counter>,
}

impl WireDaemon {
    /// Binds the node's wire socket and starts serving. Frames are queued
    /// on `main`'s lanes and a dedicated settle pool; `stats` sees every
    /// connection and frame.
    pub fn spawn(main: &MainDaemon, stats: Arc<NetStats>) -> Result<WireDaemon, String> {
        let lanes = Arc::clone(main.lanes());
        let name = lanes.service.server.config().server_name.clone();
        let path = std::env::temp_dir().join(format!(
            "dl-wire-{}-{}-{}.sock",
            std::process::id(),
            SOCKET_SEQ.fetch_add(1, Ordering::Relaxed),
            name
        ));
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path)
            .map_err(|e| format!("bind wire socket {}: {e}", path.display()))?;

        let front = Arc::new(WireFront {
            settle: lane_pool(
                PoolOptions::adaptive(&format!("dlfm-settle-{name}"), 4, 4),
                &lanes.service,
            ),
            lanes,
            sessions: Sessions::default(),
            presumed_aborts: Arc::new(Counter::new()),
        });
        let reactor = {
            let front = Arc::clone(&front);
            Reactor::spawn(&format!("wire-{name}"), Some(listener), Arc::clone(&stats), |h| {
                let h = h.clone();
                move |ev| serve_event(ev, &h, &front)
            })
            .map_err(|e| format!("spawn wire reactor: {e}"))?
        };
        Ok(WireDaemon { _reactor: reactor, path, front, stats })
    }

    /// The Unix-socket path clients connect to.
    pub fn socket_path(&self) -> &Path {
        &self.path
    }

    /// Host transactions settled by presumed abort after their connection
    /// died mid-2PC.
    pub fn presumed_aborts(&self) -> &Arc<Counter> {
        &self.front.presumed_aborts
    }

    /// Live gauges of the settle pool (thread-accounting in benches).
    pub fn settle_stats(&self) -> &PoolStats {
        self.front.settle.stats()
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

/// One reactor event on the server: queue a frame on its lane, or sweep a
/// dead connection's transactions.
fn serve_event(ev: NetEvent, h: &ReactorHandle, front: &Arc<WireFront>) {
    let (conn, rid, msg) = match ev {
        NetEvent::Accepted(conn) => return front.sessions.opened(conn),
        NetEvent::Disconnected(conn) => {
            // Off the table first: any queued or future job for this
            // connection must find it gone before deciding to apply work.
            let txids = front.sessions.closed(conn);
            if !txids.is_empty() {
                let presumed_aborts = Arc::clone(&front.presumed_aborts);
                front.settle.submit(Box::new(move |service| {
                    for txid in txids {
                        if !service.server.resolve_client_loss(txid) {
                            presumed_aborts.inc();
                        }
                    }
                }));
            }
            return;
        }
        NetEvent::Frame { conn, request_id, msg } => (conn, request_id, msg),
    };

    let pool = match lane(&msg) {
        // Cheap enough for the reactor thread.
        Lane::Inline => return h.send(conn, rid, &front.lanes.service.server.handle(msg)),
        Lane::Agent => &front.lanes.agent,
        Lane::Settle => &front.settle,
        Lane::Upcall => &front.lanes.upcall,
    };
    // What the connection owes the sweep: a link or unlink *claims* — it
    // leaves its host transaction open on this connection until a decision
    // settles it, and creates the sub-transaction the sweep may already
    // have run too early to see.
    let decides = matches!(msg, Message::Commit { .. } | Message::Abort { .. });
    let settles = msg.txid().filter(|_| decides);
    let claim = msg.txid().filter(|_| !decides);
    if let Some(txid) = claim {
        front.sessions.track(conn, txid);
    }
    let (h, front) = (h.clone(), Arc::clone(front));
    pool.submit(Box::new(move |service| {
        let sessions = &front.sessions;
        if claim.is_some() && !sessions.is_live(conn) {
            return;
        }
        service.serve(msg, |reply| {
            if let Some(txid) = settles {
                sessions.settled(conn, txid);
            }
            if sessions.is_live(conn) {
                h.send(conn, rid, &reply);
            } else if let (Some(txid), Message::Ok) = (claim, &reply) {
                // The connection died while we linked: the disconnect
                // sweep may have run before this sub-transaction existed.
                // Settle it here, by the sweep's own rule.
                service.server.resolve_client_loss(txid);
            }
        });
    }));
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

    /// Opens a connection to a [`WireDaemon`]'s socket. Nothing has been
    /// said on it yet: [`crate::DlfmClient::connect`] over it performs
    /// the `Hello` handshake. `client` labels the connection in its own
    /// error messages.
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
        Ok(Arc::new(WireConn {
            stream,
            state: Mutex::new(CallState::default()),
            reply_parked: Condvar::new(),
            stats: Arc::clone(&self.stats),
            call_timeout: self.call_timeout,
            next_req: AtomicU64::new(1),
            label: client.to_string(),
        }))
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

/// One client connection — the socket [`Carrier`]: request-id-correlated
/// call/reply over a frame stream.
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
    /// Who opened the connection (error messages).
    label: String,
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
            return Err(format!("wire connection '{}' is closed", self.label));
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
                    "wire call on '{}' timed out after {:?}",
                    self.label, self.call_timeout
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
        format!("wire call on '{}' failed: connection lost", self.label)
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
}

impl Carrier for WireConn {
    fn call(&self, msg: Message) -> Result<Message, String> {
        WireConn::call(self, msg)
    }

    fn wait_epoch_change(&self, seen: u64) {
        // No server-side blocking over the wire: poll the epoch with a
        // short sleep. A dead connection returns immediately — the caller
        // re-checks its condition and fails from there.
        while let Ok(Message::EpochIs(e)) = self.call(Message::EpochGet) {
            if e != seen {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArchiveStore, DlfmConfig, DlfmServer};
    use dl_fskit::{FileSystem, MemFs, SimClock};
    use dl_minidb::{Database, StorageEnv};

    fn daemon() -> WireDaemon {
        let clock = Arc::new(SimClock::new(1_000_000));
        let fs = Arc::new(MemFs::with_clock(clock.clone()));
        let server = Arc::new(
            DlfmServer::new(
                DlfmConfig::new("srv1"),
                fs as Arc<dyn FileSystem>,
                Database::open(StorageEnv::mem()).unwrap(),
                Arc::new(ArchiveStore::new()),
                clock,
            )
            .unwrap(),
        );
        WireDaemon::spawn(&MainDaemon::new(server), Arc::new(NetStats::new())).unwrap()
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
        let tracked = || daemon.front.sessions.0.lock().len();
        let connector = WireConnector::new(Arc::new(NetStats::new()), Duration::from_secs(30));
        let standing = connector.connect(daemon.socket_path(), "standing").unwrap();
        // A first round trip: the server has accepted the connection.
        assert!(standing.call(Message::EpochGet).is_ok());
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
        let conn = connector.connect(&path, "patient").unwrap();
        let err = crate::DlfmClient::connect(conn, "patient").err().expect("nobody answered");
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
