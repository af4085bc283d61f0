//! The DLFM protocol on the wire (`Transport::Socket`).
//!
//! The paper's host↔DLFM boundary is a network boundary: database agents
//! and DLFS talk to the daemon complex over connections, not function
//! calls. This module is that boundary made real on top of `dl-net`'s
//! frame codec and leader/followers reactor:
//!
//! * [`WireDaemon`] — the server. The reactor's threads serve every
//!   connection of a node over a Unix-domain socket, and each decoded frame
//!   is served on the thread that read it, under the gate of the lane
//!   [`crate::server::lane`] names — the *same* agent executor and upcall
//!   lane the in-process carrier uses, plus a settlement gate of its own
//!   (never the agent executor: see [`Lane::Settle`]) — through
//!   [`crate::DlfmServer::handle`]. A frame that finds its lane full is
//!   parked on the gate, so the threads serving a node stay bounded by the
//!   lanes' widths however many connections it has. What this module adds
//!   around that is session bookkeeping only.
//! * [`WireConnector`] / [`WireConn`] — the socket [`Carrier`], which has
//!   no thread of its own: a connection is a set of blocking sockets, one
//!   per concurrent caller. A call checks out an idle socket (or opens
//!   one), writes its frame and reads its reply on that socket alone, so no
//!   caller ever reads for another. A [`crate::DlfmClient`] over it gives
//!   the engine and DLFS the same typed calls they make in-process.
//!
//! **Presumed abort on connection loss.** A severed socket's unsettled
//! host transactions are resolved under the settlement gate through
//! [`crate::DlfmServer::resolve_client_loss`]: the host aborts the
//! transaction if it is still undecided, then the branch commits only if
//! the host's metadata rows show the transaction committed, and aborts
//! otherwise. A link racing the disconnect settles its own
//! sub-transaction when it finds its socket no longer live, so no
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
use parking_lot::Mutex;

use crate::agent::{Lanes, MainDaemon};
use crate::client::Carrier;
use crate::pool::HeadGate;
use crate::server::{lane, Lane};

/// Width of the settlement gate: `Commit`/`Abort` frames and disconnect
/// resolution, at most this many at once.
const SETTLE_WIDTH: usize = 4;

/// The server's per-socket bookkeeping: which sockets are live, and which
/// socket claimed each host transaction not yet settled. A client's
/// `Link` and its `Commit` may ride different sockets of one [`WireConn`],
/// so a decision settles its transaction whichever socket claimed it. A
/// socket is in the table from its `Accepted` to its `Disconnected` and a
/// transaction from its claim to its settlement, so the table is bounded
/// by open sockets and live claims however many come and go.
#[derive(Default)]
struct Sessions(Mutex<SessionTable>);

#[derive(Default)]
struct SessionTable {
    live: HashSet<u64>,
    /// Each unsettled transaction's claiming sockets.
    claims: HashMap<u64, Vec<u64>>,
}

impl Sessions {
    fn opened(&self, conn: u64) {
        self.0.lock().live.insert(conn);
    }

    /// Forgets `conn`, returning the host transactions it claimed and left
    /// unsettled — which the caller resolves, so they leave the table.
    fn closed(&self, conn: u64) -> Vec<u64> {
        let mut table = self.0.lock();
        table.live.remove(&conn);
        let txids: Vec<u64> =
            table.claims.iter().filter(|(_, by)| by.contains(&conn)).map(|(&t, _)| t).collect();
        for txid in &txids {
            table.claims.remove(txid);
        }
        txids
    }

    /// Is `conn` still connected? A claim asks this before it applies work
    /// or replies.
    fn is_live(&self, conn: u64) -> bool {
        self.0.lock().live.contains(&conn)
    }

    fn track(&self, conn: u64, txid: u64) {
        let mut table = self.0.lock();
        if table.live.contains(&conn) {
            let by = table.claims.entry(txid).or_default();
            if !by.contains(&conn) {
                by.push(conn);
            }
        }
    }

    fn settled(&self, txid: u64) {
        self.0.lock().claims.remove(&txid);
    }
}

/// Distinguishes concurrently-running wire daemons' socket files within
/// one process (tests spin up many nodes).
static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

/// The server side: a reactor serving framed agent/upcall connections
/// over one Unix-domain socket, each frame on the thread that read it.
pub struct WireDaemon {
    /// Stopped first (field order): its threads hold the handler state.
    reactor: Reactor,
    path: PathBuf,
    front: Arc<WireFront>,
    stats: Arc<NetStats>,
}

/// What the reactor's handler shares across its threads.
struct WireFront {
    lanes: Arc<Lanes>,
    /// 2PC settlement + disconnect resolution, [`SETTLE_WIDTH`] wide.
    /// A gate of its own: these must make progress even when every head
    /// of the agent executor blocks on a row lock only a settlement can
    /// release.
    settle: HeadGate,
    sessions: Sessions,
    presumed_aborts: Arc<Counter>,
}

impl WireDaemon {
    /// Binds the node's wire socket and starts serving. Frames are served
    /// under `main`'s lanes and a settlement gate; `stats` sees every
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
            lanes,
            settle: HeadGate::new(SETTLE_WIDTH),
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
        Ok(WireDaemon { reactor, path, front, stats })
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

    /// OS threads serving this node's frames right now: the reactor's
    /// leader, its followers, and every thread inside a lane or parking a
    /// frame.
    pub fn threads(&self) -> usize {
        self.reactor.handle().threads()
    }

    /// The most threads that ever served this node's frames at once.
    pub fn peak_threads(&self) -> usize {
        self.reactor.handle().peak_threads()
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

/// One reactor event on the server, on the thread that took it: serve a
/// frame under its lane's gate, or sweep a dead socket's transactions.
fn serve_event(ev: NetEvent, h: &ReactorHandle, front: &Arc<WireFront>) {
    let (conn, rid, msg) = match ev {
        NetEvent::Accepted(conn) => return front.sessions.opened(conn),
        NetEvent::Disconnected(conn) => {
            // Off the table first: any parked or future claim for this
            // socket must find it gone before deciding to apply work.
            let txids = front.sessions.closed(conn);
            if !txids.is_empty() {
                let swept = Arc::clone(front);
                front.settle.serve_or_park(move || {
                    for txid in txids {
                        if !swept.lanes.service.server.resolve_client_loss(txid) {
                            swept.presumed_aborts.inc();
                        }
                    }
                });
            }
            return;
        }
        NetEvent::Frame { conn, request_id, msg } => (conn, request_id, msg),
    };

    let gate = match lane(&msg) {
        // Cheap: no gate.
        Lane::Inline => return h.send(conn, rid, &front.lanes.service.server.handle(msg)),
        Lane::Agent => &front.lanes.agent,
        Lane::Settle => &front.settle,
        Lane::Upcall => &front.lanes.upcall,
    };
    // What the socket owes the sweep: a link or unlink *claims* — it
    // leaves its host transaction open on this socket until a decision
    // settles it, and creates the sub-transaction the sweep may already
    // have run too early to see.
    let decides = matches!(msg, Message::Commit { .. } | Message::Abort { .. });
    let settles = msg.txid().filter(|_| decides);
    let claim = msg.txid().filter(|_| !decides);
    if let Some(txid) = claim {
        front.sessions.track(conn, txid);
    }
    let (h, front) = (h.clone(), Arc::clone(front));
    gate.serve_or_park(move || {
        let (sessions, service) = (&front.sessions, &front.lanes.service);
        if claim.is_some() && !sessions.is_live(conn) {
            return;
        }
        service.serve(msg, |reply| {
            if let Some(txid) = settles {
                sessions.settled(txid);
            }
            if sessions.is_live(conn) {
                h.send(conn, rid, &reply);
            } else if let Some(txid) = claim.filter(|_| !matches!(reply, Message::Err(_))) {
                // The socket died while we linked or unlinked: the
                // disconnect sweep may have run before this
                // sub-transaction existed. Settle it here, by the sweep's
                // own rule.
                service.server.resolve_client_loss(txid);
            }
        });
    });
}

/// How long a node's own client calls (the engine's and DLFS's, and any
/// minted through `node.wire().connect`) wait for their reply frame before
/// they fail, counted as `net.<node>.call_timeouts`. Generous: a frame may
/// park behind a full lane, and a stall this long means the daemon is gone
/// or wedged.
pub const WIRE_CALL_TIMEOUT: Duration = Duration::from_secs(30);

/// The client side: mints outbound wire connections that share one set
/// of instruments and one call timeout. It runs no thread — every
/// connection does its own socket I/O on its callers' threads.
pub struct WireConnector {
    stats: Arc<NetStats>,
    call_timeout: Duration,
}

impl WireConnector {
    /// `stats` sees every socket's frames and the caller-observed
    /// round-trip latency; `call_timeout` bounds each call's wait for its
    /// reply (a node's own connector uses [`WIRE_CALL_TIMEOUT`]).
    pub fn new(stats: Arc<NetStats>, call_timeout: Duration) -> WireConnector {
        WireConnector { stats, call_timeout }
    }

    /// Opens a connection to a [`WireDaemon`]'s socket. Nothing has been
    /// said on it yet: [`crate::DlfmClient::connect`] over it performs
    /// the `Hello` handshake. `client` labels the connection in its own
    /// error messages.
    pub fn connect(&self, socket: &Path, client: &str) -> Result<Arc<WireConn>, String> {
        let conn = WireConn {
            path: socket.to_path_buf(),
            sockets: Mutex::new(Sockets::default()),
            stats: Arc::clone(&self.stats),
            call_timeout: self.call_timeout,
            next_req: AtomicU64::new(1),
            label: client.to_string(),
        };
        let first = conn.checkout()?;
        conn.checkin(first);
        Ok(Arc::new(conn))
    }

    /// This connector's wire instruments.
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }
}

/// One socket of a [`WireConn`], held by one caller at a time.
struct Socket {
    stream: Arc<UnixStream>,
    /// Bytes of a frame a read cut short, kept for the next read.
    decoder: FrameDecoder,
    /// The socket's current read timeout.
    read_timeout: Duration,
}

/// The sockets of one connection.
#[derive(Default)]
struct Sockets {
    /// Sockets no caller holds right now.
    idle: Vec<Socket>,
    /// Every socket opened, for [`WireConn::sever`].
    all: Vec<Arc<UnixStream>>,
    dead: bool,
}

/// Why a call on one socket failed.
enum Failure {
    TimedOut,
    Lost,
}

/// One client connection — the socket [`Carrier`]: request-id-correlated
/// call/reply over frame streams.
///
/// There is no I/O thread behind it, and no caller waits on another. Each
/// concurrent caller owns a socket for the length of its call — an idle
/// one, or one it opens — and does write → read on it alone, so the
/// sockets never outnumber the most callers the connection ever had at
/// once. A `Hello` holds no server state, so one on the first socket
/// speaks for them all. A failure on any socket kills the whole
/// connection, as [`WireConn::sever`] does.
pub struct WireConn {
    path: PathBuf,
    sockets: Mutex<Sockets>,
    stats: Arc<NetStats>,
    call_timeout: Duration,
    next_req: AtomicU64,
    /// Who opened the connection (error messages).
    label: String,
}

impl WireConn {
    /// One frame round-trip: send `msg`, block until the correlated reply
    /// arrives, the connection dies, or the call timeout passes. Every
    /// read after the first waits only for the time left, so a call never
    /// overshoots its deadline by more than one read's latency; a
    /// timed-out call leaves the connection usable, and the next call on
    /// its socket skips the late reply.
    pub fn call(&self, msg: Message) -> Result<Message, String> {
        let started = Instant::now();
        let mut sock = self.checkout()?;
        let rid = self.next_req.fetch_add(1, Ordering::Relaxed);
        match self.exchange(&mut sock, rid, &msg, started + self.call_timeout) {
            Ok(reply) => {
                self.checkin(sock);
                self.stats.round_trip_ns.record_duration(started.elapsed());
                Ok(reply)
            }
            Err(Failure::TimedOut) => {
                self.checkin(sock);
                self.stats.call_timeouts.inc();
                Err(format!(
                    "wire call on '{}' timed out after {:?}",
                    self.label, self.call_timeout
                ))
            }
            Err(Failure::Lost) => {
                self.sever();
                Err(self.lost())
            }
        }
    }

    /// Writes `msg` as request `rid` on `sock`, then reads until its reply.
    fn exchange(
        &self,
        sock: &mut Socket,
        rid: u64,
        msg: &Message,
        deadline: Instant,
    ) -> Result<Message, Failure> {
        let frame = encode_frame(rid, msg);
        if (&*sock.stream).write_all(&frame).is_err() {
            return Err(Failure::Lost);
        }
        self.stats.frames_out.inc();
        self.stats.bytes_out.add(frame.len() as u64);

        let mut buf = [0u8; 4096];
        let mut wait = self.call_timeout;
        loop {
            loop {
                match sock.decoder.next_frame() {
                    Ok(Some((got, reply))) => {
                        self.stats.frames_in.inc();
                        if got == rid {
                            return Ok(reply);
                        }
                        // A timed-out call's late reply: nobody waits
                        // for it any more.
                    }
                    Ok(None) => break,
                    Err(_) => {
                        self.stats.decode_errors.inc();
                        return Err(Failure::Lost);
                    }
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(Failure::TimedOut);
            }
            if sock.read_timeout != wait {
                if sock.stream.set_read_timeout(Some(wait)).is_err() {
                    return Err(Failure::Lost);
                }
                sock.read_timeout = wait;
            }
            match (&*sock.stream).read(&mut buf) {
                Ok(0) => return Err(Failure::Lost),
                Ok(n) => {
                    self.stats.bytes_in.add(n as u64);
                    sock.decoder.feed(&buf[..n]);
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
                Err(_) => return Err(Failure::Lost),
            }
            // Every read after the first waits only for what is left.
            wait = deadline.saturating_duration_since(Instant::now()).max(Duration::from_micros(1));
        }
    }

    /// An idle socket, or a new one when every socket is in a call.
    fn checkout(&self) -> Result<Socket, String> {
        {
            let mut sockets = self.sockets.lock();
            if sockets.dead {
                return Err(format!("wire connection '{}' is closed", self.label));
            }
            if let Some(sock) = sockets.idle.pop() {
                return Ok(sock);
            }
        }
        let sock = self.open_socket().inspect_err(|_| self.sever())?;
        let mut sockets = self.sockets.lock();
        if sockets.dead {
            // Severed while it connected: this socket goes down with the rest.
            let _ = sock.stream.shutdown(Shutdown::Both);
            self.stats.connection_closed();
            return Err(self.lost());
        }
        sockets.all.push(Arc::clone(&sock.stream));
        Ok(sock)
    }

    fn checkin(&self, sock: Socket) {
        let mut sockets = self.sockets.lock();
        if !sockets.dead {
            sockets.idle.push(sock);
        }
    }

    /// Connects one more socket to the daemon.
    fn open_socket(&self) -> Result<Socket, String> {
        let stream = UnixStream::connect(&self.path)
            .map_err(|e| format!("connect {}: {e}", self.path.display()))?;
        // The socket's own timeouts are what wake a caller blocked in
        // `read`/`write` to re-check its deadline.
        stream
            .set_read_timeout(Some(self.call_timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.call_timeout)))
            .map_err(|e| format!("wire call timeout {:?}: {e}", self.call_timeout))?;
        self.stats.connection_opened();
        Ok(Socket {
            stream: Arc::new(stream),
            decoder: FrameDecoder::new(),
            read_timeout: self.call_timeout,
        })
    }

    fn lost(&self) -> String {
        format!("wire call on '{}' failed: connection lost", self.label)
    }

    /// Severs the connection abruptly, once — every socket, no goodbye,
    /// no flush: shuts each socket (which also unblocks a caller
    /// mid-`read` on it) and fails every call from here on. A failure on
    /// any socket does this too. It is also the fault the wire tests
    /// inject mid-2PC: whatever 2PC state the connection held, on any of
    /// its sockets, must resolve by presumed abort on the server.
    pub fn sever(&self) {
        let mut sockets = self.sockets.lock();
        if !sockets.dead {
            sockets.dead = true;
            sockets.idle.clear();
            for stream in &sockets.all {
                let _ = stream.shutdown(Shutdown::Both);
                self.stats.connection_closed();
            }
        }
    }

    /// Has the connection been torn down — severed, or found lost by a
    /// call? Nothing watches an idle connection: one whose server went
    /// away reads as alive until its next call.
    pub fn is_dead(&self) -> bool {
        self.sockets.lock().dead
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
        let sockets = self.sockets.get_mut();
        if !sockets.dead {
            for _ in &sockets.all {
                self.stats.connection_closed();
            }
        }
    }
}

#[cfg(test)]
#[path = "../tests/support/mem_host.rs"]
mod mem_host;

#[cfg(test)]
mod tests {
    use super::mem_host::MemHost;
    use super::*;
    use crate::{
        AgentConnection, ArchiveStore, ControlMode, DlfmClient, DlfmConfig, DlfmServer,
        FaultInjector, OnUnlink, Repository,
    };
    use dl_fskit::{Cred, FileSystem, Lfs, MemFs, SimClock};
    use dl_minidb::StorageEnv;
    use std::sync::{Barrier, Condvar as StdCondvar, Mutex as StdMutex};

    const APP: Cred = Cred { uid: 100, gid: 100 };

    /// A node over `cfg` with `files` seeded, served by a wire daemon.
    struct Node {
        daemon: WireDaemon,
        main: MainDaemon,
        server: Arc<DlfmServer>,
    }

    fn node_with(cfg: DlfmConfig, files: &[&str], fault: Option<FaultInjector>) -> Node {
        let clock = Arc::new(SimClock::new(1_000_000));
        let fs = Arc::new(MemFs::with_clock(clock.clone()));
        let raw = Lfs::new(fs.clone() as Arc<dyn FileSystem>);
        for path in files {
            raw.write_file(&APP, path, b"x").unwrap();
        }
        let server = Arc::new(DlfmServer::new(
            cfg,
            fs as Arc<dyn FileSystem>,
            Repository::open(StorageEnv::mem()).unwrap(),
            Arc::new(ArchiveStore::new()),
            clock,
            MemHost::new(),
        ));
        let main = MainDaemon::with_fault_injector(Arc::clone(&server), fault);
        let daemon = WireDaemon::spawn(&main, Arc::new(NetStats::new())).unwrap();
        Node { daemon, main, server }
    }

    fn daemon() -> WireDaemon {
        node_with(DlfmConfig::new("srv1"), &[], None).daemon
    }

    fn connector(timeout: Duration) -> WireConnector {
        WireConnector::new(Arc::new(NetStats::new()), timeout)
    }

    fn sockets(conn: &WireConn) -> usize {
        conn.sockets.lock().all.len()
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A hook that holds every request it matches until `open` — counting
    /// the arrivals — and lets everything else through.
    #[derive(Default)]
    struct Hold {
        state: StdMutex<(usize, bool)>,
        changed: StdCondvar,
    }

    impl Hold {
        fn wait(&self) {
            let mut st = self.state.lock().unwrap();
            st.0 += 1;
            self.changed.notify_all();
            while !st.1 {
                st = self.changed.wait(st).unwrap();
            }
        }

        fn arrived(&self) -> usize {
            self.state.lock().unwrap().0
        }

        fn open(&self) {
            self.state.lock().unwrap().1 = true;
            self.changed.notify_all();
        }
    }

    /// A reactor standing in for a daemon: `reply` answers each frame on
    /// the thread that read it, given the socket it came on.
    fn fake_daemon(
        tag: &str,
        reply: impl Fn(u64, Message) -> Message + Send + Sync + 'static,
    ) -> (Reactor, PathBuf) {
        let path = std::env::temp_dir().join(format!("dl-wire-{tag}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
        let reactor = Reactor::spawn(tag, Some(listener), Arc::new(NetStats::new()), |h| {
            let h = h.clone();
            move |ev| {
                if let NetEvent::Frame { conn, request_id, msg } = ev {
                    h.send(conn, request_id, &reply(conn, msg));
                }
            }
        })
        .unwrap();
        (reactor, path)
    }

    #[test]
    fn connection_bookkeeping_is_bounded_by_open_sockets() {
        let daemon = daemon();
        let tracked = || daemon.front.sessions.0.lock().live.len();
        let standing =
            connector(Duration::from_secs(30)).connect(daemon.socket_path(), "standing").unwrap();
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
        // A `Disconnected` is served like a frame, by whichever thread
        // takes it: the table empties once the last one is served.
        wait_until("every churned connection to disconnect and be forgotten", || {
            daemon.stats.disconnects.get() == 10_000 && tracked() == 1
        });
        assert!(standing.call(Message::EpochGet).is_ok());
        assert_eq!(tracked(), 1, "only the standing connection may still be tracked");
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

    /// A reply cut short just before the deadline: the read after it waits
    /// only for the time left, not a whole timeout more.
    #[test]
    fn a_reply_stalled_mid_frame_fails_the_call_at_its_deadline() {
        const TIMEOUT: Duration = Duration::from_millis(200);
        let path = std::env::temp_dir().join(format!("dl-wire-torn-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 256];
            let _ = s.read(&mut buf).unwrap();
            std::thread::sleep(TIMEOUT * 3 / 4);
            let reply = encode_frame(1, &Message::EpochIs(7));
            s.write_all(&reply[..reply.len() / 2]).unwrap();
            std::thread::sleep(TIMEOUT * 3);
        });
        let conn = connector(TIMEOUT).connect(&path, "torn").unwrap();
        let started = Instant::now();
        let err = conn.call(Message::EpochGet).unwrap_err();
        let waited = started.elapsed();
        let _ = std::fs::remove_file(&path);
        assert!(err.contains("timed out"), "{err}");
        assert!(waited < TIMEOUT + Duration::from_millis(50), "overshot: {waited:?}");
        server.join().unwrap();
    }

    /// Concurrent callers each own a socket for the length of their call,
    /// and a connection never holds more sockets than it had callers at
    /// once.
    #[test]
    fn concurrent_callers_never_share_a_socket() {
        const CALLERS: usize = 6;
        let meet = Arc::new(Barrier::new(CALLERS));
        let (_fake, path) = fake_daemon("share", {
            let meet = Arc::clone(&meet);
            move |conn, _| {
                // Every caller inside at once: each call is in flight.
                meet.wait();
                Message::Err(conn.to_string())
            }
        });
        let conn = connector(Duration::from_secs(30)).connect(&path, "callers").unwrap();
        let mut seen: Vec<String> = std::thread::scope(|s| {
            let callers: Vec<_> =
                (0..CALLERS).map(|_| s.spawn(|| conn.call(Message::EpochGet))).collect();
            callers
                .into_iter()
                .map(|c| match c.join().unwrap() {
                    Ok(Message::Err(socket)) => socket,
                    other => panic!("{other:?}"),
                })
                .collect()
        });
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), CALLERS, "each call rode a socket of its own");
        assert_eq!(sockets(&conn), CALLERS);
        // One caller at a time reuses what is there.
        let _ = std::fs::remove_file(&path);
        drop(meet);
        assert_eq!(sockets(&conn), CALLERS);
    }

    /// The late reply of a call that gave up stays on its socket; the next
    /// call there skips it and reads its own.
    #[test]
    fn a_timed_out_calls_late_reply_is_skipped_by_the_next_call() {
        let path = std::env::temp_dir().join(format!("dl-wire-late-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
        let (answer_late, late) = std::sync::mpsc::channel::<()>();
        let (answered_tx, answered) = std::sync::mpsc::channel::<()>();
        // Answers every request by echoing it, the first only once told to.
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let (mut decoder, mut buf) = (FrameDecoder::new(), [0u8; 256]);
            for n in 0..2 {
                let (rid, msg) = loop {
                    if let Some(frame) = decoder.next_frame().unwrap() {
                        break frame;
                    }
                    let got = s.read(&mut buf).unwrap();
                    decoder.feed(&buf[..got]);
                };
                if n == 0 {
                    late.recv().unwrap();
                }
                s.write_all(&encode_frame(rid, &msg)).unwrap();
                if n == 0 {
                    answered_tx.send(()).unwrap();
                }
            }
        });
        let conn = connector(Duration::from_millis(50)).connect(&path, "late").unwrap();
        let err = conn.call(Message::Err("slow".into())).unwrap_err();
        assert!(err.contains("timed out"), "{err}");
        // The late reply lands on the idle socket before the next call.
        answer_late.send(()).unwrap();
        answered.recv().unwrap();
        assert_eq!(conn.call(Message::Err("fast".into())), Ok(Message::Err("fast".into())));
        assert_eq!(sockets(&conn), 1);
        assert!(!conn.is_dead());
        server.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    /// Two links in flight at once ride two sockets; a sever shuts both,
    /// and the server sweeps the transaction each one claimed.
    #[test]
    fn sever_shuts_every_socket_and_the_server_sweeps_claims_on_each() {
        let meet = Arc::new(Barrier::new(2));
        let hook: FaultInjector = {
            let meet = Arc::clone(&meet);
            Arc::new(move |msg| {
                if matches!(msg, Message::Link { .. }) {
                    meet.wait();
                }
            })
        };
        let node = node_with(DlfmConfig::new("srv1"), &["/a.bin", "/b.bin"], Some(hook));
        let conn = connector(Duration::from_secs(30))
            .connect(node.daemon.socket_path(), "doomed")
            .unwrap();
        let agent = DlfmClient::connect(Arc::clone(&conn) as Arc<dyn Carrier>, "doomed").unwrap();
        std::thread::scope(|s| {
            for (txid, path) in [(11, "/a.bin"), (12, "/b.bin")] {
                let agent = &agent;
                s.spawn(move || {
                    agent.link(txid, path, ControlMode::Rff, true, OnUnlink::Restore).unwrap()
                });
            }
        });
        assert_eq!(sockets(&conn), 2);
        let mut pending = node.server.pending_host_txns();
        pending.sort();
        assert_eq!(pending, vec![11, 12]);

        conn.sever();
        assert!(conn.is_dead());
        wait_until("both claims swept", || node.server.pending_host_txns().is_empty());
        wait_until("both sockets disconnected", || node.daemon.stats.connections.get() == 0);
        assert_eq!(node.daemon.presumed_aborts().get(), 2);
        assert!(node.server.repository().get_file("/a.bin").is_none());
        assert!(node.server.repository().get_file("/b.bin").is_none());
    }

    /// A link and its decision may ride different sockets of one
    /// connection; the decision settles the claim wherever it was made,
    /// so the session table ends empty.
    #[test]
    fn sessions_track_no_transaction_after_many_decided_cycles() {
        const CYCLES: u64 = 5_000;
        let node = node_with(DlfmConfig::new("srv1"), &["/t0.bin", "/t1.bin"], None);
        let conn =
            connector(Duration::from_secs(30)).connect(node.daemon.socket_path(), "two").unwrap();
        let agent = DlfmClient::connect(Arc::clone(&conn) as Arc<dyn Carrier>, "two").unwrap();
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let agent = &agent;
                s.spawn(move || {
                    let path = format!("/t{t}.bin");
                    for i in 0..CYCLES {
                        let txid = 1_000 + 2 * (t * CYCLES + i);
                        let done = if i % 2 == 0 {
                            agent
                                .link(txid, &path, ControlMode::Rff, true, OnUnlink::Restore)
                                .map(drop)
                        } else {
                            agent.unlink(txid, &path)
                        };
                        done.unwrap();
                        agent.commit(txid);
                    }
                });
            }
        });
        assert!(node.daemon.front.sessions.0.lock().claims.is_empty(), "no transaction tracked");
        assert!(sockets(&conn) <= 2);
        assert!(node.server.pending_host_txns().is_empty());
    }

    /// Links blocked on a row lock fill the agent executor and park the
    /// rest; the commit that releases the lock has a gate of its own, so
    /// it is served, and every link then completes.
    #[test]
    fn a_decision_is_served_while_links_fill_and_park_on_the_agent_gate() {
        const WAITERS: u64 = 6;
        let mut cfg = DlfmConfig::new("srv1");
        cfg.agent_executor_threads = 2;
        let node = node_with(cfg, &["/hot.bin"], None);
        let conn =
            connector(Duration::from_secs(30)).connect(node.daemon.socket_path(), "hot").unwrap();
        let agent = DlfmClient::connect(Arc::clone(&conn) as Arc<dyn Carrier>, "hot").unwrap();
        // An undecided branch holds the file's row lock.
        agent.link(1, "/hot.bin", ControlMode::Rff, true, OnUnlink::Restore).unwrap();
        let gate = node.main.executor_stats().unwrap();
        // Its reply went out before its head left the gate.
        wait_until("the link's head to leave", || gate.workers() == 0);
        std::thread::scope(|s| {
            let waiters: Vec<_> = (0..WAITERS)
                .map(|i| {
                    let agent = &agent;
                    s.spawn(move || {
                        let txid = 10 + i;
                        let vote =
                            agent.link(txid, "/hot.bin", ControlMode::Rff, true, OnUnlink::Restore);
                        agent.abort(txid);
                        vote
                    })
                })
                .collect();
            wait_until("the gate full and the rest parked", || {
                gate.workers() == 2 && gate.queue_depth() == WAITERS as usize - 2
            });
            agent.commit(1);
            for w in waiters {
                let err = w.join().unwrap().expect_err("the file is linked by then");
                assert!(err.contains("already linked"), "{err}");
            }
        });
        assert!(node.server.repository().get_file("/hot.bin").is_some());
        assert!(node.server.pending_host_txns().is_empty());
        assert_eq!(gate.peak_workers(), 2);
        assert_eq!(gate.peak_queue_depth(), WAITERS as usize - 2);
    }

    /// 256 sockets each send a request that blocks: two serve, the rest
    /// park, and the threads serving the node stay within the lanes'
    /// widths plus the two free ones — then fall back to those two.
    #[test]
    fn blocked_frames_cost_no_more_threads_than_the_lanes_are_wide() {
        const SOCKETS: usize = 256;
        let hold = Arc::new(Hold::default());
        let hook: FaultInjector = {
            let hold = Arc::clone(&hold);
            Arc::new(move |msg| {
                if matches!(msg, Message::MutationCheck { path } if path == "/hang") {
                    hold.wait();
                }
            })
        };
        let mut cfg = DlfmConfig::new("srv1");
        cfg.agent_executor_threads = 2;
        cfg.upcall_workers_max = 2;
        let bound = cfg.agent_executor_threads + cfg.upcall_workers_max + SETTLE_WIDTH + 2;
        let node = node_with(cfg, &[], Some(hook));
        let mut streams: Vec<UnixStream> =
            (0..SOCKETS).map(|_| UnixStream::connect(node.daemon.socket_path()).unwrap()).collect();
        let frame = encode_frame(1, &Message::MutationCheck { path: "/hang".into() });
        for s in &mut streams {
            s.write_all(&frame).unwrap();
        }
        let lane = node.main.upcall_pool_stats();
        wait_until("two served and the rest parked", || {
            hold.arrived() == 2 && lane.queue_depth() == SOCKETS - 2
        });
        hold.open();
        for s in &mut streams {
            let (mut decoder, mut buf) = (FrameDecoder::new(), [0u8; 256]);
            s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            while decoder.next_frame().unwrap().is_none() {
                let n = s.read(&mut buf).unwrap();
                assert!(n > 0, "the daemon hung up");
                decoder.feed(&buf[..n]);
            }
        }
        let peak = node.daemon.peak_threads();
        assert!(peak <= bound, "{peak} threads served the node; bound {bound}");
        assert_eq!(lane.peak_workers(), 2);
        wait_until("idle threads to retire", || node.daemon.threads() == 2);
    }

    /// A panic serving a frame costs that frame one in-band `Err` reply;
    /// the thread it panicked on lives on and serves again.
    #[test]
    fn a_panicking_frame_costs_one_reply_and_not_its_thread() {
        let panicked_on = Arc::new(StdMutex::new(None));
        let served_on = Arc::new(StdMutex::new(Vec::new()));
        let hook: FaultInjector = {
            let (panicked_on, served_on) = (Arc::clone(&panicked_on), Arc::clone(&served_on));
            Arc::new(move |msg| {
                let me = std::thread::current().id();
                if matches!(msg, Message::MutationCheck { path } if path == "/boom") {
                    *panicked_on.lock().unwrap() = Some(me);
                    panic!("injected frame fault");
                }
                served_on.lock().unwrap().push(me);
                // A sequential caller's frames are served by whichever
                // thread holds the poll set, and it keeps it (a lent set)
                // unless its handler parks: park briefly, as a lock wait
                // would, so the set moves on and can reach the victim.
                let idle = parking_lot::Mutex::new(());
                parking_lot::Condvar::new().wait_for(&mut idle.lock(), Duration::from_millis(1));
            })
        };
        let node = node_with(DlfmConfig::new("srv1"), &[], Some(hook));
        let conn =
            connector(Duration::from_secs(30)).connect(node.daemon.socket_path(), "boom").unwrap();
        let reply = conn.call(Message::MutationCheck { path: "/boom".into() }).unwrap();
        assert_eq!(
            reply,
            Message::Err(
                "DLFM worker panicked while serving MutationCheck: injected frame fault".into()
            )
        );
        let victim = panicked_on.lock().unwrap().expect("the hook ran");
        let check = Message::MutationCheck { path: "/free.bin".into() };
        wait_until("the panicked thread to serve again", || {
            assert_eq!(conn.call(check.clone()), Ok(Message::Ok));
            served_on.lock().unwrap().contains(&victim)
        });
        assert_eq!(node.main.upcall_pool_stats().panics(), 1);
        assert!(!conn.is_dead());
    }
}
