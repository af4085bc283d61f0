//! A small poll(2)-driven reactor over nonblocking Unix-domain sockets.
//!
//! One thread owns the *read* side of every socket: it polls for
//! readiness, drains readable connections through a [`FrameDecoder`] and
//! accepts new connections from an optional listener. Everything the
//! caller sees arrives as a [`NetEvent`] through the handler closure —
//! the handler runs *on the poller thread*, so it must never block on
//! work that itself needs the poller (hand such work to an executor and
//! reply later through the [`ReactorHandle`]).
//!
//! The *write* side belongs to whoever sends: [`ReactorHandle::send`]
//! writes the encoded frame straight to the socket under the
//! connection's output lock. Only when the kernel buffer is full does the
//! unwritten remainder queue up, and only then is the poller woken to
//! watch `POLLOUT` and drain it. Frame order per connection is the order
//! in which senders took that lock.
//!
//! Built only on `std::os::unix::net` plus a hand-declared poll(2) FFI —
//! no tokio, no mio. A `UnixStream::pair` serves as the waker: any
//! thread with a handle writes one byte to nudge the poller out of its
//! wait.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::Shutdown;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use dl_obs::NetStats;
use parking_lot::{Mutex, RwLock};

use crate::frame::{encode_frame, FrameDecoder, Message};

// poll(2), declared by hand: the only libc surface this crate needs.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

/// What the reactor tells its owner. `Frame` carries the request-id so a
/// server can stamp its reply and a client can correlate it.
pub enum NetEvent {
    /// A connection is up: accepted from the listener.
    Accepted(u64),
    /// A complete frame arrived on `conn`.
    Frame { conn: u64, request_id: u64, msg: Message },
    /// The connection is gone — peer hangup, I/O error, decode failure,
    /// or the reactor shutting down. Emitted exactly once per connection
    /// that saw `Accepted`.
    Disconnected(u64),
}

enum Cmd {
    #[cfg(test)]
    Register {
        id: u64,
        conn: Arc<ConnOut>,
    },
    #[cfg(test)]
    Close {
        id: u64,
    },
    Shutdown,
}

/// The half of a connection that senders and the poller share.
struct ConnOut {
    stream: UnixStream,
    out: Mutex<OutQueue>,
    /// Mirrors `!out.backlog.is_empty()` so the poller can pick its
    /// `POLLOUT` interest without taking every connection's lock. Written
    /// under `out`; a sender raises it *before* it wakes the poller.
    stalled: AtomicBool,
}

#[derive(Default)]
struct OutQueue {
    /// Bytes some sender could not write because the kernel buffer was
    /// full. While it is non-empty every later frame appends here (order),
    /// and only the poller drains it, on `POLLOUT`.
    backlog: VecDeque<u8>,
    /// Torn down: frames sent from here on are dropped, not counted.
    closed: bool,
}

/// Writes as much of `bytes` as the nonblocking socket takes; the count
/// falls short of `bytes.len()` exactly when the kernel buffer filled.
fn write_some(mut stream: &UnixStream, bytes: &[u8]) -> io::Result<usize> {
    let mut done = 0;
    while done < bytes.len() {
        match stream.write(&bytes[done..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => done += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(done)
}

struct Shared {
    cmds: Mutex<Vec<Cmd>>,
    waker: UnixStream,
    next_conn: AtomicU64,
    /// Live connections by id, for senders; the poller inserts on
    /// accept/register and removes on teardown.
    conns: RwLock<HashMap<u64, Arc<ConnOut>>>,
    stats: Arc<NetStats>,
}

impl Shared {
    /// Gives `stream` an id and makes it sendable-to; the poller starts
    /// reading it once it [`Poller::adopt`]s the result.
    fn add_conn(&self, stream: UnixStream) -> io::Result<(u64, Arc<ConnOut>)> {
        stream.set_nonblocking(true)?;
        let id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let conn = Arc::new(ConnOut {
            stream,
            out: Mutex::new(OutQueue::default()),
            stalled: AtomicBool::new(false),
        });
        self.conns.write().insert(id, Arc::clone(&conn));
        Ok((id, conn))
    }
}

/// A clonable handle for talking to the reactor from outside.
#[derive(Clone)]
pub struct ReactorHandle(Arc<Shared>);

impl ReactorHandle {
    fn push(&self, cmd: Cmd) {
        self.0.cmds.lock().push(cmd);
        self.wake();
    }

    fn wake(&self) {
        // A full pipe already guarantees a wakeup is pending.
        let _ = (&self.0.waker).write(&[1u8]);
    }

    /// Adopts an already-connected stream. Returns the connection id,
    /// good for [`ReactorHandle::send`] at once; the poller emits
    /// `Accepted` when it starts reading the stream. (Clients read their
    /// own sockets; only this module's tests run a client-side reactor.)
    #[cfg(test)]
    pub fn register(&self, stream: UnixStream) -> io::Result<u64> {
        let (id, conn) = self.0.add_conn(stream)?;
        self.push(Cmd::Register { id, conn });
        Ok(id)
    }

    /// Sends one frame on `conn`, writing it to the socket on the calling
    /// thread. Unknown or already-closed connections drop the frame
    /// silently (and uncounted) — the caller learns of the death through
    /// `Disconnected`. Never blocks: what the kernel buffer will not take
    /// queues behind the connection for the poller to drain.
    pub fn send(&self, conn: u64, request_id: u64, msg: &Message) {
        let Some(c) = self.0.conns.read().get(&conn).map(Arc::clone) else {
            return;
        };
        let bytes = encode_frame(request_id, msg);
        let mut out = c.out.lock();
        if out.closed {
            return;
        }
        let stats = &self.0.stats;
        stats.frames_out.inc();
        stats.bytes_out.add(bytes.len() as u64);
        if !out.backlog.is_empty() {
            out.backlog.extend(&bytes);
            return;
        }
        // A hard write error needs no handling here: the poller sees the
        // same broken socket as POLLHUP/POLLERR and tears the connection
        // down.
        if let Ok(n) = write_some(&c.stream, &bytes) {
            if n < bytes.len() {
                stats.backpressure_stalls.inc();
                out.backlog.extend(&bytes[n..]);
                c.stalled.store(true, Ordering::Release);
                drop(out);
                self.wake();
            }
        }
    }

    /// Tears down `conn` from this side, flushing nothing: the socket is
    /// shut down both ways, so the peer sees the hangup even while some
    /// sender still holds the connection.
    #[cfg(test)]
    pub fn close(&self, conn: u64) {
        self.push(Cmd::Close { id: conn });
    }

    /// Stops the poller thread; every live connection gets a final
    /// `Disconnected`.
    pub fn shutdown(&self) {
        self.push(Cmd::Shutdown);
    }
}

/// The poller's own half of a connection.
struct Conn {
    shared: Arc<ConnOut>,
    decoder: FrameDecoder,
}

/// The poller. Owned by its thread after [`Reactor::spawn`]; callers
/// keep only [`ReactorHandle`]s.
pub struct Reactor {
    handle: ReactorHandle,
    join: Option<thread::JoinHandle<()>>,
}

impl Reactor {
    /// Spawns the poller thread. `listener`, when present, feeds the
    /// accept loop. `make_handler` receives the handle first so the
    /// handler it builds can reply to frames.
    pub fn spawn<F>(
        name: &str,
        listener: Option<UnixListener>,
        stats: Arc<NetStats>,
        make_handler: impl FnOnce(&ReactorHandle) -> F,
    ) -> io::Result<Reactor>
    where
        F: FnMut(NetEvent) + Send + 'static,
    {
        if let Some(l) = &listener {
            l.set_nonblocking(true)?;
        }
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let handle = ReactorHandle(Arc::new(Shared {
            cmds: Mutex::new(Vec::new()),
            waker: wake_tx,
            next_conn: AtomicU64::new(1),
            conns: RwLock::new(HashMap::new()),
            stats,
        }));
        let mut handler = make_handler(&handle);
        let shared = Arc::clone(&handle.0);
        let join = thread::Builder::new().name(format!("dl-net-{name}")).spawn(move || {
            Poller { shared, conns: HashMap::new(), handler: &mut handler }.run(listener, wake_rx);
        })?;
        Ok(Reactor { handle, join: Some(join) })
    }

    pub fn handle(&self) -> ReactorHandle {
        self.handle.clone()
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

struct Poller<'h> {
    shared: Arc<Shared>,
    conns: HashMap<u64, Conn>,
    handler: &'h mut dyn FnMut(NetEvent),
}

impl Poller<'_> {
    fn adopt(&mut self, id: u64, shared: Arc<ConnOut>) {
        self.conns.insert(id, Conn { shared, decoder: FrameDecoder::new() });
        self.shared.stats.connection_opened();
        (self.handler)(NetEvent::Accepted(id));
    }

    fn teardown(&mut self, id: u64) {
        let Some(c) = self.conns.remove(&id) else {
            return;
        };
        self.shared.conns.write().remove(&id);
        c.shared.out.lock().closed = true;
        // The socket goes down only after the stats/handler calls:
        // shutting it first lets the peer observe the hangup before this
        // side's accounting exists. Shutdown, not just drop — a sender
        // still holding the connection must not keep the peer attached.
        self.shared.stats.connection_closed();
        (self.handler)(NetEvent::Disconnected(id));
        let _ = c.shared.stream.shutdown(Shutdown::Both);
    }

    fn run(mut self, listener: Option<UnixListener>, wake_rx: UnixStream) {
        let stats = Arc::clone(&self.shared.stats);
        let mut pollfds: Vec<PollFd> = Vec::new();
        // pollfds[i] -> connection id, for the entries past waker/listener.
        let mut slot_ids: Vec<u64> = Vec::new();
        let mut wake_buf = [0u8; 64];
        let mut read_buf = vec![0u8; 64 * 1024];

        loop {
            let cmds: Vec<Cmd> = std::mem::take(&mut *self.shared.cmds.lock());
            // Outside this module's tests `Shutdown` is the only command.
            #[cfg_attr(not(test), allow(clippy::never_loop))]
            for cmd in cmds {
                match cmd {
                    #[cfg(test)]
                    Cmd::Register { id, conn } => self.adopt(id, conn),
                    #[cfg(test)]
                    Cmd::Close { id } => self.teardown(id),
                    Cmd::Shutdown => {
                        let ids: Vec<u64> = self.conns.keys().copied().collect();
                        for id in ids {
                            self.teardown(id);
                        }
                        return;
                    }
                }
            }

            // Rebuild the poll set: waker, listener, then every connection.
            pollfds.clear();
            slot_ids.clear();
            pollfds.push(PollFd { fd: wake_rx.as_raw_fd(), events: POLLIN, revents: 0 });
            if let Some(l) = &listener {
                pollfds.push(PollFd { fd: l.as_raw_fd(), events: POLLIN, revents: 0 });
            }
            let fixed = pollfds.len();
            for (&id, c) in self.conns.iter() {
                let mut events = POLLIN;
                if c.shared.stalled.load(Ordering::Acquire) {
                    events |= POLLOUT;
                }
                pollfds.push(PollFd { fd: c.shared.stream.as_raw_fd(), events, revents: 0 });
                slot_ids.push(id);
            }

            // SAFETY: `pollfds` is a live, exclusively borrowed Vec of
            // `#[repr(C)]` pollfd-layout structs and the count passed is
            // its length; every fd in it is owned by `self`, `listener`
            // or `wake_rx` and stays open across the call.
            let rc = unsafe { poll(pollfds.as_mut_ptr(), pollfds.len() as u64, 250) };
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                // poll(2) failing for any other reason is unrecoverable.
                return;
            }

            // Waker: drain whatever bytes accumulated.
            if pollfds[0].revents & (POLLIN | POLLERR | POLLHUP) != 0 {
                while let Ok(n) = (&wake_rx).read(&mut wake_buf) {
                    if n < wake_buf.len() {
                        break;
                    }
                }
            }

            let mut dead: Vec<u64> = Vec::new();
            for (i, &id) in slot_ids.iter().enumerate() {
                let revents = pollfds[fixed + i].revents;
                if revents == 0 {
                    continue;
                }
                let Some(c) = self.conns.get_mut(&id) else {
                    continue;
                };
                let mut alive = true;
                // Read side. poll(2) is level-triggered: a short read
                // means the socket is drained for now, and whatever
                // arrives later raises POLLIN again — no second read just
                // to collect a WouldBlock.
                if revents & (POLLIN | POLLHUP | POLLERR) != 0 {
                    'read: loop {
                        match (&c.shared.stream).read(&mut read_buf) {
                            Ok(0) => {
                                alive = false;
                                break 'read;
                            }
                            Ok(n) => {
                                stats.bytes_in.add(n as u64);
                                c.decoder.feed(&read_buf[..n]);
                                loop {
                                    match c.decoder.next_frame() {
                                        Ok(Some((request_id, msg))) => {
                                            stats.frames_in.inc();
                                            (self.handler)(NetEvent::Frame {
                                                conn: id,
                                                request_id,
                                                msg,
                                            });
                                        }
                                        Ok(None) => break,
                                        Err(_) => {
                                            stats.decode_errors.inc();
                                            alive = false;
                                            break 'read;
                                        }
                                    }
                                }
                                if n < read_buf.len() {
                                    break 'read;
                                }
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break 'read,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(_) => {
                                alive = false;
                                break 'read;
                            }
                        }
                    }
                }
                // Write side: drain the backlog senders left behind.
                if alive && revents & POLLOUT != 0 {
                    let mut out = c.shared.out.lock();
                    match write_some(&c.shared.stream, out.backlog.as_slices().0) {
                        Ok(n) => {
                            out.backlog.drain(..n);
                            if out.backlog.is_empty() {
                                // Not just empty but released: a stall
                                // can queue megabytes, and an idle
                                // connection should not keep them.
                                out.backlog = VecDeque::new();
                                c.shared.stalled.store(false, Ordering::Release);
                            }
                        }
                        Err(_) => alive = false,
                    }
                }
                if !alive {
                    dead.push(id);
                }
            }
            for id in dead {
                self.teardown(id);
            }

            // Accept loop: adopt every pending connection.
            if let Some(l) = listener.as_ref().filter(|_| pollfds[1].revents != 0) {
                loop {
                    match l.accept() {
                        Ok((stream, _addr)) => {
                            if let Ok((id, conn)) = self.shared.add_conn(stream) {
                                self.adopt(id, conn);
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => break,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn temp_sock(tag: &str) -> std::path::PathBuf {
        let p =
            std::env::temp_dir().join(format!("dl-net-test-{}-{}.sock", std::process::id(), tag));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn echo_round_trip_over_socket() {
        let path = temp_sock("echo");
        let listener = UnixListener::bind(&path).unwrap();
        let server_stats = Arc::new(NetStats::new());
        let _server = Reactor::spawn("echo-srv", Some(listener), Arc::clone(&server_stats), |h| {
            let h = h.clone();
            move |ev| {
                if let NetEvent::Frame { conn, request_id, msg } = ev {
                    h.send(conn, request_id, &msg);
                }
            }
        })
        .unwrap();

        let client_stats = Arc::new(NetStats::new());
        let (tx, rx) = mpsc::channel();
        let client = Reactor::spawn("echo-cli", None, Arc::clone(&client_stats), |_h| {
            move |ev| {
                if let NetEvent::Frame { request_id, msg, .. } = ev {
                    tx.send((request_id, msg)).unwrap();
                }
            }
        })
        .unwrap();

        let stream = UnixStream::connect(&path).unwrap();
        let conn = client.handle().register(stream).unwrap();
        let msg = Message::Commit { txid: 99, coord_epoch: 1 };
        client.handle().send(conn, 7, &msg);
        let (rid, echoed) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(rid, 7);
        assert_eq!(echoed, msg);
        assert!(server_stats.frames_in.get() >= 1);
        assert!(client_stats.frames_in.get() >= 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn close_emits_disconnect_on_both_ends() {
        let path = temp_sock("close");
        let listener = UnixListener::bind(&path).unwrap();
        let (srv_tx, srv_rx) = mpsc::channel();
        let server_stats = Arc::new(NetStats::new());
        let _server = Reactor::spawn("close-srv", Some(listener), server_stats, |_h| {
            move |ev| {
                if let NetEvent::Disconnected(id) = ev {
                    srv_tx.send(id).unwrap();
                }
            }
        })
        .unwrap();

        let client_stats = Arc::new(NetStats::new());
        let client =
            Reactor::spawn("close-cli", None, Arc::clone(&client_stats), |_h| move |_ev| {})
                .unwrap();
        let stream = UnixStream::connect(&path).unwrap();
        let conn = client.handle().register(stream).unwrap();
        // Give the server a beat to accept, then sever from the client.
        std::thread::sleep(Duration::from_millis(50));
        client.handle().close(conn);
        let dead = srv_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(dead >= 1);
        assert_eq!(client_stats.disconnects.get(), 1);
        let _ = std::fs::remove_file(&path);
    }

    /// Two reactors joined by one connection — `a` accepted it from its
    /// listener, `b` adopted the connecting end — each forwarding its
    /// events to a channel.
    struct Pair {
        a: Reactor,
        a_conn: u64,
        a_events: mpsc::Receiver<NetEvent>,
        a_stats: Arc<NetStats>,
        b: Reactor,
        b_conn: u64,
        b_events: mpsc::Receiver<NetEvent>,
        b_stats: Arc<NetStats>,
    }

    /// `b_gate`, when given, holds `b`'s poller inside its handler on the
    /// first frame until the gate fires: a reader that has stopped reading.
    fn pair(tag: &str, b_gate: Option<mpsc::Receiver<()>>) -> Pair {
        fn forwarding(
            name: &str,
            listener: Option<UnixListener>,
            mut gate: Option<mpsc::Receiver<()>>,
        ) -> (Reactor, mpsc::Receiver<NetEvent>, Arc<NetStats>) {
            let stats = Arc::new(NetStats::new());
            let (tx, rx) = mpsc::channel();
            let reactor = Reactor::spawn(name, listener, Arc::clone(&stats), |_h| {
                move |ev| {
                    if matches!(ev, NetEvent::Frame { .. }) {
                        if let Some(gate) = gate.take() {
                            let _ = gate.recv();
                        }
                    }
                    let _ = tx.send(ev);
                }
            })
            .unwrap();
            (reactor, rx, stats)
        }
        let path = temp_sock(tag);
        let listener = UnixListener::bind(&path).unwrap();
        let (a, a_events, a_stats) = forwarding(&format!("{tag}-a"), Some(listener), None);
        let (b, b_events, b_stats) = forwarding(&format!("{tag}-b"), None, b_gate);
        let b_conn = b.handle().register(UnixStream::connect(&path).unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        let accepted =
            |events: &mpsc::Receiver<NetEvent>| match events.recv_timeout(Duration::from_secs(5)) {
                Ok(NetEvent::Accepted(id)) => id,
                _ => panic!("expected Accepted first"),
            };
        let a_conn = accepted(&a_events);
        assert_eq!(accepted(&b_events), b_conn);
        Pair { a, a_conn, a_events, a_stats, b, b_conn, b_events, b_stats }
    }

    /// Skips frames; the id of the next `Disconnected`, if one arrives in time.
    fn next_disconnect(events: &mpsc::Receiver<NetEvent>, wait: Duration) -> Option<u64> {
        let deadline = std::time::Instant::now() + wait;
        loop {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            match events.recv_timeout(left) {
                Ok(NetEvent::Disconnected(id)) => return Some(id),
                Ok(_) => continue,
                Err(_) => return None,
            }
        }
    }

    #[test]
    fn frames_sent_to_a_closed_or_unknown_connection_are_not_counted() {
        let p = pair("closedsend", None);
        let h = p.a.handle();
        h.send(p.a_conn, 1, &Message::Ok);
        assert_eq!(p.a_stats.frames_out.get(), 1);
        let bytes = p.a_stats.bytes_out.get();

        h.close(p.a_conn);
        assert_eq!(next_disconnect(&p.a_events, Duration::from_secs(5)), Some(p.a_conn));
        h.send(p.a_conn, 2, &Message::Ok);
        h.send(9_999, 3, &Message::Ok);
        assert_eq!(p.a_stats.frames_out.get(), 1, "dropped frames must not count as sent");
        assert_eq!(p.a_stats.bytes_out.get(), bytes);
    }

    #[test]
    fn concurrent_senders_under_backpressure_keep_frames_whole_and_in_order() {
        const SENDERS: u64 = 8;
        const FRAMES: u64 = 2_000;
        let payload = |t: u64, i: u64| Message::Err(format!("{t}:{i}:{}", "x".repeat(256)));

        let (release, gate) = mpsc::channel();
        let p = pair("stall", Some(gate));
        let start = std::sync::Barrier::new(SENDERS as usize);
        thread::scope(|s| {
            for t in 0..SENDERS {
                let (h, start, conn) = (p.a.handle(), &start, p.a_conn);
                s.spawn(move || {
                    start.wait();
                    for i in 0..FRAMES {
                        h.send(conn, t << 32 | i, &payload(t, i));
                    }
                });
            }
            // The reader sits in its handler, so the ~4.5 MB the senders
            // push must overrun the kernel buffers: wait for a sender to
            // hit WouldBlock, then let the reader go.
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            while p.a_stats.backpressure_stalls.get() == 0 {
                assert!(std::time::Instant::now() < deadline, "senders never stalled");
                thread::sleep(Duration::from_millis(1));
            }
            release.send(()).unwrap();
        });

        let mut next = [0u64; SENDERS as usize];
        for _ in 0..SENDERS * FRAMES {
            match p.b_events.recv_timeout(Duration::from_secs(30)) {
                Ok(NetEvent::Frame { request_id, msg, .. }) => {
                    let (t, i) = (request_id >> 32, request_id & 0xFFFF_FFFF);
                    assert_eq!(i, next[t as usize], "sender {t}'s frames out of order");
                    next[t as usize] += 1;
                    assert_eq!(msg, payload(t, i), "frame {t}:{i} arrived torn");
                }
                Ok(_) => panic!("connection dropped mid-stream"),
                Err(e) => panic!("stream stopped short: {e}"),
            }
        }
        assert_eq!(next, [FRAMES; SENDERS as usize]);
        assert!(p.a_stats.backpressure_stalls.get() > 0);
        assert_eq!(p.a_stats.frames_out.get(), SENDERS * FRAMES);
        assert_eq!(p.b_stats.frames_in.get(), SENDERS * FRAMES);
        assert_eq!(p.b_stats.decode_errors.get(), 0);
    }

    #[test]
    fn sever_mid_burst_disconnects_each_side_exactly_once() {
        let p = pair("sever", None);
        let stop = AtomicBool::new(false);
        thread::scope(|s| {
            // Two senders each way, flat out, across the sever.
            for (reactor, conn) in [(&p.a, p.a_conn), (&p.b, p.b_conn)] {
                for t in 0..2u64 {
                    let (h, stop) = (reactor.handle(), &stop);
                    s.spawn(move || {
                        let mut i = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            h.send(conn, t << 32 | i, &Message::Err("y".repeat(128)));
                            i += 1;
                        }
                    });
                }
            }
            // Mid-burst for certain: frames are flowing both ways.
            for events in [&p.a_events, &p.b_events] {
                for _ in 0..100 {
                    assert!(matches!(
                        events.recv_timeout(Duration::from_secs(10)),
                        Ok(NetEvent::Frame { .. })
                    ));
                }
            }
            p.a.handle().close(p.a_conn);
            assert_eq!(next_disconnect(&p.a_events, Duration::from_secs(10)), Some(p.a_conn));
            assert_eq!(next_disconnect(&p.b_events, Duration::from_secs(10)), Some(p.b_conn));
            // Senders keep sending into the dead connection for a while:
            // nothing may panic (the scope join would rethrow) and nothing
            // may produce a second Disconnected.
            assert_eq!(next_disconnect(&p.a_events, Duration::from_millis(200)), None);
            assert_eq!(next_disconnect(&p.b_events, Duration::from_millis(200)), None);
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(p.a_stats.disconnects.get(), 1);
        assert_eq!(p.b_stats.disconnects.get(), 1);
        assert_eq!(p.a_stats.connections.get(), 0);
        assert_eq!(p.b_stats.connections.get(), 0);
    }
}
