//! A small poll(2)-driven reactor over nonblocking Unix-domain sockets,
//! served leader/followers.
//!
//! A pool of threads takes turns owning the *read* side of every socket.
//! The one that holds the poll set — the *leader* — polls for readiness,
//! drains every readable connection through its [`FrameDecoder`] and
//! accepts new connections from an optional listener. It keeps the first
//! event for itself, leaves the rest on a ready list and runs the handler
//! on its own thread: a frame is served on the thread that read it, with
//! no queue and no wake-up between them. `Accepted` runs while the poll
//! set is held, so it precedes every frame of its connection; frames and
//! `Disconnected` run on the thread that takes them, so the handler must
//! be `Fn + Sync` and may block.
//!
//! Who polls next depends on what is ready. With more events on the
//! ready list the leader *gives* the poll set to a follower before it
//! serves, so a burst spreads over threads; the next leader drains the
//! ready list before it polls again. With nothing else ready it only
//! *lends* the set: the set waits in the seat marked lent, nobody is
//! woken for it, and the serving thread takes it back and polls again
//! when its handler returns — a sequential client costs no thread
//! wake-up per frame. A lend ends early in two ways. A handler about to
//! park on a `parking_lot` condvar (a lock wait, a commit flush) fires a
//! one-shot park hook that frees the set and wakes a follower. A handler
//! that blocks any other way (a `std` primitive, a sleep, blocking I/O —
//! or any wait at all under a `parking_lot` without the hook) is caught
//! by the bound: a follower watching a set lent for `LEND_BOUND` (1 ms)
//! takes it over. That bound, not the hook, is what keeps the other
//! connections read; the hook only makes the hand-off prompt. A lend
//! wakes a follower to watch it only when none is watching already.
//!
//! The thread count follows the handlers. When the last free thread
//! starts serving it spawns a successor, so a leader is always there to
//! read; a follower that waits one poll timeout without getting the seat
//! retires while more than two threads are free. Handler panics are
//! contained: they cost the event, never the thread.
//!
//! The *write* side belongs to whoever sends: [`ReactorHandle::send`]
//! writes the encoded frame straight to the socket under the
//! connection's output lock. Only when the kernel buffer is full does the
//! unwritten remainder queue up, and only then is the leader woken to
//! watch `POLLOUT` and drain it. Frame order per connection is the order
//! in which senders took that lock.
//!
//! Built only on `std::os::unix::net` plus a hand-declared poll(2) FFI —
//! no tokio, no mio. A `UnixStream::pair` serves as the waker: any
//! thread with a handle writes one byte to nudge the leader out of its
//! wait.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::Shutdown;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dl_obs::NetStats;
use parking_lot::{Condvar, Mutex, RwLock};

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

/// The leader's poll timeout, and how long a follower waits for the seat
/// before it may retire.
const IDLE: Duration = Duration::from_millis(250);

/// How long a poll set may stay lent before a follower takes it over: the
/// bound on how long a handler that blocks without saying so (on a `std`
/// primitive, a sleep, blocking I/O) keeps the other connections unread.
const LEND_BOUND: Duration = Duration::from_millis(1);

/// Free threads an idle reactor keeps: the leader and one follower.
const FREE_FLOOR: usize = 2;

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

/// The half of a connection that senders and the leader share.
struct ConnOut {
    stream: UnixStream,
    out: Mutex<OutQueue>,
    /// Mirrors `!out.backlog.is_empty()` so the leader can pick its
    /// `POLLOUT` interest without taking every connection's lock. Written
    /// under `out`; a sender raises it *before* it wakes the leader.
    stalled: AtomicBool,
}

#[derive(Default)]
struct OutQueue {
    /// Bytes some sender could not write because the kernel buffer was
    /// full. While it is non-empty every later frame appends here (order),
    /// and only the leader drains it, on `POLLOUT`.
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

/// How many threads the reactor runs, and how many of them are free —
/// the leader plus the followers waiting for its seat.
#[derive(Default)]
struct Threads {
    alive: AtomicUsize,
    free: AtomicUsize,
    peak: AtomicUsize,
}

impl Threads {
    /// Counts a thread about to be spawned, as free.
    fn add(&self) {
        let alive = self.alive.fetch_add(1, Ordering::SeqCst) + 1;
        self.free.fetch_add(1, Ordering::SeqCst);
        self.peak.fetch_max(alive, Ordering::Relaxed);
    }

    /// A free thread leaves: the spawn failed, or the reactor stopped.
    fn remove_free(&self) {
        self.free.fetch_sub(1, Ordering::SeqCst);
        self.alive.fetch_sub(1, Ordering::SeqCst);
    }

    /// A follower that waited out [`IDLE`] leaves, if more than
    /// [`FREE_FLOOR`] threads are free.
    fn retire(&self) -> bool {
        let left = self.free.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |free| {
            (free > FREE_FLOOR).then(|| free - 1)
        });
        if left.is_ok() {
            self.alive.fetch_sub(1, Ordering::SeqCst);
        }
        left.is_ok()
    }

    /// The leader starts serving an event. True when it was the last free
    /// thread: nobody is left to take the seat.
    fn start_serving(&self) -> bool {
        self.free.fetch_sub(1, Ordering::SeqCst) == 1
    }

    fn done_serving(&self) {
        self.free.fetch_add(1, Ordering::SeqCst);
    }
}

type Handler = dyn Fn(NetEvent) + Send + Sync;

/// Where the poll set waits while no leader polls it.
#[derive(Default)]
struct Seat {
    set: Option<Box<PollSet>>,
    /// `set` is lent, since then, to the thread serving the frame it last
    /// read: that thread takes it back when its handler returns, unless a
    /// follower took it first. `None` while `set` is free or held; never
    /// `Some` without `set`.
    lent: Option<Instant>,
    /// Bumped by every lend, so the thread that lent the set can tell its
    /// own lend from a later one.
    lends: u64,
    /// Followers waiting out a lend on a short timer. A lend wakes one
    /// follower only when none is already watching.
    watchers: usize,
}

impl Seat {
    /// Ends lend number `lend`, if it is still running: the set stays in
    /// the seat, free.
    fn end_lend(&mut self, lend: u64) -> bool {
        let running = self.lent.is_some() && self.lends == lend;
        if running {
            self.lent = None;
        }
        running
    }
}

struct Shared {
    name: String,
    waker: UnixStream,
    next_conn: AtomicU64,
    /// Live connections by id, for senders; the leader inserts on
    /// accept and removes on teardown.
    conns: RwLock<HashMap<u64, Arc<ConnOut>>>,
    stats: Arc<NetStats>,
    /// The poll set, while no leader holds it.
    seat: Mutex<Seat>,
    /// Signalled when the poll set is put back free, when a lend finds no
    /// follower watching, and when the reactor stops.
    seat_free: Condvar,
    /// Set by [`ReactorHandle::shutdown`]; the next leader stops the
    /// reactor.
    shutdown: AtomicBool,
    threads: Threads,
}

impl Shared {
    /// Gives an accepted `stream` an id and makes it sendable-to.
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

    /// Waits up to [`IDLE`] to become the leader. `None` on timeout. A
    /// free set is taken at once; a lent one once it has been lent for
    /// [`LEND_BOUND`].
    fn take_seat(&self) -> Option<Box<PollSet>> {
        let deadline = Instant::now() + IDLE;
        let mut seat = self.seat.lock();
        loop {
            let now = Instant::now();
            match seat.lent {
                None if seat.set.is_some() => return seat.set.take(),
                Some(since) if now >= since + LEND_BOUND => {
                    self.stats.seat_handoffs_timeout.inc();
                    seat.lent = None;
                    return seat.set.take();
                }
                _ => {}
            }
            if now >= deadline {
                return None;
            }
            match seat.lent {
                Some(since) => {
                    seat.watchers += 1;
                    self.seat_free.wait_for(&mut seat, deadline.min(since + LEND_BOUND) - now);
                    seat.watchers -= 1;
                }
                None => {
                    self.seat_free.wait_for(&mut seat, deadline - now);
                }
            }
        }
    }

    /// Hands the poll set to the next leader: more events are ready than
    /// this thread is about to serve.
    fn give_seat(&self, set: Box<PollSet>) {
        self.stats.seat_handoffs_ready.inc();
        self.seat.lock().set = Some(set);
        self.seat_free.notify_one();
    }

    /// Lends the poll set while this thread serves the one event it read;
    /// returns the lend's number, for [`Shared::reclaim`] and
    /// [`Shared::unlend`]. Wakes a follower only if none is watching, so
    /// that one starts the [`LEND_BOUND`] clock.
    fn lend_seat(&self, set: Box<PollSet>) -> u64 {
        self.stats.seat_lends.inc();
        let mut seat = self.seat.lock();
        seat.set = Some(set);
        seat.lent = Some(Instant::now());
        seat.lends += 1;
        let (lend, watched) = (seat.lends, seat.watchers > 0);
        drop(seat);
        if !watched {
            self.seat_free.notify_one();
        }
        lend
    }

    /// Takes back the poll set of `lend`, unless it went to a follower.
    fn reclaim(&self, lend: u64) -> Option<Box<PollSet>> {
        let mut seat = self.seat.lock();
        if !seat.end_lend(lend) {
            return None;
        }
        self.stats.seat_reclaims.inc();
        seat.set.take()
    }

    /// The thread serving `lend` is about to park: the set becomes free
    /// for a follower.
    fn unlend(&self, lend: u64) {
        if self.seat.lock().end_lend(lend) {
            self.stats.seat_handoffs_park.inc();
            self.seat_free.notify_one();
        }
    }
}

/// A clonable handle for talking to the reactor from outside.
#[derive(Clone)]
pub struct ReactorHandle(Arc<Shared>);

impl ReactorHandle {
    fn wake(&self) {
        // A full pipe already guarantees a wakeup is pending.
        let _ = (&self.0.waker).write(&[1u8]);
    }

    /// Sends one frame on `conn`, writing it to the socket on the calling
    /// thread. Unknown or already-closed connections drop the frame
    /// silently (and uncounted) — the caller learns of the death through
    /// `Disconnected`. Never blocks: what the kernel buffer will not take
    /// queues behind the connection for the leader to drain.
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
        // A hard write error needs no handling here: the leader sees the
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

    /// Asks the reactor to stop; the next leader gives every live
    /// connection its final `Disconnected`, closes the listener and
    /// releases every thread. Returns at once.
    fn shutdown(&self) {
        self.0.shutdown.store(true, Ordering::SeqCst);
        self.wake();
    }

    /// OS threads the reactor runs now: its leader, the followers waiting
    /// for the seat, and the threads inside the handler.
    pub fn threads(&self) -> usize {
        self.0.threads.alive.load(Ordering::SeqCst)
    }

    /// The most threads the reactor ever ran at once.
    pub fn peak_threads(&self) -> usize {
        self.0.threads.peak.load(Ordering::Relaxed)
    }
}

/// The leader's own half of a connection.
struct Conn {
    shared: Arc<ConnOut>,
    decoder: FrameDecoder,
}

/// What the leader owns while it holds the seat.
struct PollSet {
    listener: Option<UnixListener>,
    wake_rx: UnixStream,
    conns: HashMap<u64, Conn>,
    /// Events read but not yet taken by a thread.
    ready: VecDeque<NetEvent>,
    /// The reactor has stopped: every thread that takes the seat leaves.
    stopped: bool,
    pollfds: Vec<PollFd>,
    /// pollfds[i] -> connection id, for the entries past waker/listener.
    slot_ids: Vec<u64>,
    read_buf: Vec<u8>,
}

/// The reactor. Its threads own themselves; callers keep only
/// [`ReactorHandle`]s.
pub struct Reactor {
    handle: ReactorHandle,
}

impl Reactor {
    /// Starts the reactor's first thread. `listener`, when present, feeds
    /// the accept loop. `make_handler` receives the handle first so the
    /// handler it builds can reply to frames.
    pub fn spawn<F>(
        name: &str,
        listener: Option<UnixListener>,
        stats: Arc<NetStats>,
        make_handler: impl FnOnce(&ReactorHandle) -> F,
    ) -> io::Result<Reactor>
    where
        F: Fn(NetEvent) + Send + Sync + 'static,
    {
        if let Some(l) = &listener {
            l.set_nonblocking(true)?;
        }
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let set = PollSet {
            listener,
            wake_rx,
            conns: HashMap::new(),
            ready: VecDeque::new(),
            stopped: false,
            pollfds: Vec::new(),
            slot_ids: Vec::new(),
            read_buf: vec![0u8; 64 * 1024],
        };
        let handle = ReactorHandle(Arc::new(Shared {
            name: format!("dl-net-{name}"),
            waker: wake_tx,
            next_conn: AtomicU64::new(1),
            conns: RwLock::new(HashMap::new()),
            stats,
            seat: Mutex::new(Seat { set: Some(Box::new(set)), ..Seat::default() }),
            seat_free: Condvar::new(),
            shutdown: AtomicBool::new(false),
            threads: Threads::default(),
        }));
        let handler: Arc<Handler> = Arc::new(make_handler(&handle));
        Worker { shared: Arc::clone(&handle.0), handler }.spawn()?;
        Ok(Reactor { handle })
    }

    pub fn handle(&self) -> ReactorHandle {
        self.handle.clone()
    }
}

impl Drop for Reactor {
    /// Stops the reactor and waits until its connections are torn down;
    /// threads still inside the handler finish their event and leave.
    fn drop(&mut self) {
        self.handle.shutdown();
        let shared = &self.handle.0;
        let mut seat = shared.seat.lock();
        while !seat.set.as_ref().is_some_and(|set| set.stopped) {
            shared.seat_free.wait(&mut seat);
        }
    }
}

/// Runs the handler on `event`. A panic in it has been reported by the
/// panic hook; it costs the event, never the thread.
fn deliver(handler: &Handler, event: NetEvent) {
    let _ = catch_unwind(AssertUnwindSafe(|| handler(event)));
}

/// One of the reactor's threads.
struct Worker {
    shared: Arc<Shared>,
    handler: Arc<Handler>,
}

impl Worker {
    /// Counts and starts a thread running [`Worker::run`].
    fn spawn(self) -> io::Result<()> {
        let shared = Arc::clone(&self.shared);
        shared.threads.add();
        let name = shared.name.clone();
        thread::Builder::new().name(name).spawn(move || self.run()).map(drop).inspect_err(|_| {
            shared.threads.remove_free();
        })
    }

    fn run(self) {
        let shared = &*self.shared;
        let mut reclaimed = None;
        loop {
            let Some(mut set) = reclaimed.take().or_else(|| shared.take_seat()) else {
                if shared.shutdown.load(Ordering::SeqCst) {
                    shared.threads.remove_free();
                    return;
                }
                if shared.threads.retire() {
                    return;
                }
                continue;
            };
            let event = set.next_event(shared, &*self.handler);
            let Some(event) = event else {
                // Stopped: put the seat back for the next thread to leave by.
                shared.seat.lock().set = Some(set);
                shared.seat_free.notify_all();
                shared.threads.remove_free();
                return;
            };
            let last = shared.threads.start_serving();
            // More events ready: a follower takes the seat and serves them
            // beside this thread. Otherwise the seat is only lent, and this
            // thread polls again when it is done, with no wake-up between —
            // unless it parks first, or blocks past the lend bound.
            let lend = if set.ready.is_empty() {
                Some(shared.lend_seat(set))
            } else {
                shared.give_seat(set);
                None
            };
            if last {
                // A spawn failure leaves the seat to whoever is free next.
                let _ =
                    Worker { shared: Arc::clone(&self.shared), handler: Arc::clone(&self.handler) }
                        .spawn();
            }
            if let Some(lend) = lend {
                let on_park = Arc::clone(&self.shared);
                parking_lot::with_park_hook(
                    move || on_park.unlend(lend),
                    || deliver(&*self.handler, event),
                );
            } else {
                deliver(&*self.handler, event);
            }
            shared.threads.done_serving();
            reclaimed = lend.and_then(|lend| shared.reclaim(lend));
        }
    }
}

impl PollSet {
    fn adopt(&mut self, shared: &Shared, handler: &Handler, id: u64, conn: Arc<ConnOut>) {
        self.conns.insert(id, Conn { shared: conn, decoder: FrameDecoder::new() });
        shared.stats.connection_opened();
        deliver(handler, NetEvent::Accepted(id));
    }

    /// Takes `id` out of the poll set and queues its `Disconnected`.
    fn teardown(&mut self, shared: &Shared, id: u64) {
        let Some(c) = self.conns.remove(&id) else {
            return;
        };
        shared.conns.write().remove(&id);
        c.shared.out.lock().closed = true;
        // The socket goes down only after the accounting: shutting it
        // first lets the peer observe the hangup before this side's
        // accounting exists. Shutdown, not just drop — a sender still
        // holding the connection must not keep the peer attached.
        shared.stats.connection_closed();
        self.ready.push_back(NetEvent::Disconnected(id));
        let _ = c.shared.stream.shutdown(Shutdown::Both);
    }

    /// The leader's turn: the next ready event, polling for more while
    /// there is none. `None` once the reactor has stopped.
    fn next_event(&mut self, shared: &Shared, handler: &Handler) -> Option<NetEvent> {
        loop {
            if self.stopped {
                return None;
            }
            if shared.shutdown.load(Ordering::SeqCst) {
                self.stop(shared, handler);
                return None;
            }
            if let Some(event) = self.ready.pop_front() {
                return Some(event);
            }
            if !self.poll_once(shared, handler) {
                // poll(2) failing for any reason but a signal is
                // unrecoverable.
                self.stop(shared, handler);
                return None;
            }
        }
    }

    /// Tears every connection down and delivers the `Disconnected`s still
    /// owed (frames not yet taken are dropped), then closes the listener.
    fn stop(&mut self, shared: &Shared, handler: &Handler) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.teardown(shared, id);
        }
        for event in std::mem::take(&mut self.ready) {
            if let NetEvent::Disconnected(_) = event {
                deliver(handler, event);
            }
        }
        self.listener = None;
        self.stopped = true;
    }

    /// One poll(2) round: reads every readable connection onto the ready
    /// list, drains write backlogs, accepts. False if poll(2) failed.
    fn poll_once(&mut self, shared: &Shared, handler: &Handler) -> bool {
        let stats = &shared.stats;
        // Rebuild the poll set: waker, listener, then every connection.
        self.pollfds.clear();
        self.slot_ids.clear();
        self.pollfds.push(PollFd { fd: self.wake_rx.as_raw_fd(), events: POLLIN, revents: 0 });
        if let Some(l) = &self.listener {
            self.pollfds.push(PollFd { fd: l.as_raw_fd(), events: POLLIN, revents: 0 });
        }
        let fixed = self.pollfds.len();
        for (&id, c) in self.conns.iter() {
            let mut events = POLLIN;
            if c.shared.stalled.load(Ordering::Acquire) {
                events |= POLLOUT;
            }
            self.pollfds.push(PollFd { fd: c.shared.stream.as_raw_fd(), events, revents: 0 });
            self.slot_ids.push(id);
        }

        // SAFETY: `pollfds` is a live, exclusively borrowed Vec of
        // `#[repr(C)]` pollfd-layout structs and the count passed is its
        // length; every fd in it is owned by `self` and stays open across
        // the call.
        let rc = unsafe {
            poll(self.pollfds.as_mut_ptr(), self.pollfds.len() as u64, IDLE.as_millis() as i32)
        };
        if rc < 0 {
            return io::Error::last_os_error().kind() == io::ErrorKind::Interrupted;
        }

        // Waker: drain whatever bytes accumulated.
        if self.pollfds[0].revents & (POLLIN | POLLERR | POLLHUP) != 0 {
            let mut wake_buf = [0u8; 64];
            while let Ok(n) = (&self.wake_rx).read(&mut wake_buf) {
                if n < wake_buf.len() {
                    break;
                }
            }
        }

        let mut dead: Vec<u64> = Vec::new();
        for (i, &id) in self.slot_ids.iter().enumerate() {
            let revents = self.pollfds[fixed + i].revents;
            if revents == 0 {
                continue;
            }
            let Some(c) = self.conns.get_mut(&id) else {
                continue;
            };
            let mut alive = true;
            // Read side. poll(2) is level-triggered: a short read means
            // the socket is drained for now, and whatever arrives later
            // raises POLLIN again — no second read just to collect a
            // WouldBlock.
            if revents & (POLLIN | POLLHUP | POLLERR) != 0 {
                'read: loop {
                    match (&c.shared.stream).read(&mut self.read_buf) {
                        Ok(0) => {
                            alive = false;
                            break 'read;
                        }
                        Ok(n) => {
                            stats.bytes_in.add(n as u64);
                            c.decoder.feed(&self.read_buf[..n]);
                            loop {
                                match c.decoder.next_frame() {
                                    Ok(Some((request_id, msg))) => {
                                        stats.frames_in.inc();
                                        self.ready.push_back(NetEvent::Frame {
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
                            if n < self.read_buf.len() {
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
                            // Not just empty but released: a stall can
                            // queue megabytes, and an idle connection
                            // should not keep them.
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
            self.teardown(shared, id);
        }

        // Accept loop: adopt every pending connection.
        let mut accepted = Vec::new();
        if let Some(l) = self.listener.as_ref().filter(|_| self.pollfds[1].revents != 0) {
            loop {
                match l.accept() {
                    Ok((stream, _addr)) => accepted.push(stream),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }
        for stream in accepted {
            if let Ok((id, conn)) = shared.add_conn(stream) {
                self.adopt(shared, handler, id, conn);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Barrier};

    fn temp_sock(tag: &str) -> std::path::PathBuf {
        let p =
            std::env::temp_dir().join(format!("dl-net-test-{}-{}.sock", std::process::id(), tag));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// A reactor with a listener, forwarding its events to a channel, and
    /// the path peers connect to.
    fn forwarding(tag: &str) -> (Forwarding, std::path::PathBuf) {
        let path = temp_sock(tag);
        let listener = UnixListener::bind(&path).unwrap();
        let stats = Arc::new(NetStats::new());
        let (tx, events) = mpsc::channel();
        let reactor = Reactor::spawn(tag, Some(listener), Arc::clone(&stats), |_h| {
            move |ev| {
                let _ = tx.send(ev);
            }
        })
        .unwrap();
        (Forwarding { reactor, events, stats }, path)
    }

    struct Forwarding {
        reactor: Reactor,
        events: mpsc::Receiver<NetEvent>,
        stats: Arc<NetStats>,
    }

    fn accepted(events: &mpsc::Receiver<NetEvent>) -> u64 {
        match events.recv_timeout(Duration::from_secs(5)) {
            Ok(NetEvent::Accepted(id)) => id,
            _ => panic!("expected Accepted first"),
        }
    }

    /// Skips frames; the id of the next `Disconnected`, if one arrives in time.
    fn next_disconnect(events: &mpsc::Receiver<NetEvent>, wait: Duration) -> Option<u64> {
        let deadline = Instant::now() + wait;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match events.recv_timeout(left) {
                Ok(NetEvent::Disconnected(id)) => return Some(id),
                Ok(_) => continue,
                Err(_) => return None,
            }
        }
    }

    #[test]
    fn echo_round_trip_over_socket() {
        let (reactor, path) = blocking_echo("echo", Arc::new(Barrier::new(1)));
        let mut client = UnixStream::connect(&path).unwrap();
        let msg = Message::Commit { txid: 99, coord_epoch: 1 };
        assert_eq!(call(&mut client, 7, &msg), msg);
        let _ = std::fs::remove_file(&path);
        drop(reactor);
    }

    #[test]
    fn a_peer_hangup_disconnects_exactly_once() {
        let (f, path) = forwarding("hangup");
        let peer = UnixStream::connect(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let conn = accepted(&f.events);
        drop(peer);
        assert_eq!(next_disconnect(&f.events, Duration::from_secs(5)), Some(conn));
        assert_eq!(next_disconnect(&f.events, Duration::from_millis(200)), None);
        assert_eq!((f.stats.disconnects.get(), f.stats.connections.get()), (1, 0));
    }

    #[test]
    fn frames_sent_to_a_closed_or_unknown_connection_are_not_counted() {
        let (f, path) = forwarding("closedsend");
        let peer = UnixStream::connect(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let conn = accepted(&f.events);
        let h = f.reactor.handle();
        h.send(conn, 1, &Message::Ok);
        assert_eq!(f.stats.frames_out.get(), 1);
        let bytes = f.stats.bytes_out.get();

        drop(peer);
        assert_eq!(next_disconnect(&f.events, Duration::from_secs(5)), Some(conn));
        h.send(conn, 2, &Message::Ok);
        h.send(9_999, 3, &Message::Ok);
        assert_eq!(f.stats.frames_out.get(), 1, "dropped frames must not count as sent");
        assert_eq!(f.stats.bytes_out.get(), bytes);
    }

    #[test]
    fn concurrent_senders_under_backpressure_keep_frames_whole_and_in_order() {
        const SENDERS: u64 = 8;
        const FRAMES: u64 = 2_000;
        let payload = |t: u64, i: u64| Message::Err(format!("{t}:{i}:{}", "x".repeat(256)));

        let (a, path) = forwarding("stall");
        // The far end is a plain socket nobody reads until the senders
        // stall: a reader that has stopped reading.
        let mut peer = UnixStream::connect(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let a_conn = accepted(&a.events);
        let start = Barrier::new(SENDERS as usize);
        thread::scope(|s| {
            for t in 0..SENDERS {
                let (h, start) = (a.reactor.handle(), &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..FRAMES {
                        h.send(a_conn, t << 32 | i, &payload(t, i));
                    }
                });
            }
            // The ~4.5 MB the senders push must overrun the kernel
            // buffers: wait for a sender to hit WouldBlock, then read.
            wait_until("a sender to stall", || a.stats.backpressure_stalls.get() > 0);
            let mut next = [0u64; SENDERS as usize];
            let (mut decoder, mut buf) = (FrameDecoder::new(), vec![0u8; 64 * 1024]);
            let mut frames = 0;
            peer.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            while frames < SENDERS * FRAMES {
                let n = peer.read(&mut buf).expect("stream stopped short");
                assert!(n > 0, "connection dropped mid-stream");
                decoder.feed(&buf[..n]);
                while let Some((request_id, msg)) = decoder.next_frame().expect("a torn frame") {
                    let (t, i) = (request_id >> 32, request_id & 0xFFFF_FFFF);
                    assert_eq!(i, next[t as usize], "sender {t}'s frames out of order");
                    next[t as usize] += 1;
                    assert_eq!(msg, payload(t, i), "frame {t}:{i} arrived torn");
                    frames += 1;
                }
            }
            assert_eq!(next, [FRAMES; SENDERS as usize]);
        });
        assert!(a.stats.backpressure_stalls.get() > 0);
        assert_eq!(a.stats.frames_out.get(), SENDERS * FRAMES);
    }

    #[test]
    fn sever_mid_burst_disconnects_exactly_once() {
        let (f, path) = forwarding("sever");
        let peer = UnixStream::connect(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let conn = accepted(&f.events);
        let stop = AtomicBool::new(false);
        thread::scope(|s| {
            // Two senders each way, flat out, across the sever.
            let stop = &stop;
            for t in 0..2u64 {
                let h = f.reactor.handle();
                s.spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        h.send(conn, t << 32 | i, &Message::Err("y".repeat(128)));
                        i += 1;
                    }
                });
                let mut out = peer.try_clone().unwrap();
                s.spawn(move || {
                    let frame = encode_frame(t, &Message::Err("z".repeat(128)));
                    while !stop.load(Ordering::Relaxed) && out.write_all(&frame).is_ok() {}
                });
            }
            // Mid-burst for certain: frames are flowing in.
            for _ in 0..100 {
                assert!(matches!(
                    f.events.recv_timeout(Duration::from_secs(10)),
                    Ok(NetEvent::Frame { .. })
                ));
            }
            peer.shutdown(Shutdown::Both).unwrap();
            assert_eq!(next_disconnect(&f.events, Duration::from_secs(10)), Some(conn));
            // Senders keep sending into the dead connection for a while:
            // nothing may panic (the scope join would rethrow) and nothing
            // may produce a second Disconnected.
            assert_eq!(next_disconnect(&f.events, Duration::from_millis(200)), None);
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(f.stats.disconnects.get(), 1);
        assert_eq!(f.stats.connections.get(), 0);
    }

    /// Serves an echo; a frame whose payload is `"block"` waits inside the
    /// handler until `release` fires, one whose payload is `"panic"`
    /// panics.
    fn blocking_echo(tag: &str, release: Arc<Barrier>) -> (Reactor, std::path::PathBuf) {
        blocking_echo_with(tag, release, Arc::new(NetStats::new()))
    }

    fn blocking_echo_with(
        tag: &str,
        release: Arc<Barrier>,
        stats: Arc<NetStats>,
    ) -> (Reactor, std::path::PathBuf) {
        let path = temp_sock(tag);
        let listener = UnixListener::bind(&path).unwrap();
        let reactor = Reactor::spawn(tag, Some(listener), stats, |h| {
            let h = h.clone();
            move |ev| {
                if let NetEvent::Frame { conn, request_id, msg } = ev {
                    match &msg {
                        Message::Err(s) if s == "block" => {
                            release.wait();
                        }
                        Message::Err(s) if s == "panic" => panic!("injected handler fault"),
                        _ => {}
                    }
                    h.send(conn, request_id, &msg);
                }
            }
        })
        .unwrap();
        (reactor, path)
    }

    fn call(stream: &mut UnixStream, rid: u64, msg: &Message) -> Message {
        stream.write_all(&encode_frame(rid, msg)).unwrap();
        reply(stream, rid)
    }

    fn reply(stream: &mut UnixStream, rid: u64) -> Message {
        let (mut decoder, mut buf) = (FrameDecoder::new(), [0u8; 4096]);
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        loop {
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "the reactor hung up");
            decoder.feed(&buf[..n]);
            if let Some((got, reply)) = decoder.next_frame().unwrap() {
                assert_eq!(got, rid);
                return reply;
            }
        }
    }

    /// Leader/followers: a handler that blocks holds its own thread only.
    /// Eight frames block together — which needs eight threads inside the
    /// handler at once — the reactor keeps reading and serving meanwhile,
    /// and once idle it sheds back to its floor.
    #[test]
    fn blocked_handlers_recruit_threads_and_idle_ones_retire_to_the_floor() {
        const BLOCKERS: usize = 8;
        let release = Arc::new(Barrier::new(BLOCKERS + 1));
        let (reactor, path) = blocking_echo("grow", Arc::clone(&release));
        let h = reactor.handle();
        assert_eq!(h.threads(), 1, "one thread until a frame is served");
        let mut blockers: Vec<UnixStream> =
            (0..BLOCKERS).map(|_| UnixStream::connect(&path).unwrap()).collect();
        for (rid, s) in blockers.iter_mut().enumerate() {
            s.write_all(&encode_frame(rid as u64, &Message::Err("block".into()))).unwrap();
        }
        wait_until("every blocker inside the handler", || h.threads() > BLOCKERS);
        // Still served while eight threads block.
        let mut other = UnixStream::connect(&path).unwrap();
        assert_eq!(call(&mut other, 99, &Message::Ok), Message::Ok);
        release.wait();
        for (rid, s) in blockers.iter_mut().enumerate() {
            assert_eq!(reply(s, rid as u64), Message::Err("block".into()));
        }
        let peak = h.peak_threads();
        assert!(peak > BLOCKERS, "peaked at {peak}");
        assert!(peak <= BLOCKERS + FREE_FLOOR, "one successor per busy thread at most: {peak}");
        wait_until("idle threads to retire", || h.threads() == FREE_FLOOR);
        assert_eq!(call(&mut other, 100, &Message::Ok), Message::Ok);
        let _ = std::fs::remove_file(&path);
    }

    /// Every lend ends exactly once: reclaimed, or handed on at a park or
    /// after the bound. Waits for the lend of the last reply to end.
    fn lends_settle(stats: &NetStats) {
        wait_until("the last lend to end", || {
            stats.seat_lends.get()
                == stats.seat_reclaims.get()
                    + stats.seat_handoffs_park.get()
                    + stats.seat_handoffs_timeout.get()
        });
    }

    /// A sequential client has one frame in flight, so each poll reads one
    /// event: it is served on a lent poll set, and the thread that served
    /// it takes the set back and polls again — no follower wakes per frame.
    #[test]
    fn sequential_calls_are_served_on_reclaimed_lends() {
        const CALLS: u64 = 200;
        let stats = Arc::new(NetStats::new());
        let (reactor, path) =
            blocking_echo_with("lend", Arc::new(Barrier::new(1)), Arc::clone(&stats));
        let mut s = UnixStream::connect(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        for rid in 0..CALLS {
            assert_eq!(call(&mut s, rid, &Message::Ok), Message::Ok);
        }
        lends_settle(&stats);
        assert_eq!(stats.seat_lends.get(), CALLS, "one lend per frame");
        assert_eq!(stats.seat_handoffs_ready.get(), 0, "never two events ready at once");
        // A lend is lost to a follower only if the serving thread is
        // descheduled for the whole bound; half is far below what even a
        // loaded machine leaves.
        let reclaims = stats.seat_reclaims.get();
        assert!(reclaims >= CALLS / 2, "only {reclaims} of {CALLS} lends reclaimed");
        drop(reactor);
    }

    /// A handler that parks on a condvar until a frame on another
    /// connection arrives (a lock wait that a later request ends) hands
    /// its lent poll set on as it parks, so the releasing frame is read
    /// without waiting out the lend bound.
    #[test]
    fn a_handler_parking_on_a_condvar_hands_its_lend_on() {
        const ROUNDS: usize = 3;
        let path = temp_sock("park");
        let listener = UnixListener::bind(&path).unwrap();
        let stats = Arc::new(NetStats::new());
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let reactor = Reactor::spawn("park", Some(listener), Arc::clone(&stats), |h| {
            let (h, gate) = (h.clone(), Arc::clone(&gate));
            move |ev| {
                let NetEvent::Frame { conn, request_id, msg } = ev else { return };
                let mut open = gate.0.lock();
                match &msg {
                    Message::Err(s) if s == "wait" => {
                        while !*open {
                            gate.1.wait(&mut open);
                        }
                        *open = false;
                    }
                    _ => {
                        *open = true;
                        gate.1.notify_all();
                    }
                }
                drop(open);
                h.send(conn, request_id, &msg);
            }
        })
        .unwrap();
        let mut waiter = UnixStream::connect(&path).unwrap();
        let mut releaser = UnixStream::connect(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        for round in 0..ROUNDS as u64 {
            let lends = stats.seat_lends.get();
            waiter.write_all(&encode_frame(round, &Message::Err("wait".into()))).unwrap();
            wait_until("the waiting frame's lend", || stats.seat_lends.get() > lends);
            assert_eq!(call(&mut releaser, round, &Message::Ok), Message::Ok);
            assert_eq!(reply(&mut waiter, round), Message::Err("wait".into()));
        }
        lends_settle(&stats);
        // Each waiting frame's lend goes on at its park, unless the
        // machine stalls that thread past the bound before it parks; the
        // timeout alone (no hook) would leave this at 0.
        assert!(stats.seat_handoffs_park.get() >= 1, "no lend went on at a park");
        drop(reactor);
    }

    /// A handler that blocks on something that is not the shim's condvar
    /// fires no park hook: a follower takes the lent set over after the
    /// bound, and the other connections are served meanwhile.
    #[test]
    fn a_lend_blocked_outside_a_condvar_is_taken_over_after_the_bound() {
        let stats = Arc::new(NetStats::new());
        let release = Arc::new(Barrier::new(2));
        let (reactor, path) =
            blocking_echo_with("takeover", Arc::clone(&release), Arc::clone(&stats));
        let mut blocked = UnixStream::connect(&path).unwrap();
        let mut other = UnixStream::connect(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        blocked.write_all(&encode_frame(1, &Message::Err("block".into()))).unwrap();
        wait_until("the blocking frame's lend", || stats.seat_lends.get() == 1);
        assert_eq!(call(&mut other, 2, &Message::Ok), Message::Ok);
        assert!(stats.seat_handoffs_timeout.get() >= 1, "served while the lend was held");
        assert_eq!(stats.seat_handoffs_park.get(), 0, "a std barrier fires no park hook");
        release.wait();
        assert_eq!(reply(&mut blocked, 1), Message::Err("block".into()));
        lends_settle(&stats);
        drop(reactor);
    }

    #[test]
    fn a_panicking_handler_costs_the_event_not_the_thread() {
        let (reactor, path) = blocking_echo("panic", Arc::new(Barrier::new(1)));
        let mut s = UnixStream::connect(&path).unwrap();
        assert_eq!(call(&mut s, 1, &Message::Ok), Message::Ok);
        s.write_all(&encode_frame(2, &Message::Err("panic".into()))).unwrap();
        assert_eq!(call(&mut s, 3, &Message::Ok), Message::Ok);
        let h = reactor.handle();
        assert!(h.threads() >= 1 && h.threads() <= h.peak_threads());
        assert_eq!(call(&mut s, 4, &Message::Ok), Message::Ok);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn drop_disconnects_every_connection_and_closes_the_listener() {
        let (f, path) = forwarding("drop");
        let _peer = UnixStream::connect(&path).unwrap();
        let conn = accepted(&f.events);
        let Forwarding { reactor, events, stats } = f;
        drop(reactor);
        assert_eq!(next_disconnect(&events, Duration::from_secs(5)), Some(conn));
        assert_eq!(stats.connections.get(), 0);
        assert!(UnixStream::connect(&path).is_err(), "the listener is closed");
        let _ = std::fs::remove_file(&path);
    }
}
