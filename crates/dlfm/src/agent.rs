//! The main daemon and the lanes behind it (§2.2).
//!
//! "When a connect request from a database agent is received, the main
//! daemon spawns a child agent which then establishes a connection with the
//! requesting database agent. All subsequent requests (link/unlink
//! operations) from the same connection are served by this child agent";
//! "the upcall daemon ... services requests from DLFS to check the control
//! mode and verify access permissions of linked files."
//!
//! The paper's shape — one thread per connection, one upcall daemon —
//! collapses under many connections and serializes every repository commit.
//! Here the daemons are **lanes**: two [`HeadGate`]s a request is served
//! under as [`crate::server::lane`] names — the shared *agent executor*
//! (link/unlink, `DlfmConfig::agent_executor_threads` wide) and the
//! *upcall lane* (`DlfmConfig::upcall_workers_max` wide). A connection is
//! a [`DlfmClient`], not a thread: 256 of them ride on a handful of heads.
//!
//! [`MainDaemon`] owns the lanes and mints in-process connections, whose
//! callers serve their own requests as guests of the lane
//! ([`HeadGate::serve_here`]): an in-process call is a function call
//! under the lane's head bound, not a thread hop. The wire daemon
//! (`crate::wire`) serves a decoded frame on the thread that read it, under
//! the *same* gates ([`HeadGate::serve_or_park`]), so the bounds mean one
//! thing under both carriers. The IPC cost the paper's design keeps off
//! the read path (§3.2, §4.2) is `Transport::Socket`'s to show
//! (`net.<node>.round_trip_ns`); the in-process upcall columns of benches
//! E2/E4/A2/A3 show the protocol's own work.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dl_net::Message;
use dl_obs::Histogram;

use crate::client::{Carrier, DlfmClient};
use crate::pool::{HeadGate, PoolStats};
use crate::server::{lane, DlfmServer, Lane};

/// Test instrumentation: runs before every request a lane serves, on
/// whichever thread serves it — the reactor thread that read a socket
/// frame, the caller itself in-process; a panicking hook simulates that
/// head dying mid-request (the panic-containment regression tests and the
/// lab's kill-a-worker injection arm this).
pub type FaultInjector = Arc<dyn Fn(&Message) + Send + Sync>;

/// What a lane serves requests with.
pub(crate) struct Service {
    pub(crate) server: Arc<DlfmServer>,
    fault: Option<FaultInjector>,
}

impl Service {
    /// One request's service on a lane: serves `msg` and hands the reply
    /// to `deliver`. A panic in the fault hook or the server call is
    /// contained: the caller gets it in-band, labelled, *before* it is
    /// re-thrown for the gate to count — a poisoned request costs one
    /// reply, never the serving thread, and a healthy lane is never
    /// reported down.
    pub(crate) fn serve(&self, msg: Message, deliver: impl FnOnce(Message)) {
        crate::pool::deliver_or_rethrow(
            msg.name(),
            || {
                if let Some(fault) = &self.fault {
                    fault(&msg);
                }
                self.server.handle(msg)
            },
            |outcome| {
                deliver(
                    outcome.unwrap_or_else(|panic| Message::Err(format!("DLFM worker {panic}"))),
                )
            },
        );
    }
}

/// The node's lanes. Shared by the in-process carrier and the wire daemon.
pub(crate) struct Lanes {
    pub(crate) service: Service,
    pub(crate) agent: Arc<HeadGate>,
    pub(crate) upcall: Arc<HeadGate>,
    /// Admission wait + service of every in-process upcall: what a DLFS
    /// caller waits per upcall the paper's zero-upcall read path avoids.
    upcall_round_trip_ns: Arc<Histogram>,
}

/// The in-process carrier: the same messages the wire carries, served on
/// the same lanes without encoding — and without a thread hand-off: the
/// caller is a guest of the lane and runs its own request.
struct LocalCarrier(Arc<Lanes>);

impl Carrier for LocalCarrier {
    fn call(&self, msg: Message) -> Result<Message, String> {
        let lanes = &self.0;
        let (gate, upcall) = match lane(&msg) {
            // Settlement runs here, on the coordinator's own thread (see
            // `Lane::Settle`) — like the close path, which commits on the
            // host's committing thread.
            Lane::Inline | Lane::Settle => return Ok(lanes.service.server.handle(msg)),
            Lane::Agent => (&lanes.agent, false),
            Lane::Upcall => (&lanes.upcall, true),
        };
        let started = upcall.then(Instant::now);
        let mut reply = None;
        gate.serve_here(|| lanes.service.serve(msg, |served| reply = Some(served)));
        if let Some(started) = started {
            lanes.upcall_round_trip_ns.record_duration(started.elapsed());
        }
        Ok(reply.expect("`serve` replies before it returns or unwinds"))
    }

    fn wait_epoch_change(&self, seen: u64) {
        self.0.service.server.wait_epoch_change(seen)
    }
}

/// The main daemon: owns the node's lanes and accepts connections. A
/// connect is a client handle, never a thread.
pub struct MainDaemon {
    lanes: Arc<Lanes>,
    connections: AtomicUsize,
}

impl MainDaemon {
    /// Starts the lanes over `server` (bounds from its [`crate::DlfmConfig`]).
    pub fn new(server: Arc<DlfmServer>) -> MainDaemon {
        Self::with_fault_injector(server, None)
    }

    /// [`MainDaemon::new`] with a test-only [`FaultInjector`].
    pub fn with_fault_injector(
        server: Arc<DlfmServer>,
        fault: Option<FaultInjector>,
    ) -> MainDaemon {
        let service = Service { server, fault };
        let cfg = service.server.config();
        let agent = Arc::new(HeadGate::new(cfg.agent_executor_threads));
        let upcall = Arc::new(HeadGate::new(cfg.upcall_workers_max));
        let lanes =
            Lanes { service, agent, upcall, upcall_round_trip_ns: Arc::new(Histogram::new()) };
        MainDaemon { lanes: Arc::new(lanes), connections: AtomicUsize::new(0) }
    }

    /// Handles a connect request: a fresh in-process connection, stamped
    /// with the coordinator epoch current right now. Connections keep the
    /// lanes alive after the daemon handle is dropped (a crashing node
    /// abandons its daemons; a live mount does not lose its endpoint).
    pub fn connect(&self) -> DlfmClient {
        self.connections.fetch_add(1, Ordering::Relaxed);
        DlfmClient::connect(Arc::new(LocalCarrier(Arc::clone(&self.lanes))), "local")
            .expect("an in-process Hello is served inline and cannot fail")
    }

    pub(crate) fn lanes(&self) -> &Arc<Lanes> {
        &self.lanes
    }

    /// Number of in-process connections accepted so far (logical child
    /// agents).
    pub fn child_count(&self) -> usize {
        self.connections.load(Ordering::Relaxed)
    }

    /// Heads serving link/unlink requests right now.
    pub fn executor_threads(&self) -> usize {
        self.lanes.agent.stats().workers()
    }

    /// Agent-executor gauges. Always `Some` (the `Option` dates from a
    /// mode without a shared executor; the repo benchmark pins the
    /// signature).
    pub fn executor_stats(&self) -> Option<&PoolStats> {
        Some(self.lanes.agent.stats())
    }

    /// Upcall-lane gauges (heads serving, parked frames, task and panic
    /// counters).
    pub fn upcall_pool_stats(&self) -> &PoolStats {
        self.lanes.upcall.stats()
    }

    /// Both lanes' gates, for aggregation across nodes.
    pub fn gates(&self) -> Vec<Arc<HeadGate>> {
        vec![Arc::clone(&self.lanes.upcall), Arc::clone(&self.lanes.agent)]
    }

    /// Latency distribution of every in-process upcall (admission wait +
    /// service).
    pub fn upcall_round_trip_histogram(&self) -> &Arc<Histogram> {
        &self.lanes.upcall_round_trip_ns
    }

    /// Blocks until no head serves the upcall lane and nothing is parked
    /// on it (tests).
    pub fn wait_upcalls_idle(&self, timeout: Duration) -> bool {
        self.lanes.upcall.wait_idle(timeout)
    }
}
