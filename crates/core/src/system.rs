//! The assembled DataLinks system (Figure 1 of the paper): one host
//! database with the DataLinks engine, plus any number of file servers,
//! each one DLFS mount over its physical file system and one DLFM node per
//! shard (one unsharded).
//!
//! "Enterprises can manage files on multiple distinct file servers within a
//! DataLinks database, allowing robust centralized control over distributed
//! resources" (§1) — [`SystemBuilder`] wires N nodes to one host database.
//!
//! The facade also owns the whole-system failure model: [`DataLinksSystem::crash`]
//! tears everything down keeping only what would survive a power cut (disks:
//! storage environments, physical file systems, archive stores), and
//! [`DataLinksSystem::recover`] rebuilds and runs the coordinated recovery
//! protocol (§4.2, §4.4).
//!
//! With [`FileServerSpec::replicas`] a node additionally runs hot standbys:
//! a `dl_repl::ReplicaSet`'s shipper tails the primary repository's WAL and
//! keeps N standby repositories continuously applied; the standbys read the
//! node's one archive store. The engine routes read-token validation and
//! replica-served reads across them round-robin;
//! [`DataLinksSystem::fail_over`] promotes a standby after a primary crash,
//! fencing the old primary's shipper by epoch and its archive writes by the
//! promoted server's store generation.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use dl_dlfm::{
    ArchiveStore, DlfmClient, DlfmConfig, DlfmServer, FaultInjector, HeadGate, HostView,
    MainDaemon, RecoveryReport, Repository, TokenKind, Transport, WireConn, WireConnector,
    WireDaemon, WIRE_CALL_TIMEOUT,
};
use dl_dlfs::Dlfs;
use dl_fskit::memfs::IoModel;
use dl_fskit::{Clock, FileSystem, Lfs, MemFs, WallClock};
use dl_minidb::{Database, DbOptions, Lsn, Schema, StorageEnv, Txn, Value};
use dl_obs::{NetStats, Registry};
use dl_repl::{Follower, ReplicaSet, ReplicaSetOptions, Standby};
use parking_lot::Mutex;

use crate::datalink::{DatalinkUrl, DlColumnOptions};
use crate::engine::{DataLinksEngine, ServerRegistration};
use crate::shard::ShardRouter;

/// The wire front of a `Transport::Socket` node: the server-side
/// [`WireDaemon`] listening on its Unix socket, plus the node-local
/// [`WireConnector`] the engine's and DLFS's connections were opened
/// through (extra client connections — scenario drivers, tests — ride the
/// same connector).
pub struct WireLink {
    pub daemon: WireDaemon,
    pub connector: Arc<WireConnector>,
}

impl WireLink {
    /// Opens a fresh framed connection to this node's wire daemon.
    pub fn connect(&self, client: &str) -> Result<Arc<WireConn>, String> {
        self.connector.connect(self.daemon.socket_path(), client)
    }

    /// A fresh connection with the `Hello` handshake done: the typed
    /// client the engine and DLFS use.
    pub fn connect_client(&self, client: &str) -> Result<DlfmClient, String> {
        DlfmClient::connect(self.connect(client)?, client)
    }
}

/// Everything one file-server node runs (Figure 1, right-hand side).
pub struct FileServerNode {
    /// What the node was built from and what outlives it: crash and
    /// failover hand these on to the node's successor.
    parts: NodeParts,
    /// The DLFM daemon complex.
    pub server: Arc<DlfmServer>,
    /// Root access to the raw physical file system (fixtures, admin).
    pub raw: Arc<Lfs>,
    /// Hot standbys of the DLFM repository, when provisioned.
    pub replication: Option<Arc<ReplicaSet>>,
    /// The wire transport, when the node runs `Transport::Socket`: every
    /// engine/DLFS round-trip of this node crosses real framed sockets.
    pub wire: Option<WireLink>,
    main: MainDaemon,
}

impl FileServerNode {
    /// A fresh in-process connection (per-database-connection in the
    /// paper).
    pub fn connect_agent(&self) -> DlfmClient {
        self.main.connect()
    }

    /// The node's wire front, when it runs `Transport::Socket`.
    pub fn wire(&self) -> Option<&WireLink> {
        self.wire.as_ref()
    }

    /// Live gauges of the node's upcall lane (heads serving, parked
    /// frames, task and panic counters).
    pub fn upcall_pool_stats(&self) -> &dl_dlfm::PoolStats {
        self.main.upcall_pool_stats()
    }

    /// The main daemon: the node's lanes (connection counts, pool
    /// gauges).
    pub fn main_daemon(&self) -> &MainDaemon {
        &self.main
    }
}

/// One file server as applications mount it: one DLFS over its physical
/// file system, with one upcall client per shard node. It outlives the
/// nodes' failovers, which swap the promoted node's client into its slot.
struct Mount {
    dlfs: Arc<Dlfs>,
    /// Application-facing logical file system, mounted over DLFS.
    lfs: Arc<Lfs>,
}

impl Mount {
    fn new(fs: Arc<MemFs>, upcalls: Vec<DlfmClient>) -> Mount {
        let dlfs = Arc::new(Dlfs::new(fs as Arc<dyn FileSystem>, upcalls));
        Mount { lfs: Arc::new(Lfs::new(dlfs.clone() as Arc<dyn FileSystem>)), dlfs }
    }
}

/// Specification of one file server for the builder.
pub struct FileServerSpec {
    pub name: String,
    pub dlfm: DlfmConfig,
    /// Simulated I/O cost model for the node's physical file system
    /// (zero-cost by default; benches use a disk-like model to reproduce
    /// the paper's CPU+I/O measurements).
    pub io: IoModel,
    /// Storage environment of the DLFM repository. Defaults to a plain
    /// in-memory environment; benches pass one with a sync latency so the
    /// repository's commit pipeline is measurable (`dlfm.db` carries the
    /// group-commit options themselves).
    pub repo_env: StorageEnv,
    /// Number of hot-standby repositories fed by WAL shipping from this
    /// node's repository. Zero (the default) runs the node unreplicated —
    /// the paper's single-point-of-failure shape.
    pub replicas: usize,
    /// Fault-injection hook for the node's lanes: called with every
    /// request a lane serves, before it is dispatched, on the thread
    /// serving it (the reactor thread that read the frame over the wire,
    /// the caller itself in-process). A panic inside the hook exercises
    /// the lane's containment path (the caller sees a rejection, not a wedged
    /// daemon). `None` (the default) runs the daemons unhooked; the
    /// mixed driver arms this for kill-an-upcall-worker injections.
    pub upcall_fault: Option<FaultInjector>,
    /// Number of shard nodes this *logical* server's namespace is
    /// partitioned across. 1 (the default) builds the classic single
    /// node. With `n > 1`, the builder expands the spec into `n` full
    /// DLFM nodes named `<name>.s0 .. <name>.s{n-1}` over one shared
    /// physical file system; a [`ShardRouter`] hashes each file path to
    /// its owning shard and the engine fans 2PC out across exactly the
    /// shards a transaction touches. Either way the server has one mount:
    /// one DLFS that sends each upcall to its path's shard. Each shard
    /// keeps its own repository, archive store and (with
    /// [`FileServerSpec::replicas`]) its own standbys.
    pub shards: usize,
}

impl FileServerSpec {
    pub fn new(name: &str) -> FileServerSpec {
        FileServerSpec {
            name: name.to_string(),
            dlfm: DlfmConfig::new(name),
            io: IoModel::default(),
            repo_env: StorageEnv::mem(),
            replicas: 0,
            upcall_fault: None,
            shards: 1,
        }
    }

    /// Provisions `n` hot standbys for this file server.
    pub fn replicas(mut self, n: usize) -> FileServerSpec {
        self.replicas = n;
        self
    }

    /// Partitions this server's namespace across `n` shard nodes (see
    /// [`FileServerSpec::shards`]).
    pub fn shards(mut self, n: usize) -> FileServerSpec {
        self.shards = n.max(1);
        self
    }

    /// Installs a fault-injection hook on the node's lanes (see
    /// [`FileServerSpec::upcall_fault`]). The hook survives crash
    /// recovery and failover — the rebuilt node keeps the same injector.
    pub fn upcall_fault_injector(mut self, fault: FaultInjector) -> FileServerSpec {
        self.upcall_fault = Some(fault);
        self
    }

    /// Selects the carrier under the node's agent/upcall clients:
    /// in-process (the default) or real framed Unix-domain sockets served
    /// by a [`WireDaemon`].
    pub fn transport(mut self, transport: Transport) -> FileServerSpec {
        self.dlfm.transport = transport;
        self
    }
}

/// Builder for [`DataLinksSystem`].
pub struct SystemBuilder {
    host_env: StorageEnv,
    host_db: DbOptions,
    host_replicas: usize,
    clock: Arc<dyn Clock>,
    servers: Vec<FileServerSpec>,
    flight_dump_dir: Option<PathBuf>,
}

impl SystemBuilder {
    pub fn new() -> SystemBuilder {
        SystemBuilder {
            host_env: StorageEnv::mem(),
            host_db: DbOptions::default(),
            host_replicas: 0,
            clock: Arc::new(WallClock),
            servers: Vec::new(),
            flight_dump_dir: None,
        }
    }

    /// Also writes every flight-recorder dump (crash, failover, host
    /// failover) to a file in `dir`; survives crash/recover cycles. Without
    /// it dumps are kept in memory only ([`DataLinksSystem::last_flight_dump`]).
    pub fn flight_dump_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.flight_dump_dir = Some(dir.into());
        self
    }

    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    pub fn host_env(mut self, env: StorageEnv) -> Self {
        self.host_env = env;
        self
    }

    /// Options for the host database — notably the commit pipeline
    /// (group commit vs per-commit sync). Survives crash/recover cycles.
    pub fn host_db_opts(mut self, opts: DbOptions) -> Self {
        self.host_db = opts;
        self
    }

    /// Provisions `n` hot standbys of the *host database*, fed by the same
    /// WAL-shipping stack the file-server repositories use. With standbys,
    /// [`DataLinksSystem::fail_over_host`] can promote one after a host
    /// crash — the coordinator is no longer the single point of failure.
    pub fn host_replicas(mut self, n: usize) -> Self {
        self.host_replicas = n;
        self
    }

    /// Adds a file server with default configurations.
    pub fn file_server(mut self, name: &str) -> Self {
        self.servers.push(FileServerSpec::new(name));
        self
    }

    /// Adds a file server with explicit configurations.
    pub fn file_server_with(mut self, spec: FileServerSpec) -> Self {
        self.servers.push(spec);
        self
    }

    pub fn build(self) -> Result<DataLinksSystem, String> {
        let mut parts = Vec::new();
        for spec in self.servers {
            let fs = Arc::new(MemFs::with_clock(Arc::clone(&self.clock)).with_io_model(spec.io));
            // A plain server is one node under its own name. A sharded one
            // is N shard nodes: every shard manages its part of the same
            // physical file system and runs its own repository, archive
            // store and standbys. The shard's DLFM keeps the *logical*
            // server name (tokens are signed and validated under it); the
            // node registers everywhere else — engine, 2PC participant
            // keys, metrics — under its shard name.
            let count = spec.shards.max(1);
            for i in 0..count {
                let (name, shard) = if count == 1 {
                    (spec.name.clone(), None)
                } else {
                    (ShardRouter::shard_name(&spec.name, i), Some((spec.name.clone(), i, count)))
                };
                // Shard 0 runs on the spec's environment; the others on
                // fresh ones with its sync latency and its sync gauge.
                let repo_env = if i == 0 { spec.repo_env.clone() } else { spec.repo_env.sibling() };
                parts.push(NodeParts {
                    name,
                    fs: Arc::clone(&fs),
                    repo_env,
                    archive: Arc::new(ArchiveStore::new()),
                    dlfm_cfg: spec.dlfm.clone(),
                    replicas: spec.replicas,
                    upcall_fault: spec.upcall_fault.clone(),
                    shard,
                });
            }
        }
        let image = CrashImage {
            host_env: self.host_env,
            host_db: self.host_db,
            host_replicas: self.host_replicas,
            coord_epoch: 0,
            clock: self.clock,
            nodes: parts,
            flight_dump_dir: self.flight_dump_dir,
        };
        DataLinksSystem::assemble(image, None).map(|(sys, _)| sys)
    }
}

impl Default for SystemBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// The durable pieces of one node, as they survive a crash.
#[derive(Clone)]
struct NodeParts {
    name: String,
    /// The physical file system (survives crashes — it is the disk).
    fs: Arc<MemFs>,
    /// The storage environment the node's repository was opened on — a
    /// promoted standby's after a failover.
    repo_env: StorageEnv,
    /// The archive store (survives crashes — it is the archive device),
    /// written by the primary's server and read by every standby. Like
    /// `fs`, the node holds the device itself: crash and failover drop the
    /// server and build its successor on this store, whose next writer
    /// generation fences the dropped one.
    archive: Arc<ArchiveStore>,
    dlfm_cfg: DlfmConfig,
    /// Standby count to re-provision. Standbys are rebuilt fresh after a
    /// crash: their envs re-ship from offset zero of the (recovered)
    /// primary log, the simplest correct re-seeding.
    replicas: usize,
    /// Upcall fault-injection hook; re-installed on every rebuild so an
    /// armed injector keeps firing across crash recovery and failover.
    upcall_fault: Option<FaultInjector>,
    /// `(logical, idx, count)` when this node is one shard of a
    /// partitioned logical server; recovery rebuilds the router and the
    /// mount from this.
    shard: Option<(String, usize, usize)>,
}

impl NodeParts {
    /// The file server this node serves a part of, the node's shard index
    /// there and the shard count: `(name, 0, 1)` unsharded.
    fn mount(&self) -> (&str, usize, usize) {
        match &self.shard {
            Some((logical, idx, count)) => (logical, *idx, *count),
            None => (&self.name, 0, 1),
        }
    }
}

/// What survives a simulated whole-system crash: the disks. A new system
/// is assembled from one too, at coordinator epoch 0.
pub struct CrashImage {
    host_env: StorageEnv,
    host_db: DbOptions,
    /// Host standby count to re-provision on recovery (rebuilt fresh, like
    /// the per-node standbys).
    host_replicas: usize,
    /// Coordinator generation to carry forward: recovery re-fences every
    /// node at this epoch so agent connections minted before the last host
    /// failover stay refused after the rebuild too.
    coord_epoch: u64,
    clock: Arc<dyn Clock>,
    nodes: Vec<NodeParts>,
    /// Carried forward to the recovered system
    /// ([`SystemBuilder::flight_dump_dir`]).
    flight_dump_dir: Option<PathBuf>,
}

/// A transaction-consistent backup of the host database. File versions are
/// supplied by the (append-only) archive stores at restore time, so the
/// backup itself only carries the database image — exactly the paper's
/// architecture, where the archive server *is* the file backup.
pub struct SystemBackup {
    host_env: StorageEnv,
}

/// Splits `path;dltoken=<tok>` into `(path, token)`; a bare path is an
/// error — the routed read path is token-gated by construction.
fn split_embedded_token(token_path: &str) -> Result<(&str, &str), String> {
    match dl_dlfm::split_token_suffix(token_path) {
        (path, Some(token)) => Ok((path, token)),
        (path, None) => Err(format!("no access token embedded in {path}")),
    }
}

/// The host-side pieces a [`DataLinksSystem::crash_host`] leaves behind:
/// the frozen replica set holding the promotion target and the coordinator
/// generation the fence moved to.
struct HostOutage {
    replication: Arc<ReplicaSet<Follower>>,
    epoch: u64,
}

/// Outcome summary of a host failover ([`DataLinksSystem::fail_over_host`]).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct HostFailoverReport {
    /// The coordinator generation the promoted host runs under.
    pub epoch: u64,
    /// DLFM sub-transactions left in doubt by the old coordinator's death,
    /// as `(server, host_txid, committed)` — settled on promotion by the
    /// replicated `__dl_meta` rows (presumed abort when the decision never
    /// shipped).
    pub in_doubt_resolved: Vec<(String, u64, bool)>,
}

/// Live lane probes of every node, keyed by node name. The aggregate
/// `pool.total_*` gauges sample it *live* — a burst of heads or parked
/// frames is visible at the very next snapshot, not at some later
/// refresh. Failover replaces a node's probes in place.
#[derive(Default)]
pub struct PoolRoster {
    pools: Mutex<HashMap<String, Vec<Arc<HeadGate>>>>,
}

impl PoolRoster {
    fn set(&self, node: &str, gates: Vec<Arc<HeadGate>>) {
        self.pools.lock().insert(node.to_string(), gates);
    }

    /// Heads serving right now across every registered lane.
    pub fn total_workers(&self) -> usize {
        self.pools.lock().values().flatten().map(|g| g.stats().workers()).sum()
    }

    /// Frames parked right now across every registered lane.
    fn total_queue_depth(&self) -> usize {
        self.pools.lock().values().flatten().map(|g| g.stats().queue_depth()).sum()
    }
}

/// The assembled system.
pub struct DataLinksSystem {
    db: Database,
    engine: Arc<DataLinksEngine>,
    clock: Arc<dyn Clock>,
    host_db: DbOptions,
    /// Host standby count to (re-)provision after crashes and failovers.
    host_replicas: usize,
    /// Hot standbys of the host database, when provisioned and the host is
    /// up. `None` while the host is down (see `host_outage`) or when the
    /// system runs the paper's unreplicated single-coordinator shape.
    host_replication: Option<Arc<ReplicaSet<Follower>>>,
    /// Present exactly while the host is crashed but not yet promoted.
    host_outage: Option<HostOutage>,
    /// Current coordinator generation (the host fence epoch).
    coord_epoch: u64,
    nodes: HashMap<String, FileServerNode>,
    /// Shard routers of logical servers built with
    /// [`FileServerSpec::shards`], keyed by logical name.
    routers: HashMap<String, Arc<ShardRouter>>,
    /// One mount per file server spec, keyed by its name (the logical
    /// name of a sharded server).
    mounts: HashMap<String, Mount>,
    /// The unified telemetry registry: every layer's counters, gauges and
    /// histograms under dotted names (`minidb.*`, `repl.*`, `dlfm.*`,
    /// `dlfs.*`, `engine.*`, `fskit.*`, `system.*`, `pool.*`).
    registry: Arc<Registry>,
    /// Live pool probes per node (see [`PoolRoster`]).
    pool_roster: Arc<PoolRoster>,
    /// The most recent flight-recorder dump (crash or failover), if any.
    last_flight_dump: Mutex<Option<String>>,
    /// Where dumps are also written as files
    /// ([`SystemBuilder::flight_dump_dir`]).
    flight_dump_dir: Option<PathBuf>,
}

impl DataLinksSystem {
    /// Builds a system on `image`'s disks. With `recovery` — the host's
    /// views from before a rewind, empty when nothing was rewound — every
    /// node is first brought to the host's rows ([`DlfmServer::recover`]),
    /// and its report returned.
    fn assemble(
        image: CrashImage,
        recovery: Option<HashMap<String, HostView>>,
    ) -> Result<(DataLinksSystem, HashMap<String, RecoveryReport>), String> {
        let CrashImage { host_db, host_replicas, coord_epoch, clock, .. } = image;
        let run_recovery = recovery.is_some();
        let db = Database::open_with(image.host_env.clone(), host_db).map_err(|e| e.to_string())?;
        let engine =
            DataLinksEngine::install(db.clone(), Arc::clone(&clock)).map_err(|e| e.to_string())?;

        let host_replication = if host_replicas > 0 {
            // Same shape as the per-node sets: after a recovery, checkpoint
            // first so the fresh standbys seed from an image and the
            // recovered log stays bounded.
            if run_recovery {
                db.checkpoint_and_truncate()
                    .map_err(|e| format!("post-recovery host checkpoint: {e}"))?;
            }
            let set = ReplicaSet::<Follower>::build(
                "host",
                db.replication_feed(),
                host_replicas,
                coord_epoch,
            )?;
            Some(Arc::new(set))
        } else {
            None
        };

        // Shard routers first, registered with the engine so traffic
        // addressed to a logical name resolves per path to the owning
        // shard — and so the host's view of a shard node is the paths its
        // router assigns it.
        let mut routers: HashMap<String, Arc<ShardRouter>> = HashMap::new();
        for (logical, _, count) in image.nodes.iter().filter_map(|part| part.shard.as_ref()) {
            routers
                .entry(logical.clone())
                .or_insert_with(|| Arc::new(ShardRouter::new(logical, *count)));
        }
        for router in routers.values() {
            engine.register_router(Arc::clone(router));
        }

        let mut views = if run_recovery { engine.host_views()? } else { HashMap::new() };
        let mut before = recovery.unwrap_or_default();
        let mut nodes = HashMap::new();
        let mut reports = HashMap::new();
        // Each file server's upcall clients, one slot per shard; an
        // unsharded server is the one-shard case.
        let mut upcalls: HashMap<String, (Arc<MemFs>, Vec<Option<DlfmClient>>)> = HashMap::new();
        for part in image.nodes {
            let name = part.name.clone();
            let rows = run_recovery.then(|| {
                (views.remove(&name).unwrap_or_default(), before.remove(&name).unwrap_or_default())
            });
            let repo = Self::open_repo(&part)?;
            let recovery = rows.as_ref().map(|(view, before)| (view, before));
            let (node, upcall, report) =
                Self::build_node(&engine, &clock, part, repo, recovery, coord_epoch)?;
            if let Some(report) = report {
                reports.insert(name.clone(), report);
            }
            let (mount, idx, count) = node.parts.mount();
            let (_, slots) = upcalls.entry(mount.to_string()).or_insert_with(|| {
                (Arc::clone(&node.parts.fs), (0..count).map(|_| None).collect())
            });
            slots[idx] = Some(upcall);
            nodes.insert(name, node);
        }
        let mut mounts = HashMap::new();
        for (name, (fs, slots)) in upcalls {
            let clients: Option<Vec<DlfmClient>> = slots.into_iter().collect();
            let clients = clients.ok_or_else(|| format!("a shard of {name} is missing"))?;
            mounts.insert(name, Mount::new(fs, clients));
        }

        let registry = Arc::new(Registry::new());
        // Pre-create the system-wide failover counters so assertions can
        // reference them by name before the first failover happens.
        registry.counter("system.failovers");
        registry.counter("system.host_failovers");
        let sys = DataLinksSystem {
            db,
            engine,
            clock,
            host_db,
            host_replicas,
            host_replication,
            host_outage: None,
            coord_epoch,
            nodes,
            routers,
            mounts,
            registry,
            pool_roster: Arc::new(PoolRoster::default()),
            last_flight_dump: Mutex::new(None),
            flight_dump_dir: image.flight_dump_dir,
        };
        sys.register_host_metrics();
        // The aggregate pool gauges read the roster live — registered as
        // functions, they reflect elastic growth at snapshot time without
        // any refresh pass.
        {
            let roster = Arc::clone(&sys.pool_roster);
            sys.registry
                .register_gauge_fn("pool.total_workers", move || roster.total_workers() as f64);
            let roster = Arc::clone(&sys.pool_roster);
            sys.registry.register_gauge_fn("pool.total_queue_depth", move || {
                roster.total_queue_depth() as f64
            });
        }
        let names: Vec<String> = sys.nodes.keys().cloned().collect();
        for name in &names {
            Self::register_node_metrics(&sys.registry, &sys.nodes[name]);
            sys.adopt_node_pools(name);
        }
        for (name, mount) in &sys.mounts {
            Self::register_dlfs_metrics(&sys.registry, name, &mount.dlfs);
        }
        Ok((sys, reports))
    }

    /// Opens a node's repository from its disks (crash recovery included)
    /// under the node's database options, with an empty open table.
    fn open_repo(part: &NodeParts) -> Result<Repository, String> {
        let db = Database::open_with(part.repo_env.clone(), part.dlfm_cfg.db);
        db.and_then(Repository::new).map_err(|e| e.to_string())
    }

    /// Builds one file-server node from its durable parts and its opened
    /// repository `repo` (see [`DataLinksSystem::open_repo`], or a standby
    /// promoted in place, with its open table): the DLFM server (reconciled
    /// against `recovery`, the host's view of the node and the one from
    /// before a rewind — [`DlfmServer::recover`] — when given), the
    /// daemons, the engine registration, and — when provisioned — the
    /// replica set fed from the repository's WAL. Returns the node, the
    /// upcall client its file server's DLFS takes into the node's slot, and
    /// the recovery report. Used by initial assembly, crash recovery,
    /// point-in-time restore and failover promotion alike.
    fn build_node(
        engine: &Arc<DataLinksEngine>,
        clock: &Arc<dyn Clock>,
        part: NodeParts,
        repo: Repository,
        recovery: Option<(&HostView, &HostView)>,
        coord_epoch: u64,
    ) -> Result<(FileServerNode, DlfmClient, Option<RecoveryReport>), String> {
        let server = Arc::new(DlfmServer::new(
            part.dlfm_cfg.clone(),
            part.fs.clone() as Arc<dyn FileSystem>,
            repo,
            Arc::clone(&part.archive),
            Arc::clone(clock),
            engine.clone(),
        ));
        // Restore the coordinator fence *before* any agent connects, so the
        // connections below are minted at the current generation and any
        // connection minted under an older one stays refused.
        server.fence_coordinator(coord_epoch);
        let report = recovery.map(|(view, before)| server.recover(view, before)).transpose()?;
        let main = MainDaemon::with_fault_injector(Arc::clone(&server), part.upcall_fault.clone());

        // Carrier selection — the one place the transport matters. Socket
        // stands up the node's wire daemon; the engine's and DLFS's
        // connections then ride whichever carrier the node has. From here
        // down the node is identical either way: both are `DlfmClient`s.
        let wire = match part.dlfm_cfg.transport {
            Transport::Local => None,
            Transport::Socket => Some(WireLink {
                daemon: WireDaemon::spawn(&main, Arc::new(NetStats::new()))?,
                connector: Arc::new(WireConnector::new(
                    Arc::new(NetStats::new()),
                    WIRE_CALL_TIMEOUT,
                )),
            }),
        };
        let agent = Self::mint_client(&main, wire.as_ref(), "engine")?;
        let upcall = Self::mint_client(&main, wire.as_ref(), "dlfs")?;
        let raw = Arc::new(Lfs::new(part.fs.clone() as Arc<dyn FileSystem>));

        let replication = if part.replicas > 0 {
            // Re-provisioning after a recovery or failover: checkpoint the
            // repository first, so the fresh standbys below catch up by
            // *delta* (install the image, tail the suffix) instead of
            // replaying the primary's whole history — and so the log the
            // promoted primary inherited stays bounded from the start.
            if report.is_some() {
                server
                    .repository()
                    .db()
                    .checkpoint_and_truncate()
                    .map_err(|e| format!("post-recovery repository checkpoint: {e}"))?;
            }
            let set = ReplicaSet::<Standby>::build(
                server.repository().db().replication_feed(),
                Arc::clone(&part.archive),
                ReplicaSetOptions {
                    replicas: part.replicas,
                    // The *logical* server name (== the node name except
                    // for shard nodes): standbys validate tokens, and
                    // tokens are signed under the logical name.
                    server_name: part.dlfm_cfg.server_name.clone(),
                    token_key: *server.token_key(),
                    clock: Arc::clone(clock),
                    // Linked-but-never-updated files have no archived
                    // version yet: a replica reads those live, from the
                    // node's one content source, the archiver's.
                    fallback: Arc::clone(server.content_source()),
                },
            )?;
            Some(Arc::new(set))
        } else {
            None
        };

        engine.register_server(ServerRegistration {
            name: part.name.clone(),
            agent: Arc::new(agent),
            token_key: *server.token_key(),
            server: Arc::clone(&server),
            replication: replication.clone(),
        });
        Ok((FileServerNode { parts: part, server, raw, replication, wire, main }, upcall, report))
    }

    /// A fresh connection to a node over the carrier it runs.
    fn mint_client(
        main: &MainDaemon,
        wire: Option<&WireLink>,
        label: &str,
    ) -> Result<DlfmClient, String> {
        match wire {
            Some(wire) => wire.connect_client(label),
            None => Ok(main.connect()),
        }
    }

    pub fn builder() -> SystemBuilder {
        SystemBuilder::new()
    }

    // --- accessors -----------------------------------------------------------

    pub fn db(&self) -> &Database {
        &self.db
    }

    pub fn engine(&self) -> &Arc<DataLinksEngine> {
        &self.engine
    }

    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    pub fn node(&self, name: &str) -> Result<&FileServerNode, String> {
        self.nodes.get(name).ok_or_else(|| format!("unknown file server {name}"))
    }

    fn mount(&self, name: &str) -> Result<&Mount, String> {
        self.mounts.get(name).ok_or_else(|| format!("unknown file server {name}"))
    }

    /// Application-facing file system of a file server (mounted over
    /// DLFS): one namespace, sharded or not. The handle outlives failovers
    /// of the server's nodes.
    pub fn fs(&self, name: &str) -> Result<Arc<Lfs>, String> {
        Ok(Arc::clone(&self.mount(name)?.lfs))
    }

    /// The DLFS layer of a file server (its counters and upcall round
    /// trips).
    pub fn dlfs(&self, name: &str) -> Result<&Arc<Dlfs>, String> {
        Ok(&self.mount(name)?.dlfs)
    }

    /// Raw (root) file system of a node for fixtures and admin tasks. For
    /// a sharded logical server all shards share one physical file system,
    /// so shard 0's raw handle is *the* raw handle.
    pub fn raw_fs(&self, name: &str) -> Result<Arc<Lfs>, String> {
        Ok(Arc::clone(&self.node(&self.member_names(name)?[0])?.raw))
    }

    /// The shard router of a logical server built with
    /// [`FileServerSpec::shards`], if any.
    pub fn shard_router(&self, logical: &str) -> Option<&Arc<ShardRouter>> {
        self.routers.get(logical)
    }

    /// The node names `server` stands for: itself for a plain node, the
    /// shard nodes (in shard order) for a sharded logical server.
    fn member_names(&self, server: &str) -> Result<Vec<String>, String> {
        if self.nodes.contains_key(server) {
            Ok(vec![server.to_string()])
        } else if let Some(router) = self.routers.get(server) {
            Ok(router.names().to_vec())
        } else {
            Err(format!("unknown file server {server}"))
        }
    }

    /// Current database state identifier (§4.4).
    pub fn state_id(&self) -> Lsn {
        self.db.state_id()
    }

    // --- telemetry ---------------------------------------------------------------

    /// The unified telemetry registry. Components register themselves at
    /// assembly/failover time; prefer [`DataLinksSystem::metrics`] for a
    /// consistent merged view.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// One merged snapshot of every layer's metrics: host and repository
    /// minidb instances, WAL shipping, the DLFM daemon complexes, DLFS
    /// interposition, the engine's read routing, and the worker pools
    /// (refreshed from the live pools at call time).
    pub fn metrics(&self) -> dl_obs::Snapshot {
        self.refresh_pool_gauges();
        self.registry.snapshot()
    }

    /// [`DataLinksSystem::metrics`] rendered as Prometheus-style text
    /// exposition.
    pub fn metrics_text(&self) -> String {
        self.metrics().render_text()
    }

    /// Blocks until no head serves any node's upcall lane and nothing is
    /// parked on one (or `timeout` elapses per node); returns whether all
    /// went idle. Call before snapshotting metrics whose value a
    /// just-delivered upcall failure may still be about to bump: a
    /// panicking upcall delivers its failure to the waiting client
    /// *before* its serving thread finishes unwinding, and the lane counts
    /// the panic only after that.
    pub fn quiesce_upcalls(&self, timeout: Duration) -> bool {
        self.nodes.values().all(|n| n.main_daemon().wait_upcalls_idle(timeout))
    }

    /// The most recent flight-recorder dump (taken on `crash`, `fail_over`
    /// or host failover), if one has been produced.
    pub fn last_flight_dump(&self) -> Option<String> {
        self.last_flight_dump.lock().clone()
    }

    /// Registers host-side instruments: the host database's WAL/checkpoint
    /// telemetry, the engine's routing stats, and host WAL shipping.
    /// Idempotent and re-entrant — host failover swaps the database and
    /// engine, so stale registrations are dropped by prefix first.
    fn register_host_metrics(&self) {
        let registry = &self.registry;
        registry.unregister_prefix("minidb.host");
        registry.unregister_prefix("engine");
        registry.unregister_prefix("repl.host");

        Self::register_db_metrics(registry, "minidb.host", &self.db);

        let engine = Arc::clone(&self.engine);
        macro_rules! engine_counter {
            ($field:ident) => {{
                let e = Arc::clone(&engine);
                registry.register_counter_fn(concat!("engine.", stringify!($field)), move || {
                    e.stats.$field.get()
                });
            }};
        }
        engine_counter!(links);
        engine_counter!(unlinks);
        engine_counter!(tokens_generated);
        engine_counter!(meta_updates);
        engine_counter!(replica_routed);
        engine_counter!(primary_routed);
        engine_counter!(replica_fallbacks);
        engine_counter!(freshness_waits);
        engine_counter!(freshness_fallbacks);
        let e = Arc::clone(&engine);
        registry.register_histogram_fn("engine.freshness_wait_ns", move || {
            e.stats.freshness_wait_ns.snapshot()
        });

        // Per-shard routing decisions of every sharded logical server —
        // the balance evidence the scale-out gate and the routing/metrics
        // agreement test in `tests/sharding.rs` assert on.
        for (logical, router) in &self.routers {
            for i in 0..router.shard_count() {
                let r = Arc::clone(router);
                registry.register_counter_fn(&format!("engine.shard.{logical}.s{i}.routed"), {
                    move || r.routed(i)
                });
            }
        }

        if let Some(set) = &self.host_replication {
            Self::register_repl_metrics(registry, "host", set);
        }
    }

    /// Registers one minidb instance's WAL and checkpoint instruments
    /// under `<prefix>.*`.
    fn register_db_metrics(registry: &Registry, prefix: &str, db: &Database) {
        let wal = db.wal_telemetry();
        registry.register_histogram(&format!("{prefix}.fsync_ns"), wal.fsync_ns);
        registry.register_histogram(&format!("{prefix}.wal_batch_frames"), wal.batch_frames);
        registry.register_counter(&format!("{prefix}.unforced_appends"), wal.unforced_appends);
        registry.register_gauge(&format!("{prefix}.unflushed_bytes"), wal.unflushed_bytes);
        registry.register_counter(&format!("{prefix}.overlapped_flushes"), wal.overlapped_flushes);
        let db_tel = db.telemetry();
        registry.register_histogram(&format!("{prefix}.checkpoint_ns"), db_tel.checkpoint_ns);
        registry.register_gauge(&format!("{prefix}.checkpoint_bytes"), db_tel.checkpoint_bytes);
        let db = db.clone();
        registry.register_gauge_fn(&format!("{prefix}.wal_retained_bytes"), move || {
            db.wal_retained_bytes() as f64
        });
    }

    /// Registers the WAL-shipping instruments of one replica set under
    /// `repl.<who>.*`; the gauges sample the live set.
    fn register_repl_metrics<S: Send + Sync + 'static>(
        registry: &Registry,
        who: &str,
        set: &Arc<ReplicaSet<S>>,
    ) {
        macro_rules! repl_counter {
            ($field:ident) => {{
                let s = Arc::clone(set.stats());
                registry.register_counter_fn(&format!("repl.{who}.{}", stringify!($field)), {
                    move || s.$field.load(Ordering::Relaxed)
                });
            }};
        }
        repl_counter!(batches_shipped);
        repl_counter!(records_shipped);
        repl_counter!(bytes_shipped);
        repl_counter!(checkpoints_shipped);
        repl_counter!(stale_rejections);
        let s = Arc::clone(set);
        registry.register_gauge_fn(&format!("repl.{who}.ship_lag_bytes"), move || s.lag() as f64);
        let s = Arc::clone(set);
        registry.register_gauge_fn(&format!("repl.{who}.snapshot_queue_depth"), move || {
            s.snapshot_queue_depth() as f64
        });
    }

    /// Registers a file server's DLFS interposition counters under
    /// `dlfs.<name>.*`, once: the mount outlives its nodes' failovers.
    fn register_dlfs_metrics(registry: &Registry, name: &str, dlfs: &Arc<Dlfs>) {
        macro_rules! dlfs_counter {
            ($field:ident) => {{
                let d = Arc::clone(dlfs);
                registry.register_counter_fn(&format!("dlfs.{name}.{}", stringify!($field)), {
                    move || d.stats.$field.get()
                });
            }};
        }
        dlfs_counter!(passthrough_opens);
        dlfs_counter!(managed_opens);
        dlfs_counter!(busy_waits);
        dlfs_counter!(token_lookups);
        dlfs_counter!(name_cache_fills);
    }

    /// Registers one node's instruments: its DLFM server counters and
    /// upcall round-trip distribution, repository minidb telemetry,
    /// physical-FS op counters, and — when replicated — WAL shipping.
    /// Stale registrations from a previous incarnation of the node
    /// (failover, recovery) are dropped first.
    fn register_node_metrics(registry: &Arc<Registry>, node: &FileServerNode) {
        let name = &node.parts.name;
        for prefix in ["dlfm", "minidb", "repl", "fskit"] {
            registry.unregister_prefix(&format!("{prefix}.{name}"));
        }

        let server = Arc::clone(&node.server);
        macro_rules! dlfm_counter {
            ($field:ident) => {{
                let s = Arc::clone(&server);
                registry.register_counter_fn(&format!("dlfm.{name}.{}", stringify!($field)), {
                    move || s.stats.$field.get()
                });
            }};
        }
        dlfm_counter!(upcalls);
        dlfm_counter!(token_validations);
        dlfm_counter!(open_checks);
        dlfm_counter!(close_notifies);
        dlfm_counter!(links);
        dlfm_counter!(unlinks);
        dlfm_counter!(takeovers);
        dlfm_counter!(archives);
        dlfm_counter!(archive_wakeups);
        dlfm_counter!(archive_jobs_by_opener);
        dlfm_counter!(busy_responses);
        dlfm_counter!(rollbacks);
        dlfm_counter!(updates_rolled_forward);
        dlfm_counter!(stale_coord_rejections);
        registry.register_histogram(
            &format!("dlfm.{name}.upcall_round_trip_ns"),
            Arc::clone(node.main.upcall_round_trip_histogram()),
        );

        Self::register_db_metrics(
            registry,
            &format!("minidb.{name}"),
            node.server.repository().db(),
        );

        let fs = Arc::clone(&node.parts.fs);
        macro_rules! fskit_counter {
            ($field:ident) => {{
                let f = Arc::clone(&fs);
                registry.register_counter_fn(&format!("fskit.{name}.{}", stringify!($field)), {
                    move || f.stats.$field.load(Ordering::Relaxed)
                });
            }};
        }
        fskit_counter!(lookups);
        fskit_counter!(opens);
        fskit_counter!(reads);
        fskit_counter!(writes);
        fskit_counter!(setattrs);

        if let Some(set) = &node.replication {
            Self::register_repl_metrics(registry, name, set);
        }

        registry.unregister_prefix(&format!("net.{name}"));
        if let Some(wire) = &node.wire {
            // Server-side frame/connection instruments under
            // `net.<name>.*`; the client connector contributes the
            // caller-observed round-trip distribution and its call
            // timeouts, and the node's presumed-abort resolution count
            // rides alongside.
            let stats = Arc::clone(wire.daemon.stats());
            macro_rules! net_counter {
                ($field:ident) => {{
                    let s = Arc::clone(&stats);
                    registry.register_counter_fn(&format!("net.{name}.{}", stringify!($field)), {
                        move || s.$field.get()
                    });
                }};
            }
            net_counter!(frames_in);
            net_counter!(frames_out);
            net_counter!(bytes_in);
            net_counter!(bytes_out);
            net_counter!(decode_errors);
            net_counter!(backpressure_stalls);
            net_counter!(seat_lends);
            net_counter!(seat_reclaims);
            net_counter!(seat_handoffs_ready);
            net_counter!(seat_handoffs_park);
            net_counter!(seat_handoffs_timeout);
            net_counter!(accepts);
            net_counter!(disconnects);
            let s = Arc::clone(&stats);
            registry.register_gauge_fn(&format!("net.{name}.connections"), move || {
                s.connections.get() as f64
            });
            let s = Arc::clone(&stats);
            registry.register_gauge_fn(&format!("net.{name}.peak_connections"), move || {
                s.peak_connections.get() as f64
            });
            let aborts = Arc::clone(wire.daemon.presumed_aborts());
            registry
                .register_counter_fn(&format!("net.{name}.presumed_aborts"), move || aborts.get());
            let cli = Arc::clone(wire.connector.stats());
            registry.register_histogram_fn(&format!("net.{name}.round_trip_ns"), {
                let cli = Arc::clone(&cli);
                move || cli.round_trip_ns.snapshot()
            });
            registry.register_counter_fn(&format!("net.{name}.call_timeouts"), move || {
                cli.call_timeouts.get()
            });
        }
    }

    /// (Re-)registers `name`'s live pools with the roster behind the
    /// `pool.total_*` gauges. Called at assembly and after every failover
    /// rebuild, so the totals count the *current* incarnation's pools.
    fn adopt_node_pools(&self, name: &str) {
        let Some(node) = self.nodes.get(name) else { return };
        self.pool_roster.set(name, node.main.gates());
    }

    /// Pushes the live lane gauges (the upcall lanes and the shared agent
    /// executors, per node) and each wire daemon's serving threads into
    /// the registry. Lanes live and die with their node, so their stats
    /// are sampled here — at snapshot time — instead of holding them alive
    /// through registered closures.
    fn refresh_pool_gauges(&self) {
        let set =
            |name: String, v: u64| self.registry.gauge(&name).set(v.min(i64::MAX as u64) as i64);
        for (name, node) in &self.nodes {
            let pool = node.upcall_pool_stats();
            set(format!("dlfm.{name}.upcall_pool.workers"), pool.workers() as u64);
            set(format!("dlfm.{name}.upcall_pool.peak_workers"), pool.peak_workers() as u64);
            set(format!("dlfm.{name}.upcall_pool.queue_depth"), pool.queue_depth() as u64);
            set(
                format!("dlfm.{name}.upcall_pool.peak_queue_depth"),
                pool.peak_queue_depth() as u64,
            );
            set(format!("dlfm.{name}.upcall_pool.tasks"), pool.tasks());
            set(format!("dlfm.{name}.upcall_pool.caller_served"), pool.caller_served());
            set(format!("dlfm.{name}.upcall_pool.panics"), pool.panics());
            let main = node.main_daemon();
            set(format!("dlfm.{name}.agent_executor.connections"), main.child_count() as u64);
            set(format!("dlfm.{name}.agent_executor.threads"), main.executor_threads() as u64);
            if let Some(exec) = main.executor_stats() {
                set(format!("dlfm.{name}.agent_executor.peak_workers"), exec.peak_workers() as u64);
                set(format!("dlfm.{name}.agent_executor.queue_depth"), exec.queue_depth() as u64);
                set(format!("dlfm.{name}.agent_executor.tasks"), exec.tasks());
                set(format!("dlfm.{name}.agent_executor.caller_served"), exec.caller_served());
                set(format!("dlfm.{name}.agent_executor.panics"), exec.panics());
            }
            if let Some(wire) = &node.wire {
                set(format!("net.{name}.threads"), wire.daemon.threads() as u64);
                set(format!("net.{name}.peak_threads"), wire.daemon.peak_threads() as u64);
            }
        }
        // `pool.total_workers` / `pool.total_queue_depth` are registered
        // as live gauge functions over the roster (see `assemble`), not
        // pushed here.
    }

    /// Renders every layer's flight recorder (the coordinator-side engine
    /// ring plus each node's DLFM ring) into one dump, stores it as the
    /// last dump, and — when the system was built with a
    /// [`SystemBuilder::flight_dump_dir`] — writes it to a file there. Never
    /// prints to stdout/stderr (the caller's report owns those streams).
    fn dump_flight(&self, reason: &str) -> String {
        let mut out = self.engine.flight_recorder().render("engine.host", reason);
        let mut names: Vec<&String> = self.nodes.keys().collect();
        names.sort();
        for name in names {
            let node = &self.nodes[name];
            out.push('\n');
            out.push_str(&node.server.flight_recorder().render(&format!("dlfm.{name}"), reason));
        }
        if let Some(dir) = &self.flight_dump_dir {
            use std::sync::atomic::AtomicU64;
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let seq = SEQ.fetch_add(1, Ordering::Relaxed);
            let safe: String =
                reason.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '-' }).collect();
            let file = format!("flight-{}-{seq}-{safe}.log", std::process::id());
            let _ = std::fs::write(dir.join(file), &out);
        }
        *self.last_flight_dump.lock() = Some(out.clone());
        out
    }

    // --- replication & failover -------------------------------------------------

    /// Bytes of primary repository WAL not yet applied by the slowest
    /// standby of `server` (the slowest across all shards for a sharded
    /// logical server); zero when unreplicated.
    pub fn replication_lag(&self, server: &str) -> Result<u64, String> {
        let mut worst = 0;
        for name in self.member_names(server)? {
            let lag = self.node(&name)?.replication.as_ref().map(|r| r.lag()).unwrap_or(0);
            worst = worst.max(lag);
        }
        Ok(worst)
    }

    /// Drives shipping until `server`'s standbys (every shard's, for a
    /// sharded logical server) hold the primary's whole log tail — the
    /// unforced records too, which are flushed first (trivially true
    /// unreplicated). Returns whether the lag drained within `timeout`.
    pub fn wait_replicas_caught_up(&self, server: &str, timeout: Duration) -> Result<bool, String> {
        let mut all = true;
        for name in self.member_names(server)? {
            all &= self
                .node(&name)?
                .replication
                .as_ref()
                .map(|r| r.wait_caught_up(timeout))
                .unwrap_or(true);
        }
        Ok(all)
    }

    /// Pauses (or resumes) WAL shipping to `server`'s standbys — the
    /// slow/stalled-standby fault the mixed driver injects. While paused
    /// the standbys lag; routed reads still serve their (stale) applied
    /// state, and freshness-token reads fall back to the primary once the
    /// catch-up wait expires. Errors when `server` is unreplicated. For a
    /// sharded logical server, pauses every shard's shipping.
    pub fn set_replication_paused(&self, server: &str, paused: bool) -> Result<(), String> {
        let mut any = false;
        for name in self.member_names(server)? {
            if let Some(r) = &self.node(&name)?.replication {
                r.set_paused(paused);
                any = true;
            }
        }
        if any {
            Ok(())
        } else {
            Err(format!("file server {server} has no replicas to pause"))
        }
    }

    /// Validates a read token through the routed read path: a replica
    /// round-robin when `server` has standbys, the primary otherwise.
    /// `token_path` is the token-embedded path a SELECT handed out.
    pub fn validate_read_token(
        &self,
        server: &str,
        token_path: &str,
        uid: u32,
    ) -> Result<TokenKind, String> {
        let (path, token) = split_embedded_token(token_path)?;
        self.engine.validate_read_token(server, path, token, uid)
    }

    /// The zero-upcall replica read: validates the token and serves the
    /// last committed bytes — by a standby from the node's archive store
    /// when replicated (the primary is not involved), by the primary
    /// otherwise. Writes always stay on the primary's open/close protocol.
    pub fn serve_read(&self, server: &str, token_path: &str, uid: u32) -> Result<Vec<u8>, String> {
        let (path, token) = split_embedded_token(token_path)?;
        self.engine.serve_read(server, path, token, uid)
    }

    /// A *freshness token* for `server`: the repository's current log
    /// tail. Capture it right after a write commits (it covers every
    /// record of the write, the close's unforced commit included — the durable
    /// watermark may not yet) and hand it to
    /// [`DataLinksSystem::serve_read_fresh`] — that read is then
    /// guaranteed to observe the write, wherever it routes. Cheap: one
    /// lock, no I/O; the read flushes the tail if it still has to.
    pub fn freshness_token(&self, server: &str) -> Result<Lsn, String> {
        Ok(self.node(server)?.server.repository().db().state_id())
    }

    /// [`DataLinksSystem::serve_read`] with read-your-writes: the routed
    /// read never observes repository state older than `min_lsn` (a
    /// [`DataLinksSystem::freshness_token`]). A standby behind the token
    /// gets a bounded catch-up wait; if it stays behind, the read reroutes
    /// to the primary.
    pub fn serve_read_fresh(
        &self,
        server: &str,
        token_path: &str,
        uid: u32,
        min_lsn: Lsn,
    ) -> Result<Vec<u8>, String> {
        let (path, token) = split_embedded_token(token_path)?;
        self.engine.serve_read_fresh(server, path, token, uid, min_lsn)
    }

    /// The adaptive freshness-wait bound currently in force for `server`
    /// (see [`crate::engine::LagEwma`]): how long a freshness-token read
    /// would wait for a lagging standby before rerouting to the primary.
    pub fn freshness_bound(&self, server: &str) -> Duration {
        self.engine.freshness_bound(server)
    }

    /// Promotes a standby of `server` after a primary crash: the old
    /// primary's daemons are torn down and its replica set fenced (epoch
    /// bump — any frame a deposed shipper still sends is rejected), then
    /// the first standby's repository is promoted in place (no reopen) —
    /// with the standby's open table, so the sessions it admitted survive —
    /// is reconciled against the host's rows like a crash-recovered primary
    /// (whatever of the primary's log never shipped is re-derived from
    /// them), and the node re-registers with the promoted server as
    /// primary. The promoted server takes the archive store over by being
    /// built: its writer generation fences the old primary's late archive
    /// jobs. Remaining standby slots are re-provisioned fresh against the
    /// new primary. Returns the promotion recovery report.
    pub fn fail_over(&mut self, server: &str) -> Result<RecoveryReport, String> {
        // Post-mortem first: the crashed primary's recorder dies with it.
        self.dump_flight(&format!("fail_over_{server}"));
        let node = self.nodes.get(server).ok_or_else(|| format!("unknown file server {server}"))?;
        let Some(replication) = node.replication.clone() else {
            return Err(format!("file server {server} has no replicas to fail over to"));
        };
        // Fence first: after this, nothing the old primary ships applies
        // anywhere, and the shipping daemon is joined (no apply can race
        // the promotion below).
        replication.freeze();
        // The primary "crashes": volatile state evaporates; the forced
        // intents of its open link/unlink branches survive in whatever log
        // prefix reached the standby, for the promotion to settle. Then
        // the host aborts every undecided transaction that may hold a
        // branch there, so the rows read next are final.
        node.server.simulate_crash();
        self.engine.abort_undecided_on(server);
        let view = self.engine.host_views()?.remove(server).unwrap_or_default();
        let node = self.nodes.remove(server).expect("looked up above");

        let standby = replication.promote_target();
        let promoted = Database::clone(standby);
        let opens = Arc::clone(standby.repository().opens());
        let FileServerNode { parts: fallback, server: old_server, .. } = node;
        drop(old_server);

        let parts = NodeParts {
            repo_env: promoted.env().clone(),
            // One standby became the primary; re-provision the rest fresh
            // from the new primary's log.
            replicas: fallback.replicas.saturating_sub(1),
            ..fallback.clone()
        };
        let rebuild = |parts, repo| {
            let recovery = Some((&view, &HostView::new()));
            Self::build_node(&self.engine, &self.clock, parts, repo, recovery, self.coord_epoch)
        };
        let promotion = promoted
            .promote()
            .and_then(|()| Repository::with_opens(promoted, opens))
            .map_err(|e| e.to_string());
        let (node, upcall, outcome) = match promotion.and_then(|repo| rebuild(parts, repo)) {
            Ok((node, upcall, report)) => {
                self.registry.counter("system.failovers").inc();
                (node, upcall, Ok(report.expect("promotion runs recovery")))
            }
            Err(promote_err) => {
                // Promotion failed. The node handle must survive: fall
                // back to crash-recovering the old primary from its own
                // durable parts (the ordinary no-replica recovery path).
                let (node, upcall, _) = Self::open_repo(&fallback)
                    .and_then(|repo| rebuild(fallback, repo))
                    .map_err(|e| {
                        format!(
                            "promotion failed ({promote_err}) and primary re-recovery \
                         failed too ({e}); file server {server} is down"
                        )
                    })?;
                let err = format!(
                    "promotion failed: {promote_err}; crashed primary recovered in its place"
                );
                (node, upcall, Err(err))
            }
        };
        Self::register_node_metrics(&self.registry, &node);
        // The file server's mount stays; its upcalls for this node's paths
        // go to the rebuilt node from here on.
        let (mount, idx, _) = node.parts.mount();
        self.mount(mount)?.dlfs.replace_upcall(idx, upcall);
        self.nodes.insert(server.to_string(), node);
        self.adopt_node_pools(server);
        outcome
    }

    // --- host replication & coordinator failover --------------------------------

    /// Current coordinator generation: the host fence epoch every DLFM
    /// node checks 2PC traffic against. Starts at 0; each host failover
    /// bumps it.
    pub fn coordinator_epoch(&self) -> u64 {
        self.coord_epoch
    }

    /// The host database's hot standbys, when provisioned and the host is
    /// up.
    pub fn host_replication(&self) -> Option<&Arc<ReplicaSet<Follower>>> {
        self.host_replication.as_ref()
    }

    /// Whether the host database is currently crashed (fenced, awaiting
    /// [`DataLinksSystem::promote_host`]).
    pub fn host_is_down(&self) -> bool {
        self.host_outage.is_some()
    }

    /// Bytes of host WAL not yet applied by the slowest host standby;
    /// zero when the host is unreplicated.
    pub fn host_replication_lag(&self) -> u64 {
        self.host_replication.as_ref().map(|r| r.lag()).unwrap_or(0)
    }

    /// Drives host-WAL shipping until the standbys hold everything durable
    /// on the host (trivially true unreplicated). Returns whether the lag
    /// drained within `timeout`.
    pub fn wait_host_replicas_caught_up(&self, timeout: Duration) -> bool {
        self.host_replication.as_ref().map(|r| r.wait_caught_up(timeout)).unwrap_or(true)
    }

    /// Pauses (or resumes) WAL shipping to the host standbys — the
    /// deterministic way to stage a "decision logged on the host but not
    /// yet shipped" window. Errors when the host is unreplicated.
    pub fn set_host_replication_paused(&self, paused: bool) -> Result<(), String> {
        match &self.host_replication {
            Some(r) => {
                r.set_paused(paused);
                Ok(())
            }
            None => Err("host database has no replicas to pause".to_string()),
        }
    }

    /// Crashes the host database: the coordinator's volatile state is
    /// gone, the shipping daemon is fenced and joined (nothing the dead
    /// host's log ships after this applies anywhere), and every DLFM node
    /// is told the new coordinator generation — a late 2PC decision from a
    /// zombie of the old coordinator is refused from here on. Link/unlink
    /// branches whose decision had not reached their node stay pending on
    /// the DLFM side until [`DataLinksSystem::promote_host`] settles them
    /// by the promoted host's rows. Replica-routed
    /// reads keep flowing throughout: token validation and content service
    /// never touch the host. Returns the new coordinator generation.
    pub fn crash_host(&mut self) -> Result<u64, String> {
        if self.host_outage.is_some() {
            return Err("host database is already down".to_string());
        }
        let Some(replication) = self.host_replication.take() else {
            return Err("host database has no replicas to fail over to".to_string());
        };
        let epoch = replication.freeze();
        for node in self.nodes.values() {
            node.server.fence_coordinator(epoch);
        }
        self.coord_epoch = epoch;
        self.host_outage = Some(HostOutage { replication, epoch });
        Ok(epoch)
    }

    /// Promotes a host standby after [`DataLinksSystem::crash_host`]: the
    /// standby becomes the new host database in place, a fresh engine
    /// installs on it, every node re-registers under the new coordinator
    /// generation, and DLFM sub-transactions the old coordinator left
    /// pending settle by the replicated metadata rows
    /// ([`DlfmServer::resolve_client_loss`], the rule crash recovery uses)
    /// — presumed abort for anything the shipped log prefix never decided.
    /// Remaining host standby slots re-provision against the new
    /// host, inheriting the fence generation.
    pub fn promote_host(&mut self) -> Result<HostFailoverReport, String> {
        if self.host_outage.is_none() {
            return Err("host database is not down".to_string());
        }
        // Every node's unforced repository tail first, as `restore` does: a
        // link the deposed host committed whose `Commit` never shipped
        // then keeps a durable `dl_files` row on its node — the only record
        // of its original attributes once the promoted host lacks the
        // row — for a later recovery to hand the file back from.
        for node in self.nodes.values() {
            node.server.repository().db().flush().map_err(|e| e.to_string())?;
        }
        let HostOutage { replication, epoch } =
            self.host_outage.take().ok_or("host database is not down")?;
        let db = Database::clone(replication.promote_target());
        drop(replication);
        db.promote().map_err(|e| format!("promoted host: {e}"))?;
        // Bound the inherited log and seed the rebuilt standbys below from
        // an image + suffix rather than the whole history.
        db.checkpoint_and_truncate().map_err(|e| format!("promoted host checkpoint: {e}"))?;
        let engine = DataLinksEngine::install(db.clone(), Arc::clone(&self.clock))
            .map_err(|e| format!("promoted host engine install: {e}"))?;
        // The promoted engine must keep resolving sharded logical names.
        for router in self.routers.values() {
            engine.register_router(Arc::clone(router));
        }

        // One standby became the host; re-provision the rest fresh from
        // the new host's log, under the promoted generation so a second
        // failover still out-ranks this one.
        let host_replicas = self.host_replicas.saturating_sub(1);
        let host_replication = if host_replicas > 0 {
            let set =
                ReplicaSet::<Follower>::build("host", db.replication_feed(), host_replicas, epoch)?;
            Some(Arc::new(set))
        } else {
            None
        };

        // Re-point every node at the new coordinator: host hook, engine
        // registration (the agent connection is minted at the promoted
        // generation), and coordinator recovery for the node's pending
        // branches. "At all times there is no loss of integrity between the
        // database and its linked files" — a branch whose host `Commit`
        // shipped finds its rows on the promoted host and is finished; one
        // whose `Commit` did not is presumed aborted.
        let mut report = HostFailoverReport { epoch, in_doubt_resolved: Vec::new() };
        for (name, node) in &self.nodes {
            node.server.set_host_hook(engine.clone());
            // Mint the agent connection fresh under the promoted
            // generation, over whichever carrier the node runs: its Hello
            // is answered with the promoted epoch.
            engine.register_server(ServerRegistration {
                name: name.clone(),
                agent: Arc::new(Self::mint_client(&node.main, node.wire.as_ref(), "engine")?),
                token_key: *node.server.token_key(),
                server: Arc::clone(&node.server),
                replication: node.replication.clone(),
            });
            let mut pending = node.server.pending_host_txns();
            pending.sort_unstable();
            for txid in pending {
                let commit = node.server.resolve_client_loss(txid);
                report.in_doubt_resolved.push((name.clone(), txid, commit));
            }
        }

        // Dump the flight recorders while the deposed engine is still in
        // place: its ring holds the pre-crash DML/commit spans, and the
        // nodes' rings hold the fence_raise plus the fenced decide events
        // of the in-doubt resolution above — one dump, the whole 2PC trail.
        self.dump_flight("fail_over_host");

        self.db = db;
        self.engine = engine;
        self.host_replicas = host_replicas;
        self.host_replication = host_replication;
        // The coordinator changed identity: swap the host-side instruments
        // to the promoted database/engine and count the failover.
        self.register_host_metrics();
        self.registry.counter("system.host_failovers").inc();
        Ok(report)
    }

    /// Host failover in one stroke: [`DataLinksSystem::crash_host`] then
    /// [`DataLinksSystem::promote_host`]. The split exists so tests and
    /// the mixed driver can exercise the fenced window in between (reads
    /// during the outage, zombie-coordinator decisions).
    pub fn fail_over_host(&mut self) -> Result<HostFailoverReport, String> {
        self.crash_host()?;
        self.promote_host()
    }

    // --- SQL-ish conveniences ---------------------------------------------------

    pub fn create_table(&self, schema: Schema) -> Result<(), String> {
        self.db.create_table(schema).map_err(|e| e.to_string())
    }

    pub fn define_datalink_column(
        &self,
        table: &str,
        column: &str,
        opts: DlColumnOptions,
    ) -> Result<(), String> {
        self.engine.define_datalink_column(table, column, opts).map_err(|e| e.to_string())
    }

    pub fn begin(&self) -> Txn {
        self.db.begin()
    }

    /// Retrieves the DATALINK value of `column` in the row at `key`,
    /// generating an access token of the requested kind — the paper's
    /// token-generating SELECT (§3.2, benchmark E1). Returns the parsed URL
    /// and the token-embedded path ready for `Lfs::open`.
    pub fn select_datalink(
        &self,
        table: &str,
        key: &Value,
        column: &str,
        kind: TokenKind,
    ) -> Result<(DatalinkUrl, String), String> {
        let url = self.select_datalink_url(table, key, column)?;
        let opts = self
            .engine
            .column_options(table, column)
            .ok_or_else(|| format!("{table}.{column} is not a DATALINK column"))?;
        let path = self.engine.token_path(&url, kind, opts.token_ttl_ms)?;
        Ok((url, path))
    }

    /// Retrieves the DATALINK value without token generation (the E1
    /// baseline arm).
    pub fn select_datalink_url(
        &self,
        table: &str,
        key: &Value,
        column: &str,
    ) -> Result<DatalinkUrl, String> {
        let schema = self.db.schema(table).map_err(|e| e.to_string())?;
        let idx = schema.column_index(column).ok_or_else(|| format!("no column {column}"))?;
        let row = self
            .db
            .get_committed(table, key)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("no row {key} in {table}"))?;
        match &row[idx] {
            Value::DataLink(url) => DatalinkUrl::parse(url),
            Value::Null => Err(format!("{table}.{column} is NULL for {key}")),
            other => Err(format!("unexpected value {other}")),
        }
    }

    // --- failure model -----------------------------------------------------------

    /// Simulates a whole-system crash: all volatile state (databases'
    /// caches, daemons, pending transactions, open descriptors) evaporates;
    /// what remains is the returned image of the disks.
    pub fn crash(self) -> CrashImage {
        self.dump_flight("crash");
        let DataLinksSystem {
            db,
            engine,
            clock,
            host_db,
            host_replicas,
            host_replication,
            host_outage,
            coord_epoch,
            nodes,
            routers: _,
            mounts: _,
            registry: _,
            pool_roster: _,
            last_flight_dump: _,
            flight_dump_dir,
        } = self;
        drop(engine);
        let host_env = db.env().clone();
        drop(db);
        // Host standby daemons die with the system (the set's shipper
        // joins on drop); recovery re-provisions fresh host standbys. If
        // the crash hits *during* a host outage, the only usable host disk is the
        // promotion target's — the dead host's own log is behind the fence.
        let (host_env, host_replicas) = match host_outage {
            Some(outage) => {
                (outage.replication.promote_target().env().clone(), host_replicas.saturating_sub(1))
            }
            None => (host_env, host_replicas),
        };
        drop(host_replication);
        // Crash-boundary disk faults: an armed torn tail shears *now* —
        // the live process believed those bytes durable; only the crash
        // reveals the suffix that never reached the platter.
        let _ = host_env.apply_crash_faults();
        let mut parts = Vec::new();
        for (_, node) in nodes {
            node.server.simulate_crash();
            let _ = node.parts.repo_env.apply_crash_faults();
            // Standby daemons die with the node; recovery re-provisions
            // fresh standbys of the recovered primary (NodeParts.replicas).
            parts.push(node.parts);
        }
        CrashImage {
            host_env,
            host_db,
            host_replicas,
            coord_epoch,
            clock,
            nodes: parts,
            flight_dump_dir,
        }
    }

    /// Rebuilds a system from a crash image and runs coordinated recovery:
    /// host database redo, then every node reconciled against the host's
    /// rows (`DlfmServer::recover`).
    pub fn recover(
        image: CrashImage,
    ) -> Result<(DataLinksSystem, HashMap<String, RecoveryReport>), String> {
        Self::assemble(image, Some(HashMap::new()))
    }

    // --- coordinated backup / restore (§4.4) ---------------------------------------

    /// Takes a transaction-consistent backup of the host database. Archived
    /// file versions (RECOVERY YES columns) complete the picture at restore
    /// time.
    pub fn backup(&self) -> Result<SystemBackup, String> {
        Ok(SystemBackup { host_env: self.db.backup().map_err(|e| e.to_string())? })
    }

    /// Coordinated point-in-time restore: consumes the running system,
    /// restores the host database from `backup` to `lsn`, then recovers the
    /// system on it — the one reconcile brings every node's files to the
    /// links and versions the restored rows reference (§4.4). Returns each
    /// node's [`RecoveryReport`], as [`DataLinksSystem::recover`] does.
    pub fn restore(
        self,
        backup: &SystemBackup,
        lsn: Lsn,
    ) -> Result<(DataLinksSystem, HashMap<String, RecoveryReport>), String> {
        // A restore stops the stack cleanly: each node's unforced repository
        // tail goes to disk first, so its rows name the versions its disk
        // holds and a row the restore moves back reads as a move back. The
        // running host's rows go along: a link made after the restore point
        // is handed back from its row there, even where the node kept no
        // record of it.
        for node in self.nodes.values() {
            node.server.repository().db().flush().map_err(|e| e.to_string())?;
        }
        let before = self.engine.host_views()?;
        let mut image = self.crash();
        image.host_env = backup.host_env.fork().map_err(|e| e.to_string())?;
        let opts = DbOptions { stop_at_lsn: Some(lsn), ..image.host_db };
        let db = Database::open_with(image.host_env.clone(), opts).map_err(|e| e.to_string())?;
        // Re-serialize the restored state into a fresh environment so the
        // new system's log continues cleanly from the restored state.
        db.checkpoint().map_err(|e| e.to_string())?;
        drop(db);

        Self::assemble(image, Some(before))
    }
}
