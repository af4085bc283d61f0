//! The DataLinks engine — the RDBMS extension (§2, Figure 1).
//!
//! The engine hooks the host database's DML path: "whenever a reference to
//! a file is inserted or deleted from a DATALINK column, DataLinks engine
//! contacts the appropriate DLFM directing it to start (link) or stop
//! (unlink) managing the file" (§2.2). It also:
//!
//! * generates multi-type access tokens when a DATALINK value is retrieved
//!   (§4.1) using the per-server shared secret;
//! * maintains the `__dl_meta` system table (file size, modification time,
//!   version, and the original owner and permission bits a link's vote
//!   read) *within the same transaction context* as the triggering
//!   statement (§4.3), via observer-injected DML — the host's `Commit` of
//!   that row is a link's one forced write;
//! * serves as DLFM's [`HostHook`]: close processing commits its metadata
//!   refresh — the update's one commit point — through a host transaction
//!   here, and a live branch whose decision was lost asks it one thing
//!   only — the version a file's metadata row records;
//! * hands recovery the same rows for a whole node at once
//!   ([`DataLinksEngine::host_views`]), which settle updates, links and
//!   unlinks alike.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dl_dlfm::{
    AccessToken, AgentConnection, ControlMode, DlfmClient, DlfmServer, HostFile, HostHook,
    HostView, OnUnlink, TokenKey, TokenKind,
};
use dl_fskit::Clock;
use dl_minidb::{
    Column, ColumnType, Database, DbResult, DmlEvent, DmlObserver, InjectedDml, Lsn, Schema,
    SharedRow, Value,
};
use dl_repl::{ReplicaSet, Standby};
use parking_lot::{Mutex, RwLock};

use crate::datalink::{DatalinkUrl, DlColumnOptions};
use crate::shard::ShardRouter;

/// System table holding per-file metadata (§4.3).
pub const META_TABLE: &str = "__dl_meta";
/// System table persisting DATALINK column definitions.
pub const COLUMNS_TABLE: &str = "__dl_columns";

/// Ceiling of the freshness-token catch-up wait: no read ever waits on a
/// standby longer than this before falling back to the primary. Until PR 5
/// this was the *fixed* wait; now it only caps the adaptive bound
/// ([`LagEwma`]), so a persistently lagging set degrades exactly to the
/// old behaviour while a healthy set costs readers microseconds.
pub const FRESHNESS_WAIT: std::time::Duration = std::time::Duration::from_millis(25);

/// Floor of the adaptive freshness wait: even a perfectly caught-up set
/// keeps a small window to ride out a ship-daemon scheduling hiccup.
pub const FRESHNESS_WAIT_FLOOR: std::time::Duration = std::time::Duration::from_micros(500);

/// EWMA of observed replication lag, measured where the engine actually
/// feels it: how long a freshness-token read had to wait for its picked
/// standby to reach the caller's write LSN (a timed-out wait records the
/// full bound — a saturated observation, since the true lag exceeded it).
/// The wait bound for the next read is `4 x EWMA`, clamped to
/// [`FRESHNESS_WAIT_FLOOR`] .. [`FRESHNESS_WAIT`]: healthy sets converge
/// to the floor, stalled sets back off to the PR 4 fixed wait.
///
/// A smoothed gauge, not an invariant: the read-modify-write is
/// deliberately racy — a lost update skews one sample of an average.
pub struct LagEwma {
    lag_ns: AtomicU64,
}

impl Default for LagEwma {
    fn default() -> Self {
        // Seed at ceiling/4 so the very first reads use the conservative
        // PR 4 bound and adapt *down* from evidence, never up from hope.
        LagEwma { lag_ns: AtomicU64::new((FRESHNESS_WAIT / 4).as_nanos() as u64) }
    }
}

impl LagEwma {
    /// Folds one observed catch-up wait in (alpha = 1/4).
    fn record(&self, observed: std::time::Duration) {
        let sample = observed.as_nanos().min(u64::MAX as u128) as u64;
        let old = self.lag_ns.load(Ordering::Relaxed);
        self.lag_ns.store(old - (old >> 2) + (sample >> 2), Ordering::Relaxed);
    }

    /// Smoothed lag estimate.
    pub fn current(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.lag_ns.load(Ordering::Relaxed))
    }

    /// The wait bound the next freshness read should use.
    pub fn bound(&self) -> std::time::Duration {
        (self.current() * 4).clamp(FRESHNESS_WAIT_FLOOR, FRESHNESS_WAIT)
    }
}

/// Engine operation counters (and the freshness-wait distribution).
#[derive(Debug, Default)]
pub struct EngineStats {
    pub links: dl_obs::Counter,
    pub unlinks: dl_obs::Counter,
    pub tokens_generated: dl_obs::Counter,
    pub meta_updates: dl_obs::Counter,
    /// Read validations/reads routed to replicas (vs the primary).
    pub replica_routed: dl_obs::Counter,
    pub primary_routed: dl_obs::Counter,
    /// Replica-routed reads whose *content* fell back to the primary
    /// because the picked standby had not applied the link/version yet
    /// (replication lag; validation still happened at the replica).
    pub replica_fallbacks: dl_obs::Counter,
    /// Freshness-token reads whose picked standby caught up within the
    /// wait window and served the read itself.
    pub freshness_waits: dl_obs::Counter,
    /// Freshness-token reads rerouted to the primary because the picked
    /// standby stayed behind the token past the wait window.
    pub freshness_fallbacks: dl_obs::Counter,
    /// How long freshness-token reads stalled for the standby to catch up:
    /// the elapsed wait when it did, the full window when it timed out.
    pub freshness_wait_ns: dl_obs::Histogram,
}

/// A file server known to the engine.
pub struct ServerRegistration {
    pub name: String,
    /// Agent connection carrying link/unlink requests (and 2PC), over
    /// whichever carrier the node runs; the engine cannot tell which.
    pub agent: Arc<DlfmClient>,
    /// Shared token secret (matches the server's `DlfmConfig`), ready to
    /// sign with.
    pub token_key: TokenKey,
    /// The node's server: the routed read path validates and reads on it.
    pub server: Arc<DlfmServer>,
    /// Hot standbys serving the routed read path, when provisioned.
    pub replication: Option<Arc<ReplicaSet>>,
}

/// Per-node read lane: the routed read path admits one validation at a
/// time per validating node — a registration's primary or one of its
/// replicas, taken in one place above the arm split — the node's modelled
/// daemon capacity, the paper's prototype shape, so a10's replica-count
/// sweep compares equal per-node capacity.
///
/// This is a deliberate *model*, not an accident: in-process, every
/// "node" shares one machine, so without a per-node capacity bound the
/// group-commit pipeline would batch all concurrent validations on the
/// primary and replica fan-out could never show its distributed-capacity
/// win. The lane applies only to the routed read path — the DLFS upcall
/// path (the upcall lane) is untouched.
type ReadLane = Mutex<()>;

/// The read-lane key of a replica of registration `node`: `srv1/srv1#0`.
/// A registration's own name is its primary's key; the node prefix keeps
/// apart the replicas of shard nodes, which share their logical server's
/// standby names.
fn replica_lane(node: &str, standby: &Standby) -> String {
    format!("{node}/{}", standby.name)
}

/// Registered DATALINK columns of one table: (index, name, options).
type TableDlColumns = Vec<(usize, String, DlColumnOptions)>;

/// The engine. Register it as an observer on the host database and as the
/// host hook on every DLFM.
pub struct DataLinksEngine {
    db: Database,
    clock: Arc<dyn Clock>,
    servers: RwLock<HashMap<String, ServerRegistration>>,
    columns: RwLock<HashMap<String, TableDlColumns>>,
    read_lanes: RwLock<HashMap<String, Arc<ReadLane>>>,
    /// Observed replication lag per server. Keyed separately from the
    /// registration so the estimate survives failover re-registration —
    /// the new primary's standbys start from the learned bound, not the
    /// conservative seed.
    lag_ewmas: RwLock<HashMap<String, Arc<LagEwma>>>,
    /// Shard routers of *logical* servers whose namespace is partitioned
    /// across several registered shard nodes. A DATALINK URL names the
    /// logical server; the router resolves it (plus the file path) to the
    /// shard registration that owns the link.
    routers: RwLock<HashMap<String, Arc<ShardRouter>>>,
    /// Coordinator-side trace ring: the DML interception and metadata
    /// commits that open/close each 2PC cycle (the DLFM servers record the
    /// participant side into their own rings).
    recorder: Arc<dl_obs::FlightRecorder>,
    /// `engine.host` — the `source` stamped on every span event.
    flight_source: Arc<str>,
    pub stats: EngineStats,
}

impl DataLinksEngine {
    /// Creates (or re-attaches after recovery) the engine on `db`: ensures
    /// the system tables, loads persisted DATALINK column definitions, and
    /// registers the DML observer.
    pub fn install(db: Database, clock: Arc<dyn Clock>) -> DbResult<Arc<DataLinksEngine>> {
        Self::ensure_tables(&db)?;
        let engine = Arc::new(DataLinksEngine {
            db: db.clone(),
            clock,
            servers: RwLock::new(HashMap::new()),
            columns: RwLock::new(HashMap::new()),
            read_lanes: RwLock::new(HashMap::new()),
            lag_ewmas: RwLock::new(HashMap::new()),
            routers: RwLock::new(HashMap::new()),
            recorder: Arc::new(dl_obs::FlightRecorder::new(dl_dlfm::FLIGHT_RING_CAPACITY)),
            flight_source: Arc::from("engine.host"),
            stats: EngineStats::default(),
        });
        engine.load_column_registry()?;
        db.register_observer(engine.clone());
        Ok(engine)
    }

    fn ensure_tables(db: &Database) -> DbResult<()> {
        if !db.has_table(META_TABLE) {
            db.create_table(
                Schema::new(
                    META_TABLE,
                    vec![
                        Column::new("url", ColumnType::Text),
                        Column::new("size", ColumnType::Int),
                        Column::new("mtime", ColumnType::Int),
                        Column::new("version", ColumnType::Int),
                        Column::new("orig_uid", ColumnType::Int),
                        Column::new("orig_gid", ColumnType::Int),
                        Column::new("orig_mode", ColumnType::Int),
                    ],
                    "url",
                )
                .expect("static schema"),
            )?;
        }
        if !db.has_table(COLUMNS_TABLE) {
            db.create_table(
                Schema::new(
                    COLUMNS_TABLE,
                    vec![
                        Column::new("colkey", ColumnType::Text),
                        Column::new("tbl", ColumnType::Text),
                        Column::new("col", ColumnType::Text),
                        Column::new("mode", ColumnType::Text),
                        Column::new("recovery", ColumnType::Bool),
                        Column::new("on_unlink", ColumnType::Text),
                        Column::new("token_ttl_ms", ColumnType::Int),
                    ],
                    "colkey",
                )
                .expect("static schema"),
            )?;
        }
        Ok(())
    }

    fn load_column_registry(&self) -> DbResult<()> {
        let mut columns: HashMap<String, TableDlColumns> = HashMap::new();
        for row in self.db.scan_committed(COLUMNS_TABLE)? {
            let table = row[1].as_text().unwrap_or_default().to_string();
            let column = row[2].as_text().unwrap_or_default().to_string();
            let Ok(schema) = self.db.schema(&table) else { continue };
            let Some(idx) = schema.column_index(&column) else { continue };
            let mode: ControlMode = match row[3].as_text().and_then(|s| s.parse().ok()) {
                Some(m) => m,
                None => continue,
            };
            let opts = DlColumnOptions {
                mode,
                recovery: matches!(row[4], Value::Bool(true)),
                on_unlink: match row[5].as_text() {
                    Some("delete") => OnUnlink::Delete,
                    _ => OnUnlink::Restore,
                },
                token_ttl_ms: row[6].as_int().unwrap_or(60_000) as u64,
            };
            columns.entry(table).or_default().push((idx, column, opts));
        }
        *self.columns.write() = columns;
        Ok(())
    }

    /// Registers a file server's agent connection and token secret.
    /// Re-registering a name replaces the previous registration — failover
    /// swaps the promoted server in this way.
    pub fn register_server(&self, reg: ServerRegistration) {
        let standbys = reg.replication.iter().flat_map(|set| set.standbys());
        let replicas = standbys.map(|standby| replica_lane(&reg.name, standby));
        let nodes = std::iter::once(reg.name.clone()).chain(replicas);
        self.read_lanes.write().extend(nodes.map(|node| (node, Arc::new(ReadLane::new(())))));
        self.lag_ewmas.write().entry(reg.name.clone()).or_default();
        self.servers.write().insert(reg.name.clone(), reg);
    }

    /// Registers the shard router of a partitioned logical server.
    /// Traffic addressed to `router.logical()` resolves per path to one of
    /// the shard registrations (which register under their shard names via
    /// [`DataLinksEngine::register_server`] as usual).
    pub fn register_router(&self, router: Arc<ShardRouter>) {
        self.routers.write().insert(router.logical().to_string(), router);
    }

    /// Resolves `server` (possibly a sharded logical name) plus the file
    /// `path` to the owning registration. `dml` marks a link/unlink
    /// routing decision, which the router counts for the
    /// `engine.shard.*.routed` metrics — token generation and reads
    /// resolve silently.
    fn resolve<'a>(
        &self,
        servers: &'a HashMap<String, ServerRegistration>,
        server: &str,
        path: &str,
        dml: bool,
    ) -> Result<&'a ServerRegistration, String> {
        if let Some(reg) = servers.get(server) {
            return Ok(reg);
        }
        let routers = self.routers.read();
        let Some(router) = routers.get(server) else {
            return Err(format!("unknown file server {server}"));
        };
        let shard = if dml {
            router.route(path).to_string()
        } else {
            router.name_of(router.shard_of(path)).to_string()
        };
        servers.get(&shard).ok_or_else(|| format!("shard {shard} of {server} is not registered"))
    }

    /// The adaptive freshness-wait bound currently in force for `server`
    /// (see [`LagEwma`]); `FRESHNESS_WAIT` when the server is unknown.
    pub fn freshness_bound(&self, server: &str) -> std::time::Duration {
        self.lag_ewmas.read().get(server).map(|e| e.bound()).unwrap_or(FRESHNESS_WAIT)
    }

    // --- routed read path (replica read routing) -------------------------------

    /// Validates a read token at a replica of `server` (round-robin) when
    /// standbys exist, at the primary otherwise. Writes never route here:
    /// the open/close update protocol stays on the primary.
    pub fn validate_read_token(
        &self,
        server: &str,
        path: &str,
        token: &str,
        uid: u32,
    ) -> Result<TokenKind, String> {
        self.route_read(server, path, token, uid, false, None).map(|(kind, _)| kind)
    }

    /// Validates and serves the last committed bytes of `path` through the
    /// routed read path: by a standby from the node's archive store when
    /// replicated (the primary does no work at all), by the primary
    /// otherwise.
    pub fn serve_read(
        &self,
        server: &str,
        path: &str,
        token: &str,
        uid: u32,
    ) -> Result<Vec<u8>, String> {
        self.route_read(server, path, token, uid, true, None)
            .and_then(|(_, bytes)| bytes.ok_or_else(|| format!("no readable content for {path}")))
    }

    /// [`DataLinksEngine::serve_read`] with a *freshness token*: the log
    /// tail of `server`'s repository as of the caller's last write
    /// (`DataLinksSystem::freshness_token`). The routed read then
    /// guarantees read-your-writes: the picked standby either catches up
    /// to `min_lsn` within [`FRESHNESS_WAIT`] or the read reroutes to the
    /// primary — it can never observe pre-write state.
    pub fn serve_read_fresh(
        &self,
        server: &str,
        path: &str,
        token: &str,
        uid: u32,
        min_lsn: Lsn,
    ) -> Result<Vec<u8>, String> {
        self.route_read(server, path, token, uid, true, Some(min_lsn))
            .and_then(|(_, bytes)| bytes.ok_or_else(|| format!("no readable content for {path}")))
    }

    /// `fetch` selects the two routed operations: token validation alone
    /// (cheap, content untouched — a valid token must validate even when
    /// the bytes are momentarily unservable) or validation + content.
    /// `min_lsn` is the read-your-writes freshness bound, if any.
    fn route_read(
        &self,
        server: &str,
        path: &str,
        token: &str,
        uid: u32,
        fetch: bool,
        min_lsn: Option<Lsn>,
    ) -> Result<(TokenKind, Option<Vec<u8>>), String> {
        let (mut replica, primary, node) = {
            let servers = self.servers.read();
            let reg = self.resolve(&servers, server, path, false)?;
            (
                reg.replication.as_ref().map(|set| Arc::clone(set.pick())),
                Arc::clone(&reg.server),
                reg.name.clone(),
            )
        };
        let node = node.as_str();
        // Read-your-writes: a standby that cannot reach the caller's write
        // LSN within the wait window is dropped from this read — the
        // primary (trivially fresh) serves it instead. The window follows
        // the observed lag (see `LagEwma`): a caught-up set costs readers
        // the floor, a stalled one backs off to the `FRESHNESS_WAIT`
        // ceiling — PR 4's fixed behaviour.
        if let (Some(standby), Some(min)) = (&replica, min_lsn) {
            // The token is a log *tail*: the write's last record (the
            // close's unforced commit) may still sit in the primary's batch,
            // where no shipper can see it. Flush it out, or the wait below
            // would depend on the shipper's idle poll.
            let repo = primary.repository().db();
            if repo.durable_lsn() < min {
                let _ = repo.flush();
            }
            let ewma = self.lag_ewmas.read().get(node).cloned().unwrap_or_default();
            let bound = ewma.bound();
            let started = std::time::Instant::now();
            if standby.wait_applied(min, bound) {
                ewma.record(started.elapsed());
                self.stats.freshness_wait_ns.record_duration(started.elapsed());
                self.stats.freshness_waits.inc();
            } else {
                // Saturated observation: the true lag exceeded the bound.
                ewma.record(bound);
                self.stats.freshness_wait_ns.record_duration(bound);
                self.stats.freshness_fallbacks.inc();
                replica = None;
            }
        }
        match &replica {
            Some(_) => self.stats.replica_routed.inc(),
            None => self.stats.primary_routed.inc(),
        }
        // The validating node's lane covers validation only: content fetch
        // is unserialized on both arms, so the a10 replica-count sweep
        // compares equal per-node work.
        let kind = {
            let replica_key = replica.as_ref().map(|standby| replica_lane(node, standby));
            let lane = self.read_lanes.read().get(replica_key.as_deref().unwrap_or(node)).cloned();
            let _permit = lane.as_ref().map(|l| l.lock());
            match &replica {
                Some(standby) => standby.validate_read_token(path, token, uid)?,
                None => primary.validate_token(path, token, uid)?,
            }
        };
        let bytes = match (&replica, fetch) {
            (_, false) => None,
            (Some(standby), true) => match standby.serve_read(path, uid) {
                Ok(bytes) => Some(bytes),
                // The standby is behind (link or version not yet applied)
                // or the version not yet archived: a valid-token read must
                // not fail on a healthy system — serve the content from the
                // primary.
                Err(_) => {
                    self.stats.replica_fallbacks.inc();
                    Some(primary.read_linked(path)?)
                }
            },
            (None, true) => Some(primary.read_linked(path)?),
        };
        Ok((kind, bytes))
    }

    /// Declares `table.column` to be a DATALINK column with `opts`.
    /// Persisted in `__dl_columns` so recovery can rebuild the registry.
    pub fn define_datalink_column(
        &self,
        table: &str,
        column: &str,
        opts: DlColumnOptions,
    ) -> DbResult<()> {
        let schema = self.db.schema(table)?;
        let idx = schema
            .column_index(column)
            .ok_or_else(|| dl_minidb::DbError::NoSuchColumn(column.to_string()))?;
        if schema.columns[idx].ty != ColumnType::DataLink {
            return Err(dl_minidb::DbError::SchemaMismatch(format!(
                "column {table}.{column} is not of type DATALINK"
            )));
        }
        let mut tx = self.db.begin();
        tx.insert(
            COLUMNS_TABLE,
            vec![
                Value::Text(format!("{table}.{column}")),
                Value::Text(table.to_string()),
                Value::Text(column.to_string()),
                Value::Text(opts.mode.to_string()),
                Value::Bool(opts.recovery),
                Value::Text(match opts.on_unlink {
                    OnUnlink::Restore => "restore".into(),
                    OnUnlink::Delete => "delete".into(),
                }),
                Value::Int(opts.token_ttl_ms as i64),
            ],
        )?;
        tx.commit()?;
        self.columns.write().entry(table.to_string()).or_default().push((
            idx,
            column.to_string(),
            opts,
        ));
        Ok(())
    }

    /// Options of a registered column, if any.
    pub fn column_options(&self, table: &str, column: &str) -> Option<DlColumnOptions> {
        self.columns
            .read()
            .get(table)?
            .iter()
            .find(|(_, name, _)| name == column)
            .map(|(_, _, opts)| *opts)
    }

    /// The host's view of every file-server node, from the committed rows:
    /// per node, path → the version and original attributes of the file's
    /// `__dl_meta` row and the options of the DATALINK column whose row
    /// references it (one scan per table with such a column). A sharded
    /// logical server's paths go to the shard its router assigns them.
    /// This is all the one reconcile (`DlfmServer::recover`) takes from
    /// the host.
    pub fn host_views(&self) -> Result<HashMap<String, HostView>, String> {
        let mut options = HashMap::new();
        for (table, dl_columns) in self.columns.read().iter() {
            for row in self.db.scan_committed(table).map_err(|e| e.to_string())? {
                for (idx, _, opts) in dl_columns {
                    if let Ok(Some(url)) = Self::value_url(&row[*idx]) {
                        options.insert(url.to_string(), *opts);
                    }
                }
            }
        }
        let routers = self.routers.read();
        let mut views: HashMap<String, HostView> = HashMap::new();
        for row in self.db.scan_committed(META_TABLE).map_err(|e| e.to_string())? {
            let key = row[0].as_text().unwrap_or_default();
            let opts = options.get(key).copied().unwrap_or(DlColumnOptions::new(ControlMode::Rff));
            let url = DatalinkUrl::parse(key)?;
            let node = match routers.get(&url.server) {
                Some(router) => router.name_of(router.shard_of(&url.path)).to_string(),
                None => url.server,
            };
            let int = |i: usize| row[i].as_int().unwrap_or(0);
            let file = HostFile {
                version: row[3].as_int().unwrap_or(1) as u64,
                mode: opts.mode,
                recovery: opts.recovery,
                on_unlink: opts.on_unlink,
                orig_uid: int(4) as u32,
                orig_gid: int(5) as u32,
                orig_mode: int(6) as u16,
            };
            views.entry(node).or_default().insert(url.path, file);
        }
        Ok(views)
    }

    fn value_url(value: &Value) -> Result<Option<DatalinkUrl>, String> {
        match value {
            Value::Null => Ok(None),
            Value::DataLink(url) => DatalinkUrl::parse(url).map(Some),
            other => Err(format!("DATALINK column holds non-DATALINK value {other}")),
        }
    }

    /// Generates a token-embedded path for `url` (§4.1). The application
    /// opens this path through the ordinary file-system API.
    pub fn token_path(
        &self,
        url: &DatalinkUrl,
        kind: TokenKind,
        ttl_ms: u64,
    ) -> Result<String, String> {
        let servers = self.servers.read();
        let reg = self.resolve(&servers, &url.server, &url.path, false)?;
        // The token is signed with the *logical* server name — every shard
        // of a partitioned server validates under that name with the same
        // shared secret, so routing never invalidates a token.
        let token = AccessToken::generate(
            &reg.token_key,
            &url.server,
            &url.path,
            kind,
            self.clock.now_ms() + ttl_ms,
        );
        self.stats.tokens_generated.inc();
        Ok(dl_dlfm::embed_token(&url.path, &token))
    }

    /// Host-side metadata row for `url`, if present: (size, mtime, version).
    pub fn file_meta(&self, url: &DatalinkUrl) -> Option<(u64, u64, u64)> {
        let row = self.meta_row(&url.to_string())?;
        Some((row[1].as_int()? as u64, row[2].as_int()? as u64, row[3].as_int()? as u64))
    }

    /// The committed `__dl_meta` row keyed by `url`, if any.
    fn meta_row(&self, url: &str) -> Option<SharedRow> {
        self.db.get_committed(META_TABLE, &Value::Text(url.to_string())).ok().flatten()
    }

    /// The host database this engine is attached to.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Aborts every undecided host transaction that enlisted node `server`
    /// (`Database::abort_undecided_enlisting`). File-server failover calls
    /// it once the old primary is down, before it reads the host rows.
    pub fn abort_undecided_on(&self, server: &str) {
        self.db.abort_undecided_enlisting(&participant_name(server));
    }

    /// The coordinator-side flight recorder (dumped on crash/failover
    /// alongside the per-node DLFM rings).
    pub fn flight_recorder(&self) -> &Arc<dl_obs::FlightRecorder> {
        &self.recorder
    }
}

/// The name node `server` enlists in a host transaction under.
fn participant_name(server: &str) -> String {
    format!("dlfm@{server}")
}

/// Enlists `reg`'s node in `txid` *before* its link/unlink is sent, so no
/// node holds a branch the host cannot abort. Under the *shard* name: the
/// host dedupes by name, so the decision fans out to exactly the shards a
/// transaction touched.
fn enlist(db: &Database, txid: u64, reg: &ServerRegistration) {
    let agent = Arc::clone(&reg.agent) as Arc<dyn dl_minidb::Participant>;
    db.enlist_participant(txid, &participant_name(&reg.name), agent);
}

impl DmlObserver for DataLinksEngine {
    fn on_dml(&self, db: &Database, event: &DmlEvent<'_>) -> Result<(), String> {
        let columns = self.columns.read();
        let Some(dl_columns) = columns.get(event.table) else {
            return Ok(());
        };

        for (idx, _name, opts) in dl_columns {
            let old = event.before.map(|row| &row[*idx]).unwrap_or(&Value::Null);
            let new = event.after.map(|row| &row[*idx]).unwrap_or(&Value::Null);
            if old == new {
                continue;
            }
            let old_url = Self::value_url(old)?;
            let new_url = Self::value_url(new)?;

            let servers = self.servers.read();
            if let Some(url) = old_url {
                let reg = self.resolve(&servers, &url.server, &url.path, true)?;
                self.recorder.record(
                    &self.flight_source,
                    "dml",
                    event.txid,
                    &url.path,
                    format!("unlink server={}", reg.name),
                );
                enlist(db, event.txid, reg);
                reg.agent.unlink(event.txid, &url.path)?;
                db.inject_dml(
                    event.txid,
                    InjectedDml::Delete {
                        table: META_TABLE.to_string(),
                        key: Value::Text(url.to_string()),
                    },
                );
                self.stats.unlinks.inc();
            }
            if let Some(url) = new_url {
                let reg = self.resolve(&servers, &url.server, &url.path, true)?;
                self.recorder.record(
                    &self.flight_source,
                    "dml",
                    event.txid,
                    &url.path,
                    format!("link server={} mode={:?}", reg.name, opts.mode),
                );
                enlist(db, event.txid, reg);
                let vote = reg.agent.link(
                    event.txid,
                    &url.path,
                    opts.mode,
                    opts.recovery,
                    opts.on_unlink,
                )?;
                db.inject_dml(
                    event.txid,
                    InjectedDml::Upsert {
                        table: META_TABLE.to_string(),
                        row: vec![
                            Value::Text(url.to_string()),
                            Value::Int(vote.size as i64),
                            Value::Int(vote.mtime as i64),
                            Value::Int(1),
                            Value::Int(i64::from(vote.uid)),
                            Value::Int(i64::from(vote.gid)),
                            Value::Int(i64::from(vote.mode)),
                        ],
                    },
                );
                self.stats.links.inc();
            }
        }
        Ok(())
    }
}

/// DLFM's window back into the host database (§4.3–§4.4).
impl HostHook for DataLinksEngine {
    fn state_id(&self) -> u64 {
        self.db.state_id()
    }

    fn commit_file_update(
        &self,
        url: &str,
        new_size: u64,
        new_mtime: u64,
        new_version: u64,
    ) -> Result<Lsn, String> {
        let mut tx = self.db.begin();
        let txid = tx.id();
        let key = Value::Text(url.to_string());
        // The link's original attributes stay: the row keeps them for as
        // long as the file is linked.
        let row = tx.get_for_update(META_TABLE, &key).map_err(|e| e.to_string())?;
        let Some(row) = row else {
            return Err(format!("{url} has no metadata row: the file is not linked"));
        };
        let mut row = row.to_vec();
        row[1] = Value::Int(new_size as i64);
        row[2] = Value::Int(new_mtime as i64);
        row[3] = Value::Int(new_version as i64);
        tx.update(META_TABLE, &key, row).map_err(|e| e.to_string())?;
        // No participant: this commit record is the update's decision.
        let lsn = tx.commit().map_err(|e| e.to_string())?;
        self.stats.meta_updates.inc();
        self.recorder.record(
            &self.flight_source,
            "commit_update",
            txid,
            url,
            format!("size={new_size} version={new_version}"),
        );
        Ok(lsn)
    }

    fn file_version(&self, url: &str) -> Option<u64> {
        self.meta_row(url).and_then(|row| row[3].as_int()).map(|v| v as u64)
    }

    fn abort_undecided(&self, host_txid: u64) {
        self.db.abort_undecided(host_txid);
    }
}
