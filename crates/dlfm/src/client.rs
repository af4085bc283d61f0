//! The client side of the agent/upcall protocol.
//!
//! The DataLinks engine and DLFS each hold a [`DlfmClient`]; a client holds
//! a [`Carrier`]; a carrier delivers a [`Message`] to a lane; a lane calls
//! [`crate::DlfmServer::handle`]. The typed calls — the agent hat
//! ([`AgentConnection`]: link/unlink + the 2PC decision, §2.2's child
//! agent) and the upcall hat (the DLFS conversation, §2.2's upcall
//! daemon) — are written once, here, over whichever carrier the node runs:
//! the in-process `LocalCarrier` (`crate::agent`) or a socket
//! [`crate::WireConn`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dl_net::Message;

use crate::modes::{ControlMode, OnUnlink};
use crate::server::{LinkVote, OpenDecision};
use crate::token::TokenKind;

/// The shard of `shards` that owns `path`: FNV-1a (64-bit) of the path's
/// bytes, modulo the count. Pure and salt-free, so the same path lands on
/// the same shard in every process and on every rebuild — links never
/// rebalance. The host's DML routing (`ShardRouter`) and DLFS's upcall
/// routing both call this one function.
pub fn shard_of(path: &str, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in path.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// How a request reaches the daemons and its reply comes back. Two
/// implementations: `LocalCarrier` hands the message to the node's lanes
/// in-process, [`crate::WireConn`] frames it onto a socket.
pub trait Carrier: Send + Sync {
    /// Delivers one request and waits for its reply. `Err` means the
    /// carrier failed (connection lost, call timed out, daemons gone) — a
    /// request the server refused comes back as `Ok(Message::Err(..))`.
    fn call(&self, msg: Message) -> Result<Message, String>;
    /// Blocks until the server's sync epoch — its open table's count of
    /// entries and branch marks that left — differs from `seen`, or the
    /// carrier can no longer tell.
    fn wait_epoch_change(&self, seen: u64);
}

/// What the DataLinks engine needs from an agent connection (§2.2: "all
/// subsequent requests (link/unlink operations) from the same connection
/// are served by this child agent"), plus its part in the host
/// transaction's two-phase commit.
pub trait AgentConnection: Send + Sync {
    /// Links a file in the context of `host_txid`; returns the branch's
    /// vote, which the host's metadata row keeps.
    fn link(
        &self,
        host_txid: u64,
        path: &str,
        mode: ControlMode,
        recovery: bool,
        on_unlink: OnUnlink,
    ) -> Result<LinkVote, String>;
    /// Unlinks a file in the context of `host_txid`.
    fn unlink(&self, host_txid: u64, path: &str) -> Result<(), String>;
    /// Sends nothing and returns `Ok(())`: the protocol has no prepare
    /// round — a `Link`/`Unlink` reply is the branch's vote. Kept only for
    /// the repo benchmark's agent probe (`benchmark/src/layers.rs`), which
    /// still calls it between a link or unlink and its commit.
    fn prepare(&self, _host_txid: u64) -> Result<(), String> {
        Ok(())
    }
    /// 2PC decision, commit path.
    fn commit(&self, host_txid: u64);
    /// 2PC decision, abort path.
    fn abort(&self, host_txid: u64);
    /// The file server this connection fronts.
    fn server_name(&self) -> &str;
    /// The coordinator epoch the connection was minted under.
    fn coord_epoch(&self) -> u64;
}

/// One connection to a DLFM node: the typed calls of the protocol over a
/// [`Carrier`], plus what the `Hello` handshake said. The **coordinator
/// epoch** current at connect time stamps every 2PC request, so after a
/// host failover raises the server's fence, traffic from clients minted
/// under the deposed host is recognizably stale and refused (see
/// `DlfmServer::fence_coordinator`).
pub struct DlfmClient {
    carrier: Arc<dyn Carrier>,
    server_name: String,
    coord_epoch: u64,
    strict_link: bool,
    dlfm_uid: u32,
    round_trips: AtomicU64,
}

impl DlfmClient {
    /// Says `Hello` over `carrier` and keeps the session it is told.
    pub fn connect(carrier: Arc<dyn Carrier>, client: &str) -> Result<DlfmClient, String> {
        match carrier.call(Message::Hello { client: client.to_string() })? {
            Message::HelloAck { server, coord_epoch, strict_link, dlfm_uid, dlfm_gid: _ } => {
                Ok(DlfmClient {
                    carrier,
                    server_name: server,
                    coord_epoch,
                    strict_link,
                    dlfm_uid,
                    round_trips: AtomicU64::new(0),
                })
            }
            other => Err(format!("bad hello reply: {other:?}")),
        }
    }

    /// One round trip.
    pub fn call(&self, msg: Message) -> Result<Message, String> {
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        self.carrier.call(msg)
    }

    fn call_unit(&self, msg: Message) -> Result<(), String> {
        match self.call(msg)? {
            Message::Ok => Ok(()),
            Message::Err(e) => Err(e),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }
}

impl AgentConnection for DlfmClient {
    fn link(
        &self,
        host_txid: u64,
        path: &str,
        mode: ControlMode,
        recovery: bool,
        on_unlink: OnUnlink,
    ) -> Result<LinkVote, String> {
        match self.call(Message::Link {
            txid: host_txid,
            coord_epoch: self.coord_epoch,
            path: path.to_string(),
            mode: mode.into(),
            recovery,
            on_unlink: on_unlink.into(),
        })? {
            Message::LinkVote { size, mtime, uid, gid, mode } => {
                Ok(LinkVote { size, mtime, uid, gid, mode })
            }
            Message::Err(e) => Err(e),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    fn unlink(&self, host_txid: u64, path: &str) -> Result<(), String> {
        self.call_unit(Message::Unlink {
            txid: host_txid,
            coord_epoch: self.coord_epoch,
            path: path.to_string(),
        })
    }

    fn commit(&self, host_txid: u64) {
        // A carrier lost mid-decide is fine: the server's disconnect sweep
        // reads the outcome off the host's metadata rows and applies it.
        let _ = self.call(Message::Commit { txid: host_txid, coord_epoch: self.coord_epoch });
    }

    fn abort(&self, host_txid: u64) {
        let _ = self.call(Message::Abort { txid: host_txid, coord_epoch: self.coord_epoch });
    }

    fn server_name(&self) -> &str {
        &self.server_name
    }

    fn coord_epoch(&self) -> u64 {
        self.coord_epoch
    }
}

/// The connection is the host transaction's participant on its node (the
/// paper's "operations done in DLFM are treated as a sub-transaction of
/// the host database transaction").
impl dl_minidb::Participant for DlfmClient {
    fn commit(&self, txid: u64) {
        AgentConnection::commit(self, txid)
    }

    fn abort(&self, txid: u64) {
        AgentConnection::abort(self, txid)
    }
}

/// The upcall hat: everything DLFS asks its DLFM node.
impl DlfmClient {
    /// Validates a token on its own: for an open that makes no open check.
    pub fn validate_token(&self, path: &str, token: &str, uid: u32) -> Result<TokenKind, String> {
        match self.call(Message::ValidateToken {
            path: path.to_string(),
            token: token.to_string(),
            uid,
        })? {
            Message::TokenKindIs(k) => TokenKind::try_from(k),
            Message::Err(e) => Err(e),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    /// Runs the open check, validating the `token` the open presents
    /// first (see `DlfmServer::open_check`). The `u64` is the sync epoch
    /// as it stood *before* the check ran — what a `Busy` caller hands to
    /// [`DlfmClient::wait_epoch_change`]. Every removal from the server's
    /// open table moves that epoch, so a release that lands between the
    /// check and the wait is never slept through. It means nothing beside
    /// any other decision.
    pub fn open_check(
        &self,
        path: &str,
        uid: u32,
        wanted: TokenKind,
        opener: u64,
        token: Option<&str>,
    ) -> (u64, OpenDecision) {
        let reply = self.call(Message::OpenCheck {
            path: path.to_string(),
            uid,
            wanted: wanted.into(),
            opener,
            token: token.unwrap_or_default().to_string(),
        });
        let decision = match reply {
            Ok(Message::OpenApproved { uid, gid }) => {
                OpenDecision::Approved { open_as: dl_fskit::Cred { uid, gid } }
            }
            Ok(Message::OpenNotManaged) => OpenDecision::NotManaged,
            Ok(Message::OpenBusy(epoch)) => return (epoch, OpenDecision::Busy),
            Ok(Message::OpenRejected(e) | Message::Err(e)) | Err(e) => OpenDecision::Rejected(e),
            Ok(other) => OpenDecision::Rejected(format!("unexpected reply {other:?}")),
        };
        (0, decision)
    }

    pub fn close_notify(
        &self,
        path: &str,
        opener: u64,
        wrote: bool,
        size: u64,
        mtime: u64,
    ) -> Result<(), String> {
        self.call_unit(Message::CloseNotify { path: path.to_string(), opener, wrote, size, mtime })
    }

    pub fn mutation_check(&self, path: &str) -> Result<(), String> {
        self.call_unit(Message::MutationCheck { path: path.to_string() })
    }

    /// Registers a strict-mode open ahead of the physical open; `Err` when
    /// the server refuses it (a live link branch holds the path).
    pub fn register_open(&self, path: &str, uid: u32, opener: u64) -> Result<(), String> {
        self.call_unit(Message::RegisterOpen { path: path.to_string(), uid, opener })
    }

    pub fn unregister_open(&self, path: &str, opener: u64) {
        let _ = self.call(Message::UnregisterOpen { path: path.to_string(), opener });
    }

    /// Is strict-link registration enabled on the server?
    pub fn strict_link(&self) -> bool {
        self.strict_link
    }

    /// The identity DLFM daemons run as (DLFS compares file owners to it).
    pub fn dlfm_uid(&self) -> u32 {
        self.dlfm_uid
    }

    /// Blocks until the epoch moves past `seen`.
    pub fn wait_epoch_change(&self, seen: u64) {
        self.carrier.wait_epoch_change(seen)
    }

    /// Round-trips made through this endpoint (benches).
    pub fn round_trip_count(&self) -> u64 {
        self.round_trips.load(Ordering::Relaxed)
    }
}
