//! Namespace sharding: the stable path-hash router that fans one
//! *logical* file server out over N shard nodes.
//!
//! The paper's architecture already assumes many DLFM nodes coordinated by
//! the host database ("Enterprises can manage files on multiple distinct
//! file servers within a DataLinks database", §1), so partitioning one
//! server's namespace is a routing concern, not a protocol change: every
//! shard keeps the full per-node stack (repository, archive store, WAL
//! shipping, coordinator fencing), and a host transaction touching files
//! on several shards simply enlists one 2PC participant per shard — the
//! host's decision and the epoch fences fan out unchanged.
//!
//! [`ShardRouter`] routes the host's DML: the stable hash `path → shard`
//! ([`dl_dlfm::shard_of`]), deterministic across rebuilds (rebalance-free:
//! a crash/recover cycle must route every existing link back to the shard
//! that holds it) and uniform enough that random path sets stay within 2x
//! of even (pinned by proptest in `tests/sharding.rs`). The file side needs
//! no front of its own: the logical server's one DLFS holds one upcall
//! client per shard and sends each upcall to its path's shard by the same
//! function (`dl_dlfs::Dlfs`).

/// Stable path→shard router for one logical file server.
pub struct ShardRouter {
    logical: String,
    names: Vec<String>,
    routed: Vec<dl_obs::Counter>,
}

impl ShardRouter {
    /// A router over `shards` shard nodes of logical server `logical`.
    pub fn new(logical: &str, shards: usize) -> ShardRouter {
        let shards = shards.max(1);
        ShardRouter {
            logical: logical.to_string(),
            names: (0..shards).map(|i| Self::shard_name(logical, i)).collect(),
            routed: (0..shards).map(|_| dl_obs::Counter::default()).collect(),
        }
    }

    /// The node name of shard `idx` of `logical`: `"{logical}.s{idx}"`.
    /// This is the name the shard registers under everywhere — the node
    /// map, the engine, 2PC participant keys, metrics.
    pub fn shard_name(logical: &str, idx: usize) -> String {
        format!("{logical}.s{idx}")
    }

    /// The logical server name this router shards.
    pub fn logical(&self) -> &str {
        &self.logical
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.names.len()
    }

    /// All shard node names, in shard order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Node name of shard `idx`.
    pub fn name_of(&self, idx: usize) -> &str {
        &self.names[idx]
    }

    /// The shard index owning `path`. Pure: the same path maps to the
    /// same shard on every rebuild of the router — links never rebalance.
    pub fn shard_of(&self, path: &str) -> usize {
        dl_dlfm::shard_of(path, self.names.len())
    }

    /// Routes a link/unlink decision on `path`: returns the owning
    /// shard's node name and counts the decision (exported as the
    /// `engine.shard.<logical>.s<idx>.routed` counter).
    pub fn route(&self, path: &str) -> &str {
        let idx = self.shard_of(path);
        self.routed[idx].inc();
        &self.names[idx]
    }

    /// How many routing decisions shard `idx` has received.
    pub fn routed(&self, idx: usize) -> u64 {
        self.routed[idx].get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_stable_across_router_rebuilds() {
        let a = ShardRouter::new("srv", 4);
        let b = ShardRouter::new("srv", 4);
        for i in 0..256 {
            let path = format!("/data/file{i:04}.bin");
            assert_eq!(a.shard_of(&path), b.shard_of(&path));
        }
    }

    #[test]
    fn route_counts_per_shard_decisions() {
        let r = ShardRouter::new("srv", 2);
        let idx = r.shard_of("/data/x.bin");
        assert_eq!(r.route("/data/x.bin"), ShardRouter::shard_name("srv", idx));
        assert_eq!(r.routed(idx), 1);
        assert_eq!(r.routed(1 - idx), 0);
    }

    #[test]
    fn single_shard_routes_everything_to_shard_zero() {
        let r = ShardRouter::new("srv", 1);
        for i in 0..32 {
            assert_eq!(r.shard_of(&format!("/f{i}")), 0);
        }
    }
}
