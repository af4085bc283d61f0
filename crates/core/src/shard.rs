//! Namespace sharding: a stable path-hash router plus the sharded DLFS
//! front that fans one *logical* file server out over N shard nodes.
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
//! Two pieces live here:
//!
//! * [`ShardRouter`] — the stable hash `path → shard`. Deterministic
//!   across rebuilds (rebalance-free: a crash/recover cycle must route
//!   every existing link back to the shard that holds it) and uniform
//!   enough that random path sets stay within 2x of even (pinned by
//!   proptest in `tests/sharding.rs`).
//! * [`ShardedFs`] — one [`FileSystem`] facade over the shard nodes' DLFS
//!   layers, all interposed on the *same* physical file system. The
//!   application mounts this and sees one namespace; each DLFM only ever
//!   sees the files it owns.

use std::collections::HashMap;
use std::sync::Arc;

use dl_dlfs::Dlfs;
use dl_fskit::flock::{LockOp, LockOwner};
use dl_fskit::{
    path as fspath, Cred, DirEntry, FileAttr, FileKind, FileSystem, FsError, FsResult, Ino,
    OpenFlags, SetAttr,
};
use parking_lot::RwLock;

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
        (fnv1a(path.as_bytes()) % self.names.len() as u64) as usize
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

/// FNV-1a (64-bit): tiny, dependency-free, and stable across processes —
/// the property the rebalance-free routing claim rests on.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The sharded DLFS front: one [`FileSystem`] facade over the shard
/// nodes' DLFS layers, all interposed on the same physical file system.
///
/// Namespace operations (lookup, create, mkdir, remove, rename) route to
/// the owning shard by path hash — the owner's DLFM validates tokens,
/// approves opens and vetoes mutations for the links *it* holds. Inode
/// operations (open, close, setattr) follow the owner recorded at lookup
/// time. Reads and writes pass straight through to the physical file
/// system, exactly like an unsharded DLFS (§1: DataLinks "does not
/// interfere in read/write accesses").
///
/// Directories are a broadcast concern: every shard's DLFS keeps its own
/// volatile ino→path cache and errors on an uncached parent, so directory
/// lookups and mkdirs are primed into *every* shard — a later file lookup
/// can then land on any owner with the parent already resolvable there.
pub struct ShardedFs {
    inner: Arc<dyn FileSystem>,
    /// Behind a lock because per-shard failover swaps in the promoted
    /// node's fresh DLFS layer ([`ShardedFs::replace_shard`]).
    shards: RwLock<Vec<Arc<Dlfs>>>,
    router: Arc<ShardRouter>,
    /// ino → (absolute path, owning shard) for inode-addressed entry
    /// points. Volatile, like the per-shard DLFS dentry caches.
    paths: RwLock<HashMap<Ino, (String, usize)>>,
}

const ROOT: Cred = Cred::root();

impl ShardedFs {
    /// Fronts `shards` (one DLFS per shard node, in shard order) over the
    /// shared physical file system `inner`.
    pub fn new(
        inner: Arc<dyn FileSystem>,
        shards: Vec<Arc<Dlfs>>,
        router: Arc<ShardRouter>,
    ) -> ShardedFs {
        assert_eq!(shards.len(), router.shard_count(), "one DLFS layer per shard");
        let mut paths = HashMap::new();
        paths.insert(inner.root(), ("/".to_string(), 0));
        ShardedFs { inner, shards: RwLock::new(shards), router, paths: RwLock::new(paths) }
    }

    /// The current DLFS layer of shard `idx`. Cloned out so delegated
    /// operations (which may block on upcalls) never hold the shard lock.
    fn shard(&self, idx: usize) -> Arc<Dlfs> {
        Arc::clone(&self.shards.read()[idx])
    }

    /// Swaps shard `idx`'s DLFS layer for a promoted node's (per-shard
    /// failover) and re-primes the fresh layer's volatile dentry cache
    /// with every directory this front has resolved — the promoted DLFS
    /// starts from an empty cache, and operations below those directories
    /// must keep routing to it.
    pub fn replace_shard(&self, idx: usize, dlfs: Arc<Dlfs>) {
        let mut dirs: Vec<String> = {
            let paths = self.paths.read();
            paths
                .iter()
                .filter(|(ino, _)| {
                    self.inner
                        .fs_getattr(&ROOT, **ino)
                        .map(|attr| attr.kind == FileKind::Dir)
                        .unwrap_or(false)
                })
                .map(|(_, (path, _))| path.clone())
                .collect()
        };
        // Parents before children: each walk only needs ancestors cached.
        dirs.sort_by_key(|p| p.len());
        for path in dirs {
            let mut ino = self.inner.root();
            for comp in path.split('/').filter(|c| !c.is_empty()) {
                match dlfs.fs_lookup(&ROOT, ino, comp) {
                    Ok(next) => ino = next,
                    Err(_) => break,
                }
            }
        }
        self.shards.write()[idx] = dlfs;
    }

    fn entry_of(&self, ino: Ino) -> FsResult<(String, usize)> {
        self.paths
            .read()
            .get(&ino)
            .cloned()
            .ok_or_else(|| FsError::Io(format!("sharded dlfs: no cached path for inode {ino}")))
    }

    /// Primes every non-owner shard's DLFS cache with directory `name`
    /// under `parent`, so later lookups below it resolve on any shard.
    fn prime_directory(&self, parent: Ino, name: &str, owner: usize) {
        let shards: Vec<Arc<Dlfs>> = self.shards.read().clone();
        for (i, shard) in shards.iter().enumerate() {
            if i != owner {
                let _ = shard.fs_lookup(&ROOT, parent, name);
            }
        }
    }
}

impl FileSystem for ShardedFs {
    fn root(&self) -> Ino {
        self.inner.root()
    }

    fn fs_lookup(&self, cred: &Cred, parent: Ino, name: &str) -> FsResult<Ino> {
        let (real_name, _token) = dl_dlfm::split_token_suffix(name);
        let (parent_path, _) = self.entry_of(parent)?;
        let full_path = fspath::join(&parent_path, real_name);
        let owner = self.router.shard_of(&full_path);
        // The owner sees the full name — token validation happens at the
        // shard that holds the link.
        let ino = self.shard(owner).fs_lookup(cred, parent, name)?;
        self.paths.write().insert(ino, (full_path, owner));
        if let Ok(attr) = self.inner.fs_getattr(&ROOT, ino) {
            if attr.kind == FileKind::Dir {
                self.prime_directory(parent, real_name, owner);
            }
        }
        Ok(ino)
    }

    fn fs_getattr(&self, cred: &Cred, ino: Ino) -> FsResult<FileAttr> {
        self.inner.fs_getattr(cred, ino)
    }

    fn fs_setattr(&self, cred: &Cred, ino: Ino, set: &SetAttr) -> FsResult<FileAttr> {
        let (_, owner) = self.entry_of(ino)?;
        self.shard(owner).fs_setattr(cred, ino, set)
    }

    fn fs_create(&self, cred: &Cred, parent: Ino, name: &str, mode: u16) -> FsResult<Ino> {
        let (parent_path, _) = self.entry_of(parent)?;
        let full_path = fspath::join(&parent_path, name);
        let owner = self.router.shard_of(&full_path);
        let ino = self.shard(owner).fs_create(cred, parent, name, mode)?;
        self.paths.write().insert(ino, (full_path, owner));
        Ok(ino)
    }

    fn fs_mkdir(&self, cred: &Cred, parent: Ino, name: &str, mode: u16) -> FsResult<Ino> {
        let (parent_path, _) = self.entry_of(parent)?;
        let full_path = fspath::join(&parent_path, name);
        let owner = self.router.shard_of(&full_path);
        let ino = self.shard(owner).fs_mkdir(cred, parent, name, mode)?;
        self.paths.write().insert(ino, (full_path, owner));
        self.prime_directory(parent, name, owner);
        Ok(ino)
    }

    fn fs_open(&self, cred: &Cred, ino: Ino, flags: OpenFlags) -> FsResult<()> {
        let (_, owner) = self.entry_of(ino)?;
        self.shard(owner).fs_open(cred, ino, flags)
    }

    fn fs_close(&self, cred: &Cred, ino: Ino, flags: OpenFlags, written: bool) -> FsResult<()> {
        let (_, owner) = self.entry_of(ino)?;
        self.shard(owner).fs_close(cred, ino, flags, written)
    }

    fn fs_read(&self, cred: &Cred, ino: Ino, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.inner.fs_read(cred, ino, offset, buf)
    }

    fn fs_write(&self, cred: &Cred, ino: Ino, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.inner.fs_write(cred, ino, offset, data)
    }

    fn fs_remove(&self, cred: &Cred, parent: Ino, name: &str) -> FsResult<()> {
        let (parent_path, _) = self.entry_of(parent)?;
        let owner = self.router.shard_of(&fspath::join(&parent_path, name));
        self.shard(owner).fs_remove(cred, parent, name)
    }

    fn fs_rmdir(&self, cred: &Cred, parent: Ino, name: &str) -> FsResult<()> {
        self.inner.fs_rmdir(cred, parent, name)
    }

    fn fs_rename(
        &self,
        cred: &Cred,
        parent: Ino,
        name: &str,
        new_parent: Ino,
        new_name: &str,
    ) -> FsResult<()> {
        // The *old* path's owner holds any link and vetoes the rename.
        let (parent_path, _) = self.entry_of(parent)?;
        let owner = self.router.shard_of(&fspath::join(&parent_path, name));
        self.shard(owner).fs_rename(cred, parent, name, new_parent, new_name)?;
        // Re-key the moved inode under the new path's owner.
        let (new_parent_path, _) = self.entry_of(new_parent)?;
        let new_path = fspath::join(&new_parent_path, new_name);
        let new_owner = self.router.shard_of(&new_path);
        if let Ok(ino) = self.shard(new_owner).fs_lookup(&ROOT, new_parent, new_name) {
            self.paths.write().insert(ino, (new_path, new_owner));
        }
        Ok(())
    }

    fn fs_readdir(&self, cred: &Cred, ino: Ino) -> FsResult<Vec<DirEntry>> {
        self.inner.fs_readdir(cred, ino)
    }

    fn fs_lockctl(&self, cred: &Cred, ino: Ino, owner: LockOwner, op: LockOp) -> FsResult<bool> {
        self.inner.fs_lockctl(cred, ino, owner, op)
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
