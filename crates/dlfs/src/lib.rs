//! DataLinks File System (DLFS) — the interposition layer.
//!
//! §2.3 of the paper: "DataLinks File System is implemented as a virtual
//! file system (VFS) layer between the logical file system (LFS) and the
//! underlying physical file system. ... DLFS intercepts calls such as
//! fs_open(), fs_close(), fs_remove(), fs_rename() and fs_lookup() made by
//! LFS to the underlying file system."
//!
//! [`Dlfs`] wraps any inner [`FileSystem`] and implements the paper's
//! interception protocol:
//!
//! * **`fs_lookup`** — strips a `;dltoken=` suffix from the final name
//!   component, rejects it if it does not even decode, keeps it for the
//!   open that follows on the same thread, then delegates the lookup of
//!   the real name. No upcall: the open presents the token, and DLFM
//!   validates it there and creates the userid-keyed token entry (§4.1) —
//!   inside the open check a full-control open makes anyway, or, for any
//!   other open, by one token validation ahead of the physical open.
//! * **`fs_open`** — the §4.2 decision tree. A file owned by the DLFM uid is
//!   under *full database control*, so every open upcalls for approval
//!   (serialized via the Sync table). Any other file opens straight through
//!   for reads — the zero-upcall read path the paper optimizes for — while a
//!   *failed* write open falls back to an upcall that may take the file
//!   over (the rfd slow path: "DLFS contacts DLFM through an upcall only if
//!   the fs_open() entry point of the file system fails").
//! * **`fs_close`** — reports the `written` flag plus fresh size/mtime so
//!   DLFM can refresh metadata in the same transaction context (§4.3) and
//!   trigger archiving (§4.4).
//! * **`fs_remove` / `fs_rename` / `fs_setattr`** — vetoed for linked files
//!   with referential integrity (no dangling DATALINKs, §2.3; no permission
//!   changes that would bypass database access control).
//! * **`fs_read` / `fs_write`** — pass straight through: "DataLinks ...
//!   is only involved in open and close of the file and does not interfere
//!   in read/write accesses" (§1).
//!
//! Per the paper's portability goal (§2.4), DLFS keeps *no persistent
//! DataLinks state of its own* — only a volatile ino→path cache (the moral
//! equivalent of the dentry cache) and, per thread, the token its last
//! lookup stripped; everything durable lives at DLFM.
//!
//! One DLFS serves one physical file system, whose namespace may be
//! partitioned over several DLFM nodes (shards). It holds one upcall client
//! per shard and sends each upcall to the shard that owns the path it
//! computed ([`dl_dlfm::shard_of`], the hash the host's DML routing uses);
//! a close goes by the path its open kept. A veto asks every shard: a
//! directory's rename or chmod reaches files that other shards hold.
//!
//! The cache is read-mostly. A lookup compares the inode's cached path with
//! its parent's path and the name under the read lock, and writes only when
//! they differ: the inode's first lookup, or its path changed (a rename of
//! it or of a directory above it, a re-created name). Every open after the
//! first of a path takes no write lock and copies no path. A path is shared
//! (`Arc<str>`), and each open keeps the one it was checked under, so its
//! close reports that path to DLFM even if a rename moved the file since.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dl_dlfm::{AccessToken, DlfmClient, OpenDecision, TokenKind};
use dl_fskit::flock::{LockOp, LockOwner};
use dl_fskit::{path as fspath, FileSystem};
use dl_fskit::{Cred, DirEntry, FileAttr, FileKind, FsError, FsResult, Ino, OpenFlags, SetAttr};
use parking_lot::{Mutex, RwLock};

/// Operation counters (benchmarks and the telemetry registry read these).
#[derive(Debug, Default)]
pub struct DlfsStats {
    /// Opens that bypassed DLFM entirely.
    pub passthrough_opens: dl_obs::Counter,
    /// Opens approved by DLFM (managed path).
    pub managed_opens: dl_obs::Counter,
    /// Busy retries performed.
    pub busy_waits: dl_obs::Counter,
    /// Token suffixes stripped during lookup. Each is validated by the
    /// open that presents it, not by the lookup.
    pub token_lookups: dl_obs::Counter,
    /// Writes to the ino→path cache: a lookup that found its inode's path
    /// missing or changed, a create, a mkdir, a rename.
    pub name_cache_fills: dl_obs::Counter,
}

/// A token stripped from a name at lookup, held for the open of the same
/// system call — the next open on the thread that looked it up.
struct HeldToken {
    /// The [`Dlfs`] that stripped it.
    dlfs: u64,
    ino: Ino,
    uid: u32,
    /// The path the name resolved to: the token is bound to it, so an open
    /// that finds the inode under another path (renamed meanwhile)
    /// presents nothing.
    path: Arc<str>,
    token: String,
}

thread_local! {
    /// The token this thread's last lookup stripped. Every lookup replaces
    /// it and every open takes it, so a token reaches only the open that
    /// follows its lookup — never a later open whose name carried none.
    static HELD: Cell<Option<HeldToken>> = const { Cell::new(None) };
}

static NEXT_DLFS: AtomicU64 = AtomicU64::new(1);

struct OpenInstance {
    opener: u64,
    /// Managed by DLFM (close must upcall) or plain pass-through.
    managed: bool,
    /// Strict-link registration to undo at close.
    registered: bool,
    /// The path DLFM checked or registered the open under; its close
    /// reports the same one.
    path: Arc<str>,
}

/// The DLFS layer. Mount it in front of the physical file system by
/// constructing the application-facing `Lfs` over it.
pub struct Dlfs {
    inner: Arc<dyn FileSystem>,
    /// One upcall client per shard, in shard order (one when unsharded).
    /// Behind a lock because a failover swaps the promoted node's client
    /// into its slot ([`Dlfs::replace_upcall`]); a call clones its client
    /// out and never holds the lock across the call — a `Busy` open can
    /// wait indefinitely.
    upcalls: RwLock<Vec<Arc<DlfmClient>>>,
    /// ino → absolute path (volatile dentry-style cache), read-mostly: see
    /// the module docs.
    paths: RwLock<HashMap<Ino, Arc<str>>>,
    /// Open instances keyed by (ino, is_write).
    opens: Mutex<HashMap<(Ino, bool), Vec<OpenInstance>>>,
    /// Tells the tokens this layer holds in [`HELD`] from another layer's.
    id: u64,
    next_opener: AtomicU64,
    pub stats: DlfsStats,
}

const ROOT: Cred = Cred::root();

fn no_cached_path(ino: Ino) -> FsError {
    FsError::Io(format!("dlfs: no cached path for inode {ino}"))
}

impl Dlfs {
    /// Wraps `inner`, talking to DLFM through `upcalls`: one client per
    /// shard of the file server, in shard order. DLFS is blind to the
    /// carrier under a client, and keeps no configuration of its own:
    /// whether opens register for strict link is the server's call, learnt
    /// at `Hello` ([`DlfmClient::strict_link`]).
    pub fn new(inner: Arc<dyn FileSystem>, upcalls: Vec<DlfmClient>) -> Dlfs {
        assert!(!upcalls.is_empty(), "dlfs: one upcall client per shard");
        let mut paths = HashMap::new();
        paths.insert(inner.root(), Arc::from("/"));
        Dlfs {
            inner,
            upcalls: RwLock::new(upcalls.into_iter().map(Arc::new).collect()),
            paths: RwLock::new(paths),
            opens: Mutex::new(HashMap::new()),
            id: NEXT_DLFS.fetch_add(1, Ordering::Relaxed),
            next_opener: AtomicU64::new(1),
            stats: DlfsStats::default(),
        }
    }

    /// Puts `client` in shard `idx`'s slot: after a failover, upcalls for
    /// that shard's paths reach the promoted node.
    pub fn replace_upcall(&self, idx: usize, client: DlfmClient) {
        self.upcalls.write()[idx] = Arc::new(client);
    }

    /// Round trips made through the current upcall clients, summed over
    /// the shards (benches and tests).
    pub fn round_trips(&self) -> u64 {
        self.upcalls.read().iter().map(|c| c.round_trip_count()).sum()
    }

    /// The client of the shard that owns `path`.
    fn upcall(&self, path: &str) -> Arc<DlfmClient> {
        let upcalls = self.upcalls.read();
        Arc::clone(&upcalls[dl_dlfm::shard_of(path, upcalls.len())])
    }

    /// Asks every shard whether `path` may be removed, renamed or have its
    /// permissions changed: each answers for the links it holds, and a
    /// directory can hold links on any shard.
    fn mutation_check(&self, path: &str) -> FsResult<()> {
        let upcalls = self.upcalls.read().clone();
        for upcall in upcalls {
            upcall.mutation_check(path).map_err(FsError::Rejected)?;
        }
        Ok(())
    }

    fn path_of(&self, ino: Ino) -> FsResult<Arc<str>> {
        self.paths.read().get(&ino).cloned().ok_or_else(|| no_cached_path(ino))
    }

    fn fill(&self, ino: Ino, path: Arc<str>) {
        self.stats.name_cache_fills.inc();
        self.paths.write().insert(ino, path);
    }

    /// The path of `ino`, found as `name` in `parent`. The cached path is
    /// returned as it is when it already names that entry — compared under
    /// the read lock, nothing copied or written; otherwise the joined path
    /// replaces it.
    fn child_path(&self, parent: Ino, name: &str, ino: Ino) -> FsResult<Arc<str>> {
        let joined = {
            let paths = self.paths.read();
            let parent_path = paths.get(&parent).ok_or_else(|| no_cached_path(parent))?;
            match paths.get(&ino) {
                Some(path) if fspath::is_join(path, parent_path, name) => {
                    return Ok(Arc::clone(path))
                }
                _ => fspath::join(parent_path, name),
            }
        };
        let path: Arc<str> = joined.into();
        self.fill(ino, Arc::clone(&path));
        Ok(path)
    }

    fn new_opener(&self) -> u64 {
        self.next_opener.fetch_add(1, Ordering::Relaxed)
    }

    fn record_open(&self, ino: Ino, write: bool, inst: OpenInstance) {
        self.opens.lock().entry((ino, write)).or_default().push(inst);
    }

    fn pop_open(&self, ino: Ino, write: bool) -> Option<OpenInstance> {
        let mut opens = self.opens.lock();
        let list = opens.get_mut(&(ino, write))?;
        let inst = list.pop();
        if list.is_empty() {
            opens.remove(&(ino, write));
        }
        inst
    }

    /// Validates the token an open that is not under full control presents,
    /// before its physical open: the one upcall a lookup-time validation
    /// would have made.
    fn validate_presented(
        upcall: &DlfmClient,
        path: &str,
        token: Option<&str>,
        cred: &Cred,
    ) -> FsResult<()> {
        if let Some(token) = token {
            upcall.validate_token(path, token, cred.uid).map_err(FsError::Rejected)?;
        }
        Ok(())
    }

    /// The physical open of a file not under full control. Under a
    /// strict-link server it is registered with DLFM first, so the server
    /// sees it before it exists and can refuse it — while a live link
    /// branch holds the path — and the registration is undone when the
    /// physical open fails.
    fn passthrough_open(
        &self,
        upcall: &DlfmClient,
        cred: &Cred,
        ino: Ino,
        flags: OpenFlags,
        path: &Arc<str>,
        write: bool,
    ) -> FsResult<()> {
        if !upcall.strict_link() {
            self.inner.fs_open(cred, ino, flags)?;
            self.stats.passthrough_opens.inc();
            return Ok(());
        }
        let opener = self.new_opener();
        upcall.register_open(path, cred.uid, opener).map_err(FsError::Rejected)?;
        if let Err(e) = self.inner.fs_open(cred, ino, flags) {
            upcall.unregister_open(path, opener);
            return Err(e);
        }
        self.stats.passthrough_opens.inc();
        let path = Arc::clone(path);
        self.record_open(
            ino,
            write,
            OpenInstance { opener, managed: false, registered: true, path },
        );
        Ok(())
    }

    /// Runs the DLFM open check, presenting `token` on every try; a `Busy`
    /// answer waits out the sync epoch and tries again.
    fn checked_open(
        &self,
        upcall: &DlfmClient,
        path: &str,
        cred: &Cred,
        wanted: TokenKind,
        opener: u64,
        token: Option<&str>,
    ) -> FsResult<OpenDecision> {
        loop {
            // The epoch comes back with the decision, read before the
            // check ran: over a socket that is one round trip, not two.
            let (epoch, decision) = upcall.open_check(path, cred.uid, wanted, opener, token);
            match decision {
                OpenDecision::Busy => {
                    self.stats.busy_waits.inc();
                    upcall.wait_epoch_change(epoch);
                }
                decision => return Ok(decision),
            }
        }
    }
}

impl FileSystem for Dlfs {
    fn root(&self) -> Ino {
        self.inner.root()
    }

    fn fs_lookup(&self, cred: &Cred, parent: Ino, name: &str) -> FsResult<Ino> {
        HELD.take();
        let (real_name, token) = dl_dlfm::split_token_suffix(name);

        // A token that does not decode is refused here; any other is
        // validated by DLFM when an open presents it (§4.1).
        if let Some(token) = token {
            self.stats.token_lookups.inc();
            AccessToken::decode(token).map_err(|e| FsError::Rejected(e.to_string()))?;
        }

        let ino = self.inner.fs_lookup(cred, parent, real_name)?;
        let path = self.child_path(parent, real_name, ino)?;
        if let Some(token) = token {
            let token = token.to_string();
            HELD.set(Some(HeldToken { dlfs: self.id, ino, uid: cred.uid, path, token }));
        }
        Ok(ino)
    }

    fn fs_getattr(&self, cred: &Cred, ino: Ino) -> FsResult<FileAttr> {
        self.inner.fs_getattr(cred, ino)
    }

    fn fs_setattr(&self, cred: &Cred, ino: Ino, set: &SetAttr) -> FsResult<FileAttr> {
        // Changing permissions or ownership of a linked file would bypass
        // database access control; veto like remove/rename.
        if set.mode.is_some() || set.uid.is_some() || set.gid.is_some() {
            self.mutation_check(&self.path_of(ino)?)?;
        }
        self.inner.fs_setattr(cred, ino, set)
    }

    fn fs_create(&self, cred: &Cred, parent: Ino, name: &str, mode: u16) -> FsResult<Ino> {
        let parent_path = self.path_of(parent)?;
        let ino = self.inner.fs_create(cred, parent, name, mode)?;
        self.fill(ino, fspath::join(&parent_path, name).into());
        Ok(ino)
    }

    fn fs_mkdir(&self, cred: &Cred, parent: Ino, name: &str, mode: u16) -> FsResult<Ino> {
        let parent_path = self.path_of(parent)?;
        let ino = self.inner.fs_mkdir(cred, parent, name, mode)?;
        self.fill(ino, fspath::join(&parent_path, name).into());
        Ok(ino)
    }

    fn fs_open(&self, cred: &Cred, ino: Ino, flags: OpenFlags) -> FsResult<()> {
        let held = HELD.take();
        let attr = self.inner.fs_getattr(&ROOT, ino)?;
        if attr.kind == FileKind::Dir {
            return self.inner.fs_open(cred, ino, flags);
        }
        let wants_write = flags.wants_write();
        let wanted = if wants_write { TokenKind::Write } else { TokenKind::Read };
        let path = self.path_of(ino)?;
        let upcall = self.upcall(&path);
        // The token of the lookup just before this open, if it resolved
        // this inode at this path for this user.
        let token = held
            .filter(|held| {
                held.dlfs == self.id && held.ino == ino && held.uid == cred.uid && held.path == path
            })
            .map(|held| held.token);
        let token = token.as_deref();

        // Full database control is recognizable locally by ownership
        // (§4.2: "which can be ascertained by examining the ownership of
        // the file") — no upcall needed to make that determination.
        if attr.uid == upcall.dlfm_uid() && cred.uid != attr.uid && !cred.is_root() {
            let opener = self.new_opener();
            return match self.checked_open(&upcall, &path, cred, wanted, opener, token)? {
                OpenDecision::Approved { open_as } => {
                    self.inner.fs_open(&open_as, ino, flags)?;
                    self.stats.managed_opens.inc();
                    self.record_open(
                        ino,
                        wants_write,
                        OpenInstance { opener, managed: true, registered: false, path },
                    );
                    Ok(())
                }
                OpenDecision::NotManaged => {
                    // A file that *happens* to be owned by the DLFM uid but
                    // is not linked (or is linked with FS-controlled
                    // access): ordinary permission rules apply. When the
                    // server runs strict-link, its open-check already
                    // registered this open (its NotManaged arms), so
                    // either the close must unregister it — record the
                    // instance — or, if the physical open fails and no
                    // close will ever come, the registration must be
                    // undone here; leaking it would block link of the path
                    // forever.
                    match self.inner.fs_open(cred, ino, flags) {
                        Ok(()) => {
                            if upcall.strict_link() {
                                self.record_open(
                                    ino,
                                    wants_write,
                                    OpenInstance { opener, managed: false, registered: true, path },
                                );
                            }
                            Ok(())
                        }
                        Err(e) => {
                            if upcall.strict_link() {
                                upcall.unregister_open(&path, opener);
                            }
                            Err(e)
                        }
                    }
                }
                OpenDecision::Rejected(msg) => Err(FsError::Rejected(msg)),
                OpenDecision::Busy => unreachable!("handled by checked_open"),
            };
        }

        // Not under full control. Reads go straight through — the paper's
        // fast path: no upcall, no lock (§4.2) — but for the token one
        // presents.
        if !wants_write {
            Self::validate_presented(&upcall, &path, token, cred)?;
            return self.passthrough_open(&upcall, cred, ino, flags, &path, false);
        }

        // Write open: optimistically try the physical open; only a failure
        // triggers the upcall (§4.2's rfd protocol). The token is validated
        // first, since the physical open may truncate; the open check of a
        // refused write then finds the entry that validation recorded.
        Self::validate_presented(&upcall, &path, token, cred)?;
        match self.passthrough_open(&upcall, cred, ino, flags, &path, true) {
            Err(FsError::AccessDenied) => {
                let opener = self.new_opener();
                match self.checked_open(&upcall, &path, cred, TokenKind::Write, opener, None)? {
                    OpenDecision::Approved { open_as } => {
                        self.inner.fs_open(&open_as, ino, flags)?;
                        self.stats.managed_opens.inc();
                        self.record_open(
                            ino,
                            true,
                            OpenInstance { opener, managed: true, registered: false, path },
                        );
                        Ok(())
                    }
                    // Plain read-only file, not linked: surface the original
                    // error. The open failed, so no close will follow —
                    // undo the registration a strict-link server's
                    // open-check made (same reasoning as the full-control
                    // NotManaged arm above).
                    OpenDecision::NotManaged => {
                        if upcall.strict_link() {
                            upcall.unregister_open(&path, opener);
                        }
                        Err(FsError::AccessDenied)
                    }
                    OpenDecision::Rejected(msg) => Err(FsError::Rejected(msg)),
                    OpenDecision::Busy => unreachable!("handled by checked_open"),
                }
            }
            other => other,
        }
    }

    fn fs_close(&self, cred: &Cred, ino: Ino, flags: OpenFlags, written: bool) -> FsResult<()> {
        let wants_write = flags.wants_write();
        if let Some(inst) = self.pop_open(ino, wants_write) {
            if inst.managed {
                let attr = self.inner.fs_getattr(&ROOT, ino)?;
                self.upcall(&inst.path)
                    .close_notify(&inst.path, inst.opener, written, attr.size, attr.mtime)
                    .map_err(FsError::Rejected)?;
            } else if inst.registered {
                self.upcall(&inst.path).unregister_open(&inst.path, inst.opener);
            }
        }
        self.inner.fs_close(cred, ino, flags, written)
    }

    fn fs_read(&self, cred: &Cred, ino: Ino, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        // Never intercepted (§1: DataLinks "does not interfere in
        // read/write accesses").
        self.inner.fs_read(cred, ino, offset, buf)
    }

    fn fs_write(&self, cred: &Cred, ino: Ino, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.inner.fs_write(cred, ino, offset, data)
    }

    fn fs_remove(&self, cred: &Cred, parent: Ino, name: &str) -> FsResult<()> {
        let parent_path = self.path_of(parent)?;
        // No dangling DATALINKs (§2.3).
        self.mutation_check(&fspath::join(&parent_path, name))?;
        self.inner.fs_remove(cred, parent, name)
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
        let parent_path = self.path_of(parent)?;
        self.mutation_check(&fspath::join(&parent_path, name))?;
        self.inner.fs_rename(cred, parent, name, new_parent, new_name)?;
        // Refresh the dentry cache. Entries below a moved directory keep
        // their old paths until a lookup through the new one finds them.
        if let Ok(ino) = self.inner.fs_lookup(&ROOT, new_parent, new_name) {
            self.child_path(new_parent, new_name, ino)?;
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
