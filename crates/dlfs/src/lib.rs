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
    path: String,
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
}

/// The DLFS layer. Mount it in front of the physical file system by
/// constructing the application-facing `Lfs` over it.
pub struct Dlfs {
    inner: Arc<dyn FileSystem>,
    upcall: DlfmClient,
    /// ino → absolute path (volatile dentry-style cache).
    paths: RwLock<HashMap<Ino, String>>,
    /// Open instances keyed by (ino, is_write).
    opens: Mutex<HashMap<(Ino, bool), Vec<OpenInstance>>>,
    /// Tells the tokens this layer holds in [`HELD`] from another layer's.
    id: u64,
    next_opener: AtomicU64,
    pub stats: DlfsStats,
}

const ROOT: Cred = Cred::root();

impl Dlfs {
    /// Wraps `inner`, talking to DLFM through `upcall`. DLFS is blind to
    /// the carrier under the client, and keeps no configuration of its
    /// own: whether opens register for strict link is the server's call,
    /// learnt at `Hello` ([`DlfmClient::strict_link`]).
    pub fn new(inner: Arc<dyn FileSystem>, upcall: DlfmClient) -> Dlfs {
        let mut paths = HashMap::new();
        paths.insert(inner.root(), "/".to_string());
        Dlfs {
            inner,
            upcall,
            paths: RwLock::new(paths),
            opens: Mutex::new(HashMap::new()),
            id: NEXT_DLFS.fetch_add(1, Ordering::Relaxed),
            next_opener: AtomicU64::new(1),
            stats: DlfsStats::default(),
        }
    }

    /// The upcall client (benches inspect its round-trip counter).
    pub fn upcall_client(&self) -> &DlfmClient {
        &self.upcall
    }

    fn path_of(&self, ino: Ino) -> FsResult<String> {
        self.paths
            .read()
            .get(&ino)
            .cloned()
            .ok_or_else(|| FsError::Io(format!("dlfs: no cached path for inode {ino}")))
    }

    fn cache_path(&self, ino: Ino, path: String) {
        self.paths.write().insert(ino, path);
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
    fn validate_presented(&self, path: &str, token: Option<&str>, cred: &Cred) -> FsResult<()> {
        if let Some(token) = token {
            self.upcall.validate_token(path, token, cred.uid).map_err(FsError::Rejected)?;
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
        cred: &Cred,
        ino: Ino,
        flags: OpenFlags,
        path: &str,
        write: bool,
    ) -> FsResult<()> {
        if !self.upcall.strict_link() {
            self.inner.fs_open(cred, ino, flags)?;
            self.stats.passthrough_opens.inc();
            return Ok(());
        }
        let opener = self.new_opener();
        self.upcall.register_open(path, cred.uid, opener).map_err(FsError::Rejected)?;
        if let Err(e) = self.inner.fs_open(cred, ino, flags) {
            self.upcall.unregister_open(path, opener);
            return Err(e);
        }
        self.stats.passthrough_opens.inc();
        self.record_open(ino, write, OpenInstance { opener, managed: false, registered: true });
        Ok(())
    }

    /// Runs the DLFM open check, presenting `token` on every try; a `Busy`
    /// answer waits out the sync epoch and tries again.
    fn checked_open(
        &self,
        path: &str,
        cred: &Cred,
        wanted: TokenKind,
        opener: u64,
        token: Option<&str>,
    ) -> FsResult<OpenDecision> {
        loop {
            // The epoch comes back with the decision, read before the
            // check ran: over a socket that is one round trip, not two.
            let (epoch, decision) = self.upcall.open_check(path, cred.uid, wanted, opener, token);
            match decision {
                OpenDecision::Busy => {
                    self.stats.busy_waits.inc();
                    self.upcall.wait_epoch_change(epoch);
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
        let parent_path = self.path_of(parent)?;
        let full_path = fspath::join(&parent_path, real_name);

        // A token that does not decode is refused here; any other is
        // validated by DLFM when an open presents it (§4.1).
        if let Some(token) = token {
            self.stats.token_lookups.inc();
            AccessToken::decode(token).map_err(|e| FsError::Rejected(e.to_string()))?;
        }

        let ino = self.inner.fs_lookup(cred, parent, real_name)?;
        if let Some(token) = token {
            HELD.set(Some(HeldToken {
                dlfs: self.id,
                ino,
                uid: cred.uid,
                path: full_path.clone(),
                token: token.to_string(),
            }));
        }
        self.cache_path(ino, full_path);
        Ok(ino)
    }

    fn fs_getattr(&self, cred: &Cred, ino: Ino) -> FsResult<FileAttr> {
        self.inner.fs_getattr(cred, ino)
    }

    fn fs_setattr(&self, cred: &Cred, ino: Ino, set: &SetAttr) -> FsResult<FileAttr> {
        // Changing permissions or ownership of a linked file would bypass
        // database access control; veto like remove/rename.
        if set.mode.is_some() || set.uid.is_some() || set.gid.is_some() {
            let path = self.path_of(ino)?;
            self.upcall.mutation_check(&path).map_err(FsError::Rejected)?;
        }
        self.inner.fs_setattr(cred, ino, set)
    }

    fn fs_create(&self, cred: &Cred, parent: Ino, name: &str, mode: u16) -> FsResult<Ino> {
        let parent_path = self.path_of(parent)?;
        let ino = self.inner.fs_create(cred, parent, name, mode)?;
        self.cache_path(ino, fspath::join(&parent_path, name));
        Ok(ino)
    }

    fn fs_mkdir(&self, cred: &Cred, parent: Ino, name: &str, mode: u16) -> FsResult<Ino> {
        let parent_path = self.path_of(parent)?;
        let ino = self.inner.fs_mkdir(cred, parent, name, mode)?;
        self.cache_path(ino, fspath::join(&parent_path, name));
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
        if attr.uid == self.upcall.dlfm_uid() && cred.uid != attr.uid && !cred.is_root() {
            let opener = self.new_opener();
            return match self.checked_open(&path, cred, wanted, opener, token)? {
                OpenDecision::Approved { open_as } => {
                    self.inner.fs_open(&open_as, ino, flags)?;
                    self.stats.managed_opens.inc();
                    self.record_open(
                        ino,
                        wants_write,
                        OpenInstance { opener, managed: true, registered: false },
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
                            if self.upcall.strict_link() {
                                self.record_open(
                                    ino,
                                    wants_write,
                                    OpenInstance { opener, managed: false, registered: true },
                                );
                            }
                            Ok(())
                        }
                        Err(e) => {
                            if self.upcall.strict_link() {
                                self.upcall.unregister_open(&path, opener);
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
            self.validate_presented(&path, token, cred)?;
            return self.passthrough_open(cred, ino, flags, &path, false);
        }

        // Write open: optimistically try the physical open; only a failure
        // triggers the upcall (§4.2's rfd protocol). The token is validated
        // first, since the physical open may truncate; the open check of a
        // refused write then finds the entry that validation recorded.
        self.validate_presented(&path, token, cred)?;
        match self.passthrough_open(cred, ino, flags, &path, true) {
            Err(FsError::AccessDenied) => {
                let opener = self.new_opener();
                match self.checked_open(&path, cred, TokenKind::Write, opener, None)? {
                    OpenDecision::Approved { open_as } => {
                        self.inner.fs_open(&open_as, ino, flags)?;
                        self.stats.managed_opens.inc();
                        self.record_open(
                            ino,
                            true,
                            OpenInstance { opener, managed: true, registered: false },
                        );
                        Ok(())
                    }
                    // Plain read-only file, not linked: surface the original
                    // error. The open failed, so no close will follow —
                    // undo the registration a strict-link server's
                    // open-check made (same reasoning as the full-control
                    // NotManaged arm above).
                    OpenDecision::NotManaged => {
                        if self.upcall.strict_link() {
                            self.upcall.unregister_open(&path, opener);
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
            let path = self.path_of(ino)?;
            if inst.managed {
                let attr = self.inner.fs_getattr(&ROOT, ino)?;
                self.upcall
                    .close_notify(&path, inst.opener, written, attr.size, attr.mtime)
                    .map_err(FsError::Rejected)?;
            } else if inst.registered {
                self.upcall.unregister_open(&path, inst.opener);
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
        let path = fspath::join(&parent_path, name);
        // No dangling DATALINKs (§2.3).
        self.upcall.mutation_check(&path).map_err(FsError::Rejected)?;
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
        let path = fspath::join(&parent_path, name);
        self.upcall.mutation_check(&path).map_err(FsError::Rejected)?;
        self.inner.fs_rename(cred, parent, name, new_parent, new_name)?;
        // Refresh the dentry cache.
        let new_parent_path = self.path_of(new_parent)?;
        if let Ok(ino) = self.inner.fs_lookup(&ROOT, new_parent, new_name) {
            self.cache_path(ino, fspath::join(&new_parent_path, new_name));
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
