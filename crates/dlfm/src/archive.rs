//! The archive server (§4.4).
//!
//! "A copy of the file is saved to an archive device/server after update to
//! a file has completed and committed. When a failure occurs, the last
//! committed version of the file is restored from the archive and the
//! in-flight version of the file is moved to a temporary directory. ...
//! Each new version is associated with a database state identifier (for
//! example tail LSN). When database is restored to a previous point in
//! time, the corresponding files, according to the restored database state
//! identifier, are also restored from the archive."
//!
//! The store is content-addressed by (path, version) and every version
//! carries the host database state identifier (commit LSN) that created it.
//! Archiving is *asynchronous*: [`Archiver`] runs a worker thread; while a
//! file's archive job is in flight, new update requests to it are blocked
//! (the DLFM server consults [`ArchiveStore::is_archiving`]).
//!
//! Like a physical archive device, the store survives simulated crashes:
//! the crash harness keeps the `Arc<ArchiveStore>` alive while dropping the
//! daemons and databases.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex, RwLock};

/// One archived version of one file.
#[derive(Debug, Clone)]
pub struct ArchivedVersion {
    pub version: u64,
    /// Host database state identifier (commit LSN) this version belongs to.
    pub state_id: u64,
    pub data: Vec<u8>,
}

#[derive(Default)]
struct StoreInner {
    /// path -> versions ordered by insertion (version ascending).
    versions: HashMap<String, Vec<ArchivedVersion>>,
    /// Files with an archive job in flight.
    archiving: HashMap<String, u64>,
    /// Jobs whose in-flight marker has cleared but whose completion
    /// callback has not returned yet.
    settling: usize,
    /// In-flight (dirty, rolled-back) images moved aside at recovery.
    quarantine: Vec<(String, Vec<u8>)>,
    /// Mirror stores (replica archives): every content mutation — `put`,
    /// `prune_to_latest`, `forget` — is forwarded so file bytes travel
    /// with the replicated metadata. Transient job state (`archiving`,
    /// `quarantine`) is primary-local and not mirrored.
    mirrors: Vec<Arc<ArchiveStore>>,
    /// Promotion fence: once set, inbound mirror-forwarded mutations are
    /// dropped. Checked under this same lock, so after
    /// [`ArchiveStore::seal_mirror_input`] returns, no in-flight forward
    /// from a deposed primary can still land (forwarding snapshots the
    /// mirror list outside the sender's lock, so sender-side
    /// `remove_mirror` alone would race).
    mirror_input_sealed: bool,
}

/// The versioned archive store.
#[derive(Default)]
pub struct ArchiveStore {
    inner: Mutex<StoreInner>,
    done: Condvar,
    /// Orders content *mutators* (`put`/`prune_to_latest`/`forget`)
    /// across their local change **and** the mirror forwarding that
    /// follows — but only **per path**: mutations of the same file can
    /// never reach a mirror in the opposite order they took effect
    /// locally (e.g. an archive job's `put` landing after the unlink's
    /// `forget` that deleted the file), while a large-file replica copy
    /// of one path no longer serializes unrelated archive mutations the
    /// way the old store-wide mutator lock did. Readers and the inbound
    /// `mirror_*` side use only `inner`, so a slow forward blocks
    /// neither; mirrors never forward further, so holding a sender's
    /// path lock across `mirror_put` cannot chain.
    path_order: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    /// Mirror *membership* order: `add_mirror`/`remove_mirror` hold it
    /// exclusively (their backfill/detach must order against mutations of
    /// every path), per-path mutators hold it shared. This is the piece
    /// of the old store-wide lock that genuinely had to stay global.
    mirror_membership: RwLock<()>,
}

impl ArchiveStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// The order lock for `path`'s mutations (created on first use).
    fn path_lock(&self, path: &str) -> Arc<Mutex<()>> {
        let mut map = self.path_order.lock();
        Arc::clone(map.entry(path.to_string()).or_default())
    }

    /// Drops `path`'s order lock if nobody else holds a handle to it
    /// (called after a `forget`, so the map does not grow with dead
    /// paths). Racing acquirers keep the lock alive — worst case the
    /// entry survives until the next forget.
    fn gc_path_lock(&self, path: &str) {
        let mut map = self.path_order.lock();
        if let Some(lock) = map.get(path) {
            if Arc::strong_count(lock) == 1 {
                map.remove(path);
            }
        }
    }

    /// The store-local insert shared by `put` and `mirror_put`.
    fn put_locked(inner: &mut StoreInner, path: &str, version: u64, state_id: u64, data: Vec<u8>) {
        let versions = inner.versions.entry(path.to_string()).or_default();
        if !versions.iter().any(|v| v.version == version) {
            versions.push(ArchivedVersion { version, state_id, data });
            versions.sort_by_key(|v| v.version);
        }
    }

    /// Synchronously stores a version. Idempotent per (path, version).
    /// Mirror forwarding happens outside the reader-visible lock so a slow
    /// replica copy never blocks readers of this store; the payload is
    /// cloned only when mirrors actually exist.
    pub fn put(&self, path: &str, version: u64, state_id: u64, data: Vec<u8>) {
        let _membership = self.mirror_membership.read();
        let order = self.path_lock(path);
        let _order = order.lock();
        let mirrors = self.inner.lock().mirrors.clone();
        if mirrors.is_empty() {
            Self::put_locked(&mut self.inner.lock(), path, version, state_id, data);
            return;
        }
        Self::put_locked(&mut self.inner.lock(), path, version, state_id, data.clone());
        for mirror in &mirrors {
            mirror.mirror_put(path, version, state_id, data.clone());
        }
    }

    /// Inbound side of mirror forwarding: like `put`, but dropped once the
    /// store is sealed, and never forwarded further (one level of
    /// fan-out). The seal check happens under this store's lock, so it
    /// cannot race [`ArchiveStore::seal_mirror_input`].
    fn mirror_put(&self, path: &str, version: u64, state_id: u64, data: Vec<u8>) {
        let mut inner = self.inner.lock();
        if inner.mirror_input_sealed {
            return;
        }
        Self::put_locked(&mut inner, path, version, state_id, data);
    }

    /// Registers `mirror` as a replica of this store: every future
    /// `put`/`prune`/`forget` is forwarded, and current contents are
    /// backfilled (registration-before-backfill plus idempotent `put`
    /// means a concurrent archive job cannot slip between the two).
    /// Mirrors never forward further (one level of fan-out).
    pub fn add_mirror(&self, mirror: Arc<ArchiveStore>) {
        let _membership = self.mirror_membership.write();
        let backfill: Vec<(String, Vec<ArchivedVersion>)> = {
            let mut inner = self.inner.lock();
            inner.mirrors.push(Arc::clone(&mirror));
            inner.versions.iter().map(|(p, v)| (p.clone(), v.clone())).collect()
        };
        for (path, versions) in backfill {
            for v in versions {
                mirror.mirror_put(&path, v.version, v.state_id, v.data);
            }
        }
    }

    /// Detaches a mirror on the *sender* side (stops future forwards; an
    /// already-snapshotted in-flight forward is stopped by the receiver's
    /// seal instead).
    pub fn remove_mirror(&self, mirror: &Arc<ArchiveStore>) {
        let _membership = self.mirror_membership.write();
        self.inner.lock().mirrors.retain(|m| !Arc::ptr_eq(m, mirror));
    }

    /// Promotion fence on the *receiver* side: after this returns, no
    /// mirror-forwarded mutation — even one already past the sender's
    /// mirror-list snapshot — can reach this store. Local `put`s (the new
    /// primary's own archiver) are unaffected.
    pub fn seal_mirror_input(&self) {
        self.inner.lock().mirror_input_sealed = true;
    }

    /// The newest archived version of `path`.
    pub fn latest(&self, path: &str) -> Option<ArchivedVersion> {
        let inner = self.inner.lock();
        inner.versions.get(path).and_then(|v| v.last().cloned())
    }

    /// A specific version of `path`.
    pub fn get(&self, path: &str, version: u64) -> Option<ArchivedVersion> {
        let inner = self.inner.lock();
        inner.versions.get(path).and_then(|v| v.iter().find(|av| av.version == version).cloned())
    }

    /// The newest version whose state identifier is ≤ `state_id` — the
    /// coordinated point-in-time restore lookup.
    pub fn version_at_state(&self, path: &str, state_id: u64) -> Option<ArchivedVersion> {
        let inner = self.inner.lock();
        inner.versions.get(path)?.iter().rfind(|v| v.state_id <= state_id).cloned()
    }

    /// All versions of `path` (diagnostics, EXPERIMENTS harness).
    pub fn versions(&self, path: &str) -> Vec<(u64, u64)> {
        let inner = self.inner.lock();
        inner
            .versions
            .get(path)
            .map(|v| v.iter().map(|av| (av.version, av.state_id)).collect())
            .unwrap_or_default()
    }

    /// Drops all versions older than the newest (files linked *without* the
    /// recovery option keep only the last committed image).
    fn prune_locked(inner: &mut StoreInner, path: &str) {
        if let Some(versions) = inner.versions.get_mut(path) {
            if versions.len() > 1 {
                let last = versions.pop().expect("non-empty");
                versions.clear();
                versions.push(last);
            }
        }
    }

    pub fn prune_to_latest(&self, path: &str) {
        let _membership = self.mirror_membership.read();
        let order = self.path_lock(path);
        let _order = order.lock();
        let mirrors = {
            let mut inner = self.inner.lock();
            Self::prune_locked(&mut inner, path);
            inner.mirrors.clone()
        };
        for mirror in &mirrors {
            let mut inner = mirror.inner.lock();
            if !inner.mirror_input_sealed {
                Self::prune_locked(&mut inner, path);
            }
        }
    }

    /// Forgets a file entirely (after unlink with ON UNLINK DELETE).
    pub fn forget(&self, path: &str) {
        let _membership = self.mirror_membership.read();
        {
            let order = self.path_lock(path);
            let _order = order.lock();
            let mirrors = {
                let mut inner = self.inner.lock();
                inner.versions.remove(path);
                inner.mirrors.clone()
            };
            for mirror in &mirrors {
                let mut inner = mirror.inner.lock();
                if !inner.mirror_input_sealed {
                    inner.versions.remove(path);
                }
            }
        }
        self.gc_path_lock(path);
    }

    /// Moves a rolled-back in-flight image aside (§4.2: "the in-flight
    /// version of the file is moved to a temporary directory").
    pub fn quarantine(&self, path: &str, data: Vec<u8>) {
        self.inner.lock().quarantine.push((path.to_string(), data));
    }

    /// Quarantined images (diagnostics).
    pub fn quarantined(&self) -> Vec<(String, usize)> {
        let inner = self.inner.lock();
        inner.quarantine.iter().map(|(p, d)| (p.clone(), d.len())).collect()
    }

    /// The most recent quarantined image of `path`, bytes included —
    /// operators recover abandoned in-flight work from here (§4.2 moves
    /// the dirty image to "a temporary directory", it does not delete it).
    pub fn quarantined_data(&self, path: &str) -> Option<Vec<u8>> {
        let inner = self.inner.lock();
        inner.quarantine.iter().rev().find(|(p, _)| p == path).map(|(_, d)| d.clone())
    }

    // --- async-archiving bookkeeping ---------------------------------------

    /// Marks `path` as having an archive job in flight for `version`.
    pub fn begin_archiving(&self, path: &str, version: u64) {
        self.inner.lock().archiving.insert(path.to_string(), version);
    }

    fn end_archiving(&self, path: &str) {
        self.inner.lock().archiving.remove(path);
        self.done.notify_all();
    }

    /// Withdraws an in-flight marker set by [`ArchiveStore::begin_archiving`]
    /// without a completed job (the close path pre-marks before its commit
    /// so no update can sneak in guard-free; a failed commit takes it back).
    pub fn cancel_archiving(&self, path: &str) {
        self.end_archiving(path);
    }

    /// Is an archive job in flight for `path`? New updates must wait (§4.4).
    pub fn is_archiving(&self, path: &str) -> bool {
        self.inner.lock().archiving.contains_key(path)
    }

    /// Clears `path`'s in-flight marker on behalf of a job whose
    /// completion callback runs next; [`ArchiveStore::wait_archived`]
    /// keeps waiting until the matching [`ArchiveStore::end_settling`].
    fn begin_settling(&self, path: &str) {
        let mut inner = self.inner.lock();
        inner.archiving.remove(path);
        inner.settling += 1;
        self.done.notify_all();
    }

    fn end_settling(&self) {
        self.inner.lock().settling -= 1;
        self.done.notify_all();
    }

    /// Blocks until no archive job is in flight for `path` *and* no
    /// job's completion callback is still running — the callback commits
    /// to the repository (`needs_archive` clears), and a caller draining
    /// the system must not see that write land after its drain returned.
    pub fn wait_archived(&self, path: &str) {
        let mut inner = self.inner.lock();
        while inner.archiving.contains_key(path) || inner.settling > 0 {
            self.done.wait(&mut inner);
        }
    }
}

/// A job for the asynchronous archiver.
pub struct ArchiveJob {
    pub path: String,
    pub version: u64,
    pub state_id: u64,
    /// Content to archive. `None` lets the worker read the file itself via
    /// the archiver's content source — the asynchronous mode of §4.4, where
    /// the copy happens entirely off the close path. Safe because new
    /// updates to the file are blocked until the job completes, so the
    /// content cannot change underneath the worker.
    pub data: Option<Vec<u8>>,
    /// Keep only the newest version after this job (no recovery option).
    pub prune: bool,
}

/// Reads a file's current content on behalf of the archiver worker.
pub type ContentSource = Arc<dyn Fn(&str) -> Option<Vec<u8>> + Send + Sync>;

/// Invoked with (path, version) after an archive job settles — successful
/// or not — and the file's in-flight marker has cleared (so a waiter woken
/// by the callback observes `is_archiving == false`). The job may have
/// stored nothing (e.g. the content source failed), so a callback that
/// acts on success must check the store first. The DLFM server uses it to
/// eagerly clear `needs_archive` in the repository — store- and
/// version-guarded, since by the time it runs a newer update may already
/// be in flight — and to wake writers blocked on the in-flight archive.
pub type ArchiveCompletion = Arc<dyn Fn(&str, u64) + Send + Sync>;

enum Msg {
    Job(Box<ArchiveJob>),
    Shutdown,
}

/// Asynchronous archiver daemon: a worker thread draining a job queue.
pub struct Archiver {
    tx: Sender<Msg>,
    handle: Option<JoinHandle<()>>,
    store: Arc<ArchiveStore>,
    source: Option<ContentSource>,
    on_complete: Option<ArchiveCompletion>,
}

/// Stores one job's content and runs the completion callback; shared by the
/// async worker and the synchronous path so both honour the completion
/// contract (store holds the version, in-flight marker cleared, THEN the
/// callback — so callback-driven wakeups observe the job as finished).
fn run_job(
    store: &ArchiveStore,
    source: &Option<ContentSource>,
    on_complete: &Option<ArchiveCompletion>,
    mut job: ArchiveJob,
) {
    let data = job.data.take().or_else(|| source.as_ref().and_then(|src| src(&job.path)));
    if let Some(data) = data {
        store.put(&job.path, job.version, job.state_id, data);
        if job.prune {
            store.prune_to_latest(&job.path);
        }
    }
    store.begin_settling(&job.path);
    // Unconditionally: even a job that stored nothing must wake waiters
    // blocked on the (now cleared) in-flight marker.
    if let Some(cb) = on_complete {
        cb(&job.path, job.version);
    }
    store.end_settling();
}

impl Archiver {
    /// Spawns the worker without a content source (jobs must carry data).
    pub fn spawn(store: Arc<ArchiveStore>) -> Archiver {
        Self::spawn_with_source(store, None)
    }

    /// Spawns the worker with a content source for lazy reads.
    pub fn spawn_with_source(store: Arc<ArchiveStore>, source: Option<ContentSource>) -> Archiver {
        Self::spawn_with(store, source, None)
    }

    /// Spawns the worker with a content source and a completion callback.
    pub fn spawn_with(
        store: Arc<ArchiveStore>,
        source: Option<ContentSource>,
        on_complete: Option<ArchiveCompletion>,
    ) -> Archiver {
        let (tx, rx) = channel::<Msg>();
        let worker_store = Arc::clone(&store);
        let worker_source = source.clone();
        let worker_complete = on_complete.clone();
        let handle = std::thread::Builder::new()
            .name("dlfm-archiver".into())
            .spawn(move || {
                while let Ok(Msg::Job(job)) = rx.recv() {
                    run_job(&worker_store, &worker_source, &worker_complete, *job);
                }
            })
            .expect("spawn archiver thread");
        Archiver { tx, handle: Some(handle), store, source, on_complete }
    }

    /// Enqueues an asynchronous archive job. The file is marked as
    /// archiving *before* this returns, so a subsequent update request
    /// observes the in-flight job and blocks.
    pub fn submit(&self, job: ArchiveJob) {
        self.store.begin_archiving(&job.path, job.version);
        // If the worker is gone (shutdown race), archive synchronously: a
        // lost committed version is never acceptable.
        if self.tx.send(Msg::Job(Box::new(job))).is_err() {
            unreachable!("archiver queue is unbounded and closed only on drop");
        }
    }

    /// Archives synchronously (used by the `sync_archive` ablation and by
    /// recovery, which must not race the worker).
    pub fn submit_sync(&self, job: ArchiveJob) {
        self.store.begin_archiving(&job.path, job.version);
        run_job(&self.store, &self.source, &self.on_complete, job);
    }
}

impl Drop for Archiver {
    fn drop(&mut self) {
        let _ = self.tx.send(Msg::Shutdown);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_latest() {
        let store = ArchiveStore::new();
        store.put("/f", 1, 100, b"v1".to_vec());
        store.put("/f", 2, 200, b"v2".to_vec());
        assert_eq!(store.latest("/f").unwrap().data, b"v2");
        assert_eq!(store.get("/f", 1).unwrap().data, b"v1");
        assert!(store.get("/f", 3).is_none());
        assert!(store.latest("/nope").is_none());
    }

    #[test]
    fn put_is_idempotent_per_version() {
        let store = ArchiveStore::new();
        store.put("/f", 1, 100, b"original".to_vec());
        store.put("/f", 1, 999, b"impostor".to_vec());
        assert_eq!(store.get("/f", 1).unwrap().data, b"original");
        assert_eq!(store.versions("/f").len(), 1);
    }

    #[test]
    fn version_at_state_picks_correct_version() {
        let store = ArchiveStore::new();
        store.put("/f", 1, 100, b"v1".to_vec());
        store.put("/f", 2, 200, b"v2".to_vec());
        store.put("/f", 3, 300, b"v3".to_vec());
        assert_eq!(store.version_at_state("/f", 250).unwrap().version, 2);
        assert_eq!(store.version_at_state("/f", 300).unwrap().version, 3);
        assert_eq!(store.version_at_state("/f", 5000).unwrap().version, 3);
        assert!(store.version_at_state("/f", 50).is_none());
    }

    #[test]
    fn prune_keeps_only_latest() {
        let store = ArchiveStore::new();
        store.put("/f", 1, 100, b"v1".to_vec());
        store.put("/f", 2, 200, b"v2".to_vec());
        store.prune_to_latest("/f");
        assert_eq!(store.versions("/f"), vec![(2, 200)]);
    }

    #[test]
    fn quarantine_records_inflight_images() {
        let store = ArchiveStore::new();
        store.quarantine("/f", b"dirty bytes".to_vec());
        assert_eq!(store.quarantined(), vec![("/f".to_string(), 11)]);
    }

    #[test]
    fn async_archiver_completes_and_unblocks() {
        let store = Arc::new(ArchiveStore::new());
        let archiver = Archiver::spawn(Arc::clone(&store));
        archiver.submit(ArchiveJob {
            path: "/f".into(),
            version: 1,
            state_id: 42,
            data: Some(b"content".to_vec()),
            prune: false,
        });
        store.wait_archived("/f");
        assert!(!store.is_archiving("/f"));
        assert_eq!(store.latest("/f").unwrap().state_id, 42);
    }

    #[test]
    fn submit_marks_archiving_immediately() {
        let store = Arc::new(ArchiveStore::new());
        let archiver = Archiver::spawn(Arc::clone(&store));
        // Submit many jobs; at least the begin markers must be visible
        // synchronously (the worker may of course finish fast).
        for v in 1..=20 {
            archiver.submit(ArchiveJob {
                path: format!("/f{v}"),
                version: 1,
                state_id: v,
                data: Some(vec![0u8; 1024]),
                prune: false,
            });
        }
        for v in 1..=20 {
            store.wait_archived(&format!("/f{v}"));
            assert!(store.latest(&format!("/f{v}")).is_some());
        }
    }

    #[test]
    fn sync_submit_is_immediate() {
        let store = Arc::new(ArchiveStore::new());
        let archiver = Archiver::spawn(Arc::clone(&store));
        archiver.submit_sync(ArchiveJob {
            path: "/s".into(),
            version: 1,
            state_id: 7,
            data: Some(b"now".to_vec()),
            prune: true,
        });
        assert!(!store.is_archiving("/s"));
        assert_eq!(store.latest("/s").unwrap().data, b"now");
    }

    #[test]
    fn completion_callback_runs_after_store_holds_version() {
        let store = Arc::new(ArchiveStore::new());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let cb_store = Arc::clone(&store);
        let cb_seen = Arc::clone(&seen);
        let archiver = Archiver::spawn_with(
            Arc::clone(&store),
            None,
            Some(Arc::new(move |path: &str, version: u64| {
                assert!(
                    cb_store.get(path, version).is_some(),
                    "callback must observe the archived version"
                );
                cb_seen.lock().push((path.to_string(), version));
            })),
        );
        archiver.submit(ArchiveJob {
            path: "/f".into(),
            version: 3,
            state_id: 9,
            data: Some(b"v3".to_vec()),
            prune: false,
        });
        // The callback runs after the in-flight marker clears, on the
        // worker thread; `wait_archived` covers it too.
        store.wait_archived("/f");
        assert_eq!(seen.lock().clone(), vec![("/f".to_string(), 3)]);

        archiver.submit_sync(ArchiveJob {
            path: "/g".into(),
            version: 1,
            state_id: 10,
            data: Some(b"g1".to_vec()),
            prune: false,
        });
        assert_eq!(seen.lock().len(), 2, "sync path honours the callback too");
    }

    #[test]
    fn wait_archived_outlasts_the_completion_callback() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::mpsc;
        let store = Arc::new(ArchiveStore::new());
        let (entered_tx, entered) = mpsc::channel();
        let (go, gate) = mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let archiver = Archiver::spawn_with(
            Arc::clone(&store),
            None,
            Some(Arc::new(move |_: &str, _: u64| {
                entered_tx.send(()).unwrap();
                let _ = gate.lock().recv();
            })),
        );
        archiver.submit(ArchiveJob {
            path: "/f".into(),
            version: 1,
            state_id: 1,
            data: Some(b"v1".to_vec()),
            prune: false,
        });
        entered.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        // Inside the callback the marker is already clear (what epoch
        // waiters rely on), yet a drain must keep waiting.
        assert!(!store.is_archiving("/f"));
        let drained = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                store.wait_archived("/f");
                drained.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert!(!drained.load(Ordering::SeqCst), "drain returned mid-callback");
            go.send(()).unwrap();
        });
        assert!(drained.load(Ordering::SeqCst));
    }

    #[test]
    fn forget_removes_all_versions() {
        let store = ArchiveStore::new();
        store.put("/f", 1, 1, b"x".to_vec());
        store.forget("/f");
        assert!(store.latest("/f").is_none());
    }

    #[test]
    fn prune_with_inflight_archiving_keeps_marker_and_latest() {
        // prune_to_latest can run (recovery, a no-recovery job) while a
        // *newer* version's archive job is still in flight: the prune must
        // only touch stored versions — never the in-flight marker, which
        // is what blocks concurrent writers — and the subsequently stored
        // version must land next to the survivor.
        let store = ArchiveStore::new();
        store.put("/f", 1, 100, b"v1".to_vec());
        store.put("/f", 2, 200, b"v2".to_vec());
        store.begin_archiving("/f", 3);

        store.prune_to_latest("/f");
        assert_eq!(store.versions("/f"), vec![(2, 200)], "stored versions pruned to latest");
        assert!(store.is_archiving("/f"), "in-flight marker survives the prune");

        // The in-flight job completes; its version joins the pruned set.
        store.put("/f", 3, 300, b"v3".to_vec());
        store.end_archiving("/f");
        assert_eq!(store.versions("/f"), vec![(2, 200), (3, 300)]);
        assert!(!store.is_archiving("/f"));
    }

    #[test]
    fn quarantine_round_trips_bytes() {
        let store = ArchiveStore::new();
        assert!(store.quarantined_data("/f").is_none(), "nothing quarantined yet");
        store.quarantine("/f", b"first dirty".to_vec());
        store.quarantine("/g", b"other file".to_vec());
        store.quarantine("/f", b"second dirty".to_vec());
        // Round-trip: the bytes come back, newest image per path wins.
        assert_eq!(store.quarantined_data("/f").unwrap(), b"second dirty");
        assert_eq!(store.quarantined_data("/g").unwrap(), b"other file");
        // The diagnostic listing still shows every image, in order.
        assert_eq!(
            store.quarantined(),
            vec![("/f".to_string(), 11), ("/g".to_string(), 10), ("/f".to_string(), 12)]
        );
    }

    #[test]
    fn version_at_state_on_empty_history() {
        let store = ArchiveStore::new();
        // Never-archived path: no history at all.
        assert!(store.version_at_state("/f", u64::MAX).is_none());
        // A path whose history emptied out (forget) behaves the same.
        store.put("/f", 1, 100, b"v1".to_vec());
        store.forget("/f");
        assert!(store.version_at_state("/f", u64::MAX).is_none());
        assert!(store.version_at_state("/f", 0).is_none());
    }

    #[test]
    fn mirror_receives_existing_and_future_content() {
        let primary = Arc::new(ArchiveStore::new());
        let mirror = Arc::new(ArchiveStore::new());
        primary.put("/f", 1, 100, b"v1".to_vec());

        primary.add_mirror(Arc::clone(&mirror));
        assert_eq!(mirror.get("/f", 1).unwrap().data, b"v1", "backfill on registration");

        primary.put("/f", 2, 200, b"v2".to_vec());
        assert_eq!(mirror.latest("/f").unwrap().version, 2, "forwarded put");

        primary.prune_to_latest("/f");
        assert_eq!(mirror.versions("/f"), vec![(2, 200)], "forwarded prune");

        primary.forget("/f");
        assert!(mirror.latest("/f").is_none(), "forwarded forget");

        // Detach (failover fencing): later puts no longer forward.
        primary.remove_mirror(&mirror);
        primary.put("/g", 1, 300, b"post-detach".to_vec());
        assert!(mirror.latest("/g").is_none(), "detached mirror receives nothing");
    }

    #[test]
    fn concurrent_per_path_mutators_keep_mirror_convergent() {
        // The store-wide mutator lock became per-path ordering: unrelated
        // paths now mutate concurrently, but mutations of one path must
        // still reach the mirror in local order — a forget can never be
        // overtaken by the put it followed (the resurrection bug the
        // ordering exists to prevent). Hammer puts/prunes/forgets across
        // disjoint paths from many threads and require primary and mirror
        // to agree exactly at the end.
        let primary = Arc::new(ArchiveStore::new());
        let mirror = Arc::new(ArchiveStore::new());
        primary.add_mirror(Arc::clone(&mirror));
        let threads = 8;
        let rounds = 40;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let primary = Arc::clone(&primary);
                scope.spawn(move || {
                    let path = format!("/f{t}");
                    for round in 0..rounds {
                        for v in 1..=3u64 {
                            primary.put(&path, round * 10 + v, round, vec![t as u8; 2048]);
                        }
                        if round % 3 == 0 {
                            primary.prune_to_latest(&path);
                        }
                        if round % 5 == 0 {
                            primary.forget(&path);
                        }
                    }
                    primary.put(&path, 9_999, 9_999, vec![t as u8; 16]);
                });
            }
        });
        for t in 0..threads {
            let path = format!("/f{t}");
            assert_eq!(
                primary.versions(&path),
                mirror.versions(&path),
                "mirror diverged on {path}"
            );
            assert_eq!(mirror.get(&path, 9_999).unwrap().data, vec![t as u8; 16]);
        }
    }

    #[test]
    fn forget_gc_keeps_path_order_map_bounded() {
        let store = ArchiveStore::new();
        for i in 0..100 {
            let path = format!("/tmp{i}");
            store.put(&path, 1, 1, b"x".to_vec());
            store.forget(&path);
        }
        assert!(
            store.path_order.lock().len() < 100,
            "forget must garbage-collect per-path order locks"
        );
    }

    #[test]
    fn mirror_does_not_see_transient_job_state() {
        let primary = Arc::new(ArchiveStore::new());
        let mirror = Arc::new(ArchiveStore::new());
        primary.add_mirror(Arc::clone(&mirror));
        primary.begin_archiving("/f", 1);
        primary.quarantine("/f", b"dirty".to_vec());
        assert!(!mirror.is_archiving("/f"));
        assert!(mirror.quarantined().is_empty());
    }
}
