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
//! Like a physical archive device, the store lives outside the file server
//! that writes it: it survives simulated crashes (the crash harness keeps
//! the `Arc<ArchiveStore>` alive while dropping the daemons and databases),
//! and one store serves a node's primary and all of its standbys — a
//! standby reads the versions where the primary put them.
//!
//! **One writer at a time.** Each DLFM server takes the next *writer
//! generation* when it is built ([`ArchiveStore::take_generation`]), which
//! fences whoever wrote before it, and stamps every mutation with it. A
//! mutation stamped with an older generation — a deposed primary's late
//! archive job, which reads the file lazily from the shared disk — is
//! dropped under the store lock. Reads are not fenced.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex, MutexGuard};

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
    /// path -> versions ordered by insertion (version ascending). Shared,
    /// so a read holds the store lock for a pointer copy and copies the
    /// bytes after releasing it: the node's standbys all read this store.
    versions: HashMap<String, Vec<Arc<ArchivedVersion>>>,
    /// Files with an archive job in flight.
    archiving: HashMap<String, u64>,
    /// Jobs whose in-flight marker has cleared but whose completion
    /// callback has not returned yet.
    settling: usize,
    /// In-flight (dirty, rolled-back) images moved aside at recovery.
    quarantine: Vec<(String, Vec<u8>)>,
    /// The current writer generation: mutations stamped with any other
    /// are dropped.
    writer: u64,
}

/// The versioned archive store.
#[derive(Default)]
pub struct ArchiveStore {
    inner: Mutex<StoreInner>,
    done: Condvar,
}

impl ArchiveStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the next writer generation. From here on every mutation
    /// stamped with an earlier one is dropped, and the previous writer's
    /// in-flight markers are cleared: a job it left queued must not keep
    /// the new writer's write opens `Busy`.
    pub fn take_generation(&self) -> u64 {
        let mut inner = self.inner.lock();
        inner.writer += 1;
        inner.archiving.clear();
        self.done.notify_all();
        inner.writer
    }

    /// The store for a mutation by `writer`; `None` once a newer writer
    /// has taken over.
    fn writable(&self, writer: u64) -> Option<MutexGuard<'_, StoreInner>> {
        let inner = self.inner.lock();
        (inner.writer == writer).then_some(inner)
    }

    /// Stores a version on behalf of `writer`. Idempotent per
    /// (path, version).
    pub fn put(&self, writer: u64, path: &str, version: u64, state_id: u64, data: Vec<u8>) {
        let Some(mut inner) = self.writable(writer) else { return };
        let versions = inner.versions.entry(path.to_string()).or_default();
        if !versions.iter().any(|v| v.version == version) {
            versions.push(Arc::new(ArchivedVersion { version, state_id, data }));
            versions.sort_by_key(|v| v.version);
        }
    }

    /// The newest archived version of `path`.
    pub fn latest(&self, path: &str) -> Option<ArchivedVersion> {
        let found = self.inner.lock().versions.get(path)?.last().cloned();
        found.map(|v| ArchivedVersion::clone(&v))
    }

    /// A specific version of `path`.
    pub fn get(&self, path: &str, version: u64) -> Option<ArchivedVersion> {
        let found =
            self.inner.lock().versions.get(path)?.iter().find(|v| v.version == version).cloned();
        found.map(|v| ArchivedVersion::clone(&v))
    }

    /// The newest version whose state identifier is ≤ `state_id` — the
    /// coordinated point-in-time restore lookup.
    pub fn version_at_state(&self, path: &str, state_id: u64) -> Option<ArchivedVersion> {
        let found =
            self.inner.lock().versions.get(path)?.iter().rfind(|v| v.state_id <= state_id).cloned();
        found.map(|v| ArchivedVersion::clone(&v))
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
    pub fn prune_to_latest(&self, writer: u64, path: &str) {
        let Some(mut inner) = self.writable(writer) else { return };
        if let Some(versions) = inner.versions.get_mut(path) {
            if versions.len() > 1 {
                versions.drain(..versions.len() - 1);
            }
        }
    }

    /// Forgets a file entirely (after unlink with ON UNLINK DELETE).
    pub fn forget(&self, writer: u64, path: &str) {
        if let Some(mut inner) = self.writable(writer) {
            inner.versions.remove(path);
        }
    }

    /// Moves a rolled-back in-flight image aside (§4.2: "the in-flight
    /// version of the file is moved to a temporary directory").
    pub fn quarantine(&self, writer: u64, path: &str, data: Vec<u8>) {
        if let Some(mut inner) = self.writable(writer) {
            inner.quarantine.push((path.to_string(), data));
        }
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

    /// Marks `path` as having an archive job of `writer`'s in flight for
    /// `version`.
    pub fn begin_archiving(&self, writer: u64, path: &str, version: u64) {
        if let Some(mut inner) = self.writable(writer) {
            inner.archiving.insert(path.to_string(), version);
        }
    }

    /// Withdraws an in-flight marker set by [`ArchiveStore::begin_archiving`]
    /// without a completed job (the close path pre-marks before its commit
    /// so no update can sneak in guard-free; a failed commit takes it back).
    pub fn cancel_archiving(&self, writer: u64, path: &str) {
        if let Some(mut inner) = self.writable(writer) {
            inner.archiving.remove(path);
            self.done.notify_all();
        }
    }

    /// Is an archive job in flight for `path`? New updates must wait (§4.4).
    pub fn is_archiving(&self, path: &str) -> bool {
        self.inner.lock().archiving.contains_key(path)
    }

    /// Clears `path`'s in-flight marker on behalf of `writer`'s job, whose
    /// completion callback runs next; [`ArchiveStore::wait_archived`]
    /// keeps waiting until the matching [`ArchiveStore::end_settling`].
    /// Returns `false` — and does neither — for a deposed writer's job: its
    /// marker went with its generation, and its callback writes only to
    /// the deposed writer's repository.
    fn begin_settling(&self, writer: u64, path: &str) -> bool {
        let Some(mut inner) = self.writable(writer) else { return false };
        inner.archiving.remove(path);
        inner.settling += 1;
        self.done.notify_all();
        true
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
/// stored nothing (e.g. the content source failed, or a newer writer
/// fenced it), so a callback that acts on success must check the store
/// first. The DLFM server uses it to eagerly clear `needs_archive` in the
/// repository — store- and version-guarded, since by the time it runs a
/// newer update may already be in flight — and to wake writers blocked on
/// the in-flight archive.
pub type ArchiveCompletion = Arc<dyn Fn(&str, u64) + Send + Sync>;

enum Msg {
    Job(Box<ArchiveJob>),
    Shutdown,
}

/// What the worker thread and the synchronous path share.
struct Worker {
    store: Arc<ArchiveStore>,
    writer: u64,
    source: ContentSource,
    on_complete: ArchiveCompletion,
}

impl Worker {
    /// Stores one job's content and runs the completion callback, honouring
    /// the completion contract on both paths: store holds the version,
    /// in-flight marker cleared, THEN the callback — so callback-driven
    /// wakeups observe the job as finished.
    fn run(&self, mut job: ArchiveJob) {
        if let Some(data) = job.data.take().or_else(|| (self.source)(&job.path)) {
            self.store.put(self.writer, &job.path, job.version, job.state_id, data);
            if job.prune {
                self.store.prune_to_latest(self.writer, &job.path);
            }
        }
        let settling = self.store.begin_settling(self.writer, &job.path);
        // Unconditionally: even a job that stored nothing must wake waiters
        // blocked on the (now cleared) in-flight marker.
        (self.on_complete)(&job.path, job.version);
        if settling {
            self.store.end_settling();
        }
    }
}

/// Asynchronous archiver daemon: a worker thread draining a job queue.
pub struct Archiver {
    tx: Sender<Msg>,
    handle: Option<JoinHandle<()>>,
    worker: Arc<Worker>,
}

impl Archiver {
    /// Spawns the worker. Every mutation it makes carries `writer`, the
    /// owning server's generation on `store`; `source` reads the file for
    /// jobs that carry no data, and `on_complete` runs after each job.
    pub fn spawn(
        store: Arc<ArchiveStore>,
        writer: u64,
        source: ContentSource,
        on_complete: ArchiveCompletion,
    ) -> Archiver {
        let (tx, rx) = channel::<Msg>();
        let worker = Arc::new(Worker { store, writer, source, on_complete });
        let thread_worker = Arc::clone(&worker);
        let handle = std::thread::Builder::new()
            .name("dlfm-archiver".into())
            .spawn(move || {
                while let Ok(Msg::Job(job)) = rx.recv() {
                    thread_worker.run(*job);
                }
            })
            .expect("spawn archiver thread");
        Archiver { tx, handle: Some(handle), worker }
    }

    /// Enqueues an asynchronous archive job. The file is marked as
    /// archiving *before* this returns, so a subsequent update request
    /// observes the in-flight job and blocks.
    pub fn submit(&self, job: ArchiveJob) {
        self.worker.store.begin_archiving(self.worker.writer, &job.path, job.version);
        if self.tx.send(Msg::Job(Box::new(job))).is_err() {
            unreachable!("archiver queue is unbounded and closed only on drop");
        }
    }

    /// Archives synchronously (used by the `sync_archive` ablation and by
    /// recovery, which must not race the worker).
    pub fn submit_sync(&self, job: ArchiveJob) {
        self.worker.store.begin_archiving(self.worker.writer, &job.path, job.version);
        self.worker.run(job);
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
    use std::sync::mpsc;

    fn no_callback() -> ArchiveCompletion {
        Arc::new(|_: &str, _: u64| {})
    }

    /// An archiver writing `store` as its current writer; jobs carry their
    /// data (no content source).
    fn archiver(store: &Arc<ArchiveStore>, on_complete: ArchiveCompletion) -> Archiver {
        let writer = store.take_generation();
        Archiver::spawn(Arc::clone(store), writer, Arc::new(|_: &str| None), on_complete)
    }

    fn job(path: &str, version: u64, state_id: u64, data: &[u8]) -> ArchiveJob {
        ArchiveJob { path: path.into(), version, state_id, data: Some(data.to_vec()), prune: false }
    }

    #[test]
    fn put_get_latest() {
        let store = ArchiveStore::new();
        let w = store.take_generation();
        store.put(w, "/f", 1, 100, b"v1".to_vec());
        store.put(w, "/f", 2, 200, b"v2".to_vec());
        assert_eq!(store.latest("/f").unwrap().data, b"v2");
        assert_eq!(store.get("/f", 1).unwrap().data, b"v1");
        assert!(store.get("/f", 3).is_none());
        assert!(store.latest("/nope").is_none());
    }

    #[test]
    fn put_is_idempotent_per_version() {
        let store = ArchiveStore::new();
        let w = store.take_generation();
        store.put(w, "/f", 1, 100, b"original".to_vec());
        store.put(w, "/f", 1, 999, b"impostor".to_vec());
        assert_eq!(store.get("/f", 1).unwrap().data, b"original");
        assert_eq!(store.versions("/f").len(), 1);
    }

    #[test]
    fn version_at_state_picks_correct_version() {
        let store = ArchiveStore::new();
        let w = store.take_generation();
        store.put(w, "/f", 1, 100, b"v1".to_vec());
        store.put(w, "/f", 2, 200, b"v2".to_vec());
        store.put(w, "/f", 3, 300, b"v3".to_vec());
        assert_eq!(store.version_at_state("/f", 250).unwrap().version, 2);
        assert_eq!(store.version_at_state("/f", 300).unwrap().version, 3);
        assert_eq!(store.version_at_state("/f", 5000).unwrap().version, 3);
        assert!(store.version_at_state("/f", 50).is_none());
    }

    #[test]
    fn prune_keeps_only_latest() {
        let store = ArchiveStore::new();
        let w = store.take_generation();
        store.put(w, "/f", 1, 100, b"v1".to_vec());
        store.put(w, "/f", 2, 200, b"v2".to_vec());
        store.prune_to_latest(w, "/f");
        assert_eq!(store.versions("/f"), vec![(2, 200)]);
    }

    #[test]
    fn quarantine_records_inflight_images() {
        let store = ArchiveStore::new();
        let w = store.take_generation();
        store.quarantine(w, "/f", b"dirty bytes".to_vec());
        assert_eq!(store.quarantined(), vec![("/f".to_string(), 11)]);
    }

    #[test]
    fn async_archiver_completes_and_unblocks() {
        let store = Arc::new(ArchiveStore::new());
        let archiver = archiver(&store, no_callback());
        archiver.submit(job("/f", 1, 42, b"content"));
        store.wait_archived("/f");
        assert!(!store.is_archiving("/f"));
        assert_eq!(store.latest("/f").unwrap().state_id, 42);
    }

    #[test]
    fn submit_marks_archiving_immediately() {
        let store = Arc::new(ArchiveStore::new());
        let archiver = archiver(&store, no_callback());
        // Submit many jobs; at least the begin markers must be visible
        // synchronously (the worker may of course finish fast).
        for v in 1..=20 {
            archiver.submit(job(&format!("/f{v}"), 1, v, &[0u8; 1024]));
        }
        for v in 1..=20 {
            store.wait_archived(&format!("/f{v}"));
            assert!(store.latest(&format!("/f{v}")).is_some());
        }
    }

    #[test]
    fn sync_submit_is_immediate() {
        let store = Arc::new(ArchiveStore::new());
        let archiver = archiver(&store, no_callback());
        archiver.submit_sync(ArchiveJob { prune: true, ..job("/s", 1, 7, b"now") });
        assert!(!store.is_archiving("/s"));
        assert_eq!(store.latest("/s").unwrap().data, b"now");
    }

    #[test]
    fn completion_callback_runs_after_store_holds_version() {
        let store = Arc::new(ArchiveStore::new());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let cb_store = Arc::clone(&store);
        let cb_seen = Arc::clone(&seen);
        let archiver = archiver(
            &store,
            Arc::new(move |path: &str, version: u64| {
                assert!(
                    cb_store.get(path, version).is_some(),
                    "callback must observe the archived version"
                );
                cb_seen.lock().push((path.to_string(), version));
            }),
        );
        archiver.submit(job("/f", 3, 9, b"v3"));
        // The callback runs after the in-flight marker clears, on the
        // worker thread; `wait_archived` covers it too.
        store.wait_archived("/f");
        assert_eq!(seen.lock().clone(), vec![("/f".to_string(), 3)]);

        archiver.submit_sync(job("/g", 1, 10, b"g1"));
        assert_eq!(seen.lock().len(), 2, "sync path honours the callback too");
    }

    #[test]
    fn wait_archived_outlasts_the_completion_callback() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let store = Arc::new(ArchiveStore::new());
        let (entered_tx, entered) = mpsc::channel();
        let (go, gate) = mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let archiver = archiver(
            &store,
            Arc::new(move |_: &str, _: u64| {
                entered_tx.send(()).unwrap();
                let _ = gate.lock().recv();
            }),
        );
        archiver.submit(job("/f", 1, 1, b"v1"));
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
        let w = store.take_generation();
        store.put(w, "/f", 1, 1, b"x".to_vec());
        store.forget(w, "/f");
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
        let w = store.take_generation();
        store.put(w, "/f", 1, 100, b"v1".to_vec());
        store.put(w, "/f", 2, 200, b"v2".to_vec());
        store.begin_archiving(w, "/f", 3);

        store.prune_to_latest(w, "/f");
        assert_eq!(store.versions("/f"), vec![(2, 200)], "stored versions pruned to latest");
        assert!(store.is_archiving("/f"), "in-flight marker survives the prune");

        // The in-flight job completes; its version joins the pruned set.
        store.put(w, "/f", 3, 300, b"v3".to_vec());
        store.cancel_archiving(w, "/f");
        assert_eq!(store.versions("/f"), vec![(2, 200), (3, 300)]);
        assert!(!store.is_archiving("/f"));
    }

    #[test]
    fn quarantine_round_trips_bytes() {
        let store = ArchiveStore::new();
        let w = store.take_generation();
        assert!(store.quarantined_data("/f").is_none(), "nothing quarantined yet");
        store.quarantine(w, "/f", b"first dirty".to_vec());
        store.quarantine(w, "/g", b"other file".to_vec());
        store.quarantine(w, "/f", b"second dirty".to_vec());
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
        let w = store.take_generation();
        // Never-archived path: no history at all.
        assert!(store.version_at_state("/f", u64::MAX).is_none());
        // A path whose history emptied out (forget) behaves the same.
        store.put(w, "/f", 1, 100, b"v1".to_vec());
        store.forget(w, "/f");
        assert!(store.version_at_state("/f", u64::MAX).is_none());
        assert!(store.version_at_state("/f", 0).is_none());
    }

    #[test]
    fn a_deposed_writer_changes_nothing() {
        let store = ArchiveStore::new();
        let old = store.take_generation();
        store.put(old, "/f", 1, 100, b"v1".to_vec());
        store.put(old, "/f", 2, 200, b"v2".to_vec());
        store.begin_archiving(old, "/f", 3);
        store.begin_archiving(old, "/g", 1);

        // A new writer takes over, and the old one's markers go with it.
        let new = store.take_generation();
        assert!(!store.is_archiving("/f") && !store.is_archiving("/g"));
        store.wait_archived("/f");

        // Every mutation the deposed writer still makes is dropped.
        store.put(old, "/f", 3, 300, b"late".to_vec());
        store.put(old, "/h", 1, 100, b"late".to_vec());
        store.prune_to_latest(old, "/f");
        store.forget(old, "/f");
        store.quarantine(old, "/f", b"dirty".to_vec());
        store.begin_archiving(old, "/f", 4);
        assert_eq!(store.versions("/f"), vec![(1, 100), (2, 200)]);
        assert!(store.latest("/h").is_none());
        assert!(store.quarantined().is_empty());
        assert!(!store.is_archiving("/f"));

        // Nor can it withdraw the current writer's marker.
        store.begin_archiving(new, "/f", 3);
        store.cancel_archiving(old, "/f");
        assert!(store.is_archiving("/f"));
        store.put(new, "/f", 3, 300, b"v3".to_vec());
        store.cancel_archiving(new, "/f");
        assert!(!store.is_archiving("/f"));
        assert_eq!(store.get("/f", 3).unwrap().data, b"v3");
    }

    #[test]
    fn a_deposed_archivers_queued_job_lands_nothing() {
        // The deposed archiver's job is stuck reading the file when a new
        // writer takes over; released, it must neither store its bytes nor
        // clear the marker the new writer set meanwhile.
        let store = Arc::new(ArchiveStore::new());
        let (release, gate) = mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let deposed = Archiver::spawn(
            Arc::clone(&store),
            store.take_generation(),
            Arc::new(move |_: &str| {
                let _ = gate.lock().recv();
                Some(b"read after the takeover".to_vec())
            }),
            no_callback(),
        );
        deposed.submit(ArchiveJob { data: None, ..job("/f", 2, 20, b"") });
        assert!(store.is_archiving("/f"));

        let current = store.take_generation();
        assert!(!store.is_archiving("/f"), "the takeover clears the deposed job's marker");
        store.begin_archiving(current, "/f", 3);
        release.send(()).unwrap();
        drop(deposed); // joins the worker once it has run the job
        assert!(store.latest("/f").is_none(), "the deposed job's bytes landed");
        assert!(store.is_archiving("/f"), "the deposed job cleared the current writer's marker");
    }
}
