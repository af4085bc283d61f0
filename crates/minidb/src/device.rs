//! Storage devices and environments.
//!
//! A [`Device`] is a flat, random-access byte store — the abstraction of one
//! disk file. A [`StorageEnv`] hands out named devices ("wal", "snap.a",
//! "snap.b") and can *fork* itself, which is how backups and simulated
//! crashes work: a fork is a moment-in-time copy of the durable state, and a
//! crash is simply re-opening a database from its (still live) environment
//! while dropping all in-memory state.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::error::{DbError, DbResult};

/// Injectable disk faults shared by every device of a faulted in-memory
/// environment ([`StorageEnv::mem_with_faults`]). Lab scenarios and crash
/// tests *declare* faults here instead of hand-editing device bytes:
///
/// - **ENOSPC budget** — [`DiskFaults::inject_enospc`] arms a budget of
///   `n` *failures*: while the budget is positive every `write_at` on an
///   attached device fails with an `ENOSPC` I/O error and decrements it.
///   Failures are therefore a strict prefix of the writes that follow the
///   injection (the device never interleaves success and failure), which
///   keeps two-phase commit sane: once a vote's log write has succeeded
///   the budget is exhausted, so the decision record that follows it
///   cannot be the one that fails.
/// - **Torn tail on crash** — [`DiskFaults::arm_torn_tail`] declares that
///   the last `bytes` of a named device never reached the platter. The
///   shear is applied by [`StorageEnv::apply_crash_faults`], which crash
///   simulations call before re-opening: the live process believed the
///   write was durable; only the crash reveals the torn suffix.
#[derive(Default)]
pub struct DiskFaults {
    /// Remaining writes that fail with ENOSPC (counts failures, not writes).
    enospc_budget: AtomicU64,
    /// Writes rejected so far (tests assert the fault actually fired).
    enospc_hits: AtomicU64,
    /// Armed torn tail: device name and bytes to shear off at crash.
    torn: Mutex<Option<(String, u64)>>,
}

impl DiskFaults {
    /// A fresh, quiescent fault handle (no faults armed).
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Arms `writes` consecutive write failures: the next `writes` calls
    /// to `write_at` on any attached device fail with ENOSPC, then the
    /// device recovers (the operator freed space).
    pub fn inject_enospc(&self, writes: u64) {
        self.enospc_budget.fetch_add(writes, Ordering::SeqCst);
    }

    /// Write failures still to be served from the armed budget.
    pub fn enospc_remaining(&self) -> u64 {
        self.enospc_budget.load(Ordering::SeqCst)
    }

    /// Writes rejected with ENOSPC since this handle was created.
    pub fn enospc_hits(&self) -> u64 {
        self.enospc_hits.load(Ordering::SeqCst)
    }

    /// Declares that the final `bytes` of device `name` were torn (never
    /// durable). Applied by [`StorageEnv::apply_crash_faults`]; re-arming
    /// replaces any previous declaration.
    pub fn arm_torn_tail(&self, name: &str, bytes: u64) {
        *self.torn.lock() = Some((name.to_string(), bytes));
    }

    /// Commit-path check used by attached devices: consumes one unit of
    /// ENOSPC budget if any is armed.
    fn check_write(&self) -> DbResult<()> {
        // Decrement-if-positive without underflow under concurrency.
        loop {
            let cur = self.enospc_budget.load(Ordering::SeqCst);
            if cur == 0 {
                return Ok(());
            }
            if self
                .enospc_budget
                .compare_exchange(cur, cur - 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                self.enospc_hits.fetch_add(1, Ordering::SeqCst);
                return Err(DbError::Io("ENOSPC: injected disk-full fault".into()));
            }
        }
    }

    /// Takes the armed torn-tail declaration, if any.
    fn take_torn(&self) -> Option<(String, u64)> {
        self.torn.lock().take()
    }
}

/// A flat byte store with positional I/O, the moral equivalent of a file.
pub trait Device: Send + Sync {
    /// Reads up to `buf.len()` bytes at `offset`; returns bytes read (short
    /// reads only at end of device).
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> DbResult<usize>;
    /// Writes all of `data` at `offset`, extending the device as needed.
    fn write_at(&self, offset: u64, data: &[u8]) -> DbResult<()>;
    /// Current device length in bytes.
    fn len(&self) -> DbResult<u64>;
    /// True when the device holds no bytes.
    fn is_empty(&self) -> DbResult<bool> {
        Ok(self.len()? == 0)
    }
    /// Durably flushes buffered writes.
    fn sync(&self) -> DbResult<()>;
    /// Truncates or extends to exactly `len` bytes.
    fn set_len(&self, len: u64) -> DbResult<()>;
}

/// In-memory device. The backing vector survives as long as the Arc does,
/// which makes it the "disk" in crash-simulation tests.
#[derive(Default)]
pub struct MemDevice {
    data: RwLock<Vec<u8>>,
    /// Fault handle shared with the owning environment (None = never fails).
    faults: Option<Arc<DiskFaults>>,
    /// Minimum cost charged by every [`Device::sync`] call. Unlike fskit's
    /// spin-based `IoModel`, this *sleeps*: a real fsync parks the calling
    /// thread in the kernel and leaves the CPU free for other committers —
    /// exactly the property group commit exploits (and the only honest
    /// model on a single-core host). Zero (the default) keeps sync free.
    sync_latency_ns: u64,
    /// Number of `sync` calls served (benchmarks and tests read this).
    syncs: std::sync::atomic::AtomicU64,
}

impl MemDevice {
    pub fn new() -> Self {
        Self::default()
    }

    /// A device whose `sync` costs `ns` nanoseconds — the knob that makes a
    /// group-commit win measurable deterministically (a `sync` on a real
    /// disk is the expensive step every commit pays).
    pub fn with_sync_latency_ns(ns: u64) -> Self {
        MemDevice { sync_latency_ns: ns, ..Default::default() }
    }

    /// Deep copy of the current contents (fork support).
    pub fn snapshot(&self) -> Vec<u8> {
        self.data.read().clone()
    }

    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        MemDevice { data: RwLock::new(bytes), ..Default::default() }
    }

    /// How many times this device has been synced.
    pub fn sync_count(&self) -> u64 {
        self.syncs.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl Device for MemDevice {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> DbResult<usize> {
        let data = self.data.read();
        let off = offset as usize;
        if off >= data.len() {
            return Ok(0);
        }
        let n = buf.len().min(data.len() - off);
        buf[..n].copy_from_slice(&data[off..off + n]);
        Ok(n)
    }

    fn write_at(&self, offset: u64, bytes: &[u8]) -> DbResult<()> {
        if let Some(faults) = &self.faults {
            faults.check_write()?;
        }
        let mut data = self.data.write();
        let off = offset as usize;
        let end = off + bytes.len();
        if data.len() < end {
            data.resize(end, 0);
        }
        data[off..end].copy_from_slice(bytes);
        Ok(())
    }

    fn len(&self) -> DbResult<u64> {
        Ok(self.data.read().len() as u64)
    }

    fn sync(&self) -> DbResult<()> {
        self.syncs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if self.sync_latency_ns > 0 {
            std::thread::sleep(std::time::Duration::from_nanos(self.sync_latency_ns));
        }
        Ok(())
    }

    fn set_len(&self, len: u64) -> DbResult<()> {
        self.data.write().resize(len as usize, 0);
        Ok(())
    }
}

/// A device backed by an operating-system file. Every call is positional
/// I/O on a shared `&File`, so two log flushes' `sync`s (and a reader's
/// `read_at`) overlap instead of queueing on a lock.
pub struct FileDevice {
    file: File,
    path: PathBuf,
}

impl FileDevice {
    pub fn open(path: PathBuf) -> DbResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| DbError::Io(format!("open {path:?}: {e}")))?;
        Ok(FileDevice { file, path })
    }

    pub fn path(&self) -> &PathBuf {
        &self.path
    }
}

impl Device for FileDevice {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> DbResult<usize> {
        let mut total = 0;
        while total < buf.len() {
            match self.file.read_at(&mut buf[total..], offset + total as u64)? {
                0 => break,
                n => total += n,
            }
        }
        Ok(total)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> DbResult<()> {
        self.file.write_all_at(data, offset)?;
        Ok(())
    }

    fn len(&self) -> DbResult<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn sync(&self) -> DbResult<()> {
        self.file.sync_data()?;
        Ok(())
    }

    fn set_len(&self, len: u64) -> DbResult<()> {
        self.file.set_len(len)?;
        Ok(())
    }
}

/// The shared state of an in-memory [`StorageEnv`].
#[derive(Default)]
pub struct MemEnv {
    devices: RwLock<HashMap<String, Arc<MemDevice>>>,
    /// Sync latency handed to every device this environment creates.
    sync_latency_ns: u64,
    /// Fault handle shared with every device this environment creates.
    faults: Option<Arc<DiskFaults>>,
}

/// Provides the named devices a database needs and supports forking.
#[derive(Clone)]
pub enum StorageEnv {
    /// Devices held in memory, shared through Arcs.
    Mem(Arc<MemEnv>),
    /// Devices are files inside a directory.
    Dir(PathBuf),
}

impl StorageEnv {
    /// A fresh in-memory environment.
    pub fn mem() -> Self {
        StorageEnv::Mem(Arc::new(MemEnv::default()))
    }

    /// An in-memory environment whose devices charge `ns` nanoseconds per
    /// `sync` — a deterministic stand-in for disk flush latency.
    pub fn mem_with_sync_latency(ns: u64) -> Self {
        StorageEnv::Mem(Arc::new(MemEnv { sync_latency_ns: ns, ..Default::default() }))
    }

    /// An in-memory environment whose devices consult `faults` on every
    /// write — the injectable disk-fault layer lab scenarios declare
    /// ENOSPC and torn-write faults through (see [`DiskFaults`]) — and
    /// charge `sync_latency_ns` per `sync` (zero keeps sync free).
    pub fn mem_with_faults(faults: Arc<DiskFaults>, sync_latency_ns: u64) -> Self {
        StorageEnv::Mem(Arc::new(MemEnv {
            faults: Some(faults),
            sync_latency_ns,
            ..Default::default()
        }))
    }

    /// The fault handle attached at construction, if any.
    pub fn faults(&self) -> Option<Arc<DiskFaults>> {
        match self {
            StorageEnv::Mem(env) => env.faults.clone(),
            StorageEnv::Dir(_) => None,
        }
    }

    /// Applies any armed crash-boundary fault (currently: the torn tail
    /// declared via [`DiskFaults::arm_torn_tail`]) and returns the number
    /// of bytes sheared. Crash simulations call this between "process
    /// died" and "recovery re-opens the environment": the torn suffix was
    /// never durable, so it must vanish exactly when the crash happens.
    pub fn apply_crash_faults(&self) -> DbResult<u64> {
        let Some(faults) = self.faults() else { return Ok(0) };
        let Some((name, bytes)) = faults.take_torn() else { return Ok(0) };
        let dev = self.device(&name)?;
        let len = dev.len()?;
        let torn = bytes.min(len);
        dev.set_len(len - torn)?;
        Ok(torn)
    }

    /// The per-`sync` latency this environment's devices charge (zero for
    /// directory-backed environments — real fsync cost applies there).
    /// Replica provisioning uses it to give standby environments the same
    /// durability cost as the primary's.
    pub fn sync_latency_ns(&self) -> u64 {
        match self {
            StorageEnv::Mem(env) => env.sync_latency_ns,
            StorageEnv::Dir(_) => 0,
        }
    }

    /// A directory-backed environment (created if missing).
    pub fn dir(path: PathBuf) -> DbResult<Self> {
        std::fs::create_dir_all(&path)
            .map_err(|e| DbError::Io(format!("create_dir_all {path:?}: {e}")))?;
        Ok(StorageEnv::Dir(path))
    }

    /// Returns the named device, creating it empty when absent.
    pub fn device(&self, name: &str) -> DbResult<Arc<dyn Device>> {
        match self {
            StorageEnv::Mem(env) => {
                if let Some(dev) = env.devices.read().get(name) {
                    return Ok(Arc::clone(dev) as Arc<dyn Device>);
                }
                let mut w = env.devices.write();
                let dev = w.entry(name.to_string()).or_insert_with(|| {
                    Arc::new(MemDevice {
                        sync_latency_ns: env.sync_latency_ns,
                        faults: env.faults.clone(),
                        ..Default::default()
                    })
                });
                Ok(Arc::clone(dev) as Arc<dyn Device>)
            }
            StorageEnv::Dir(dir) => {
                let dev = FileDevice::open(dir.join(name))?;
                Ok(Arc::new(dev))
            }
        }
    }

    /// A moment-in-time deep copy of all devices — the backup primitive.
    ///
    /// The caller is responsible for quiescing writers (the database takes
    /// its commit latch around this).
    pub fn fork(&self) -> DbResult<StorageEnv> {
        match self {
            StorageEnv::Mem(env) => {
                let src = env.devices.read();
                let mut dst = HashMap::new();
                for (name, dev) in src.iter() {
                    dst.insert(
                        name.clone(),
                        Arc::new(MemDevice {
                            data: RwLock::new(dev.snapshot()),
                            sync_latency_ns: env.sync_latency_ns,
                            faults: env.faults.clone(),
                            syncs: Default::default(),
                        }),
                    );
                }
                Ok(StorageEnv::Mem(Arc::new(MemEnv {
                    devices: RwLock::new(dst),
                    sync_latency_ns: env.sync_latency_ns,
                    faults: env.faults.clone(),
                })))
            }
            StorageEnv::Dir(dir) => {
                let dst = dir.with_extension(format!(
                    "fork-{}",
                    std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .map(|d| d.as_nanos())
                        .unwrap_or(0)
                ));
                std::fs::create_dir_all(&dst).map_err(|e| DbError::Io(format!("fork dir: {e}")))?;
                for entry in std::fs::read_dir(dir).map_err(|e| DbError::Io(e.to_string()))? {
                    let entry = entry.map_err(|e| DbError::Io(e.to_string()))?;
                    if entry.path().is_file() {
                        std::fs::copy(entry.path(), dst.join(entry.file_name()))
                            .map_err(|e| DbError::Io(format!("fork copy: {e}")))?;
                    }
                }
                Ok(StorageEnv::Dir(dst))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_device_positional_io() {
        let d = MemDevice::new();
        d.write_at(4, b"abc").unwrap();
        assert_eq!(d.len().unwrap(), 7);
        let mut buf = [9u8; 7];
        assert_eq!(d.read_at(0, &mut buf).unwrap(), 7);
        assert_eq!(&buf, &[0, 0, 0, 0, b'a', b'b', b'c']);
        // Read past end.
        assert_eq!(d.read_at(100, &mut buf).unwrap(), 0);
    }

    #[test]
    fn mem_device_set_len() {
        let d = MemDevice::new();
        d.write_at(0, b"abcdef").unwrap();
        d.set_len(2).unwrap();
        assert_eq!(d.len().unwrap(), 2);
        let mut buf = [0u8; 6];
        assert_eq!(d.read_at(0, &mut buf).unwrap(), 2);
    }

    #[test]
    fn env_returns_same_mem_device() {
        let env = StorageEnv::mem();
        let a = env.device("wal").unwrap();
        a.write_at(0, b"log").unwrap();
        let b = env.device("wal").unwrap();
        let mut buf = [0u8; 3];
        b.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"log");
    }

    #[test]
    fn fork_is_isolated() {
        let env = StorageEnv::mem();
        env.device("wal").unwrap().write_at(0, b"one").unwrap();
        let fork = env.fork().unwrap();
        env.device("wal").unwrap().write_at(0, b"two").unwrap();

        let mut buf = [0u8; 3];
        fork.device("wal").unwrap().read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"one", "fork must not see post-fork writes");
    }

    #[test]
    fn mem_device_sync_latency_is_charged_and_counted() {
        let d = MemDevice::with_sync_latency_ns(200_000);
        let t = std::time::Instant::now();
        d.sync().unwrap();
        d.sync().unwrap();
        assert!(t.elapsed() >= std::time::Duration::from_micros(400));
        assert_eq!(d.sync_count(), 2);
    }

    #[test]
    fn mem_env_sync_latency_survives_fork() {
        let env = StorageEnv::mem_with_sync_latency(150_000);
        env.device("wal").unwrap().write_at(0, b"x").unwrap();
        let fork = env.fork().unwrap();
        for e in [&env, &fork] {
            let d = e.device("wal").unwrap();
            let t = std::time::Instant::now();
            d.sync().unwrap();
            assert!(t.elapsed() >= std::time::Duration::from_micros(150));
        }
    }

    #[test]
    fn enospc_budget_fails_a_strict_prefix_then_recovers() {
        let faults = DiskFaults::new();
        let env = StorageEnv::mem_with_faults(Arc::clone(&faults), 0);
        let dev = env.device("wal").unwrap();
        dev.write_at(0, b"pre").unwrap();

        faults.inject_enospc(2);
        assert!(dev.write_at(3, b"a").is_err());
        assert!(dev.write_at(3, b"b").is_err());
        // Budget spent: the device recovers, no interleaved failures.
        dev.write_at(3, b"c").unwrap();
        dev.write_at(4, b"d").unwrap();
        assert_eq!(faults.enospc_hits(), 2);
        assert_eq!(faults.enospc_remaining(), 0);
        // The failed writes left no bytes behind.
        let mut buf = [0u8; 5];
        assert_eq!(dev.read_at(0, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"precd");
    }

    #[test]
    fn enospc_budget_covers_every_device_of_the_env() {
        let faults = DiskFaults::new();
        let env = StorageEnv::mem_with_faults(Arc::clone(&faults), 0);
        let a = env.device("wal").unwrap();
        let b = env.device("snap.a").unwrap();
        faults.inject_enospc(1);
        assert!(a.write_at(0, b"x").is_err());
        b.write_at(0, b"y").unwrap();
        assert_eq!(faults.enospc_hits(), 1);
    }

    #[test]
    fn torn_tail_applies_only_at_crash_boundary() {
        let faults = DiskFaults::new();
        let env = StorageEnv::mem_with_faults(Arc::clone(&faults), 0);
        let dev = env.device("wal").unwrap();
        dev.write_at(0, b"0123456789").unwrap();

        faults.arm_torn_tail("wal", 4);
        // The live process still sees every byte it wrote.
        assert_eq!(dev.len().unwrap(), 10);

        assert_eq!(env.apply_crash_faults().unwrap(), 4);
        assert_eq!(dev.len().unwrap(), 6, "torn suffix vanishes at the crash");
        // One-shot: a second crash on the same env shears nothing more.
        assert_eq!(env.apply_crash_faults().unwrap(), 0);
    }

    #[test]
    fn torn_tail_is_clamped_to_device_length() {
        let faults = DiskFaults::new();
        let env = StorageEnv::mem_with_faults(Arc::clone(&faults), 0);
        env.device("wal").unwrap().write_at(0, b"abc").unwrap();
        faults.arm_torn_tail("wal", 1_000);
        assert_eq!(env.apply_crash_faults().unwrap(), 3);
        assert_eq!(env.device("wal").unwrap().len().unwrap(), 0);
    }

    #[test]
    fn file_device_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dl-minidb-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let env = StorageEnv::dir(dir.clone()).unwrap();
        let d = env.device("wal").unwrap();
        d.write_at(0, b"hello").unwrap();
        d.sync().unwrap();
        let mut buf = [0u8; 5];
        assert_eq!(d.read_at(0, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"hello");
        // Positional: a write past the end extends, a read past it is short.
        d.write_at(7, b"xy").unwrap();
        assert_eq!(d.len().unwrap(), 9);
        let mut tail = [9u8; 5];
        assert_eq!(d.read_at(6, &mut tail).unwrap(), 3);
        assert_eq!(&tail[..3], &[0, b'x', b'y']);
        d.set_len(4).unwrap();
        assert_eq!(d.read_at(0, &mut buf).unwrap(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
