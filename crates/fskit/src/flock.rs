//! Whole-file shared/exclusive lock table backing `fs_lockctl`.
//!
//! §4.2 of the paper: "The file access is serialized, when needed, using the
//! fs_lockctl() entry point of the file system to lock the file in the
//! desired access mode." The table supports blocking and non-blocking
//! acquisition, lock upgrade from shared to exclusive when the caller is the
//! sole holder, and a `Test` probe.

use std::collections::HashMap;

use parking_lot::{Condvar, Mutex};

use crate::error::{FsError, FsResult};
use crate::types::Ino;

/// Identifies the entity holding a lock (an open-file instance or a
/// transaction). Distinct from credentials: two descriptors opened by the
/// same user still have distinct owners.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockOwner(pub u64);

/// Lock compatibility mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    Shared,
    Exclusive,
}

/// Operations accepted by `fs_lockctl`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOp {
    /// Acquire, blocking until granted.
    Lock(LockKind),
    /// Acquire if immediately available, otherwise `FsError::WouldBlock`.
    TryLock(LockKind),
    /// Release whatever this owner holds.
    Unlock,
    /// Probe: would `Lock` succeed right now? Never blocks, never acquires.
    Test(LockKind),
}

#[derive(Debug, Default)]
struct LockState {
    /// Owners holding a shared lock.
    shared: Vec<LockOwner>,
    /// Owner holding the exclusive lock, if any.
    exclusive: Option<LockOwner>,
    /// Number of threads waiting; lets us garbage-collect idle entries.
    waiters: usize,
}

impl LockState {
    fn is_free(&self) -> bool {
        self.shared.is_empty() && self.exclusive.is_none() && self.waiters == 0
    }

    fn grantable(&self, owner: LockOwner, kind: LockKind) -> bool {
        match kind {
            LockKind::Shared => match self.exclusive {
                Some(holder) => holder == owner,
                None => true,
            },
            LockKind::Exclusive => {
                let others_shared = self.shared.iter().any(|o| *o != owner);
                let others_exclusive = self.exclusive.is_some_and(|h| h != owner);
                !others_shared && !others_exclusive
            }
        }
    }

    fn grant(&mut self, owner: LockOwner, kind: LockKind) {
        match kind {
            LockKind::Shared => {
                if self.exclusive == Some(owner) {
                    // Downgrade is modelled as holding both; exclusive wins.
                    return;
                }
                if !self.shared.contains(&owner) {
                    self.shared.push(owner);
                }
            }
            LockKind::Exclusive => {
                // Upgrade: drop our own shared hold, take exclusive.
                self.shared.retain(|o| *o != owner);
                self.exclusive = Some(owner);
            }
        }
    }

    fn release(&mut self, owner: LockOwner) -> bool {
        let before = self.shared.len() + usize::from(self.exclusive.is_some());
        self.shared.retain(|o| *o != owner);
        if self.exclusive == Some(owner) {
            self.exclusive = None;
        }
        before != self.shared.len() + usize::from(self.exclusive.is_some())
    }
}

/// Per-file lock table with blocking waits.
#[derive(Default)]
pub struct FileLockTable {
    inner: Mutex<HashMap<Ino, LockState>>,
    released: Condvar,
}

impl FileLockTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies `op` for `owner` on `ino`.
    pub fn lockctl(&self, ino: Ino, owner: LockOwner, op: LockOp) -> FsResult<bool> {
        let mut table = self.inner.lock();
        match op {
            LockOp::Test(kind) => {
                let ok = table.get(&ino).is_none_or(|st| st.grantable(owner, kind));
                Ok(ok)
            }
            LockOp::TryLock(kind) => {
                let st = table.entry(ino).or_default();
                if st.grantable(owner, kind) {
                    st.grant(owner, kind);
                    Ok(true)
                } else {
                    if st.is_free() {
                        table.remove(&ino);
                    }
                    Err(FsError::WouldBlock)
                }
            }
            LockOp::Lock(kind) => loop {
                let st = table.entry(ino).or_default();
                if st.grantable(owner, kind) {
                    st.grant(owner, kind);
                    return Ok(true);
                }
                st.waiters += 1;
                self.released.wait(&mut table);
                if let Some(st) = table.get_mut(&ino) {
                    st.waiters -= 1;
                }
            },
            LockOp::Unlock => {
                let mut released = false;
                if let Some(st) = table.get_mut(&ino) {
                    released = st.release(owner);
                    if st.is_free() {
                        table.remove(&ino);
                    }
                }
                if released {
                    self.released.notify_all();
                }
                Ok(released)
            }
        }
    }

    /// Releases every lock held by `owner` (e.g. when a descriptor closes).
    pub fn release_all(&self, owner: LockOwner) {
        let mut table = self.inner.lock();
        let mut any = false;
        table.retain(|_, st| {
            any |= st.release(owner);
            !st.is_free()
        });
        if any {
            self.released.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    const F: Ino = 7;

    #[test]
    fn shared_locks_coexist() {
        let t = FileLockTable::new();
        assert!(t.lockctl(F, LockOwner(1), LockOp::TryLock(LockKind::Shared)).unwrap());
        assert!(t.lockctl(F, LockOwner(2), LockOp::TryLock(LockKind::Shared)).unwrap());
    }

    #[test]
    fn exclusive_excludes() {
        let t = FileLockTable::new();
        assert!(t.lockctl(F, LockOwner(1), LockOp::TryLock(LockKind::Exclusive)).unwrap());
        assert_eq!(
            t.lockctl(F, LockOwner(2), LockOp::TryLock(LockKind::Shared)),
            Err(FsError::WouldBlock)
        );
        assert_eq!(
            t.lockctl(F, LockOwner(2), LockOp::TryLock(LockKind::Exclusive)),
            Err(FsError::WouldBlock)
        );
    }

    #[test]
    fn reentrant_shared_for_exclusive_holder() {
        let t = FileLockTable::new();
        assert!(t.lockctl(F, LockOwner(1), LockOp::TryLock(LockKind::Exclusive)).unwrap());
        assert!(t.lockctl(F, LockOwner(1), LockOp::TryLock(LockKind::Shared)).unwrap());
    }

    #[test]
    fn upgrade_when_sole_holder() {
        let t = FileLockTable::new();
        assert!(t.lockctl(F, LockOwner(1), LockOp::TryLock(LockKind::Shared)).unwrap());
        assert!(t.lockctl(F, LockOwner(1), LockOp::TryLock(LockKind::Exclusive)).unwrap());
        assert_eq!(
            t.lockctl(F, LockOwner(2), LockOp::TryLock(LockKind::Shared)),
            Err(FsError::WouldBlock)
        );
    }

    #[test]
    fn upgrade_blocked_by_other_sharers() {
        let t = FileLockTable::new();
        assert!(t.lockctl(F, LockOwner(1), LockOp::TryLock(LockKind::Shared)).unwrap());
        assert!(t.lockctl(F, LockOwner(2), LockOp::TryLock(LockKind::Shared)).unwrap());
        assert_eq!(
            t.lockctl(F, LockOwner(1), LockOp::TryLock(LockKind::Exclusive)),
            Err(FsError::WouldBlock)
        );
    }

    #[test]
    fn unlock_releases_and_reports() {
        let t = FileLockTable::new();
        assert!(t.lockctl(F, LockOwner(1), LockOp::TryLock(LockKind::Exclusive)).unwrap());
        assert!(t.lockctl(F, LockOwner(1), LockOp::Unlock).unwrap());
        assert!(!t.lockctl(F, LockOwner(1), LockOp::Unlock).unwrap());
        assert!(t.lockctl(F, LockOwner(2), LockOp::TryLock(LockKind::Exclusive)).unwrap());
        assert_eq!(t.inner.lock().len(), 1);
    }

    #[test]
    fn test_probe_does_not_acquire() {
        let t = FileLockTable::new();
        assert!(t.lockctl(F, LockOwner(1), LockOp::Test(LockKind::Exclusive)).unwrap());
        assert!(t.lockctl(F, LockOwner(2), LockOp::TryLock(LockKind::Exclusive)).unwrap());
        assert!(!t.lockctl(F, LockOwner(1), LockOp::Test(LockKind::Shared)).unwrap());
    }

    #[test]
    fn blocking_lock_waits_for_release() {
        let t = Arc::new(FileLockTable::new());
        assert!(t.lockctl(F, LockOwner(1), LockOp::TryLock(LockKind::Exclusive)).unwrap());

        let t2 = Arc::clone(&t);
        let waiter = thread::spawn(move || {
            t2.lockctl(F, LockOwner(2), LockOp::Lock(LockKind::Exclusive)).unwrap()
        });

        thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished(), "waiter must block while lock is held");
        t.lockctl(F, LockOwner(1), LockOp::Unlock).unwrap();
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn release_all_frees_every_file() {
        let t = FileLockTable::new();
        for ino in 0..4 {
            assert!(t.lockctl(ino, LockOwner(9), LockOp::TryLock(LockKind::Exclusive)).unwrap());
        }
        assert_eq!(t.inner.lock().len(), 4);
        t.release_all(LockOwner(9));
        assert_eq!(t.inner.lock().len(), 0);
    }

    #[test]
    fn locks_on_distinct_files_are_independent() {
        let t = FileLockTable::new();
        assert!(t.lockctl(1, LockOwner(1), LockOp::TryLock(LockKind::Exclusive)).unwrap());
        assert!(t.lockctl(2, LockOwner(2), LockOp::TryLock(LockKind::Exclusive)).unwrap());
    }
}
