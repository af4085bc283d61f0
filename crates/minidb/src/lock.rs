//! Transaction lock manager: strict two-phase locking with hierarchical
//! (table → row) granularity, intent locks, blocking waits, and wait-for
//! graph deadlock detection.
//!
//! The host database serializes DATALINK DML exactly as DB2 would: a scan
//! takes a table `S` lock; row DML takes table `IX` plus row `X`; point
//! reads take table `IS` plus row `S`. Locks are held to transaction end
//! (strict 2PL), which is what makes the deferred-update commit protocol
//! serializable. When a requested lock would close a cycle in the wait-for
//! graph, the *requester* receives [`DbError::Deadlock`] and is expected to
//! abort — the simplest industrial-strength victim policy.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher, RandomState};
use std::sync::OnceLock;

use parking_lot::{Condvar, Mutex};

use crate::error::{DbError, DbResult};
use crate::value::Value;
use crate::wal::TxId;

/// Lock modes, hierarchical-granularity style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Intent shared (table level, before row S).
    IntentShared,
    /// Intent exclusive (table level, before row X).
    IntentExclusive,
    /// Shared.
    Shared,
    /// Exclusive.
    Exclusive,
}

impl LockMode {
    /// Standard compatibility matrix for IS/IX/S/X.
    fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        matches!(
            (self, other),
            (IntentShared, IntentShared)
                | (IntentShared, IntentExclusive)
                | (IntentExclusive, IntentShared)
                | (IntentExclusive, IntentExclusive)
                | (IntentShared, Shared)
                | (Shared, IntentShared)
                | (Shared, Shared)
        )
    }

    /// True when holding `self` already implies `other`.
    fn covers(self, other: LockMode) -> bool {
        use LockMode::*;
        match (self, other) {
            (x, y) if x == y => true,
            (Exclusive, _) => true,
            (Shared, IntentShared) => true,
            (IntentExclusive, IntentShared) => true,
            _ => false,
        }
    }

    /// The weakest mode that satisfies both held and wanted.
    fn combine(self, other: LockMode) -> LockMode {
        use LockMode::*;
        if self == other {
            return self;
        }
        match (self, other) {
            (Exclusive, _) | (_, Exclusive) => Exclusive,
            // S + IX = SIX in the textbook; we conservatively escalate to X
            // to keep the mode lattice four-valued. Harmless at our scale.
            (Shared, IntentExclusive) | (IntentExclusive, Shared) => Exclusive,
            (Shared, _) | (_, Shared) => Shared,
            (IntentExclusive, _) | (_, IntentExclusive) => IntentExclusive,
            _ => IntentShared,
        }
    }
}

/// A lockable resource — a table, or one row of a table — hashed once, at
/// the statement, into a `Copy` key: taking a lock clones no table name
/// or row key. Two resources whose hashes collide
/// share one lock, which only over-serializes them: it never admits two
/// conflicting holders of one resource. (So [`LockManager::dump`] names
/// resources by hash.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockRes {
    Table(u64),
    Row(u64),
}

impl LockRes {
    /// The lock on table `name`.
    pub fn table(name: &str) -> LockRes {
        LockRes::Table(keyed_hash(name))
    }

    /// The lock on the row of `table` whose primary key is `key`.
    pub fn row(table: &str, key: &Value) -> LockRes {
        LockRes::Row(keyed_hash((table, key)))
    }

    fn describe(&self) -> String {
        match self {
            LockRes::Table(h) => format!("table #{h:016x}"),
            LockRes::Row(h) => format!("row #{h:016x}"),
        }
    }
}

/// SipHash under one random key per process. Row keys come from outside the
/// program, so nobody can pick keys that collide and serialize rows that
/// have nothing in common.
fn keyed_hash(resource: impl Hash) -> u64 {
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    KEYS.get_or_init(RandomState::new).hash_one(resource)
}

/// The lock table's hasher. A [`LockRes`] already holds a keyed hash spread
/// over all 64 bits, so the table takes it as it is, with the variant mixed
/// in, instead of hashing it a second time.
#[derive(Default)]
struct Spread(u64);

impl Hasher for Spread {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.0 ^= i;
    }

    fn write_usize(&mut self, i: usize) {
        self.0 ^= i as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Debug, Default)]
struct ResState {
    /// Current holders and their (combined) modes.
    holders: HashMap<TxId, LockMode>,
    /// FIFO of waiting transactions, for diagnostics & fairness checks.
    waiters: VecDeque<TxId>,
}

impl ResState {
    fn grantable(&self, txid: TxId, mode: LockMode) -> bool {
        self.holders.iter().all(|(holder, held)| *holder == txid || held.compatible(mode))
    }
}

#[derive(Default)]
struct LmInner {
    resources: HashMap<LockRes, ResState, BuildHasherDefault<Spread>>,
    /// waiter -> set of holders it waits on (wait-for graph).
    waits_for: HashMap<TxId, HashSet<TxId>>,
}

impl LmInner {
    /// Depth-first search: can `from` reach `target` through wait edges?
    fn reaches(&self, from: TxId, target: TxId, seen: &mut HashSet<TxId>) -> bool {
        if from == target {
            return true;
        }
        if !seen.insert(from) {
            return false;
        }
        match self.waits_for.get(&from) {
            Some(next) => next.iter().any(|n| self.reaches(*n, target, seen)),
            None => false,
        }
    }
}

/// The lock manager. One per database.
#[derive(Default)]
pub struct LockManager {
    inner: Mutex<LmInner>,
    released: Condvar,
}

impl LockManager {
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires `mode` on `res` for `txid`, blocking until granted.
    ///
    /// Returns [`DbError::Deadlock`] if waiting would close a cycle in the
    /// wait-for graph; the caller must abort its transaction.
    pub fn lock(&self, txid: TxId, res: LockRes, mode: LockMode) -> DbResult<()> {
        let mut guard = self.inner.lock();
        loop {
            let inner = &mut *guard;
            let state = inner.resources.entry(res).or_default();
            if let Some(held) = state.holders.get(&txid) {
                if held.covers(mode) {
                    return Ok(());
                }
            }
            if state.grantable(txid, mode) {
                let entry = state.holders.entry(txid).or_insert(mode);
                *entry = entry.combine(mode);
                inner.waits_for.remove(&txid);
                return Ok(());
            }

            // Blocked: collect who we would wait for, then check whether any
            // of them (transitively) waits for us — that would be a cycle.
            let holders: HashSet<TxId> =
                state.holders.keys().copied().filter(|h| *h != txid).collect();
            state.waiters.push_back(txid);
            let deadlock = holders.iter().any(|holder| {
                let mut seen = HashSet::new();
                inner.reaches(*holder, txid, &mut seen)
            });
            if deadlock {
                if let Some(state) = inner.resources.get_mut(&res) {
                    if let Some(idx) = state.waiters.iter().position(|w| *w == txid) {
                        state.waiters.remove(idx);
                    }
                }
                inner.waits_for.remove(&txid);
                return Err(DbError::Deadlock);
            }
            inner.waits_for.insert(txid, holders);
            self.released.wait(&mut guard);
            let inner = &mut *guard;
            if let Some(state) = inner.resources.get_mut(&res) {
                if let Some(idx) = state.waiters.iter().position(|w| *w == txid) {
                    state.waiters.remove(idx);
                }
            }
            inner.waits_for.remove(&txid);
        }
    }

    /// Non-blocking acquire; `DbError::Deadlock` is never returned, a
    /// conflicting hold yields `Err(WouldBlock)` expressed as `Ok(false)`.
    pub fn try_lock(&self, txid: TxId, res: LockRes, mode: LockMode) -> bool {
        let mut inner = self.inner.lock();
        let state = inner.resources.entry(res).or_default();
        if let Some(held) = state.holders.get(&txid) {
            if held.covers(mode) {
                return true;
            }
        }
        if state.grantable(txid, mode) {
            let entry = state.holders.entry(txid).or_insert(mode);
            *entry = entry.combine(mode);
            true
        } else {
            false
        }
    }

    /// Releases every lock held by `txid` (strict 2PL end-of-transaction).
    pub fn release_all(&self, txid: TxId) {
        let mut inner = self.inner.lock();
        inner.resources.retain(|_, state| {
            state.holders.remove(&txid);
            !state.holders.is_empty() || !state.waiters.is_empty()
        });
        inner.waits_for.remove(&txid);
        for waiting in inner.waits_for.values_mut() {
            waiting.remove(&txid);
        }
        self.released.notify_all();
    }

    /// Human-readable list of held locks (diagnostics).
    pub fn dump(&self) -> Vec<String> {
        let inner = self.inner.lock();
        let mut out: Vec<String> = inner
            .resources
            .iter()
            .flat_map(|(res, st)| {
                st.holders
                    .iter()
                    .map(move |(tx, mode)| format!("{}: tx{} {:?}", res.describe(), tx, mode))
            })
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    fn row(k: i64) -> LockRes {
        LockRes::row("t", &Value::Int(k))
    }

    fn table() -> LockRes {
        LockRes::table("t")
    }

    #[test]
    fn compatibility_matrix() {
        use LockMode::*;
        assert!(IntentShared.compatible(IntentExclusive));
        assert!(IntentExclusive.compatible(IntentExclusive));
        assert!(Shared.compatible(Shared));
        assert!(!Shared.compatible(Exclusive));
        assert!(!IntentExclusive.compatible(Shared));
        assert!(!Exclusive.compatible(Exclusive));
        assert!(!Exclusive.compatible(IntentShared));
    }

    #[test]
    fn shared_locks_coexist_exclusive_does_not() {
        let lm = LockManager::new();
        lm.lock(1, row(1), LockMode::Shared).unwrap();
        lm.lock(2, row(1), LockMode::Shared).unwrap();
        assert!(!lm.try_lock(3, row(1), LockMode::Exclusive));
    }

    #[test]
    fn reacquire_is_idempotent() {
        let lm = LockManager::new();
        lm.lock(1, row(1), LockMode::Exclusive).unwrap();
        lm.lock(1, row(1), LockMode::Exclusive).unwrap();
        lm.lock(1, row(1), LockMode::Shared).unwrap(); // covered by X
    }

    #[test]
    fn upgrade_shared_to_exclusive_when_sole_holder() {
        let lm = LockManager::new();
        lm.lock(1, row(1), LockMode::Shared).unwrap();
        lm.lock(1, row(1), LockMode::Exclusive).unwrap();
        assert!(!lm.try_lock(2, row(1), LockMode::Shared));
    }

    #[test]
    fn table_scan_blocks_row_writer() {
        let lm = LockManager::new();
        lm.lock(1, table(), LockMode::Shared).unwrap(); // scanner
        assert!(!lm.try_lock(2, table(), LockMode::IntentExclusive)); // writer
    }

    #[test]
    fn intent_locks_allow_concurrent_row_writers() {
        let lm = LockManager::new();
        lm.lock(1, table(), LockMode::IntentExclusive).unwrap();
        lm.lock(2, table(), LockMode::IntentExclusive).unwrap();
        lm.lock(1, row(1), LockMode::Exclusive).unwrap();
        lm.lock(2, row(2), LockMode::Exclusive).unwrap();
    }

    #[test]
    fn release_all_unblocks_waiters() {
        let lm = Arc::new(LockManager::new());
        lm.lock(1, row(1), LockMode::Exclusive).unwrap();

        let lm2 = Arc::clone(&lm);
        let h = thread::spawn(move || lm2.lock(2, row(1), LockMode::Exclusive));
        thread::sleep(Duration::from_millis(20));
        assert!(!h.is_finished());
        lm.release_all(1);
        assert!(h.join().unwrap().is_ok());
    }

    #[test]
    fn two_party_deadlock_detected() {
        let lm = Arc::new(LockManager::new());
        lm.lock(1, row(1), LockMode::Exclusive).unwrap();
        lm.lock(2, row(2), LockMode::Exclusive).unwrap();

        // tx1 waits for row 2 (held by tx2)...
        let lm1 = Arc::clone(&lm);
        let h = thread::spawn(move || lm1.lock(1, row(2), LockMode::Exclusive));
        thread::sleep(Duration::from_millis(20));

        // ...and tx2 requesting row 1 would close the cycle.
        let res = lm.lock(2, row(1), LockMode::Exclusive);
        assert_eq!(res, Err(DbError::Deadlock));

        // Victim aborts; tx1 proceeds.
        lm.release_all(2);
        assert!(h.join().unwrap().is_ok());
    }

    #[test]
    fn three_party_deadlock_detected() {
        let lm = Arc::new(LockManager::new());
        lm.lock(1, row(1), LockMode::Exclusive).unwrap();
        lm.lock(2, row(2), LockMode::Exclusive).unwrap();
        lm.lock(3, row(3), LockMode::Exclusive).unwrap();

        let lm1 = Arc::clone(&lm);
        let h1 = thread::spawn(move || lm1.lock(1, row(2), LockMode::Exclusive));
        let lm2 = Arc::clone(&lm);
        let h2 = thread::spawn(move || lm2.lock(2, row(3), LockMode::Exclusive));
        thread::sleep(Duration::from_millis(30));

        assert_eq!(lm.lock(3, row(1), LockMode::Exclusive), Err(DbError::Deadlock));
        lm.release_all(3);
        assert!(h2.join().unwrap().is_ok());
        lm.release_all(2);
        assert!(h1.join().unwrap().is_ok());
    }

    #[test]
    fn release_cleans_resource_table() {
        let lm = LockManager::new();
        lm.lock(1, row(1), LockMode::Exclusive).unwrap();
        lm.lock(1, table(), LockMode::IntentExclusive).unwrap();
        assert_eq!(lm.inner.lock().resources.len(), 2);
        lm.release_all(1);
        assert_eq!(lm.inner.lock().resources.len(), 0);
    }

    #[test]
    fn dump_lists_holders() {
        let lm = LockManager::new();
        lm.lock(7, table(), LockMode::Shared).unwrap();
        let dump = lm.dump();
        assert_eq!(dump.len(), 1);
        assert!(dump[0].contains("tx7"));
    }

    #[test]
    fn one_key_in_two_tables_is_two_resources() {
        let lm = LockManager::new();
        let key = Value::Text("/docs/a.bin".into());
        lm.lock(1, LockRes::row("dl_files", &key), LockMode::Exclusive).unwrap();
        assert!(lm.try_lock(2, LockRes::row("dl_uip", &key), LockMode::Exclusive));
        assert!(!lm.try_lock(2, LockRes::row("dl_files", &key), LockMode::Shared));
        assert_ne!(LockRes::table("dl_files"), LockRes::table("dl_uip"));
    }

    #[test]
    fn keys_of_two_types_with_one_rendering_are_two_resources() {
        let lm = LockManager::new();
        lm.lock(1, LockRes::row("t", &Value::Int(1)), LockMode::Exclusive).unwrap();
        assert!(lm.try_lock(2, LockRes::row("t", &Value::Text("1".into())), LockMode::Exclusive));
        assert!(lm.try_lock(
            3,
            LockRes::row("t", &Value::DataLink("1".into())),
            LockMode::Exclusive
        ));
        assert!(!lm.try_lock(4, LockRes::row("t", &Value::Int(1)), LockMode::Shared));
    }

    #[test]
    fn a_table_lock_and_a_row_lock_never_share_a_key() {
        // The variant is part of the key: a row hash equal to a table hash
        // still names a different resource.
        let lm = LockManager::new();
        lm.lock(1, LockRes::Table(7), LockMode::Exclusive).unwrap();
        assert!(lm.try_lock(2, LockRes::Row(7), LockMode::Exclusive));
    }
}
