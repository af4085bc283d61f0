//! DLFM's open-file state, in memory: the token entries (§4.1), the Sync
//! table (§4.5) and the marks of live link/unlink branches. No crash keeps
//! any of it, so none of it is a repository row: a restart or a restore
//! starts with an empty table, and a promoted standby keeps the one it
//! admitted sessions into ([`crate::Repository::with_opens`]). Each rule
//! the paper states over this state is one check-and-set under the table's
//! lock (DESIGN.md "§4.5").
//!
//! The table also owns what follows from those rules. Its *epoch* moves
//! under the lock whenever an entry or a branch mark leaves — the only
//! events that can turn a refused claim into a granted one — so an open
//! answered `Busy` waits on it ([`OpenTable::wait_change`]) and no caller
//! has to remember to wake it. Its *update count* is the paper's "extra
//! database update operations" (§4.5, bench A4): each check-and-set on a
//! token or Sync entry that took effect.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Condvar, Mutex};

use crate::modes::ControlMode;
use crate::token::{AccessToken, TokenKind};

/// A Sync-table entry (§4.5) — one open of a managed file, or a strict-link
/// registration of an open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncEntry {
    pub path: String,
    pub kind: TokenKind,
    /// Unique per open-file instance; issued by DLFS.
    pub opener: u64,
    pub uid: u32,
}

/// A Sync-table entry as the table keeps it.
#[derive(Debug, Clone, Copy)]
struct Open {
    opener: u64,
    kind: TokenKind,
    uid: u32,
    /// A granted writer's: the version its close commits. The entry is the
    /// one record of the write in flight until its close.
    commits: Option<u64>,
}

/// What [`OpenTable::end`] found of an open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ended {
    /// The entry is gone: a read open's, a strict registration's, or a
    /// granted writer's ended with `writes_too`.
    Removed,
    /// A granted writer's entry, left in place: its close commits this
    /// version, then ends it.
    Writer(u64),
}

/// A live link/unlink branch holding the path: voted, undecided.
#[derive(Debug, Clone, Copy)]
enum Branch {
    Link(ControlMode),
    Unlink,
}

#[derive(Debug, Default)]
struct PathState {
    opens: Vec<Open>,
    /// Token entries: (userid, kind) → expiry (ms).
    tokens: HashMap<(u32, TokenKind), u64>,
    branch: Option<Branch>,
}

impl PathState {
    fn has_writer(&self) -> bool {
        self.opens.iter().any(|open| open.kind == TokenKind::Write)
    }

    fn is_empty(&self) -> bool {
        self.opens.is_empty() && self.tokens.is_empty() && self.branch.is_none()
    }
}

/// DLFM's open-file state (see the module docs).
#[derive(Default)]
pub struct OpenTable {
    paths: Mutex<HashMap<String, PathState>>,
    /// Unlink branches ended so far, per bucket of path hashes (counted
    /// under the lock): an unlink of one file seldom fails a read of another.
    unlinks_ended: [AtomicU64; 32],
    /// Entries and branch marks that left so far (moved under the lock);
    /// `left` wakes the waiters on it.
    epoch: AtomicU64,
    left: Condvar,
    /// Check-and-sets on token and Sync entries that took effect.
    updates: AtomicU64,
}

impl OpenTable {
    /// Runs `f` on `path`'s state, which exists only while it is not empty.
    fn with_path<R>(&self, path: &str, f: impl FnOnce(&mut PathState) -> R) -> R {
        let mut paths = self.paths.lock();
        if !paths.contains_key(path) {
            paths.insert(path.to_string(), PathState::default());
        }
        let state = paths.get_mut(path).expect("inserted above");
        let result = f(state);
        if state.is_empty() {
            paths.remove(path);
        }
        result
    }

    fn read<R: Default>(&self, path: &str, f: impl FnOnce(&PathState) -> R) -> R {
        self.paths.lock().get(path).map(f).unwrap_or_default()
    }

    /// Counts one check-and-set that took effect.
    fn count(&self) {
        self.updates.fetch_add(1, Ordering::Relaxed);
    }

    /// Moves the epoch and wakes its waiters: an entry or a branch mark
    /// left. Called under the lock, so a waiter that read the old epoch
    /// under it is already waiting.
    fn moved(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.left.notify_all();
    }

    /// The epoch: how many entries and branch marks have left. An open
    /// reads it *before* its check, and on `Busy` hands it to
    /// [`OpenTable::wait_change`], so a removal that lands in between is
    /// never slept through.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Blocks until the epoch differs from `seen`.
    pub fn wait_change(&self, seen: u64) {
        let mut paths = self.paths.lock();
        while self.epoch() == seen {
            self.left.wait(&mut paths);
        }
    }

    /// Check-and-sets on token and Sync entries that took effect so far:
    /// a token entry put, a read or write claim, a strict registration, an
    /// entry's removal (bench A4's "repo updates/open").
    pub fn updates(&self) -> u64 {
        self.updates.load(Ordering::Relaxed)
    }

    /// Upserts the token entry: "the user has permission to access the
    /// file till time t" (§4.1).
    pub fn put_token(&self, uid: u32, path: &str, kind: TokenKind, expiry_ms: u64) {
        self.with_path(path, |state| state.tokens.insert((uid, kind), expiry_ms));
        self.count();
    }

    /// Does an unexpired token entry authorizing `wanted` exist for
    /// (`uid`, `path`)? A write entry authorizes reads too.
    pub fn token_admits(&self, uid: u32, path: &str, wanted: TokenKind, now_ms: u64) -> bool {
        self.read(path, |state| {
            let live = |kind| state.tokens.get(&(uid, kind)).is_some_and(|&exp| now_ms <= exp);
            live(wanted) || (wanted == TokenKind::Read && live(TokenKind::Write))
        })
    }

    /// The Sync entries of `path`.
    pub fn entries(&self, path: &str) -> Vec<SyncEntry> {
        let entry = |&Open { opener, kind, uid, .. }: &Open| SyncEntry {
            path: path.into(),
            kind,
            opener,
            uid,
        };
        self.read(path, |state| state.opens.iter().map(entry).collect())
    }

    /// Unlink branches of `path` (and of the paths in its bucket) ended so
    /// far. An open reads it *before* it looks its file up, and
    /// [`OpenTable::claim_read`] and [`OpenTable::claim_write`] refuse when
    /// it moved since: the file found linked may be gone.
    pub fn unlinks_ended(&self, path: &str) -> u64 {
        self.unlinks_of(path).load(Ordering::SeqCst)
    }

    fn unlinks_of(&self, path: &str) -> &AtomicU64 {
        let fnv = path
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3));
        &self.unlinks_ended[fnv as usize % self.unlinks_ended.len()]
    }

    /// Claims a tracked read open of a file found linked at `unlinks_seen`:
    /// refused while it is open for write or a branch holds it, or when an
    /// unlink ended since. A grant records the carried `token`'s entry.
    pub fn claim_read(
        &self,
        path: &str,
        opener: u64,
        uid: u32,
        token: Option<&AccessToken>,
        unlinks_seen: u64,
    ) -> bool {
        self.with_path(path, |state| {
            let moved = self.unlinks_ended(path) != unlinks_seen;
            if moved || state.has_writer() || state.branch.is_some() {
                return false;
            }
            state.opens.push(Open { opener, kind: TokenKind::Read, uid, commits: None });
            if let Some(token) = token {
                state.tokens.insert((uid, token.kind), token.expires_at_ms);
            }
            self.count();
            true
        })
    }

    /// Claims the writer slot of a file found linked at `unlinks_seen`:
    /// refused while it is open for write or, with `read_conflicts` (full
    /// control), open at all, while a branch holds it, or when an unlink
    /// ended since. Whichever of a write claim and an unlink's
    /// [`OpenTable::begin_branch`] comes second is refused, so no writer
    /// holds an unlinked file and no unlink passes a writer (§4.5). The
    /// claimer then reads the file's row and [`OpenTable::grant`]s.
    pub fn claim_write(
        &self,
        path: &str,
        opener: u64,
        uid: u32,
        read_conflicts: bool,
        unlinks_seen: u64,
    ) -> bool {
        self.with_path(path, |state| {
            let moved = self.unlinks_ended(path) != unlinks_seen;
            let conflicts = state.has_writer() || (read_conflicts && !state.opens.is_empty());
            if moved || conflicts || state.branch.is_some() {
                return false;
            }
            state.opens.push(Open { opener, kind: TokenKind::Write, uid, commits: None });
            self.count();
            true
        })
    }

    /// Completes a write claim: the writer's entry holds `commits`, the
    /// version its close commits, and the carried `token`'s entry is
    /// recorded.
    pub fn grant(&self, path: &str, opener: u64, commits: u64, token: Option<&AccessToken>) {
        self.with_path(path, |state| {
            let Some(writer) = state.opens.iter_mut().find(|open| open.opener == opener) else {
                return;
            };
            writer.commits = Some(commits);
            if let Some(token) = token {
                state.tokens.insert((writer.uid, token.kind), token.expires_at_ms);
            }
        });
    }

    /// Records a strict-link registration of an open (§4.5), refused while
    /// a live link branch holds the path: that link voted on a file with no
    /// registered open.
    pub fn register(
        &self,
        path: &str,
        kind: TokenKind,
        opener: u64,
        uid: u32,
    ) -> Result<(), String> {
        self.with_path(path, |state| {
            if let Some(Branch::Link(_)) = state.branch {
                return Err(format!("{path} is being linked (strict link mode); open rejected"));
            }
            state.opens.push(Open { opener, kind, uid, commits: None });
            self.count();
            Ok(())
        })
    }

    /// Removes (`path`, `opener`)'s entry — unless it is a granted writer's
    /// and not `writes_too`: a write's close ends it after its commit.
    /// Returns what it found, if anything.
    pub fn end(&self, path: &str, opener: u64, writes_too: bool) -> Option<Ended> {
        let mut paths = self.paths.lock();
        let state = paths.get_mut(path)?;
        let at = state.opens.iter().position(|open| open.opener == opener)?;
        if let (Some(version), false) = (state.opens[at].commits, writes_too) {
            return Some(Ended::Writer(version));
        }
        state.opens.swap_remove(at);
        if state.is_empty() {
            paths.remove(path);
        }
        self.count();
        self.moved();
        Some(Ended::Removed)
    }

    /// Marks `path` as held by a live branch: a link of `mode`, or an
    /// unlink when `mode` is `None`, whose mark turns read claims away until
    /// it ends. Refused, with the number of opens, when `opens_refuse` and
    /// the file is open — unlink's check (§4.5), and a strict link's.
    pub fn begin_branch(
        &self,
        path: &str,
        mode: Option<ControlMode>,
        opens_refuse: bool,
    ) -> Result<(), usize> {
        self.with_path(path, |state| {
            if opens_refuse && !state.opens.is_empty() {
                return Err(state.opens.len());
            }
            state.branch = Some(mode.map_or(Branch::Unlink, Branch::Link));
            Ok(())
        })
    }

    /// Clears `path`'s branch mark once its decision has applied (or its
    /// op failed).
    pub fn end_branch(&self, path: &str) {
        self.with_path(path, |state| {
            let Some(branch) = state.branch.take() else { return };
            if let Branch::Unlink = branch {
                self.unlinks_of(path).fetch_add(1, Ordering::SeqCst);
            }
            self.moved();
        });
    }

    /// The control mode of the live link branch holding `path`, if any.
    pub fn linking(&self, path: &str) -> Option<ControlMode> {
        self.read(path, |state| match state.branch {
            Some(Branch::Link(mode)) => Some(mode),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKey;

    #[test]
    fn an_unlink_mark_turns_reads_away_and_its_end_fails_a_stale_lookup() {
        let t = OpenTable::default();
        let seen = t.unlinks_ended("/f");
        t.begin_branch("/f", None, true).unwrap();
        assert!(!t.claim_read("/f", 1, 7, None, seen), "a live unlink branch");
        t.end_branch("/f");
        assert!(!t.claim_read("/f", 1, 7, None, seen), "an unlink ended after the lookup");
        assert!(t.claim_read("/f", 1, 7, None, t.unlinks_ended("/f")));
        assert_eq!(t.begin_branch("/f", None, true), Err(1), "the open is seen");
    }

    #[test]
    fn writers_exclude_writers_and_under_full_control_readers() {
        let t = OpenTable::default();
        let token = AccessToken::generate(&TokenKey::new(b"k"), "s", "/f", TokenKind::Read, 50);
        assert!(t.claim_read("/f", 1, 7, Some(&token), 0));
        assert!(t.token_admits(7, "/f", TokenKind::Read, 50), "the claim recorded the token");
        assert!(!t.claim_write("/f", 2, 7, true, 0));
        assert!(t.claim_write("/f", 2, 7, false, 0));
        let write = AccessToken::generate(&TokenKey::new(b"k"), "s", "/f", TokenKind::Write, 60);
        t.grant("/f", 2, 5, Some(&write));
        assert!(t.token_admits(7, "/f", TokenKind::Write, 60), "the grant recorded the token");
        assert!(!t.claim_write("/f", 3, 7, false, 0));
        assert!(!t.claim_read("/f", 4, 7, None, 0));
        assert_eq!(t.end("/f", 2, false), Some(Ended::Writer(5)), "a write close ends it itself");
        assert_eq!(t.entries("/f").len(), 2);
        assert_eq!(t.end("/f", 2, true), Some(Ended::Removed));
        assert_eq!(t.end("/f", 1, false), Some(Ended::Removed));
        assert!(t.entries("/f").is_empty());
    }

    #[test]
    fn a_write_claim_is_refused_under_a_branch_mark_and_after_an_unlink_ended() {
        let t = OpenTable::default();
        t.begin_branch("/f", Some(ControlMode::Rdd), false).unwrap();
        assert!(!t.claim_write("/f", 1, 7, false, 0), "a live link branch");
        t.end_branch("/f");
        let seen = t.unlinks_ended("/f");
        t.begin_branch("/f", None, true).unwrap();
        assert!(!t.claim_write("/f", 1, 7, false, seen), "a live unlink branch");
        t.end_branch("/f");
        assert!(!t.claim_write("/f", 1, 7, false, seen), "an unlink ended after the lookup");
        assert!(t.entries("/f").is_empty(), "a refused claim records nothing");
        assert!(t.claim_write("/f", 1, 7, false, t.unlinks_ended("/f")));
        assert_eq!(t.begin_branch("/f", None, true), Err(1), "the writer refuses the unlink");
        // A strict registration of a write is no granted writer: its close
        // removes it at once.
        t.register("/g", TokenKind::Write, 2, 7).unwrap();
        assert_eq!(t.end("/g", 2, false), Some(Ended::Removed));
    }

    #[test]
    fn a_strict_registration_and_a_link_branch_refuse_each_other() {
        let t = OpenTable::default();
        t.begin_branch("/f", Some(ControlMode::Rdd), true).unwrap();
        assert_eq!(t.linking("/f"), Some(ControlMode::Rdd));
        assert!(t.register("/f", TokenKind::Read, 1, 7).is_err());
        t.end_branch("/f");
        assert_eq!(t.linking("/f"), None);
        t.register("/f", TokenKind::Read, 1, 7).unwrap();
        assert_eq!(t.begin_branch("/f", Some(ControlMode::Rdd), true), Err(1));
        t.begin_branch("/f", Some(ControlMode::Rdd), false).unwrap();
        assert_eq!(t.unlinks_ended("/f"), 0, "only an unlink's end is counted");
    }

    #[test]
    fn token_entries_expire_and_subsume() {
        let t = OpenTable::default();
        t.put_token(42, "/f", TokenKind::Write, 1_000);
        assert!(t.token_admits(42, "/f", TokenKind::Write, 999));
        assert!(t.token_admits(42, "/f", TokenKind::Read, 999), "write subsumes read");
        assert!(!t.token_admits(42, "/f", TokenKind::Write, 1_001), "expired");
        assert!(!t.token_admits(43, "/f", TokenKind::Write, 0), "other user");
        assert!(!t.token_admits(42, "/g", TokenKind::Write, 0), "other file");

        // Same userid: a second application under uid 42 shares the grant
        // (the paper's deliberate userid-keying consequence, §4.1).
        assert!(t.token_admits(42, "/f", TokenKind::Write, 500));
    }

    #[test]
    fn token_entry_refresh_extends_expiry() {
        let t = OpenTable::default();
        t.put_token(1, "/f", TokenKind::Read, 100);
        t.put_token(1, "/f", TokenKind::Read, 500);
        assert!(t.token_admits(1, "/f", TokenKind::Read, 400));
    }

    #[test]
    fn sync_entries_per_path() {
        let t = OpenTable::default();
        t.register("/a", TokenKind::Read, 1, 9).unwrap();
        t.register("/a", TokenKind::Write, 2, 9).unwrap();
        t.register("/b", TokenKind::Read, 3, 9).unwrap();
        let a = t.entries("/a");
        assert_eq!(a.len(), 2);
        assert!(a.iter().any(|e| e.kind == TokenKind::Write));
        t.end("/a", 2, true);
        assert_eq!(t.entries("/a").len(), 1);
        assert_eq!(t.entries("/b").len(), 1);
        assert_eq!(t.entries("/c").len(), 0);
    }

    #[test]
    fn the_update_count_counts_each_entry_update_that_took_effect() {
        let t = OpenTable::default();
        t.register("/x", TokenKind::Read, 1, 1).unwrap();
        t.end("/x", 1, true);
        assert_eq!(t.updates(), 2, "one update per sync op (§4.5)");
        t.put_token(1, "/x", TokenKind::Read, 9);
        assert!(t.claim_read("/x", 2, 1, None, 0));
        assert!(!t.claim_write("/x", 3, 1, true, 0), "refused: the reader conflicts");
        assert_eq!(t.end("/x", 3, true), None, "no entry to end");
        assert_eq!(t.updates(), 4, "a refused claim and an end of nothing are no updates");
    }

    #[test]
    fn every_removal_moves_the_epoch_and_nothing_else_does() {
        let t = OpenTable::default();
        let token = AccessToken::generate(&TokenKey::new(b"k"), "s", "/f", TokenKind::Write, 50);
        let still = |t: &OpenTable, seen: u64, what: &str| assert_eq!(t.epoch(), seen, "{what}");
        let moved =
            |t: &OpenTable, seen: u64, what: &str| assert_eq!(t.epoch(), seen + 1, "{what}");

        // Additions and refusals leave the epoch where it was.
        let seen = t.epoch();
        t.put_token(7, "/f", TokenKind::Read, 50);
        assert!(t.claim_read("/f", 1, 7, None, 0));
        assert!(t.claim_write("/f", 2, 7, false, 0));
        t.grant("/f", 2, 2, Some(&token));
        assert!(!t.claim_read("/f", 3, 7, None, 0));
        t.register("/g", TokenKind::Read, 4, 7).unwrap();
        t.begin_branch("/h", None, true).unwrap();
        assert_eq!(t.end("/f", 2, false), Some(Ended::Writer(2)), "a writer left in place");
        assert_eq!(t.end("/f", 9, true), None);
        still(&t, seen, "a claim, a grant, a token put, a registration or begin_branch");

        // Every removal moves it, each by one.
        let seen = t.epoch();
        t.end("/f", 1, false);
        moved(&t, seen, "a reader's end");
        t.end("/f", 2, true);
        moved(&t, seen + 1, "a writer's end");
        t.end("/g", 4, true);
        moved(&t, seen + 2, "a strict registration's end");
        t.end_branch("/h");
        moved(&t, seen + 3, "an unlink branch's end");
        t.begin_branch("/h", Some(ControlMode::Rdd), false).unwrap();
        t.end_branch("/h");
        moved(&t, seen + 4, "a link branch's end");
        t.end_branch("/h");
        still(&t, seen + 5, "an end_branch with no mark");

        // A waiter whose epoch has moved returns at once; one that has not
        // returns at the next removal.
        t.wait_change(seen);
        let now = t.epoch();
        t.register("/g", TokenKind::Read, 5, 7).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| t.wait_change(now));
            t.end("/g", 5, true);
        });
        assert_eq!(t.epoch(), now + 1);
    }

    #[test]
    fn an_empty_path_leaves_the_table() {
        let t = OpenTable::default();
        t.register("/f", TokenKind::Read, 1, 7).unwrap();
        assert_eq!(t.end("/f", 1, false), Some(Ended::Removed));
        assert_eq!(t.end("/f", 1, false), None);
        assert!(t.paths.lock().is_empty());
    }
}
