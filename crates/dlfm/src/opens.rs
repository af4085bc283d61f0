//! DLFM's open-file state, in memory: the token entries (§4.1), the Sync
//! table (§4.5) and the marks of live link/unlink branches. No crash keeps
//! any of it, so none of it is a repository row: a restart or a restore
//! starts with an empty table, and a promoted standby keeps the one it
//! admitted sessions into ([`crate::Repository::with_opens`]). Each rule
//! the paper states over this state is one check-and-set under the table's
//! lock (DESIGN.md "§4.5").

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::modes::ControlMode;
use crate::repository::SyncEntry;
use crate::token::{AccessToken, TokenKind};

/// A Sync-table entry: an open, or a strict-link registration of one.
#[derive(Debug, Clone, Copy)]
struct Open {
    opener: u64,
    kind: TokenKind,
    uid: u32,
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
#[derive(Debug, Default)]
pub struct OpenTable {
    paths: Mutex<HashMap<String, PathState>>,
    /// Unlink branches ended so far, per bucket of path hashes (counted
    /// under the lock): an unlink of one file seldom fails a read of another.
    unlinks_ended: [AtomicU64; 32],
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

    /// Upserts the token entry: "the user has permission to access the
    /// file till time t" (§4.1).
    pub fn put_token(&self, uid: u32, path: &str, kind: TokenKind, expiry_ms: u64) {
        self.with_path(path, |state| state.tokens.insert((uid, kind), expiry_ms));
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
        let entry =
            |&Open { opener, kind, uid }: &Open| SyncEntry { path: path.into(), kind, opener, uid };
        self.read(path, |state| state.opens.iter().map(entry).collect())
    }

    /// Unlink branches of `path` (and of the paths in its bucket) ended so
    /// far. A read open reads it *before* it looks its file up, and
    /// [`OpenTable::claim_read`] refuses when it moved since: the file found
    /// linked may be gone.
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
            state.opens.push(Open { opener, kind: TokenKind::Read, uid });
            if let Some(token) = token {
                state.tokens.insert((uid, token.kind), token.expires_at_ms);
            }
            true
        })
    }

    /// Registers a write open: refused while the file is open for write or,
    /// with `read_conflicts` (full control), open at all. The caller holds
    /// the file's `dl_files` row lock.
    pub fn claim_write(&self, path: &str, opener: u64, uid: u32, read_conflicts: bool) -> bool {
        self.with_path(path, |state| {
            if state.has_writer() || (read_conflicts && !state.opens.is_empty()) {
                return false;
            }
            state.opens.push(Open { opener, kind: TokenKind::Write, uid });
            true
        })
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
            state.opens.push(Open { opener, kind, uid });
            Ok(())
        })
    }

    /// Removes (`path`, `opener`)'s entry — unless it is a write open's and
    /// not `writes_too`: a write's close ends it after its commit. Returns
    /// the kind of the entry found, if any.
    pub fn end(&self, path: &str, opener: u64, writes_too: bool) -> Option<TokenKind> {
        let mut paths = self.paths.lock();
        let state = paths.get_mut(path)?;
        let at = state.opens.iter().position(|open| open.opener == opener)?;
        let kind = state.opens[at].kind;
        if kind == TokenKind::Read || writes_too {
            state.opens.swap_remove(at);
            if state.is_empty() {
                paths.remove(path);
            }
        }
        Some(kind)
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
            if let Some(Branch::Unlink) = state.branch.take() {
                self.unlinks_of(path).fetch_add(1, Ordering::SeqCst);
            }
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
        assert!(!t.claim_write("/f", 2, 7, true));
        assert!(t.claim_write("/f", 2, 7, false));
        assert!(!t.claim_write("/f", 3, 7, false));
        assert!(!t.claim_read("/f", 4, 7, None, 0));
        assert_eq!(t.end("/f", 2, false), Some(TokenKind::Write), "a write close ends it itself");
        assert_eq!(t.entries("/f").len(), 2);
        assert_eq!(t.end("/f", 2, true), Some(TokenKind::Write));
        assert_eq!(t.end("/f", 1, false), Some(TokenKind::Read));
        assert!(t.entries("/f").is_empty());
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
    fn an_empty_path_leaves_the_table() {
        let t = OpenTable::default();
        t.register("/f", TokenKind::Read, 1, 7).unwrap();
        assert_eq!(t.end("/f", 1, false), Some(TokenKind::Read));
        assert_eq!(t.end("/f", 1, false), None);
        assert!(t.paths.lock().is_empty());
    }
}
