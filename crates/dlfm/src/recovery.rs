//! Node recovery: the one rule that brings a file server's node to what
//! the host's committed rows say (DESIGN.md "Recovery and replication"
//! §6). The rule is a pure [`plan`] per path: from what is known of the
//! path ([`Inputs`]) it derives the [`Step`]s that bring the node to the
//! host row. [`DlfmServer::recover`] gathers the inputs, plans, applies the
//! steps, and commits once; the [`RecoveryReport`] counts the steps.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use dl_fskit::{Cred, FsError};
use dl_minidb::{DbError, Txn};

use crate::modes::{ControlMode, OnUnlink};
use crate::repository::FileEntry;
use crate::server::{linked_attrs, BranchOp, DlfmServer, GRANT_MODE, ROOT};

/// One file of a node as the host's committed rows describe it: its
/// `__dl_meta` row's version and original attributes (from the link's
/// [`crate::server::LinkVote`]), and the options of its DATALINK column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostFile {
    pub version: u64,
    pub mode: ControlMode,
    pub recovery: bool,
    pub on_unlink: OnUnlink,
    pub orig_uid: u32,
    pub orig_gid: u32,
    pub orig_mode: u16,
}

/// The host's view of one node — path → [`HostFile`] for every file whose
/// `__dl_meta` row names the node: the one input [`DlfmServer::recover`]
/// takes from the host.
pub type HostView = HashMap<String, HostFile>;

/// A file's owner, group and permission bits.
pub type Attrs = (u32, u32, u16);

/// What recovery knows of one path: everything [`plan`] reads.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub path: String,
    /// The host's committed row of the path.
    pub host: Option<HostFile>,
    /// The host's row from before a rewind (see [`DlfmServer::recover`]).
    pub before: Option<HostFile>,
    /// This node's `dl_files` row, `needs_archive` included.
    pub file: Option<FileEntry>,
    /// A surviving unlink intent: its host transaction and ON UNLINK action.
    pub intent: Option<(u64, OnUnlink)>,
    /// The file carries a write grant's attributes (DLFM uid/gid, `0o600`):
    /// a write was in flight.
    pub granted: bool,
    /// The file's inode number, when it is on disk.
    pub ino: Option<u64>,
    /// The versions of the path the archive store holds.
    pub stored: Vec<u64>,
    /// The host's state id: a version recovery moves to is recorded under it.
    pub state_id: u64,
    /// The DLFM's identity: a full-control file's owner at rest.
    pub dlfm: Cred,
}

/// One thing recovery does to a path. Row steps go into recovery's one
/// repository transaction; the others act on the disk and the store at
/// once.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Drop the unlink intent of this host transaction.
    DropIntent(u64),
    /// Put the store's copy of this version over a write that never
    /// committed, and quarantine the dirty bytes.
    RollBack(u64),
    /// Drop the `dl_files` row: the host no longer links the file.
    /// `unlinked` when an intent says an unlink committed.
    DropEntry { unlinked: bool },
    /// ON UNLINK DELETE: delete the file and forget its archived versions.
    DeleteFile,
    /// Give the file its original attributes back: an unlink's end.
    HandBack(Attrs),
    /// The same, from the row from before a rewind: a link the host was
    /// rewound past, of which this node kept no row.
    UndoLink(Attrs),
    /// Insert this `dl_files` row, built from the host row: a lost link end.
    Relink(FileEntry),
    /// Write the store's copy of this version over the disk.
    Restore(u64),
    /// Record `version` as current, under `state_id`, awaiting archive.
    SetVersion { version: u64, from: u64, state_id: u64 },
    /// Put the file's at-rest linked attributes back.
    AtRest(Attrs),
    /// Copy the disk's bytes into the store as `version`: a lost archive job.
    Archive { version: u64, state_id: u64 },
    /// Clear `needs_archive`.
    Archived,
    /// Nothing here can supply this version of the host row (a RECOVERY NO
    /// column pruned it, or the file is gone): reported, not acted on.
    Missing(u64),
}

/// **The reconcile rule** for one path: the table in DESIGN.md ("Recovery
/// and replication" §6). The host row decides every case. A link's entry
/// and original attributes come from this node's row or else the host
/// row. An unlink's intent says what the unlink did, and the file's
/// attributes whether a write is in flight. The last steps re-archive the
/// version the path ends at, if the store lacks it.
pub fn plan(inputs: &Inputs) -> Vec<Step> {
    let mut steps = Vec::new();
    let holds = |version: u64| inputs.stored.contains(&version);
    if let Some((txid, _)) = inputs.intent {
        steps.push(Step::DropIntent(txid));
    }
    let unlink = inputs.intent.map(|(_, on_unlink)| on_unlink);
    let (row, file) = match (inputs.host, &inputs.file) {
        (None, Some(entry)) => {
            steps.push(Step::DropEntry { unlinked: unlink.is_some() });
            steps.push(match unlink {
                Some(OnUnlink::Delete) => Step::DeleteFile,
                _ => Step::HandBack((entry.orig_uid, entry.orig_gid, entry.orig_mode)),
            });
            return steps;
        }
        (None, None) => {
            if let Some(row) = inputs.before {
                steps.push(Step::UndoLink((row.orig_uid, row.orig_gid, row.orig_mode)));
            }
            return steps;
        }
        (Some(row), file) => (row, file),
    };
    let entry = match (file, inputs.ino) {
        (Some(entry), _) => entry.clone(),
        (None, None) => {
            steps.push(Step::Missing(row.version));
            return steps;
        }
        (None, Some(ino)) => {
            let entry = FileEntry {
                path: inputs.path.clone(),
                mode: row.mode,
                recovery: row.recovery,
                on_unlink: row.on_unlink,
                cur_version: 1,
                orig_uid: row.orig_uid,
                orig_gid: row.orig_gid,
                orig_mode: row.orig_mode,
                ino,
                state_id: 0,
                needs_archive: false,
            };
            steps.push(Step::Relink(entry.clone()));
            entry
        }
    };
    // A write in flight, found by its grant's attributes: the open logged
    // nothing. Its bytes may be dirty; the host version's are in the store
    // (a grant waits until the version before it is archived), except
    // between a close's host commit and its grant's release, when the disk
    // holds them.
    let in_flight = inputs.granted && entry.mode.supports_update();
    if in_flight && holds(row.version) {
        steps.push(Step::RollBack(row.version));
    }
    // At rest the disk may hold a version past the host row's (a restore,
    // or a host failover that lost an update's `Commit`). So a move takes
    // the store's copy of the row's version, and the disk's only when the
    // store lacks it. An older version the store lacks (RECOVERY NO
    // prunes) is missing, and the file stays.
    let from = entry.cur_version;
    let moved = row.version != from && (in_flight || holds(row.version) || row.version > from);
    if moved {
        if !in_flight && holds(row.version) {
            steps.push(Step::Restore(row.version));
        }
        let state_id = inputs.state_id;
        steps.push(Step::SetVersion { version: row.version, from, state_id });
    } else if row.version != from {
        steps.push(Step::Missing(row.version));
    }
    if file.is_none() || moved || in_flight || unlink.is_some() {
        steps.push(Step::AtRest(linked_attrs(entry.mode, &entry, &inputs.dlfm)));
    }
    // The version the path ends at awaits archiving when it moved, or when
    // its archive job was lost: the store gets the disk's bytes if it
    // lacks them.
    if moved || entry.needs_archive {
        let (version, state_id) =
            if moved { (row.version, inputs.state_id) } else { (from, entry.state_id) };
        if !holds(version) && inputs.ino.is_some() {
            steps.push(Step::Archive { version, state_id });
        }
        steps.push(Step::Archived);
    }
    steps
}

/// What recovery did: its steps, counted (assertable in tests, printed by
/// the report binary).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// One entry per unlink branch a surviving intent left unsettled:
    /// `(host_txid, committed)`. A link leaves no intent.
    pub in_doubt_resolved: Vec<(u64, bool)>,
    /// [`Step::UndoLink`]s.
    pub links_undone: u64,
    /// [`Step::DropEntry`]s an unlink intent accounts for.
    pub unlinks_completed: u64,
    /// Forward [`Step::SetVersion`]s: an update whose close record was
    /// lost, or one this node never heard of.
    pub updates_rolled_forward: u64,
    /// [`Step::RollBack`]s: writes in flight, found by the write grant's
    /// attributes.
    pub updates_rolled_back: u64,
    /// [`Step::Archive`]s.
    pub archives_recovered: u64,
    /// [`Step::Relink`]s.
    pub files_relinked: u64,
    /// [`Step::DropEntry`]s no unlink intent accounts for.
    pub files_unlinked: u64,
    /// Backward [`Step::SetVersion`]s: a point-in-time restore.
    pub versions_rolled_back: u64,
    /// `(path, version)` of every [`Step::Missing`].
    pub missing_versions: Vec<(String, u64)>,
}

impl RecoveryReport {
    /// Counts one path's steps.
    pub fn count(&mut self, path: &str, steps: &[Step]) {
        for step in steps {
            match *step {
                Step::RollBack(_) => self.updates_rolled_back += 1,
                Step::DropEntry { unlinked: true } => self.unlinks_completed += 1,
                Step::DropEntry { unlinked: false } => self.files_unlinked += 1,
                Step::UndoLink(_) => self.links_undone += 1,
                Step::Relink(_) => self.files_relinked += 1,
                Step::SetVersion { version, from, .. } if version < from => {
                    self.versions_rolled_back += 1
                }
                Step::SetVersion { .. } => self.updates_rolled_forward += 1,
                Step::Archive { .. } => self.archives_recovered += 1,
                Step::Missing(version) => self.missing_versions.push((path.to_string(), version)),
                _ => {}
            }
        }
    }
}

impl DlfmServer {
    /// Brings this node to what `host` — the host's rows naming it — says:
    /// the one recovery rule, run by crash recovery, file-server failover
    /// and point-in-time restore before the node serves anyone. It gathers
    /// the [`Inputs`] of every path the views, `dl_files` or an intent
    /// names, [`plan`]s each, applies the steps, and makes one forced
    /// repository commit, re-archive included. Token and Sync entries live
    /// in memory: none come back. `before` is the host's rows from before
    /// a rewind: a point-in-time restore passes the running host's, crash
    /// recovery and failover pass none. A link only they hold is handed
    /// back from them, a link's end being unforced.
    pub fn recover(&self, host: &HostView, before: &HostView) -> Result<RecoveryReport, String> {
        let repo = self.repository();
        let files: HashMap<_, _> =
            repo.list_files().into_iter().map(|f| (f.path.clone(), f)).collect();
        let mut intents = HashMap::new();
        let mut branches: BTreeMap<u64, Vec<(String, BranchOp)>> = BTreeMap::new();
        for intent in repo.list_intents() {
            let path = intent.path;
            branches.entry(intent.host_txid).or_default().push((path.clone(), BranchOp::Unlink));
            intents.insert(path, (intent.host_txid, intent.on_unlink));
        }
        // A branch's outcome is the settle rule's, asked of the same rows
        // the plan reads: each file of a branch ends the way the branch did.
        let mut report = RecoveryReport::default();
        for (txid, files) in &branches {
            let committed =
                self.host_committed(*txid, files, |path| host.get(path).map(|h| h.version));
            report.in_doubt_resolved.push((*txid, committed));
        }
        let (state_id, dlfm) = (self.host.read().state_id(), self.config().dlfm_cred);
        let grant = (dlfm.uid, dlfm.gid, GRANT_MODE);
        let names = files.keys().chain(intents.keys());
        let paths: BTreeSet<&String> = names.chain(host.keys()).chain(before.keys()).collect();
        let gathered: Vec<Inputs> = paths
            .into_iter()
            .map(|path| {
                let attr = self.admin.stat(&ROOT, path).ok();
                Inputs {
                    path: path.clone(),
                    host: host.get(path).copied(),
                    before: before.get(path).copied(),
                    file: files.get(path).cloned(),
                    intent: intents.get(path).copied(),
                    granted: attr.as_ref().is_some_and(|a| (a.uid, a.gid, a.mode) == grant),
                    ino: attr.map(|a| a.ino),
                    stored: self.archive_store().versions(path).into_iter().map(|v| v.0).collect(),
                    state_id,
                    dlfm,
                }
            })
            .collect();
        let mut txn = repo.db().begin();
        for inputs in &gathered {
            let steps = plan(inputs);
            report.count(&inputs.path, &steps);
            self.apply(&mut txn, &inputs.path, &steps)?;
        }
        txn.commit().map_err(|e| e.to_string())?;
        Ok(report)
    }

    /// Carries out one path's steps: the row changes go into `txn`, the
    /// rest is done at once.
    fn apply(&self, txn: &mut Txn, path: &str, steps: &[Step]) -> Result<(), String> {
        let (repo, store, generation) = (self.repository(), self.archive_store(), self.generation);
        let db_err = |e: DbError| e.to_string();
        for step in steps {
            match *step {
                Step::DropIntent(txid) => repo.remove_intent_in(txn, txid, path).map_err(db_err)?,
                Step::RollBack(version) => self.rollback_update(path, version),
                Step::DropEntry { .. } => repo.delete_file_in(txn, path).map_err(db_err)?,
                Step::DeleteFile => {
                    let _ = self.admin.remove(&ROOT, path);
                    store.forget(generation, path);
                }
                Step::HandBack(attrs) | Step::UndoLink(attrs) | Step::AtRest(attrs) => {
                    let _ = self.set_attrs(path, attrs);
                }
                Step::Relink(ref entry) => repo.insert_file_in(txn, entry).map_err(db_err)?,
                Step::Restore(version) => {
                    let archived = store.get(path, version).ok_or(FsError::NotFound);
                    archived
                        .and_then(|v| self.admin.write_file(&ROOT, path, &v.data))
                        .map_err(|e| format!("restore {path} to version {version}: {e}"))?;
                }
                Step::SetVersion { version, from, state_id } => {
                    repo.commit_version_in(txn, path, version, state_id).map_err(db_err)?;
                    if version > from {
                        self.stats.updates_rolled_forward.inc();
                        self.flight_recorder().record(
                            &self.flight_source,
                            "roll_forward",
                            0,
                            path,
                            format!("version={version} host_version={version} from={from}"),
                        );
                    }
                }
                Step::Archive { version, state_id } => {
                    if let Ok(data) = self.admin.read_file(&ROOT, path) {
                        store.put(generation, path, version, state_id, data);
                    }
                }
                Step::Archived => repo.clear_needs_archive_in(txn, path).map_err(db_err)?,
                Step::Missing(_) => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DLFM: Cred = Cred::user(900);
    const ORIG: Attrs = (1001, 100, 0o644);
    const GRANT: Attrs = (DLFM.uid, DLFM.gid, GRANT_MODE);
    /// Attributes recovery did not set: what a file not under a grant
    /// carries before it.
    const OTHER: Attrs = (0, 0, 0o777);

    fn row(version: u64, mode: ControlMode) -> HostFile {
        let on_unlink = OnUnlink::Restore;
        let (orig_uid, orig_gid, orig_mode) = ORIG;
        HostFile { version, mode, recovery: true, on_unlink, orig_uid, orig_gid, orig_mode }
    }

    fn entry(cur_version: u64, mode: ControlMode, needs_archive: bool) -> FileEntry {
        FileEntry {
            path: "/f".into(),
            mode,
            recovery: true,
            on_unlink: OnUnlink::Restore,
            cur_version,
            orig_uid: ORIG.0,
            orig_gid: ORIG.1,
            orig_mode: ORIG.2,
            ino: 7,
            state_id: 5,
            needs_archive,
        }
    }

    /// An `rdd` path: the host row at `host`, this node's row at `file`
    /// (`(cur_version, needs_archive)`), the file on disk, nothing else.
    fn at(host: Option<u64>, file: Option<(u64, bool)>) -> Inputs {
        let mode = ControlMode::Rdd;
        Inputs {
            path: "/f".into(),
            host: host.map(|v| row(v, mode)),
            before: None,
            file: file.map(|(v, needs_archive)| entry(v, mode, needs_archive)),
            intent: None,
            granted: false,
            ino: Some(7),
            stored: Vec::new(),
            state_id: 9,
            dlfm: DLFM,
        }
    }

    /// The bytes on disk: the store's copy of a version, or bytes nothing
    /// vouches for (a write in flight, a claim's).
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Bytes {
        Of(u64),
        Dirty,
    }

    /// A path as the test sees it: the plan's inputs, and the disk's bytes
    /// and attributes (`None` when the file is not on disk).
    #[derive(Debug, Clone)]
    struct Node {
        inputs: Inputs,
        disk: Option<(Bytes, Attrs)>,
    }

    /// Every input the rule distinguishes, with the disk each implies: at
    /// rest it holds the version this node's row records (a link's own
    /// bytes are version 1), in flight nothing vouches for them.
    fn every_node() -> Vec<Node> {
        let mut nodes = Vec::new();
        for mode in [ControlMode::Rdd, ControlMode::Rfb] {
            for (host, before) in
                [(None, None), (None, Some(1)), (Some(1), None), (Some(2), None), (Some(3), None)]
            {
                for file in [None, Some(false), Some(true)] {
                    for intent in [None, Some(OnUnlink::Restore), Some(OnUnlink::Delete)] {
                        for (granted, on_disk) in (0..4).map(|b| (b & 1 != 0, b & 2 != 0)) {
                            for stored in 0..8u64 {
                                let cur = if file.is_some() { 2 } else { 1 };
                                let inputs = Inputs {
                                    path: "/f".into(),
                                    host: host.map(|v| row(v, mode)),
                                    before: before.map(|v| row(v, mode)),
                                    file: file.map(|needs| entry(cur, mode, needs)),
                                    intent: intent.map(|action| (41, action)),
                                    granted: granted && on_disk,
                                    ino: on_disk.then_some(7),
                                    stored: (1..=3)
                                        .filter(|v| stored & (1 << (v - 1)) != 0)
                                        .collect(),
                                    state_id: 9,
                                    dlfm: DLFM,
                                };
                                let writing = granted && mode.supports_update();
                                let bytes = if writing { Bytes::Dirty } else { Bytes::Of(cur) };
                                let attrs = if granted { GRANT } else { OTHER };
                                nodes
                                    .push(Node { inputs, disk: on_disk.then_some((bytes, attrs)) });
                            }
                        }
                    }
                }
            }
        }
        nodes
    }

    /// What `steps` leave of `node`: the model of [`DlfmServer::apply`].
    /// The rewind is done after them, so the row from before it is the
    /// host's.
    fn applied(node: &Node, steps: &[Step]) -> Node {
        let mut next = node.clone();
        let (inputs, disk) = (&mut next.inputs, &mut next.disk);
        for step in steps {
            match step {
                Step::DropIntent(_) => inputs.intent = None,
                Step::RollBack(v) | Step::Restore(v) => {
                    assert!(inputs.stored.contains(v), "{step:?} of a version the store lacks");
                    if let Some((bytes, _)) = disk {
                        *bytes = Bytes::Of(*v);
                    }
                }
                Step::DropEntry { .. } => inputs.file = None,
                Step::DeleteFile => {
                    (*disk, inputs.ino, inputs.granted) = (None, None, false);
                    inputs.stored.clear();
                }
                Step::HandBack(a) | Step::UndoLink(a) | Step::AtRest(a) => {
                    if let Some((_, attrs)) = disk {
                        *attrs = *a;
                        inputs.granted = *a == GRANT;
                    }
                }
                Step::Relink(entry) => inputs.file = Some(entry.clone()),
                Step::SetVersion { version, state_id, .. } => {
                    let entry = inputs.file.as_mut().expect("a version of a linked file");
                    (entry.cur_version, entry.state_id) = (*version, *state_id);
                    entry.needs_archive = true;
                }
                Step::Archive { version, .. } => {
                    if disk.is_some() {
                        inputs.stored.push(*version);
                    }
                }
                Step::Archived => inputs.file.as_mut().unwrap().needs_archive = false,
                Step::Missing(_) => {}
            }
        }
        inputs.before = inputs.host;
        next
    }

    /// The table's promises, over every input: each failure prints the
    /// input and its plan.
    #[test]
    fn every_input_plans_to_the_host_row_and_plans_nothing_after() {
        let nodes = every_node();
        assert_eq!(nodes.len(), 2_880);
        for node in &nodes {
            let i = &node.inputs;
            let steps = plan(i);
            let why = format!("\n  input: {node:?}\n  plan: {steps:?}");
            let after = applied(node, &steps);
            let (o, disk) = (&after.inputs, after.disk);
            let linked_at = |v: u64| o.file.as_ref().is_some_and(|e| e.cur_version == v);
            // A clean node (rows agree, nothing in flight) plans nothing.
            let agree = match (i.host, &i.file) {
                (Some(h), Some(e)) => h.version == e.cur_version && !e.needs_archive,
                (None, None) => i.before.is_none(),
                _ => false,
            };
            if agree && i.intent.is_none() && !i.granted {
                assert!(steps.is_empty(), "a clean node planned steps{why}");
            }
            // The store's copy of the host row's version is what the disk
            // ends with.
            if let (Some(h), Some((bytes, _))) = (i.host, disk) {
                if i.stored.contains(&h.version) && linked_at(h.version) {
                    assert_eq!(bytes, Bytes::Of(h.version), "the disk's bytes were taken{why}");
                }
            }
            // A path the host no longer links is deleted or handed back.
            if i.host.is_none() && (i.file.is_some() || i.before.is_some()) {
                assert!(o.file.is_none(), "the row stayed{why}");
                let deletes = i.file.is_some() && matches!(i.intent, Some((_, OnUnlink::Delete)));
                match disk {
                    _ if deletes => assert!(disk.is_none(), "ON UNLINK DELETE kept the file{why}"),
                    Some((_, attrs)) => assert_eq!(attrs, ORIG, "not handed back{why}"),
                    None => {}
                }
            }
            // No intent survives, nor a write grant (which only an
            // update-capable file is ever given).
            assert!(o.intent.is_none(), "an intent survived{why}");
            if let (Some(e), Some((_, attrs))) = (&o.file, disk) {
                let survived = e.mode.supports_update() && attrs == GRANT;
                assert!(!survived, "the write grant survived{why}");
            }
            // The version a path ends at is archived, if it awaits that: it
            // moved, or its archive job was lost.
            if let (Some(e), Some(_)) = (&o.file, disk) {
                let from = i.file.as_ref().map_or(1, |f| f.cur_version);
                if i.file.as_ref().is_some_and(|f| f.needs_archive) || from != e.cur_version {
                    assert!(
                        o.stored.contains(&e.cur_version),
                        "v{} not archived{why}",
                        e.cur_version
                    );
                }
                assert!(!e.needs_archive, "needs_archive left set{why}");
            }
            // Planning again over what the steps left changes nothing.
            let again = plan(o);
            assert!(
                again.iter().all(|s| matches!(s, Step::Missing(_))),
                "planned again: {again:?}{why}"
            );
        }
    }

    /// A step as DESIGN.md's table says it.
    fn describe(step: &Step) -> String {
        match step {
            Step::DropIntent(_) => "drop the intent".into(),
            Step::RollBack(v) => {
                format!("roll back to the store's v{v}, quarantine the dirty bytes")
            }
            Step::DropEntry { .. } => "drop the `dl_files` row".into(),
            Step::DeleteFile => "delete the file and its archived versions".into(),
            Step::HandBack(_) => "hand the original attributes back".into(),
            Step::UndoLink(_) => "hand back the pre-rewind row's original attributes".into(),
            Step::Relink(_) => "insert a `dl_files` row built from the host row".into(),
            Step::Restore(v) => format!("write the store's v{v}"),
            Step::SetVersion { version, .. } => format!("record v{version}"),
            Step::AtRest(_) => "at-rest attributes".into(),
            Step::Archive { version, .. } => format!("archive the disk's bytes as v{version}"),
            Step::Archived => "clear `needs_archive`".into(),
            Step::Missing(v) => format!("report v{v} missing"),
        }
    }

    /// One representative input per row of DESIGN.md's table: the host
    /// row and what this node holds (an `rdd` file, on disk), in words and
    /// as inputs.
    fn table_rows() -> Vec<(&'static str, &'static str, Inputs)> {
        let with = |inputs: Inputs, edit: &dyn Fn(&mut Inputs)| {
            let mut inputs = inputs;
            edit(&mut inputs);
            inputs
        };
        let v2 = || at(Some(2), Some((2, false)));
        let ahead = || at(Some(3), Some((2, false)));
        let behind = || at(Some(1), Some((2, false)));
        let gone = || at(None, Some((2, false)));
        vec![
            (
                "at v2",
                "v2 under a write grant",
                with(v2(), &|i| (i.granted, i.stored) = (true, vec![2])),
            ),
            (
                "at v3",
                "v2 under a write grant; the store lacks v3",
                with(ahead(), &|i| {
                    (i.granted, i.stored) = (true, vec![2]);
                }),
            ),
            (
                "absent",
                "v2, an ON UNLINK DELETE intent",
                with(gone(), &|i| {
                    i.intent = Some((41, OnUnlink::Delete));
                }),
            ),
            (
                "absent",
                "v2, an ON UNLINK RESTORE intent",
                with(gone(), &|i| {
                    i.intent = Some((41, OnUnlink::Restore));
                }),
            ),
            ("absent", "v2", gone()),
            (
                "absent (before the rewind: v1)",
                "nothing",
                with(at(None, None), &|i| {
                    i.before = Some(row(1, ControlMode::Rdd));
                }),
            ),
            ("at v1", "no row", at(Some(1), None)),
            ("at v1", "no row, no file", with(at(Some(1), None), &|i| i.ino = None)),
            ("at v3", "v2; the store holds v3", with(ahead(), &|i| i.stored = vec![2, 3])),
            ("at v3", "v2; the store lacks v3", ahead()),
            ("at v1", "v2; the store holds v1", with(behind(), &|i| i.stored = vec![1, 2])),
            ("at v1", "v2; the store lacks v1", behind()),
            (
                "at v2",
                "v2, an intent (the unlink aborted)",
                with(v2(), &|i| {
                    i.intent = Some((41, OnUnlink::Restore));
                }),
            ),
            ("at v2", "v2 awaiting archive; the store lacks v2", at(Some(2), Some((2, true)))),
            ("at v2", "v2", v2()),
        ]
    }

    /// DESIGN.md's "One reconcile" table is the plan's: each row is
    /// rendered from its input's steps and their count.
    #[test]
    fn the_design_table_is_the_plan() {
        let header = "| host row | this node holds | steps | counted in `RecoveryReport` |";
        let mut rendered = vec![header.to_string(), "|---|---|---|---|".to_string()];
        for (host, holds, inputs) in table_rows() {
            let steps = plan(&inputs);
            let mut report = RecoveryReport::default();
            report.count(&inputs.path, &steps);
            let counts = [
                ("updates_rolled_forward", report.updates_rolled_forward),
                ("updates_rolled_back", report.updates_rolled_back),
                ("unlinks_completed", report.unlinks_completed),
                ("files_unlinked", report.files_unlinked),
                ("links_undone", report.links_undone),
                ("files_relinked", report.files_relinked),
                ("versions_rolled_back", report.versions_rolled_back),
                ("archives_recovered", report.archives_recovered),
                ("missing_versions", report.missing_versions.len() as u64),
            ];
            let counted: Vec<String> =
                counts.iter().filter(|c| c.1 > 0).map(|c| format!("`{}`", c.0)).collect();
            let steps: Vec<String> = steps.iter().map(describe).collect();
            rendered.push(format!(
                "| {host} | {holds} | {} | {} |",
                if steps.is_empty() { "nothing".to_string() } else { steps.join("; ") },
                if counted.is_empty() { "—".to_string() } else { counted.join(", ") },
            ));
        }
        let design = include_str!("../../../DESIGN.md");
        let committed: Vec<&str> = design
            .lines()
            .skip_while(|line| *line != header)
            .take_while(|line| line.starts_with('|'))
            .collect();
        let rendered = rendered.join("\n");
        assert_eq!(committed.join("\n"), rendered, "DESIGN.md §6's table should read:\n{rendered}");
    }
}
