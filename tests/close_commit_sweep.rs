//! Cut-point sweep of the host row as the one commit point — of an update
//! and of a link or an unlink.
//!
//! An update forces one log record — the host's `Commit` of the metadata
//! row at close — and appends its repository records *unforced*: the close
//! record and the archiver's `needs_archive` clear. Its write open logs
//! nothing: the writer is an entry of DLFM's in-memory open table, and the
//! file's write-grant attributes are the one durable mark of the write.
//! A link forces one too — the host's `Commit`, which inserts the file's
//! metadata row with the original attributes the link's vote read; the
//! vote writes nothing on the node. An unlink forces two — its intent (the
//! branch's vote) and the host's `Commit`, which deletes the row. Either
//! ends its branch with one unforced repository record: the `Commit` of its
//! `dl_files` rows and intent removals, or, on abort, the intent removals
//! alone (an aborted link writes nothing). (A branch's file-system actions
//! run before its `Commit`, so "`Commit` kept, intent removal lost" is not
//! a state the log can be in; and a link makes its path's last unlink end
//! durable before it votes, so that end is never cut together with the
//! re-link's.) So at any instant the repository's disk holds everything
//! forced so far plus **some prefix of the unforced tail**, and recovery
//! must reach a consistent state from each of them by one rule: what the
//! tail lost is settled by the host's metadata row — an update by its
//! version, a link by the row's presence (re-linked from it), a surviving
//! unlink intent by the row's absence — and a write in flight by the
//! file's write-grant attributes.
//!
//! The sweep visits every record boundary of the repository log at the
//! moment it is the crash frontier. A seeded history — updates over the
//! linked files, two of them interleaved so two writes are in flight at
//! once, one close made to fail; a link, an unlink, one
//! transaction that unlinks one file and links another, a link whose host
//! commit fails after the repository voted; one truncating checkpoint of
//! host and repository — is replayed up to each step; the log tail is
//! flushed to the device, the system crashes, and the device is cut at each
//! boundary of what had been the unforced tail. Boundaries *below* the
//! durable watermark are not crash states — an acknowledged force is on
//! disk, and the file system cannot be rewound under it — which is why the
//! history is replayed per cut instead of one finished log being sheared
//! everywhere. After a step that has a commit point the crash is also
//! placed around it ([`Frontier`]): with the host log cut below the step's
//! `Commit` (for a link or an unlink: after the vote, the host undecided;
//! for a close: the file still under its write grant's
//! attributes), and — for a link or an unlink — between the `Commit` and
//! phase two, the branch's own `Commit` never written.
//!
//! After each recovery, per file: user-table row, host metadata row and
//! repository row are all there at one version or all gone; the file is
//! taken over iff linked, and handed back to its owner's attributes iff
//! not; its bytes and the archive are that version's; no writer, intent or
//! pending branch is left; the report's in-doubt, roll-forward and
//! roll-back entries are exactly what the cut left unsettled; and the next
//! update, unlink or link of every file proceeds. A last sweep crashes a
//! single update of each update-capable mode inside its write: after the
//! grant, after the write, and between the host's `Commit` and the grant's
//! release.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use datalinks::core::{DataLinksSystem, DatalinkUrl, DlColumnOptions, FileServerSpec};
use datalinks::dlfm::{
    AgentConnection, ControlMode, DlfmClient, HostHook, RecoveryReport, TokenKind,
};
use datalinks::fskit::{Cred, OpenOptions, SetAttr, SimClock};
use datalinks::minidb::wal::{read_until, WalRecord};
use datalinks::minidb::{
    Column, ColumnType, Database, Device, DiskFaults, Lsn, Participant, RowOp, Schema, StorageEnv,
    Txn, Value,
};

const APP: Cred = Cred { uid: 100, gid: 100 };
const SRV: &str = "srv";
/// Files 0..3 start linked at version 1, the last one unlinked.
const FILES: usize = 4;
const SEED: u64 = 21;
const CATCH_UP: Duration = Duration::from_secs(30);

fn path_of(file: usize) -> String {
    format!("/d/f{file}.bin")
}

fn url_of(file: usize) -> String {
    format!("dlfs://{SRV}{}", path_of(file))
}

/// What `file` holds at `version`: what a link finds there (version 1) and
/// what the update that commits as `version` writes. A function of (file,
/// version), so a retry after a rolled-back attempt — and a second life of
/// the file after an unlink — writes what the first did.
fn bytes_of(file: usize, version: u64) -> Vec<u8> {
    format!("file {file} at version {version}").into_bytes()
}

struct Rig {
    sys: DataLinksSystem,
    host_env: StorageEnv,
    repo_env: StorageEnv,
    host_faults: Arc<DiskFaults>,
}

/// `FILES` files on disk, all but the last linked at version 1; optionally
/// with repository and host standbys.
fn rig(replicas: usize, host_replicas: usize) -> Rig {
    rig_in(ControlMode::Rdd, replicas, host_replicas)
}

/// [`rig`] with the DATALINK column under `mode`.
fn rig_in(mode: ControlMode, replicas: usize, host_replicas: usize) -> Rig {
    let host_faults = DiskFaults::new();
    let host_env = StorageEnv::mem_with_faults(Arc::clone(&host_faults), 0);
    let repo_env = StorageEnv::mem();
    let mut spec = FileServerSpec::new(SRV).replicas(replicas);
    spec.repo_env = repo_env.clone();
    let sys = DataLinksSystem::builder()
        .clock(Arc::new(SimClock::new(1_000_000)))
        .host_env(host_env.clone())
        .host_replicas(host_replicas)
        .file_server_with(spec)
        .build()
        .unwrap();
    let raw = sys.raw_fs(SRV).unwrap();
    raw.mkdir_p(&Cred::root(), "/d", 0o777).unwrap();
    sys.create_table(
        Schema::new(
            "t",
            vec![
                Column::new("id", ColumnType::Int),
                Column::nullable("body", ColumnType::DataLink),
            ],
            "id",
        )
        .unwrap(),
    )
    .unwrap();
    sys.define_datalink_column("t", "body", DlColumnOptions::new(mode).token_ttl_ms(600_000))
        .unwrap();
    for file in 0..FILES {
        raw.write_file(&APP, &path_of(file), &bytes_of(file, 1)).unwrap();
        if file + 1 < FILES {
            two_phase(&sys, false, |tx| insert_row(tx, file));
        }
    }
    Rig { sys, host_env, repo_env, host_faults }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    Open(usize),
    /// Writes the bytes of the version the open will commit.
    Write(usize),
    Close(usize),
    WriteDoomed(usize),
    /// A close whose host commit hits a full disk: the update aborts.
    CloseFailing(usize),
    /// INSERT of the file's row: links the file at version 1.
    Link(usize),
    /// DELETE of the file's row: unlinks the file.
    Unlink(usize),
    /// One transaction that unlinks the first file and links the second.
    Swap(usize, usize),
    /// A link whose host commit hits a full disk after the node voted yes:
    /// the host aborts, and tells the branch so.
    LinkFailing(usize),
    /// `checkpoint_and_truncate` on the host and on the repository.
    Checkpoint,
}

impl Step {
    /// A link/unlink transaction: two-phase commit, host as coordinator.
    fn is_two_phase(self) -> bool {
        matches!(self, Step::Link(_) | Step::Unlink(_) | Step::Swap(..))
    }

    /// A transaction that unlinks a file: its branch forces an intent,
    /// which a crash before the branch's end leaves in doubt.
    fn unlinks(self) -> bool {
        matches!(self, Step::Unlink(_) | Step::Swap(..))
    }
}

/// splitmix64 — the standard 64-bit mixer (Steele et al.); one step.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Twelve updates over the linked files in seeded order — every third group
/// an interleaved pair, whose closes share one unforced tail — with one
/// failing close, the link/unlink transactions and the checkpoint between
/// groups. At least three files are linked whenever a group starts.
fn history(seed: u64) -> Vec<Step> {
    use Step::*;
    let mut rng = seed;
    let mut pick = |among: &[usize]| among[(splitmix64(&mut rng) % among.len() as u64) as usize];
    let mut linked: Vec<usize> = (0..FILES - 1).collect();
    let spare = FILES - 1;
    let mut steps = Vec::new();
    let mut updates = 0;
    let mut group = 0;
    while updates < 12 {
        let a = pick(&linked);
        if group % 3 == 2 {
            let others: Vec<usize> = linked.iter().copied().filter(|f| *f != a).collect();
            let b = pick(&others);
            steps.extend([Open(a), Open(b), Write(a), Write(b), Close(a), Close(b)]);
            updates += 2;
        } else {
            steps.extend([Open(a), Write(a), Close(a)]);
            updates += 1;
        }
        group += 1;
        match group {
            1 => {
                steps.extend([LinkFailing(spare), Link(spare)]);
                linked.push(spare);
            }
            3 => steps.extend([Open(a), WriteDoomed(a), CloseFailing(a)]),
            4 => {
                // The file just updated: its second life starts over at
                // version 1 with versions of its first still archived.
                steps.push(Unlink(a));
                linked.retain(|f| *f != a);
            }
            5 => steps.push(Checkpoint),
            6 => {
                let gone = pick(&linked);
                let back = (0..FILES).find(|f| !linked.contains(f)).unwrap();
                steps.push(Swap(gone, back));
                linked.retain(|f| *f != gone);
                linked.push(back);
            }
            7 => {
                let back = (0..FILES).find(|f| !linked.contains(f)).unwrap();
                steps.push(Link(back));
                linked.push(back);
            }
            _ => {}
        }
    }
    steps
}

/// Committed version per file; `None` = not linked.
type Versions = [Option<u64>; FILES];

/// What the history has committed and what it holds open.
struct Model {
    version: Versions,
    /// Files with a granted write open.
    open: BTreeSet<usize>,
}

fn insert_row(tx: &mut Txn, file: usize) {
    tx.insert("t", vec![Value::Int(file as i64), Value::DataLink(url_of(file))]).unwrap();
}

fn delete_row(tx: &mut Txn, file: usize) {
    tx.delete("t", &Value::Int(file as i64)).unwrap();
}

/// A participant whose phase two dies with the coordinator: the vote goes
/// through, the decision never reaches the DLFM.
struct Withheld(DlfmClient);

impl Participant for Withheld {
    fn commit(&self, _txid: u64) {}
    fn abort(&self, txid: u64) {
        AgentConnection::abort(&self.0, txid);
    }
}

/// Runs `dml` as one committed host transaction and returns its id. With
/// `withhold`, phase two never reaches the DLFM: [`Withheld`] is enlisted
/// first under the engine's own participant name, so the engine's enlist
/// dedupes against it.
fn two_phase(sys: &DataLinksSystem, withhold: bool, dml: impl FnOnce(&mut Txn)) -> u64 {
    let mut tx = sys.begin();
    let txid = tx.id();
    if withhold {
        let agent = sys.node(SRV).unwrap().connect_agent();
        sys.db().enlist_participant(txid, &format!("dlfm@{SRV}"), Arc::new(Withheld(agent)));
    }
    dml(&mut tx);
    tx.commit().unwrap();
    txid
}

/// Puts the bytes a link of `file` finds there (its owner can: the file
/// is not linked).
fn write_first_version(sys: &DataLinksSystem, file: usize) {
    sys.raw_fs(SRV).unwrap().write_file(&APP, &path_of(file), &bytes_of(file, 1)).unwrap();
}

fn update(sys: &DataLinksSystem, file: usize, content: &[u8]) {
    let (_, token_path) =
        sys.select_datalink("t", &Value::Int(file as i64), "body", TokenKind::Write).unwrap();
    let fs = sys.fs(SRV).unwrap();
    let fd = fs.open(&APP, &token_path, OpenOptions::write_truncate()).unwrap();
    fs.write(fd, content).unwrap();
    fs.close(fd).unwrap();
    sys.node(SRV).unwrap().server.archive_store().wait_archived(&path_of(file));
}

/// Replays `steps` on a fresh rig — the last one, with `withhold_last`,
/// short of its phase two. Every close waits out its archive job, so the
/// log is the same byte for byte on every replay. With `standby_cut`, the
/// rig has one repository standby, which holds everything up to step
/// `standby_cut` and nothing after it: shipping is paused right before that
/// step. Returns the model and the versions as they stood before the last
/// step.
fn replay(
    steps: &[Step],
    withhold_last: bool,
    standby_cut: Option<usize>,
) -> (Rig, Model, Versions) {
    let rig = rig(usize::from(standby_cut.is_some()), 0);
    let sys = &rig.sys;
    let mut version = [Some(1); FILES];
    version[FILES - 1] = None;
    let mut model = Model { version, open: BTreeSet::new() };
    let mut before = model.version;
    let fs = sys.fs(SRV).unwrap();
    let mut fds = BTreeMap::new();
    for (i, step) in steps.iter().enumerate() {
        if standby_cut == Some(i) {
            assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());
            sys.set_replication_paused(SRV, true).unwrap();
        }
        before = model.version;
        let withhold = withhold_last && i + 1 == steps.len();
        match *step {
            Step::Open(file) => {
                let (_, token_path) = sys
                    .select_datalink("t", &Value::Int(file as i64), "body", TokenKind::Write)
                    .unwrap();
                fds.insert(
                    file,
                    fs.open(&APP, &token_path, OpenOptions::write_truncate()).unwrap(),
                );
                model.open.insert(file);
            }
            Step::Write(file) => {
                fs.write(fds[&file], &bytes_of(file, model.version[file].unwrap() + 1)).unwrap();
            }
            Step::WriteDoomed(file) => {
                fs.write(fds[&file], b"doomed").unwrap();
            }
            Step::Close(file) => {
                fs.close(fds.remove(&file).unwrap()).unwrap();
                sys.node(SRV).unwrap().server.archive_store().wait_archived(&path_of(file));
                *model.version[file].as_mut().unwrap() += 1;
                model.open.remove(&file);
            }
            Step::CloseFailing(file) => {
                rig.host_faults.inject_enospc(1);
                assert!(fs.close(fds.remove(&file).unwrap()).is_err());
                model.open.remove(&file);
            }
            Step::Link(file) => {
                write_first_version(sys, file);
                two_phase(sys, withhold, |tx| insert_row(tx, file));
                model.version[file] = Some(1);
            }
            Step::Unlink(file) => {
                two_phase(sys, withhold, |tx| delete_row(tx, file));
                model.version[file] = None;
            }
            Step::Swap(gone, back) => {
                write_first_version(sys, back);
                two_phase(sys, withhold, |tx| {
                    delete_row(tx, gone);
                    insert_row(tx, back);
                });
                model.version[gone] = None;
                model.version[back] = Some(1);
            }
            Step::LinkFailing(file) => {
                write_first_version(sys, file);
                let mut tx = sys.begin();
                insert_row(&mut tx, file);
                rig.host_faults.inject_enospc(1);
                assert!(tx.commit().is_err());
                assert_eq!(rig.host_faults.enospc_hits(), 1, "the fault landed on the commit");
            }
            Step::Checkpoint => {
                sys.db().checkpoint_and_truncate().unwrap();
                let repo = sys.node(SRV).unwrap().server.repository().db();
                repo.checkpoint_and_truncate().unwrap();
            }
        }
    }
    (rig, model, before)
}

/// What an unforced repository record is to the sweep.
#[derive(Clone, Copy, PartialEq)]
enum Tail {
    /// The record of a finished close of `file`: the commit that moves its
    /// `dl_files` row to the writer's version. (A write open, and a close
    /// that commits nothing, log nothing.)
    Close(usize),
    /// The end of a branch that unlinked: the commit that deletes its
    /// intents — with its `dl_files` rows if it committed, alone if not. A
    /// link-only branch's end inserts `dl_files` rows and nothing else
    /// (`Other`): its loss leaves nothing in doubt, the recovery re-links
    /// from the host row.
    End {
        commit: bool,
    },
    Other,
}

/// Classifies one record of the repository log. `awaiting` is the index of
/// `dl_files`' `needs_archive` column: a close's version update is the one
/// rewrite of a `dl_files` row that sets it — the archiver's clear
/// rewrites the row at the same version with it unset, a link inserts the
/// row and an unlink deletes it.
fn classify(rec: &WalRecord, awaiting: usize) -> Tail {
    let WalRecord::Commit { ops, .. } = rec else { return Tail::Other };
    let file_of = |path: &str| (0..FILES).find(|&f| path_of(f) == path).unwrap();
    let closed = ops.iter().find_map(|op| match op {
        RowOp::Update { table, key, row } if table == "dl_files" => {
            (row[awaiting] == Value::Bool(true)).then(|| key.as_text()).flatten()
        }
        _ => None,
    });
    let moves_files = ops.iter().any(|op| op.table() == "dl_files");
    let deletes_intents =
        ops.iter().any(|op| matches!(op, RowOp::Delete { table, .. } if table == "dl_intents"));
    match closed {
        Some(path) => Tail::Close(file_of(path)),
        None if deletes_intents => Tail::End { commit: moves_files },
        None => Tail::Other,
    }
}

/// The repository's unforced tail as of now: `(start LSN, kind)` per
/// record, and the tail LSN. Flushes, so that the device holds the tail
/// for the crash to cut.
fn flushed_tail(sys: &DataLinksSystem) -> (Vec<(Lsn, Tail)>, Lsn) {
    let repo = sys.node(SRV).unwrap().server.repository().db();
    let awaiting = repo.schema("dl_files").unwrap().column_index("needs_archive").unwrap();
    let durable = repo.durable_lsn();
    repo.flush().unwrap();
    let tail = repo.wal_reader().read_from(durable).unwrap();
    (tail.records.iter().map(|(lsn, rec)| (*lsn, classify(rec, awaiting))).collect(), tail.end)
}

/// The device and base of `db`'s active log slot (the history truncates at
/// most once, so the slots never wrap around).
fn active_log(db: &Database, env: &StorageEnv) -> (Arc<dyn Device>, Lsn) {
    let base = db.wal_base_lsn();
    (env.device(if base == 0 { "wal" } else { "wal.1" }).unwrap(), base)
}

/// Cuts the host log below its last commit of a metadata row — the commit
/// point of the update, link or unlink that ran last.
fn cut_last_host_commit((dev, base): (Arc<dyn Device>, Lsn)) {
    let records = read_until(&dev, base, None).unwrap();
    let (lsn, _) = records
        .iter()
        .rev()
        .find(|(_, rec)| {
            matches!(rec, WalRecord::Commit { ops, .. }
            if ops.iter().any(|op| op.table() == "__dl_meta"))
        })
        .expect("the last step's host commit");
    dev.set_len(*lsn - base).unwrap();
}

/// The audit: for every file, user row, host row and repository row agree
/// on `want[file]`, the file is taken over iff linked and back with its
/// owner's attributes iff not, bytes and archive are the version's;
/// nothing is left open, intended, in doubt or pending; and the next
/// operation on every file commits — an update to the next version and
/// then an unlink for a linked file, a link for an unlinked one.
fn audit(sys: &DataLinksSystem, want: &Versions, context: &str) {
    let node = sys.node(SRV).unwrap();
    let repo = node.server.repository();
    let raw = sys.raw_fs(SRV).unwrap();
    let dlfm = node.server.config().dlfm_cred;
    // Where the three rows say `file` stands, if they agree.
    let rows = |file: usize, context: &str| {
        let url = DatalinkUrl::parse(&url_of(file)).unwrap();
        let meta = sys.engine().file_meta(&url).map(|(_, _, version)| version);
        let dl_files = repo.get_file(&path_of(file)).map(|entry| entry.cur_version);
        let user_row = sys.db().get_committed("t", &Value::Int(file as i64)).unwrap();
        assert_eq!(meta, dl_files, "{context}: host row vs dl_files");
        assert_eq!(user_row.is_some(), meta.is_some(), "{context}: user row vs host row");
        let attr = raw.stat(&Cred::root(), &path_of(file)).unwrap();
        if meta.is_some() {
            assert_eq!((attr.uid, attr.mode), (dlfm.uid, 0o400), "{context}: not taken over");
        } else {
            assert_eq!((attr.uid, attr.mode), (APP.uid, 0o644), "{context}: not handed back");
        }
        meta
    };
    assert!(repo.list_intents().is_empty(), "{context}: an intent outlived recovery");
    assert!(node.server.pending_host_txns().is_empty(), "{context}: a branch is still pending");
    for (file, &version) in want.iter().enumerate() {
        let path = path_of(file);
        let context = format!("{context}, file {file}");
        assert!(repo.sync_entries(&path).is_empty(), "{context}: a writer outlived recovery");
        assert_eq!(rows(file, &context), version, "{context}");
        let Some(version) = version else { continue };
        assert_eq!(
            raw.read_file(&Cred::root(), &path).unwrap(),
            bytes_of(file, version),
            "{context}: bytes"
        );
        // Version 1 is archived by the first write open (the before-image).
        if let Some(archived) = node.server.archive_store().get(&path, version) {
            assert_eq!(archived.data, bytes_of(file, version), "{context}: archived bytes");
        } else {
            assert_eq!(version, 1, "{context}: the committed version is not archived");
        }
    }
    for (file, &version) in want.iter().enumerate() {
        if let Some(version) = version {
            update(sys, file, &bytes_of(file, version + 1));
            let context = format!("{context}, file {file} updated again");
            assert_eq!(rows(file, &context), Some(version + 1), "{context}");
            two_phase(sys, false, |tx| delete_row(tx, file));
            assert_eq!(rows(file, &context), None, "{context}, then unlinked");
        } else {
            write_first_version(sys, file);
            two_phase(sys, false, |tx| insert_row(tx, file));
            assert_eq!(rows(file, context), Some(1), "{context}, file {file} linked");
        }
    }
}

/// Where the crash lands relative to the last step's commit point.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Frontier {
    /// After the step: everything it forced is on disk, its unforced
    /// records are cut.
    After,
    /// A link/unlink between the host's `Commit` and phase two: the
    /// decision is durable on the host, the branch's own `Commit` was
    /// never appended.
    BeforePhaseTwo,
    /// Inside the step, before its commit point: the host log ends below
    /// the step's `Commit` (for a link/unlink, only its unlinks' forced
    /// intents are on the repository's disk, and phase two never ran).
    BeforeCommit,
}

/// Replays `steps`, crashes at `frontier` with the repository log cut at
/// boundary `cut` of its unforced tail, recovers and audits. Returns how
/// many boundaries this crash point has.
fn crash_at(steps: &[Step], cut: usize, frontier: Frontier) -> usize {
    let last = *steps.last().unwrap();
    let withheld = last.is_two_phase() && frontier != Frontier::After;
    let (rig, model, before) = replay(steps, withheld, None);
    let (tail, end) = flushed_tail(&rig.sys);
    let mut boundaries: Vec<Lsn> = tail.iter().map(|(lsn, _)| *lsn).collect();
    boundaries.push(end);
    let mut want = model.version;
    // Files the recovery rolls an update back on: every grant in flight,
    // found by its attributes (the open logged nothing for the cut to
    // keep or take). A failed close rolled its file back itself.
    let mut rolled_back: BTreeSet<usize> = model.open.clone();
    // The close whose host commit the crash took, if any.
    let mut uncommitted_close = None;
    if frontier == Frontier::BeforeCommit {
        want = before;
        if let Step::Close(file) = last {
            // Everything from the close record on was never written either,
            // and the file still carries the write grant's attributes.
            let last_close = tail.iter().rposition(|(_, kind)| *kind == Tail::Close(file)).unwrap();
            boundaries.truncate(last_close + 1);
            rolled_back.insert(file);
            uncommitted_close = Some(last_close);
        }
    }
    let at = boundaries[cut];
    // A close the cut lost rolls its file forward to the host's version —
    // once per file, however many of its closes were lost.
    let rolled_forward: BTreeSet<usize> = tail
        .iter()
        .enumerate()
        .filter_map(|(i, (lsn, kind))| match kind {
            Tail::Close(file) if *lsn >= at && uncommitted_close != Some(i) => Some(*file),
            _ => None,
        })
        .collect();
    // The unlink branches the cut leaves undecided, oldest first: those
    // whose end it lost, then the one whose phase two never ran. A link
    // leaves no intent to settle.
    let mut undecided: Vec<bool> = tail
        .iter()
        .filter_map(|(lsn, kind)| match kind {
            Tail::End { commit } if *lsn >= at => Some(*commit),
            _ => None,
        })
        .collect();
    if withheld && last.unlinks() {
        undecided.push(frontier == Frontier::BeforePhaseTwo);
    }

    let Rig { sys, host_env, repo_env, .. } = rig;
    let (dev, base) = active_log(sys.node(SRV).unwrap().server.repository().db(), &repo_env);
    let host_log = active_log(sys.db(), &host_env);
    let dlfm = sys.node(SRV).unwrap().server.config().dlfm_cred;
    let raw = sys.raw_fs(SRV).unwrap();
    let image = sys.crash();
    dev.set_len(at - base).unwrap();
    if frontier == Frontier::BeforeCommit {
        cut_last_host_commit(host_log);
        if let Step::Close(file) = last {
            let granted = SetAttr {
                uid: Some(dlfm.uid),
                gid: Some(dlfm.gid),
                mode: Some(0o600),
                ..Default::default()
            };
            raw.setattr(&Cred::root(), &path_of(file), &granted).unwrap();
        }
    }
    let context = format!(
        "seed {SEED}, crash at step {} {last:?} {frontier:?}, repository log cut at {at}",
        steps.len(),
    );
    let (sys, reports) = DataLinksSystem::recover(image).unwrap();
    let report: &RecoveryReport = &reports[SRV];
    let resolved: Vec<bool> = report.in_doubt_resolved.iter().map(|(_, commit)| *commit).collect();
    assert_eq!(resolved, undecided, "{context}: every branch settles by the host row");
    assert_eq!(
        (report.updates_rolled_forward, report.updates_rolled_back),
        (rolled_forward.len() as u64, rolled_back.len() as u64),
        "{context}: every update settles by the host row and the file's attributes"
    );
    audit(&sys, &want, &context);
    boundaries.len()
}

#[test]
fn every_cut_of_the_unforced_tail_recovers_row_file_and_archive_together() {
    let steps = history(SEED);
    assert_eq!(steps.iter().filter(|s| matches!(s, Step::Close(_))).count(), 12);
    assert_eq!(steps.iter().filter(|s| s.is_two_phase()).count(), 4);
    let (mut crashes, mut forward_cuts, mut lost_ends) = (0, 0, 0);
    for upto in 1..=steps.len() {
        let last = steps[upto - 1];
        for frontier in [Frontier::After, Frontier::BeforePhaseTwo, Frontier::BeforeCommit] {
            let applies = match frontier {
                Frontier::After => true,
                Frontier::BeforePhaseTwo => last.is_two_phase(),
                Frontier::BeforeCommit => last.is_two_phase() || matches!(last, Step::Close(_)),
            };
            if !applies {
                continue;
            }
            let mut cut = 0;
            loop {
                let boundaries = crash_at(&steps[..upto], cut, frontier);
                crashes += 1;
                let cuts_something = frontier == Frontier::After && cut + 1 < boundaries;
                forward_cuts += usize::from(cuts_something && !last.is_two_phase());
                lost_ends += usize::from(
                    frontier == Frontier::BeforePhaseTwo || (cuts_something && last.is_two_phase()),
                );
                cut += 1;
                if cut == boundaries {
                    break;
                }
            }
        }
    }
    // The sweep is only worth its name if it actually cut unforced tails
    // and left branches without their end.
    assert!(
        crashes > steps.len() && forward_cuts >= 24 && lost_ends >= 6,
        "{crashes} crashes, {forward_cuts} cuts, {lost_ends} lost branch ends"
    );
}

#[test]
fn every_step_cut_from_the_standby_log_fails_over_to_the_host_rows() {
    // The standby log as the cut target: shipping pauses before each step,
    // so the standby holds nothing that step logged — not the intent, the
    // close record or the branch's end. The primary runs the step, dies —
    // with whatever write opens it holds — and the promoted node must
    // agree with the host rows: a grant in flight, which no log records,
    // rolls back by its attributes.
    let steps = history(SEED);
    let (mut relinked, mut unlinked, mut forward, mut back) = (0, 0, 0, 0);
    for cut in 0..steps.len() {
        let (rig, model, _) = replay(&steps[..=cut], false, Some(cut));
        let mut sys = rig.sys;
        let report = sys.fail_over(SRV).unwrap();
        relinked += report.files_relinked;
        unlinked += report.files_unlinked;
        forward += report.updates_rolled_forward;
        back += report.updates_rolled_back;
        // Rolled back: each grant in flight, and nothing else. A failed
        // close put the committed bytes back and released its grant before
        // the crash, and logged no claim for the standby to hold without
        // its release: it leaves nothing to roll back.
        assert_eq!(report.updates_rolled_back, model.open.len() as u64, "step {cut}");
        // A link the standby never heard of is re-linked from the host
        // row, which keeps the original owner.
        let context = format!("seed {SEED}, standby cut before step {cut} {:?}", steps[cut]);
        audit(&sys, &model.version, &context);
    }
    // Worth its name only if lost links, unlinks, updates and write opens
    // all happened.
    assert!(
        relinked >= 3 && unlinked >= 2 && forward >= 12 && back >= 12,
        "{relinked} re-links, {unlinked} unlinks, {forward} versions rolled forward, \
         {back} write opens rolled back"
    );
}

#[test]
fn failover_to_a_standby_holding_only_the_claims_settles_each_by_the_host_row() {
    // File 0: an acknowledged update whose close record never shipped.
    // File 1: a write open still in flight. The promoted standby holds what
    // the log held right after the opens — which logged nothing — and
    // nothing after; the host row and the grant's attributes tell them
    // apart.
    let Rig { mut sys, .. } = rig(1, 0);
    let set = sys.node(SRV).unwrap().replication.clone().unwrap();
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());
    set.set_paused(true);
    let fs = sys.fs(SRV).unwrap();
    let open = |file: i64| {
        let (_, token_path) =
            sys.select_datalink("t", &Value::Int(file), "body", TokenKind::Write).unwrap();
        fs.open(&APP, &token_path, OpenOptions::write_truncate()).unwrap()
    };
    let (in_flight, acked) = (open(1), open(0));
    let repo = sys.node(SRV).unwrap().server.repository().db().clone();
    repo.flush().unwrap();
    fs.write(in_flight, b"doomed").unwrap();
    fs.write(acked, &bytes_of(0, 2)).unwrap();
    fs.close(acked).unwrap();
    sys.node(SRV).unwrap().server.archive_store().wait_archived(&path_of(0));
    assert!(repo.durable_lsn() < repo.state_id(), "the close record is batched, not synced");
    while set.lag() > 0 {
        set.ship_once().unwrap();
    }
    assert_eq!(set.standbys()[0].applied_lsn(), repo.durable_lsn());
    drop((set, repo, fs));

    let report = sys.fail_over(SRV).unwrap();
    assert!(report.in_doubt_resolved.is_empty());
    assert_eq!((report.updates_rolled_forward, report.updates_rolled_back), (1, 1));
    let ring = sys.node(SRV).unwrap().server.flight_recorder().render("dlfm.srv", "test");
    assert!(ring.contains("roll_forward") && ring.contains("version=2 host_version=2"), "{ring}");
    assert_eq!(sys.metrics().counters["dlfm.srv.updates_rolled_forward"], 1);
    audit(&sys, &[Some(2), Some(1), Some(1), None], "failover at a claim-only prefix");
}

#[test]
fn host_failover_settles_a_voted_branch_by_whether_its_commit_shipped() {
    // One transaction unlinks file 0 and links file 3; the host dies after
    // its `Commit` and before phase two. The promoted standby has the
    // metadata rows of that commit or it does not — the host's shipper was
    // paused before the commit, or after it shipped — and the DLFM's
    // pending branch follows.
    for shipped in [false, true] {
        let Rig { mut sys, .. } = rig(0, 1);
        assert!(sys.wait_host_replicas_caught_up(CATCH_UP));
        sys.set_host_replication_paused(!shipped).unwrap();
        write_first_version(&sys, 3);
        let txid = two_phase(&sys, true, |tx| {
            delete_row(tx, 0);
            insert_row(tx, 3);
        });
        if shipped {
            assert!(sys.wait_host_replicas_caught_up(CATCH_UP), "the decision must ship");
            sys.set_host_replication_paused(true).unwrap();
        } else {
            assert!(sys.host_replication_lag() > 0, "the decision must still be unshipped");
        }
        assert_eq!(sys.node(SRV).unwrap().server.pending_host_txns(), vec![txid]);

        let report = sys.fail_over_host().unwrap();
        assert_eq!(report.in_doubt_resolved, vec![(SRV.to_string(), txid, shipped)]);
        // The trail says why: the row asked about, what a commit would
        // have left of it, what the promoted host holds.
        let ring = sys.node(SRV).unwrap().server.flight_recorder().render("dlfm.srv", "test");
        let why = if shipped {
            "expect=absent host_version=none outcome=commit"
        } else {
            "expect=absent host_version=1 outcome=presumed-abort"
        };
        assert!(ring.contains("settle") && ring.contains(why), "{ring}");
        let want = if shipped {
            [None, Some(1), Some(1), Some(1)]
        } else {
            [Some(1), Some(1), Some(1), None]
        };
        audit(&sys, &want, &format!("host failover, commit shipped: {shipped}"));
    }
}

#[test]
fn a_relink_after_an_unlink_survives_every_cut_of_the_unforced_tail() {
    // File 0's first life: linked with its version-1 bytes, updated to
    // version 2, unlinked. Its owner then writes new bytes and links it
    // again. A link writes nothing durable on the node, so without the
    // ordering rule the unlink's end could sit in the unforced tail beside
    // the re-link's end, and a cut below both would leave the first life's
    // row and the unlink's intent next to the second life's host row: the
    // intent would settle as aborted and the move to version 1 would
    // write the first life's archived bytes over the owner's. The re-link
    // makes that end durable before it votes, so every cut recovers the
    // second life: the owner's bytes, linked at version 1, with the
    // owner's attributes as the original ones.
    const OWNERS: &[u8] = b"the owner's bytes, written between the lives";
    let file = 0;
    let replay = || {
        let rig = rig(0, 0);
        update(&rig.sys, file, &bytes_of(file, 2));
        two_phase(&rig.sys, false, |tx| delete_row(tx, file));
        rig.sys.raw_fs(SRV).unwrap().write_file(&APP, &path_of(file), OWNERS).unwrap();
        two_phase(&rig.sys, false, |tx| insert_row(tx, file));
        rig
    };
    let mut cut = 0;
    loop {
        let Rig { sys, repo_env, .. } = replay();
        let (tail, end) = flushed_tail(&sys);
        let mut boundaries: Vec<Lsn> = tail.iter().map(|(lsn, _)| *lsn).collect();
        boundaries.push(end);
        let (dev, base) = active_log(sys.node(SRV).unwrap().server.repository().db(), &repo_env);
        let image = sys.crash();
        dev.set_len(boundaries[cut] - base).unwrap();
        let context = format!("repository log cut at {}", boundaries[cut]);
        let (sys, _) = DataLinksSystem::recover(image).unwrap();
        let node = sys.node(SRV).unwrap();
        let raw = sys.raw_fs(SRV).unwrap();
        assert_eq!(raw.read_file(&Cred::root(), &path_of(file)).unwrap(), OWNERS, "{context}");
        let entry = node.server.repository().get_file(&path_of(file)).expect("linked");
        assert_eq!(entry.cur_version, 1, "{context}");
        assert_eq!((entry.orig_uid, entry.orig_mode), (APP.uid, 0o644), "{context}");
        let url = DatalinkUrl::parse(&url_of(file)).unwrap();
        assert_eq!(sys.engine().file_meta(&url).map(|(_, _, v)| v), Some(1), "{context}");
        // The second life ends with the file back with its owner, whole.
        two_phase(&sys, false, |tx| delete_row(tx, file));
        let attr = raw.stat(&Cred::root(), &path_of(file)).unwrap();
        assert_eq!((attr.uid, attr.mode), (APP.uid, 0o644), "{context}");
        assert_eq!(raw.read_file(&Cred::root(), &path_of(file)).unwrap(), OWNERS, "{context}");
        cut += 1;
        if cut == boundaries.len() {
            break;
        }
    }
}

/// Where a crash lands inside one update of a file.
#[derive(Debug, Clone, Copy, PartialEq)]
enum InWrite {
    /// The write open is granted; nothing is written yet (the open
    /// truncated the file).
    AfterGrant,
    /// The new version's bytes are written; the close has not begun.
    AfterWrite,
    /// The host committed the new version and the close record was
    /// appended, unforced; the grant was never released.
    BeforeRelease,
}

#[test]
fn a_crash_inside_a_write_reaches_the_host_rows_bytes_in_every_update_mode() {
    // File 0 is updated to version 2, the log flushed; then a second
    // update is crashed at `point`, with the repository log cut at every
    // boundary of what it appended since. A write open logs nothing, so
    // only the close record is there to cut. Whatever the cut, recovery
    // ends at the host row's version and bytes, found by the row and the
    // write grant's attributes alone.
    let file = 0;
    let path = path_of(file);
    let (mut crashes, mut cut_records) = (0, 0);
    for mode in [ControlMode::Rdd, ControlMode::Rfd] {
        assert!(mode.supports_update());
        for point in [InWrite::AfterGrant, InWrite::AfterWrite, InWrite::BeforeRelease] {
            let mut cut = 0;
            loop {
                let Rig { sys, repo_env, .. } = rig_in(mode, 0, 0);
                update(&sys, file, &bytes_of(file, 2));
                let repo = sys.node(SRV).unwrap().server.repository().db().clone();
                repo.flush().unwrap();
                let (_, token_path) = sys
                    .select_datalink("t", &Value::Int(file as i64), "body", TokenKind::Write)
                    .unwrap();
                let fs = sys.fs(SRV).unwrap();
                let fd = fs.open(&APP, &token_path, OpenOptions::write_truncate()).unwrap();
                assert_eq!(repo.state_id(), repo.durable_lsn(), "the write open logged nothing");
                if point != InWrite::AfterGrant {
                    fs.write(fd, &bytes_of(file, 3)).unwrap();
                }
                if point == InWrite::BeforeRelease {
                    // The close's commit, as `close_notify` makes it, up
                    // to the release it never reached: the host's forced
                    // `Commit` of version 3, then the close record.
                    let size = bytes_of(file, 3).len() as u64;
                    let engine: &dyn HostHook = &**sys.engine();
                    engine.commit_file_update(&url_of(file), size, 9, 3).unwrap();
                    let dlfm = sys.node(SRV).unwrap().server.repository();
                    let mut txn = repo.begin();
                    dlfm.commit_version_in(&mut txn, &path, 3, engine.state_id()).unwrap();
                    txn.commit_unforced().unwrap();
                }
                let (tail, end) = flushed_tail(&sys);
                let mut boundaries: Vec<Lsn> = tail.iter().map(|(lsn, _)| *lsn).collect();
                boundaries.push(end);
                let at = boundaries[cut];
                // The model: the host row decides the version, the grant
                // marks the write in flight. A write the host never
                // committed is rolled back to the store's copy of its
                // version; a committed one is kept, and rolled forward
                // when the cut took its close record.
                let want = if point == InWrite::BeforeRelease { 3 } else { 2 };
                let rolled_back = u64::from(point != InWrite::BeforeRelease);
                let lost_close =
                    tail.iter().any(|(lsn, kind)| *lsn >= at && *kind == Tail::Close(file));
                let (dev, base) = active_log(&repo, &repo_env);
                drop((repo, fs, fd));
                let image = sys.crash();
                dev.set_len(at - base).unwrap();
                let context = format!("{mode} {point:?}, repository log cut at {at}");
                let (sys, reports) = DataLinksSystem::recover(image).unwrap();
                let report = &reports[SRV];
                assert!(report.in_doubt_resolved.is_empty(), "{context}");
                assert_eq!(
                    (report.updates_rolled_forward, report.updates_rolled_back),
                    (u64::from(lost_close), rolled_back),
                    "{context}: the update settles by the host row and the grant's attributes"
                );
                let node = sys.node(SRV).unwrap();
                let entry = node.server.repository().get_file(&path).unwrap();
                let url = DatalinkUrl::parse(&url_of(file)).unwrap();
                let meta = sys.engine().file_meta(&url).map(|(_, _, version)| version);
                assert_eq!((meta, entry.cur_version), (Some(want), want), "{context}");
                let raw = sys.raw_fs(SRV).unwrap();
                let bytes = raw.read_file(&Cred::root(), &path).unwrap();
                assert_eq!(bytes, bytes_of(file, want), "{context}: the host row's bytes");
                let archived = node.server.archive_store().get(&path, want);
                assert_eq!(archived.map(|v| v.data), Some(bytes_of(file, want)), "{context}");
                let attr = raw.stat(&Cred::root(), &path).unwrap();
                let at_rest = if mode.takes_over_at_link() {
                    (node.server.config().dlfm_cred.uid, 0o400)
                } else {
                    (APP.uid, 0o444)
                };
                assert_eq!((attr.uid, attr.mode), at_rest, "{context}: back at rest");
                assert!(node.server.repository().sync_entries(&path).is_empty(), "{context}");
                update(&sys, file, &bytes_of(file, want + 1));
                let next = sys.engine().file_meta(&url).map(|(_, _, version)| version);
                assert_eq!(next, Some(want + 1), "{context}: the next update commits");
                crashes += 1;
                cut_records += usize::from(lost_close);
                cut += 1;
                if cut == boundaries.len() {
                    break;
                }
            }
        }
    }
    // Two modes, three points: the grant and write points have no record
    // to cut, the release point one close record, cut and kept.
    assert_eq!((crashes, cut_records), (2 * (1 + 1 + 2), 2));
}
