//! Cut-point sweep of the host row as the one commit point — of an update
//! (PR 21) and of a link or an unlink (PR 22).
//!
//! An update forces two log records — the `dl_uip` claim at open, the
//! host's `Commit` of the metadata row at close — and appends the
//! repository's close record (and the archiver's `needs_archive` clear)
//! *unforced*. A link or an unlink forces two as well — its intent (the
//! branch's vote) and the host's `Commit` (which inserts or deletes the
//! file's metadata row) — and ends the branch with one unforced repository
//! record: the `Commit` of its `dl_files` row and intent removal, or, on
//! abort, the intent removal alone. (An unlink's file-system action runs
//! before its `Commit`, so "`Commit` kept, intent removal lost" is not a
//! state the log can be in.) So at any instant the repository's disk holds
//! everything forced so far plus **some prefix of the unforced tail**, and
//! recovery must reach a consistent state from each of them by one rule:
//! what the tail lost is settled by the host's metadata row — a surviving
//! claim by its version, a surviving intent by its row's presence (link)
//! or absence (unlink).
//!
//! The sweep visits every record boundary of the repository log at the
//! moment it is the crash frontier. A seeded history — updates over the
//! linked files, two of them interleaved so two claims can outlive their
//! closes at once, one close made to fail; a link, an unlink, one
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
//! `Commit` (for a link or an unlink: after the forced intent, the host
//! undecided), and — for a link or an unlink — between the `Commit` and
//! phase two, the branch's own `Commit` never written.
//!
//! After each recovery, per file: user-table row, host metadata row and
//! repository row are all there at one version or all gone; the file is
//! taken over iff linked; its bytes and the archive are that version's; no
//! claim, intent or pending branch is left; the report's
//! in-doubt, roll-forward and roll-back entries are exactly what the cut
//! left unsettled; and the next update, unlink or link of every file
//! proceeds.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use datalinks::core::{DataLinksSystem, DatalinkUrl, DlColumnOptions, FileServerSpec};
use datalinks::dlfm::{AgentConnection, ControlMode, DlfmClient, RecoveryReport, TokenKind};
use datalinks::fskit::{Cred, OpenOptions, SimClock};
use datalinks::minidb::wal::{read_until, WalRecord};
use datalinks::minidb::{
    Column, ColumnType, Database, Device, DiskFaults, Lsn, Participant, RowOp, Schema, StorageEnv,
    Txn, Value,
};
use dl_lab::plan::splitmix64;

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
    sys.define_datalink_column(
        "t",
        "body",
        DlColumnOptions::new(ControlMode::Rdd).token_ttl_ms(600_000),
    )
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
    /// Writes the bytes of the version the open claimed.
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
    /// A link whose host commit hits a full disk after the repository
    /// voted yes: the host aborts, and tells the branch so.
    LinkFailing(usize),
    /// `checkpoint_and_truncate` on the host and on the repository.
    Checkpoint,
}

impl Step {
    /// A link/unlink transaction: two-phase commit, host as coordinator.
    fn is_two_phase(self) -> bool {
        matches!(self, Step::Link(_) | Step::Unlink(_) | Step::Swap(..))
    }
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
    fn prepare(&self, txid: u64) -> Result<(), String> {
        AgentConnection::prepare(&self.0, txid)
    }
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
    /// The record of a finished close: the commit that deletes the claim.
    Close,
    /// The end of a link/unlink branch: the commit that deletes its
    /// intents — with its `dl_files` rows if it committed, alone if not.
    End {
        commit: bool,
    },
    Other,
}

fn classify(rec: &WalRecord) -> Tail {
    let WalRecord::Commit { ops, .. } = rec else { return Tail::Other };
    let deletes =
        |t: &str| ops.iter().any(|op| matches!(op, RowOp::Delete { table, .. } if table == t));
    if deletes("dl_uip") {
        Tail::Close
    } else if deletes("dl_intents") {
        Tail::End { commit: ops.iter().any(|op| op.table() == "dl_files") }
    } else {
        Tail::Other
    }
}

/// The repository's unforced tail as of now: `(start LSN, kind)` per
/// record, and the tail LSN. Flushes, so that the device holds the tail
/// for the crash to cut.
fn flushed_tail(sys: &DataLinksSystem) -> (Vec<(Lsn, Tail)>, Lsn) {
    let repo = sys.node(SRV).unwrap().server.repository().db();
    let durable = repo.durable_lsn();
    repo.flush().unwrap();
    let tail = repo.wal_reader().read_from(durable).unwrap();
    (tail.records.iter().map(|(lsn, rec)| (*lsn, classify(rec))).collect(), tail.end)
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
/// on `want[file]`, the file is taken over iff linked, bytes and archive
/// are the version's; nothing is left claimed, intended, in doubt or
/// pending; and the next operation on every file commits — an update to
/// the next version and then an unlink for a linked file, a link for an
/// unlinked one. A file in `owner_lost` was linked by a take-over whose
/// intent its node never received: the re-link recorded the attributes it
/// found, so the unlink hands the file back to the DLFM, not to its owner
/// (the known limit of a failover, ROADMAP).
fn audit(sys: &DataLinksSystem, want: &Versions, owner_lost: &[usize], context: &str) {
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
        if meta.is_some() || owner_lost.contains(&file) {
            assert_eq!((attr.uid, attr.mode), (dlfm.uid, 0o400), "{context}: not taken over");
        } else {
            assert_eq!((attr.uid, attr.mode), (APP.uid, 0o644), "{context}: not handed back");
        }
        meta
    };
    assert!(repo.list_uip().is_empty(), "{context}: a claim outlived recovery");
    assert!(repo.list_intents().is_empty(), "{context}: an intent outlived recovery");
    assert!(node.server.pending_host_txns().is_empty(), "{context}: a branch is still pending");
    for (file, &version) in want.iter().enumerate() {
        let path = path_of(file);
        let context = format!("{context}, file {file}");
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
    /// the step's `Commit` (for a link/unlink, only its forced intents are
    /// on the repository's disk, and phase two never ran).
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
    let mut rolled_back = model.open.len() as u64;
    let mut lost_commit_point = 0;
    if frontier == Frontier::BeforeCommit {
        want = before;
        if let Step::Close(_) = last {
            // Everything from the close record on was never written either.
            let last_close = tail.iter().rposition(|(_, kind)| *kind == Tail::Close).unwrap();
            boundaries.truncate(last_close + 1);
            rolled_back += 1;
            lost_commit_point = 1;
        }
    }
    let at = boundaries[cut];
    let lost = |kind: Tail| tail.iter().filter(|(lsn, k)| *lsn >= at && *k == kind).count() as u64;
    let rolled_forward = lost(Tail::Close) - lost_commit_point;
    // The branches the cut leaves undecided, oldest first: those whose end
    // it lost, then the one whose phase two never ran.
    let mut undecided: Vec<bool> = tail
        .iter()
        .filter_map(|(lsn, kind)| match kind {
            Tail::End { commit } if *lsn >= at => Some(*commit),
            _ => None,
        })
        .collect();
    if withheld {
        undecided.push(frontier == Frontier::BeforePhaseTwo);
    }

    let Rig { sys, host_env, repo_env, .. } = rig;
    let (dev, base) = active_log(sys.node(SRV).unwrap().server.repository().db(), &repo_env);
    let host_log = active_log(sys.db(), &host_env);
    let image = sys.crash();
    dev.set_len(at - base).unwrap();
    if frontier == Frontier::BeforeCommit {
        cut_last_host_commit(host_log);
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
        (rolled_forward, rolled_back),
        "{context}: every surviving claim settles by the host row"
    );
    audit(&sys, &want, &[], &context);
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

/// Whether no write open is in flight once `steps` have run.
fn quiescent(steps: &[Step]) -> bool {
    let opens = steps.iter().filter(|s| matches!(s, Step::Open(_))).count();
    let closes =
        steps.iter().filter(|s| matches!(s, Step::Close(_) | Step::CloseFailing(_))).count();
    opens == closes
}

#[test]
fn every_step_cut_from_the_standby_log_fails_over_to_the_host_rows() {
    // The standby log as the cut target: shipping pauses before each step,
    // so the standby holds nothing that step or any later one logged —
    // not the claim, the intent, the close record or the branch's end. The
    // primary runs on to the next point where no write open is in flight
    // (a failover with a grant outstanding is not a state this history
    // audits), dies, and the promoted node must agree with the host rows.
    let steps = history(SEED);
    let (mut relinked, mut unlinked, mut forward) = (0, 0, 0);
    for cut in 0..steps.len() {
        let end = (cut + 1..=steps.len()).find(|&end| quiescent(&steps[..end])).unwrap();
        let (rig, model, _) = replay(&steps[..end], false, Some(cut));
        let mut sys = rig.sys;
        let report = sys.fail_over(SRV).unwrap();
        relinked += report.files_relinked;
        unlinked += report.files_unlinked;
        forward += report.updates_rolled_forward;
        // A take-over the standby never heard of: the original owner is
        // lost with the intent.
        let owner_lost: Vec<usize> = steps[cut..end]
            .iter()
            .filter_map(|step| match *step {
                Step::Link(file) | Step::Swap(_, file) => Some(file),
                _ => None,
            })
            .collect();
        let context = format!("seed {SEED}, standby cut before step {cut} {:?}", steps[cut]);
        audit(&sys, &model.version, &owner_lost, &context);
    }
    // Worth its name only if lost links, unlinks and updates all happened.
    assert!(
        relinked >= 3 && unlinked >= 2 && forward >= 12,
        "{relinked} re-links, {unlinked} unlinks, {forward} versions rolled forward"
    );
}

#[test]
fn failover_to_a_standby_holding_only_the_claims_settles_each_by_the_host_row() {
    // File 0: an acknowledged update whose close record never shipped.
    // File 1: a write open still in flight. The promoted standby holds both
    // claims and nothing else; the host row tells them apart.
    let Rig { mut sys, .. } = rig(1, 0);
    let set = sys.node(SRV).unwrap().replication.clone().unwrap();
    assert!(sys.wait_replicas_caught_up(SRV, CATCH_UP).unwrap());
    set.set_paused(true);
    let fs = sys.fs(SRV).unwrap();
    let (_, token_path) =
        sys.select_datalink("t", &Value::Int(1), "body", TokenKind::Write).unwrap();
    let fd = fs.open(&APP, &token_path, OpenOptions::write_truncate()).unwrap();
    fs.write(fd, b"doomed").unwrap();
    update(&sys, 0, &bytes_of(0, 2));
    let repo = sys.node(SRV).unwrap().server.repository().db().clone();
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
    audit(&sys, &[Some(2), Some(1), Some(1), None], &[], "failover at a claim-only prefix");
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
        audit(&sys, &want, &[], &format!("host failover, commit shipped: {shipped}"));
    }
}
