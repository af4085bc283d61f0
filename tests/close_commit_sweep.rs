//! Cut-point sweep of the update path's one commit point (PR 21).
//!
//! An update forces two log records — the `dl_uip` claim at open, the
//! host's `Commit` of the metadata row at close — and appends the
//! repository's close record (and the archiver's `needs_archive` clear)
//! *unforced*. So at any instant the repository's disk holds everything
//! forced so far plus **some prefix of the unforced tail**, and recovery
//! must reach a consistent state from each of them: a claim whose close
//! record is gone settles by the version in the host's metadata row.
//!
//! The sweep visits every record boundary of the repository log at the
//! moment it is the crash frontier. A seeded history (updates over three
//! files, two of them interleaved so two claims can outlive their closes
//! at once, one close made to fail, one truncating checkpoint) is replayed
//! up to each step; the log tail is flushed to the device, the system
//! crashes, and the device is cut at each boundary of what had been the
//! unforced tail. Boundaries *below* the durable watermark are not crash
//! states — an acknowledged force is on disk, and the file system cannot
//! be rewound under it — which is why the history is replayed per cut
//! instead of one finished log being sheared everywhere. After a step that
//! closed an update, the same cuts run once more with the host log cut
//! below that update's `Commit`: the crash that lands inside the close,
//! before its commit point.
//!
//! After each recovery, per file: host metadata version == repository
//! version, file bytes == the bytes written for that version, no claim
//! left, the archive holds the version, the report's roll-forward and
//! roll-back counts match the claims that survived the cut, and the next
//! update lands on the next version.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use datalinks::core::{DataLinksSystem, DatalinkUrl, DlColumnOptions, FileServerSpec};
use datalinks::dlfm::{ControlMode, RecoveryReport, TokenKind};
use datalinks::fskit::{Cred, OpenOptions, SimClock};
use datalinks::minidb::wal::{read_until, WalRecord};
use datalinks::minidb::{Column, ColumnType, DiskFaults, Lsn, RowOp, Schema, StorageEnv, Value};
use dl_lab::plan::splitmix64;

const APP: Cred = Cred { uid: 100, gid: 100 };
const SRV: &str = "srv";
const FILES: usize = 3;
const SEED: u64 = 21;

fn path_of(file: usize) -> String {
    format!("/d/f{file}.bin")
}

/// What an update of `file` that commits as `version` writes. A function
/// of (file, version), so a retry after a rolled-back attempt writes what
/// the lost attempt did.
fn bytes_of(file: usize, version: u64) -> Vec<u8> {
    format!("file {file} at version {version}").into_bytes()
}

struct Rig {
    sys: DataLinksSystem,
    host_env: StorageEnv,
    repo_env: StorageEnv,
    host_faults: Arc<DiskFaults>,
}

/// `FILES` files linked at version 1, optionally with repository standbys.
fn rig(replicas: usize) -> Rig {
    let host_faults = DiskFaults::new();
    let host_env = StorageEnv::mem_with_faults(Arc::clone(&host_faults), 0);
    let repo_env = StorageEnv::mem();
    let mut spec = FileServerSpec::new(SRV).replicas(replicas);
    spec.repo_env = repo_env.clone();
    let sys = DataLinksSystem::builder()
        .clock(Arc::new(SimClock::new(1_000_000)))
        .host_env(host_env.clone())
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
        let mut tx = sys.begin();
        tx.insert(
            "t",
            vec![
                Value::Int(file as i64),
                Value::DataLink(format!("dlfs://{SRV}{}", path_of(file))),
            ],
        )
        .unwrap();
        tx.commit().unwrap();
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
    /// `checkpoint_and_truncate` on the repository.
    Checkpoint,
}

/// Twelve updates over the three files in seeded order — every third group
/// an interleaved pair, whose closes share one unforced tail — plus one
/// failing close and a checkpoint in the middle.
fn history(seed: u64) -> Vec<Step> {
    use Step::*;
    let mut rng = seed;
    let mut steps = Vec::new();
    let mut updates = 0;
    let mut group = 0;
    while updates < 12 {
        let a = (splitmix64(&mut rng) % FILES as u64) as usize;
        if group % 3 == 2 {
            let b = (a + 1 + (splitmix64(&mut rng) % (FILES as u64 - 1)) as usize) % FILES;
            steps.extend([Open(a), Open(b), Write(a), Write(b), Close(a), Close(b)]);
            updates += 2;
        } else {
            steps.extend([Open(a), Write(a), Close(a)]);
            updates += 1;
        }
        group += 1;
        if group == 3 {
            steps.extend([Open(a), WriteDoomed(a), CloseFailing(a)]);
        }
        if group == 5 {
            steps.push(Checkpoint);
        }
    }
    steps
}

/// What the history has committed and what it holds open.
struct Model {
    /// Committed version per file.
    version: [u64; FILES],
    /// Files with a granted write open.
    open: BTreeSet<usize>,
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

/// Replays `steps` on a fresh rig. Every close waits out its archive job,
/// so the log is the same byte for byte on every replay.
fn replay(steps: &[Step]) -> (Rig, Model) {
    let rig = rig(0);
    let mut model = Model { version: [1; FILES], open: BTreeSet::new() };
    let fs = rig.sys.fs(SRV).unwrap();
    let mut fds = BTreeMap::new();
    for step in steps {
        match *step {
            Step::Open(file) => {
                let (_, token_path) = rig
                    .sys
                    .select_datalink("t", &Value::Int(file as i64), "body", TokenKind::Write)
                    .unwrap();
                fds.insert(
                    file,
                    fs.open(&APP, &token_path, OpenOptions::write_truncate()).unwrap(),
                );
                model.open.insert(file);
            }
            Step::Write(file) => {
                fs.write(fds[&file], &bytes_of(file, model.version[file] + 1)).unwrap();
            }
            Step::WriteDoomed(file) => {
                fs.write(fds[&file], b"doomed").unwrap();
            }
            Step::Close(file) => {
                fs.close(fds.remove(&file).unwrap()).unwrap();
                rig.sys.node(SRV).unwrap().server.archive_store().wait_archived(&path_of(file));
                model.version[file] += 1;
                model.open.remove(&file);
            }
            Step::CloseFailing(file) => {
                rig.host_faults.inject_enospc(1);
                assert!(fs.close(fds.remove(&file).unwrap()).is_err());
                model.open.remove(&file);
            }
            Step::Checkpoint => {
                let repo = rig.sys.node(SRV).unwrap().server.repository().db();
                repo.checkpoint_and_truncate().unwrap();
            }
        }
    }
    (rig, model)
}

fn is_close_record(rec: &WalRecord) -> bool {
    matches!(rec, WalRecord::Commit { ops, .. } if ops.iter().any(
        |op| matches!(op, RowOp::Delete { table, .. } if table == "dl_uip"),
    ))
}

/// The repository's unforced tail as of now: `(start LSN, is a close
/// record)` per record, and the tail LSN. Flushes, so that the device
/// holds the tail for the crash to cut.
fn flushed_tail(sys: &DataLinksSystem) -> (Vec<(Lsn, bool)>, Lsn) {
    let repo = sys.node(SRV).unwrap().server.repository().db();
    let durable = repo.durable_lsn();
    repo.flush().unwrap();
    let tail = repo.wal_reader().read_from(durable).unwrap();
    (tail.records.iter().map(|(lsn, rec)| (*lsn, is_close_record(rec))).collect(), tail.end)
}

/// The device and base of the repository's active log slot (the history
/// truncates at most once, so the slots never wrap around).
fn repo_log(
    sys: &DataLinksSystem,
    repo_env: &StorageEnv,
) -> (Arc<dyn datalinks::minidb::Device>, Lsn) {
    let base = sys.node(SRV).unwrap().server.repository().db().wal_base_lsn();
    (repo_env.device(if base == 0 { "wal" } else { "wal.1" }).unwrap(), base)
}

/// Cuts the host log below its last metadata-row commit.
fn cut_last_host_commit(host_env: &StorageEnv) {
    let dev = host_env.device("wal").unwrap();
    let records = read_until(&dev, 0, None).unwrap();
    let (lsn, _) = records
        .iter()
        .rev()
        .find(|(_, rec)| {
            matches!(rec, WalRecord::Commit { ops, .. }
            if ops.iter().all(|op| op.table() == "__dl_meta"))
        })
        .expect("the update's host commit");
    dev.set_len(*lsn).unwrap();
}

/// The audit: file, repository row, host row and archive agree on
/// `want[file]` for every file, nothing is left claimed, and the next
/// update of every file commits as the next version.
fn audit(sys: &DataLinksSystem, want: &[u64; FILES], context: &str) {
    let node = sys.node(SRV).unwrap();
    let repo = node.server.repository();
    let raw = sys.raw_fs(SRV).unwrap();
    let meta_version = |file: usize| {
        let url = DatalinkUrl::parse(&format!("dlfs://{SRV}{}", path_of(file))).unwrap();
        sys.engine().file_meta(&url).map(|(_, _, version)| version)
    };
    assert!(repo.list_uip().is_empty(), "{context}: a claim outlived recovery");
    for (file, &version) in want.iter().enumerate() {
        let path = path_of(file);
        let context = format!("{context}, file {file}");
        assert_eq!(meta_version(file), Some(version), "{context}: host row");
        assert_eq!(repo.get_file(&path).unwrap().cur_version, version, "{context}: dl_files");
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
        update(sys, file, &bytes_of(file, version + 1));
        let context = format!("{context}, file {file} updated again");
        assert_eq!(meta_version(file), Some(version + 1), "{context}: host row");
        assert_eq!(repo.get_file(&path_of(file)).unwrap().cur_version, version + 1, "{context}");
    }
}

/// Replays `steps`, crashes with the repository log cut at boundary
/// `cut` of its unforced tail (and, with `host_cut`, the host log cut below
/// the last step's commit), recovers and audits. Returns how many
/// boundaries this crash point has.
fn crash_at(steps: &[Step], cut: usize, host_cut: bool) -> usize {
    let (rig, model) = replay(steps);
    let (tail, end) = flushed_tail(&rig.sys);
    let mut boundaries: Vec<Lsn> = tail.iter().map(|(lsn, _)| *lsn).collect();
    boundaries.push(end);
    let mut want = model.version;
    let mut rolled_back = model.open.len() as u64;
    if host_cut {
        // The crash precedes the last close's commit point: everything
        // from its close record on was never written either.
        let Some(Step::Close(file)) = steps.last() else { panic!("host cut follows a close") };
        let last_close = tail.iter().rposition(|(_, is_close)| *is_close).unwrap();
        boundaries.truncate(last_close + 1);
        want[*file] -= 1;
        rolled_back += 1;
    }
    let at = boundaries[cut];
    let lost_closes = tail.iter().filter(|(lsn, is_close)| *lsn >= at && *is_close).count() as u64;
    let rolled_forward = lost_closes - u64::from(host_cut);

    let Rig { sys, host_env, repo_env, .. } = rig;
    let (dev, base) = repo_log(&sys, &repo_env);
    let image = sys.crash();
    dev.set_len(at - base).unwrap();
    if host_cut {
        cut_last_host_commit(&host_env);
    }
    let context = format!(
        "seed {SEED}, crash after step {} {:?}, repository log cut at {at}{}",
        steps.len(),
        steps.last().unwrap(),
        if host_cut { ", host commit cut" } else { "" }
    );
    let (sys, reports) = DataLinksSystem::recover(image).unwrap();
    let report: &RecoveryReport = &reports[SRV];
    assert!(report.in_doubt_resolved.is_empty(), "{context}: {report:?}");
    assert_eq!(
        (report.updates_rolled_forward, report.updates_rolled_back),
        (rolled_forward, rolled_back),
        "{context}: every surviving claim settles by the host row"
    );
    audit(&sys, &want, &context);
    boundaries.len()
}

#[test]
fn every_cut_of_the_unforced_tail_recovers_row_file_and_archive_together() {
    let steps = history(SEED);
    assert_eq!(steps.iter().filter(|s| matches!(s, Step::Close(_))).count(), 12);
    let (mut crashes, mut forward_cuts) = (0, 0);
    for upto in 1..=steps.len() {
        for host_cut in [false, true] {
            if host_cut && !matches!(steps[upto - 1], Step::Close(_)) {
                continue;
            }
            let mut cut = 0;
            loop {
                let boundaries = crash_at(&steps[..upto], cut, host_cut);
                crashes += 1;
                forward_cuts += usize::from(!host_cut && cut + 1 < boundaries);
                cut += 1;
                if cut == boundaries {
                    break;
                }
            }
        }
    }
    // The sweep is only worth its name if it actually cut unforced tails.
    assert!(crashes > steps.len() && forward_cuts >= 24, "{crashes} crashes, {forward_cuts} cuts");
}

#[test]
fn failover_to_a_standby_holding_only_the_claims_settles_each_by_the_host_row() {
    // File 0: an acknowledged update whose close record never shipped.
    // File 1: a write open still in flight. The promoted standby holds both
    // claims and nothing else; the host row tells them apart.
    let Rig { mut sys, .. } = rig(1);
    let set = sys.node(SRV).unwrap().replication.clone().unwrap();
    assert!(sys.wait_replicas_caught_up(SRV, std::time::Duration::from_secs(30)).unwrap());
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
    audit(&sys, &[2, 1, 1], "failover at a claim-only prefix");
}
