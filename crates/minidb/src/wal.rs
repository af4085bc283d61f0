//! Write-ahead log.
//!
//! Redo-only logical logging. Each record is framed as
//! `[len: u32][crc32: u32][payload]`; the LSN of a record is the byte offset
//! of its frame, and the LSN returned by a commit is also the paper's
//! *database state identifier* — §4.4 associates every archived file version
//! with "a database state identifier (for example tail LSN)".
//!
//! Record vocabulary:
//!
//! * `Ddl` — catalog change, applied immediately (DDL is auto-committed).
//! * `Commit` — a commit: the transaction's complete redo op list. Writing
//!   this record *is* the commit decision — for enlisted 2PC participants
//!   too, who read it back off the rows it carries. There is no
//!   participant-side record: a resource manager that joins a 2PC keeps
//!   its vote in rows of its own (DLFM's forced intent, DESIGN.md "Force
//!   audit").
//! * `Checkpoint` — marks that a snapshot with the given generation covers
//!   the log strictly before this record.
//!
//! Replay stops at the first corrupt or torn frame and truncates the tail,
//! the standard crash-consistency posture for a log.
//!
//! # Group commit
//!
//! `sync` is the expensive step of every commit, and with one log per
//! database every committer pays it. The WAL therefore runs a
//! *leader/follower group-commit pipeline* (configured by [`WalOptions`]):
//! committers encode their frame into a shared in-memory batch under a
//! short critical section; the first waiter whose frame is not yet durable
//! elects itself leader, writes the whole batch with one `write_at`,
//! issues one `sync`, and wakes the followers parked on a condvar. N
//! concurrent commits thus collapse into ~1 device sync, and no append
//! returns before its own frame is durable. With a single committer the
//! batch always holds exactly one frame, so the log bytes are identical to
//! the per-commit-sync mode — recovery cannot tell the modes apart.
//!
//! Up to `MAX_FLIGHTS` (two) flushes are in flight at once: the batch
//! that is syncing and the batch behind it. A forced appender whose frame
//! no flight covers, and that no flight still gathering its batch will
//! take, leads a second flush at once instead of waiting out the first
//! one's sync; a third parks and rides the next flush, so load still
//! collapses syncs. Two committers thus pay one device latency each, not
//! two. Three rules keep the log a prefix:
//!
//! * **Writes in log order.** A younger flush starts only once the older
//!   one's `write_at` has returned successfully; only the `sync`s overlap,
//!   so the device never holds a hole.
//! * **Retirement in log order.** The durable watermark, the ship signal
//!   and every waiter advance over a contiguous prefix of finished
//!   flushes: a younger flush whose sync returns first waits for the older.
//! * **A failure rewinds past everything younger.** Once no flush is still
//!   doing I/O, the log drops every non-durable forced frame — a younger
//!   flush's too, even if its own sync succeeded — carries the unforced
//!   ones over in append order (below), and trims the device back to the
//!   durable watermark before it writes again, so a shorter batch written
//!   over the failed bytes can leave no stale frame replayable behind it.
//!
//! # Unforced appends
//!
//! Not every record is worth a wait. [`Wal::append_unforced`] encodes the
//! frame into the current batch and returns at once; the next leader flush
//! — any later forced append, a checkpoint, or an explicit [`Wal::flush`]
//! — writes it in log order with everything batched around it. A crash can
//! therefore lose only a *suffix* of unforced records, never one out of
//! the middle, and a record may be appended unforced exactly when recovery
//! can re-derive it from what *is* forced (a DLFM branch's `Commit` from
//! its forced intent and the rows its coordinator committed; a flag clear
//! whose loss repeats idempotent work). Which records qualify is a property of the call site, not an
//! option: there is no knob, and the per-commit-sync mode forces every
//! append, unforced or not. A failed flush drops the forced frames it
//! caught (their appenders report the error) but carries the unforced
//! ones over to the head of the next batch — they have no waiter to tell,
//! and the in-memory state they describe has already moved.
//!
//! # Truncation (bounded logs)
//!
//! LSNs are *logical* byte offsets that never restart, but the log device
//! only has to hold the suffix `[base, end)`: everything below `base` is
//! covered by a durable snapshot ([`crate::snapshot`], a complete recovery
//! image since format v2). [`Wal::truncate_below`] advances `base` — the
//! checkpoint low-water mark — by copying the surviving suffix into the
//! *other* of two slot devices (`wal`/`wal.1`) and then flipping a tiny
//! CRC-framed control record (two ping-pong slots inside `wal.ctl`) that
//! names the active slot and its base. Every step lands in the inactive
//! slot first, so a crash at any point leaves either the old (untruncated)
//! or the new (truncated) state fully intact — never a half-shifted log.
//! Readers see the flip atomically through a shared device view.
//!
//! # Log shipping
//!
//! Replication tails the log through a [`WalReader`] ([`Wal::reader`]):
//! whenever successful flushes retire (or the per-commit path syncs) the
//! log publishes the new durable watermark on a shared signal, and a
//! reader can wait for growth and then read the raw frames below the
//! watermark straight from the device. The durable watermark always lands
//! on a frame boundary, so a shipped range is a whole number of frames —
//! what a follower (`Database::apply`) appends byte-identically. A reader
//! asking for frames below the truncation base gets
//! [`DbError::TruncatedLog`] — the signal for a shipper to fall back to
//! *checkpoint shipping* (install the latest snapshot, then tail the
//! suffix).
//!
//! # Following
//!
//! The receiving end's log is this same type, opened by the same
//! [`Wal::open_env`] (control record, torn-tail trim); a follower just
//! never originates a record. It needs two operations of its own and gets
//! no third device-write path for them: [`Wal::append_shipped`] writes
//! shipped frame bytes verbatim at the tail and syncs — the body of the
//! per-commit path — and [`Wal::reset_to`] is the truncation slot dance
//! keeping an empty suffix, for a log that a checkpoint image supersedes.
//! There is one implementation of the slot swap and the control record,
//! and it is private to this file.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use dl_obs::{Counter, Gauge, Histogram};
use parking_lot::{Condvar, Mutex, RwLock};

use crate::codec::{crc32, Dec, Enc};
use crate::daemon::Daemon;
use crate::device::{Device, StorageEnv};
use crate::error::{DbError, DbResult};
use crate::ops::RowOp;

/// Log sequence number: logical byte offset of a record frame in the log.
pub type Lsn = u64;

/// Transaction identifier.
pub type TxId = u64;

/// One log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Auto-committed catalog change.
    Ddl(RowOp),
    /// Commit decision with full redo information.
    Commit { txid: TxId, ops: Vec<RowOp> },
    /// Snapshot `generation` covers the log strictly before this record.
    Checkpoint { generation: u64 },
}

impl WalRecord {
    /// The record's payload, in one allocation of its exact size.
    fn encode(&self) -> Vec<u8> {
        let mut enc = Enc::with_capacity(self.encoded_len());
        match self {
            WalRecord::Ddl(op) => {
                enc.put_u8(0);
                op.encode(&mut enc);
            }
            WalRecord::Commit { txid, ops } => {
                enc.put_u8(1);
                enc.put_u64(*txid);
                RowOp::encode_list(ops, &mut enc);
            }
            WalRecord::Checkpoint { generation } => {
                enc.put_u8(4);
                enc.put_u64(*generation);
            }
        }
        debug_assert_eq!(enc.len(), self.encoded_len(), "{self:?}");
        enc.into_bytes()
    }

    /// Bytes [`WalRecord::encode`] writes.
    fn encoded_len(&self) -> usize {
        1 + match self {
            WalRecord::Ddl(op) => op.encoded_len(),
            WalRecord::Commit { ops, .. } => 8 + RowOp::list_encoded_len(ops),
            WalRecord::Checkpoint { .. } => 8,
        }
    }

    fn decode(payload: &[u8]) -> DbResult<WalRecord> {
        let mut dec = Dec::new(payload);
        let rec = match dec.get_u8()? {
            0 => WalRecord::Ddl(RowOp::decode(&mut dec)?),
            1 => WalRecord::Commit { txid: dec.get_u64()?, ops: RowOp::decode_list(&mut dec)? },
            4 => WalRecord::Checkpoint { generation: dec.get_u64()? },
            t => return Err(DbError::Corrupt(format!("unknown wal record tag {t}"))),
        };
        if !dec.is_done() {
            return Err(DbError::Corrupt("trailing bytes in wal record".into()));
        }
        Ok(rec)
    }
}

const FRAME_HEADER: usize = 8; // len + crc

// --- log control record (truncation metadata) ------------------------------

const CTL_MAGIC: u32 = 0x444C_5743; // "DLWC"
const CTL_SLOT_SIZE: u64 = 32;
const CTL_RECORD_SIZE: usize = 28; // magic + seq + base + slot + crc

/// Device name of wal slot `slot` (two slots ping-pong across truncations).
fn log_slot_name(slot: u32) -> &'static str {
    if slot == 0 {
        "wal"
    } else {
        "wal.1"
    }
}

/// Reads the newest valid log control record: `(seq, base, active slot)`.
/// A missing or fully-torn control device means "never truncated":
/// `(0, 0, slot 0)` — exactly the pre-truncation layout.
fn read_log_ctl(env: &StorageEnv) -> DbResult<(u64, Lsn, u32)> {
    let dev = env.device("wal.ctl")?;
    let mut bytes = [0u8; (CTL_SLOT_SIZE * 2) as usize];
    let got = dev.read_at(0, &mut bytes)?;
    let mut best: Option<(u64, Lsn, u32)> = None;
    for i in 0..2usize {
        let off = i * CTL_SLOT_SIZE as usize;
        if off + CTL_RECORD_SIZE > got {
            continue;
        }
        let rec = &bytes[off..off + CTL_RECORD_SIZE];
        let mut dec = Dec::new(rec);
        let Ok(magic) = dec.get_u32() else { continue };
        let Ok(seq) = dec.get_u64() else { continue };
        let Ok(base) = dec.get_u64() else { continue };
        let Ok(slot) = dec.get_u32() else { continue };
        let Ok(crc) = dec.get_u32() else { continue };
        if magic != CTL_MAGIC || slot > 1 || crc != crc32(&rec[..CTL_RECORD_SIZE - 4]) {
            continue;
        }
        if best.map(|(s, _, _)| seq > s).unwrap_or(true) {
            best = Some((seq, base, slot));
        }
    }
    Ok(best.unwrap_or((0, 0, 0)))
}

/// The shared crash-safe truncation commit: writes `suffix` (the log bytes
/// whose first byte is logical offset `new_base`) into the *inactive* slot
/// device, syncs it, then flips the control record. The flip is the commit
/// point — a crash before it leaves the old slot authoritative and
/// untouched, a crash after it the new one, never a half-shifted log.
/// Called from [`Wal::rebase`] only — truncation and the follower's reset
/// are the same dance with a full or an empty suffix. Returns the new
/// `(device, slot, ctl seq)`.
fn swap_log_slot(
    env: &StorageEnv,
    cur_slot: u32,
    cur_ctl_seq: u64,
    new_base: Lsn,
    suffix: &[u8],
) -> DbResult<(Arc<dyn Device>, u32, u64)> {
    let next_slot = 1 - cur_slot;
    let dst = env.device(log_slot_name(next_slot))?;
    dst.set_len(0)?;
    if !suffix.is_empty() {
        dst.write_at(0, suffix)?;
    }
    dst.sync()?;
    let seq = cur_ctl_seq + 1;
    write_log_ctl(env, seq, new_base, next_slot)?;
    Ok((dst, next_slot, seq))
}

/// Writes log control record `seq` (into the ctl slot `seq % 2`, so a torn
/// write can only damage the slot *not* holding the previous record) and
/// syncs it. After this returns, `(base, slot)` is the durable truth.
fn write_log_ctl(env: &StorageEnv, seq: u64, base: Lsn, slot: u32) -> DbResult<()> {
    let dev = env.device("wal.ctl")?;
    let mut enc = Enc::with_capacity(CTL_RECORD_SIZE);
    enc.put_u32(CTL_MAGIC);
    enc.put_u64(seq);
    enc.put_u64(base);
    enc.put_u32(slot);
    let mut bytes = enc.into_bytes();
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    dev.write_at((seq % 2) * CTL_SLOT_SIZE, &bytes)?;
    dev.sync()
}

/// Durability policy of the log (see the module docs on group commit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    /// Batch concurrent appends and sync once per batch (leader/follower).
    /// When off, every append performs its own `write_at` + `sync` under
    /// the log mutex — the classic per-commit-sync baseline.
    pub group_commit: bool,
    /// Maximum frames per batch; appenders beyond it wait for the current
    /// batch to flush (back-pressure, bounds batch memory).
    pub max_batch: usize,
    /// Optional window, in microseconds, the leader waits before flushing
    /// so more followers can join the batch. Zero (the default) flushes
    /// immediately; latency is only traded for throughput when asked.
    pub commit_delay_us: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions { group_commit: true, max_batch: 64, commit_delay_us: 0 }
    }
}

impl WalOptions {
    /// The per-commit-sync baseline (pre-group-commit behaviour).
    pub fn per_commit_sync() -> Self {
        WalOptions { group_commit: false, ..Default::default() }
    }

    /// Group-commit options tuned for an expected number of concurrent
    /// committers. The guidance the bare default (`commit_delay_us: 0`)
    /// lacks: with one committer a gather window only adds latency, and two
    /// committers overlap their syncs (two flushes in flight, see the
    /// module docs) instead of gathering, so the delay stays zero; from
    /// three committers up, a short window — ~20 µs per expected
    /// committer, capped at 200 µs so worst-case commit latency stays
    /// bounded — lets followers join the leader's batch and trades that
    /// latency for sync collapse. `max_batch` grows with the committer
    /// count so back-pressure never caps a full gather window.
    pub fn tuned_for(threads: usize) -> Self {
        let commit_delay_us = if threads <= 2 { 0 } else { ((threads as u64) * 20).min(200) };
        WalOptions { group_commit: true, max_batch: threads.max(64), commit_delay_us }
    }
}

/// Mutable log state, guarded by one short-critical-section mutex.
struct WalState {
    /// Next unassigned logical offset (`durable` + in-flight + batched).
    end: Lsn,
    /// Everything below this offset is written *and* synced.
    durable: Lsn,
    /// Encoded frames accepted but not yet handed to a leader; occupies
    /// `[batch_base, end)` of the log's address space.
    batch: Vec<u8>,
    batch_base: Lsn,
    batch_frames: usize,
    /// Byte ranges of the unforced frames inside `batch`
    /// ([`Wal::append_unforced`]): what a failed flush carries over to the
    /// next batch instead of dropping.
    batch_unforced: Vec<Range<usize>>,
    /// The flushes in flight, oldest first, at most [`MAX_FLIGHTS`]: they
    /// cover `[durable, batch_base)` between them. Truncation quiesces
    /// until it is empty.
    flights: VecDeque<Flight>,
    /// Start number of the next flight (a leader finds its own by it).
    next_flight: u64,
    /// A rewind could not trim the device back to the durable watermark;
    /// the next flush trims before it writes.
    trim_pending: bool,
    /// Recycled batch buffer (micro-fix: no fresh frame `Vec` per append).
    spare: Vec<u8>,
    /// Durable watermark captured at each failed flush, in order. A failed
    /// flush drops *every* non-durable frame (the failed batch, a younger
    /// flight's and anything batched meanwhile) and rewinds the log to the
    /// durable watermark; the log itself stays usable, so a transient
    /// device fault (ENOSPC) costs exactly the commits caught in it
    /// (unforced frames are re-enqueued rather than dropped — nobody waits
    /// on them). A waiter that
    /// enqueued when this had length `e` decides its fate exactly: if a
    /// failure `failures[e]` exists, its frame survived iff it was durable
    /// before that first post-enqueue failure (`my_lsn <= failures[e]`) —
    /// an LSN-only check would misread reused log address space. Grows 8
    /// bytes per failed flush; device faults are rare enough not to bound
    /// it.
    failures: Vec<Lsn>,
    /// Message of the most recent failed flush (error-text context for
    /// waiters whose frame the failure dropped).
    last_failure: Option<String>,
    /// Active wal slot (flips on truncation).
    slot: u32,
    /// Sequence of the newest durable control record.
    ctl_seq: u64,
}

/// Flushes a log keeps in flight at once: the batch that is syncing and
/// the batch behind it. A third committer parks and rides the next flush,
/// which keeps sync collapse under load.
const MAX_FLIGHTS: usize = 2;

/// One flush in flight. Its leader pushes it on starting and sets `to`
/// when it takes the batch — until then it is *gathering*, joined by later
/// appenders, never overtaken. Flights retire oldest first.
struct Flight {
    seq: u64,
    /// End of the batch it took; `None` while gathering.
    to: Option<Lsn>,
    /// The device I/O is over: its duration, or its error.
    done: Option<DbResult<Duration>>,
    /// The batch bytes (handed back when the I/O is over) and its unforced
    /// frames: what retirement recycles and a rewind carries over.
    buf: Vec<u8>,
    unforced: Vec<Range<usize>>,
    frames: u64,
}

impl Flight {
    fn taken(&self) -> bool {
        self.to.is_some()
    }
}

/// Shared durable-watermark signal between the log and its readers: the
/// flush paths publish the new watermark here after every successful sync,
/// kicking the shippers registered by [`WalReader::kick_on_durable`].
struct ShipSignal {
    durable: AtomicU64,
    shippers: Mutex<Vec<Weak<Daemon>>>,
}

impl ShipSignal {
    fn publish(&self, durable: Lsn) {
        if self.durable.fetch_max(durable, Ordering::SeqCst) < durable {
            self.shippers.lock().retain(|shipper| shipper.upgrade().map(|d| d.kick()).is_some());
        }
    }
}

/// The truncation-aware device view shared by the log and its readers:
/// which slot device currently holds the bytes and the LSN of its first
/// byte. Truncation swaps both atomically under the write lock.
struct LogView {
    dev: Arc<dyn Device>,
    base: Lsn,
}

/// A contiguous run of whole frames read from the log: the ship unit of the
/// replication pipeline. `bytes` are the raw device bytes of
/// `[base, end)` — a standby appends them verbatim so its log stays
/// byte-identical to the primary's — and `records` are the same frames
/// decoded for table apply.
#[derive(Debug, Clone)]
pub struct ShippedFrames {
    /// Logical offset of the first frame.
    pub base: Lsn,
    /// One past the last byte (the standby's next expected base).
    pub end: Lsn,
    /// Raw frame bytes of `[base, end)`.
    pub bytes: Vec<u8>,
    /// Decoded records with their LSNs.
    pub records: Vec<(Lsn, WalRecord)>,
}

impl ShippedFrames {
    fn empty(at: Lsn) -> ShippedFrames {
        ShippedFrames { base: at, end: at, bytes: Vec::new(), records: Vec::new() }
    }

    /// True when the range carries no frames.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Tail-reading handle over a live log (replication shipping). Obtained
/// from [`Wal::reader`] / `Database::wal_reader`; reads only bytes below
/// the durable watermark, so a shipped frame is always synced on the
/// primary before any standby sees it (no standby can run ahead of the
/// primary's own durability).
#[derive(Clone)]
pub struct WalReader {
    view: Arc<RwLock<LogView>>,
    signal: Arc<ShipSignal>,
}

impl WalReader {
    /// The current durable watermark.
    pub fn durable_lsn(&self) -> Lsn {
        self.signal.durable.load(Ordering::SeqCst)
    }

    /// The truncation low-water mark: frames below it are gone from the
    /// log and only reachable through a checkpoint image.
    pub fn base_lsn(&self) -> Lsn {
        self.view.read().base
    }

    /// Kicks `shipper` each time the durable watermark grows, for as long
    /// as it lives.
    pub fn kick_on_durable(&self, shipper: &Arc<Daemon>) {
        self.signal.shippers.lock().push(Arc::downgrade(shipper));
    }

    /// Reads all whole frames in `[from, durable)`. The watermark only ever
    /// lands on frame boundaries, so the parsed prefix covers the full
    /// range; a shorter parse means the device bytes are corrupt. Asking
    /// for frames below the truncation base returns
    /// [`DbError::TruncatedLog`] — the shipper's cue to install a
    /// checkpoint instead.
    pub fn read_from(&self, from: Lsn) -> DbResult<ShippedFrames> {
        // Hold the view read lock across the device read: truncation takes
        // it exclusively, so the slot device cannot be swapped from under
        // a half-finished read.
        let view = self.view.read();
        if from < view.base {
            return Err(DbError::TruncatedLog { base: view.base });
        }
        let durable = self.durable_lsn();
        if from >= durable {
            return Ok(ShippedFrames::empty(from));
        }
        let len = (durable - from) as usize;
        let mut bytes = vec![0u8; len];
        let got = view.dev.read_at(from - view.base, &mut bytes)?;
        if got < len {
            return Err(DbError::Corrupt(format!(
                "wal reader: short read at {from} ({got} of {len} durable bytes)"
            )));
        }
        let parsed = parse_frames(&bytes, from);
        let end = parsed.last().map(|(lsn, _, flen)| lsn + flen).unwrap_or(from);
        if end != durable {
            return Err(DbError::Corrupt(format!(
                "wal reader: durable watermark {durable} not on a frame boundary (parsed to {end})"
            )));
        }
        Ok(ShippedFrames {
            base: from,
            end,
            bytes,
            records: parsed.into_iter().map(|(lsn, rec, _)| (lsn, rec)).collect(),
        })
    }
}

/// Append handle over the log device. Appends are serialized internally;
/// under group commit concurrent appends share one `write_at` + `sync`.
pub struct Wal {
    /// Storage environment, needed to reach the other wal slot and the
    /// control device; `None` for bare-device logs (no truncation).
    env: Option<StorageEnv>,
    view: Arc<RwLock<LogView>>,
    opts: WalOptions,
    state: Mutex<WalState>,
    /// Signalled when flights retire or a failure rewinds the log.
    flushed: Condvar,
    /// Flights, by start number, whose `write_at` has returned successfully
    /// (flight `seq` stores `seq + 1`). A younger flight starts only once
    /// every older one is counted here, so device writes stay in log order
    /// and only syncs overlap. Written outside the state lock, between a
    /// leader's write and its sync.
    flights_written: AtomicU64,
    ship: Arc<ShipSignal>,
    telemetry: WalTelemetry,
}

/// Telemetry handles for one log: shared `Arc`s so the assembled system can
/// adopt them into a metric registry while the log keeps recording.
#[derive(Clone)]
pub struct WalTelemetry {
    /// Latency of each durable flush (the `write_at` + `sync` pair), in
    /// nanoseconds — one observation per device sync, both commit modes.
    pub fsync_ns: Arc<Histogram>,
    /// Frames made durable per flush: the group-commit batch-size
    /// distribution (always 1 in per-commit-sync mode).
    pub batch_frames: Arc<Histogram>,
    /// Records appended without waiting for their flush
    /// ([`Wal::append_unforced`]; always 0 in per-commit-sync mode).
    pub unforced_appends: Arc<Counter>,
    /// Log bytes accepted but not yet durable (`tail − durable`). Forced
    /// frames sit here for the length of one flush; a value that *stays*
    /// above zero is an unforced tail waiting for the next flush.
    pub unflushed_bytes: Arc<Gauge>,
    /// Flushes that took their batch while an older flush was still in
    /// flight, so their syncs overlapped (always 0 in per-commit-sync mode).
    pub overlapped_flushes: Arc<Counter>,
}

impl WalTelemetry {
    fn new() -> WalTelemetry {
        WalTelemetry {
            fsync_ns: Arc::new(Histogram::new()),
            batch_frames: Arc::new(Histogram::new()),
            unforced_appends: Arc::new(Counter::new()),
            unflushed_bytes: Arc::new(Gauge::new()),
            overlapped_flushes: Arc::new(Counter::new()),
        }
    }
}

impl Wal {
    /// Opens the log over a bare device with default options, scanning to
    /// find the end of the valid prefix and truncating any torn tail.
    /// Bare-device logs always have base 0 and cannot be truncated; a
    /// database opens through [`Wal::open_env`] instead.
    pub fn open(dev: Arc<dyn Device>) -> DbResult<(Wal, Vec<(Lsn, WalRecord)>)> {
        Self::open_with(dev, WalOptions::default())
    }

    /// Opens a bare-device log with explicit durability options.
    pub fn open_with(
        dev: Arc<dyn Device>,
        opts: WalOptions,
    ) -> DbResult<(Wal, Vec<(Lsn, WalRecord)>)> {
        Self::open_parts(None, dev, 0, 0, 0, opts)
    }

    /// Opens the log inside a storage environment, honouring the truncation
    /// control record: the active slot device and the logical base come
    /// from `wal.ctl` (absent means "never truncated": slot `wal`, base 0).
    pub fn open_env(env: &StorageEnv, opts: WalOptions) -> DbResult<(Wal, Vec<(Lsn, WalRecord)>)> {
        let (ctl_seq, base, slot) = read_log_ctl(env)?;
        let dev = env.device(log_slot_name(slot))?;
        Self::open_parts(Some(env.clone()), dev, base, slot, ctl_seq, opts)
    }

    fn open_parts(
        env: Option<StorageEnv>,
        dev: Arc<dyn Device>,
        base: Lsn,
        slot: u32,
        ctl_seq: u64,
        opts: WalOptions,
    ) -> DbResult<(Wal, Vec<(Lsn, WalRecord)>)> {
        let records = read_all(&dev, base)?;
        let mut valid_end: Lsn = base;
        let mut out = Vec::with_capacity(records.len());
        for (lsn, rec, frame_len) in records {
            valid_end = lsn + frame_len;
            out.push((lsn, rec));
        }
        dev.set_len(valid_end - base)?;
        Ok((
            Wal {
                env,
                view: Arc::new(RwLock::new(LogView { dev, base })),
                opts,
                state: Mutex::new(WalState {
                    end: valid_end,
                    durable: valid_end,
                    batch: Vec::new(),
                    batch_base: valid_end,
                    batch_frames: 0,
                    batch_unforced: Vec::new(),
                    flights: VecDeque::with_capacity(MAX_FLIGHTS),
                    next_flight: 0,
                    trim_pending: false,
                    spare: Vec::new(),
                    failures: Vec::new(),
                    last_failure: None,
                    slot,
                    ctl_seq,
                }),
                flushed: Condvar::new(),
                flights_written: AtomicU64::new(0),
                ship: Arc::new(ShipSignal {
                    durable: AtomicU64::new(valid_end),
                    shippers: Mutex::default(),
                }),
                telemetry: WalTelemetry::new(),
            },
            out,
        ))
    }

    /// Telemetry handles for this log (see [`WalTelemetry`]).
    pub fn telemetry(&self) -> &WalTelemetry {
        &self.telemetry
    }

    /// A tail-reading handle for replication shipping (see [`WalReader`]).
    pub fn reader(&self) -> WalReader {
        WalReader { view: Arc::clone(&self.view), signal: Arc::clone(&self.ship) }
    }

    /// Appends a record and returns only once it is durably synced. The
    /// returned LSN is the log tail *after* the record — the paper's "tail
    /// LSN" database state identifier: a state covers every record strictly
    /// below it.
    pub fn append(&self, rec: &WalRecord) -> DbResult<Lsn> {
        let payload = rec.encode();
        if self.opts.group_commit {
            self.append_grouped(&payload)
        } else {
            self.append_per_commit(&payload)
        }
    }

    /// Baseline path: one `write_at` + `sync` per record, serialized under
    /// the log mutex (held across the I/O, exactly the pre-batching
    /// behaviour). Reuses the spare buffer instead of allocating a frame.
    fn append_per_commit(&self, payload: &[u8]) -> DbResult<Lsn> {
        let mut state = self.state.lock();
        let mut frame = std::mem::take(&mut state.spare);
        frame.clear();
        encode_frame(&mut frame, payload);
        let result = self.write_through(&mut state, &frame);
        state.spare = frame;
        result?;
        self.telemetry.batch_frames.record(1);
        Ok(state.end)
    }

    /// Writes whole frames at the tail and syncs them, all under the log
    /// mutex: on success tail and durable watermark both sit after `frames`
    /// and readers are told. The body of the per-commit path, and of the
    /// follower's verbatim append.
    fn write_through(&self, state: &mut WalState, frames: &[u8]) -> DbResult<()> {
        let (dev, base) = {
            let view = self.view.read();
            (Arc::clone(&view.dev), view.base)
        };
        let flush_start = Instant::now();
        dev.write_at(state.end - base, frames)?;
        dev.sync()?;
        self.telemetry.fsync_ns.record_duration(flush_start.elapsed());
        state.end += frames.len() as u64;
        state.durable = state.end;
        state.batch_base = state.end;
        self.ship.publish(state.end);
        Ok(())
    }

    /// Follower append: writes `frames` — whole frames another log already
    /// framed and synced, shipped as [`ShippedFrames::bytes`] — verbatim at
    /// the tail, which must be `at`, and syncs them. The bytes keep their
    /// LSNs, so a follower's log stays byte-identical to its primary's over
    /// the range both retain. A follower's log has no other appender.
    pub fn append_shipped(&self, at: Lsn, frames: &[u8]) -> DbResult<()> {
        let mut state = self.state.lock();
        if at != state.end || state.durable != state.end {
            return Err(DbError::InvalidTxnState(format!(
                "shipped frames for lsn {at} do not continue a log durable to {} with tail {}",
                state.durable, state.end
            )));
        }
        self.write_through(&mut state, frames)
    }

    /// Appends a record **without waiting for it to become durable**: the
    /// frame joins the current group-commit batch and the call returns its
    /// LSN (the log tail after the record) at once. The next leader flush
    /// — a later forced [`Wal::append`], a checkpoint, [`Wal::flush`] —
    /// makes it durable, in log order. Only for records recovery can
    /// re-derive (see the module docs); the returned LSN names a log
    /// position, not synced bytes. In per-commit-sync mode this *is*
    /// [`Wal::append`].
    pub fn append_unforced(&self, rec: &WalRecord) -> DbResult<Lsn> {
        if !self.opts.group_commit {
            return self.append(rec);
        }
        let payload = rec.encode();
        let mut state = self.state.lock();
        // A flush this appender had to lead and that failed re-enqueued
        // the unforced frames it caught; the record is then admitted over
        // the batch bound rather than lost (its effects are already live).
        let _ = self.make_room(&mut state);
        let at = state.batch.len();
        let lsn = self.enqueue(&mut state, &payload);
        let frame = at..state.batch.len();
        state.batch_unforced.push(frame);
        self.telemetry.unforced_appends.inc();
        Ok(lsn)
    }

    /// Makes everything appended so far durable: leads a flush (or waits
    /// out the one in flight) until the durable watermark covers the tail
    /// as of the call; a no-op when nothing is pending. What bounds the
    /// staleness of an unforced tail when no forced append follows it.
    pub fn flush(&self) -> DbResult<()> {
        let mut state = self.state.lock();
        let target = state.end;
        let epoch = state.failures.len();
        while state.durable < target {
            if state.failures.len() > epoch {
                // A flush failed meanwhile and rewound the log: `target`
                // no longer names anything. The unforced frames are back
                // in the batch; the caller may simply flush again.
                let e = state.last_failure.clone().unwrap_or_default();
                return Err(DbError::Io(format!("wal flush failed: {e}")));
            }
            self.follow_or_lead(&mut state, target)?;
        }
        Ok(())
    }

    /// One step towards durability of the log below `target`: lead a new
    /// flush when `target` lies in the pending batch and the log has room
    /// for another flight — fewer than [`MAX_FLIGHTS`], each of them past
    /// its `write_at` (so none is still gathering: that one will take the
    /// batch) — else park until a flight retires.
    fn follow_or_lead(
        &self,
        state: &mut parking_lot::MutexGuard<'_, WalState>,
        target: Lsn,
    ) -> DbResult<()> {
        let written = self.flights_written.load(Ordering::Acquire);
        let room = state.flights.len() < MAX_FLIGHTS
            && state.flights.back().is_none_or(|f| f.seq < written);
        if target > state.batch_base && room {
            self.lead_flush(state)
        } else {
            self.flushed.wait(state);
            Ok(())
        }
    }

    /// Back-pressure: a full batch must flush before growing further. A
    /// flight in progress will wake us; with room for another, the batch
    /// may hold frames nobody is waiting on (unforced ones), so this
    /// appender leads the flush itself instead of parking on a condvar
    /// nobody may signal.
    fn make_room(&self, state: &mut parking_lot::MutexGuard<'_, WalState>) -> DbResult<()> {
        while state.batch_frames >= self.opts.max_batch.max(1) {
            let end = state.end;
            self.follow_or_lead(state, end)?;
        }
        Ok(())
    }

    /// Encodes one frame into the batch; returns the log tail after it.
    fn enqueue(&self, state: &mut WalState, payload: &[u8]) -> Lsn {
        encode_frame(&mut state.batch, payload);
        state.batch_frames += 1;
        state.end += (FRAME_HEADER + payload.len()) as u64;
        self.telemetry.unflushed_bytes.set((state.end - state.durable) as i64);
        state.end
    }

    /// Group-commit path: enqueue the frame, then either follow (park on
    /// the condvar until a leader makes it durable) or lead (flush the
    /// whole batch with one write + one sync).
    fn append_grouped(&self, payload: &[u8]) -> DbResult<Lsn> {
        let mut state = self.state.lock();
        self.make_room(&mut state)?;
        // The failure epoch our frame enqueues under: a failed flush drops
        // every non-durable forced frame and rewinds the log, so after a
        // failure our LSN may be reassigned to a *different* frame. The
        // failure log decides our fate exactly (see `WalState::failures`).
        let epoch = state.failures.len();
        let my_lsn = self.enqueue(&mut state, payload);

        loop {
            if let Some(&durable_at_failure) = state.failures.get(epoch) {
                // A flush failed after we enqueued. It dropped every forced
                // frame not yet durable, so ours survived iff it was durable
                // before that first post-enqueue failure. (`state.durable`
                // alone cannot tell: our log address space may since have
                // been reassigned to a later frame and flushed.)
                if my_lsn <= durable_at_failure {
                    return Ok(my_lsn);
                }
                let e = state.last_failure.clone().unwrap_or_default();
                return Err(DbError::Io(format!("wal flush failed; commit dropped: {e}")));
            }
            if state.durable >= my_lsn {
                return Ok(my_lsn);
            }
            // Follow: a flight covers our frame, or will take it, and wakes
            // us when it retires. Or lead.
            self.follow_or_lead(&mut state, my_lsn)?;
        }
    }

    /// Leader duty: start a flight, take the pending batch, write it with
    /// one `write_at`, sync once, then retire what has finished and wait
    /// for this flight to retire too. The state lock is dropped around the
    /// device I/O (and the optional commit-delay nap) so appenders keep
    /// filling the next batch — and one of them may lead the next flight —
    /// meanwhile.
    /// Truncation cannot swap the slot device mid-flush: it waits for the
    /// flight record to empty. Fails iff a failure rewound this flight.
    fn lead_flush(&self, state: &mut parking_lot::MutexGuard<'_, WalState>) -> DbResult<()> {
        let seq = state.next_flight;
        state.next_flight += 1;
        state.flights.push_back(Flight {
            seq,
            to: None,
            done: None,
            buf: Vec::new(),
            unforced: Vec::new(),
            frames: 0,
        });
        if self.opts.commit_delay_us > 0 {
            // Gather window: let more committers join this batch.
            parking_lot::MutexGuard::unlocked(state, || {
                std::thread::sleep(std::time::Duration::from_micros(self.opts.commit_delay_us));
            });
        }
        let next = std::mem::take(&mut state.spare);
        let buf = std::mem::replace(&mut state.batch, next);
        let unforced = std::mem::take(&mut state.batch_unforced);
        let frames = std::mem::take(&mut state.batch_frames) as u64;
        let lsn_base = state.batch_base;
        let flush_to = state.end;
        state.batch_base = flush_to;
        let epoch = state.failures.len();
        let trim = std::mem::take(&mut state.trim_pending);
        let flight = flight_mut(state, seq);
        flight.to = Some(flush_to);
        flight.unforced = unforced;
        flight.frames = frames;
        if state.flights.len() > 1 {
            self.telemetry.overlapped_flushes.inc();
        }

        let (dev, base) = {
            let view = self.view.read();
            (Arc::clone(&view.dev), view.base)
        };
        let flush_start = Instant::now();
        let io = parking_lot::MutexGuard::unlocked(state, || {
            if trim {
                dev.set_len(lsn_base - base)?;
            }
            dev.write_at(lsn_base - base, &buf)?;
            // From here a younger flight may start and write behind ours.
            // Release pairs with the Acquire in `follow_or_lead`: the
            // younger's `write_at` follows ours.
            self.flights_written.store(seq + 1, Ordering::Release);
            dev.sync()
        });
        let flight = flight_mut(state, seq);
        flight.buf = buf;
        flight.done = Some(io.clone().map(|()| flush_start.elapsed()));
        self.retire(state);
        while state.flights.iter().any(|f| f.seq == seq) {
            self.flushed.wait(state);
        }
        match state.failures.get(epoch) {
            Some(&durable_at_failure) if flush_to > durable_at_failure => {
                Err(io.err().unwrap_or_else(|| {
                    let e = state.last_failure.clone().unwrap_or_default();
                    DbError::Io(format!("wal flush failed: {e}"))
                }))
            }
            _ => Ok(()),
        }
    }

    /// Retires finished flights oldest first. A successful one moves the
    /// durable watermark over its batch, so `durable`, the ship signal and
    /// every waiter advance over a contiguous prefix only. A failed one
    /// rewinds the log once no younger flight is still doing I/O.
    fn retire(&self, state: &mut WalState) {
        let mut retired = false;
        while let Some(head) = state.flights.front() {
            match head.done {
                Some(Ok(elapsed)) => {
                    let Some(Flight { to: Some(to), mut buf, frames, .. }) =
                        state.flights.pop_front()
                    else {
                        unreachable!("a finished flight took its batch")
                    };
                    self.telemetry.fsync_ns.record_duration(elapsed);
                    self.telemetry.batch_frames.record(frames);
                    state.durable = to;
                    buf.clear();
                    if buf.capacity() > state.spare.capacity() {
                        state.spare = buf;
                    }
                    retired = true;
                }
                Some(Err(_)) if state.flights.iter().all(|f| f.done.is_some() || !f.taken()) => {
                    self.rewind(state);
                    retired = true;
                    break;
                }
                _ => break,
            }
        }
        if retired {
            self.telemetry.unflushed_bytes.set((state.end - state.durable) as i64);
            self.flushed.notify_all();
            self.ship.publish(state.durable);
        }
    }

    /// Transient failure: rewind to the durable watermark. Every
    /// non-durable *forced* frame is dropped — the failed batch, every
    /// younger flight's and anything batched meanwhile (later frames'
    /// device offsets assume the failed range was written); their waiters
    /// read the failure log and report the commit as dropped. *Unforced*
    /// frames have no waiter and describe state that is already live in
    /// memory, so they are carried over, in log order, to the head of the
    /// next batch. The device is trimmed back to the durable watermark, so
    /// the failed bytes cannot replay behind a shorter batch written over
    /// them. The log stays usable. Called with every taken flight done.
    fn rewind(&self, state: &mut WalState) {
        let durable = state.durable;
        let failure = state.flights.front().and_then(|f| f.done.clone()?.err());
        state.failures.push(durable);
        state.last_failure = failure.map(|e| e.to_string());
        let gathering = state.flights.pop_back_if(|f| !f.taken());
        let dropped: Vec<Flight> = state.flights.drain(..).collect();
        let late = std::mem::take(&mut state.batch);
        let late_unforced = std::mem::take(&mut state.batch_unforced);
        let carried = dropped.iter().map(|f| (&f.buf, &f.unforced));
        for (frames, ranges) in carried.chain([(&late, &late_unforced)]) {
            for range in ranges {
                let at = state.batch.len();
                state.batch.extend_from_slice(&frames[range.clone()]);
                let kept = at..state.batch.len();
                state.batch_unforced.push(kept);
            }
        }
        state.batch_frames = state.batch_unforced.len();
        state.batch_base = durable;
        state.end = durable + state.batch.len() as u64;
        let view = self.view.read();
        state.trim_pending = view.dev.set_len(durable - view.base).is_err();
        state.flights.extend(gathering);
    }

    /// The log tail: one past the last accepted record. Records at or above
    /// [`Wal::durable_lsn`] are in flight or — appended unforced — waiting
    /// for the next flush. An LSN returned by [`Wal::append`] refers to
    /// synced bytes; one returned by [`Wal::append_unforced`], like the
    /// tail itself, only names a log position.
    pub fn tail_lsn(&self) -> Lsn {
        self.state.lock().end
    }

    /// One past the last *synced* byte.
    pub fn durable_lsn(&self) -> Lsn {
        self.state.lock().durable
    }

    /// The truncation low-water mark (0 until the first truncation).
    pub fn base_lsn(&self) -> Lsn {
        self.view.read().base
    }

    /// Bytes the log currently retains (`tail − base`): what a checkpoint
    /// policy compares against its budget.
    pub fn retained_bytes(&self) -> u64 {
        let end = self.state.lock().end;
        end.saturating_sub(self.view.read().base)
    }

    /// Truncates the log below `new_base` (clamped to the durable
    /// watermark): everything `< new_base` must already be covered by a
    /// durable snapshot. Quiesces the group-commit pipeline, copies the
    /// surviving suffix into the inactive slot device, then flips the
    /// control record — the crash-safe slot dance described in the module
    /// docs. Returns the new base (unchanged if `new_base` was not an
    /// advance). Bare-device logs ([`Wal::open`]) cannot truncate.
    pub fn truncate_below(&self, new_base: Lsn) -> DbResult<Lsn> {
        self.rebase(new_base, false)
    }

    /// Follower reset: the log becomes empty at `new_base`, a position past
    /// its tail — what installing a checkpoint image does to the log the
    /// image supersedes (the frames in between are never coming). The same
    /// slot dance as a truncation that keeps no suffix; the caller has made
    /// the image durable first, and the next open finishes a reset a crash
    /// interrupted (`SnapshotData::recover`).
    pub fn reset_to(&self, new_base: Lsn) -> DbResult<()> {
        self.rebase(new_base, true).map(drop)
    }

    /// Moves the log's base up to `new_base`, keeping the suffix at or
    /// above it. Past the tail only for a `reset` (the kept suffix is then
    /// empty and the tail jumps to the new base); a truncation clamps to
    /// the durable watermark.
    fn rebase(&self, new_base: Lsn, reset: bool) -> DbResult<Lsn> {
        let Some(env) = &self.env else {
            return Err(DbError::Io("wal has no storage environment; cannot truncate".into()));
        };
        let mut state = self.state.lock();
        // Quiesce: no flight in progress, no batched frames waiting.
        // Waiting on the flush condvar releases the state lock, so flights
        // finish and wake us; batched frames with no flight to take them
        // are unforced ones nobody else will flush.
        while !state.flights.is_empty() || state.batch_frames > 0 {
            let end = state.end;
            self.follow_or_lead(&mut state, end)?;
        }
        let mut view = self.view.write();
        let new_base = if reset { new_base } else { new_base.min(state.durable) };
        if new_base <= view.base {
            return Ok(view.base);
        }
        // Copy the surviving suffix [new_base, end) into the other slot.
        let len = state.end.saturating_sub(new_base) as usize;
        let mut suffix = vec![0u8; len];
        if len > 0 {
            let got = view.dev.read_at(new_base - view.base, &mut suffix)?;
            if got < len {
                return Err(DbError::Corrupt(format!(
                    "wal truncate: short read of suffix at {new_base} ({got} of {len} bytes)"
                )));
            }
        }
        let (dst, slot, seq) = swap_log_slot(env, state.slot, state.ctl_seq, new_base, &suffix)?;
        state.ctl_seq = seq;
        state.slot = slot;
        view.dev = dst;
        view.base = new_base;
        if new_base > state.end {
            state.end = new_base;
            state.durable = new_base;
            state.batch_base = new_base;
            self.ship.publish(new_base);
        }
        Ok(new_base)
    }
}

/// The flight started as number `seq`; it stays in the record until it
/// retires, and only its own leader asks.
fn flight_mut(state: &mut WalState, seq: u64) -> &mut Flight {
    state.flights.iter_mut().find(|f| f.seq == seq).expect("a flight retires after its I/O")
}

/// Appends `[len][crc][payload]` to `buf`.
fn encode_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.reserve(FRAME_HEADER + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Parses the valid frame prefix of `bytes`, whose first byte sits at log
/// offset `base`. Stops quietly at the first torn/corrupt frame — callers
/// that require the whole range (log shipping) check the parsed end.
fn parse_frames(bytes: &[u8], base: Lsn) -> Vec<(Lsn, WalRecord, u64)> {
    let mut out = Vec::new();
    let mut pos: usize = 0;
    while pos + FRAME_HEADER <= bytes.len() {
        let header = &bytes[pos..pos + FRAME_HEADER];
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        let frame_end = pos + FRAME_HEADER + len;
        if frame_end > bytes.len() {
            break; // torn write
        }
        let payload = &bytes[pos + FRAME_HEADER..frame_end];
        if crc32(payload) != crc {
            break; // corrupt tail
        }
        match WalRecord::decode(payload) {
            Ok(rec) => out.push((base + pos as u64, rec, (FRAME_HEADER + len) as u64)),
            Err(_) => break,
        }
        pos = frame_end;
    }
    out
}

/// Reads every valid record with its LSN and frame length; the device's
/// first byte sits at logical offset `base`. Stops quietly at the first
/// torn/corrupt frame.
fn read_all(dev: &Arc<dyn Device>, base: Lsn) -> DbResult<Vec<(Lsn, WalRecord, u64)>> {
    let total = dev.len()?;
    let mut bytes = vec![0u8; total as usize];
    let got = dev.read_at(0, &mut bytes)?;
    bytes.truncate(got);
    Ok(parse_frames(&bytes, base))
}

/// Reads records up to (but excluding) the state `stop_at`: a state
/// identifier is a log tail, so it covers records whose frames lie strictly
/// below it. The device's first byte sits at logical offset `base`.
pub fn read_until(
    dev: &Arc<dyn Device>,
    base: Lsn,
    stop_at: Option<Lsn>,
) -> DbResult<Vec<(Lsn, WalRecord)>> {
    let mut out = Vec::new();
    for (lsn, rec, _) in read_all(dev, base)? {
        if let Some(limit) = stop_at {
            if lsn >= limit {
                break;
            }
        }
        out.push((lsn, rec));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{Daemon, Next, OnStop};
    use crate::device::MemDevice;
    use crate::value::Value;

    fn dev() -> Arc<dyn Device> {
        Arc::new(MemDevice::new())
    }

    fn insert_op(i: i64) -> RowOp {
        RowOp::Insert { table: "t".into(), row: [Value::Int(i)].into() }
    }

    /// The smallest record: a commit with nothing to redo.
    fn empty(txid: u64) -> WalRecord {
        WalRecord::Commit { txid, ops: Vec::new() }
    }

    #[test]
    fn append_and_replay() {
        let d = dev();
        {
            let (wal, recs) = Wal::open(Arc::clone(&d)).unwrap();
            assert!(recs.is_empty());
            wal.append(&WalRecord::Commit { txid: 1, ops: vec![insert_op(1)] }).unwrap();
            wal.append(&empty(2)).unwrap();
        }
        let (_, recs) = Wal::open(d).unwrap();
        assert_eq!(recs.len(), 2);
        assert!(matches!(recs[0].1, WalRecord::Commit { txid: 1, .. }));
        assert!(matches!(recs[1].1, WalRecord::Commit { txid: 2, .. }));
    }

    #[test]
    fn append_returns_advancing_state_ids() {
        let d = dev();
        let (wal, _) = Wal::open(Arc::clone(&d)).unwrap();
        let a = wal.append(&WalRecord::Checkpoint { generation: 1 }).unwrap();
        let b = wal.append(&WalRecord::Checkpoint { generation: 2 }).unwrap();
        assert!(a > 0, "state id covers the first record");
        assert!(b > a);
        assert_eq!(wal.tail_lsn(), b, "append returns the new tail");
    }

    #[test]
    fn torn_tail_is_truncated() {
        let d = dev();
        let (wal, _) = Wal::open(Arc::clone(&d)).unwrap();
        wal.append(&WalRecord::Commit { txid: 1, ops: vec![insert_op(1)] }).unwrap();
        let good_end = wal.tail_lsn();
        // Simulate a torn write: a header promising more bytes than exist.
        d.write_at(good_end, &[200, 0, 0, 0, 1, 2, 3, 4, 9, 9]).unwrap();

        let (wal2, recs) = Wal::open(Arc::clone(&d)).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].0, 0, "record frames start at offset zero");
        assert_eq!(wal2.tail_lsn(), good_end, "torn frame must be truncated");
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let d = dev();
        let (wal, _) = Wal::open(Arc::clone(&d)).unwrap();
        let first_end = wal.append(&empty(1)).unwrap();
        wal.append(&empty(2)).unwrap();
        // Flip a payload byte of the second record (which starts at the
        // first record's end).
        let mut b = [0u8; 1];
        d.read_at(first_end + FRAME_HEADER as u64, &mut b).unwrap();
        d.write_at(first_end + FRAME_HEADER as u64, &[b[0] ^ 0xFF]).unwrap();

        let (_, recs) = Wal::open(d).unwrap();
        assert_eq!(recs.len(), 1, "corrupt record and everything after is dropped");
    }

    #[test]
    fn read_until_respects_state_semantics() {
        let d = dev();
        let (wal, _) = Wal::open(Arc::clone(&d)).unwrap();
        let a = wal.append(&empty(1)).unwrap();
        let b = wal.append(&empty(2)).unwrap();
        wal.append(&empty(3)).unwrap();

        // A state id covers exactly the records logged before it.
        assert_eq!(read_until(&d, 0, Some(a)).unwrap().len(), 1);
        assert_eq!(read_until(&d, 0, Some(b)).unwrap().len(), 2);
        assert_eq!(read_until(&d, 0, None).unwrap().len(), 3);
        assert_eq!(read_until(&d, 0, Some(0)).unwrap().len(), 0);
    }

    #[test]
    fn per_commit_and_group_commit_write_identical_bytes() {
        // Single-threaded, the two modes must be byte-for-byte identical:
        // recovery cannot tell them apart (the equivalence the group-commit
        // pipeline promises).
        let records: Vec<WalRecord> = (0..20)
            .map(|i| WalRecord::Commit { txid: i, ops: vec![insert_op(i as i64)] })
            .collect();
        let d_per = Arc::new(MemDevice::new());
        let d_grp = Arc::new(MemDevice::new());
        {
            let (wal, _) = Wal::open_with(
                Arc::clone(&d_per) as Arc<dyn Device>,
                WalOptions::per_commit_sync(),
            )
            .unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
        }
        {
            let (wal, _) =
                Wal::open_with(Arc::clone(&d_grp) as Arc<dyn Device>, WalOptions::default())
                    .unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
        }
        assert_eq!(d_per.snapshot(), d_grp.snapshot());
        // Per-commit pays one sync per record; grouped solo appends too
        // (one frame per batch) — but never more.
        assert_eq!(d_per.sync_count(), 20);
        assert!(d_grp.sync_count() <= 20);
    }

    #[test]
    fn concurrent_group_commit_collapses_syncs_and_loses_nothing() {
        let dev = Arc::new(MemDevice::with_sync_latency_ns(100_000));
        let wal = Arc::new(
            Wal::open_with(
                Arc::clone(&dev) as Arc<dyn Device>,
                WalOptions { commit_delay_us: 100, ..Default::default() },
            )
            .unwrap()
            .0,
        );
        let threads = 8;
        let per = 10;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let wal = Arc::clone(&wal);
                scope.spawn(move || {
                    for k in 0..per {
                        let lsn = wal
                            .append(&WalRecord::Commit {
                                txid: (t * per + k) as u64,
                                ops: vec![insert_op(k as i64)],
                            })
                            .unwrap();
                        // Durability before acknowledgement.
                        assert!(wal.durable_lsn() >= lsn);
                    }
                });
            }
        });
        // Every append must survive replay.
        let (_, recs) = Wal::open(Arc::clone(&dev) as Arc<dyn Device>).unwrap();
        assert_eq!(recs.len(), threads * per);
        let mut txids: Vec<u64> = recs
            .iter()
            .filter_map(|(_, r)| match r {
                WalRecord::Commit { txid, .. } => Some(*txid),
                _ => None,
            })
            .collect();
        txids.sort_unstable();
        assert_eq!(txids, (0..(threads * per) as u64).collect::<Vec<_>>());
        // The whole point: far fewer syncs than appends.
        assert!(
            dev.sync_count() < (threads * per) as u64,
            "expected batched syncs, got {} for {} appends",
            dev.sync_count(),
            threads * per
        );
    }

    #[test]
    fn max_batch_backpressure_still_accepts_all_appends() {
        let d = dev();
        let wal = Arc::new(
            Wal::open_with(
                Arc::clone(&d),
                WalOptions { max_batch: 2, commit_delay_us: 50, ..Default::default() },
            )
            .unwrap()
            .0,
        );
        std::thread::scope(|scope| {
            for t in 0..6 {
                let wal = Arc::clone(&wal);
                scope.spawn(move || {
                    for _ in 0..5 {
                        wal.append(&empty(t)).unwrap();
                    }
                });
            }
        });
        let (_, recs) = Wal::open(d).unwrap();
        assert_eq!(recs.len(), 30);
    }

    #[test]
    fn cut_at_every_byte_inside_batch_replays_whole_frame_prefix() {
        // Crash-mid-batch: a batched flush is one write_at, but the device
        // may still persist any prefix of it. Whatever prefix survives,
        // replay must recover exactly the whole frames inside it — no
        // partial frame, no skipped frame (extends the torn-tail tests).
        let d = Arc::new(MemDevice::new());
        let mut frame_ends: Vec<u64> = Vec::new();
        {
            let (wal, _) =
                Wal::open_with(Arc::clone(&d) as Arc<dyn Device>, WalOptions::default()).unwrap();
            for i in 0..6i64 {
                frame_ends.push(
                    wal.append(&WalRecord::Commit { txid: i as u64, ops: vec![insert_op(i)] })
                        .unwrap(),
                );
            }
        }
        let bytes = d.snapshot();
        for cut in 0..=bytes.len() {
            let torn = Arc::new(MemDevice::from_bytes(bytes[..cut].to_vec())) as Arc<dyn Device>;
            let (wal2, recs) = Wal::open(torn).unwrap();
            let expect = frame_ends.iter().filter(|e| **e <= cut as u64).count();
            assert_eq!(recs.len(), expect, "cut at byte {cut}");
            for (i, (_, rec)) in recs.iter().enumerate() {
                assert!(
                    matches!(rec, WalRecord::Commit { txid, .. } if *txid == i as u64),
                    "replay after cut {cut} must be the exact record prefix"
                );
            }
            // And the torn tail is truncated to the last whole frame.
            let expect_end = frame_ends.iter().filter(|e| **e <= cut as u64).max().copied();
            assert_eq!(wal2.tail_lsn(), expect_end.unwrap_or(0), "cut at byte {cut}");
        }
    }

    #[test]
    fn reader_tails_durable_frames_only() {
        let d = Arc::new(MemDevice::new());
        let (wal, _) = Wal::open(Arc::clone(&d) as Arc<dyn Device>).unwrap();
        let reader = wal.reader();
        assert_eq!(reader.durable_lsn(), 0);
        assert!(reader.read_from(0).unwrap().is_empty());

        let a = wal.append(&empty(1)).unwrap();
        let b = wal.append(&empty(2)).unwrap();
        assert_eq!(reader.durable_lsn(), b);

        let frames = reader.read_from(0).unwrap();
        assert_eq!(frames.base, 0);
        assert_eq!(frames.end, b);
        assert_eq!(frames.records.len(), 2);
        assert_eq!(frames.bytes, d.snapshot(), "shipped bytes are the raw log bytes");

        // Incremental tail from the first frame's end.
        let tail = reader.read_from(a).unwrap();
        assert_eq!(tail.base, a);
        assert_eq!(tail.records.len(), 1);
        assert!(matches!(tail.records[0].1, WalRecord::Commit { txid: 2, .. }));
    }

    #[test]
    fn reader_kicks_its_shipper_when_the_watermark_grows() {
        let wal = Wal::open(dev()).unwrap().0;
        let reader = wal.reader();
        let (seen_tx, seen) = std::sync::mpsc::channel();
        let step_reader = reader.clone();
        let shipper = Arc::new(
            Daemon::spawn("shipper", OnStop::Abandon, move |_| {
                let _ = seen_tx.send(step_reader.durable_lsn());
                Next::Idle
            })
            .unwrap(),
        );
        reader.kick_on_durable(&shipper);
        let wait = std::time::Duration::from_secs(10);
        assert_eq!(seen.recv_timeout(wait).unwrap(), 0, "the first step runs at spawn");
        let appended = wal.append(&WalRecord::Checkpoint { generation: 1 }).unwrap();
        assert!(seen.recv_timeout(wait).unwrap() >= appended);
        assert_eq!(shipper.wakeups().get(), 1);

        // A shipper that is gone is forgotten at the next growth.
        drop(shipper);
        wal.append(&WalRecord::Checkpoint { generation: 2 }).unwrap();
        assert!(wal.ship.shippers.lock().is_empty());
    }

    #[test]
    fn reader_sees_grouped_flushes() {
        let dev = Arc::new(MemDevice::with_sync_latency_ns(50_000));
        let wal = Arc::new(
            Wal::open_with(Arc::clone(&dev) as Arc<dyn Device>, WalOptions::tuned_for(8))
                .unwrap()
                .0,
        );
        let reader = wal.reader();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let wal = Arc::clone(&wal);
                scope.spawn(move || {
                    for k in 0..5 {
                        wal.append(&empty(t * 10 + k)).unwrap();
                    }
                });
            }
        });
        let frames = reader.read_from(0).unwrap();
        assert_eq!(frames.records.len(), 40);
        assert_eq!(frames.end, wal.durable_lsn());
    }

    #[test]
    fn flush_failure_is_transient_and_costs_only_the_caught_commit() {
        let faults = crate::device::DiskFaults::new();
        let env = StorageEnv::mem_with_faults(Arc::clone(&faults), 0);
        let (wal, _) = Wal::open_env(&env, WalOptions::default()).unwrap();
        wal.append(&empty(1)).unwrap();

        faults.inject_enospc(1);
        let err = wal.append(&empty(2));
        assert!(err.is_err(), "commit caught in the failed flush reports the error");

        // The log stays usable: the next append reuses the dropped frame's
        // address space and the tail rewinds over the failure.
        let b = wal.append(&empty(3)).unwrap();
        assert_eq!(wal.durable_lsn(), b);
        assert_eq!(wal.tail_lsn(), b);

        drop(wal);
        let (_, recs) = Wal::open_env(&env, WalOptions::default()).unwrap();
        let txids: Vec<u64> = recs
            .iter()
            .map(|(_, r)| match r {
                WalRecord::Commit { txid, .. } => *txid,
                other => panic!("unexpected record {other:?}"),
            })
            .collect();
        assert_eq!(txids, vec![1, 3], "the dropped commit must not replay");
    }

    #[test]
    fn concurrent_appends_are_acked_iff_they_replay_across_a_flush_failure() {
        // The group-commit pipeline under an injected ENOSPC burst: every
        // append that returned Ok must replay, every append that returned
        // Err must not — no false acks through reused log address space,
        // no lost acks from over-eager failure reporting.
        let faults = crate::device::DiskFaults::new();
        let env = StorageEnv::mem_with_faults(Arc::clone(&faults), 0);
        let wal = Arc::new(Wal::open_env(&env, WalOptions::tuned_for(8)).unwrap().0);
        for i in 0..4u64 {
            wal.append(&empty(i)).unwrap();
        }

        faults.inject_enospc(3);
        let acked = parking_lot::Mutex::new(Vec::new());
        let failed = parking_lot::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let wal = Arc::clone(&wal);
                let (acked, failed) = (&acked, &failed);
                scope.spawn(move || {
                    for k in 0..10u64 {
                        let txid = 100 + t * 100 + k;
                        match wal.append(&empty(txid)) {
                            Ok(_) => acked.lock().push(txid),
                            Err(_) => failed.lock().push(txid),
                        }
                    }
                });
            }
        });
        assert_eq!(faults.enospc_hits(), 3, "the armed burst must actually fire");
        let failed = failed.into_inner();
        assert!(!failed.is_empty(), "some commit must have been caught in the failure");

        drop(wal);
        let (_, recs) = Wal::open_env(&env, WalOptions::default()).unwrap();
        let replayed: std::collections::HashSet<u64> = recs
            .iter()
            .map(|(_, r)| match r {
                WalRecord::Commit { txid, .. } => *txid,
                other => panic!("unexpected record {other:?}"),
            })
            .collect();
        for txid in acked.into_inner() {
            assert!(replayed.contains(&txid), "acked commit {txid} lost");
        }
        for txid in failed {
            assert!(!replayed.contains(&txid), "failed commit {txid} replayed anyway");
        }
    }

    #[test]
    fn tuned_for_scales_delay_with_committers() {
        assert_eq!(WalOptions::tuned_for(1).commit_delay_us, 0, "solo committer: no gather");
        assert_eq!(WalOptions::tuned_for(2).commit_delay_us, 0);
        let four = WalOptions::tuned_for(4);
        assert!(four.group_commit);
        assert!(four.commit_delay_us > 0, "concurrent committers get a gather window");
        assert!(WalOptions::tuned_for(64).commit_delay_us <= 200, "delay is capped");
        assert!(WalOptions::tuned_for(128).max_batch >= 128, "batch bound tracks committers");
    }

    #[test]
    fn record_roundtrip_all_variants() {
        let records = vec![
            WalRecord::Ddl(insert_op(0)),
            WalRecord::Commit { txid: 9, ops: vec![insert_op(1), insert_op(2)] },
            WalRecord::Commit { txid: 10, ops: Vec::new() },
            WalRecord::Checkpoint { generation: 3 },
        ];
        for rec in records {
            let bytes = rec.encode();
            assert_eq!(bytes.len(), rec.encoded_len(), "{rec:?}");
            assert_eq!(bytes.capacity(), bytes.len(), "{rec:?}: sized once, no slack");
            assert_eq!(WalRecord::decode(&bytes).unwrap(), rec);
        }
    }

    // --- unforced appends -------------------------------------------------------

    fn logged_txids(recs: &[(Lsn, WalRecord)]) -> Vec<u64> {
        recs.iter()
            .map(|(_, r)| match r {
                WalRecord::Commit { txid, .. } => *txid,
                other => panic!("unexpected record {other:?}"),
            })
            .collect()
    }

    #[test]
    fn unforced_append_returns_at_once_and_flush_makes_it_durable() {
        let d = Arc::new(MemDevice::new());
        let (wal, _) = Wal::open(Arc::clone(&d) as Arc<dyn Device>).unwrap();
        let reader = wal.reader();
        let a = wal.append(&empty(1)).unwrap();

        let b = wal.append_unforced(&empty(2)).unwrap();
        assert!(b > a);
        assert_eq!(wal.tail_lsn(), b, "the tail covers the unforced record");
        assert_eq!(wal.durable_lsn(), a, "nothing was synced for it");
        assert_eq!(d.sync_count(), 1);
        assert_eq!(d.snapshot().len() as u64, a, "nor written");
        assert_eq!(reader.read_from(0).unwrap().records.len(), 1, "readers see durable frames");
        assert_eq!(wal.telemetry().unforced_appends.get(), 1);
        assert_eq!(wal.telemetry().unflushed_bytes.get() as u64, b - a);

        wal.flush().unwrap();
        assert_eq!(wal.durable_lsn(), b);
        assert_eq!(reader.durable_lsn(), b, "the flush publishes to shippers");
        assert_eq!(logged_txids(&reader.read_from(0).unwrap().records), vec![1, 2]);
        assert_eq!(wal.telemetry().unflushed_bytes.get(), 0);
        // Nothing pending: a flush is free.
        let syncs = d.sync_count();
        wal.flush().unwrap();
        assert_eq!(d.sync_count(), syncs);

        drop(wal);
        let (_, recs) = Wal::open(d as Arc<dyn Device>).unwrap();
        assert_eq!(logged_txids(&recs), vec![1, 2]);
    }

    #[test]
    fn interleaved_forced_and_unforced_frames_cut_anywhere_replay_a_log_order_prefix() {
        // u = unforced, F = forced:  u1 F2 u3 u4 F5 u6. Each forced append
        // flushes the unforced frames batched before it, in order; u6 is
        // still in memory at the "crash". Whatever byte the device is cut
        // at, replay is a whole-frame prefix *in append order* — so a lost
        // record takes everything after it along — and with the full device
        // every forced append that returned Ok is there.
        let d = Arc::new(MemDevice::new());
        let mut ends: Vec<(u64, Lsn)> = Vec::new();
        {
            let (wal, _) = Wal::open(Arc::clone(&d) as Arc<dyn Device>).unwrap();
            for (txid, forced) in [(1, false), (2, true), (3, false), (4, false), (5, true)] {
                let lsn = if forced {
                    let lsn = wal.append(&empty(txid)).unwrap();
                    assert_eq!(wal.durable_lsn(), lsn, "forced append {txid} acked before sync");
                    lsn
                } else {
                    wal.append_unforced(&empty(txid)).unwrap()
                };
                ends.push((txid, lsn));
            }
            wal.append_unforced(&empty(6)).unwrap();
        }
        let bytes = d.snapshot();
        assert_eq!(bytes.len() as u64, ends.last().unwrap().1, "u6 never reached the device");
        for cut in 0..=bytes.len() {
            let torn = Arc::new(MemDevice::from_bytes(bytes[..cut].to_vec())) as Arc<dyn Device>;
            let (_, recs) = Wal::open(torn).unwrap();
            let expect: Vec<u64> =
                ends.iter().filter(|(_, end)| *end <= cut as u64).map(|(t, _)| *t).collect();
            assert_eq!(logged_txids(&recs), expect, "cut at byte {cut}");
        }
    }

    #[test]
    fn full_batch_of_unforced_frames_makes_progress_without_a_forced_appender() {
        // max_batch 2 and nobody ever forces: the appender that finds the
        // batch full must lead the flush itself — there is no leader to
        // wake it, and parking would hang this test.
        let d = dev();
        let wal = Arc::new(
            Wal::open_with(Arc::clone(&d), WalOptions { max_batch: 2, ..Default::default() })
                .unwrap()
                .0,
        );
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let wal = Arc::clone(&wal);
                scope.spawn(move || {
                    for k in 0..5 {
                        wal.append_unforced(&empty(t * 10 + k)).unwrap();
                    }
                });
            }
        });
        assert!(wal.durable_lsn() > 0, "full batches flushed along the way");
        wal.flush().unwrap();
        assert_eq!(wal.durable_lsn(), wal.tail_lsn());
        drop(wal);
        let (_, recs) = Wal::open(d).unwrap();
        assert_eq!(recs.len(), 20);
    }

    #[test]
    fn forced_appender_behind_a_full_unforced_batch_is_not_stranded() {
        let d = dev();
        let (wal, _) =
            Wal::open_with(Arc::clone(&d), WalOptions { max_batch: 1, ..Default::default() })
                .unwrap();
        wal.append_unforced(&empty(1)).unwrap();
        let lsn = wal.append(&empty(2)).unwrap();
        assert_eq!(wal.durable_lsn(), lsn);
        drop(wal);
        assert_eq!(logged_txids(&Wal::open(d).unwrap().1), vec![1, 2]);
    }

    #[test]
    fn failed_flush_drops_forced_frames_and_carries_unforced_ones_over() {
        let faults = crate::device::DiskFaults::new();
        let env = StorageEnv::mem_with_faults(Arc::clone(&faults), 0);
        let (wal, _) = Wal::open_env(&env, WalOptions::default()).unwrap();
        let durable = wal.append(&empty(1)).unwrap();
        wal.append_unforced(&empty(2)).unwrap();
        wal.append_unforced(&empty(3)).unwrap();

        faults.inject_enospc(1);
        assert!(wal.append(&empty(4)).is_err(), "the forced appender learns of the failure");
        // The log rewound to the durable watermark, minus nothing unforced:
        // the two frames are batched again, re-addressed from there.
        assert_eq!(wal.durable_lsn(), durable);
        let frame = durable; // every empty commit frame has the first one's length
        assert_eq!(wal.tail_lsn(), durable + 2 * frame);
        assert_eq!(wal.telemetry().unflushed_bytes.get() as u64, 2 * frame);

        // An explicit flush caught in a failure reports it and loses nothing.
        faults.inject_enospc(1);
        assert!(wal.flush().is_err());
        assert_eq!(wal.tail_lsn(), durable + 2 * frame);

        let end = wal.append(&empty(5)).unwrap();
        assert_eq!((wal.durable_lsn(), wal.tail_lsn()), (end, end));
        drop(wal);
        let (_, recs) = Wal::open_env(&env, WalOptions::default()).unwrap();
        assert_eq!(logged_txids(&recs), vec![1, 2, 3, 5], "only the failed forced frame is gone");
    }

    /// The device call a [`Gate`] can hold.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Step {
        Write,
        Sync,
    }

    /// A device whose armed call parks until released, then returns the
    /// outcome the release carries: holds a flush mid-I/O so a test can act
    /// behind it. A `sync` counts on entry, the parked one included.
    struct Gate {
        inner: MemDevice,
        armed: Mutex<Option<Step>>,
        entered: std::sync::mpsc::SyncSender<()>,
        release: Mutex<std::sync::mpsc::Receiver<bool>>,
    }

    impl Gate {
        /// The device, the "a call parked" signal, and the release
        /// (`true` lets the parked call succeed).
        fn new() -> (Arc<Gate>, std::sync::mpsc::Receiver<()>, std::sync::mpsc::SyncSender<bool>) {
            let (entered, parked) = std::sync::mpsc::sync_channel(1);
            let (release, release_rx) = std::sync::mpsc::sync_channel(1);
            let gate = Gate {
                inner: MemDevice::new(),
                armed: Mutex::new(None),
                entered,
                release: Mutex::new(release_rx),
            };
            (Arc::new(gate), parked, release)
        }

        fn arm(&self, step: Step) {
            *self.armed.lock() = Some(step);
        }

        fn pass(&self, step: Step) -> DbResult<()> {
            if self.armed.lock().take_if(|armed| *armed == step).is_none() {
                return Ok(());
            }
            self.entered.send(()).unwrap();
            if self.release.lock().recv().unwrap() {
                Ok(())
            } else {
                Err(DbError::Io(format!("injected {step:?} failure")))
            }
        }

        fn log(self: &Arc<Self>) -> Arc<dyn Device> {
            Arc::clone(self) as Arc<dyn Device>
        }
    }

    impl Device for Gate {
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> DbResult<usize> {
            self.inner.read_at(offset, buf)
        }
        fn write_at(&self, offset: u64, data: &[u8]) -> DbResult<()> {
            self.pass(Step::Write)?;
            self.inner.write_at(offset, data)
        }
        fn len(&self) -> DbResult<u64> {
            self.inner.len()
        }
        fn sync(&self) -> DbResult<()> {
            self.inner.sync()?;
            self.pass(Step::Sync)
        }
        fn set_len(&self, len: u64) -> DbResult<()> {
            self.inner.set_len(len)
        }
    }

    /// Polls `cond` for up to ten seconds.
    fn eventually(cond: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn unforced_frames_batched_during_a_failing_flush_are_carried_over_too() {
        // The leader's write is in flight when an unforced frame and a
        // forced one join the *next* batch; the write then fails. Both
        // batches' unforced frames must survive, in append order; neither
        // forced frame may. The forced appender behind a write in flight
        // starts no second flush: writes stay in log order.
        let (dev, parked, release) = Gate::new();
        let wal = Arc::new(Wal::open(dev.log()).unwrap().0);
        let base = wal.append(&empty(1)).unwrap();
        wal.append_unforced(&empty(2)).unwrap();
        dev.arm(Step::Write);
        let append = |txid| {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || wal.append(&empty(txid)))
        };
        let leader = append(3);
        parked.recv().unwrap(); // the leader holds [u2, F3] at the device
        wal.append_unforced(&empty(4)).unwrap();
        let behind = append(5);
        assert!(eventually(|| wal.tail_lsn() == 5 * base), "F5 never enqueued");
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(dev.inner.len().unwrap(), base, "a younger flush wrote past a write in flight");
        release.send(false).unwrap();
        assert!(leader.join().unwrap().is_err());
        assert!(
            behind.join().unwrap().is_err(),
            "the failure drops every non-durable forced frame"
        );
        wal.flush().unwrap();
        assert_eq!(wal.durable_lsn(), wal.tail_lsn());
        drop(wal);
        let (_, recs) = Wal::open(dev.log()).unwrap();
        assert_eq!(logged_txids(&recs), vec![1, 2, 4]);
    }

    #[test]
    fn a_second_flush_syncs_while_the_first_is_parked_and_retires_after_it() {
        let (dev, parked, release) = Gate::new();
        let wal = Arc::new(Wal::open(dev.log()).unwrap().0);
        let reader = wal.reader();
        let base = wal.append(&empty(0)).unwrap();
        let frame = base; // every empty commit frame has the first one's length
        let append = |txid| {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || wal.append(&empty(txid)))
        };
        dev.arm(Step::Sync);
        let a = append(1);
        parked.recv().unwrap(); // A is parked in its sync
        let syncs = dev.inner.sync_count();

        // B leads a second flush and reaches its own sync meanwhile.
        let b = append(2);
        assert!(
            eventually(|| dev.inner.sync_count() == syncs + 1),
            "the second committer waited out the first one's sync"
        );
        // Its sync returned, but it retires after A: B has not returned and
        // no reader sees its frame.
        std::thread::sleep(Duration::from_millis(20));
        assert!(!b.is_finished(), "B returned before the older flush retired");
        assert_eq!((wal.durable_lsn(), reader.durable_lsn()), (base, base));
        assert_eq!(logged_txids(&reader.read_from(0).unwrap().records), vec![0]);

        // A third committer parks: two flushes are in flight already.
        let c = append(3);
        assert!(eventually(|| wal.tail_lsn() == base + 3 * frame), "C never enqueued");
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(dev.inner.sync_count(), syncs + 1, "a third flush started");
        assert!(!c.is_finished());

        release.send(true).unwrap();
        let acks: Vec<Lsn> = [a, b, c].map(|t| t.join().unwrap().unwrap()).into();
        assert_eq!(acks, vec![base + frame, base + 2 * frame, base + 3 * frame]);
        assert_eq!(wal.durable_lsn(), base + 3 * frame);
        assert_eq!(reader.durable_lsn(), base + 3 * frame);
        assert_eq!(wal.telemetry().overlapped_flushes.get(), 1);
        drop(wal);
        assert_eq!(logged_txids(&Wal::open(dev.log()).unwrap().1), vec![0, 1, 2, 3]);
    }

    #[test]
    fn a_flush_still_gathering_is_joined_not_overtaken() {
        let d = Arc::new(MemDevice::new());
        let opts = WalOptions { commit_delay_us: 100_000, ..Default::default() };
        let wal = Arc::new(Wal::open_with(Arc::clone(&d) as Arc<dyn Device>, opts).unwrap().0);
        let gatherer = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || wal.append(&empty(1)))
        };
        assert!(eventually(|| wal.tail_lsn() > 0));
        wal.append(&empty(2)).unwrap();
        gatherer.join().unwrap().unwrap();
        assert_eq!(d.sync_count(), 1, "both frames ride the gathering flush");
        assert_eq!(wal.telemetry().overlapped_flushes.get(), 0);
    }

    #[test]
    fn a_failed_sync_trims_its_bytes_so_a_shorter_batch_cannot_replay_them() {
        // The write lands, the sync fails: the forced frame is dropped and
        // the unforced one carried over. The rewritten batch is shorter
        // than the failed one, so without a trim the failed frame would
        // still sit, whole and valid, right behind the new tail.
        let (dev, parked, release) = Gate::new();
        let (wal, _) = Wal::open(dev.log()).unwrap();
        let base = wal.append(&empty(0)).unwrap();
        wal.append_unforced(&empty(1)).unwrap();
        dev.arm(Step::Sync);
        release.send(false).unwrap();
        assert!(wal.append(&empty(2)).is_err());
        parked.recv().unwrap();
        assert_eq!(dev.inner.len().unwrap(), base, "the device is trimmed to the durable mark");
        wal.flush().unwrap();
        drop(wal);
        assert_eq!(logged_txids(&Wal::open(dev.log()).unwrap().1), vec![0, 1]);
    }

    #[test]
    fn a_failed_older_flush_fails_the_younger_one_and_carries_both_unforced_frames() {
        let (dev, parked, release) = Gate::new();
        let wal = Arc::new(Wal::open(dev.log()).unwrap().0);
        let reader = wal.reader();
        let base = wal.append(&empty(0)).unwrap();
        let frame = base;
        let append = |txid| {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || wal.append(&empty(txid)))
        };
        // A takes [u1, F2] and parks in its sync; B takes [u3, F4], writes
        // and syncs behind it; then A's sync fails.
        wal.append_unforced(&empty(1)).unwrap();
        dev.arm(Step::Sync);
        let a = append(2);
        parked.recv().unwrap();
        let syncs = dev.inner.sync_count();
        wal.append_unforced(&empty(3)).unwrap();
        let b = append(4);
        assert!(eventually(|| dev.inner.sync_count() == syncs + 1), "B never synced");
        assert_eq!(dev.inner.len().unwrap(), base + 4 * frame, "both batches written");
        release.send(false).unwrap();
        assert!(a.join().unwrap().is_err());
        assert!(b.join().unwrap().is_err(), "the younger forced appender gets the error");

        // Rewound past both flushes: the unforced frames are batched again,
        // in append order, and the device holds only the durable prefix.
        assert_eq!((wal.durable_lsn(), reader.durable_lsn()), (base, base));
        assert_eq!(wal.tail_lsn(), base + 2 * frame);
        assert_eq!(dev.inner.len().unwrap(), base);
        // The post-rewind batch [u1, u3] is shorter than what was written.
        wal.flush().unwrap();
        let end = wal.append(&empty(5)).unwrap();
        assert_eq!(end, base + 3 * frame);
        drop(wal);
        assert_eq!(logged_txids(&Wal::open(dev.log()).unwrap().1), vec![0, 1, 3, 5]);
    }

    #[test]
    fn per_commit_sync_forces_unforced_appends_and_writes_the_same_bytes() {
        // The baseline arm stays honest: per-commit-sync mode has no lazy
        // path, so a log written through append_unforced is byte- and
        // sync-identical to one written through append.
        let run = |unforced: bool| {
            let d = Arc::new(MemDevice::new());
            let (wal, _) =
                Wal::open_with(Arc::clone(&d) as Arc<dyn Device>, WalOptions::per_commit_sync())
                    .unwrap();
            for i in 0..10u64 {
                let rec = empty(i);
                let lsn = if unforced && i % 2 == 1 {
                    wal.append_unforced(&rec)
                } else {
                    wal.append(&rec)
                }
                .unwrap();
                assert_eq!(wal.durable_lsn(), lsn);
            }
            assert_eq!(wal.telemetry().unforced_appends.get(), 0);
            (d.snapshot(), d.sync_count())
        };
        assert_eq!(run(false), run(true));
        assert_eq!(run(true).1, 10);
    }

    #[test]
    fn truncation_flushes_an_unforced_tail_instead_of_waiting_on_it() {
        let env = StorageEnv::mem();
        let (wal, _) = Wal::open_env(&env, WalOptions::default()).unwrap();
        let cut = wal.append(&empty(1)).unwrap();
        let tail = wal.append_unforced(&empty(2)).unwrap();
        assert_eq!(wal.truncate_below(cut).unwrap(), cut);
        assert_eq!(wal.durable_lsn(), tail);
        drop(wal);
        let (wal, recs) = Wal::open_env(&env, WalOptions::default()).unwrap();
        assert_eq!((wal.base_lsn(), logged_txids(&recs)), (cut, vec![2]));
    }

    // --- truncation -----------------------------------------------------------

    #[test]
    fn truncate_bounds_retained_bytes_and_reopens() {
        let env = StorageEnv::mem();
        let cut;
        let tail;
        {
            let (wal, _) = Wal::open_env(&env, WalOptions::default()).unwrap();
            for i in 0..10u64 {
                wal.append(&empty(i)).unwrap();
            }
            cut = wal.append(&WalRecord::Checkpoint { generation: 1 }).unwrap();
            tail = wal.append(&empty(99)).unwrap();
            let before = wal.retained_bytes();
            assert_eq!(wal.truncate_below(cut).unwrap(), cut);
            assert_eq!(wal.base_lsn(), cut);
            assert_eq!(wal.tail_lsn(), tail, "tail LSN survives truncation");
            assert!(wal.retained_bytes() < before);
        }
        // Reopen honours the control record: only the suffix replays, at
        // its original logical LSNs.
        let (wal, recs) = Wal::open_env(&env, WalOptions::default()).unwrap();
        assert_eq!(wal.base_lsn(), cut);
        assert_eq!(wal.tail_lsn(), tail);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].0, cut, "surviving record keeps its logical LSN");
        assert!(matches!(recs[0].1, WalRecord::Commit { txid: 99, .. }));

        // Appending after reopen continues the same address space.
        let next = wal.append(&empty(100)).unwrap();
        assert!(next > tail);
    }

    #[test]
    fn truncate_is_clamped_and_idempotent() {
        let env = StorageEnv::mem();
        let (wal, _) = Wal::open_env(&env, WalOptions::default()).unwrap();
        let a = wal.append(&empty(1)).unwrap();
        wal.append(&empty(2)).unwrap();
        assert_eq!(wal.truncate_below(a).unwrap(), a);
        // Not an advance: stays put.
        assert_eq!(wal.truncate_below(0).unwrap(), a);
        assert_eq!(wal.truncate_below(a).unwrap(), a);
        // Clamped to durable.
        let end = wal.durable_lsn();
        assert_eq!(wal.truncate_below(end + 10_000).unwrap(), end);
    }

    #[test]
    fn reader_below_base_reports_truncation() {
        let env = StorageEnv::mem();
        let (wal, _) = Wal::open_env(&env, WalOptions::default()).unwrap();
        let a = wal.append(&empty(1)).unwrap();
        let b = wal.append(&empty(2)).unwrap();
        let reader = wal.reader();
        wal.truncate_below(a).unwrap();
        assert_eq!(reader.base_lsn(), a);
        match reader.read_from(0) {
            Err(DbError::TruncatedLog { base }) => assert_eq!(base, a),
            other => panic!("expected TruncatedLog, got {other:?}"),
        }
        // At or above the base, reading still works and LSNs are logical.
        let frames = reader.read_from(a).unwrap();
        assert_eq!(frames.base, a);
        assert_eq!(frames.end, b);
        assert_eq!(frames.records.len(), 1);
    }

    #[test]
    fn repeated_truncations_flip_slots() {
        let env = StorageEnv::mem();
        let (wal, _) = Wal::open_env(&env, WalOptions::default()).unwrap();
        let mut last = 0;
        for round in 0..4u64 {
            for i in 0..5u64 {
                last = wal.append(&empty(round * 10 + i)).unwrap();
            }
            let cut = wal.tail_lsn();
            assert_eq!(wal.truncate_below(cut).unwrap(), cut);
            assert_eq!(wal.retained_bytes(), 0);
        }
        let tail = wal.append(&empty(1000)).unwrap();
        assert!(tail > last);
        // Survives a reopen after four slot flips.
        drop(wal);
        let (wal, recs) = Wal::open_env(&env, WalOptions::default()).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(wal.tail_lsn(), tail);
    }

    // --- follower operations ---------------------------------------------------

    #[test]
    fn shipped_frames_land_verbatim_at_their_lsns_and_only_at_the_tail() {
        let primary_env = StorageEnv::mem();
        let (primary, _) = Wal::open_env(&primary_env, WalOptions::default()).unwrap();
        for txid in 1..=3 {
            primary.append(&empty(txid)).unwrap();
        }
        let first = primary.reader().read_from(0).unwrap();

        let env = StorageEnv::mem();
        let (follower, _) = Wal::open_env(&env, WalOptions::default()).unwrap();
        let syncs = follower.telemetry().fsync_ns.snapshot().count;
        follower.append_shipped(0, &first.bytes).unwrap();
        assert_eq!(
            follower.telemetry().fsync_ns.snapshot().count,
            syncs + 1,
            "one write, one sync"
        );
        assert_eq!((follower.tail_lsn(), follower.durable_lsn()), (first.end, first.end));
        // Not at the tail — a gap, or a resend — is refused and changes nothing.
        assert!(follower.append_shipped(first.end + 1, &first.bytes).is_err());
        assert!(follower.append_shipped(0, &first.bytes).is_err());
        assert_eq!(follower.tail_lsn(), first.end);

        primary.append(&empty(4)).unwrap();
        let second = primary.reader().read_from(first.end).unwrap();
        follower.append_shipped(second.base, &second.bytes).unwrap();
        // Byte-identical devices, and the follower's own readers see it all.
        let (p, f) = (primary_env.device("wal").unwrap(), env.device("wal").unwrap());
        let (mut pb, mut fb) = (vec![0u8; second.end as usize], vec![0u8; second.end as usize]);
        assert_eq!(p.read_at(0, &mut pb).unwrap(), f.read_at(0, &mut fb).unwrap());
        assert_eq!(pb, fb);
        assert_eq!(follower.reader().read_from(0).unwrap().records.len(), 4);
        drop(follower);
        let (_, recs) = Wal::open_env(&env, WalOptions::default()).unwrap();
        assert_eq!(logged_txids(&recs), vec![1, 2, 3, 4]);
    }

    #[test]
    fn reset_empties_the_log_at_a_base_past_its_tail_and_survives_reopen() {
        let env = StorageEnv::mem();
        let (wal, _) = Wal::open_env(&env, WalOptions::default()).unwrap();
        let old_tail = wal.append(&empty(1)).unwrap();
        let reader = wal.reader();
        let base = old_tail + 10_000;
        wal.reset_to(base).unwrap();
        assert_eq!((wal.base_lsn(), wal.tail_lsn(), wal.durable_lsn()), (base, base, base));
        assert_eq!(wal.retained_bytes(), 0);
        assert_eq!(reader.durable_lsn(), base);
        assert!(matches!(reader.read_from(0), Err(DbError::TruncatedLog { base: b }) if b == base));
        // Not past the base any more: a repeat (or a lower target) is a no-op.
        wal.reset_to(base).unwrap();
        wal.reset_to(old_tail).unwrap();
        assert_eq!(wal.base_lsn(), base);
        // The log carries on from there, as an appender's or a follower's.
        let tail = wal.append(&empty(2)).unwrap();
        assert!(tail > base);
        drop(wal);
        let (wal, recs) = Wal::open_env(&env, WalOptions::default()).unwrap();
        assert_eq!((wal.base_lsn(), wal.tail_lsn()), (base, tail));
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].0, base, "the first record after a reset sits at the new base");
    }

    #[test]
    fn truncate_unavailable_on_bare_device() {
        let (wal, _) = Wal::open(dev()).unwrap();
        wal.append(&empty(1)).unwrap();
        assert!(wal.truncate_below(1).is_err());
    }

    #[test]
    fn ctl_record_roundtrip_and_torn_slot_fallback() {
        let env = StorageEnv::mem();
        assert_eq!(read_log_ctl(&env).unwrap(), (0, 0, 0), "missing ctl means never truncated");
        write_log_ctl(&env, 1, 100, 1).unwrap();
        assert_eq!(read_log_ctl(&env).unwrap(), (1, 100, 1));
        write_log_ctl(&env, 2, 200, 0).unwrap();
        assert_eq!(read_log_ctl(&env).unwrap(), (2, 200, 0));
        // Tear the newest record (seq 2 lives in ctl slot 0): the previous
        // record must be recovered.
        env.device("wal.ctl").unwrap().write_at(0, &[0xFF; 8]).unwrap();
        assert_eq!(read_log_ctl(&env).unwrap(), (1, 100, 1));
    }
}
