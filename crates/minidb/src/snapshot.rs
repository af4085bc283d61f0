//! Full-state snapshots with ping-pong slots.
//!
//! A snapshot serializes every committed table (schema, indexed columns,
//! rows) plus the WAL position it covers (`base_lsn`). Two slot devices
//! ("snap.a"/"snap.b") alternate so a crash mid-snapshot always leaves the
//! previous generation intact; recovery picks the valid slot with the
//! highest generation and replays the log from its `base_lsn`.
//!
//! Since format version 2 a snapshot is a **complete recovery image**, not
//! just table data: it also carries what recovery previously reconstructed
//! by scanning the whole log — the next transaction id. That
//! completeness is what makes WAL truncation below `base_lsn` safe
//! ([`crate::wal::Wal::truncate_below`]): nothing recovery needs can hide
//! in the truncated prefix.
//!
//! Format version 3 recorded a logged/rowless class in each table's
//! schema; format version 7 drops it with the class — every table's rows
//! are in the image. (DLFM's open-file state, the class's one user, lives
//! in memory outside the database.)
//!
//! Format version 5 dropped what versions 2–4 carried for the coordinator's
//! side of 2PC — a map of transaction outcomes, and with each prepared
//! transaction the coordinator id its `Prepare` named. Format version 6
//! drops the participant side: the redo ops of transactions prepared but
//! undecided, which left with the `Prepare`/`Decide` records. Whether a 2PC
//! transaction committed is read off the rows its `Commit` carried, and a
//! participant's vote is a row of its own (DLFM's intent), both of which
//! the image holds anyway.
//!
//! Format version 8 marks a schema change of the one user of the format,
//! not of the format: DLFM's repository dropped its write-claim table and
//! five columns of its intent table, so an image of version 7 describes
//! tables the repository no longer reads.
//!
//! # The recovery rule
//!
//! Because the image is complete, recovery is one fold: start from the
//! newest usable image (or the empty one) and [`redo`] every
//! retained log record at or above its base, in log order. `redo` is the
//! only place a [`WalRecord`] is mapped onto tables and the
//! transaction-id horizon, and
//! `SnapshotData::recover` the only open sequence: a primary's crash
//! recovery, a point-in-time restore, a follower's open and a follower's
//! live apply (`Database::apply` runs `redo` on the database's own tables)
//! all run it, so they cannot disagree about what a record means.

use std::collections::HashMap;
use std::sync::Arc;

use crate::codec::{crc32, get_row, get_schema, put_row, put_schema, Dec, Enc};
use crate::db::apply_op;
use crate::device::{Device, StorageEnv};
use crate::error::{DbError, DbResult};
use crate::table::TableStore;
use crate::wal::{Lsn, TxId, Wal, WalOptions, WalRecord};

const MAGIC: u32 = 0x444C_534E; // "DLSN"
const VERSION: u32 = 8;

/// The two ping-pong slot device names.
pub(crate) const SNAPSHOT_SLOTS: [&str; 2] = ["snap.a", "snap.b"];

/// The slot device a snapshot of `generation` is written to (alternating
/// parity, so the previous generation always survives a torn write).
pub(crate) fn slot_for_generation(generation: u64) -> &'static str {
    if generation.is_multiple_of(2) {
        SNAPSHOT_SLOTS[1]
    } else {
        SNAPSHOT_SLOTS[0]
    }
}

/// Reads both ping-pong slots of `env` and returns the newest valid
/// snapshot accepted by `usable` (recovery-time filtering, e.g. a
/// point-in-time bound), if any. The single source of truth for snapshot
/// selection — every open and the replication feed go through here.
pub fn latest_valid_snapshot(
    env: &StorageEnv,
    usable: impl Fn(&SnapshotData) -> bool,
) -> DbResult<Option<SnapshotData>> {
    let mut best: Option<SnapshotData> = None;
    for slot in SNAPSHOT_SLOTS {
        if let Some(snap) = read_snapshot(&env.device(slot)?)? {
            if usable(&snap) && best.as_ref().is_none_or(|b| snap.generation >= b.generation) {
                best = Some(snap);
            }
        }
    }
    Ok(best)
}

/// Decoded snapshot contents — a complete recovery image of the database
/// as of `base_lsn` (see the module docs).
#[derive(Clone)]
pub struct SnapshotData {
    /// Monotonic snapshot generation (ping-pong slot selection).
    pub generation: u64,
    /// The snapshot covers every log record strictly below this LSN.
    pub base_lsn: Lsn,
    /// First transaction id recovery may hand out (ids below it may have
    /// been used by records since truncated away).
    pub next_txid: TxId,
    /// Committed table stores.
    pub tables: HashMap<String, TableStore>,
}

impl Default for SnapshotData {
    /// The image of a database nothing was ever logged to.
    fn default() -> SnapshotData {
        SnapshotData { generation: 0, base_lsn: 0, next_txid: 1, tables: HashMap::new() }
    }
}

impl SnapshotData {
    /// The one open sequence (module docs): opens the log of `env` — which
    /// resolves the truncation control record and trims a torn tail —
    /// picks the newest valid image, and redoes the retained records at or
    /// above its base. `stop_at` bounds both for a point-in-time restore:
    /// no image past it, no table effect of a record at or above it (the
    /// transaction ids of those records stay used); a bound below the log's
    /// low-water mark is [`DbError::TruncatedLog`]. A log that ends below
    /// the image is a checkpoint install the crash interrupted after its
    /// image write (`Database::install_checkpoint`); the
    /// install's log reset is finished here. Returns the log and the image,
    /// whose `base_lsn` now names the log position it is current to.
    pub(crate) fn recover(
        env: &StorageEnv,
        wal_opts: WalOptions,
        stop_at: Option<Lsn>,
    ) -> DbResult<(Wal, SnapshotData)> {
        let (wal, records) = Wal::open_env(env, wal_opts)?;
        let wal_base = wal.base_lsn();
        if stop_at.is_some_and(|stop| stop < wal_base) {
            return Err(DbError::TruncatedLog { base: wal_base });
        }
        let usable = |snap: &SnapshotData| stop_at.is_none_or(|stop| snap.base_lsn <= stop);
        let mut image = latest_valid_snapshot(env, usable)?.unwrap_or_default();
        if image.base_lsn < wal_base {
            // The log was truncated on the promise of a durable snapshot at
            // the low-water mark; without one there is a replay gap.
            return Err(DbError::Corrupt(format!(
                "log truncated to {wal_base} but the newest usable snapshot covers only {}",
                image.base_lsn
            )));
        }
        if wal.tail_lsn() < image.base_lsn {
            wal.reset_to(image.base_lsn)?;
        }
        let end = stop_at.unwrap_or(Lsn::MAX).min(wal.tail_lsn());
        let kept = records.partition_point(|(lsn, _)| *lsn < end);
        for (lsn, rec) in &records[..kept] {
            if *lsn >= image.base_lsn {
                redo(&mut image.tables, &mut image.next_txid, rec)?;
            }
        }
        image.base_lsn = end;
        // A point-in-time restore discards what the later records did to
        // the tables, not that they happened: their transaction ids stay
        // used (a participant may still hold a branch under one of them).
        for (_, rec) in &records[kept..] {
            use_txid(&mut image.next_txid, rec);
        }
        Ok((wal, image))
    }
}

/// What one log record does to a state — *the* recovery rule (module
/// docs), for a recovering image and a follower's own tables alike. `Ddl` and
/// `Commit` apply their ops (replay trusts the log; an op's copy shares the
/// record's rows, so the stores hold the decoded rows); every transaction id
/// seen pushes the id horizon. `Checkpoint` changes nothing: which image is
/// newest is read off the snapshot slots, never off the log. The caller
/// feeds records in log order, none below the state's base, and moves the
/// base past what it fed.
pub fn redo(
    tables: &mut HashMap<String, TableStore>,
    next_txid: &mut TxId,
    rec: &WalRecord,
) -> DbResult<()> {
    use_txid(next_txid, rec);
    match rec {
        WalRecord::Ddl(op) => apply_op(tables, op.clone())?,
        WalRecord::Commit { ops, .. } => {
            for op in ops {
                apply_op(tables, op.clone())?;
            }
        }
        WalRecord::Checkpoint { .. } => {}
    }
    Ok(())
}

/// Pushes the id horizon past the transaction `rec` names, if any.
fn use_txid(next_txid: &mut TxId, rec: &WalRecord) {
    if let WalRecord::Commit { txid, .. } = rec {
        *next_txid = (*next_txid).max(txid + 1);
    }
}

/// Borrowed write-side view of a snapshot: what [`write_snapshot`]
/// serializes. Mirrors [`SnapshotData`] field-for-field but borrows the
/// collections, so a checkpoint never has to clone the table stores just
/// to persist them.
pub struct SnapshotSource<'a> {
    /// Monotonic snapshot generation.
    pub generation: u64,
    /// The snapshot covers every log record strictly below this LSN.
    pub base_lsn: Lsn,
    /// First transaction id recovery may hand out.
    pub next_txid: TxId,
    /// Committed table stores.
    pub tables: &'a HashMap<String, TableStore>,
}

impl<'a> From<&'a SnapshotData> for SnapshotSource<'a> {
    fn from(snap: &'a SnapshotData) -> SnapshotSource<'a> {
        SnapshotSource {
            generation: snap.generation,
            base_lsn: snap.base_lsn,
            next_txid: snap.next_txid,
            tables: &snap.tables,
        }
    }
}

/// Serializes a complete recovery image into `dev` (see [`SnapshotData`]
/// for the field meanings).
pub fn write_snapshot(dev: &Arc<dyn Device>, snap: SnapshotSource<'_>) -> DbResult<()> {
    let mut body = Enc::with_capacity(4096);
    body.put_u64(snap.generation);
    body.put_u64(snap.base_lsn);
    body.put_u64(snap.next_txid);
    body.put_u32(snap.tables.len() as u32);
    // Deterministic order keeps snapshots byte-comparable in tests.
    let mut names: Vec<&String> = snap.tables.keys().collect();
    names.sort();
    for name in names {
        let store = &snap.tables[name];
        put_schema(&mut body, &store.schema);
        let indexed = store.indexed_columns();
        body.put_u32(indexed.len() as u32);
        for col in &indexed {
            body.put_str(col);
        }
        body.put_u32(store.len() as u32);
        for (_, row) in store.iter() {
            put_row(&mut body, row);
        }
    }
    let payload = body.into_bytes();

    let mut frame = Enc::with_capacity(payload.len() + 16);
    frame.put_u32(MAGIC);
    frame.put_u32(VERSION);
    frame.put_u32(payload.len() as u32);
    frame.put_u32(crc32(&payload));
    let mut bytes = frame.into_bytes();
    bytes.extend_from_slice(&payload);

    // Invalidate the slot header first so a crash mid-write cannot leave a
    // stale-but-valid-looking header over new bytes.
    dev.set_len(0)?;
    dev.write_at(0, &bytes)?;
    dev.sync()?;
    Ok(())
}

/// Reads a snapshot slot; `Ok(None)` when empty or invalid (a torn write
/// simply invalidates the slot — the other slot still has the previous
/// generation).
fn read_snapshot(dev: &Arc<dyn Device>) -> DbResult<Option<SnapshotData>> {
    let total = dev.len()?;
    if total < 16 {
        return Ok(None);
    }
    let mut header = [0u8; 16];
    if dev.read_at(0, &mut header)? < 16 {
        return Ok(None);
    }
    let mut dec = Dec::new(&header);
    let magic = dec.get_u32()?;
    let version = dec.get_u32()?;
    let len = dec.get_u32()? as usize;
    let crc = dec.get_u32()?;
    if magic != MAGIC || version != VERSION || 16 + len as u64 > total {
        return Ok(None);
    }
    let mut payload = vec![0u8; len];
    if dev.read_at(16, &mut payload)? < len {
        return Ok(None);
    }
    if crc32(&payload) != crc {
        return Ok(None);
    }

    let mut dec = Dec::new(&payload);
    let generation = dec.get_u64()?;
    let base_lsn = dec.get_u64()?;
    let next_txid = dec.get_u64()?;
    let ntables = dec.get_u32()? as usize;
    let mut tables = HashMap::with_capacity(ntables);
    for _ in 0..ntables {
        let schema = get_schema(&mut dec)?;
        let nindexes = dec.get_u32()? as usize;
        let mut indexed = Vec::with_capacity(nindexes);
        for _ in 0..nindexes {
            indexed.push(dec.get_str()?);
        }
        let nrows = dec.get_u32()? as usize;
        let name = schema.table.clone();
        let mut store = TableStore::new(schema);
        for _ in 0..nrows {
            store.apply_insert(get_row(&mut dec)?.into());
        }
        for col in &indexed {
            store.create_index(col)?;
        }
        tables.insert(name, store);
    }
    if !dec.is_done() {
        return Err(DbError::Corrupt("trailing bytes in snapshot".into()));
    }
    Ok(Some(SnapshotData { generation, base_lsn, next_txid, tables }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;
    use crate::value::{Column, ColumnType, Schema, Value};

    fn sample() -> SnapshotData {
        let schema = Schema::new(
            "movies",
            vec![Column::new("id", ColumnType::Int), Column::new("title", ColumnType::Text)],
            "id",
        )
        .unwrap();
        let mut store = TableStore::new(schema);
        store.apply_insert(vec![Value::Int(1), Value::Text("Alien".into())].into());
        store.apply_insert(vec![Value::Int(2), Value::Text("Brazil".into())].into());
        store.create_index("title").unwrap();
        let mut tables = HashMap::new();
        tables.insert("movies".to_string(), store);
        SnapshotData { generation: 3, base_lsn: 128, next_txid: 10, tables }
    }

    #[test]
    fn roundtrip() {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new());
        write_snapshot(&dev, (&sample()).into()).unwrap();
        let snap = read_snapshot(&dev).unwrap().expect("valid snapshot");
        assert_eq!(snap.generation, 3);
        assert_eq!(snap.base_lsn, 128);
        assert_eq!(snap.next_txid, 10);
        let movies = &snap.tables["movies"];
        assert_eq!(movies.len(), 2);
        assert_eq!(movies.indexed_columns(), ["title"]);
        assert_eq!(
            movies.find_equal("title", &Value::Text("Brazil".into())).unwrap(),
            vec![Value::Int(2)]
        );
    }

    #[test]
    fn empty_device_reads_none() {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new());
        assert!(read_snapshot(&dev).unwrap().is_none());
    }

    #[test]
    fn corrupt_payload_reads_none() {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new());
        write_snapshot(&dev, (&sample()).into()).unwrap();
        // Flip a byte in the payload.
        let mut b = [0u8; 1];
        dev.read_at(20, &mut b).unwrap();
        dev.write_at(20, &[b[0] ^ 0xFF]).unwrap();
        assert!(read_snapshot(&dev).unwrap().is_none());
    }

    #[test]
    fn truncated_payload_reads_none() {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new());
        write_snapshot(&dev, (&sample()).into()).unwrap();
        let len = dev.len().unwrap();
        dev.set_len(len - 4).unwrap();
        assert!(read_snapshot(&dev).unwrap().is_none());
    }

    #[test]
    fn rewrite_replaces_generation() {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new());
        write_snapshot(&dev, (&sample()).into()).unwrap();
        let mut newer = sample();
        newer.generation = 4;
        newer.base_lsn = 99;
        write_snapshot(&dev, (&newer).into()).unwrap();
        let snap = read_snapshot(&dev).unwrap().unwrap();
        assert_eq!((snap.generation, snap.base_lsn), (4, 99));
    }

    #[test]
    fn outdated_format_version_reads_none() {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new());
        write_snapshot(&dev, (&sample()).into()).unwrap();
        // Rewrite the version field to 5 (the format that still carried
        // the prepared-transaction column): the slot must read as invalid,
        // not misparse.
        dev.write_at(4, &5u32.to_le_bytes()).unwrap();
        assert!(read_snapshot(&dev).unwrap().is_none());
    }
}
