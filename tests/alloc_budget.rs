//! Heap allocations per paper operation, counted on the calling thread.
//!
//! A counting global allocator (this test binary only) tallies every
//! `alloc`, `alloc_zeroed` and `realloc` in a thread-local counter, so the
//! archiver, the log shipper and any other background thread stay out of
//! the figure, and so do the other tests of this binary. The stack is the
//! in-process one the repo benchmark's `read_mix` runs: free log syncs, one
//! file server under `rdd` control, 64 linked 4 KiB files, one client.
//! After a warm-up round, the test runs `N` token reads, `N` updates and
//! `N` link + unlink pairs, and pins each kind's count per op.
//!
//! The budgets are counts, not rates: a change that copies a row, a schema
//! or a lock key per statement again shows here on any machine, whatever
//! the host's speed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use datalinks::core::{DataLinksSystem, DlColumnOptions, FileServerSpec};
use datalinks::dlfm::{ControlMode, OnUnlink, TokenKind};
use datalinks::fskit::{Cred, Lfs, OpenOptions};
use datalinks::minidb::{Column, ColumnType, Schema, Value};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const SRV: &str = "srv";
const TABLE: &str = "docs";
const COLUMN: &str = "body";
const FILES: i64 = 64;
const FILE_SIZE: usize = 4096;
/// Operations of each kind measured (after one warm-up round).
const N: u64 = 256;
/// Keys of the link + unlink files, above the base files'.
const CHURN_BASE: i64 = 1_000;

/// Calling-thread allocations per token read: SELECT a read token, open,
/// read 4 KiB, close — the measured 29 plus a 10 % margin. The open and
/// the close touch DLFM's in-memory open table only; while they were two
/// repository transactions a read made 81 (189 while minidb copied a
/// schema, a row and a lock key per statement access).
const READ_BUDGET: u64 = 32;
/// Per update: SELECT a write token, open, write 4 KiB, close — the
/// measured 124–135 plus a 10 % margin (173–177 while the write's Sync
/// entry and token entry were repository rows, 399 on the copying row
/// path).
const UPDATE_BUDGET: u64 = 149;
/// Per link + unlink pair (two host transactions, each a DATALINK DML and
/// its commit): the measured 181–182 plus a 10 % margin (186–187 before,
/// 388 on the copying row path).
const LINK_UNLINK_BUDGET: u64 = 201;

fn path_of(key: i64) -> String {
    format!("/data/f{key:05}.bin")
}

fn url_of(key: i64) -> String {
    format!("dlfs://{SRV}{}", path_of(key))
}

struct Stack {
    sys: DataLinksSystem,
    fs: Arc<Lfs>,
    cred: Cred,
    payload: Vec<u8>,
}

impl Stack {
    fn build() -> Stack {
        let sys =
            DataLinksSystem::builder().file_server_with(FileServerSpec::new(SRV)).build().unwrap();
        let schema = Schema::new(
            TABLE,
            vec![
                Column::new("id", ColumnType::Int),
                Column::nullable(COLUMN, ColumnType::DataLink),
            ],
            "id",
        )
        .unwrap();
        sys.create_table(schema).unwrap();
        sys.define_datalink_column(
            TABLE,
            COLUMN,
            DlColumnOptions::new(ControlMode::Rdd).on_unlink(OnUnlink::Restore),
        )
        .unwrap();
        let cred = Cred::user(100);
        let raw = sys.raw_fs(SRV).unwrap();
        raw.mkdir_p(&Cred::root(), "/data", 0o777).unwrap();
        let payload = vec![b'x'; FILE_SIZE];
        for key in (0..FILES).chain(CHURN_BASE..CHURN_BASE + N as i64 + 1) {
            raw.write_file(&cred, &path_of(key), &payload).unwrap();
        }
        let fs = sys.fs(SRV).unwrap();
        let stack = Stack { sys, fs, cred, payload };
        for key in 0..FILES {
            stack.link(key);
        }
        stack
    }

    fn link(&self, key: i64) {
        let mut tx = self.sys.begin();
        tx.insert(TABLE, vec![Value::Int(key), Value::DataLink(url_of(key))]).unwrap();
        tx.commit().unwrap();
    }

    fn unlink(&self, key: i64) {
        let mut tx = self.sys.begin();
        tx.delete(TABLE, &Value::Int(key)).unwrap();
        tx.commit().unwrap();
    }

    fn read(&self, key: i64) {
        let (_, token_path) =
            self.sys.select_datalink(TABLE, &Value::Int(key), COLUMN, TokenKind::Read).unwrap();
        let fd = self.fs.open(&self.cred, &token_path, OpenOptions::read_only()).unwrap();
        let data = self.fs.read_to_end(fd).unwrap();
        self.fs.close(fd).unwrap();
        assert_eq!(data.len(), FILE_SIZE);
    }

    fn update(&self, key: i64) {
        let (_, token_path) =
            self.sys.select_datalink(TABLE, &Value::Int(key), COLUMN, TokenKind::Write).unwrap();
        let fd = self.fs.open(&self.cred, &token_path, OpenOptions::write_truncate()).unwrap();
        assert_eq!(self.fs.write(fd, &self.payload).unwrap(), FILE_SIZE);
        self.fs.close(fd).unwrap();
    }
}

/// Calling-thread allocations per call of `op`, over `N` calls.
fn per_op(mut op: impl FnMut(u64)) -> u64 {
    let before = allocs();
    for i in 0..N {
        op(i);
    }
    (allocs() - before) / N
}

#[test]
fn paper_operations_stay_inside_their_allocation_budgets() {
    let stack = Stack::build();
    // Warm-up: every table, index, lock-table slot and log buffer the
    // measured rounds use has grown to size.
    for key in 0..FILES {
        stack.read(key);
        stack.update(key);
    }
    stack.link(CHURN_BASE + N as i64);
    stack.unlink(CHURN_BASE + N as i64);

    let file = |i: u64| (i as i64 * 7) % FILES;
    let read = per_op(|i| stack.read(file(i)));
    let update = per_op(|i| stack.update(file(i)));
    let link_unlink = per_op(|i| {
        stack.link(CHURN_BASE + i as i64);
        stack.unlink(CHURN_BASE + i as i64);
    });
    println!("allocations per op: read {read}, update {update}, link + unlink {link_unlink}");
    assert!(read <= READ_BUDGET, "a token read made {read} allocations (budget {READ_BUDGET})");
    assert!(
        update <= UPDATE_BUDGET,
        "an update made {update} allocations (budget {UPDATE_BUDGET})"
    );
    assert!(
        link_unlink <= LINK_UNLINK_BUDGET,
        "a link + unlink made {link_unlink} allocations (budget {LINK_UNLINK_BUDGET})"
    );
}
