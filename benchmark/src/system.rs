//! Topology and seeding: builds the system a workload runs on, through
//! `DataLinksSystem::builder` only, and lays down its files.

use std::sync::Arc;

use datalinks::core::{DataLinksSystem, DlColumnOptions, FileServerSpec};
use datalinks::dlfm::{ControlMode, OnUnlink, Transport};
use datalinks::fskit::{Cred, Lfs};
use datalinks::minidb::{Column, ColumnType, Schema, StorageEnv, Value};

use crate::ops::{Workload, BASE_FILES, CHURN_FILES, CLIENTS};
use crate::stamp::Stamp;

pub const SRV: &str = "srv";
pub const TABLE: &str = "docs";
pub const COLUMN: &str = "body";
/// What one simulated device sync costs on `uip_durable` (a `sleep`, so
/// the process timer slack must be pinned — see `proc::pin_timer_slack`).
pub const SYNC_LATENCY_NS: u64 = 100_000;
const CHURN_KEY_BASE: i64 = 1_000_000;

/// The credential client `c` runs as. Distinct uids: DLFM keys token
/// entries by userid, as it would for two real users.
pub fn client_cred(c: usize) -> Cred {
    Cred::user(100 + c as u32)
}

pub fn base_path(i: u32) -> String {
    format!("/data/base{i:04}.bin")
}

pub fn churn_path(client: usize, i: u32) -> String {
    format!("/churn/c{client}/f{i:04}.bin")
}

pub fn churn_key(client: usize, i: u32) -> Value {
    Value::Int(CHURN_KEY_BASE + (client as i64) * CHURN_FILES as i64 + i as i64)
}

pub fn url_of(path: &str) -> String {
    format!("dlfs://{SRV}{path}")
}

impl Workload {
    /// The flush policy, part of the workload's identity: `uip_durable`
    /// pays a simulated 100 µs per forced log write on both the host and
    /// the repository WAL; the other three sync for free.
    pub fn storage_env(self) -> StorageEnv {
        match self {
            Workload::UipDurable => StorageEnv::mem_with_sync_latency(SYNC_LATENCY_NS),
            _ => StorageEnv::mem(),
        }
    }

    fn replicas(self) -> usize {
        usize::from(self == Workload::UipDurable)
    }

    fn transport(self) -> Transport {
        match self {
            Workload::LifecycleWire => Transport::Socket,
            _ => Transport::Local,
        }
    }
}

/// A built and seeded system.
pub struct Bench {
    pub workload: Workload,
    pub sys: DataLinksSystem,
    pub fs: Arc<Lfs>,
}

/// Builds the workload's topology, creates the DATALINK table, seeds and
/// links the base files and (for the lifecycle workloads) pre-creates
/// every client's private churn files, unlinked.
pub fn build(workload: Workload) -> Result<Bench, String> {
    let mut spec =
        FileServerSpec::new(SRV).replicas(workload.replicas()).transport(workload.transport());
    spec.repo_env = workload.storage_env();
    let sys = DataLinksSystem::builder()
        .host_env(workload.storage_env())
        .file_server_with(spec)
        .build()?;

    sys.create_table(
        Schema::new(
            TABLE,
            vec![
                Column::new("id", ColumnType::Int),
                Column::nullable(COLUMN, ColumnType::DataLink),
            ],
            "id",
        )
        .map_err(|e| e.to_string())?,
    )?;
    sys.define_datalink_column(
        TABLE,
        COLUMN,
        DlColumnOptions::new(ControlMode::Rdd).on_unlink(OnUnlink::Restore),
    )?;

    let raw = sys.raw_fs(SRV)?;
    let seed = Stamp::seed().encode();
    raw.mkdir_p(&Cred::root(), "/data", 0o777).map_err(|e| e.to_string())?;
    for i in 0..BASE_FILES {
        let path = base_path(i);
        // Owned by the client that will update it most (ownership is
        // taken over by DLFM at link time; this is what unlink restores).
        let owner = client_cred(i as usize * CLIENTS / BASE_FILES as usize);
        raw.write_file(&owner, &path, &seed).map_err(|e| e.to_string())?;
        let mut tx = sys.begin();
        tx.insert(TABLE, vec![Value::Int(i as i64), Value::DataLink(url_of(&path))])
            .map_err(|e| e.to_string())?;
        tx.commit().map_err(|e| e.to_string())?;
    }
    if workload.is_lifecycle() {
        for c in 0..CLIENTS {
            raw.mkdir_p(&Cred::root(), &format!("/churn/c{c}"), 0o777)
                .map_err(|e| e.to_string())?;
            for i in 0..CHURN_FILES {
                raw.write_file(&client_cred(c), &churn_path(c, i), &seed)
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    let fs = sys.fs(SRV)?;
    Ok(Bench { workload, sys, fs })
}
