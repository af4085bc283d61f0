//! The one test host. A `DlfmServer` always runs under a host database
//! (`HostHook`); tests that build a server without the DataLinks engine
//! give it a [`MemHost`]. Each such test crate includes this file with
//! `#[path = ".../support/mem_host.rs"] mod mem_host;`, and its crate root
//! names `HostHook`.
#![allow(dead_code)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A host whose committed `__dl_meta` rows are a map from file URL to
/// version. A commit moves the state id and records the row. `park` holds
/// each commit's thread that long first, as a forced log write would;
/// `fail` makes every commit fail.
#[derive(Default)]
pub struct MemHost {
    rows: Mutex<HashMap<String, u64>>,
    state: AtomicU64,
    park: Duration,
    fail: bool,
}

impl MemHost {
    pub fn new() -> Arc<MemHost> {
        Arc::default()
    }

    /// A host that already committed `rows`: (URL, version).
    pub fn with_rows(rows: &[(&str, u64)]) -> Arc<MemHost> {
        let rows = rows.iter().map(|(url, version)| (url.to_string(), *version)).collect();
        Arc::new(MemHost { rows: Mutex::new(rows), ..MemHost::default() })
    }

    /// A host whose every commit parks its thread for `park` first.
    pub fn parked(park: Duration) -> Arc<MemHost> {
        Arc::new(MemHost { park, ..MemHost::default() })
    }

    /// A host whose every commit fails.
    pub fn failing() -> Arc<MemHost> {
        Arc::new(MemHost { fail: true, ..MemHost::default() })
    }
}

impl crate::HostHook for MemHost {
    fn state_id(&self) -> u64 {
        self.state.load(Ordering::SeqCst)
    }

    fn commit_file_update(
        &self,
        url: &str,
        _size: u64,
        _mtime: u64,
        version: u64,
    ) -> Result<u64, String> {
        if self.fail {
            return Err("host metadata update failed".into());
        }
        std::thread::sleep(self.park);
        self.rows.lock().unwrap().insert(url.to_string(), version);
        Ok(self.state.fetch_add(1, Ordering::SeqCst) + 1)
    }

    fn file_version(&self, url: &str) -> Option<u64> {
        self.rows.lock().unwrap().get(url).copied()
    }

    fn abort_undecided(&self, _host_txid: u64) {}
}
