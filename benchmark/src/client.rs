//! One closed-loop client: executes generated ops through the public API
//! (`select_datalink`, `fs(..).open/write/read_to_end/close`,
//! `begin()/insert/delete/commit`), times each from the first call to the
//! last reply, and checks what it reads.

use std::time::Instant;

use datalinks::dlfm::TokenKind;
use datalinks::fskit::{Cred, OpenOptions};
use datalinks::minidb::Value;

use crate::ops::{Op, OpKind, Workload, BASE_FILES, CHURN_FILES};
use crate::stamp::{Stamp, NO_CLIENT};
use crate::system::{base_path, churn_key, churn_path, client_cred, url_of, Bench, COLUMN, TABLE};
use crate::trace::Recorder;

pub struct Client {
    pub id: usize,
    cred: Cred,
    workload: Workload,
    next_seq: u64,
    /// Seq of this client's last acknowledged update per file (0 = none):
    /// base files for `uip_durable`/`read_mix`, the client's own churn
    /// files for `lifecycle_*`.
    pub acked: Vec<u64>,
    pub rec: Recorder,
}

impl Client {
    pub fn new(workload: Workload, id: usize, rec: Recorder) -> Client {
        let files = if workload.is_lifecycle() { CHURN_FILES } else { BASE_FILES };
        Client {
            id,
            cred: client_cred(id),
            workload,
            next_seq: 0,
            acked: vec![0; files as usize],
            rec,
        }
    }

    pub fn path_of(&self, file: u32) -> String {
        if self.workload.is_lifecycle() {
            churn_path(self.id, file)
        } else {
            base_path(file)
        }
    }

    fn key_of(&self, file: u32) -> Value {
        if self.workload.is_lifecycle() {
            churn_key(self.id, file)
        } else {
            Value::Int(file as i64)
        }
    }

    /// Executes `op`; returns its latency in nanoseconds — client call to
    /// reply, with payload construction and content checks outside the
    /// timed interval.
    pub fn run(&mut self, b: &Bench, op: Op) -> Result<u64, String> {
        let key = self.key_of(op.file);
        let file = op.file as usize;
        match op.kind {
            OpKind::Update => {
                let seq = self.next_seq + 1;
                let payload = Stamp { client: self.id as u32, seq }.encode();
                let (ns, res) = self.timed(op.kind, |c| c.update(b, &key, &payload));
                // A failed update still consumes its seq: its bytes may
                // have reached the file, and must never pass for acked.
                self.next_seq = seq;
                res?;
                self.acked[file] = seq;
                Ok(ns)
            }
            OpKind::Read => {
                let (ns, res) = self.timed(op.kind, |c| c.read(b, &key));
                self.check_read(op.file, &res?)?;
                Ok(ns)
            }
            OpKind::Link => {
                let row = vec![key, Value::DataLink(url_of(&self.path_of(op.file)))];
                let (ns, res) = self.timed(op.kind, |c| {
                    let mut tx = c.rec.call("begin", || b.sys.begin());
                    c.rec.call("insert", || tx.insert(TABLE, row)).map_err(|e| e.to_string())?;
                    c.rec.call("commit", || tx.commit()).map_err(|e| e.to_string())?;
                    Ok(())
                });
                res.map(|()| ns)
            }
            OpKind::Unlink => {
                let (ns, res) = self.timed(op.kind, |c| {
                    let mut tx = c.rec.call("begin", || b.sys.begin());
                    c.rec.call("delete", || tx.delete(TABLE, &key)).map_err(|e| e.to_string())?;
                    c.rec.call("commit", || tx.commit()).map_err(|e| e.to_string())?;
                    Ok(())
                });
                res.map(|()| ns)
            }
        }
    }

    fn timed<T>(
        &mut self,
        kind: OpKind,
        f: impl FnOnce(&mut Client) -> Result<T, String>,
    ) -> (u64, Result<T, String>) {
        let t0 = Instant::now();
        self.rec.begin_op(kind.name());
        let res = f(self);
        self.rec.end_op();
        (t0.elapsed().as_nanos() as u64, res)
    }

    /// The paper's update-in-place cycle: SELECT a write token, open (=
    /// begin), write, close (= commit).
    fn update(&mut self, b: &Bench, key: &Value, payload: &[u8]) -> Result<(), String> {
        let (_, token_path) = self.rec.call("select_datalink", || {
            b.sys.select_datalink(TABLE, key, COLUMN, TokenKind::Write)
        })?;
        let fd = self
            .rec
            .call("open", || b.fs.open(&self.cred, &token_path, OpenOptions::write_truncate()))
            .map_err(|e| e.to_string())?;
        let wrote = self.rec.call("write", || b.fs.write(fd, payload));
        let closed = self.rec.call("close", || b.fs.close(fd));
        match wrote {
            Ok(n) if n == payload.len() => closed.map_err(|e| e.to_string()),
            Ok(n) => Err(format!("short write: {n} of {} bytes", payload.len())),
            Err(e) => Err(e.to_string()),
        }
    }

    fn read(&mut self, b: &Bench, key: &Value) -> Result<Vec<u8>, String> {
        let (_, token_path) = self.rec.call("select_datalink", || {
            b.sys.select_datalink(TABLE, key, COLUMN, TokenKind::Read)
        })?;
        let fd = self
            .rec
            .call("open", || b.fs.open(&self.cred, &token_path, OpenOptions::read_only()))
            .map_err(|e| e.to_string())?;
        let data = self.rec.call("read_to_end", || b.fs.read_to_end(fd));
        let closed = self.rec.call("close", || b.fs.close(fd));
        let data = data.map_err(|e| e.to_string())?;
        closed.map_err(|e| e.to_string())?;
        Ok(data)
    }

    /// A read must return one uniform stamp. Content this client wrote
    /// must be at least as new as its last acknowledged update of the
    /// file (file writes are serialized, so an older stamp of its own
    /// means a lost update); untouched seed content means it never
    /// acknowledged one; another client's stamp is only possible where
    /// files are shared.
    fn check_read(&self, file: u32, data: &[u8]) -> Result<(), String> {
        let stamp =
            Stamp::verify(data).map_err(|e| format!("read of {}: {e:?}", self.path_of(file)))?;
        let acked = self.acked[file as usize];
        let ok = if stamp.client == self.id as u32 {
            stamp.seq >= acked && stamp.seq <= self.next_seq
        } else if stamp.client == NO_CLIENT {
            acked == 0
        } else {
            self.workload == Workload::ReadMix
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "stale read of {}: saw {stamp:?}, client {} last acked seq {acked}",
                self.path_of(file),
                self.id
            ))
        }
    }
}
