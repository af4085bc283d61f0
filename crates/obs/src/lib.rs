//! Unified telemetry for the DataLinks reproduction.
//!
//! The paper's architecture spans four cooperating layers — host database
//! coordinator, DLFM, the DLFS filter and the archive — and a fault that
//! matters (a fenced zombie coordinator, a group-commit stall, a lagging
//! standby) always crosses at least two of them. This crate is the one
//! measurement substrate they all share:
//!
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — lock-free instruments cheap
//!   enough for commit paths: counters shard across cache lines, histograms
//!   bucket logarithmically (bounded relative error, mergeable snapshots
//!   with p50/p99/p999).
//! * [`Registry`] — a process-wide namespace of instruments. Components own
//!   their instruments (they must work with no registry in sight); the
//!   assembled system *adopts* them under `layer.node.metric` names, either
//!   directly (`Arc`-shared) or through sampler closures over existing
//!   stats structs. [`Registry::snapshot`] returns a [`Snapshot`] with
//!   Prometheus-style text exposition and a flat `f64` view under the same
//!   `[a-z0-9_]` names.
//! * [`NetStats`] — the wire transport's per-connection instruments
//!   (frames in/out, decode errors, backpressure stalls, round-trip
//!   latency), shared by a reactor and all of its connections and adopted
//!   under `net.<node>.*` names.
//! * [`FlightRecorder`] — a per-node ring buffer of [`SpanEvent`]s tracing
//!   one link/unlink/update through the full 2PC cycle (coordinator
//!   enlist → DLFM claim → WAL commit → archive → decision). The system
//!   facade dumps every recorder automatically on `crash` / `fail_over` /
//!   `fail_over_host`, so each failover test yields a postmortem trace.
//!
//! The crate is dependency-free (std only) and sits below every other
//! workspace crate.

mod metrics;
mod net;
mod registry;
mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use net::NetStats;
pub use registry::{flat_name, Registry, Snapshot};
pub use trace::{FlightRecorder, SpanEvent};
