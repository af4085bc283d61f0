//! The metric tables: every end-to-end metric with its regression bound
//! and every per-layer metric, in the order they are printed. These must
//! agree with `BENCHMARK.json` at the repo root (a unit test checks).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Reported by `--trace 0` on every
/// workload, so only what every workload has: all four run update cycles;
/// reads, links and unlinks do not occur everywhere and are reported as
/// `e2e.*` rows of the per-layer set instead. So is the update p99: on
/// this sandbox it spreads 4–20 % run to run (README, "noise"), too close
/// to the widest bound a gated metric may have.
pub const END_TO_END: &[MetricDef] = &[
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("update_p50_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.05),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-op counts of the traced pass (one client, quiesced pools): two runs
/// with one seed must report them identically, digit for digit.
pub const EXACT_COUNTS: &[&str] = &[
    "core.meta_updates_per_update",
    "core.tokens_per_op",
    "dlfs.upcalls_per_update",
    "dlfs.upcalls_per_read",
    "dlfm.archives_per_update",
    "net.frames_per_lifecycle",
    "net.bytes_per_lifecycle",
    "minidb.host_fsyncs_per_update",
    "minidb.repo_fsyncs_per_update",
    "minidb.fsyncs_per_read",
    "minidb.fsyncs_per_link",
    "minidb.fsyncs_per_unlink",
    "minidb.wal_bytes_per_update",
    "minidb.wal_bytes_per_read",
    "minidb.wal_bytes_per_link",
    "fskit.ops_per_update",
];

/// Layer = crate. `0` where a metric does not apply to the workload.
pub const PER_LAYER: &[MetricDef] = &[
    // Client-visible latencies that are not gated (two clients, untraced,
    // one episode): the update tail, and the op types that not every
    // workload runs.
    layer("e2e.update_p99_us", "us", Lower),
    layer("e2e.read_p50_us", "us", Lower),
    layer("e2e.read_p99_us", "us", Lower),
    layer("e2e.link_p50_us", "us", Lower),
    layer("e2e.link_p99_us", "us", Lower),
    layer("e2e.unlink_p50_us", "us", Lower),
    layer("e2e.unlink_p99_us", "us", Lower),
    layer("core.select_token_us", "us", Lower),
    layer("core.link_dml_us", "us", Lower),
    layer("core.link_commit_us", "us", Lower),
    layer("core.unlink_dml_us", "us", Lower),
    layer("core.unlink_commit_us", "us", Lower),
    layer("core.meta_updates_per_update", "count", Lower),
    layer("core.tokens_per_op", "count", Lower),
    layer("core.recover_ms", "ms", Lower),
    layer("dlfs.open_write_us", "us", Lower),
    layer("dlfs.open_read_us", "us", Lower),
    layer("dlfs.close_write_us", "us", Lower),
    layer("dlfs.close_read_us", "us", Lower),
    layer("dlfs.upcalls_per_update", "count", Lower),
    layer("dlfs.upcalls_per_read", "count", Lower),
    layer("dlfs.busy_waits_per_kop", "count", Lower),
    layer("dlfm.validate_token_us", "us", Lower),
    layer("dlfm.agent_2pc_us", "us", Lower),
    layer("dlfm.upcall_rtt_p50_us", "us", Lower),
    layer("dlfm.upcall_pool_peak_workers", "count", Lower),
    layer("dlfm.executor_peak_threads", "count", Lower),
    layer("dlfm.busy_responses_per_kop", "count", Lower),
    layer("dlfm.archives_per_update", "count", Lower),
    layer("dlfm.archive_drain_ms", "ms", Lower),
    layer("net.codec_us", "us", Lower),
    layer("net.null_rtt_us", "us", Lower),
    layer("net.frames_per_lifecycle", "count", Lower),
    layer("net.bytes_per_lifecycle", "B", Lower),
    layer("net.client_rtt_p50_us", "us", Lower),
    layer("net.backpressure_stalls", "count", Lower),
    layer("net.decode_errors", "count", Lower),
    layer("minidb.bare_commit_us", "us", Lower),
    layer("minidb.host_fsyncs_per_update", "count", Lower),
    layer("minidb.repo_fsyncs_per_update", "count", Lower),
    layer("minidb.fsyncs_per_read", "count", Lower),
    layer("minidb.fsyncs_per_link", "count", Lower),
    layer("minidb.fsyncs_per_unlink", "count", Lower),
    layer("minidb.wal_bytes_per_update", "B", Lower),
    layer("minidb.wal_bytes_per_read", "B", Lower),
    layer("minidb.wal_bytes_per_link", "B", Lower),
    layer("minidb.fsync_p50_us", "us", Lower),
    layer("minidb.batch_frames_mean", "count", Higher),
    layer("minidb.checkpoints", "count", Lower),
    layer("minidb.checkpoint_p50_ms", "ms", Lower),
    layer("minidb.checkpoint_max_ms", "ms", Lower),
    layer("minidb.wal_retained_kb", "KiB", Lower),
    layer("repl.bytes_shipped_per_update", "B", Lower),
    layer("repl.records_shipped", "count", Lower),
    layer("repl.drain_ms", "ms", Lower),
    layer("repl.end_lag_bytes", "B", Lower),
    layer("fskit.write_4k_us", "us", Lower),
    layer("fskit.read_4k_us", "us", Lower),
    layer("fskit.ops_per_update", "count", Lower),
    layer("proc.cpu_ms_per_kop", "ms", Lower),
    layer("proc.threads_peak", "count", Lower),
    layer("trace.unexplained_pct", "%", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::WORKLOADS;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn section(name: &str) -> &'static str {
        let start = BENCHMARK_JSON.find(&format!("\"{name}\": [")).expect(name);
        let len = BENCHMARK_JSON[start..].find("\n  ]").expect("section end");
        &BENCHMARK_JSON[start..start + len]
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_in_order() {
        for (name, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let text = section(name);
            assert_eq!(text.matches("\"name\":").count(), defs.len(), "{name}");
            let mut at = 0;
            for def in defs {
                let mut entry = format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    def.name,
                    def.unit,
                    def.better.name()
                );
                if let Some(bound) = def.bound {
                    entry += &format!(", \"bound\": {bound}");
                }
                entry.push('}');
                at += text[at..]
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{entry} missing or misplaced"));
            }
        }
        assert!(END_TO_END.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(EXACT_COUNTS.iter().all(|c| PER_LAYER.iter().any(|d| d.name == *c)));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads() {
        let text = section("workloads");
        assert_eq!(text.matches("\"name\":").count(), WORKLOADS.len());
        for w in WORKLOADS {
            assert!(
                text.contains(&format!("{{\"name\": \"{}\", \"why\": \"", w.name())),
                "{}",
                w.name()
            );
        }
    }
}
