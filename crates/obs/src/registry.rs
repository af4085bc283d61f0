//! The process-wide metric namespace: adopted instruments, sampler
//! closures, and mergeable snapshots with text exposition.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

/// A counter sampler: reads a live total out of an existing stats struct.
type CounterFn = Box<dyn Fn() -> u64 + Send + Sync>;
/// A gauge sampler: reads a live level.
type GaugeFn = Box<dyn Fn() -> f64 + Send + Sync>;
/// A histogram sampler: snapshots a distribution owned elsewhere.
type HistogramFn = Box<dyn Fn() -> HistogramSnapshot + Send + Sync>;

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
    counter_fns: BTreeMap<String, CounterFn>,
    gauge_fns: BTreeMap<String, GaugeFn>,
    histogram_fns: BTreeMap<String, HistogramFn>,
}

/// The namespace every layer's instruments are adopted into.
///
/// Metric names are dotted paths, `layer.node.metric` by convention
/// (`dlfm.srv1.prepares`, `minidb.host.fsync_ns`). Components create and
/// own their instruments; the assembled system registers them here, either
/// by sharing the `Arc` directly or through a sampler closure over an
/// existing stats struct. Registration is replace-on-register: when a
/// failover rebuilds a node, the new node's instruments take over the
/// names and the dead node's drop away.
///
/// All methods take `&self`; an `Arc<Registry>` is shared freely.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adopts an instrument the caller owns (shared by `Arc`).
    pub fn register_counter(&self, name: &str, c: Arc<Counter>) {
        self.lock().counters.insert(name.to_string(), c);
    }

    /// Adopts a gauge the caller owns.
    pub fn register_gauge(&self, name: &str, g: Arc<Gauge>) {
        self.lock().gauges.insert(name.to_string(), g);
    }

    /// Adopts a histogram the caller owns.
    pub fn register_histogram(&self, name: &str, h: Arc<Histogram>) {
        self.lock().histograms.insert(name.to_string(), h);
    }

    /// Registers a sampler read as a counter total at snapshot time. Use
    /// for existing stats structs whose fields are already atomics.
    pub fn register_counter_fn(&self, name: &str, f: impl Fn() -> u64 + Send + Sync + 'static) {
        self.lock().counter_fns.insert(name.to_string(), Box::new(f));
    }

    /// Registers a sampler read as a gauge level at snapshot time.
    pub fn register_gauge_fn(&self, name: &str, f: impl Fn() -> f64 + Send + Sync + 'static) {
        self.lock().gauge_fns.insert(name.to_string(), Box::new(f));
    }

    /// Registers a sampler read as a histogram snapshot at snapshot time.
    pub fn register_histogram_fn(
        &self,
        name: &str,
        f: impl Fn() -> HistogramSnapshot + Send + Sync + 'static,
    ) {
        self.lock().histogram_fns.insert(name.to_string(), Box::new(f));
    }

    /// The registry-owned counter called `name`, created on first use.
    /// For values with no natural owner (`system.failovers`).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(
            self.lock()
                .counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// The registry-owned gauge called `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(
            self.lock().gauges.entry(name.to_string()).or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// The registry-owned histogram called `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Arc::clone(
            self.lock()
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Drops every metric under `prefix.` — used when a node is torn down
    /// for good rather than replaced.
    pub fn unregister_prefix(&self, prefix: &str) {
        let dotted = format!("{prefix}.");
        let mut inner = self.lock();
        inner.counters.retain(|k, _| !k.starts_with(&dotted));
        inner.gauges.retain(|k, _| !k.starts_with(&dotted));
        inner.histograms.retain(|k, _| !k.starts_with(&dotted));
        inner.counter_fns.retain(|k, _| !k.starts_with(&dotted));
        inner.gauge_fns.retain(|k, _| !k.starts_with(&dotted));
        inner.histogram_fns.retain(|k, _| !k.starts_with(&dotted));
    }

    /// Reads every instrument and sampler into one frozen [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        let mut snap = Snapshot::default();
        for (name, c) in &inner.counters {
            snap.counters.insert(name.clone(), c.get());
        }
        for (name, f) in &inner.counter_fns {
            snap.counters.insert(name.clone(), f());
        }
        for (name, g) in &inner.gauges {
            snap.gauges.insert(name.clone(), g.get() as f64);
        }
        for (name, f) in &inner.gauge_fns {
            snap.gauges.insert(name.clone(), f());
        }
        for (name, h) in &inner.histograms {
            snap.histograms.insert(name.clone(), h.snapshot());
        }
        for (name, f) in &inner.histogram_fns {
            snap.histograms.insert(name.clone(), f());
        }
        snap
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("Registry")
            .field("counters", &(inner.counters.len() + inner.counter_fns.len()))
            .field("gauges", &(inner.gauges.len() + inner.gauge_fns.len()))
            .field("histograms", &(inner.histograms.len() + inner.histogram_fns.len()))
            .finish()
    }
}

/// Rewrites a dotted metric name into the `[a-zA-Z0-9_]` alphabet of the
/// text exposition: every non-alphanumeric byte
/// becomes `_` (`dlfm.srv1.prepares` → `dlfm_srv1_prepares`).
pub fn flat_name(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

/// A frozen read of a [`Registry`]: every counter total, gauge level and
/// histogram distribution at one instant.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter totals by dotted name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by dotted name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram distributions by dotted name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Flattens everything into `flat_name → f64`, the names a test gates
    /// on. Counters and gauges map 1:1; each histogram expands into
    /// `<name>_p50`, `<name>_p99`, `<name>_p999`, `<name>_mean` and
    /// `<name>_count` (empty histograms report zeros, so the names are
    /// always present for asserts).
    pub fn flatten(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (name, v) in &self.counters {
            out.insert(flat_name(name), *v as f64);
        }
        for (name, v) in &self.gauges {
            out.insert(flat_name(name), *v);
        }
        for (name, h) in &self.histograms {
            let base = flat_name(name);
            out.insert(format!("{base}_p50"), h.percentile(0.50) as f64);
            out.insert(format!("{base}_p99"), h.percentile(0.99) as f64);
            out.insert(format!("{base}_p999"), h.percentile(0.999) as f64);
            out.insert(format!("{base}_mean"), h.mean());
            out.insert(format!("{base}_count"), h.count as f64);
        }
        out
    }

    /// Prometheus-style text exposition: one `name value` line per counter
    /// and gauge, and per histogram a `_count`, `_sum` and quantile lines.
    /// Names use the flat alphabet; lines are sorted, output is stable.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = flat_name(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = flat_name(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let n = flat_name(name);
            out.push_str(&format!("# TYPE {n} summary\n"));
            for (q, p) in [("0.5", 0.50), ("0.99", 0.99), ("0.999", 0.999)] {
                out.push_str(&format!("{n}{{quantile=\"{q}\"}} {}\n", h.percentile(p)));
            }
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_adopts_and_samples() {
        let reg = Registry::new();
        let owned = Arc::new(Counter::new());
        owned.add(3);
        reg.register_counter("dlfm.srv1.prepares", Arc::clone(&owned));
        reg.register_counter_fn("engine.links", || 7);
        reg.register_gauge_fn("repl.srv1.lag_bytes", || 42.0);
        let h = Arc::new(Histogram::new());
        h.record(1000);
        reg.register_histogram("minidb.host.fsync_ns", Arc::clone(&h));

        let snap = reg.snapshot();
        assert_eq!(snap.counters["dlfm.srv1.prepares"], 3);
        assert_eq!(snap.counters["engine.links"], 7);
        assert_eq!(snap.gauges["repl.srv1.lag_bytes"], 42.0);
        assert_eq!(snap.histograms["minidb.host.fsync_ns"].count, 1);
    }

    #[test]
    fn replace_on_register_latest_wins() {
        let reg = Registry::new();
        reg.register_counter_fn("dlfm.srv1.prepares", || 1);
        reg.register_counter_fn("dlfm.srv1.prepares", || 9);
        assert_eq!(reg.snapshot().counters["dlfm.srv1.prepares"], 9);
    }

    #[test]
    fn owned_counter_persists_across_snapshots() {
        let reg = Registry::new();
        reg.counter("system.failovers").inc();
        reg.counter("system.failovers").inc();
        assert_eq!(reg.snapshot().counters["system.failovers"], 2);
    }

    #[test]
    fn flatten_and_exposition() {
        let reg = Registry::new();
        reg.counter("dlfm.srv1.fence_rejections").add(2);
        let h = reg.histogram("engine.freshness_wait_ns");
        h.record(100);
        let snap = reg.snapshot();
        let flat = snap.flatten();
        assert_eq!(flat["dlfm_srv1_fence_rejections"], 2.0);
        assert!(flat["engine_freshness_wait_ns_p99"] >= 100.0);
        assert_eq!(flat["engine_freshness_wait_ns_count"], 1.0);
        let text = snap.render_text();
        assert!(text.contains("dlfm_srv1_fence_rejections 2"));
        assert!(text.contains("engine_freshness_wait_ns{quantile=\"0.99\"}"));
        assert!(text.contains("engine_freshness_wait_ns_count 1"));
    }

    #[test]
    fn unregister_prefix_drops_node_metrics() {
        let reg = Registry::new();
        reg.counter("dlfm.srv1.prepares").inc();
        reg.counter("dlfm.srv2.prepares").inc();
        reg.unregister_prefix("dlfm.srv1");
        let snap = reg.snapshot();
        assert!(!snap.counters.contains_key("dlfm.srv1.prepares"));
        assert!(snap.counters.contains_key("dlfm.srv2.prepares"));
    }
}
