//! Lock-free instruments: sharded counters, gauges and log-bucketed
//! latency histograms with mergeable snapshots.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Shards per counter. Eight cache lines absorb the commit-path
/// contention of every committer count the benches drive (256 threads
/// hash 32-to-a-line; the win over a single line is what matters).
const SHARDS: usize = 8;

/// One counter shard on its own cache line, so two hot shards never
/// false-share.
#[repr(align(64))]
#[derive(Default)]
struct Shard(AtomicU64);

static SHARD_SEQ: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread picks a home shard once; round-robin assignment spreads
    /// thread pools evenly without hashing on the hot path.
    static HOME_SHARD: usize = SHARD_SEQ.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

/// A monotonically increasing event count, sharded across cache lines so
/// concurrent hot-path increments never contend on one atomic.
///
/// Reads ([`Counter::get`]) sum the shards — O(SHARDS), fine for snapshot
/// time, not meant for per-operation reads.
#[derive(Default)]
pub struct Counter {
    shards: [Shard; SHARDS],
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        let shard = HOME_SHARD.with(|s| *s);
        self.shards[shard].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total across all shards.
    pub fn get(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// A point-in-time level (pool size, queue depth, lag bytes): one atomic,
/// last write wins.
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the level to `v` if it is below it.
    #[inline]
    pub fn set_max(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

/// Sub-bucket resolution: 2 bits = 4 sub-buckets per power of two, so a
/// recorded value lands in a bucket whose width is at most 25% of the
/// value — the usual latency-histogram trade (HdrHistogram keeps more
/// bits; p99-style reporting doesn't need them).
const SUB_BITS: u32 = 2;
const SUB: usize = 1 << SUB_BITS;

/// Bucket count covering all of `u64`: values below `SUB` get exact
/// buckets, every higher octave contributes `SUB` buckets, and the top
/// index for `u64::MAX` is `(63 - SUB_BITS + 1) * SUB + SUB - 1 = 251`.
pub(crate) const BUCKETS: usize = 256;

/// The bucket a value lands in. Monotone in `v`; exact below `SUB`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = ((v >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    (msb - SUB_BITS + 1) as usize * SUB + sub
}

/// The largest value bucket `i` holds (what percentiles report: an upper
/// bound, never an underestimate).
fn bucket_bound(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let msb = (i / SUB) as u32 + SUB_BITS - 1;
    let sub = (i % SUB) as u64;
    let shift = msb - SUB_BITS;
    ((SUB as u64 + sub) << shift) + (1u64 << shift) - 1
}

/// A lock-free latency histogram: logarithmic buckets (4 per power of
/// two), atomic recording, snapshots that merge exactly (bucket-wise
/// addition), percentiles within bucket resolution (≤ 25% relative
/// error, reported as an upper bound).
///
/// Units are whatever the caller records — by convention nanoseconds for
/// durations (name the metric `*_ns`) and counts/bytes otherwise.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Histogram {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; BUCKETS]> =
            buckets.into_boxed_slice().try_into().expect("BUCKETS-sized");
        Histogram { buckets, sum: AtomicU64::new(0) }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// A point-in-time copy of the distribution. Concurrent recording may
    /// land an observation in the bucket array but not yet in the sum (or
    /// vice versa); counts and percentiles are exact for every observation
    /// that finished before the snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count = buckets.iter().sum();
        HistogramSnapshot { buckets, count, sum: self.sum.load(Ordering::Relaxed) }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("p99", &s.percentile(0.99))
            .finish()
    }
}

/// A frozen histogram: bucket counts plus the exact running sum.
/// Snapshots merge exactly — bucket-wise addition loses nothing — so
/// distributions from several runs or intervals combine into one set of
/// percentiles without keeping raw samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observation count per bucket (see [`Histogram`] for the layout).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Exact sum of all recorded values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: vec![0; BUCKETS], count: 0, sum: 0 }
    }
}

impl HistogramSnapshot {
    /// Folds `other` into `self` (exact: bucket-wise addition). Totals
    /// saturate rather than wrap, so a pathological sum degrades the mean,
    /// never panics or corrupts percentiles.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The value at quantile `p` (`0.0..=1.0`), as the upper bound of the
    /// bucket holding that rank — within 25% of the true value, never
    /// below it. Zero when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        bucket_bound(self.buckets.len().saturating_sub(1))
    }

    /// Exact mean of the recorded values (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let c = std::sync::Arc::new(Counter::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn bucket_index_is_monotone_and_bound_is_inverse() {
        for shift in 0u32..64 {
            for off in [0u64, 1, 2, 3] {
                let v = (1u64 << shift).saturating_add(off << shift.saturating_sub(3));
                let i = bucket_index(v);
                assert!(i >= bucket_index(v - 1), "index not monotone at {v}");
                assert!(bucket_bound(i) >= v, "bound {} below value {v}", bucket_bound(i));
                assert!(i < BUCKETS);
            }
        }
        // Exact small values.
        for v in 0..SUB as u64 {
            assert_eq!(bucket_bound(bucket_index(v)), v);
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn percentile_upper_bounds_within_resolution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        let p50 = s.percentile(0.5);
        let p99 = s.percentile(0.99);
        assert!((500..=625).contains(&p50), "p50 {p50}");
        assert!((990..=1279).contains(&p99), "p99 {p99}");
        assert!(s.percentile(1.0) >= 1000);
        assert_eq!(s.mean(), 500.5);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (a, b, both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [1u64, 7, 93, 12_000, 5_000_000] {
            a.record(v);
            both.record(v);
        }
        for v in [2u64, 7, 80_000] {
            b.record(v);
            both.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }
}
