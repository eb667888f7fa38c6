//! Typed metric instruments: counters, gauges, and log-bucketed
//! histograms.
//!
//! Every instrument is a thin handle around an `Arc`'d atomic cell, so
//! handles can be cached by hot-path callers and updated without taking
//! any lock. The registry lock is only touched when a handle is first
//! created.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge: an instantaneous `f64` that can be set or accumulated
/// (accumulation covers §3.3-style cost accrual, where the quantity is
/// fractional but only ever grows).
#[derive(Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }
}

impl Gauge {
    /// Replace the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `v` to the value (compare-and-swap loop; contention on a
    /// gauge is rare and short).
    pub fn add(&self, v: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + v).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets: bucket 0 holds exact zeros, bucket `i`
/// (1 ≤ i ≤ 64) holds values in `[2^(i-1), 2^i - 1]`.
pub const NUM_BUCKETS: usize = 65;

/// Bucket index for a value (log₂ bucketing).
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket.
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

struct HistogramCore {
    buckets: [AtomicU64; NUM_BUCKETS],
    /// Largest observation seen per bucket (0 when the bucket is empty),
    /// so percentile estimates clamp to real extremes instead of bucket
    /// upper bounds.
    bucket_max: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` until the first observation.
    min: AtomicU64,
    max: AtomicU64,
}

/// A log-bucketed histogram of non-negative integer observations
/// (latencies in ms or µs, payload sizes in bytes, result counts).
///
/// Buckets double in width, so percentile estimates are exact to within
/// a factor of two: for any quantile `q`, `true ≤ estimate ≤ 2·true`
/// (see the percentile property test).
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            core: Arc::new(HistogramCore {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                bucket_max: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let c = &self.core;
        let i = bucket_index(v);
        c.buckets[i].fetch_add(1, Ordering::Relaxed);
        c.bucket_max[i].fetch_max(v, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.min.fetch_min(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// [`HistogramValues::percentile`] read straight off the atomics,
    /// without copying the buckets out.
    pub fn percentile(&self, q: f64) -> u64 {
        let c = &self.core;
        let count = c.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum();
        let buckets = c
            .buckets
            .iter()
            .zip(&c.bucket_max)
            .map(|(n, m)| (n.load(Ordering::Relaxed), m.load(Ordering::Relaxed)));
        nearest_rank(q, count, c.max.load(Ordering::Relaxed), buckets)
    }

    /// A consistent-enough copy of the distribution (individual loads
    /// are relaxed; concurrent observers may be off by in-flight
    /// updates, which is fine for monitoring).
    pub fn snapshot_values(&self) -> HistogramValues {
        let c = &self.core;
        let buckets: Vec<u64> = c
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        let bucket_max: Vec<u64> = c
            .bucket_max
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let min = c.min.load(Ordering::Relaxed);
        HistogramValues {
            count,
            sum: c.sum.load(Ordering::Relaxed),
            min: if min == u64::MAX { 0 } else { min },
            max: c.max.load(Ordering::Relaxed),
            buckets,
            bucket_max,
        }
    }
}

/// The frozen numbers behind a histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramValues {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Per-bucket counts, indexed as [`bucket_index`].
    pub buckets: Vec<u64>,
    /// Largest observation per bucket (0 for empty buckets), indexed as
    /// [`bucket_index`].
    pub bucket_max: Vec<u64>,
}

impl HistogramValues {
    /// Estimate the `q`-quantile (0 < q ≤ 1): the largest *observed*
    /// value in the bucket holding the ⌈q·count⌉-th smallest
    /// observation, clamped to the bucket's upper bound and the global
    /// observed maximum — so the estimate is a real extreme of the
    /// distribution, never an artificial power-of-two bound. Returns 0
    /// for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        let bucket_max = self.bucket_max.iter().copied().chain(std::iter::repeat(0));
        let buckets = self.buckets.iter().copied().zip(bucket_max);
        nearest_rank(q, self.count, self.max, buckets)
    }
}

/// The one nearest-rank walk behind both percentile readers, over
/// `(count, observed max)` per bucket in [`bucket_index`] order.
fn nearest_rank(q: f64, count: u64, max: u64, buckets: impl Iterator<Item = (u64, u64)>) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, (n, bucket_max)) in buckets.enumerate() {
        seen += n;
        if seen >= rank {
            let upper = bucket_upper_bound(i).min(max);
            // An in-flight concurrent observe can leave the per-bucket
            // max momentarily behind the count; fall back to the bucket
            // bound in that window.
            return match bucket_max {
                0 => upper,
                m => m.min(upper),
            };
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::default();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        // Clones share the cell.
        let c2 = c.clone();
        c2.inc();
        assert_eq!(c.get(), 43);
    }

    #[test]
    fn gauge_sets_and_accrues() {
        let g = Gauge::default();
        g.set(2.5);
        g.add(1.25);
        assert!((g.get() - 3.75).abs() < 1e-12);
    }

    #[test]
    fn bucket_bounds_cover_the_axis() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for v in [0u64, 1, 2, 3, 100, 1023, 1024, u64::MAX / 2] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i));
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1));
            }
        }
    }

    #[test]
    fn histogram_basic_percentiles() {
        let h = Histogram::default();
        for v in [10u64, 20, 30, 40, 1000] {
            h.observe(v);
        }
        let s = h.snapshot_values();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1100);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 1000);
        // p50 lands in the bucket of 30 ([16,31]); the bucket's observed
        // max is the exact order statistic here.
        assert_eq!(s.percentile(0.5), 30);
        // p99 lands in the last bucket, clamped to the max.
        assert_eq!(s.percentile(0.99), 1000);
    }

    #[test]
    fn percentiles_clamp_to_observed_extremes() {
        // A single repeated value: every quantile is that exact value,
        // not its bucket's power-of-two upper bound.
        let h = Histogram::default();
        for _ in 0..100 {
            h.observe(70); // bucket [64,127]
        }
        let s = h.snapshot_values();
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(s.percentile(q), 70);
        }
        // Two buckets: the p50 bucket's own max bounds the estimate.
        let h = Histogram::default();
        for v in [65u64, 100, 9000, 9000] {
            h.observe(v);
        }
        let s = h.snapshot_values();
        assert_eq!(s.percentile(0.5), 100);
        assert_eq!(s.percentile(0.99), 9000);
    }

    #[test]
    fn in_place_percentiles_equal_the_snapshots() {
        let fixtures: [&[u64]; 4] = [
            &[10, 20, 30, 40, 1000],
            &[70; 100],
            &[65, 100, 9000, 9000],
            &[],
        ];
        for values in fixtures {
            let h = Histogram::default();
            for &v in values {
                h.observe(v);
            }
            let s = h.snapshot_values();
            for q in [0.5, 0.95, 0.99] {
                assert_eq!(h.percentile(q), s.percentile(q), "{values:?} at {q}");
            }
        }
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let s = Histogram::default().snapshot_values();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.percentile(0.5), 0);
    }
}
