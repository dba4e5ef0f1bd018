//! Lock-free log2-bucketed latency histograms with mergeable snapshots.
//!
//! The same HdrHistogram-style layout the simulator's measurement
//! containers use (32 linear sub-buckets per power of two, ~3 % bounded
//! relative error over the full `u64` range), but with atomic buckets so
//! one histogram can be recorded into from a hot worker lane while another
//! thread snapshots it for exposition. Recording is three relaxed atomic
//! RMWs plus two min/max updates — cheap enough for per-op use.
//!
//! [`HistogramSnapshot`] is the frozen view: plain `u64` buckets that can
//! be merged across lanes and queried for percentiles. All percentile
//! math lives on the snapshot so every consumer (benches, the metrics
//! exposition, the simulator) derives p50/p90/p99/p999 from one
//! implementation instead of three hand-rolled sorts.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of linear sub-buckets per power-of-two bucket.
pub const SUB_BUCKETS: u64 = 32;
const SUB_BUCKET_BITS: u32 = 5; // log2(SUB_BUCKETS)
/// Total bucket count covering the full `u64` range.
pub const BUCKETS: usize = (64 - SUB_BUCKET_BITS as usize + 1) * SUB_BUCKETS as usize;

/// Maps a sample to its bucket index.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    // Highest set bit determines the power-of-two bucket; the next
    // SUB_BUCKET_BITS bits select the linear sub-bucket within it.
    let msb = 63 - value.leading_zeros();
    let bucket = (msb - SUB_BUCKET_BITS + 1) as usize;
    let sub = ((value >> (msb - SUB_BUCKET_BITS)) - SUB_BUCKETS) as usize;
    SUB_BUCKETS as usize + (bucket - 1) * SUB_BUCKETS as usize + sub
}

/// Representative (midpoint) value of a bucket.
#[inline]
pub fn bucket_value(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_BUCKETS {
        return index;
    }
    let bucket = (index - SUB_BUCKETS) / SUB_BUCKETS + 1;
    let sub = (index - SUB_BUCKETS) % SUB_BUCKETS;
    // Midpoint of the bucket range for low bias.
    let base = (SUB_BUCKETS + sub) << (bucket - 1);
    let width = 1u64 << (bucket - 1);
    base + width / 2
}

/// A concurrently-recordable log-bucketed histogram of `u64` samples
/// (typically latencies in microseconds).
#[derive(Debug)]
pub struct Histogram {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Safe to call from many threads at once; the
    /// orderings are relaxed because snapshots only need eventual
    /// consistency, not a linearization point.
    #[inline]
    pub fn record(&self, value: u64) {
        self.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Freezes the current contents into a plain (mergeable, queryable)
    /// snapshot. Concurrent recorders may land between bucket reads; the
    /// snapshot normalizes `count` to the bucket total so percentiles stay
    /// internally consistent.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let count = counts.iter().sum();
        HistogramSnapshot {
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed) as u128,
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A frozen, mergeable view of a [`Histogram`]'s contents.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (useful as a merge accumulator).
    pub fn empty() -> Self {
        HistogramSnapshot {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample into the (plain, single-threaded) snapshot —
    /// lets benches reuse the exact same bucket/percentile math without
    /// paying for atomics.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at the given percentile (0–100), with the histogram's
    /// bucket-granularity error. Returns 0 for an empty snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_value(idx).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Merges another snapshot's samples into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (dst, &src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// The standard benchmark quantile set, in one call.
    pub fn quantiles(&self) -> Quantiles {
        Quantiles {
            count: self.count(),
            min: self.min(),
            mean: self.mean(),
            p50: self.percentile(50.0),
            p90: self.percentile(90.0),
            p99: self.percentile(99.0),
            p999: self.percentile(99.9),
            max: self.max(),
        }
    }
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

/// The quantile set every bench record carries (`BENCH_*.json`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantiles {
    /// Number of samples.
    pub count: u64,
    /// Minimum sample.
    pub min: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Maximum sample.
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_reports_zeros() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(50.0), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..SUB_BUCKETS {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), SUB_BUCKETS - 1);
        assert_eq!(s.percentile(50.0), 15);
    }

    #[test]
    fn percentiles_have_bounded_relative_error() {
        let h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        for (p, expected) in [
            (50.0, 50_000.0),
            (90.0, 90_000.0),
            (99.0, 99_000.0),
            (99.9, 99_900.0),
        ] {
            let got = s.percentile(p) as f64;
            let rel = (got - expected).abs() / expected;
            assert!(rel < 0.05, "p{p}: got {got}, expected {expected}");
        }
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        h.record(u64::MAX / 2);
        let s = h.snapshot();
        assert_eq!(s.count(), 3);
        assert_eq!(s.max(), u64::MAX);
        assert!(s.percentile(100.0) >= u64::MAX / 2);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), 40_000);
    }

    #[test]
    fn merge_combines_populations() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 1..=500u64 {
            a.record(v);
        }
        for v in 501..=1000u64 {
            b.record(v);
        }
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count(), 1000);
        assert_eq!(s.min(), 1);
        assert_eq!(s.max(), 1000);
        let p50 = s.percentile(50.0) as f64;
        assert!((p50 - 500.0).abs() / 500.0 < 0.06, "p50 {p50}");
    }

    #[test]
    fn snapshot_merge_matches_direct_recording() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in [3u64, 77, 1_000_000, 42] {
            a.record(v);
            all.record(v);
        }
        for v in [9u64, 500_000] {
            b.record(v);
            all.record(v);
        }
        let mut acc = a.snapshot();
        acc.merge(&b.snapshot());
        assert_eq!(acc, all.snapshot());
    }

    #[test]
    fn plain_snapshot_recording_matches_atomic() {
        let h = Histogram::new();
        let mut s = HistogramSnapshot::empty();
        for v in [0u64, 5, 31, 32, 33, 1000, 123_456_789] {
            h.record(v);
            s.record(v);
        }
        assert_eq!(h.snapshot(), s);
    }

    #[test]
    fn quantiles_are_ordered() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let q = h.snapshot().quantiles();
        assert!(q.min <= q.p50 && q.p50 <= q.p90);
        assert!(q.p90 <= q.p99 && q.p99 <= q.p999 && q.p999 <= q.max);
        assert_eq!(q.count, 10_000);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_out_of_range_panics() {
        HistogramSnapshot::empty().percentile(101.0);
    }

    #[test]
    fn index_value_roundtrip_monotonicity() {
        let mut samples: Vec<u64> = Vec::new();
        for shift in 0..60 {
            for off in [0u64, 1, 3] {
                samples.push((1u64 << shift) + off);
            }
        }
        samples.sort_unstable();
        let mut last_idx = 0;
        for v in samples {
            let idx = bucket_index(v);
            assert!(idx >= last_idx, "index not monotonic at {v}");
            last_idx = idx;
            let back = bucket_value(idx);
            let rel = (back as f64 - v as f64).abs() / v as f64;
            assert!(rel < 0.06, "roundtrip error at {v}: back {back}");
        }
    }
}
