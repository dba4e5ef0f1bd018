//! Measurement containers for the evaluation harness.
//!
//! The paper reports median and 99th-percentile latencies (Figure 6) and
//! throughput over time across a failure (Figure 9). This module provides the
//! two containers those plots need:
//!
//! * [`Histogram`] — a log-bucketed latency histogram with percentile
//!   queries. The bucket layout and all percentile math live in
//!   [`hermes_obs::HistogramSnapshot`] — this is a thin simulation-flavored
//!   wrapper (nanosecond units) around the one
//!   shared implementation, so the simulator, the benches and the metrics
//!   exposition can never disagree on what "p99" means;
//! * [`Timeline`] — fixed-width time bins counting completions, yielding a
//!   throughput-over-time series.
//!
//! # Examples
//!
//! ```
//! use hermes_sim::stats::Histogram;
//!
//! let mut h = Histogram::new();
//! for v in 1..=1000u64 {
//!     h.record(v);
//! }
//! assert_eq!(h.count(), 1000);
//! let p50 = h.percentile(50.0);
//! assert!((450..=560).contains(&p50), "p50 was {p50}");
//! ```

use crate::{SimDuration, SimTime};
use hermes_obs::HistogramSnapshot;

/// A log-bucketed histogram of `u64` samples (typically latencies in ns).
///
/// Values are grouped into buckets whose width grows with magnitude
/// (HdrHistogram-style: ~3 % bounded relative error over the full `u64`
/// range). Recording is O(1); percentile queries are O(buckets). All
/// bucket and percentile math is [`hermes_obs::HistogramSnapshot`]'s.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    inner: HistogramSnapshot,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            inner: HistogramSnapshot::empty(),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.inner.record(value);
    }

    /// Total number of recorded samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// Smallest recorded sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        self.inner.min()
    }

    /// Largest recorded sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.inner.max()
    }

    /// Arithmetic mean of the recorded samples, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        self.inner.mean()
    }

    /// The value at the given percentile (0–100), with the histogram's
    /// bucket-granularity error. Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        self.inner.percentile(p)
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.inner.merge(&other.inner);
    }

    /// Convenience summary (min/mean/p50/p90/p99/p999/max/count).
    pub fn summary(&self) -> LatencySummary {
        let q = self.inner.quantiles();
        LatencySummary {
            count: q.count,
            min_ns: q.min,
            mean_ns: q.mean,
            p50_ns: q.p50,
            p90_ns: q.p90,
            p99_ns: q.p99,
            p999_ns: q.p999,
            max_ns: q.max,
        }
    }
}

/// A compact latency summary extracted from a [`Histogram`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Minimum, nanoseconds.
    pub min_ns: u64,
    /// Mean, nanoseconds.
    pub mean_ns: f64,
    /// Median, nanoseconds.
    pub p50_ns: u64,
    /// 90th percentile, nanoseconds.
    pub p90_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th percentile, nanoseconds.
    pub p999_ns: u64,
    /// Maximum, nanoseconds.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Median in microseconds (the unit the paper plots).
    pub fn p50_us(&self) -> f64 {
        self.p50_ns as f64 / 1e3
    }

    /// 90th percentile in microseconds.
    pub fn p90_us(&self) -> f64 {
        self.p90_ns as f64 / 1e3
    }

    /// 99th percentile in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.p99_ns as f64 / 1e3
    }

    /// 99.9th percentile in microseconds.
    pub fn p999_us(&self) -> f64 {
        self.p999_ns as f64 / 1e3
    }
}

/// Completion counts in fixed-width virtual-time bins.
///
/// Used for Figure 9: throughput over wall-clock time across an injected node
/// failure.
///
/// # Examples
///
/// ```
/// use hermes_sim::stats::Timeline;
/// use hermes_sim::{SimDuration, SimTime};
///
/// let mut tl = Timeline::new(SimDuration::millis(10));
/// tl.record(SimTime::from_nanos(5_000_000));   // bin 0
/// tl.record(SimTime::from_nanos(15_000_000));  // bin 1
/// tl.record(SimTime::from_nanos(16_000_000));  // bin 1
/// let series = tl.series();
/// assert_eq!(series[0].1, 1);
/// assert_eq!(series[1].1, 2);
/// ```
#[derive(Clone, Debug)]
pub struct Timeline {
    bin: SimDuration,
    bins: Vec<u64>,
}

impl Timeline {
    /// Creates a timeline with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is zero.
    pub fn new(bin: SimDuration) -> Self {
        assert!(!bin.is_zero(), "timeline bin width must be non-zero");
        Timeline {
            bin,
            bins: Vec::new(),
        }
    }

    /// Records one completion at virtual time `at`.
    pub fn record(&mut self, at: SimTime) {
        let idx = (at.as_nanos() / self.bin.as_nanos()) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0);
        }
        self.bins[idx] += 1;
    }

    /// Returns `(bin_start_time, completions_in_bin)` for every bin.
    pub fn series(&self) -> Vec<(SimTime, u64)> {
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &c)| (SimTime::from_nanos(i as u64 * self.bin.as_nanos()), c))
            .collect()
    }

    /// Returns the throughput series in operations per second.
    pub fn ops_per_sec(&self) -> Vec<(f64, f64)> {
        let bin_secs = self.bin.as_secs_f64();
        self.series()
            .into_iter()
            .map(|(t, c)| (t.as_secs_f64(), c as f64 / bin_secs))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(50.0), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        // With 32 exact buckets the 50th percentile is the 16th value.
        assert_eq!(h.percentile(50.0), 15);
    }

    #[test]
    fn percentiles_have_bounded_relative_error() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (p, expected) in [(50.0, 50_000.0), (90.0, 90_000.0), (99.0, 99_000.0)] {
            let got = h.percentile(p) as f64;
            let rel = (got - expected).abs() / expected;
            assert!(
                rel < 0.05,
                "p{p}: got {got}, expected {expected}, rel {rel}"
            );
        }
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        h.record(u64::MAX / 2);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.percentile(100.0) >= u64::MAX / 2);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.mean(), 20.0);
    }

    #[test]
    fn merge_combines_populations() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..=500u64 {
            a.record(v);
        }
        for v in 501..=1000u64 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 1000);
        let p50 = a.percentile(50.0) as f64;
        assert!((p50 - 500.0).abs() / 500.0 < 0.06, "p50 {p50}");
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.record(42);
        let before = a.summary();
        a.merge(&Histogram::new());
        assert_eq!(a.summary(), before);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_out_of_range_panics() {
        Histogram::new().percentile(101.0);
    }

    #[test]
    fn summary_units() {
        let mut h = Histogram::new();
        h.record(2_000); // 2 us
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert!((s.p50_us() - 2.0).abs() / 2.0 < 0.05);
        assert!((s.p99_us() - 2.0).abs() / 2.0 < 0.05);
        assert!((s.p999_us() - 2.0).abs() / 2.0 < 0.05);
    }

    #[test]
    fn summary_quantiles_are_ordered() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert!(s.p50_ns <= s.p90_ns);
        assert!(s.p90_ns <= s.p99_ns);
        assert!(s.p99_ns <= s.p999_ns);
        assert!(s.p999_ns <= s.max_ns);
    }

    #[test]
    fn timeline_bins_and_series() {
        let mut tl = Timeline::new(SimDuration::millis(1));
        for i in 0..10u64 {
            tl.record(SimTime::from_nanos(i * 500_000)); // every 0.5 ms
        }
        let series = tl.series();
        assert_eq!(series.len(), 5);
        assert!(series.iter().all(|&(_, c)| c == 2));
        let ops = tl.ops_per_sec();
        assert!((ops[0].1 - 2_000.0).abs() < 1e-9);
    }

    #[test]
    fn timeline_extends_to_latest_bin() {
        let mut tl = Timeline::new(SimDuration::millis(10));
        tl.record(SimTime::from_nanos(95_000_000)); // bin 9
        assert_eq!(tl.series().len(), 10);
        assert_eq!(tl.series()[9].1, 1);
        assert_eq!(tl.series()[0].1, 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn timeline_zero_bin_panics() {
        let _ = Timeline::new(SimDuration::ZERO);
    }
}
