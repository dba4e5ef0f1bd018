//! The estimators: order statistics with the ten-samples-beyond rule, and
//! the quiet-quartile slice estimator.
//!
//! On a shared VM a neighbour only ever *slows* a slice, so the noise is
//! one-sided. Every timing metric is therefore computed per slice and the
//! run reports the slice at the quiet quartile: the 75th-percentile slice
//! for a rate, the 25th-percentile slice for a latency or a CPU cost. More
//! than half of the slices may be disturbed before the reported value moves.

/// A percentile is reported only with at least this many samples beyond it.
const SAMPLES_BEYOND: usize = 10;

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted `values`;
/// `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Quiet-quartile slice of a rate (higher is better): the 75th percentile.
pub fn quiet_rate(per_slice: &[f64]) -> Option<f64> {
    quantile(per_slice, 0.75)
}

/// Quiet-quartile slice of a cost (lower is better): the 25th percentile.
pub fn quiet_cost(per_slice: &[f64]) -> Option<f64> {
    quantile(per_slice, 0.25)
}

/// The `p`-th percentile (0 < p < 100) of `sorted` samples, or `None` when
/// fewer than [`SAMPLES_BEYOND`] samples lie beyond it (p99 needs 1 000
/// samples, p99.9 needs 10 000).
pub fn percentile(sorted: &[u64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let beyond = (n as f64 * (1.0 - p / 100.0)).floor() as usize;
    if n == 0 || beyond < SAMPLES_BEYOND {
        return None;
    }
    let pos = p / 100.0 * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (a, b) = (sorted[lo] as f64, sorted[hi] as f64);
    Some(a + (b - a) * (pos - lo as f64))
}

/// Per-slice percentile of nanosecond samples, in microseconds, reduced to
/// the quiet-quartile slice. Slices too small to support the percentile are
/// skipped; if fewer than three remain, the percentile of all slices merged
/// is used instead. Returns the value and the number of samples behind it.
pub fn quiet_percentile_us(slices: &mut [Vec<u64>], p: f64) -> (Option<f64>, usize) {
    let mut per_slice = Vec::new();
    let mut used = 0;
    for s in slices.iter_mut() {
        s.sort_unstable();
        if let Some(v) = percentile(s, p) {
            per_slice.push(v / 1e3);
            used += s.len();
        }
    }
    if per_slice.len() >= 3 {
        return (quiet_cost(&per_slice), used);
    }
    let mut all: Vec<u64> = slices.iter().flatten().copied().collect();
    all.sort_unstable();
    (percentile(&all, p).map(|v| v / 1e3), all.len())
}

/// Quartiles the way Python's `statistics.quantiles(values, n=4)` computes
/// them (the exclusive method); needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}
