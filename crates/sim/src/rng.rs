//! Seedable, version-stable pseudo-random number generation.
//!
//! The simulator, the workload generators and the fault injectors all need
//! randomness that is (a) fast, (b) seedable, and (c) stable across builds so
//! that experiments reproduce exactly. Rather than depending on an external
//! RNG crate whose stream may change between versions, this module implements
//! two published generators from their reference descriptions:
//!
//! * [`SplitMix64`] (Steele, Lea, Flood 2014) — used for seeding;
//! * [`Xoshiro256StarStar`] (Blackman & Vigna 2018) — the workhorse
//!   generator.
//!
//! Both are validated against published test vectors in the unit tests.
//!
//! # Examples
//!
//! ```
//! use hermes_sim::rng::Rng;
//!
//! let mut rng = Rng::seeded(42);
//! let die = rng.gen_range(6) + 1;
//! assert!((1..=6).contains(&die));
//! // Same seed, same stream:
//! assert_eq!(Rng::seeded(7).next_u64(), Rng::seeded(7).next_u64());
//! ```

/// SplitMix64 generator, used mainly to expand seeds.
///
/// One multiply-xorshift pipeline per output; passes BigCrush when used as a
/// standalone generator, but its main role here is seeding
/// [`Xoshiro256StarStar`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator with the given seed.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64 pseudo-random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256\*\* 1.0, the default all-purpose generator.
///
/// 256 bits of state, period 2²⁵⁶−1, excellent statistical quality, and a
/// handful of nanoseconds per output. Seeded from [`SplitMix64`] per the
/// authors' recommendation (never seed xoshiro with correlated state).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator from a 64-bit seed, expanding it with SplitMix64.
    pub fn seeded(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Xoshiro256StarStar { s }
    }

    /// Creates a generator directly from 256 bits of state.
    ///
    /// # Panics
    ///
    /// Panics if the state is all zeroes, which is the one invalid state of
    /// the xoshiro family (the generator would emit only zeroes).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(
            s.iter().any(|&w| w != 0),
            "xoshiro state must not be all zero"
        );
        Xoshiro256StarStar { s }
    }

    /// Returns the next 64 pseudo-random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// The convenience RNG used across the workspace.
///
/// Wraps [`Xoshiro256StarStar`] with the derived sampling methods protocol
/// drivers and workload generators need. Cloning an `Rng` forks the stream
/// (both clones produce the same subsequent values), which is occasionally
/// useful in tests; use [`Rng::split`] to derive an independent stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng {
    inner: Xoshiro256StarStar,
}

impl Rng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        Rng {
            inner: Xoshiro256StarStar::seeded(seed),
        }
    }

    /// Derives an independent generator from this one.
    ///
    /// The derived stream is seeded from this stream's next output, so
    /// splitting is itself deterministic.
    pub fn split(&mut self) -> Rng {
        Rng::seeded(self.next_u64())
    }

    /// Returns the next 64 pseudo-random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Returns a uniformly distributed integer in `0..bound`.
    ///
    /// Uses the widening-multiply technique (Lemire 2019) without the
    /// rejection step; the bias is below 2⁻⁶⁴·bound, negligible for
    /// simulation purposes.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be non-zero");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns a uniformly distributed float in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        // 53 top bits, the standard conversion.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.gen_f64() < p
        }
    }

    /// Samples an exponentially distributed float with the given mean.
    ///
    /// Used for randomized network latency jitter and client think times.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    pub fn gen_exp(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        // Inverse-CDF; 1-u avoids ln(0).
        -mean * (1.0 - self.gen_f64()).ln()
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot choose from an empty slice");
        &items[self.gen_range(items.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published SplitMix64 test vector: seed 0 produces this sequence.
    /// (Vector reproduced in many independent implementations, e.g. the
    /// reference C code distributed with the xoshiro paper.)
    #[test]
    fn splitmix64_reference_vector_seed0() {
        let mut sm = SplitMix64::new(0);
        let got: Vec<u64> = (0..3).map(|_| sm.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F
            ]
        );
    }

    #[test]
    fn splitmix64_is_deterministic_across_instances() {
        let mut a = SplitMix64::new(1234567);
        let mut b = SplitMix64::new(1234567);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(7654321);
        assert_ne!(SplitMix64::new(1234567).next_u64(), c.next_u64());
    }

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = Xoshiro256StarStar::seeded(1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Xoshiro256StarStar::seeded(1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Xoshiro256StarStar::seeded(2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "all zero")]
    fn xoshiro_rejects_zero_state() {
        let _ = Xoshiro256StarStar::from_state([0; 4]);
    }

    #[test]
    fn gen_range_is_in_bounds_and_covers() {
        let mut rng = Rng::seeded(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_range(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all buckets should be hit: {seen:?}"
        );
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn gen_range_zero_bound_panics() {
        Rng::seeded(0).gen_range(0);
    }

    #[test]
    fn gen_f64_is_unit_interval_with_sane_mean() {
        let mut rng = Rng::seeded(11);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng::seeded(5);
        let n = 50_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate} too far from 0.3");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(-1.0));
        assert!(rng.gen_bool(2.0));
    }

    #[test]
    fn gen_exp_has_requested_mean() {
        let mut rng = Rng::seeded(9);
        let n = 50_000;
        let mean_target = 250.0;
        let sum: f64 = (0..n).map(|_| rng.gen_exp(mean_target)).sum();
        let mean = sum / n as f64;
        assert!(
            (mean - mean_target).abs() / mean_target < 0.05,
            "mean {mean} too far from {mean_target}"
        );
    }

    #[test]
    fn split_streams_diverge() {
        let mut parent = Rng::seeded(77);
        let mut child_a = parent.split();
        let mut child_b = parent.split();
        let a: Vec<u64> = (0..4).map(|_| child_a.next_u64()).collect();
        let b: Vec<u64> = (0..4).map(|_| child_b.next_u64()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn choose_picks_each_element() {
        let mut rng = Rng::seeded(13);
        let items = [10, 20, 30];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(*rng.choose(&items));
        }
        assert_eq!(seen.len(), 3);
    }
}
