//! # hermes-workload — YCSB-style workload generation
//!
//! The paper's evaluation drives the replicated KVS with uniform and skewed
//! (zipfian, exponent 0.99 "as in YCSB") accesses over one million keys at
//! write ratios from 0% to 100% (§5.2, §6). This crate generates those
//! request streams deterministically:
//!
//! * [`Zipfian`] — Gray et al.'s constant-time zipfian sampler (the YCSB
//!   algorithm), validated against the analytic distribution;
//! * [`KeyChooser`] — uniform or zipfian key selection;
//! * [`Workload`] — a full request stream: key choice, read/write/RMW mix,
//!   and value payloads of configurable size;
//! * [`BankWorkload`] — the bank-transfer stream driving the multi-key
//!   transaction subsystem (`hermes-txn`), with the conserved-total
//!   invariant as its built-in oracle.
//!
//! The crate only generates. Whoever issues the operations keeps its own
//! loop: the simulator's closed-loop sessions (`hermes-replica`'s
//! `run_sim`), and on the real runtime `examples/runtime_bench`, whose load
//! generator pairs every reply with the operation that asked for it.
//!
//! # Examples
//!
//! ```
//! use hermes_workload::{Workload, WorkloadConfig};
//!
//! let mut wl = Workload::new(WorkloadConfig {
//!     keys: 1000,
//!     write_ratio: 0.05,
//!     zipf_theta: Some(0.99),
//!     ..WorkloadConfig::default()
//! }, 42);
//! let op = wl.next_op();
//! assert!(op.key.0 < 1000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bank;

pub use bank::{BankConfig, BankWorkload};

use hermes_common::{ClientOp, Key, RmwOp, Value};
use hermes_sim::rng::Rng;

/// Key-selection distributions.
#[derive(Clone, Debug)]
pub enum KeyChooser {
    /// Uniform over `0..n`.
    Uniform {
        /// Key-space size.
        n: u64,
    },
    /// Zipfian over `0..n` (popular keys get low ranks, then scattered over
    /// the key space by a multiplicative hash, like YCSB's scrambled
    /// zipfian).
    Zipfian(Zipfian),
}

impl KeyChooser {
    /// Uniform chooser over `n` keys.
    pub fn uniform(n: u64) -> Self {
        KeyChooser::Uniform { n }
    }

    /// Zipfian chooser over `n` keys with exponent `theta`.
    pub fn zipfian(n: u64, theta: f64) -> Self {
        KeyChooser::Zipfian(Zipfian::new(n, theta))
    }

    /// Draws the next key.
    pub fn next_key(&mut self, rng: &mut Rng) -> Key {
        match self {
            KeyChooser::Uniform { n } => Key(rng.gen_range(*n)),
            KeyChooser::Zipfian(z) => Key(z.sample(rng)),
        }
    }

    /// The key-space size.
    pub fn key_count(&self) -> u64 {
        match self {
            KeyChooser::Uniform { n } => *n,
            KeyChooser::Zipfian(z) => z.n,
        }
    }
}

/// Gray et al.'s zipfian generator (the algorithm YCSB uses), sampling ranks
/// in `0..n` with P(rank k) ∝ 1/(k+1)^θ.
///
/// Construction is O(n) (computing the harmonic normalizer ζ(n, θ));
/// sampling is O(1).
#[derive(Clone, Debug)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

impl Zipfian {
    /// Creates a sampler over `n` items with exponent `theta` (0 < θ < 1;
    /// the paper uses 0.99).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is not in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipfian needs a non-empty key space");
        assert!(
            (0.0..1.0).contains(&theta) && theta > 0.0,
            "theta must be in (0,1)"
        );
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            zetan,
            alpha,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Samples a rank in `0..n` (rank 0 is the most popular).
    pub fn sample_rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.gen_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Samples a key: the rank scattered over the key space by a bijective
    /// multiplicative hash (YCSB's "scrambled" zipfian), so popular keys are
    /// not clustered at low ids.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        // Splitmix-style scatter on u64, reduced modulo n. The reduction is
        // not bijective for non-power-of-two n, but collisions only remap a
        // rank to another key deterministically, preserving the skew.
        self.key_of_rank(self.sample_rank(rng))
    }

    /// The key id that popularity rank `rank` maps to (the scrambling
    /// bijection used by [`Zipfian::sample`]). Lets cost models enumerate
    /// the hot key set.
    pub fn key_of_rank(&self, rank: u64) -> u64 {
        let mut x = rank.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 31;
        x % self.n
    }

    /// The fraction of accesses that hit the `k` most popular ranks
    /// (analytic; used by the cost model's cache-locality factor).
    pub fn hot_fraction(&self, k: u64) -> f64 {
        if k >= self.n {
            return 1.0;
        }
        Self::zeta(k, self.theta) / self.zetan
    }
}

/// One generated request.
#[derive(Clone, Debug)]
pub struct Op {
    /// Target key.
    pub key: Key,
    /// The operation (read / write / RMW).
    pub op: ClientOp,
}

/// Workload parameters (paper §5.2: 1M keys, 8 B keys / 32 B values,
/// uniform or zipf-0.99, write ratio swept from 1% to 100%).
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Number of keys.
    pub keys: u64,
    /// Fraction of operations that are updates (writes + RMWs).
    pub write_ratio: f64,
    /// Fraction of *updates* that are RMWs (fetch-add); the paper's
    /// throughput workloads use plain writes only (0.0).
    pub rmw_fraction: f64,
    /// Value payload size in bytes.
    pub value_size: usize,
    /// Zipfian exponent; `None` selects uniform access.
    pub zipf_theta: Option<f64>,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            keys: 1_000_000,
            write_ratio: 0.05,
            rmw_fraction: 0.0,
            value_size: 32,
            zipf_theta: None,
        }
    }
}

/// A deterministic request-stream generator.
#[derive(Debug)]
pub struct Workload {
    chooser: KeyChooser,
    cfg: WorkloadConfig,
    rng: Rng,
    payload: Value,
    counter: u64,
}

impl Workload {
    /// Creates a generator with the given parameters and seed.
    pub fn new(cfg: WorkloadConfig, seed: u64) -> Self {
        let chooser = match cfg.zipf_theta {
            Some(theta) => KeyChooser::zipfian(cfg.keys, theta),
            None => KeyChooser::uniform(cfg.keys),
        };
        Workload {
            chooser,
            payload: Value::filled(0xA5, cfg.value_size),
            cfg,
            rng: Rng::seeded(seed),
            counter: 0,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &WorkloadConfig {
        &self.cfg
    }

    /// Generates the next request.
    pub fn next_op(&mut self) -> Op {
        let key = self.chooser.next_key(&mut self.rng);
        self.counter += 1;
        let op = if self.rng.gen_bool(self.cfg.write_ratio) {
            if self.cfg.rmw_fraction > 0.0 && self.rng.gen_bool(self.cfg.rmw_fraction) {
                ClientOp::Rmw(RmwOp::FetchAdd { delta: 1 })
            } else {
                // Cheap distinct payloads: same allocation, values matter
                // only for correctness tests which use their own workloads.
                ClientOp::Write(self.payload.clone())
            }
        } else {
            ClientOp::Read
        };
        Op { key, op }
    }

    /// Derives an independent stream (e.g. one per client session).
    pub fn fork(&mut self) -> Workload {
        let seed = self.rng.next_u64();
        Workload::new(self.cfg.clone(), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_key_space_evenly() {
        let mut chooser = KeyChooser::uniform(100);
        let mut rng = Rng::seeded(1);
        let mut counts = vec![0u64; 100];
        let n = 100_000;
        for _ in 0..n {
            counts[chooser.next_key(&mut rng).0 as usize] += 1;
        }
        let expect = n as f64 / 100.0;
        for (k, &c) in counts.iter().enumerate() {
            let rel = (c as f64 - expect).abs() / expect;
            assert!(rel < 0.2, "key {k}: count {c} too far from {expect}");
        }
    }

    #[test]
    fn zipfian_matches_analytic_head_probabilities() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = Rng::seeded(2);
        let n = 200_000;
        let mut head = [0u64; 3];
        for _ in 0..n {
            let r = z.sample_rank(&mut rng);
            if r < 3 {
                head[r as usize] += 1;
            }
        }
        // P(rank k) = (1/(k+1)^θ)/ζ(n,θ). Gray's algorithm is exact for
        // ranks 0 and 1 and uses a continuous approximation beyond (same as
        // YCSB), so rank 2 gets a looser tolerance.
        let zetan: f64 = (1..=1000u64).map(|i| 1.0 / (i as f64).powf(0.99)).sum();
        for (k, &c) in head.iter().enumerate() {
            let p_expect = (1.0 / ((k + 1) as f64).powf(0.99)) / zetan;
            let p_got = c as f64 / n as f64;
            let rel = (p_got - p_expect).abs() / p_expect;
            let tol = if k < 2 { 0.1 } else { 0.3 };
            assert!(
                rel < tol,
                "rank {k}: p {p_got:.4} vs analytic {p_expect:.4}"
            );
        }
    }

    #[test]
    fn zipfian_is_heavily_skewed_at_theta_099() {
        let z = Zipfian::new(1_000_000, 0.99);
        // Top 1000 of 1M keys draw a large constant share of accesses.
        let hot = z.hot_fraction(1000);
        assert!(hot > 0.45 && hot < 0.60, "hot fraction {hot}");
        assert!((z.hot_fraction(1_000_000) - 1.0).abs() < 1e-12);
        assert!(z.hot_fraction(1) > 0.05);
    }

    #[test]
    fn zipfian_sample_stays_in_range_and_scatters() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = Rng::seeded(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let k = z.sample(&mut rng);
            assert!(k < 1000);
            seen.insert(k);
        }
        // The scrambles hot-spot is not key 0.
        assert!(seen.len() > 300, "zipf should still touch many keys");
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn zipfian_rejects_bad_theta() {
        Zipfian::new(10, 1.5);
    }

    #[test]
    fn write_ratio_is_respected() {
        let mut wl = Workload::new(
            WorkloadConfig {
                keys: 100,
                write_ratio: 0.2,
                ..WorkloadConfig::default()
            },
            7,
        );
        let n = 50_000;
        let writes = (0..n).filter(|_| wl.next_op().op.is_update()).count();
        let ratio = writes as f64 / n as f64;
        assert!((ratio - 0.2).abs() < 0.01, "write ratio {ratio}");
    }

    #[test]
    fn rmw_fraction_produces_rmws() {
        let mut wl = Workload::new(
            WorkloadConfig {
                keys: 100,
                write_ratio: 1.0,
                rmw_fraction: 0.5,
                ..WorkloadConfig::default()
            },
            7,
        );
        let n = 10_000;
        let rmws = (0..n)
            .filter(|_| matches!(wl.next_op().op, ClientOp::Rmw(_)))
            .count();
        let ratio = rmws as f64 / n as f64;
        assert!((ratio - 0.5).abs() < 0.05, "rmw ratio {ratio}");
    }

    #[test]
    fn value_size_is_respected() {
        let mut wl = Workload::new(
            WorkloadConfig {
                keys: 10,
                write_ratio: 1.0,
                value_size: 256,
                ..WorkloadConfig::default()
            },
            1,
        );
        match wl.next_op().op {
            ClientOp::Write(v) => assert_eq!(v.len(), 256),
            other => panic!("expected write, got {other:?}"),
        }
    }

    #[test]
    fn same_seed_same_stream_forks_differ() {
        let cfg = WorkloadConfig {
            keys: 1000,
            ..WorkloadConfig::default()
        };
        let mut a = Workload::new(cfg.clone(), 5);
        let mut b = Workload::new(cfg.clone(), 5);
        for _ in 0..100 {
            assert_eq!(a.next_op().key, b.next_op().key);
        }
        let mut fork = a.fork();
        let diverges = (0..100).any(|_| a.next_op().key != fork.next_op().key);
        assert!(diverges);
    }
}
