//! # hermes-bench — the paper's evaluation harness
//!
//! One bench target per evaluation artifact of the paper (Tables 1–2,
//! Figures 5–9, plus the ablation), each printing the paper's reported
//! series next to the values measured on this reproduction's *simulated*
//! cluster. Run everything with `cargo bench --workspace`; scale the
//! simulated op counts with the `HERMES_SCALE` environment variable
//! (default `0.1`; `1.0` ≈ paper-scale).
//!
//! The simulator reproduces *shapes* (who wins, by what factor, where
//! crossovers fall), not the absolute testbed numbers — see DESIGN.md §1
//! and EXPERIMENTS.md for the substitution rationale and the recorded
//! paper-vs-measured comparisons. Nothing here times the real runtime:
//! that is `examples/runtime_bench`, down to per-layer probes of the core,
//! store, codec and transports.

#![warn(missing_docs)]

use hermes_common::MembershipView;
use hermes_core::{HermesNode, ProtocolConfig};
use hermes_replica::{run_sim, CostModel, RunReport, SimConfig};
use hermes_workload::WorkloadConfig;

/// Scale factor for simulated op counts (`HERMES_SCALE` env var).
pub fn scale() -> f64 {
    std::env::var("HERMES_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.1_f64)
        .clamp(0.001, 10.0)
}

/// Scales an op count by [`scale`], with a floor to stay statistically
/// meaningful.
pub fn scaled_ops(base: u64) -> u64 {
    ((base as f64 * scale()) as u64).max(5_000)
}

/// The paper's standard cluster configuration (§5.2): 5 nodes, 20 workers,
/// 1M keys, 8 B keys / 32 B values. Key count is scaled with the op budget
/// to keep cache behaviour proportionate.
pub fn paper_cluster(nodes: usize, write_ratio: f64, zipf: Option<f64>) -> SimConfig {
    // Skewed workloads run at much higher absolute request rates (cache-hot
    // reads), so the paper's client pipelines are proportionally deeper;
    // without that depth the tail-node hotspot (rCRAQ's Achilles heel,
    // §6.2) never becomes the binding resource.
    let sessions_per_node = if zipf.is_some() { 384 } else { 48 };
    // Steady state requires every closed-loop session to have cycled
    // through several writes (queues at serialization points and chain
    // tails build up over write cycles); at low write ratios that needs
    // proportionally more operations.
    let steady = if write_ratio > 0.0 {
        ((nodes * sessions_per_node) as f64 * 4.0 / write_ratio) as u64
    } else {
        0
    };
    SimConfig {
        nodes,
        workers_per_node: 20,
        sessions_per_node,
        workload: WorkloadConfig {
            keys: ((1_000_000_f64 * scale()) as u64).max(10_000),
            write_ratio,
            zipf_theta: zipf,
            value_size: 32,
            ..WorkloadConfig::default()
        },
        cost: if zipf.is_some() {
            CostModel::skewed()
        } else {
            CostModel::uniform()
        },
        warmup_ops: scaled_ops(100_000).max(steady),
        measured_ops: scaled_ops(400_000).max(steady),
        seed: 42,
        ..SimConfig::default()
    }
}

/// Runs Hermes (default protocol config) on `cfg`.
pub fn run_hermes(cfg: &SimConfig) -> RunReport {
    run_sim(cfg, |id, n| {
        HermesNode::new(id, MembershipView::initial(n), ProtocolConfig::default())
    })
}

/// Runs Hermes with an explicit protocol config (ablations).
pub fn run_hermes_with(cfg: &SimConfig, pcfg: ProtocolConfig) -> RunReport {
    run_sim(cfg, move |id, n| {
        HermesNode::new(id, MembershipView::initial(n), pcfg)
    })
}

/// Runs the rZAB baseline on `cfg`.
pub fn run_zab(cfg: &SimConfig) -> RunReport {
    run_sim(cfg, hermes_baselines::ZabNode::new)
}

/// Runs the rCRAQ baseline on `cfg`.
pub fn run_craq(cfg: &SimConfig) -> RunReport {
    run_sim(cfg, hermes_baselines::CraqNode::new)
}

/// Runs the CR baseline on `cfg`.
pub fn run_cr(cfg: &SimConfig) -> RunReport {
    run_sim(cfg, hermes_baselines::CrNode::new)
}

/// Runs the ABD baseline on `cfg`.
pub fn run_abd(cfg: &SimConfig) -> RunReport {
    run_sim(cfg, hermes_baselines::AbdNode::new)
}

/// Runs the lock-step SMR (Derecho-like) baseline on `cfg`.
pub fn run_lockstep(cfg: &SimConfig) -> RunReport {
    run_sim(cfg, hermes_baselines::LockstepNode::new)
}

/// Pretty-prints a bench section header.
pub fn header(title: &str, paper_note: &str) {
    println!();
    println!("=== {title} ===");
    println!("    paper: {paper_note}");
    println!(
        "    (HERMES_SCALE={}, shapes matter, absolutes don't)",
        scale()
    );
}

/// Formats throughput in MReq/s.
pub fn mreqs(r: &RunReport) -> String {
    format!("{:8.1} MReq/s", r.throughput_mreqs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_env_or_defaults() {
        let s = scale();
        assert!(s > 0.0 && s <= 10.0);
        assert!(scaled_ops(100_000) >= 5_000);
    }

    #[test]
    fn harness_self_test() {
        let mut cfg = paper_cluster(3, 0.05, None);
        cfg.warmup_ops = 500;
        cfg.measured_ops = 2_000;
        cfg.workload.keys = 1_000;
        cfg.sessions_per_node = 16;
        cfg.workers_per_node = 4;
        let r = run_hermes(&cfg);
        assert!(r.ops_completed == 2_000 && r.throughput_mreqs > 0.0);
    }

    #[test]
    fn paper_cluster_shapes() {
        let c = paper_cluster(5, 0.2, Some(0.99));
        assert_eq!(c.nodes, 5);
        assert!(c.workload.zipf_theta.is_some());
        assert!(c.cost.hot_ranks > 0);
        let c = paper_cluster(3, 0.0, None);
        assert_eq!(c.cost.hot_ranks, 0);
    }
}
