//! Cross-crate integration: randomized schedule fuzzing of Hermes clusters
//! with per-key linearizability checking.
//!
//! Drives `hermes-model`'s `Cluster` of real `HermesNode` state machines
//! through randomized interleavings of deliveries, drops, duplications,
//! timer fires and (sometimes) a crash with reconfiguration, and checks
//! every key's client-visible history with the Wing–Gong checker — the
//! fuzzing complement to that crate's exhaustive bounded exploration over
//! the same `Cluster`.

use hermes::model::{check_linearizable, Cluster};
use hermes::prelude::*;
use hermes::sim::rng::Rng;

/// Delivers a random in-flight message; false if there is none.
fn deliver_random(c: &mut Cluster, rng: &mut Rng) -> bool {
    if c.inflight.is_empty() {
        return false;
    }
    c.deliver_at(rng.gen_range(c.inflight.len() as u64) as usize);
    true
}

fn fuzz_one(seed: u64, n_nodes: usize, n_ops: usize, with_faults: bool, cfg: ProtocolConfig) {
    let mut rng = Rng::seeded(seed);
    let mut c = Cluster::new(n_nodes, cfg);
    let keys = 3u64;
    let mut next_value = 1u64;
    let crash_at = if with_faults && rng.gen_bool(0.3) {
        Some(rng.gen_range(n_ops as u64 / 2) + 1)
    } else {
        None
    };

    for step in 0..n_ops {
        if Some(step as u64) == crash_at {
            // Crash the highest node (never node 0, keeping a majority).
            let victim = NodeId(n_nodes as u32 - 1);
            c.crash(victim.index());
            let view = c.node(0).view().without_node(victim);
            c.reconfigure(view);
        }
        let node = loop {
            let candidate = rng.gen_range(n_nodes as u64) as usize;
            if !c.is_crashed(candidate) {
                break candidate;
            }
        };
        let key = Key(rng.gen_range(keys));
        match rng.gen_range(10) {
            0..=3 => {
                c.write(node, key, Value::from_u64(next_value));
                next_value += 1;
            }
            4..=5 => {
                c.rmw(node, key, RmwOp::FetchAdd { delta: 1 });
            }
            _ => {
                c.read(node, key);
            }
        }
        // Random partial delivery, drops, duplicates, timers.
        for _ in 0..rng.gen_range(6) {
            deliver_random(&mut c, &mut rng);
        }
        if with_faults && !c.inflight.is_empty() && rng.gen_bool(0.1) {
            c.drop_at(rng.gen_range(c.inflight.len() as u64) as usize);
        }
        if with_faults && !c.inflight.is_empty() && rng.gen_bool(0.05) {
            c.duplicate_at(rng.gen_range(c.inflight.len() as u64) as usize);
        }
        if rng.gen_bool(0.1) {
            let armed: Vec<(u32, Key)> = c
                .timers
                .iter()
                .copied()
                .filter(|&(n, _)| !c.is_crashed(n as usize))
                .collect();
            if !armed.is_empty() {
                let (node, key) = armed[rng.gen_range(armed.len() as u64) as usize];
                c.fire_timer(node as usize, key);
            }
        }
    }
    // Quiesce, draining the network in random order between timer rounds.
    for _ in 0..200 {
        while deliver_random(&mut c, &mut rng) {}
        if c.timers.is_empty() {
            break;
        }
        c.fire_all_timers();
        if c.inflight.is_empty() {
            break;
        }
    }

    // Every key's client-visible history must be linearizable.
    for key in 0..keys {
        let history = c.history(Key(key));
        assert!(
            history.len() <= 63,
            "seed {seed}: history too large ({})",
            history.len()
        );
        assert!(
            check_linearizable(&history),
            "seed {seed}: non-linearizable history on k{key}: {history:#?}"
        );
    }
}

#[test]
fn fuzz_fault_free_default_config() {
    for seed in 0..120 {
        fuzz_one(seed, 3, 30, false, ProtocolConfig::default());
    }
}

#[test]
fn fuzz_with_faults_default_config() {
    for seed in 1000..1120 {
        fuzz_one(seed, 3, 30, true, ProtocolConfig::default());
    }
}

#[test]
fn fuzz_five_nodes() {
    for seed in 2000..2060 {
        fuzz_one(seed, 5, 25, true, ProtocolConfig::default());
    }
}

#[test]
fn fuzz_o3_and_virtual_ids() {
    let cfg = ProtocolConfig {
        broadcast_acks: true,
        virtual_ids_per_node: 3,
        ..ProtocolConfig::default()
    };
    for seed in 3000..3100 {
        fuzz_one(seed, 3, 30, true, cfg);
    }
}
