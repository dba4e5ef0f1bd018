use hermes_common::{NodeId, NodeSet};
use hermes_sim::rng::Rng;
use hermes_sim::{SimDuration, SimTime};

/// Parameters of the simulated datacenter network.
///
/// Defaults approximate the paper's testbed: a single-switch 56 Gb/s
/// InfiniBand fabric with ~2 µs one-way latency for small messages.
#[derive(Clone, Copy, Debug)]
pub struct SimNetConfig {
    /// Fixed one-way propagation + switching latency.
    pub base_latency: SimDuration,
    /// Mean of the exponential jitter added per message.
    pub jitter_mean: SimDuration,
    /// Per-NIC line rate in gigabits per second (serialization delay and
    /// bandwidth ceiling).
    pub bandwidth_gbps: f64,
    /// Per-message header overhead in bytes charged to the wire (UD + RPC
    /// headers; batching amortizes this at the Wings layer).
    pub header_bytes: usize,
    /// Probability that a message is silently lost.
    pub drop_prob: f64,
    /// Probability that a message is delivered twice.
    pub duplicate_prob: f64,
}

impl Default for SimNetConfig {
    fn default() -> Self {
        SimNetConfig {
            base_latency: SimDuration::micros(2),
            jitter_mean: SimDuration::nanos(300),
            bandwidth_gbps: 56.0,
            header_bytes: 42,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
        }
    }
}

/// What happens to one transmitted message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// Delivered once, at the given time.
    Deliver(SimTime),
    /// Delivered twice (network duplication), at the given times.
    DeliverDup(SimTime, SimTime),
    /// Silently lost.
    Drop,
}

/// Deterministic delivery policy for a simulated cluster network.
///
/// `SimNet` does not move bytes; it answers, for every send, *when* (and
/// whether) the message arrives. The discrete-event driver inserts the
/// corresponding delivery events into its scheduler. Modeled effects:
///
/// * per-NIC transmit serialization: a node's NIC is busy for
///   `bytes / bandwidth` per message, so bursts queue (this is what caps
///   write throughput at high write ratios, paper §6.1);
/// * propagation latency plus exponential jitter;
/// * probabilistic loss and duplication (paper §3.4 *Imperfect Links*);
/// * crash-stopped nodes and network partitions (messages across partition
///   boundaries are dropped, paper §3.4 *Network Partitions*).
#[derive(Debug)]
pub struct SimNet {
    cfg: SimNetConfig,
    rng: Rng,
    nic_free_at: Vec<SimTime>,
    crashed: NodeSet,
    /// Partition id per node; messages between different ids drop.
    partition_of: Vec<u8>,
}

impl SimNet {
    /// Creates a network connecting `n` nodes.
    pub fn new(n: usize, cfg: SimNetConfig, seed: u64) -> Self {
        SimNet {
            cfg,
            rng: Rng::seeded(seed),
            nic_free_at: vec![SimTime::ZERO; n],
            crashed: NodeSet::EMPTY,
            partition_of: vec![0; n],
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> SimNetConfig {
        self.cfg
    }

    /// Marks a node as crash-stopped: it neither sends nor receives.
    pub fn crash(&mut self, node: NodeId) {
        self.crashed.insert(node);
    }

    /// Whether `node` has crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed.contains(node)
    }

    /// Splits the network: nodes in `minority` can no longer exchange
    /// messages with the rest. An empty `minority` heals every partition.
    pub fn partition(&mut self, minority: NodeSet) {
        for (i, p) in self.partition_of.iter_mut().enumerate() {
            *p = u8::from(minority.contains(NodeId(i as u32)));
        }
    }

    /// Transmit (serialization) time of a message of `bytes` payload.
    fn tx_time(&self, bytes: usize) -> SimDuration {
        let bits = ((bytes + self.cfg.header_bytes) * 8) as f64;
        SimDuration::from_secs_f64(bits / (self.cfg.bandwidth_gbps * 1e9))
    }

    /// Plans the delivery of a `bytes`-sized message sent at `now`.
    ///
    /// Mutates internal state (NIC busy times, RNG), so call exactly once
    /// per transmitted message, in send order.
    pub fn plan_delivery(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        now: SimTime,
    ) -> DeliveryOutcome {
        if self.crashed.contains(from) || self.crashed.contains(to) {
            return DeliveryOutcome::Drop;
        }
        if self.partition_of[from.index()] != self.partition_of[to.index()] {
            return DeliveryOutcome::Drop;
        }

        // NIC transmit serialization at the sender.
        let tx = self.tx_time(bytes);
        let start = self.nic_free_at[from.index()].max(now);
        let tx_end = start + tx;
        self.nic_free_at[from.index()] = tx_end;

        if self.rng.gen_bool(self.cfg.drop_prob) {
            // The NIC still spent the transmit time; the packet died in the
            // fabric.
            return DeliveryOutcome::Drop;
        }

        let jitter = if self.cfg.jitter_mean.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs_f64(self.rng.gen_exp(self.cfg.jitter_mean.as_secs_f64()))
        };
        let arrival = tx_end + self.cfg.base_latency + jitter;

        if self.rng.gen_bool(self.cfg.duplicate_prob) {
            let extra = SimDuration::from_secs_f64(
                self.rng
                    .gen_exp(self.cfg.base_latency.as_secs_f64().max(1e-9)),
            );
            DeliveryOutcome::DeliverDup(arrival, arrival + extra)
        } else {
            DeliveryOutcome::Deliver(arrival)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossless() -> SimNetConfig {
        SimNetConfig {
            jitter_mean: SimDuration::ZERO,
            ..SimNetConfig::default()
        }
    }

    #[test]
    fn delivery_includes_latency_and_tx_time() {
        let mut net = SimNet::new(2, lossless(), 1);
        let out = net.plan_delivery(NodeId(0), NodeId(1), 58, SimTime::ZERO);
        let DeliveryOutcome::Deliver(at) = out else {
            panic!("expected delivery, got {out:?}");
        };
        // (58 + 42) bytes = 800 bits at 56 Gb/s ≈ 14.3 ns tx + 2 us latency.
        let expect_ns = 2_000 + (800.0 / 56.0) as u64;
        assert!(
            (at.as_nanos() as i64 - expect_ns as i64).abs() <= 2,
            "arrival {at:?}, expected ~{expect_ns}ns"
        );
    }

    #[test]
    fn nic_serialization_queues_bursts() {
        let mut net = SimNet::new(2, lossless(), 1);
        // Two large back-to-back messages from the same sender: the second
        // must arrive at least one transmit-time after the first.
        let a = net.plan_delivery(NodeId(0), NodeId(1), 100_000, SimTime::ZERO);
        let b = net.plan_delivery(NodeId(0), NodeId(1), 100_000, SimTime::ZERO);
        let (DeliveryOutcome::Deliver(ta), DeliveryOutcome::Deliver(tb)) = (a, b) else {
            panic!("expected deliveries");
        };
        let tx_ns = ((100_042 * 8) as f64 / 56.0) as u64;
        assert!(tb.as_nanos() - ta.as_nanos() >= tx_ns - 2);
    }

    #[test]
    fn different_senders_do_not_serialize_on_each_other() {
        let mut net = SimNet::new(3, lossless(), 1);
        let a = net.plan_delivery(NodeId(0), NodeId(2), 100_000, SimTime::ZERO);
        let b = net.plan_delivery(NodeId(1), NodeId(2), 100_000, SimTime::ZERO);
        let (DeliveryOutcome::Deliver(ta), DeliveryOutcome::Deliver(tb)) = (a, b) else {
            panic!("expected deliveries");
        };
        assert_eq!(ta, tb, "independent NICs transmit in parallel");
    }

    #[test]
    fn drop_probability_is_respected() {
        let cfg = SimNetConfig {
            drop_prob: 0.3,
            jitter_mean: SimDuration::ZERO,
            ..SimNetConfig::default()
        };
        let mut net = SimNet::new(2, cfg, 7);
        let n = 20_000;
        let mut drops = 0;
        for i in 0..n {
            let t = SimTime::from_nanos(i * 10_000);
            if net.plan_delivery(NodeId(0), NodeId(1), 64, t) == DeliveryOutcome::Drop {
                drops += 1;
            }
        }
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "drop rate {rate}");
    }

    #[test]
    fn duplication_produces_two_ordered_arrivals() {
        let cfg = SimNetConfig {
            duplicate_prob: 1.0,
            ..SimNetConfig::default()
        };
        let mut net = SimNet::new(2, cfg, 3);
        match net.plan_delivery(NodeId(0), NodeId(1), 64, SimTime::ZERO) {
            DeliveryOutcome::DeliverDup(a, b) => assert!(b >= a),
            other => panic!("expected duplicate, got {other:?}"),
        }
    }

    #[test]
    fn crashed_nodes_neither_send_nor_receive() {
        let mut net = SimNet::new(3, lossless(), 1);
        net.crash(NodeId(1));
        assert!(net.is_crashed(NodeId(1)));
        assert_eq!(
            net.plan_delivery(NodeId(1), NodeId(0), 64, SimTime::ZERO),
            DeliveryOutcome::Drop
        );
        assert_eq!(
            net.plan_delivery(NodeId(0), NodeId(1), 64, SimTime::ZERO),
            DeliveryOutcome::Drop
        );
        assert!(matches!(
            net.plan_delivery(NodeId(0), NodeId(2), 64, SimTime::ZERO),
            DeliveryOutcome::Deliver(_)
        ));
    }

    #[test]
    fn partitions_block_cross_traffic_and_heal() {
        let mut net = SimNet::new(5, lossless(), 1);
        let minority = NodeSet::from_iter([NodeId(3), NodeId(4)]);
        net.partition(minority);
        assert_eq!(
            net.plan_delivery(NodeId(0), NodeId(4), 64, SimTime::ZERO),
            DeliveryOutcome::Drop
        );
        assert!(matches!(
            net.plan_delivery(NodeId(3), NodeId(4), 64, SimTime::ZERO),
            DeliveryOutcome::Deliver(_)
        ));
        assert!(matches!(
            net.plan_delivery(NodeId(0), NodeId(1), 64, SimTime::ZERO),
            DeliveryOutcome::Deliver(_)
        ));
        net.partition(NodeSet::EMPTY);
        assert!(matches!(
            net.plan_delivery(NodeId(0), NodeId(4), 64, SimTime::ZERO),
            DeliveryOutcome::Deliver(_)
        ));
    }

    #[test]
    fn same_seed_reproduces_same_plan() {
        let cfg = SimNetConfig {
            drop_prob: 0.2,
            duplicate_prob: 0.1,
            ..SimNetConfig::default()
        };
        let plan = |seed| {
            let mut net = SimNet::new(2, cfg, seed);
            (0..100)
                .map(|i| net.plan_delivery(NodeId(0), NodeId(1), 64, SimTime::from_nanos(i * 1000)))
                .collect::<Vec<_>>()
        };
        assert_eq!(plan(9), plan(9));
        assert_ne!(plan(9), plan(10));
    }
}
