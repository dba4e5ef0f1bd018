use crate::CostModel;
use hermes_common::{
    ClientId, ClientOp, Effect, Key, MembershipView, NodeId, OpId, ReplicaProtocol, Reply,
};
use hermes_membership::{RmConfig, RmEffect, RmMsg, RmNode};
use hermes_net::{DeliveryOutcome, SimNet, SimNetConfig};
use hermes_sim::stats::{Histogram, LatencySummary, Timeline};
use hermes_sim::{Scheduler, SimDuration, SimTime};
use hermes_workload::{Workload, WorkloadConfig, Zipfian};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// Parameters of one simulated cluster run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of replicas (the paper uses 3, 5 and 7).
    pub nodes: usize,
    /// Worker threads per node (paper: 20-core machines).
    pub workers_per_node: usize,
    /// Closed-loop client sessions per node (load level: each session keeps
    /// one request outstanding).
    pub sessions_per_node: usize,
    /// Request stream parameters.
    pub workload: WorkloadConfig,
    /// CPU cost model.
    pub cost: CostModel,
    /// Network model.
    pub net: SimNetConfig,
    /// Message-loss timeout (paper §3.4; Figure 9 uses 150 ms).
    pub mlt: SimDuration,
    /// Completions ignored before measurement starts.
    pub warmup_ops: u64,
    /// Measured completions after which the run stops.
    pub measured_ops: u64,
    /// Hard stop on simulated time (used by the failure experiment).
    pub max_sim_time: Option<SimDuration>,
    /// RNG seed (same seed ⇒ identical run).
    pub seed: u64,
    /// Crash injection: `(time, node)` (Figure 9).
    pub crash_at: Option<(SimDuration, NodeId)>,
    /// Run the reliable-membership service (required for crash recovery).
    pub rm: Option<RmConfig>,
    /// Record a completion timeline with this bin width.
    pub timeline_bin: Option<SimDuration>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            nodes: 5,
            workers_per_node: 20,
            sessions_per_node: 120,
            workload: WorkloadConfig::default(),
            cost: CostModel::uniform(),
            net: SimNetConfig::default(),
            mlt: SimDuration::millis(10),
            warmup_ops: 50_000,
            measured_ops: 200_000,
            max_sim_time: None,
            seed: 1,
            crash_at: None,
            rm: None,
            timeline_bin: None,
        }
    }
}

/// Results of one simulated run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Completions inside the measurement window.
    pub ops_completed: u64,
    /// Length of the measurement window.
    pub elapsed: SimDuration,
    /// Aggregate throughput in millions of requests per second.
    pub throughput_mreqs: f64,
    /// Latency of reads (client-observed).
    pub reads: LatencySummary,
    /// Latency of updates (client-observed).
    pub writes: LatencySummary,
    /// Latency over all operations.
    pub all: LatencySummary,
    /// Completion timeline `(time in seconds, ops/s)` if requested.
    pub timeline: Vec<(f64, f64)>,
    /// Total protocol messages transmitted.
    pub messages_sent: u64,
    /// RMWs aborted.
    pub rmw_aborts: u64,
    /// Operations rejected with `NotOperational`.
    pub not_operational: u64,
}

enum Ev<M> {
    Issue { node: u32, session: u32 },
    Arrive { to: u32, from: u32, msg: M },
    Complete { op: OpId, reply: Reply },
    Mlt { node: u32, key: Key, gen: u64 },
    Crash { node: u32 },
    RmTick { node: u32 },
    RmArrive { to: u32, from: u32, msg: RmMsg },
}

struct PendingOp {
    node: u32,
    session: u32,
    issued: SimTime,
    is_update: bool,
}

struct Sim<'a, P: ReplicaProtocol> {
    cfg: &'a SimConfig,
    nodes: Vec<P>,
    rm: Vec<RmNode>,
    sched: Scheduler<Ev<P::Msg>>,
    net: SimNet,
    workers: Vec<BinaryHeap<Reverse<u64>>>,
    /// Per-node single-threaded serialization lane (total-order protocols).
    serial_free: Vec<u64>,
    sessions: Vec<Vec<Workload>>,
    session_seq: Vec<Vec<u64>>,
    pending: HashMap<OpId, PendingOp>,
    timer_gen: HashMap<(u32, Key), u64>,
    crashed: Vec<bool>,
    hot_keys: HashSet<u64>,
    // measurement
    total_completions: u64,
    measured: u64,
    measure_start: Option<SimTime>,
    last_completion: SimTime,
    read_hist: Histogram,
    write_hist: Histogram,
    timeline: Option<Timeline>,
    messages_sent: u64,
    rmw_aborts: u64,
    not_operational: u64,
}

impl<'a, P: ReplicaProtocol> Sim<'a, P> {
    fn new(cfg: &'a SimConfig, make: impl Fn(NodeId, usize) -> P) -> Self {
        let n = cfg.nodes;
        let nodes: Vec<P> = (0..n).map(|i| make(NodeId(i as u32), n)).collect();
        let rm = match &cfg.rm {
            Some(rm_cfg) => (0..n)
                .map(|i| {
                    RmNode::new(
                        NodeId(i as u32),
                        MembershipView::initial(n),
                        *rm_cfg,
                        SimTime::ZERO,
                    )
                })
                .collect(),
            None => Vec::new(),
        };
        let mut seed_rng = hermes_sim::rng::Rng::seeded(cfg.seed);
        let sessions: Vec<Vec<Workload>> = (0..n)
            .map(|_| {
                (0..cfg.sessions_per_node)
                    .map(|_| Workload::new(cfg.workload.clone(), seed_rng.next_u64()))
                    .collect()
            })
            .collect();
        let hot_keys = if cfg.cost.hot_ranks > 0 {
            if let Some(theta) = cfg.workload.zipf_theta {
                let z = Zipfian::new(cfg.workload.keys, theta);
                (0..cfg.cost.hot_ranks.min(cfg.workload.keys))
                    .map(|rank| z.key_of_rank(rank))
                    .collect()
            } else {
                HashSet::new()
            }
        } else {
            HashSet::new()
        };
        Sim {
            nodes,
            rm,
            sched: Scheduler::new(),
            net: SimNet::new(n, cfg.net, cfg.seed ^ 0xDEAD_BEEF),
            workers: (0..n)
                .map(|_| (0..cfg.workers_per_node).map(|_| Reverse(0u64)).collect())
                .collect(),
            serial_free: vec![0; n],
            session_seq: vec![vec![0; cfg.sessions_per_node]; n],
            sessions,
            pending: HashMap::new(),
            timer_gen: HashMap::new(),
            crashed: vec![false; n],
            hot_keys,
            total_completions: 0,
            measured: 0,
            measure_start: None,
            last_completion: SimTime::ZERO,
            read_hist: Histogram::new(),
            write_hist: Histogram::new(),
            timeline: cfg.timeline_bin.map(Timeline::new),
            messages_sent: 0,
            rmw_aborts: 0,
            not_operational: 0,
            cfg,
        }
    }

    /// Runs a protocol transition at `now`, charging `base_ns` plus
    /// per-message send cost against the node's worker pool, and schedules
    /// the visible consequences (message arrivals, client completions) at
    /// the work item's completion time.
    fn run_item(
        &mut self,
        node: u32,
        base_ns: u64,
        now: SimTime,
        f: impl FnOnce(&mut P, &mut Vec<Effect<P::Msg>>),
    ) {
        self.run_item_on(node, base_ns, now, false, f)
    }

    /// Like [`Sim::run_item`], but `serial == true` routes the work through
    /// the node's single serialization lane (total-order bottleneck).
    fn run_item_on(
        &mut self,
        node: u32,
        base_ns: u64,
        now: SimTime,
        serial: bool,
        f: impl FnOnce(&mut P, &mut Vec<Effect<P::Msg>>),
    ) {
        if self.crashed[node as usize] {
            return;
        }
        let mut fx: Vec<Effect<P::Msg>> = Vec::new();
        f(&mut self.nodes[node as usize], &mut fx);

        // Expand broadcasts and count sends for the CPU charge.
        let n = self.cfg.nodes;
        let mut sends: Vec<(u32, P::Msg)> = Vec::new();
        for e in &fx {
            match e {
                Effect::Send { to, msg } => sends.push((to.0, msg.clone())),
                Effect::Broadcast { msg } => {
                    for to in 0..n as u32 {
                        if to != node && !self.crashed[to as usize] {
                            sends.push((to, msg.clone()));
                        }
                    }
                }
                _ => {}
            }
        }
        let bytes_out: usize = sends.iter().map(|(_, m)| P::msg_wire_size(m)).sum();
        let service = base_ns
            + sends.len() as u64 * self.cfg.cost.msg_send_ns
            + (bytes_out as f64 * self.cfg.cost.per_byte_ns) as u64;

        // Earliest-free server runs this item; serialized work is pinned to
        // the node's single ordering lane.
        let done_ns = if serial {
            let free_at = self.serial_free[node as usize];
            let start = free_at.max(now.as_nanos());
            let done = start + service;
            self.serial_free[node as usize] = done;
            done
        } else {
            let pool = &mut self.workers[node as usize];
            let Reverse(free_at) = pool.pop().expect("worker pool is never empty");
            let start = free_at.max(now.as_nanos());
            let done = start + service;
            pool.push(Reverse(done));
            done
        };
        let done = SimTime::from_nanos(done_ns);

        // Messages depart at completion.
        for (to, msg) in sends {
            self.messages_sent += 1;
            let bytes = P::msg_wire_size(&msg);
            match self
                .net
                .plan_delivery(NodeId(node), NodeId(to), bytes, done)
            {
                DeliveryOutcome::Deliver(at) => {
                    self.sched.schedule_at(
                        at.max(done),
                        Ev::Arrive {
                            to,
                            from: node,
                            msg,
                        },
                    );
                }
                DeliveryOutcome::DeliverDup(a, b) => {
                    self.sched.schedule_at(
                        a.max(done),
                        Ev::Arrive {
                            to,
                            from: node,
                            msg: msg.clone(),
                        },
                    );
                    self.sched.schedule_at(
                        b.max(done),
                        Ev::Arrive {
                            to,
                            from: node,
                            msg,
                        },
                    );
                }
                DeliveryOutcome::Drop => {}
            }
        }

        // Replies and timer changes.
        for e in fx {
            match e {
                Effect::Reply { op, reply } => {
                    self.sched.schedule_at(done, Ev::Complete { op, reply });
                }
                Effect::ArmTimer { key } => {
                    let gen = self.timer_gen.entry((node, key)).or_insert(0);
                    *gen += 1;
                    let gen = *gen;
                    self.sched
                        .schedule_at(now + self.cfg.mlt, Ev::Mlt { node, key, gen });
                }
                Effect::DisarmTimer { key } => {
                    *self.timer_gen.entry((node, key)).or_insert(0) += 1;
                }
                Effect::Send { .. } | Effect::Broadcast { .. } => {}
            }
        }
    }

    fn issue(&mut self, node: u32, session: u32, now: SimTime) {
        if self.crashed[node as usize] {
            return;
        }
        let op_desc = self.sessions[node as usize][session as usize].next_op();
        let seq = &mut self.session_seq[node as usize][session as usize];
        *seq += 1;
        let op = OpId::new(
            ClientId(node as u64 * self.cfg.sessions_per_node as u64 + session as u64),
            *seq,
        );
        let is_update = op_desc.op.is_update();
        let base = match &op_desc.op {
            ClientOp::Read => {
                if self.hot_keys.contains(&op_desc.key.0) {
                    self.cfg.cost.hot_read_ns
                } else {
                    self.cfg.cost.read_ns
                }
            }
            _ => self.cfg.cost.update_ns,
        };
        self.pending.insert(
            op,
            PendingOp {
                node,
                session,
                issued: now,
                is_update,
            },
        );
        let key = op_desc.key;
        let cop = op_desc.op;
        let serial = is_update && self.nodes[node as usize].update_serializes();
        self.run_item_on(node, base, now, serial, |p, fx| {
            p.on_client_op(op, key, cop, fx)
        });
    }

    fn complete(&mut self, op: OpId, reply: Reply, now: SimTime) {
        let Some(info) = self.pending.remove(&op) else {
            return; // duplicate or unknown completion
        };
        match &reply {
            Reply::RmwAborted => self.rmw_aborts += 1,
            Reply::NotOperational => {
                self.not_operational += 1;
                // Back off and retry issuing from this session unless the
                // node is gone.
                if !self.crashed[info.node as usize] {
                    self.sched.schedule(
                        SimDuration::millis(1),
                        Ev::Issue {
                            node: info.node,
                            session: info.session,
                        },
                    );
                }
                return;
            }
            _ => {}
        }
        self.total_completions += 1;
        if self.total_completions > self.cfg.warmup_ops {
            if self.measure_start.is_none() {
                self.measure_start = Some(now);
            }
            self.measured += 1;
            self.last_completion = now;
            let lat = now.saturating_since(info.issued).as_nanos();
            if info.is_update {
                self.write_hist.record(lat);
            } else {
                self.read_hist.record(lat);
            }
            if let Some(tl) = self.timeline.as_mut() {
                tl.record(now);
            }
        }
        // Closed loop: next request immediately.
        self.sched.schedule_at(
            now,
            Ev::Issue {
                node: info.node,
                session: info.session,
            },
        );
    }

    fn rm_apply(&mut self, node: u32, fx: Vec<RmEffect>, now: SimTime) {
        for e in fx {
            match e {
                RmEffect::Send(to, msg) => self.rm_send(node, to.0, msg, now),
                RmEffect::Broadcast(msg) => {
                    let peers = self.rm[node as usize].view().broadcast_set(NodeId(node));
                    for to in peers {
                        self.rm_send(node, to.0, msg.clone(), now);
                    }
                }
                RmEffect::InstallView(view) => {
                    let update = self.cfg.cost.update_ns;
                    self.run_item(node, update, now, |p, fx| {
                        p.on_membership_update(view, fx);
                    });
                }
                // Only a joiner asks for catch-up; every simulated node is
                // a founding member.
                RmEffect::SyncRequest(_) => {}
            }
        }
    }

    fn rm_send(&mut self, from: u32, to: u32, msg: RmMsg, now: SimTime) {
        // Membership traffic is small control-plane traffic (~64B).
        match self.net.plan_delivery(NodeId(from), NodeId(to), 64, now) {
            DeliveryOutcome::Deliver(at) | DeliveryOutcome::DeliverDup(at, _) => {
                self.sched.schedule_at(at, Ev::RmArrive { to, from, msg });
            }
            DeliveryOutcome::Drop => {}
        }
    }

    fn run(mut self) -> RunReport {
        // Prime the client sessions.
        for node in 0..self.cfg.nodes as u32 {
            for session in 0..self.cfg.sessions_per_node as u32 {
                self.sched
                    .schedule_at(SimTime::ZERO, Ev::Issue { node, session });
            }
        }
        // Crash injection and membership ticks.
        if let Some((at, node)) = self.cfg.crash_at {
            self.sched
                .schedule_at(SimTime::ZERO + at, Ev::Crash { node: node.0 });
        }
        if let Some(rm_cfg) = &self.cfg.rm {
            for node in 0..self.cfg.nodes as u32 {
                self.sched
                    .schedule(rm_cfg.heartbeat_interval, Ev::RmTick { node });
            }
        }

        let hard_stop = self.cfg.max_sim_time;
        while let Some((now, _, ev)) = self.sched.pop() {
            if let Some(stop) = hard_stop {
                if now.as_nanos() > stop.as_nanos() {
                    break;
                }
            }
            if self.measured >= self.cfg.measured_ops {
                break;
            }
            match ev {
                Ev::Issue { node, session } => self.issue(node, session, now),
                Ev::Arrive { to, from, msg } => {
                    if !self.crashed[to as usize] {
                        let recv = self.cfg.cost.msg_recv_ns
                            + (P::msg_wire_size(&msg) as f64 * self.cfg.cost.per_byte_ns) as u64;
                        let serial = self.nodes[to as usize].msg_serializes(&msg);
                        self.run_item_on(to, recv, now, serial, |p, fx| {
                            p.on_message(NodeId(from), msg, fx)
                        });
                    }
                }
                Ev::Complete { op, reply } => self.complete(op, reply, now),
                Ev::Mlt { node, key, gen } => {
                    if self.timer_gen.get(&(node, key)).copied() == Some(gen) {
                        let t = self.cfg.cost.timer_ns;
                        self.run_item(node, t, now, |p, fx| p.on_timer(key, fx));
                    }
                }
                Ev::Crash { node } => {
                    self.crashed[node as usize] = true;
                    self.net.crash(NodeId(node));
                }
                Ev::RmTick { node } => {
                    if !self.crashed[node as usize] && !self.rm.is_empty() {
                        let mut fx = Vec::new();
                        self.rm[node as usize].on_tick(now, &mut fx);
                        self.rm_apply(node, fx, now);
                        let interval = self
                            .cfg
                            .rm
                            .as_ref()
                            .expect("rm ticks only exist with rm configured")
                            .heartbeat_interval;
                        self.sched.schedule(interval, Ev::RmTick { node });
                    }
                }
                Ev::RmArrive { to, from, msg } => {
                    if !self.crashed[to as usize] && !self.rm.is_empty() {
                        let mut fx = Vec::new();
                        self.rm[to as usize].on_message(NodeId(from), msg, now, &mut fx);
                        self.rm_apply(to, fx, now);
                    }
                }
            }
        }

        let elapsed = match self.measure_start {
            Some(start) => self.last_completion.saturating_since(start),
            None => SimDuration::ZERO,
        };
        let throughput = if elapsed.is_zero() {
            0.0
        } else {
            self.measured as f64 / elapsed.as_secs_f64() / 1e6
        };
        let mut all = Histogram::new();
        all.merge(&self.read_hist);
        all.merge(&self.write_hist);
        RunReport {
            ops_completed: self.measured,
            elapsed,
            throughput_mreqs: throughput,
            reads: self.read_hist.summary(),
            writes: self.write_hist.summary(),
            all: all.summary(),
            timeline: self.timeline.map(|tl| tl.ops_per_sec()).unwrap_or_default(),
            messages_sent: self.messages_sent,
            rmw_aborts: self.rmw_aborts,
            not_operational: self.not_operational,
        }
    }
}

/// Runs one simulated cluster experiment with replicas built by `make`
/// (called once per node with `(id, cluster_size)`).
///
/// The same entry point drives Hermes and every baseline — the "same KVS
/// and communication substrate" methodology of paper §5.1.
pub fn run_sim<P, F>(cfg: &SimConfig, make: F) -> RunReport
where
    P: ReplicaProtocol,
    F: Fn(NodeId, usize) -> P,
{
    Sim::new(cfg, make).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_baselines::{CraqNode, ZabNode};
    use hermes_core::{HermesNode, ProtocolConfig};

    fn small_cfg() -> SimConfig {
        SimConfig {
            nodes: 3,
            workers_per_node: 4,
            sessions_per_node: 16,
            workload: WorkloadConfig {
                keys: 1000,
                write_ratio: 0.2,
                ..WorkloadConfig::default()
            },
            warmup_ops: 2_000,
            measured_ops: 10_000,
            seed: 7,
            ..SimConfig::default()
        }
    }

    fn hermes(cfg: &SimConfig) -> RunReport {
        run_sim(cfg, |id, n| {
            HermesNode::new(id, MembershipView::initial(n), ProtocolConfig::default())
        })
    }

    #[test]
    fn hermes_run_completes_and_reports() {
        let r = hermes(&small_cfg());
        assert_eq!(r.ops_completed, 10_000);
        assert!(r.throughput_mreqs > 0.0);
        assert!(r.reads.count > 0 && r.writes.count > 0);
        assert!(r.messages_sent > 0);
        assert_eq!(r.rmw_aborts, 0);
        // Reads are local: median read latency ≈ service time ≪ write
        // latency (which pays a network round trip).
        assert!(
            r.writes.p50_ns > r.reads.p50_ns * 3,
            "writes {} vs reads {}",
            r.writes.p50_ns,
            r.reads.p50_ns
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = hermes(&small_cfg());
        let b = hermes(&small_cfg());
        assert_eq!(a.ops_completed, b.ops_completed);
        assert_eq!(a.messages_sent, b.messages_sent);
        assert_eq!(a.all.p50_ns, b.all.p50_ns);
        let mut cfg2 = small_cfg();
        cfg2.seed = 8;
        let c = hermes(&cfg2);
        assert_ne!(a.messages_sent, c.messages_sent);
    }

    #[test]
    fn read_only_needs_no_messages_for_hermes() {
        let mut cfg = small_cfg();
        cfg.workload.write_ratio = 0.0;
        let r = hermes(&cfg);
        assert_eq!(r.messages_sent, 0);
        assert_eq!(r.writes.count, 0);
    }

    #[test]
    fn baselines_run_under_same_harness() {
        let cfg = small_cfg();
        let zab = run_sim(&cfg, ZabNode::new);
        let craq = run_sim(&cfg, CraqNode::new);
        assert_eq!(zab.ops_completed, 10_000);
        assert_eq!(craq.ops_completed, 10_000);
        assert!(zab.throughput_mreqs > 0.0);
        assert!(craq.throughput_mreqs > 0.0);
    }

    #[test]
    fn hermes_beats_zab_at_moderate_write_ratio() {
        let mut cfg = small_cfg();
        cfg.workload.write_ratio = 0.2;
        cfg.measured_ops = 8_000;
        let h = hermes(&cfg);
        let z = run_sim(&cfg, ZabNode::new);
        assert!(
            h.throughput_mreqs > z.throughput_mreqs,
            "hermes {} vs zab {}",
            h.throughput_mreqs,
            z.throughput_mreqs
        );
    }

    #[test]
    fn crash_with_rm_recovers_throughput() {
        let mut cfg = small_cfg();
        cfg.workload.write_ratio = 0.05;
        cfg.nodes = 3;
        cfg.workers_per_node = 2;
        cfg.sessions_per_node = 4;
        cfg.measured_ops = u64::MAX;
        cfg.warmup_ops = 0;
        cfg.max_sim_time = Some(SimDuration::millis(450));
        cfg.crash_at = Some((SimDuration::millis(150), NodeId(2)));
        cfg.rm = Some(RmConfig::default());
        cfg.timeline_bin = Some(SimDuration::millis(10));
        cfg.mlt = SimDuration::millis(20);
        let r = hermes(&cfg);
        assert!(!r.timeline.is_empty());
        // Throughput exists before the crash and again near the end.
        let early: f64 = r
            .timeline
            .iter()
            .filter(|(t, _)| *t < 0.12)
            .map(|(_, v)| v)
            .sum::<f64>();
        let late: f64 = r
            .timeline
            .iter()
            .filter(|(t, _)| *t > 0.38)
            .map(|(_, v)| v)
            .sum::<f64>();
        assert!(early > 0.0, "no throughput before crash");
        assert!(
            late > 0.0,
            "throughput did not recover after reconfiguration"
        );
    }
}
