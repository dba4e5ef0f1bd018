//! The cluster under test, launched inside the bench process, and the
//! public counters the layers expose. Nothing here reaches past a `pub`
//! function of the `hermes` crates: the layers are measured from outside.

use crate::load::{preload, Failures, TicketedKv};
use crate::spec::{Deployment, WorkloadSpec, NODES, SESSIONS, WORKERS};
use hermes::obs::TraceSpan;
use hermes::prelude::*;
use hermes::wings::CreditConfig;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

/// Pipeline depth of the preload: the client plane's per-session credit
/// budget, so the preload never stalls on flow control.
const PRELOAD_DEPTH: usize = 32;

pub enum Cluster {
    Tcp(Vec<NodeRuntime>),
    InProc(Box<ThreadCluster>),
}

/// A load session over whichever channel the deployment uses.
pub enum Session {
    Remote(ClientSession<RemoteChannel>),
    Lane(ClientSession),
}

impl TicketedKv for Session {
    fn submit(&mut self, key: Key, cop: ClientOp) -> u64 {
        match self {
            Session::Remote(s) => TicketedKv::submit(s, key, cop),
            Session::Lane(s) => TicketedKv::submit(s, key, cop),
        }
    }

    fn wait_any(&mut self) -> Option<(u64, Reply)> {
        match self {
            Session::Remote(s) => TicketedKv::wait_any(s),
            Session::Lane(s) => TicketedKv::wait_any(s),
        }
    }
}

impl Session {
    pub fn rtt_histogram(&self) -> &HistogramSnapshot {
        match self {
            Session::Remote(s) => s.rtt_histogram(),
            Session::Lane(s) => s.rtt_histogram(),
        }
    }

    pub fn credit_stalls(&self) -> u64 {
        match self {
            Session::Remote(s) => s.credit_stalls(),
            Session::Lane(s) => s.credit_stalls(),
        }
    }
}

/// Binds `n` ephemeral loopback ports and releases them for the replicas
/// to bind again (`NodeOptions` wants every peer address up front).
fn reserve_loopback_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect()
}

impl Cluster {
    /// Three replicas with a pinned view: membership is off because its
    /// leases lapse when a neighbour starves this VM, and a view change in
    /// the middle of a window measures the neighbour, not Hermes.
    pub fn launch(deployment: Deployment) -> Cluster {
        match deployment {
            Deployment::InProc => Cluster::InProc(Box::new(ThreadCluster::launch(ClusterConfig {
                nodes: NODES,
                workers_per_node: WORKERS,
                membership: None,
                ..ClusterConfig::default()
            }))),
            Deployment::Tcp => {
                let peers = reserve_loopback_addrs(NODES);
                let nodes = (0..NODES)
                    .map(|i| {
                        NodeRuntime::serve(NodeOptions {
                            node: hermes::common::NodeId(i as u32),
                            peers: peers.clone(),
                            client_addr: "127.0.0.1:0".parse().expect("loopback addr"),
                            workers: WORKERS,
                            pollers: 1,
                            protocol: ProtocolConfig::default(),
                            tcp: hermes::net::TcpConfig::default(),
                            run_for: None,
                            membership: None,
                            join: false,
                            metrics_dump: None,
                        })
                        .expect("replica binds its loopback ports")
                    })
                    .collect();
                Cluster::Tcp(nodes)
            }
        }
    }

    pub fn session(&self, node: usize) -> Session {
        match self {
            Cluster::Tcp(nodes) => Session::Remote(ClientSession::new(
                RemoteChannel::connect_within(nodes[node].client_addr(), Duration::from_secs(10))
                    .expect("client port reachable"),
                CreditConfig::default(),
            )),
            Cluster::InProc(c) => Session::Lane(c.session(node)),
        }
    }

    pub fn read_local(&self, node: usize, key: Key) -> Option<Value> {
        match self {
            Cluster::Tcp(nodes) => nodes[node].read_local(key),
            Cluster::InProc(c) => c.read_local(node, key),
        }
    }

    /// Drains the captured trace spans of every node.
    pub fn trace_spans(&self) -> Vec<TraceSpan> {
        match self {
            Cluster::Tcp(nodes) => nodes.iter().flat_map(|n| n.trace_spans()).collect(),
            Cluster::InProc(c) => (0..NODES).flat_map(|n| c.trace_spans(n)).collect(),
        }
    }

    /// The metrics exposition of one node (`NodeRuntime` only: a
    /// `ThreadCluster` has no exposition plane).
    pub fn metrics_text(&self, node: usize) -> Option<String> {
        match self {
            Cluster::Tcp(nodes) => Some(nodes[node].metrics_text()),
            Cluster::InProc(_) => None,
        }
    }

    pub fn counters(&self) -> Counters {
        match self {
            Cluster::InProc(c) => Counters {
                lane_ops: (0..NODES).map(|n| c.lane_ops(n)).collect(),
                lane_ingress: (0..NODES).map(|n| c.lane_ingress(n)).collect(),
                disconnects: (0..NODES).map(|n| c.peer_disconnects(n)).sum(),
                ..Counters::default()
            },
            Cluster::Tcp(nodes) => {
                let mut c = Counters::default();
                for n in nodes {
                    let text = n.metrics_text();
                    let tcp = n.tcp_stats();
                    c.lane_ops.push(n.lane_ops());
                    c.lane_ingress.push(n.lane_ingress());
                    c.invals_sent += counter(&text, "hermes_invalidations_sent_total");
                    c.inval_acks += counter(&text, "hermes_invalidation_acks_total");
                    c.vals_sent += counter(&text, "hermes_validations_sent_total");
                    c.credit_parks += counter(&text, "hermes_credit_parks_total");
                    c.frames_sent += tcp.frames_sent();
                    c.bytes_sent += tcp.bytes_sent();
                    c.frames_dropped += tcp.frames_dropped();
                    c.disconnects += tcp.disconnects();
                }
                c
            }
        }
    }

    pub fn shutdown(self) {
        match self {
            Cluster::Tcp(nodes) => nodes.into_iter().for_each(NodeRuntime::shutdown),
            Cluster::InProc(c) => c.shutdown(),
        }
    }
}

/// An unlabelled counter of one node's exposition (every sample line
/// starts `name{node="…"`, so the brace keeps `foo` from matching
/// `foo_count`); 0 when absent.
pub fn counter(text: &str, name: &str) -> u64 {
    hermes::obs::sample_value(text, &format!("{name}{{")).unwrap_or(0.0) as u64
}

/// Cumulative counters summed over the cluster (per-lane ones per node).
/// The TCP and protocol-phase counters exist only on `NodeRuntime`s and
/// stay 0 for the in-process deployment.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub lane_ops: Vec<Vec<u64>>,
    pub lane_ingress: Vec<Vec<u64>>,
    pub invals_sent: u64,
    pub inval_acks: u64,
    pub vals_sent: u64,
    pub credit_parks: u64,
    pub frames_sent: u64,
    pub bytes_sent: u64,
    pub frames_dropped: u64,
    pub disconnects: u64,
}

impl Counters {
    /// What moved since `before`.
    pub fn since(&self, before: &Counters) -> Counters {
        let per_lane = |now: &[Vec<u64>], then: &[Vec<u64>]| {
            now.iter()
                .zip(then)
                .map(|(n, t)| n.iter().zip(t).map(|(a, b)| a - b).collect())
                .collect()
        };
        Counters {
            lane_ops: per_lane(&self.lane_ops, &before.lane_ops),
            lane_ingress: per_lane(&self.lane_ingress, &before.lane_ingress),
            invals_sent: self.invals_sent - before.invals_sent,
            inval_acks: self.inval_acks - before.inval_acks,
            vals_sent: self.vals_sent - before.vals_sent,
            credit_parks: self.credit_parks - before.credit_parks,
            frames_sent: self.frames_sent - before.frames_sent,
            bytes_sent: self.bytes_sent - before.bytes_sent,
            frames_dropped: self.frames_dropped - before.frames_dropped,
            disconnects: self.disconnects - before.disconnects,
        }
    }
}

/// A launched, connected, preloaded cluster.
pub struct Live {
    pub cluster: Cluster,
    /// Load session `i` is attached to node `i`.
    pub sessions: Vec<Session>,
}

/// The set-up the `setup_s` metric times: launch the replicas, connect the
/// load sessions, and write every key once (half through node 0, half
/// through node 1, on two threads).
pub fn setup(spec: &WorkloadSpec) -> (Live, Failures, f64) {
    let start = Instant::now();
    let cluster = Cluster::launch(spec.deployment);
    let sessions: Vec<Session> = (0..SESSIONS).map(|n| cluster.session(n)).collect();
    let mut failures = Failures::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..SESSIONS as u64)
            .map(|i| {
                let mut loader = cluster.session(i as usize);
                let per = spec.keys.div_ceil(SESSIONS as u64);
                let range = (i * per)..((i + 1) * per).min(spec.keys);
                s.spawn(move || preload(&mut loader, range, spec.value_len, PRELOAD_DEPTH))
            })
            .collect();
        for h in handles {
            failures.add(&h.join().expect("preload thread"));
        }
    });
    let secs = start.elapsed().as_secs_f64();
    (Live { cluster, sessions }, failures, secs)
}
