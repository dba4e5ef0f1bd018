//! A real multi-threaded Hermes cluster in one process: N replicas × W
//! worker lanes, each lane owning one key shard with its own protocol
//! engine, Wings framing over a pluggable transport, and a seqlock KVS
//! mirror per node for lock-free local reads — the HermesKV architecture
//! of paper §4 at in-process scale, including the multi-worker inter-key
//! concurrency the paper's evaluation measures (§2.3, §5.1.1).
//!
//! A [`ThreadCluster`] is nothing but its `Node`s: each one owns its lane
//! threads, their queues and links, and the shared store
//! (`host.rs`), and steps the lanes of `lane.rs`. This module only
//! launches them and gives them a cluster-shaped face.
//!
//! The runtime is generic over the [`Transport`](hermes_net::Transport):
//! crossbeam channels for in-process clusters ([`ThreadCluster::launch`]),
//! loopback TCP sockets for the same shape over the real network stack
//! ([`ThreadCluster::launch_endpoints`] over a
//! [`TcpNet`](hermes_net::TcpNet)'s endpoints), and one-node-per-process
//! TCP deployments via [`NodeRuntime`](crate::NodeRuntime).
//!
//! Clients talk to a node through pipelined [`ClientSession`]s
//! ([`ThreadCluster::session`]) with many operations in flight, or through
//! the blocking one-op helpers ([`ThreadCluster::write`] etc.), each a
//! session of one operation. Such a session reads a `Valid` key from the
//! node's mirror on its own thread and subscribes to nothing: the client
//! cache of DESIGN.md §8 belongs to remote sessions
//! ([`NodeRuntime`](crate::NodeRuntime)).

use crate::host::Node;
use crate::lane::Command;
use crate::membership::MembershipStatus;
use crate::session::{ClientSession, LaneChannel};
use hermes_common::{ClientId, ClientOp, Key, MembershipView, Reply, RmwOp, Value};
use hermes_core::ProtocolConfig;
use hermes_net::{Endpoint, InProcNet, NetFaults};
use hermes_obs::TraceSpan;
use hermes_wings::CreditConfig;
use std::sync::atomic::{AtomicU64, Ordering};

/// Deployment shape of a [`ThreadCluster`].
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of replica nodes.
    pub nodes: usize,
    /// Worker threads (key shards) per node; ≥ 1.
    pub workers_per_node: usize,
    /// Protocol switches for every replica.
    pub protocol: ProtocolConfig,
    /// Network fault injection on the in-process transport. Hermes absorbs
    /// loss and duplication through its message-loss timeouts (paper §3.4):
    /// the cluster keeps making progress, just slower.
    pub faults: NetFaults,
    /// Seed for the fault injector.
    pub seed: u64,
    /// Run the live membership subsystem on every node (heartbeats,
    /// failure detection, lease-gated view changes — DESIGN.md §5).
    /// `None` pins the initial view for the cluster's lifetime.
    pub membership: Option<hermes_membership::RmConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 3,
            workers_per_node: 2,
            protocol: ProtocolConfig::default(),
            faults: NetFaults::default(),
            seed: 0,
            membership: None,
        }
    }
}
/// Handle to a running threaded Hermes cluster.
///
/// # Examples
///
/// ```
/// use hermes_common::{Key, Reply, Value};
/// use hermes_core::ProtocolConfig;
/// use hermes_replica::ThreadCluster;
///
/// let cluster = ThreadCluster::start(3, ProtocolConfig::default());
/// let reply = cluster.write(0, Key(1), Value::from_u64(42));
/// assert_eq!(reply, Reply::WriteOk);
/// assert_eq!(cluster.read(2, Key(1)), Reply::ReadOk(Value::from_u64(42)));
/// cluster.shutdown();
/// ```
#[derive(Debug)]
pub struct ThreadCluster {
    nodes: Vec<Node>,
    next_session: AtomicU64,
}

impl ThreadCluster {
    /// Starts `n` replicas with a fault-free network and the default worker
    /// count per node (see [`ClusterConfig`]).
    pub fn start(n: usize, cfg: ProtocolConfig) -> Self {
        Self::launch(ClusterConfig {
            nodes: n,
            protocol: cfg,
            ..ClusterConfig::default()
        })
    }

    /// Starts a cluster with an explicit deployment shape over the default
    /// in-process transport.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.nodes` or `cfg.workers_per_node` is zero.
    pub fn launch(cfg: ClusterConfig) -> Self {
        assert!(cfg.nodes > 0, "cluster needs at least one node");
        let net = InProcNet::with_faults(cfg.nodes, cfg.faults, cfg.seed);
        Self::launch_endpoints(net.into_endpoints(), cfg)
    }

    /// Starts a cluster over any [`Transport`](hermes_net::Transport)'s endpoints — loopback TCP
    /// ([`TcpNet`](hermes_net::TcpNet)), in-process channels, or anything
    /// else implementing the trait pair. Callers may keep transport handles
    /// — e.g. a [`TcpSender`](hermes_net::TcpSender) for fault injection —
    /// before the runtime consumes the endpoints. `cfg.faults`/`cfg.seed`
    /// are properties of the in-process transport [`ThreadCluster::launch`]
    /// builds and are ignored here.
    ///
    /// # Panics
    ///
    /// Panics if `endpoints.len()` differs from `cfg.nodes`, or if
    /// `cfg.workers_per_node` is zero.
    pub fn launch_endpoints<E: Endpoint>(endpoints: Vec<E>, cfg: ClusterConfig) -> Self {
        assert!(!endpoints.is_empty(), "cluster needs at least one node");
        assert_eq!(
            endpoints.len(),
            cfg.nodes,
            "transport endpoint count must match cfg.nodes"
        );
        let view = MembershipView::initial(cfg.nodes);
        let (workers, membership) = (cfg.workers_per_node, cfg.membership);
        let nodes = endpoints
            .into_iter()
            .map(|ep| Node::spawn(ep, view, cfg.protocol, workers, None, membership, false))
            .collect::<std::io::Result<_>>()
            .expect("a lane's epoll and eventfd, and its sockets registered in them");
        ThreadCluster {
            nodes,
            next_session: AtomicU64::new(0),
        }
    }

    /// Worker threads (key shards) per node.
    pub fn workers_per_node(&self) -> usize {
        self.nodes[0].lanes().workers()
    }

    /// Opens a pipelined [`ClientSession`] against replica `node`.
    ///
    /// Each session gets a globally unique [`ClientId`]; sessions are
    /// independent and can be moved to their own threads. Pipelining is
    /// bounded by the default Wings credit budget
    /// ([`CreditConfig::default`]); [`ThreadCluster::session_with_credits`]
    /// picks a different bound.
    pub fn session(&self, node: usize) -> ClientSession {
        self.session_with_credits(node, CreditConfig::default())
    }

    /// Opens a pipelined session whose end-to-end pipelining is bounded by
    /// an explicit Wings credit budget (`credits.credits_per_peer` ops in
    /// flight; further submissions block until a completion returns a
    /// credit).
    pub fn session_with_credits(&self, node: usize, credits: CreditConfig) -> ClientSession {
        let client = ClientId(self.next_session.fetch_add(1, Ordering::Relaxed));
        ClientSession::new(LaneChannel::new(client, &self.nodes[node]), credits)
    }

    /// How many peer-connection drops replica `node`'s transport has
    /// surfaced ([`NetEvent::PeerDown`](hermes_net::NetEvent)). Always
    /// zero on the in-process transport; on TCP it counts real disconnects.
    pub fn peer_disconnects(&self, node: usize) -> u64 {
        self.nodes[node].peer_disconnects()
    }

    /// Live membership gauges of replica `node` (current view epoch,
    /// members, serving state, view-change count). Static — the initial
    /// view, serving forever — unless the cluster was launched with
    /// [`ClusterConfig::membership`].
    pub fn membership(&self, node: usize) -> &MembershipStatus {
        self.nodes[node].status()
    }

    /// Client operations handled per worker lane of replica `node` since
    /// start — the gauge that shows multi-key transactions really fanning
    /// their sub-operations across shard lanes.
    pub fn lane_ops(&self, node: usize) -> Vec<u64> {
        self.nodes[node].lane_ops()
    }

    /// Peer messages handled by each worker lane of replica `node` — read
    /// by the lane itself off its own links, its connections over TCP and
    /// its inbox in process. All-zero only before any replication traffic.
    pub fn lane_ingress(&self, node: usize) -> Vec<u64> {
        self.nodes[node].lane_ingress()
    }

    /// Replica `node`'s metrics exposition: the text a `hermesd` serves
    /// through its `Metrics` RPC
    /// ([`NodeRuntime::metrics_text`](crate::NodeRuntime::metrics_text)),
    /// less the TCP transport's `hermes_tcp_*` rows.
    pub fn metrics_text(&self, node: usize) -> String {
        self.nodes[node].metrics_text()
    }

    /// Drains every captured trace span (slow ops and sampled ops) from
    /// replica `node`'s rings — what the Traces RPC serves on a real
    /// deployment. Each span is returned exactly once; stitch spans from
    /// all nodes with [`hermes_obs::stitch`] to rebuild cross-node
    /// timelines.
    pub fn trace_spans(&self, node: usize) -> Vec<TraceSpan> {
        self.nodes[node].trace_spans()
    }

    /// One operation on a session of its own; one that does not complete
    /// within the session's 10 s limit reads as [`Reply::NotOperational`].
    fn submit(&self, node: usize, key: Key, cop: ClientOp) -> Reply {
        let mut session = self.session(node);
        let ticket = session.submit(key, cop);
        session.wait(ticket)
    }

    /// Linearizable write through replica `node`.
    pub fn write(&self, node: usize, key: Key, value: Value) -> Reply {
        self.submit(node, key, ClientOp::Write(value))
    }

    /// Linearizable read through replica `node`.
    pub fn read(&self, node: usize, key: Key) -> Reply {
        self.submit(node, key, ClientOp::Read)
    }

    /// Read-modify-write through replica `node`.
    pub fn rmw(&self, node: usize, key: Key, rmw: RmwOp) -> Reply {
        self.submit(node, key, ClientOp::Rmw(rmw))
    }

    /// Lock-free local read straight from `node`'s seqlock KVS mirror,
    /// bypassing the protocol workers — the CRCW fast path of paper §4.1.
    ///
    /// Returns `None` when the key is invalidated (a protocol read would
    /// stall) — fall back to [`ThreadCluster::read`] in that case — or
    /// when the replica is not serving (expired lease, deposed from the
    /// view): the mirror may be stale then, and serving it would break
    /// linearizability.
    pub fn read_local(&self, node: usize, key: Key) -> Option<Value> {
        self.nodes[node].read_local(key)
    }

    /// Installs a membership view on every worker lane of every replica
    /// (driving reconfiguration scenarios from tests).
    pub fn install_view(&self, view: MembershipView) {
        for node in &self.nodes {
            node.lanes().fan_out(None, || Command::InstallView(view));
        }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no replicas (never true for a started one).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn stop(&mut self) {
        for node in &self.nodes {
            node.signal_stop();
        }
        for node in &mut self.nodes {
            node.stop();
        }
    }

    /// Stops all replica worker threads and waits for them.
    pub fn shutdown(mut self) {
        self.stop();
    }
}

impl Drop for ThreadCluster {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn write_read_across_threads() {
        let cluster = ThreadCluster::start(3, ProtocolConfig::default());
        assert_eq!(cluster.len(), 3);
        assert!(cluster.workers_per_node() >= 2, "sharded by default");
        assert_eq!(cluster.write(0, Key(1), Value::from_u64(7)), Reply::WriteOk);
        for node in 0..3 {
            assert_eq!(
                cluster.read(node, Key(1)),
                Reply::ReadOk(Value::from_u64(7)),
                "node {node}"
            );
        }
        cluster.shutdown();
    }

    #[test]
    fn lock_free_local_reads_see_committed_values() {
        let cluster = ThreadCluster::start(3, ProtocolConfig::default());
        cluster.write(1, Key(5), Value::from_u64(9));
        // The protocol read guarantees commitment; afterwards the seqlock
        // mirror on the coordinator serves the value lock-free.
        assert_eq!(cluster.read(1, Key(5)), Reply::ReadOk(Value::from_u64(9)));
        assert_eq!(cluster.read_local(1, Key(5)), Some(Value::from_u64(9)));
        cluster.shutdown();
    }

    #[test]
    fn concurrent_writers_from_all_nodes() {
        let cluster = Arc::new(ThreadCluster::start(3, ProtocolConfig::default()));
        let mut joins = Vec::new();
        for node in 0..3usize {
            let c = Arc::clone(&cluster);
            joins.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let r = c.write(node, Key(i % 8), Value::from_u64(node as u64 * 1000 + i));
                    assert_eq!(r, Reply::WriteOk);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        // All replicas converge per key.
        for k in 0..8u64 {
            let v0 = cluster.read(0, Key(k));
            let v1 = cluster.read(1, Key(k));
            let v2 = cluster.read(2, Key(k));
            assert_eq!(v0, v1, "k{k}");
            assert_eq!(v1, v2, "k{k}");
        }
        match Arc::try_unwrap(cluster) {
            Ok(c) => c.shutdown(),
            Err(_) => panic!("cluster still shared"),
        }
    }

    #[test]
    fn rmw_cas_over_threads() {
        let cluster = ThreadCluster::start(3, ProtocolConfig::default());
        cluster.write(0, Key(1), Value::from_u64(0));
        let r = cluster.rmw(
            1,
            Key(1),
            RmwOp::CompareAndSwap {
                expect: Value::from_u64(0),
                new: Value::from_u64(1),
            },
        );
        assert!(matches!(r, Reply::RmwOk { .. }), "got {r:?}");
        assert_eq!(cluster.read(2, Key(1)), Reply::ReadOk(Value::from_u64(1)));
        cluster.shutdown();
    }

    #[test]
    fn progress_under_lossy_network() {
        // 20% loss + 10% duplication: mlt retransmissions and replays keep
        // the cluster live (paper §3.4).
        let cluster = ThreadCluster::launch(ClusterConfig {
            faults: NetFaults {
                drop_prob: 0.2,
                duplicate_prob: 0.1,
            },
            seed: 42,
            ..ClusterConfig::default()
        });
        for i in 0..10u64 {
            let r = cluster.write((i % 3) as usize, Key(i), Value::from_u64(i));
            assert_eq!(r, Reply::WriteOk, "write {i} failed under loss");
        }
        for i in 0..10u64 {
            let r = cluster.read(((i + 1) % 3) as usize, Key(i));
            assert_eq!(r, Reply::ReadOk(Value::from_u64(i)), "read {i} under loss");
        }
        cluster.shutdown();
    }

    /// `workers` lanes per node: blocking writes through every node read
    /// back from another, and a pipelined session's 16 writes, all in
    /// flight at once across the lanes, each complete exactly once.
    fn workers_per_node_converge(workers: usize) {
        let cluster = ThreadCluster::launch(ClusterConfig {
            nodes: 3,
            workers_per_node: workers,
            ..ClusterConfig::default()
        });
        assert_eq!(cluster.workers_per_node(), workers);
        for i in 0..32u64 {
            assert_eq!(
                cluster.write((i % 3) as usize, Key(i), Value::from_u64(i * 3)),
                Reply::WriteOk
            );
        }
        for i in 0..32u64 {
            assert_eq!(
                cluster.read(((i + 1) % 3) as usize, Key(i)),
                Reply::ReadOk(Value::from_u64(i * 3)),
                "key {i}"
            );
        }
        let mut session = cluster.session(1);
        let mut pending: HashSet<_> = (0..16u64)
            .map(|i| session.write(Key(100 + i), Value::from_u64(i)))
            .collect();
        while let Some((ticket, reply)) = session.wait_any() {
            assert_eq!(reply, Reply::WriteOk, "W={workers}");
            assert!(
                pending.remove(&ticket),
                "W={workers}: one completion per op"
            );
        }
        assert!(
            pending.is_empty(),
            "W={workers}: {} ops lost",
            pending.len()
        );
        cluster.shutdown();
    }

    #[test]
    fn one_worker_per_node_converges() {
        workers_per_node_converge(1);
    }

    #[test]
    fn four_workers_per_node_converge() {
        workers_per_node_converge(4);
    }

    #[test]
    fn eight_workers_per_node_converge() {
        workers_per_node_converge(8);
    }

    #[test]
    fn pipelined_session_completes_out_of_order_submissions() {
        let cluster = ThreadCluster::start(3, ProtocolConfig::default());
        let mut session = cluster.session(0);
        // 16 writes in flight at once across many shards, then collect all.
        let tickets: Vec<_> = (0..16u64)
            .map(|i| session.write(Key(i), Value::from_u64(100 + i)))
            .collect();
        assert!(session.outstanding() > 0);
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(session.wait(t), Reply::WriteOk, "write {i}");
        }
        assert_eq!(session.outstanding(), 0);
        // Reads through another session on another node observe the writes.
        let mut reader = cluster.session(2);
        let tickets: Vec<_> = (0..16u64).map(|i| reader.read(Key(i))).collect();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(
                reader.wait(t),
                Reply::ReadOk(Value::from_u64(100 + i as u64)),
                "read {i}"
            );
        }
        cluster.shutdown();
    }

    #[test]
    fn session_poll_and_wait_any_surface_completions() {
        let cluster = ThreadCluster::start(3, ProtocolConfig::default());
        let mut session = cluster.session(1);
        let t = session.write(Key(9), Value::from_u64(1));
        // Poll until complete (non-blocking each time).
        let reply = loop {
            if let Some(r) = session.poll(t) {
                break r;
            }
            std::thread::yield_now();
        };
        assert_eq!(reply, Reply::WriteOk);
        // wait_any returns each outstanding completion exactly once.
        let a = session.read(Key(9));
        let b = session.read(Key(9));
        let mut seen = Vec::new();
        while let Some((ticket, reply)) = session.wait_any() {
            assert_eq!(reply, Reply::ReadOk(Value::from_u64(1)));
            seen.push(ticket.op());
        }
        let mut expect = vec![a.op(), b.op()];
        expect.sort();
        seen.sort();
        assert_eq!(seen, expect);
        cluster.shutdown();
    }

    #[test]
    fn install_view_does_not_clobber_local_read_mirrors() {
        // Regression: InstallView used to mirror Key(0) from *every* lane;
        // a non-owner lane would overwrite the owner's committed slot with
        // empty Valid state, breaking the read_local fast path.
        let cluster = ThreadCluster::launch(ClusterConfig {
            nodes: 3,
            workers_per_node: 4,
            ..ClusterConfig::default()
        });
        for i in 0..50u64 {
            assert_eq!(
                cluster.write(0, Key(0), Value::from_u64(i + 1)),
                Reply::WriteOk
            );
            cluster.install_view(MembershipView::initial(3));
            // Settle: the protocol read proves commitment, then the mirror
            // must still hold the committed value.
            assert_eq!(
                cluster.read(0, Key(0)),
                Reply::ReadOk(Value::from_u64(i + 1))
            );
            assert_eq!(
                cluster.read_local(0, Key(0)),
                Some(Value::from_u64(i + 1)),
                "iteration {i}: view install clobbered the seqlock mirror"
            );
        }
        cluster.shutdown();
    }

    #[test]
    fn sampled_write_traces_coordinator_and_followers() {
        hermes_obs::set_recording(true);
        hermes_obs::set_trace_sample(1.0);
        let cluster = ThreadCluster::start(3, ProtocolConfig::default());
        assert_eq!(
            cluster.write(0, Key(3), Value::from_u64(11)),
            Reply::WriteOk
        );
        // The coordinator's span completes with the reply; follower spans
        // complete at their lanes' next flush — poll briefly for both.
        let mut spans = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        let (issued, ingress) = loop {
            for node in 0..3 {
                spans.extend(cluster.trace_spans(node));
            }
            let issued = spans
                .iter()
                .find(|s| s.phases.iter().any(|(p, _)| p == "issued"))
                .cloned();
            let ingress = spans
                .iter()
                .find(|s| s.phases.iter().any(|(p, _)| p == "inv_ingress"))
                .cloned();
            match (issued, ingress) {
                (Some(i), Some(g)) => break (i, g),
                _ if Instant::now() > deadline => {
                    panic!("spans never surfaced: {spans:?}")
                }
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        hermes_obs::set_trace_sample(0.0);
        // One causal identity across nodes: the follower's ingress span
        // carries the id minted at the coordinator, plus its own phases
        // and a wall-clock anchor for cross-node stitching.
        assert_eq!(issued.trace, ingress.trace);
        assert_ne!(issued.trace, 0);
        assert_ne!(issued.node, ingress.node);
        assert!(issued.start_unix_us > 0 && ingress.start_unix_us > 0);
        for phase in ["local_apply", "ack_enqueue", "ack_write"] {
            assert!(
                ingress.phases.iter().any(|(p, _)| p == phase),
                "follower span missing {phase}: {ingress:?}"
            );
        }
        let timelines = hermes_obs::stitch(&spans);
        let tl = timelines
            .iter()
            .find(|t| t.trace == issued.trace)
            .expect("stitched timeline for the sampled write");
        assert!(
            tl.events.iter().any(|e| e.phase == "inv_ingress"),
            "timeline lost the follower hop: {}",
            tl.render()
        );
        cluster.shutdown();
    }

    #[test]
    fn sessions_have_unique_client_ids() {
        let cluster = ThreadCluster::start(3, ProtocolConfig::default());
        let a = cluster.session(0);
        let b = cluster.session(0);
        let c = cluster.session(2);
        assert_ne!(a.client_id(), b.client_id());
        assert_ne!(b.client_id(), c.client_id());
        cluster.shutdown();
    }

    #[test]
    fn reads_and_updates_run_on_the_lane_owning_their_key() {
        // Hermes serializes nothing: an update runs on the lane owning its
        // key, and so does a read that queues behind the session's own
        // update of the key. A read of a `Valid` key runs on no lane: the
        // session's channel answers it from the mirror, every time.
        let cluster = ThreadCluster::launch(ClusterConfig {
            nodes: 3,
            workers_per_node: 4,
            ..ClusterConfig::default()
        });
        for raw in 0..16u64 {
            let key = Key(raw);
            let owner = key.shard(4);
            assert_eq!(cluster.nodes[0].lanes().owner(key), owner);
            let mut expect = cluster.lane_ops(0);
            assert_eq!(cluster.write(0, key, Value::from_u64(raw)), Reply::WriteOk);
            expect[owner] += 1;
            assert_eq!(cluster.lane_ops(0), expect, "write of key {raw}");
            let rmw = cluster.rmw(0, key, RmwOp::FetchAdd { delta: 1 });
            assert!(matches!(rmw, Reply::RmwOk { .. }), "{rmw:?}");
            expect[owner] += 1;
            assert_eq!(cluster.lane_ops(0), expect, "rmw of key {raw}");
            assert!(matches!(cluster.read(0, key), Reply::ReadOk(_)));
            assert_eq!(cluster.lane_ops(0), expect, "read of Valid key {raw}");

            let mut session = cluster.session(0);
            let write = session.write(key, Value::from_u64(raw + 100));
            let read = session.read(key);
            assert_eq!(session.wait(write), Reply::WriteOk);
            assert_eq!(
                session.wait(read),
                Reply::ReadOk(Value::from_u64(raw + 100))
            );
            expect[owner] += 2;
            assert_eq!(
                cluster.lane_ops(0),
                expect,
                "read behind the session's own write of key {raw}"
            );

            // In process the mirror is the cache: the session cannot
            // subscribe, and its repeat reads of the `Valid` key count in
            // `hermes_mirror_reads_total`, not on a lane.
            assert!(!session.subscribe(key));
            let mirror_reads = || cluster.nodes[0].obs().mirror_reads.get();
            let before = mirror_reads();
            for _ in 0..3 {
                let read = session.read(key);
                let value = Value::from_u64(raw + 100);
                assert_eq!(session.wait(read), Reply::ReadOk(value));
            }
            assert_eq!(session.cache_hits(), 0, "key {raw} cached");
            assert_eq!(cluster.lane_ops(0), expect, "repeat reads of key {raw}");
            assert_eq!(mirror_reads(), before + 3, "repeat reads of key {raw}");
        }
        cluster.shutdown();
    }
}
