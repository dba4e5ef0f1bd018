//! A real multi-threaded Hermes cluster: N replicas × W worker threads,
//! each worker owning one key shard with its own protocol engine, Wings
//! framing over the in-process datagram network, and a seqlock KVS mirror
//! per node for lock-free local reads — the HermesKV architecture of paper
//! §4 at in-process scale, including the multi-worker inter-key concurrency
//! the paper's evaluation measures (§2.3, §5.1.1).
//!
//! Per node:
//!
//! * worker 0 is the **pump**: the transport's ingress threads push every
//!   [`NetEvent`] into lane 0's command queue, and the pump decodes the
//!   Wings frames and demuxes each message to the worker lane owning its
//!   key ([`ShardRouter`]); it is also the serialization lane for protocols
//!   whose messages/updates must totally order (irrelevant for Hermes,
//!   which has none). Because network frames and client commands share that
//!   *one* queue, the pump blocks on a single `recv` and wakes the moment
//!   either arrives — there is no idle-poll latency floor;
//! * every worker owns one [`HermesNode`] shard engine, its own
//!   [`DeadlineQueue`] of message-loss timers and its own Wings [`Batcher`];
//!   outgoing frames from all workers merge through clones of the node's
//!   shared [`NetSender`] egress;
//! * all workers mirror committed per-key state into one shared seqlock
//!   [`Store`], which serves cross-thread lock-free local reads (§4.1).
//!
//! The runtime is generic over the [`Transport`]: crossbeam channels for
//! in-process clusters ([`ThreadCluster::launch`]), loopback TCP sockets
//! for the same shape over the real network stack
//! ([`ThreadCluster::launch_over`] with a [`TcpNet`](hermes_net::TcpNet)),
//! and one-node-per-process TCP deployments via
//! [`NodeRuntime`](crate::NodeRuntime).
//!
//! Clients talk to a node either through the blocking one-op helpers
//! ([`ThreadCluster::write`] etc.) or through pipelined
//! [`ClientSession`]s ([`ThreadCluster::session`]) with many operations in
//! flight.

use crate::membership::{boot_view, MembershipOptions, MembershipStatus};
use crate::metrics::NodeObs;
use crate::poller::ShardHandle;
use crate::session::{ClientSession, LaneChannel, SessionEvent};
use crate::sharded::ShardedEngine;
use crate::timers::DeadlineQueue;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use hermes_common::{
    ClientId, ClientOp, Effect, Key, MembershipView, NodeId, OpId, Reply, RmwOp, ShardRouter, Value,
};
use hermes_core::{HermesNode, KeyState, Msg, ProtocolConfig, Ts, UpdateKind};
use hermes_membership::{wire, MembershipDriver, RmEffect, RmMsg};
use hermes_net::{Endpoint, InProcNet, IngressGuard, NetEvent, NetFaults, NetSender, Transport};
use hermes_obs::{obs_info, obs_warn, Phase, Span, TraceId, TraceSpan};
use hermes_store::{SlotMeta, SlotState, Store, StoreConfig};
use hermes_wings::control::{self, ControlMsg};
use hermes_wings::{codec, decode_frame, Batcher, CreditConfig};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Message-loss timeout (paper §3.4): retransmission/replay cadence.
pub(crate) const MLT: Duration = Duration::from_millis(25);
/// How long a lane waits for a remote subscriber to ack an invalidation
/// push before evicting it and releasing the held effects — the client
/// leg's analogue of the paper's bounded-delay assumption: a subscriber
/// that cannot ack within a few MLTs is treated as failed.
const PUSH_ACK_KICK: Duration = Duration::from_millis(75);
/// Bounded batch of events drained per loop iteration, per source.
const DRAIN_BATCH: usize = 64;
/// Client ids at or above this base name pipelined sessions; below it,
/// the blocking per-node helpers (keeps `OpId`s globally unique).
const SESSION_CLIENT_BASE: u64 = 1 << 32;

/// An out-of-order completion: which operation finished, and how.
pub(crate) type Completion = (OpId, Reply);

/// Where a completed client operation's reply goes: an in-process
/// completion channel (blocking helpers, [`LaneChannel`] sessions,
/// server-side transaction coordinators) or a client-plane poller shard,
/// which must additionally be woken out of its readiness wait to write the
/// reply frame ([`ShardHandle::complete`]).
#[derive(Clone)]
pub(crate) enum ReplyTo {
    /// An in-process completion channel.
    Channel(Sender<Completion>),
    /// An in-process session's unified event queue: completions ride the
    /// same FIFO as invalidation pushes, so a cache fill from a read reply
    /// can never be reordered after the push that supersedes it.
    Session(Sender<SessionEvent>),
    /// The poller shard owning the remote session (DESIGN.md §7).
    Poller(ShardHandle),
}

impl ReplyTo {
    pub(crate) fn send(&self, op: OpId, reply: Reply) {
        match self {
            ReplyTo::Channel(tx) => {
                let _ = tx.send((op, reply));
            }
            ReplyTo::Session(tx) => {
                let _ = tx.send(SessionEvent::Completion(op, reply));
            }
            ReplyTo::Poller(shard) => shard.complete(op, reply),
        }
    }
}

/// One server→client push: an invalidation of a subscribed key, a
/// subscription lifecycle ack, a flush-everything marker (view change or
/// serving loss), or the eviction of a subscriber that stopped acking.
///
/// Pushes extend Hermes' invalidation phase one hop past the replicas:
/// a client caching `key` is treated like a lightweight follower that must
/// see the invalidation before the write's effects become visible anywhere
/// (DESIGN.md §8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PushEvent {
    /// `key` changed: drop the cached entry. `epoch` lets clients detect
    /// view changes they slept through.
    Invalidate {
        /// The invalidated key.
        key: Key,
        /// View epoch at the replica when the push was generated.
        epoch: u64,
    },
    /// Subscription to `key` is live; pushed in response to `Subscribe`.
    Subscribed {
        /// Client-chosen request sequence number, echoed back.
        seq: u64,
        /// The subscribed key.
        key: Key,
        /// Current view epoch (seeds the client's epoch knowledge).
        epoch: u64,
    },
    /// Subscription to `key` ended; pushed in response to `Unsubscribe`.
    Unsubscribed {
        /// Client-chosen request sequence number, echoed back.
        seq: u64,
        /// The unsubscribed key.
        key: Key,
    },
    /// Drop *every* cached entry: the view changed (new `epoch`) or this
    /// replica stopped serving.
    Flush {
        /// The epoch after the flush-triggering event.
        epoch: u64,
    },
    /// The session failed to ack an invalidation within [`PUSH_ACK_KICK`]:
    /// tear it down. A dead session serves nothing, so eviction preserves
    /// coherence where waiting longer would stall writers.
    Evict,
}

/// Where a lane delivers push events for one subscriber.
#[derive(Clone)]
pub(crate) enum PushSink {
    /// An in-process session's unified event queue. Enqueueing happens
    /// synchronously with the write's apply on the lane thread, and the
    /// session drains this queue before serving any cached read — so an
    /// in-proc push is acknowledged by construction and never holds
    /// effects back.
    Session(Sender<SessionEvent>),
    /// A remote session via its poller shard: the frame still has to cross
    /// the network, so invalidation pushes stay pending until the client's
    /// `InvalAck` returns.
    Poller(ShardHandle),
}

impl PushSink {
    /// Sends one push; returns whether it must be acked before effects
    /// touching the key may leave this replica.
    fn push(&self, client: ClientId, ev: PushEvent) -> bool {
        match self {
            PushSink::Session(tx) => {
                if let Some(ev) = SessionEvent::from_push(ev) {
                    let _ = tx.send(ev);
                }
                false
            }
            PushSink::Poller(shard) => {
                shard.push(client, ev);
                matches!(ev, PushEvent::Invalidate { .. })
            }
        }
    }
}

/// Node-wide client-subscription gauges surfaced through the stats RPC.
#[derive(Debug, Default)]
pub(crate) struct PushGauges {
    /// Live (key, client) subscriptions across all lanes.
    pub(crate) subscriptions: AtomicU64,
    /// Push events sent to clients since start.
    pub(crate) pushes: AtomicU64,
}

/// Outstanding invalidation pushes for one key: which remote subscribers
/// still owe an ack, and when the lane gives up and evicts them.
struct PendingAcks {
    /// client id → unacked invalidation pushes to that client.
    waiters: HashMap<u64, u32>,
    /// Eviction deadline ([`PUSH_ACK_KICK`] past the newest push).
    deadline: Instant,
}

/// One lane's subscriber registry: who caches which of this lane's keys,
/// which pushes are still unacked, and the protocol effects held back
/// until they are.
#[derive(Default)]
struct LaneSubs {
    /// key → (client id → push sink).
    by_key: HashMap<Key, HashMap<u64, PushSink>>,
    /// client id → keys it subscribes to on this lane (reap cleanup).
    by_client: HashMap<u64, HashSet<Key>>,
    /// Keys with unacked invalidation pushes to remote subscribers.
    pending: HashMap<Key, PendingAcks>,
    /// Last committed timestamp pushed per subscribed key — the change
    /// detector that turns "this drain touched k" into "k's value moved".
    pushed_ts: HashMap<Key, Ts>,
    /// Protocol effects held while their key has unacked pushes.
    held: HashMap<Key, Vec<Effect<Msg>>>,
}

/// Events delivered to one worker lane.
pub(crate) enum Command {
    /// A client operation routed to this lane.
    Op {
        op: OpId,
        key: Key,
        cop: ClientOp,
        reply: ReplyTo,
    },
    /// A peer protocol message demuxed to this lane by the node's pump.
    Deliver {
        /// The sending peer.
        from: NodeId,
        /// The decoded protocol message.
        msg: Msg,
        /// Cross-node trace context carried by the message's Wings frame
        /// ([`TraceId::NONE`] when the originating op was not sampled).
        trace: TraceId,
    },
    /// Raw transport ingress (lane 0 only): the transport's delivery thread
    /// pushes control frames and connectivity events straight into the
    /// pump's command queue — the unified wakeup path.
    Net(NetEvent),
    /// A reconfigured membership view (installed on every lane).
    InstallView(MembershipView),
    /// Stream this lane's committed per-key state to `to` as control-plane
    /// sync chunks, finishing with a lane mark (shadow catch-up, paper
    /// §3.4 *Recovery*; the pump fans a `SyncRequest` out to every lane).
    SyncLane {
        /// The catching-up shadow.
        to: NodeId,
    },
    /// Install one key's committed state during shadow catch-up (routed to
    /// the owning lane by the pump; newer-timestamp-wins).
    InstallChunk {
        /// The key.
        key: Key,
        /// Committed logical timestamp.
        ts: Ts,
        /// Kind of the last update.
        kind: UpdateKind,
        /// Committed value.
        value: Value,
    },
    /// A client subscribes to invalidation pushes for `key` (routed to the
    /// owning lane). Acked with [`PushEvent::Subscribed`] through `sink`.
    Subscribe {
        /// Client-chosen request sequence, echoed in the ack.
        seq: u64,
        /// The subscribing client.
        client: ClientId,
        /// The key to watch.
        key: Key,
        /// Where this client's pushes go.
        sink: PushSink,
    },
    /// A client drops its subscription to `key` (routed to the owning
    /// lane). Acked with [`PushEvent::Unsubscribed`].
    Unsubscribe {
        /// Client-chosen request sequence, echoed in the ack.
        seq: u64,
        /// The unsubscribing client.
        client: ClientId,
        /// The key to stop watching.
        key: Key,
    },
    /// A remote client acknowledged one invalidation push for `key`,
    /// releasing held effects once every waiter has acked.
    InvalAck {
        /// The acking client.
        client: ClientId,
        /// The acked key.
        key: Key,
    },
    /// A client session ended (reaped or dropped): clear every
    /// subscription and pending ack it holds on this lane.
    DropClient {
        /// The departed client.
        client: ClientId,
    },
    /// This replica stopped serving (lease loss, deposed from the view):
    /// push [`PushEvent::Flush`] to every subscriber so no client keeps
    /// serving cached reads against a replica that no longer may.
    FlushClients,
    /// Stop the worker thread.
    Shutdown,
}

/// Deployment shape of a [`ThreadCluster`].
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of replica nodes.
    pub nodes: usize,
    /// Worker threads (key shards) per node; ≥ 1.
    pub workers_per_node: usize,
    /// Protocol switches for every replica.
    pub protocol: ProtocolConfig,
    /// Network fault injection.
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
    handles: Vec<JoinHandle<()>>,
    /// Per node: the transport ingress threads feeding the node's pump.
    guards: Vec<IngressGuard>,
    /// Per node, per worker lane: the lane's command queue.
    lanes: Vec<Vec<Sender<Command>>>,
    stores: Vec<Arc<Store>>,
    /// Per node: peer connections observed dying by the node's readers.
    peer_downs: Vec<Arc<AtomicU64>>,
    /// Per node: live membership gauges (static when `membership` is off).
    statuses: Vec<Arc<MembershipStatus>>,
    /// Per node: client operations handled per worker lane.
    lane_op_counts: Vec<Arc<Vec<AtomicU64>>>,
    /// Per node: peer messages delivered directly into each lane by the
    /// transport readers (per-worker ingress demux).
    lane_ingress_counts: Vec<Arc<Vec<AtomicU64>>>,
    /// Per node: client subscription/push gauges.
    push_gauges: Vec<Arc<PushGauges>>,
    /// Per node: the shared observability state (trace rings, histograms).
    obs: Vec<Arc<NodeObs>>,
    router: ShardRouter,
    next_seq: AtomicU64,
    next_session: AtomicU64,
    running: Arc<AtomicBool>,
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

    /// Starts `n` replicas with probabilistic network faults.
    ///
    /// Hermes absorbs loss and duplication via its message-loss timeouts
    /// (paper §3.4); the cluster keeps making progress, just slower.
    pub fn start_with_faults(n: usize, cfg: ProtocolConfig, faults: NetFaults, seed: u64) -> Self {
        Self::launch(ClusterConfig {
            nodes: n,
            protocol: cfg,
            faults,
            seed,
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
        Self::launch_over(InProcNet::with_faults(cfg.nodes, cfg.faults, cfg.seed), cfg)
    }

    /// Starts a cluster over any [`Transport`] — in-process channels,
    /// loopback TCP ([`TcpNet`](hermes_net::TcpNet)), or anything else
    /// implementing the trait pair. `cfg.faults`/`cfg.seed` are properties
    /// of the in-process transport and are ignored here; `cfg.nodes` must
    /// match the transport's endpoint count.
    ///
    /// # Panics
    ///
    /// Panics if the transport's endpoint count differs from `cfg.nodes`.
    pub fn launch_over<T: Transport>(transport: T, cfg: ClusterConfig) -> Self {
        Self::launch_endpoints(<T as Transport>::into_endpoints(transport), cfg)
    }

    /// Starts a cluster over pre-built endpoints (lets callers keep
    /// transport handles — e.g. a [`TcpSender`](hermes_net::TcpSender) for
    /// fault injection — before the runtime consumes the endpoints).
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
        let running = Arc::new(AtomicBool::new(true));
        let view = MembershipView::initial(cfg.nodes);
        let stores: Vec<Arc<Store>> = (0..cfg.nodes)
            .map(|_| Arc::new(Store::new(StoreConfig::default())))
            .collect();
        let mut lanes = Vec::with_capacity(cfg.nodes);
        let mut handles = Vec::new();
        let mut guards = Vec::new();
        let mut peer_downs = Vec::new();
        let mut statuses = Vec::new();
        let mut lane_op_counts = Vec::new();
        let mut lane_ingress_counts = Vec::new();
        let mut push_gauges = Vec::new();
        let mut obs = Vec::new();
        let mut router = None;
        let membership = cfg
            .membership
            .map(|rm| MembershipOptions { rm, join: false });
        for (i, ep) in endpoints.into_iter().enumerate() {
            let node = spawn_node(
                ep,
                view,
                cfg.protocol,
                cfg.workers_per_node,
                Arc::clone(&stores[i]),
                Arc::clone(&running),
                membership,
            );
            router = Some(node.router);
            lanes.push(node.lanes);
            handles.extend(node.handles);
            guards.push(node.guard);
            peer_downs.push(node.peer_downs);
            statuses.push(node.status);
            lane_op_counts.push(node.lane_ops);
            lane_ingress_counts.push(node.lane_ingress);
            push_gauges.push(node.push_gauges);
            obs.push(node.obs);
        }
        ThreadCluster {
            handles,
            guards,
            lanes,
            stores,
            peer_downs,
            statuses,
            lane_op_counts,
            lane_ingress_counts,
            push_gauges,
            obs,
            router: router.expect("at least one node"),
            next_seq: AtomicU64::new(0),
            next_session: AtomicU64::new(0),
            running,
        }
    }

    /// Worker threads (key shards) per node.
    pub fn workers_per_node(&self) -> usize {
        self.router.spec().workers()
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
        let client =
            ClientId(SESSION_CLIENT_BASE + self.next_session.fetch_add(1, Ordering::Relaxed));
        ClientSession::new(
            LaneChannel::new(client, self.router, self.lanes[node].clone()),
            credits,
        )
    }

    /// How many peer-connection drops replica `node`'s transport readers
    /// have surfaced ([`NetEvent::PeerDown`]). Always zero on the
    /// in-process transport; on TCP it counts real disconnects.
    pub fn peer_disconnects(&self, node: usize) -> u64 {
        self.peer_downs[node].load(Ordering::Relaxed)
    }

    /// Live membership gauges of replica `node` (current view epoch,
    /// members, serving state, view-change count). Static — the initial
    /// view, serving forever — unless the cluster was launched with
    /// [`ClusterConfig::membership`].
    pub fn membership(&self, node: usize) -> &MembershipStatus {
        &self.statuses[node]
    }

    /// Client operations handled per worker lane of replica `node` since
    /// start — the gauge that shows multi-key transactions really fanning
    /// their sub-operations across shard lanes.
    pub fn lane_ops(&self, node: usize) -> Vec<u64> {
        self.lane_op_counts[node]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Peer messages the transport readers delivered directly into each
    /// worker lane of replica `node` — the per-worker ingress demux
    /// gauge. All-zero only before any replication traffic.
    pub fn lane_ingress(&self, node: usize) -> Vec<u64> {
        self.lane_ingress_counts[node]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Live client cache subscriptions registered at replica `node`.
    pub fn subscriptions(&self, node: usize) -> u64 {
        self.push_gauges[node].subscriptions.load(Ordering::Relaxed)
    }

    /// Push events replica `node` has sent to client sessions since start
    /// (invalidations, subscription acks, flushes).
    pub fn pushes(&self, node: usize) -> u64 {
        self.push_gauges[node].pushes.load(Ordering::Relaxed)
    }

    /// Drains every captured trace span (slow ops and sampled ops) from
    /// replica `node`'s rings — what the Traces RPC serves on a real
    /// deployment. Each span is returned exactly once; stitch spans from
    /// all nodes with [`hermes_obs::stitch`] to rebuild cross-node
    /// timelines.
    pub fn trace_spans(&self, node: usize) -> Vec<TraceSpan> {
        let obs = &self.obs[node];
        let mut spans = Vec::new();
        for ring in &obs.lane_traces {
            spans.extend(ring.drain_spans());
        }
        spans.extend(obs.pump_trace.drain_spans());
        spans
    }

    fn submit(&self, node: usize, key: Key, cop: ClientOp) -> Reply {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let op = OpId::new(ClientId(node as u64), seq);
        let lane = self.router.lane_for_op(key, &cop);
        let (tx, rx) = unbounded();
        self.lanes[node][lane]
            .send(Command::Op {
                op,
                key,
                cop,
                reply: ReplyTo::Channel(tx),
            })
            .expect("replica worker alive");
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok((_, reply)) => reply,
            Err(_) => Reply::NotOperational,
        }
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
        if !self.statuses[node].serving() {
            return None;
        }
        let mut buf = Vec::new();
        match self.stores[node].get(key, &mut buf) {
            None => Some(Value::EMPTY),
            Some(meta) if meta.state == SlotState::Valid => Some(Value::from(buf)),
            Some(_) => None,
        }
    }

    /// Installs a membership view on every worker lane of every replica
    /// (driving reconfiguration scenarios from tests).
    pub fn install_view(&self, view: MembershipView) {
        for node in &self.lanes {
            for tx in node {
                let _ = tx.send(Command::InstallView(view));
            }
        }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the cluster has no replicas (never true for a started one).
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    fn stop(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        for node in &self.lanes {
            for tx in node {
                let _ = tx.send(Command::Shutdown);
            }
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        for g in self.guards.drain(..) {
            g.stop();
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

/// Everything [`spawn_node`] hands back: the lanes to feed, the threads to
/// join, and the transport ingress guard to stop.
pub(crate) struct NodeHandle {
    pub(crate) lanes: Vec<Sender<Command>>,
    pub(crate) router: ShardRouter,
    pub(crate) handles: Vec<JoinHandle<()>>,
    pub(crate) guard: IngressGuard,
    pub(crate) peer_downs: Arc<AtomicU64>,
    pub(crate) status: Arc<MembershipStatus>,
    /// Client operations handled per worker lane (the stats RPC gauge).
    pub(crate) lane_ops: Arc<Vec<AtomicU64>>,
    /// Peer messages delivered directly into each lane's queue by the
    /// transport readers (the per-worker ingress demux gauge).
    pub(crate) lane_ingress: Arc<Vec<AtomicU64>>,
    /// Client subscription/push gauges (stats RPC).
    pub(crate) push_gauges: Arc<PushGauges>,
    /// Latency histograms, trace rings and protocol-phase counters shared
    /// by every lane (and, via `NodeRuntime`, the metrics exposition).
    pub(crate) obs: Arc<NodeObs>,
}

/// Spawns one replica node's worker threads over `ep` and points the
/// transport's ingress at lane 0's command queue (the unified wakeup path).
/// Shared by [`ThreadCluster`] (N nodes in one process) and
/// [`NodeRuntime`](crate::NodeRuntime) (one node per process).
///
/// With `membership` set, the pump lane additionally hosts the node's
/// [`MembershipDriver`]: heartbeats and view agreement ride as Wings
/// control frames over the same transport, agreed views are installed into
/// every shard lane, and client operations are lease-gated through the
/// returned [`MembershipStatus`].
pub(crate) fn spawn_node<E: Endpoint>(
    ep: E,
    view: MembershipView,
    protocol: ProtocolConfig,
    workers_per_node: usize,
    store: Arc<Store>,
    running: Arc<AtomicBool>,
    membership: Option<MembershipOptions>,
) -> NodeHandle {
    let me = ep.node_id();
    let join = membership.is_some_and(|m| m.join);
    let boot = boot_view(view, me, join);
    let status = Arc::new(MembershipStatus::new(boot, boot.is_serving(me), !join));
    let engine = ShardedEngine::new(me, boot, protocol, workers_per_node);
    let (router, shards) = engine.into_shards();
    let channels: Vec<(Sender<Command>, Receiver<Command>)> =
        shards.iter().map(|_| unbounded()).collect();
    let txs: Vec<Sender<Command>> = channels.iter().map(|(tx, _)| tx.clone()).collect();
    let net_tx = ep.sender();
    let peer_downs = Arc::new(AtomicU64::new(0));
    let lane_ops: Arc<Vec<AtomicU64>> =
        Arc::new((0..workers_per_node).map(|_| AtomicU64::new(0)).collect());
    let lane_ingress: Arc<Vec<AtomicU64>> =
        Arc::new((0..workers_per_node).map(|_| AtomicU64::new(0)).collect());
    let push_gauges = Arc::new(PushGauges::default());
    let obs = Arc::new(NodeObs::new(me.0 as usize, workers_per_node));
    let mut handles = Vec::new();
    for (lane, (node, (_, rx))) in shards.into_iter().zip(channels).enumerate() {
        let worker = Worker::new(
            lane,
            node,
            router,
            Arc::clone(&store),
            net_tx.clone(),
            Arc::clone(&status),
            Arc::clone(&lane_ops),
            Arc::clone(&push_gauges),
            Arc::clone(&obs),
        );
        let running = Arc::clone(&running);
        if lane == 0 {
            let peer_lanes = txs.clone();
            let peer_downs = Arc::clone(&peer_downs);
            let glue = membership.map(|m| {
                let driver = if m.join {
                    MembershipDriver::joiner(me, boot, m.rm)
                } else {
                    MembershipDriver::new(me, boot, m.rm)
                };
                PumpMembership::new(
                    driver,
                    net_tx.clone(),
                    Arc::clone(&status),
                    Arc::clone(&obs),
                )
            });
            handles.push(std::thread::spawn(move || {
                pump_main(worker, rx, peer_lanes, running, peer_downs, glue);
            }));
        } else {
            handles.push(std::thread::spawn(move || {
                worker_main(worker, rx, running);
            }));
        }
    }
    // Started last: events arriving before the worker threads run just
    // queue. Data-plane frames are decoded right here on the transport's
    // delivery thread and delivered straight into the lane owning each
    // message's key — the per-worker ingress demux (DESIGN.md §7); only
    // control frames (membership, shadow catch-up) and connectivity
    // events still funnel through lane 0's pump, which hosts them.
    let sink_tx = txs[0].clone();
    let lane_txs = txs.clone();
    let ingress = Arc::clone(&lane_ingress);
    let guard = ep.start(Arc::new(move |ev| match ev {
        NetEvent::Frame(from, ref frame) if !control::is_control(frame) => {
            deliver_frame(&lane_txs, router, &ingress, from, frame)
        }
        other => sink_tx.send(Command::Net(other)).is_ok(),
    }));
    NodeHandle {
        lanes: txs,
        router,
        handles,
        guard,
        peer_downs,
        status,
        lane_ops,
        lane_ingress,
        push_gauges,
        obs,
    }
}

/// Per-worker network ingress: decodes one data-plane Wings frame on the
/// transport thread that received it and delivers each message
/// directly into the command queue of the lane owning its key — no bounce
/// through lane 0. Safe for Hermes because no message serializes
/// ([`ShardRouter::lane_for_ingress`]); per-(peer, key) FIFO is preserved
/// because each peer connection is read by exactly one thread. Returns
/// `false` once the lanes are gone (shutdown), closing the connection.
fn deliver_frame(
    lanes: &[Sender<Command>],
    router: ShardRouter,
    ingress: &[AtomicU64],
    from: NodeId,
    frame: &Bytes,
) -> bool {
    let Ok(msgs) = decode_frame(frame) else {
        return true; // Malformed frame: drop it, as the pump would.
    };
    let mut alive = true;
    for raw in msgs {
        let Ok((msg, trace)) = codec::decode_traced(&raw) else {
            continue;
        };
        let lane = router.lane_for_ingress(msg.key());
        ingress[lane].fetch_add(1, Ordering::Relaxed);
        alive &= lanes[lane]
            .send(Command::Deliver { from, msg, trace })
            .is_ok();
    }
    alive
}

/// Follower-side fault hook: delay every incoming `INV` by this many
/// microseconds (`HERMES_FAULT_INV_DELAY_US`, read once). Used by the
/// trace-smoke harness to force one replica to be the slow hop of a
/// cross-node timeline; zero (the default) is free.
fn inv_delay_us() -> u64 {
    static DELAY: OnceLock<u64> = OnceLock::new();
    *DELAY.get_or_init(|| {
        std::env::var("HERMES_FAULT_INV_DELAY_US")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0)
    })
}

/// One in-flight client operation: where its reply goes, plus (when
/// observability recording is on) its protocol-phase trace span.
struct PendingOp {
    reply: ReplyTo,
    span: Option<Span>,
}

/// One worker lane: a shard's protocol engine plus the runtime state that
/// interprets its effects. Generic over the transport's transmit half.
struct Worker<S: NetSender> {
    lane: usize,
    node: HermesNode,
    router: ShardRouter,
    store: Arc<Store>,
    net: S,
    batcher: Batcher,
    timers: DeadlineQueue,
    clients: HashMap<OpId, PendingOp>,
    /// Cached broadcast set of the current view, refreshed only on
    /// membership change (not rebuilt per effect drain).
    peers: Vec<NodeId>,
    /// The node-wide serving gate (lease validity × view membership),
    /// maintained by the pump's membership driver. One relaxed load per
    /// client operation.
    status: Arc<MembershipStatus>,
    /// Per-lane client-operation counters shared with the stats RPC; this
    /// worker bumps `lane_ops[lane]` once per operation delivered to it.
    lane_ops: Arc<Vec<AtomicU64>>,
    /// Client subscriptions to this lane's keys (invalidation pushes).
    subs: LaneSubs,
    /// Node-wide subscription/push gauges (stats RPC).
    push_gauges: Arc<PushGauges>,
    /// Node-wide latency histograms, trace rings and phase counters.
    obs: Arc<NodeObs>,
    /// Trace context of the event currently draining: outgoing frames from
    /// this drain carry it on the wire ([`codec::encode_traced`]). Set
    /// when a client op mints a sampled id or an ingress message carries
    /// one; [`TraceId::NONE`] otherwise — and then frames are
    /// byte-identical to the untraced codec.
    cur_trace: TraceId,
    /// Follower-side span of the sampled peer message being handled right
    /// now (so [`Worker::emit_effect`] can mark the ACK enqueue on it).
    net_span: Option<Span>,
    /// Follower-side INV spans awaiting their final `ack_write` mark: the
    /// ACK's frame is written to the peer socket at the next
    /// [`Worker::flush`], which completes them into the lane's ring.
    net_spans: Vec<(Span, Key)>,
    fx: Vec<Effect<Msg>>,
}

impl<S: NetSender> Worker<S> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        lane: usize,
        node: HermesNode,
        router: ShardRouter,
        store: Arc<Store>,
        net: S,
        status: Arc<MembershipStatus>,
        lane_ops: Arc<Vec<AtomicU64>>,
        push_gauges: Arc<PushGauges>,
        obs: Arc<NodeObs>,
    ) -> Self {
        let mut worker = Worker {
            lane,
            node,
            router,
            store,
            net,
            batcher: Batcher::new(1400, 32),
            timers: DeadlineQueue::new(),
            clients: HashMap::new(),
            peers: Vec::new(),
            status,
            lane_ops,
            subs: LaneSubs::default(),
            push_gauges,
            obs,
            cur_trace: TraceId::NONE,
            net_span: None,
            net_spans: Vec::new(),
            fx: Vec::new(),
        };
        worker.refresh_peers();
        worker
    }

    fn refresh_peers(&mut self) {
        self.peers = self
            .node
            .view()
            .broadcast_set(self.node.node_id())
            .iter()
            .collect();
    }

    /// Runs one command; returns `false` on shutdown.
    fn handle_command(&mut self, cmd: Command) -> bool {
        match cmd {
            Command::Op {
                op,
                key,
                cop,
                reply,
            } => {
                self.lane_ops[self.lane].fetch_add(1, Ordering::Relaxed);
                // Lease gate (paper §3.4): an expired lease — minority
                // partition, mid-view-change, shadow — refuses service
                // without touching the protocol.
                if !self.status.serving() {
                    reply.send(op, Reply::NotOperational);
                    return true;
                }
                let issuer = op.client;
                // Mint the op's cross-node trace context here, at issue:
                // when sampled, every frame this op's protocol round emits
                // (INV out, and — via the ACK echo — VAL out) carries the
                // id, so follower-side phase marks land in *their* rings
                // tagged with it.
                let span = if hermes_obs::recording_enabled() {
                    let trace = hermes_obs::maybe_trace();
                    self.cur_trace = trace;
                    Some(Span::begin_traced(Phase::Issued, trace))
                } else {
                    self.cur_trace = TraceId::NONE;
                    None
                };
                self.clients.insert(op, PendingOp { reply, span });
                self.node.on_client_op(op, key, cop, &mut self.fx);
                self.drain_effects(Some(key), Some(issuer), Some(op));
            }
            Command::Deliver { from, msg, trace } => self.handle_message(from, msg, trace),
            Command::SyncLane { to } => self.sync_lane(to),
            Command::InstallChunk {
                key,
                ts,
                kind,
                value,
            } => self.install_chunk(key, ts, kind, value),
            Command::Subscribe {
                seq,
                client,
                key,
                sink,
            } => self.subscribe(seq, client, key, sink),
            Command::Unsubscribe { seq, client, key } => self.unsubscribe(seq, client, key),
            Command::InvalAck { client, key } => self.ack_push(client, key),
            Command::DropClient { client } => self.drop_client(client),
            Command::FlushClients => self.flush_subscribers(),
            Command::InstallView(view) => {
                self.node.on_membership_update(view, &mut self.fx);
                self.refresh_peers();
                // Subscribers must not serve entries cached under the old
                // view: flush them with the new epoch, and stop waiting on
                // acks from the old world (held effects go out now).
                self.flush_subscribers();
                // No single key was touched. Mirroring a placeholder key
                // here would have non-owner lanes overwrite the owner's
                // slot with empty state; affected keys re-mirror when their
                // own events next fire on their owning lane.
                self.drain_effects(None, None, None);
            }
            // Net events reach only lane 0, which intercepts them in
            // `pump_command` before delegating here.
            Command::Net(_) => {}
            Command::Shutdown => return false,
        }
        true
    }

    /// Processes a peer message this lane owns. `trace` is the cross-node
    /// trace context its frame carried; a sampled INV/VAL opens a
    /// follower-side span here so the originating coordinator's timeline
    /// gains this replica's ingress → apply → ack phases, and a sampled
    /// ACK re-arms `cur_trace` so the VAL broadcast it triggers inherits
    /// the id without the coordinator storing any per-op trace map.
    fn handle_message(&mut self, from: NodeId, msg: Msg, trace: TraceId) {
        let key = msg.key();
        if matches!(msg, Msg::Inv { .. }) {
            let delay = inv_delay_us();
            if delay > 0 {
                std::thread::sleep(Duration::from_micros(delay));
            }
        }
        if hermes_obs::recording_enabled() {
            if let Msg::Ack { .. } = msg {
                NodeObs::bump(&self.obs.invals_acked, 1);
            }
        }
        self.cur_trace = trace;
        let follower = if trace.is_sampled() && hermes_obs::recording_enabled() {
            match msg {
                Msg::Inv { .. } => Some(Phase::InvIngress),
                Msg::Val { .. } => Some(Phase::ValIngress),
                Msg::Ack { .. } => None,
            }
        } else {
            None
        };
        let Some(ingress) = follower else {
            self.node.on_message(from, msg, &mut self.fx);
            self.drain_effects(Some(key), None, None);
            return;
        };
        let is_inv = ingress == Phase::InvIngress;
        self.net_span = Some(Span::begin_traced(ingress, trace));
        self.node.on_message(from, msg, &mut self.fx);
        if let Some(s) = self.net_span.as_mut() {
            s.mark(Phase::LocalApply);
        }
        self.drain_effects(Some(key), None, None);
        if let Some(span) = self.net_span.take() {
            if is_inv {
                // The ACK was enqueued during the drain; its final
                // `ack_write` mark lands when the batch is handed to the
                // transport (over TCP: to the kernel), at the next flush.
                self.net_spans.push((span, key));
            } else {
                self.obs.lane_traces[self.lane].complete(&span, || format!("val key={}", key.0));
            }
        }
    }

    /// Fires every due message-loss timer; returns whether any fired.
    fn expire_timers(&mut self) -> bool {
        // Retransmissions belong to no single traced op: drop the trace
        // context so replayed frames go out untagged.
        self.cur_trace = TraceId::NONE;
        let now = Instant::now();
        let mut worked = false;
        while let Some(key) = self.timers.pop_due(now) {
            worked = true;
            // Re-arm first (retransmission cadence); effects may disarm.
            self.timers.arm(key, now + MLT);
            self.node.on_mlt_timeout(key, &mut self.fx);
            self.drain_effects(Some(key), None, None);
        }
        // Ride the same cadence for subscriber-ack liveness: evict remote
        // subscribers that have sat on an invalidation past the kick
        // deadline, releasing the writes they were holding up.
        self.kick_stalled_pushes(now);
        worked
    }

    /// Emits every pending Wings frame into the node's shared egress, then
    /// closes follower-side INV spans: `send` has returned, so over TCP the
    /// ACK frame is in the kernel (this lane wrote it), and `ack_write` is
    /// their final phase mark.
    fn flush(&mut self) {
        let net = &self.net;
        self.batcher.flush_into(|to, frame| net.send(to, frame));
        if !self.net_spans.is_empty() {
            let spans = std::mem::take(&mut self.net_spans);
            for (mut span, key) in spans {
                span.mark(Phase::AckWrite);
                self.obs.lane_traces[self.lane].complete(&span, || format!("inv key={}", key.0));
            }
        }
    }

    /// Installs one key's state from a shadow catch-up chunk
    /// (newer-timestamp-wins, [`HermesNode::install_chunk`]) and mirrors it
    /// so local reads observe the synced value.
    fn install_chunk(&mut self, key: Key, ts: Ts, kind: UpdateKind, value: Value) {
        NodeObs::bump(&self.obs.sync_chunks, 1);
        NodeObs::bump(&self.obs.sync_bytes, value.as_bytes().len() as u64);
        self.node.install_chunk(key, ts, value, kind);
        self.mirror_key(key);
        // Catch-up can move a key's committed timestamp outside a normal
        // effect drain; subscribers still need to hear about it.
        self.push_invalidations(key, None);
    }

    /// Streams this lane's per-key state to the catching-up shadow `to` as
    /// control frames, ending with this lane's mark. Entries are batched
    /// into [`ControlMsg::SyncBatch`] frames up to the
    /// [`SYNC_BATCH_BUDGET`](control::SYNC_BATCH_BUDGET) size cap,
    /// amortizing framing overhead across keys (one oversized value still
    /// ships alone). Values still in flight are safe to ship: anything
    /// non-final here has a coordinator driving it through the
    /// shadow-inclusive view, and the shadow merges by timestamp.
    fn sync_lane(&mut self, to: NodeId) {
        let mut entries: Vec<control::SyncEntry> = Vec::new();
        let mut batched = 0usize;
        for (key, e) in self.node.entries() {
            let entry = control::SyncEntry {
                key: *key,
                ts: e.ts,
                kind: e.kind,
                value: e.value.clone(),
            };
            if !entries.is_empty() && batched + entry.wire_size() > control::SYNC_BATCH_BUDGET {
                let batch = ControlMsg::SyncBatch {
                    entries: std::mem::take(&mut entries),
                };
                self.net.send(to, control::encode(&batch));
                batched = 0;
            }
            batched += entry.wire_size();
            entries.push(entry);
        }
        if !entries.is_empty() {
            self.net
                .send(to, control::encode(&ControlMsg::SyncBatch { entries }));
        }
        let mark = ControlMsg::SyncMark {
            lane: self.lane as u32,
            lanes: self.router.spec().workers() as u32,
        };
        self.net.send(to, control::encode(&mark));
    }

    /// Mirrors `key`'s protocol state into the shared seqlock KVS (paper
    /// §4.1) so other threads serve lock-free local reads.
    fn mirror_key(&mut self, key: Key) {
        let (state, ts, value) = self.node.key_mirror(key);
        let meta = if state == KeyState::Valid {
            SlotMeta::valid(ts.version, ts.cid)
        } else {
            SlotMeta::invalid(ts.version, ts.cid)
        };
        let bytes = value.map_or(&[][..], |v| v.as_bytes());
        self.store.put(key, meta, bytes);
    }

    /// Mirrors the touched key's state into the seqlock KVS so other
    /// threads can serve lock-free local reads (paper §4.1), then
    /// interprets the effects of the protocol transition. The mirror comes
    /// *first*: once a client sees its `Effect::Reply`, a `read_local` on
    /// this node must already observe the committed state. `touched` is
    /// `None` for transitions with no single subject key (view installs),
    /// which must not mirror: this lane may not own the state it would
    /// write. `issuer` is the client whose own operation caused the
    /// transition, if any — it already dropped its cached entry at submit
    /// time and is excluded from the invalidation fan-out.
    ///
    /// While the touched key has unacked invalidation pushes to remote
    /// subscribers, every message/reply effect for it is *held*: the write
    /// must not become visible anywhere (follower ACKs, the coordinator's
    /// INV broadcast, the client's `WriteOk`) before each subscriber can no
    /// longer serve the superseded value. Timer effects always apply —
    /// message-loss retransmissions simply regenerate (and re-hold) the
    /// messages, and duplicates are idempotent.
    fn drain_effects(&mut self, touched: Option<Key>, issuer: Option<ClientId>, op: Option<OpId>) {
        if let Some(touched) = touched {
            self.mirror_key(touched);
            self.push_invalidations(touched, issuer);
        }
        let held = touched.is_some_and(|k| self.subs.pending.contains_key(&k));
        let mut fx = std::mem::take(&mut self.fx);
        for e in fx.drain(..) {
            match e {
                Effect::ArmTimer { key } => {
                    self.timers.arm(key, Instant::now() + MLT);
                }
                Effect::DisarmTimer { key } => {
                    self.timers.disarm(key);
                }
                e if held => {
                    // A reply parked behind unacked cache pushes: mark the
                    // hold on the op's trace span before shelving it.
                    if let Effect::Reply { op, .. } = &e {
                        if let Some(p) = self.clients.get_mut(op) {
                            if let Some(span) = p.span.as_mut() {
                                span.mark(Phase::ReplyHeld);
                            }
                        }
                    }
                    let key = touched.expect("held only with a touched key");
                    self.subs.held.entry(key).or_default().push(e);
                }
                e => {
                    // The issuing drain's Inv broadcast is the op's
                    // invalidation phase (paper §3.1); mark it on the span.
                    if let (
                        Some(op),
                        Effect::Broadcast {
                            msg: Msg::Inv { .. },
                        },
                    ) = (op, &e)
                    {
                        if let Some(p) = self.clients.get_mut(&op) {
                            if let Some(span) = p.span.as_mut() {
                                span.mark(Phase::InvalBroadcast);
                            }
                        }
                    }
                    self.emit_effect(e);
                }
            }
        }
        self.fx = fx;
    }

    /// Emits one already-released protocol effect.
    fn emit_effect(&mut self, e: Effect<Msg>) {
        match e {
            Effect::Send { to, msg } => {
                if let (Msg::Ack { .. }, Some(span)) = (&msg, self.net_span.as_mut()) {
                    span.mark(Phase::AckEnqueue);
                }
                let encoded = codec::encode_traced(&msg, self.cur_trace);
                if let Some((to, frame)) = self.batcher.push(to, &encoded) {
                    self.net.send(to, frame);
                }
            }
            Effect::Broadcast { msg } => {
                if hermes_obs::recording_enabled() {
                    match msg {
                        Msg::Inv { .. } => {
                            NodeObs::bump(&self.obs.invals_sent, self.peers.len() as u64);
                        }
                        Msg::Val { .. } => {
                            NodeObs::bump(&self.obs.vals_sent, self.peers.len() as u64);
                        }
                        _ => {}
                    }
                }
                let encoded = codec::encode_traced(&msg, self.cur_trace);
                for &to in &self.peers {
                    if let Some((to, frame)) = self.batcher.push(to, &encoded) {
                        self.net.send(to, frame);
                    }
                }
            }
            Effect::Reply { op, reply } => {
                if let Some(pending) = self.clients.remove(&op) {
                    if let Some(mut span) = pending.span {
                        // A write's reply means its acks are in (§3.1);
                        // reads commit without an invalidation round.
                        if span
                            .marks()
                            .iter()
                            .any(|&(p, _)| p == Phase::InvalBroadcast)
                        {
                            span.mark(Phase::AcksCollected);
                        }
                        span.mark(Phase::Committed);
                        span.mark(Phase::ReplyReleased);
                        let total = self.obs.lane_traces[self.lane].complete(&span, || {
                            format!("op client={} seq={}", op.client.0, op.seq)
                        });
                        self.obs.lane_latency[self.lane].record(total);
                    }
                    pending.reply.send(op, reply);
                }
            }
            Effect::ArmTimer { key } => {
                self.timers.arm(key, Instant::now() + MLT);
            }
            Effect::DisarmTimer { key } => {
                self.timers.disarm(key);
            }
        }
    }

    /// Fans an invalidation push out to `key`'s subscribers when its
    /// committed timestamp moved since the last push. Remote subscribers
    /// become ack waiters (their pushes gate this drain's effects);
    /// in-proc sinks are synchronously coherent and never wait.
    fn push_invalidations(&mut self, key: Key, issuer: Option<ClientId>) {
        if !self.subs.by_key.contains_key(&key) {
            return;
        }
        let (_, ts, _) = self.node.key_mirror(key);
        if self.subs.pushed_ts.get(&key) == Some(&ts) {
            return;
        }
        self.subs.pushed_ts.insert(key, ts);
        let epoch = self.node.view().epoch.0;
        let mut need_ack = Vec::new();
        let subscribers = self.subs.by_key.get(&key).expect("checked above");
        for (&client, sink) in subscribers {
            if issuer.is_some_and(|c| c.0 == client) {
                // The issuer dropped its own entry at submit time; pushing
                // to it would make every writer wait on itself.
                continue;
            }
            self.push_gauges.pushes.fetch_add(1, Ordering::Relaxed);
            if sink.push(ClientId(client), PushEvent::Invalidate { key, epoch }) {
                need_ack.push(client);
            }
        }
        if !need_ack.is_empty() {
            let now = Instant::now();
            let p = self.subs.pending.entry(key).or_insert(PendingAcks {
                waiters: HashMap::new(),
                deadline: now + PUSH_ACK_KICK,
            });
            p.deadline = now + PUSH_ACK_KICK;
            for client in need_ack {
                *p.waiters.entry(client).or_insert(0) += 1;
            }
        }
    }

    /// One remote subscriber acknowledged one invalidation push for `key`.
    /// Pushes are counted per client — an ack for an older push must not
    /// release effects a newer, still-unacked push is guarding.
    fn ack_push(&mut self, client: ClientId, key: Key) {
        if hermes_obs::recording_enabled() {
            NodeObs::bump(&self.obs.push_acks, 1);
        }
        let released = match self.subs.pending.get_mut(&key) {
            Some(p) => {
                if let Some(n) = p.waiters.get_mut(&client.0) {
                    *n -= 1;
                    if *n == 0 {
                        p.waiters.remove(&client.0);
                    }
                }
                p.waiters.is_empty()
            }
            None => false,
        };
        if released {
            self.subs.pending.remove(&key);
            self.release_held(key);
        }
    }

    /// Drops `client` from `key`'s ack waiters entirely (it unsubscribed,
    /// died, or was evicted — no ack is coming), releasing held effects if
    /// it was the last waiter.
    fn clear_waiter(&mut self, client: u64, key: Key) {
        let released = match self.subs.pending.get_mut(&key) {
            Some(p) => {
                p.waiters.remove(&client);
                p.waiters.is_empty()
            }
            None => false,
        };
        if released {
            self.subs.pending.remove(&key);
            self.release_held(key);
        }
    }

    /// Emits every effect held for `key`.
    fn release_held(&mut self, key: Key) {
        // Held effects may release long after the drain that produced
        // them, under an unrelated trace context: emit them untagged
        // rather than mislabeled.
        self.cur_trace = TraceId::NONE;
        if let Some(held) = self.subs.held.remove(&key) {
            NodeObs::bump(&self.obs.holds_released, held.len() as u64);
            for e in held {
                self.emit_effect(e);
            }
        }
    }

    /// Evicts remote subscribers whose invalidation acks are overdue and
    /// releases the effects they were holding. Mirrors the paper's
    /// bounded-delay assumption at the client hop: past [`PUSH_ACK_KICK`]
    /// the subscriber is treated as failed and torn down (a dead session
    /// serves nothing, so coherence survives the forced release).
    fn kick_stalled_pushes(&mut self, now: Instant) {
        if self.subs.pending.is_empty() {
            return;
        }
        let expired: Vec<Key> = self
            .subs
            .pending
            .iter()
            .filter(|(_, p)| now >= p.deadline)
            .map(|(k, _)| *k)
            .collect();
        for key in expired {
            let Some(p) = self.subs.pending.remove(&key) else {
                continue;
            };
            for &client in p.waiters.keys() {
                if let Some(m) = self.subs.by_key.get(&key) {
                    if let Some(sink) = m.get(&client) {
                        sink.push(ClientId(client), PushEvent::Evict);
                    }
                }
                self.remove_subscription(client, key);
            }
            self.release_held(key);
        }
    }

    /// Registers `client` for pushes on `key` and acks through `sink`.
    fn subscribe(&mut self, seq: u64, client: ClientId, key: Key, sink: PushSink) {
        // Seed the change detector at the current committed timestamp so
        // the first post-subscribe write pushes exactly once.
        let (_, ts, _) = self.node.key_mirror(key);
        self.subs.pushed_ts.insert(key, ts);
        let epoch = self.node.view().epoch.0;
        let fresh = self
            .subs
            .by_key
            .entry(key)
            .or_default()
            .insert(client.0, sink.clone())
            .is_none();
        if fresh {
            self.subs.by_client.entry(client.0).or_default().insert(key);
            self.push_gauges
                .subscriptions
                .fetch_add(1, Ordering::Relaxed);
        }
        self.push_gauges.pushes.fetch_add(1, Ordering::Relaxed);
        sink.push(client, PushEvent::Subscribed { seq, key, epoch });
    }

    /// Ends `client`'s subscription to `key`, acking through the removed
    /// sink.
    fn unsubscribe(&mut self, seq: u64, client: ClientId, key: Key) {
        if let Some(sink) = self.remove_subscription(client.0, key) {
            self.clear_waiter(client.0, key);
            self.push_gauges.pushes.fetch_add(1, Ordering::Relaxed);
            sink.push(client, PushEvent::Unsubscribed { seq, key });
        }
    }

    /// Removes one (client, key) subscription edge; returns the sink if it
    /// existed.
    fn remove_subscription(&mut self, client: u64, key: Key) -> Option<PushSink> {
        let m = self.subs.by_key.get_mut(&key)?;
        let sink = m.remove(&client)?;
        if m.is_empty() {
            self.subs.by_key.remove(&key);
            self.subs.pushed_ts.remove(&key);
        }
        if let Some(keys) = self.subs.by_client.get_mut(&client) {
            keys.remove(&key);
            if keys.is_empty() {
                self.subs.by_client.remove(&client);
            }
        }
        self.push_gauges
            .subscriptions
            .fetch_sub(1, Ordering::Relaxed);
        Some(sink)
    }

    /// Clears every subscription and pending ack held by a departed
    /// client.
    fn drop_client(&mut self, client: ClientId) {
        let Some(keys) = self.subs.by_client.remove(&client.0) else {
            return;
        };
        for key in keys {
            if let Some(m) = self.subs.by_key.get_mut(&key) {
                if m.remove(&client.0).is_some() {
                    self.push_gauges
                        .subscriptions
                        .fetch_sub(1, Ordering::Relaxed);
                }
                if m.is_empty() {
                    self.subs.by_key.remove(&key);
                    self.subs.pushed_ts.remove(&key);
                }
            }
            self.clear_waiter(client.0, key);
        }
    }

    /// Pushes [`PushEvent::Flush`] to every subscriber (view change or
    /// serving loss: cached entries from the old world must die), clears
    /// all pending acks and emits all held effects. Subscriptions stay
    /// registered — a still-live client refills from fresh reads.
    fn flush_subscribers(&mut self) {
        let epoch = self.node.view().epoch.0;
        let mut seen: HashSet<u64> = HashSet::new();
        for subs in self.subs.by_key.values() {
            for (&client, sink) in subs {
                if seen.insert(client) {
                    self.push_gauges.pushes.fetch_add(1, Ordering::Relaxed);
                    sink.push(ClientId(client), PushEvent::Flush { epoch });
                }
            }
        }
        let stalled: Vec<Key> = self.subs.pending.keys().copied().collect();
        self.subs.pending.clear();
        for key in stalled {
            self.release_held(key);
        }
        // Reset the change detector: post-change timestamps may replay, so
        // be conservative and push on the next touch of every key.
        self.subs.pushed_ts.clear();
    }
}

/// Re-request a shadow's bulk sync after this long without completing it
/// (lost chunks re-stream; installs are idempotent by timestamp).
const SYNC_RETRY: Duration = Duration::from_millis(250);

/// The live membership subsystem as hosted on a node's pump lane: a
/// [`MembershipDriver`] whose effects travel as Wings control frames over
/// the node's existing transport, whose agreed views are installed into
/// every shard lane, and whose lease verdict gates client service through
/// the shared [`MembershipStatus`] (DESIGN.md §5).
struct PumpMembership<S: NetSender> {
    driver: MembershipDriver,
    net: S,
    status: Arc<MembershipStatus>,
    rmfx: Vec<RmEffect>,
    /// Last serving verdict; a true→false edge flushes client caches.
    was_serving: bool,
    /// Lanes of the sync source that finished streaming chunks to us.
    marks: HashSet<u32>,
    /// Lane count announced by the sync source's marks.
    lanes_expected: Option<u32>,
    last_sync_request: Option<Instant>,
    /// Node-wide observability state (view-change outage accounting).
    obs: Arc<NodeObs>,
    /// Span covering the current not-serving window, if one is open.
    outage: Option<Span>,
}

impl<S: NetSender> PumpMembership<S> {
    fn new(
        driver: MembershipDriver,
        net: S,
        status: Arc<MembershipStatus>,
        obs: Arc<NodeObs>,
    ) -> Self {
        PumpMembership {
            driver,
            net,
            status,
            rmfx: Vec::new(),
            was_serving: false,
            marks: HashSet::new(),
            lanes_expected: None,
            last_sync_request: None,
            obs,
            outage: None,
        }
    }

    /// Periodic drive: heartbeats, failure detection, view agreement, the
    /// join state machine, sync (re-)requests and the serving gate.
    fn tick(&mut self, worker: &mut Worker<S>, lanes: &[Sender<Command>]) {
        self.driver.tick(&mut self.rmfx);
        self.apply_effects(worker, lanes);
        if self.driver.needs_sync() {
            let due = self
                .last_sync_request
                .is_none_or(|at| at.elapsed() >= SYNC_RETRY);
            if due {
                self.last_sync_request = Some(Instant::now());
                if let Some(source) = self.driver.view().members.min() {
                    self.net
                        .send(source, control::encode(&ControlMsg::SyncRequest));
                }
            }
        }
        let serving = self.driver.serving();
        if self.was_serving && !serving {
            // Serving loss (lease expiry, deposed mid-reconfiguration):
            // clients must stop serving cached reads against this replica.
            // Best-effort within the lease grace period — a partitioned
            // client that cannot hear the flush also cannot be reached by
            // anything else; DESIGN.md §8 discusses the window.
            for lane in &lanes[1..] {
                let _ = lane.send(Command::FlushClients);
            }
            worker.handle_command(Command::FlushClients);
            obs_warn!(
                "replica::membership",
                "node {} stopped serving (epoch {})",
                self.driver.node_id().0,
                self.driver.view().epoch.0
            );
            if hermes_obs::recording_enabled() {
                self.outage = Some(Span::begin(Phase::ViewChangeStart));
            }
        }
        if !self.was_serving && serving {
            // Serving restored: close the outage span — the span's total is
            // exactly how long this replica refused operations, the paper's
            // headline failover metric (§5.3).
            if let Some(span) = self.outage.take() {
                let epoch = self.driver.view().epoch.0;
                let total = self
                    .obs
                    .pump_trace
                    .complete(&span, || format!("view_change epoch={epoch}"));
                self.obs.view_change_us.record(total);
                NodeObs::bump(&self.obs.view_outages, 1);
            }
            obs_info!(
                "replica::membership",
                "node {} serving (epoch {})",
                self.driver.node_id().0,
                self.driver.view().epoch.0
            );
        }
        self.was_serving = serving;
        self.status.set_serving(serving);
    }

    /// Consumes `frame` if it is control-plane; returns whether it was.
    fn on_frame(
        &mut self,
        worker: &mut Worker<S>,
        lanes: &[Sender<Command>],
        from: NodeId,
        frame: &Bytes,
    ) -> bool {
        let Some(decoded) = control::decode(frame) else {
            return false;
        };
        let Ok(msg) = decoded else {
            return true; // Malformed control frame: drop it.
        };
        match msg {
            ControlMsg::Membership(payload) => {
                self.driver.on_control(from, &payload, &mut self.rmfx);
                self.apply_effects(worker, lanes);
            }
            ControlMsg::SyncRequest => {
                // Fan the request out: every lane streams its shard.
                for lane in &lanes[1..] {
                    let _ = lane.send(Command::SyncLane { to: from });
                }
                worker.handle_command(Command::SyncLane { to: from });
            }
            ControlMsg::SyncChunk {
                key,
                ts,
                kind,
                value,
            } => {
                let owner = worker.router.spec().owner(key);
                if owner == worker.lane {
                    worker.install_chunk(key, ts, kind, value);
                } else {
                    let _ = lanes[owner].send(Command::InstallChunk {
                        key,
                        ts,
                        kind,
                        value,
                    });
                }
            }
            ControlMsg::SyncBatch { entries } => {
                // Each batched entry installs exactly like a lone chunk.
                for e in entries {
                    let owner = worker.router.spec().owner(e.key);
                    if owner == worker.lane {
                        worker.install_chunk(e.key, e.ts, e.kind, e.value);
                    } else {
                        let _ = lanes[owner].send(Command::InstallChunk {
                            key: e.key,
                            ts: e.ts,
                            kind: e.kind,
                            value: e.value,
                        });
                    }
                }
            }
            ControlMsg::SyncMark { lane, lanes: total } => {
                if self.lanes_expected != Some(total) {
                    self.marks.clear();
                    self.lanes_expected = Some(total);
                }
                self.marks.insert(lane);
                if self.driver.needs_sync() && self.marks.len() as u32 >= total {
                    self.driver.mark_synced();
                    self.status.set_synced(true);
                }
            }
        }
        true
    }

    /// A transport reader saw `peer`'s connection die: feed the failure
    /// detector (suspicion is accelerated; a live peer's next heartbeat
    /// clears it, and the lease-expiry wait still guards reconfiguration).
    fn on_peer_down(&mut self, peer: NodeId) {
        self.driver.on_peer_down(peer);
    }

    fn apply_effects(&mut self, worker: &mut Worker<S>, lanes: &[Sender<Command>]) {
        let mut fx = std::mem::take(&mut self.rmfx);
        for e in fx.drain(..) {
            match e {
                RmEffect::Send(to, msg) => self.send_rm(to, &msg),
                RmEffect::Broadcast(msg) => {
                    let frame = rm_frame(&msg);
                    let me = self.driver.node_id();
                    for to in self.driver.view().broadcast_set(me) {
                        self.net.send(to, frame.clone());
                    }
                }
                RmEffect::InstallView(view) => {
                    if let Some(span) = self.outage.as_mut() {
                        span.mark(Phase::ViewChangeInstalled);
                    }
                    obs_info!(
                        "replica::membership",
                        "node {} installing view epoch={} members={}",
                        self.driver.node_id().0,
                        view.epoch.0,
                        view.members.len()
                    );
                    self.status.record_view(view);
                    for lane in &lanes[1..] {
                        let _ = lane.send(Command::InstallView(view));
                    }
                    worker.handle_command(Command::InstallView(view));
                }
            }
        }
        self.rmfx = fx;
    }

    fn send_rm(&self, to: NodeId, msg: &RmMsg) {
        self.net.send(to, rm_frame(msg));
    }
}

/// Encodes one membership message as a complete Wings control frame.
fn rm_frame(msg: &RmMsg) -> Bytes {
    control::encode(&ControlMsg::Membership(Bytes::from(wire::encode(msg))))
}

/// Decodes one Wings frame and routes each message to the lane owning its
/// key: processed inline when this worker owns it, forwarded otherwise.
fn handle_frame<S: NetSender>(
    worker: &mut Worker<S>,
    lanes: &[Sender<Command>],
    from: NodeId,
    frame: &Bytes,
) {
    let Ok(msgs) = decode_frame(frame) else {
        return;
    };
    for raw in msgs {
        let Ok((msg, trace)) = codec::decode_traced(&raw) else {
            continue;
        };
        let lane = worker.router.lane_for_msg(&worker.node, msg.key(), &msg);
        if lane == worker.lane {
            worker.handle_message(from, msg, trace);
        } else {
            let _ = lanes[lane].send(Command::Deliver { from, msg, trace });
        }
    }
}

/// Runs one pump event; returns `false` on shutdown.
fn pump_command<S: NetSender>(
    worker: &mut Worker<S>,
    lanes: &[Sender<Command>],
    peer_downs: &AtomicU64,
    membership: &mut Option<PumpMembership<S>>,
    cmd: Command,
) -> bool {
    match cmd {
        Command::Net(NetEvent::Frame(from, frame)) => {
            // Control frames (membership + shadow catch-up) never reach the
            // data-plane demux.
            if let Some(m) = membership.as_mut() {
                if m.on_frame(worker, lanes, from, &frame) {
                    return true;
                }
            }
            handle_frame(worker, lanes, from, &frame);
            true
        }
        Command::Net(NetEvent::PeerDown(peer)) => {
            // Surface the disconnect (tests/operators observe the count).
            // The data plane needs nothing — message-loss timeouts cover
            // whatever the dead connection swallowed — but the membership
            // driver uses it as an early suspicion hint.
            peer_downs.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = membership.as_mut() {
                m.on_peer_down(peer);
            }
            true
        }
        Command::Net(NetEvent::PeerUp(_)) => true,
        other => worker.handle_command(other),
    }
}

/// Lane 0 of every node: network ingress demux plus a full worker lane
/// (and the serialization lane, for protocols that need one).
///
/// Fully event-driven: the transport's delivery thread and the clients'
/// submit paths push into the *same* command queue, so one blocking `recv`
/// covers both and a lone client op at an idle node wakes the pump
/// immediately (no idle-poll latency floor). Idle sleeps run to the next
/// armed timer deadline, capped at [`MLT`] so the shutdown flag stays
/// responsive.
fn pump_main<S: NetSender>(
    mut worker: Worker<S>,
    commands: Receiver<Command>,
    lanes: Vec<Sender<Command>>,
    running: Arc<AtomicBool>,
    peer_downs: Arc<AtomicU64>,
    mut membership: Option<PumpMembership<S>>,
) {
    while running.load(Ordering::Relaxed) {
        let wait = worker
            .timers
            .next_deadline()
            .map(|at| at.saturating_duration_since(Instant::now()).min(MLT))
            .unwrap_or(MLT);
        match commands.recv_timeout(wait) {
            Ok(cmd) => {
                if !pump_command(&mut worker, &lanes, &peer_downs, &mut membership, cmd) {
                    return;
                }
                // Drain a bounded burst before timers/flush.
                for _ in 0..DRAIN_BATCH {
                    let Ok(cmd) = commands.try_recv() else {
                        break;
                    };
                    if !pump_command(&mut worker, &lanes, &peer_downs, &mut membership, cmd) {
                        return;
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        // Membership runs on the pump's cadence: the loop wakes at least
        // every MLT, which is finer than the heartbeat interval.
        if let Some(m) = membership.as_mut() {
            m.tick(&mut worker, &lanes);
        }
        worker.expire_timers();
        // Flush outstanding frames (opportunistic batching: never hold).
        worker.flush();
    }
}

/// Lanes 1..W: fully event-driven off the lane's command queue (ingress
/// arrives as [`Command::Deliver`] from the pump). Idle sleeps run to the
/// next armed deadline (capped at [`MLT`] so the shutdown flag stays
/// responsive) — an idle lane with no timers wakes 40×/s, not 1000×/s.
fn worker_main<S: NetSender>(
    mut worker: Worker<S>,
    commands: Receiver<Command>,
    running: Arc<AtomicBool>,
) {
    while running.load(Ordering::Relaxed) {
        let wait = worker
            .timers
            .next_deadline()
            .map(|at| at.saturating_duration_since(Instant::now()).min(MLT))
            .unwrap_or(MLT);
        match commands.recv_timeout(wait) {
            Ok(cmd) => {
                if !worker.handle_command(cmd) {
                    return;
                }
                for _ in 0..DRAIN_BATCH {
                    let Ok(cmd) = commands.try_recv() else {
                        break;
                    };
                    if !worker.handle_command(cmd) {
                        return;
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        worker.expire_timers();
        worker.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_common::ClientOp;

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
        let cluster = ThreadCluster::start_with_faults(
            3,
            ProtocolConfig::default(),
            NetFaults {
                drop_prob: 0.2,
                duplicate_prob: 0.1,
            },
            42,
        );
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

    #[test]
    fn four_workers_per_node_converge() {
        let cluster = ThreadCluster::launch(ClusterConfig {
            nodes: 3,
            workers_per_node: 4,
            ..ClusterConfig::default()
        });
        assert_eq!(cluster.workers_per_node(), 4);
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
        cluster.shutdown();
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
        // Session ids never collide with the blocking API's per-node ids.
        assert!(a.client_id().0 >= SESSION_CLIENT_BASE);
        cluster.shutdown();
    }

    #[test]
    fn serialization_lane_routing_is_honored_for_reads_and_updates() {
        // Hermes serializes nothing: ops route to the owner shard.
        let cluster = ThreadCluster::launch(ClusterConfig {
            nodes: 3,
            workers_per_node: 4,
            ..ClusterConfig::default()
        });
        let spec = cluster.router.spec();
        for raw in 0..16u64 {
            let key = Key(raw);
            assert_eq!(
                cluster.router.lane_for_op(key, &ClientOp::Read),
                spec.owner(key)
            );
            assert_eq!(
                cluster
                    .router
                    .lane_for_op(key, &ClientOp::Write(Value::EMPTY)),
                spec.owner(key)
            );
        }
        cluster.shutdown();
    }
}
