//! One replica as its own OS process: the `hermesd` runtime.
//!
//! [`NodeRuntime::serve`] binds this node's replication listener (TCP,
//! [`TcpEndpoint`]), spawns the same `Node` — lane threads, ingress, shared
//! store — that [`ThreadCluster`](crate::ThreadCluster) holds N of, and
//! additionally serves a **client port**:
//! a TCP listener speaking the `hermes_wings::client` RPC format, where
//! each connection is one pipelined session.
//!
//! Client connections are *not* threads: a small fixed pool of poller
//! shards (the sharded-poller client plane, [`ClientPlane`], DESIGN.md §7)
//! owns every accepted socket through OS readiness APIs, runs each session
//! as a sans-io state machine, and exchanges work with the worker lanes
//! through their command queues — so one daemon holds tens of thousands of
//! concurrent sessions with a session-count-independent thread count, the
//! same thread discipline the paper's RDMA runtime gets from worker-polled
//! receive queues (§4).
//!
//! The multi-process deployment story lives in the `hermesd` binary of the
//! root package (`hermes::harness::daemon_main`), and the loopback harness
//! proving a 3-process cluster linearizable in `examples/tcp_cluster.rs`
//! (DESIGN.md §4); the session-scaling evidence lives in
//! `examples/session_scaling.rs`.

use crate::host::Node;
use crate::membership::{MembershipOptions, MembershipStatus};
use crate::metrics::NodeObs;
use crate::poller::ClientPlane;
use crate::remote::{invalid, Conn};
use hermes_common::{Key, MembershipView, NodeId, Reply, Value};
use hermes_core::ProtocolConfig;
use hermes_membership::RmConfig;
use hermes_net::{TcpConfig, TcpEndpoint, TcpStats};
use hermes_obs::{Histogram, Registry, TraceSpan};
use hermes_wings::client::{Request, ServerFrame};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Request frames larger than this kill the client connection.
pub(crate) const MAX_CLIENT_FRAME: usize = 16 << 20;

/// Most poller shards the adaptive default will pick: readiness-driven
/// threads multiplex tens of thousands of sessions each (DESIGN.md §7),
/// so piling on more than this only costs wakeups.
const MAX_DEFAULT_POLLERS: usize = 8;

/// Poller shards of the client plane unless `--pollers` says otherwise:
/// sized from the host's available parallelism (capped at
/// [`MAX_DEFAULT_POLLERS`]) so a many-core daemon spreads its sessions
/// without hand-tuning, while a 1-core CI box gets a single shard.
fn default_pollers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .clamp(1, MAX_DEFAULT_POLLERS)
}

/// Deployment parameters of one `hermesd` replica process.
#[derive(Clone, Debug)]
pub struct NodeOptions {
    /// This node's id — an index into `peers`.
    pub node: NodeId,
    /// Replication listen addresses of every replica, indexed by node id
    /// (this node binds `peers[node]`).
    pub peers: Vec<SocketAddr>,
    /// Client-port listen address (use port 0 for ephemeral).
    pub client_addr: SocketAddr,
    /// Worker threads (key shards) on this node; ≥ 1.
    pub workers: usize,
    /// Poller shard threads of the client plane; ≥ 1 (DESIGN.md §7).
    pub pollers: usize,
    /// Protocol switches.
    pub protocol: ProtocolConfig,
    /// TCP transport tuning.
    pub tcp: TcpConfig,
    /// Exit after this long (`None`: run until told to stop). Consumed by
    /// the daemon's main loop (`hermes::harness::daemon_main`), not by
    /// [`NodeRuntime`] itself.
    pub run_for: Option<Duration>,
    /// Run the live membership subsystem (on by default; `--no-membership`
    /// pins the initial view for the process lifetime).
    pub membership: Option<RmConfig>,
    /// (Re)start outside the group and join as a shadow: refuse service,
    /// ask the members for admission, bulk-sync, get promoted (`--join`).
    pub join: bool,
    /// Periodically dump the metrics exposition (`--metrics-dump <secs>`).
    /// Consumed by `daemon_main`, like `run_for`.
    pub metrics_dump: Option<Duration>,
}

impl NodeOptions {
    /// Parses daemon command-line arguments (everything after the program
    /// name): `--node <id> --peers <addr,addr,...> --client <addr>
    /// [--workers <n>] [--pollers <n>] [--duration <secs>] [--join]
    /// [--no-membership] [--metrics-dump <secs>]`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending flag.
    pub fn parse(args: &[String]) -> Result<NodeOptions, String> {
        let mut node: Option<u32> = None;
        let mut peers: Option<Vec<SocketAddr>> = None;
        let mut client_addr: Option<SocketAddr> = None;
        let mut workers = 2usize;
        let mut pollers = default_pollers();
        let mut run_for = None;
        let mut membership = Some(RmConfig::wall_clock());
        let mut join = false;
        let mut metrics_dump = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match flag.as_str() {
                "--node" => {
                    node = Some(
                        value("--node")?
                            .parse()
                            .map_err(|e| format!("--node: {e}"))?,
                    );
                }
                "--peers" => {
                    peers = Some(
                        value("--peers")?
                            .split(',')
                            .map(|a| a.trim().parse().map_err(|e| format!("--peers '{a}': {e}")))
                            .collect::<Result<_, _>>()?,
                    );
                }
                "--client" => {
                    client_addr = Some(
                        value("--client")?
                            .parse()
                            .map_err(|e| format!("--client: {e}"))?,
                    );
                }
                "--workers" => {
                    workers = value("--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?;
                }
                "--pollers" => {
                    pollers = value("--pollers")?
                        .parse()
                        .map_err(|e| format!("--pollers: {e}"))?;
                }
                "--duration" => run_for = Some(parse_secs("--duration", value("--duration")?)?),
                "--metrics-dump" => {
                    let every = parse_secs("--metrics-dump", value("--metrics-dump")?)?;
                    if every.is_zero() {
                        return Err("--metrics-dump must be > 0".into());
                    }
                    metrics_dump = Some(every);
                }
                "--join" => join = true,
                "--no-membership" => membership = None,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let node = NodeId(node.ok_or("--node is required")?);
        let peers = peers.ok_or("--peers is required")?;
        if node.index() >= peers.len() {
            return Err(format!(
                "--node {} out of range for {} peers",
                node.0,
                peers.len()
            ));
        }
        if workers == 0 {
            return Err("--workers must be ≥ 1".into());
        }
        if pollers == 0 {
            return Err("--pollers must be ≥ 1".into());
        }
        if join && membership.is_none() {
            return Err("--join requires membership (drop --no-membership)".into());
        }
        Ok(NodeOptions {
            node,
            peers,
            client_addr: client_addr.ok_or("--client is required")?,
            workers,
            pollers,
            protocol: ProtocolConfig::default(),
            tcp: TcpConfig::default(),
            run_for,
            membership,
            join,
            metrics_dump,
        })
    }
}

/// A `<secs>` flag's value: seconds a `Duration` can hold, so not negative,
/// NaN, infinite or beyond `Duration::MAX`.
fn parse_secs(flag: &str, value: String) -> Result<Duration, String> {
    let secs: f64 = value.parse().map_err(|e| format!("{flag}: {e}"))?;
    Duration::try_from_secs_f64(secs).map_err(|e| format!("{flag}: {e}"))
}

/// A running single-node replica: worker threads over the TCP transport
/// plus the client-port RPC service.
#[derive(Debug)]
pub struct NodeRuntime {
    id: NodeId,
    client_addr: SocketAddr,
    /// The lanes, their threads, the transport ingress and the state they
    /// share — the same value a `ThreadCluster` holds per replica.
    node: Node,
    /// The sharded-poller client plane owning every remote session
    /// (stopped first on shutdown, before the worker lanes).
    client_plane: Option<ClientPlane>,
    tcp_stats: Arc<TcpStats>,
    /// Raised when a client connection delivers the shutdown RPC; the
    /// daemon's main loop polls it and winds the process down.
    shutdown_requested: Arc<AtomicBool>,
    /// The metrics registry backing the `Metrics` RPC and
    /// [`NodeRuntime::metrics_text`]; every runtime gauge, histogram and
    /// protocol-phase counter is registered here at startup.
    registry: Arc<Registry>,
}

impl NodeRuntime {
    /// Binds the replication and client listeners and starts serving.
    ///
    /// # Errors
    ///
    /// Fails if either listener cannot be bound.
    pub fn serve(opts: NodeOptions) -> std::io::Result<NodeRuntime> {
        if opts.join && opts.membership.is_none() {
            // Honoring join without membership is impossible (nothing can
            // ever admit the node), and ignoring it would boot a blank
            // store as a serving full member.
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "join requires the membership subsystem",
            ));
        }
        let ep = TcpEndpoint::bind(opts.node, &opts.peers, opts.tcp)?;
        let tcp_stats = ep.stats();
        let client_listener = TcpListener::bind(opts.client_addr)?;
        client_listener.set_nonblocking(true)?;
        let client_addr = client_listener.local_addr()?;
        let view = MembershipView::initial(opts.peers.len());
        let membership = opts.membership.map(|rm| MembershipOptions {
            rm,
            join: opts.join,
        });
        let pollers = opts.pollers.max(1);
        let node = Node::spawn(ep, view, opts.protocol, opts.workers, pollers, membership)?;
        let shutdown_requested = Arc::new(AtomicBool::new(false));
        let registry = build_registry(opts.node, opts.peers.len(), &node, &tcp_stats);
        let registry = Arc::new(registry);
        let client_plane = ClientPlane::start(
            client_listener,
            node.lanes().clone(),
            pollers,
            Arc::clone(&shutdown_requested),
            Arc::clone(&registry),
            Arc::clone(node.obs()),
            Arc::clone(node.store()),
            Arc::clone(node.status()),
        )?;
        Ok(NodeRuntime {
            id: opts.node,
            client_addr,
            node,
            client_plane: Some(client_plane),
            tcp_stats,
            shutdown_requested,
            registry,
        })
    }

    /// Renders this replica's full metrics exposition (the same text the
    /// `Metrics` client RPC serves remotely, [`query_metrics`]).
    pub fn metrics_text(&self) -> String {
        self.registry.render()
    }

    /// Drains every captured trace span (slow ops and sampled ops) from
    /// this replica's rings — the same records the `Traces` client RPC
    /// serves remotely ([`query_traces`]). Each span is returned exactly
    /// once across local drains and RPC scrapes.
    pub fn trace_spans(&self) -> Vec<TraceSpan> {
        self.node.trace_spans()
    }

    /// This replica's node id.
    pub fn node_id(&self) -> NodeId {
        self.id
    }

    /// The client-port address actually bound (resolves `:0`).
    pub fn client_addr(&self) -> SocketAddr {
        self.client_addr
    }

    /// Worker lanes on this node.
    pub fn workers(&self) -> usize {
        self.node.lanes().workers()
    }

    /// Live membership gauges (current view, serving state, view changes).
    pub fn membership(&self) -> &MembershipStatus {
        self.node.status()
    }

    /// TCP transport counters (frames, dials, accepts, disconnects).
    pub fn tcp_stats(&self) -> &TcpStats {
        &self.tcp_stats
    }

    /// Client operations handled per worker lane since start.
    pub fn lane_ops(&self) -> Vec<u64> {
        self.node.lane_ops()
    }

    /// Peer messages handled per worker lane, each read by the lane itself
    /// off its own links (DESIGN.md §4, §7).
    pub fn lane_ingress(&self) -> Vec<u64> {
        self.node.lane_ingress()
    }

    /// Whether a client connection has delivered the shutdown RPC
    /// ([`request_shutdown`]); the daemon's main loop polls this and exits
    /// cleanly, joining worker and transport threads.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Lock-free local read from this node's seqlock mirror (paper §4.1);
    /// `None` when the key is invalidated mid-write, or when this replica
    /// is not serving (expired lease, deposed from the view, shadow) —
    /// the mirror may be stale then.
    pub fn read_local(&self, key: Key) -> Option<Value> {
        self.node.read_local(key)
    }

    fn stop(&mut self) {
        // The client plane goes first: no poller hands an operation to a
        // lane that has stopped.
        if let Some(mut plane) = self.client_plane.take() {
            plane.stop();
        }
        self.node.stop();
    }

    /// Stops the client service, the worker threads and the transport.
    pub fn shutdown(mut self) {
        self.stop();
    }
}

impl Drop for NodeRuntime {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Everything an unlabelled sample of the exposition reads from.
struct Sources {
    obs: Arc<NodeObs>,
    status: Arc<MembershipStatus>,
    tcp: Arc<TcpStats>,
}

/// How one [`Row`] reads and renders.
enum Sample {
    Counter(fn(&Sources) -> u64),
    Gauge(fn(&Sources) -> u64),
    Summary(fn(&NodeObs) -> &Arc<Histogram>),
}
use Sample::{Counter, Gauge, Summary};

/// One unlabelled sample of a replica's exposition: `(name, help, reader)`.
type Row = (&'static str, &'static str, Sample);

/// Membership and serving state: rendered ahead of the per-lane families.
const MEMBERSHIP: &[Row] = &[
    (
        "hermes_view_epoch",
        "Epoch of the installed membership view.",
        Gauge(|s| s.status.epoch()),
    ),
    (
        "hermes_view_changes_total",
        "Reconfigured views installed since start.",
        Counter(|s| s.status.view_changes()),
    ),
    (
        "hermes_serving",
        "Whether this replica serves client operations (0/1).",
        Gauge(|s| s.status.serving() as u64),
    ),
    (
        "hermes_synced",
        "Whether shadow catch-up completed (0/1).",
        Gauge(|s| s.status.synced() as u64),
    ),
    (
        "hermes_view_change_outage_us",
        "Not-serving window per view-change outage (us).",
        Summary(|o| &o.view_change_us),
    ),
    (
        "hermes_view_change_outages_total",
        "Completed serving outages (serving lost then restored).",
        Counter(|s| s.obs.view_outages.load(Ordering::Relaxed)),
    ),
];

/// Every other unlabelled sample, in rendering order after the per-lane
/// and per-shard families: protocol phases (paper §3.1: INV broadcast, ACK
/// collection, VAL broadcast), the client cache plane, the client plane and
/// the transport.
const SCALARS: &[Row] = &[
    (
        "hermes_invalidations_sent_total",
        "Invalidation (INV) messages sent to peers.",
        Counter(|s| s.obs.invals_sent.load(Ordering::Relaxed)),
    ),
    (
        "hermes_invalidation_acks_total",
        "Invalidation acks (ACK) received from peers.",
        Counter(|s| s.obs.invals_acked.load(Ordering::Relaxed)),
    ),
    (
        "hermes_validations_sent_total",
        "Validation (VAL) messages sent to peers.",
        Counter(|s| s.obs.vals_sent.load(Ordering::Relaxed)),
    ),
    (
        "hermes_sync_chunks_total",
        "Shadow catch-up chunks installed.",
        Counter(|s| s.obs.sync_chunks.load(Ordering::Relaxed)),
    ),
    (
        "hermes_sync_bytes_total",
        "Shadow catch-up payload bytes installed.",
        Counter(|s| s.obs.sync_bytes.load(Ordering::Relaxed)),
    ),
    (
        "hermes_engine_resident_keys",
        "Keys the lanes' protocol engines hold: those with work in flight.",
        Gauge(|s| NodeObs::per_lane(&s.obs.resident_keys).iter().sum()),
    ),
    (
        "hermes_cache_subscriptions",
        "Live client push subscriptions across all worker lanes.",
        Gauge(|s| s.obs.subscriptions.load(Ordering::Relaxed)),
    ),
    (
        "hermes_cache_pushes_total",
        "Push frames (invalidations, acks, flushes) sent to clients.",
        Counter(|s| s.obs.pushes.load(Ordering::Relaxed)),
    ),
    (
        "hermes_cache_push_acks_total",
        "Client invalidation-push acks received.",
        Counter(|s| s.obs.push_acks.load(Ordering::Relaxed)),
    ),
    (
        "hermes_cache_holds_released_total",
        "Effects released after their guarding cache-push acks arrived.",
        Counter(|s| s.obs.holds_released.load(Ordering::Relaxed)),
    ),
    (
        "hermes_open_sessions",
        "Remote client sessions currently open (the sum over poller shards).",
        Gauge(|s| s.obs.open_sessions()),
    ),
    (
        "hermes_accept_stalls_total",
        "Times the listener paused accepting near the fd budget.",
        Counter(|s| s.obs.accept_stalls.load(Ordering::Relaxed)),
    ),
    (
        "hermes_accepts_total",
        "Client connections accepted.",
        Counter(|s| s.obs.accepts.load(Ordering::Relaxed)),
    ),
    (
        "hermes_credit_parks_total",
        "Sessions whose read interest parked on credit exhaustion.",
        Counter(|s| s.obs.read_parks.load(Ordering::Relaxed)),
    ),
    (
        "hermes_mirror_reads_total",
        "Client reads a session's channel answered from the seqlock mirror, no lane involved.",
        Counter(|s| s.obs.mirror_reads.load(Ordering::Relaxed)),
    ),
    (
        "hermes_mirror_read_fallbacks_total",
        "Client reads queued at a lane: key not Valid, not serving, or own update in flight.",
        Counter(|s| s.obs.mirror_read_fallbacks.load(Ordering::Relaxed)),
    ),
    (
        "hermes_poller_decode_us",
        "Poller time decoding one session's readable burst (us).",
        Summary(|o| &o.poller_decode_us),
    ),
    (
        "hermes_poller_write_us",
        "Poller time draining one session's write buffer (us).",
        Summary(|o| &o.poller_write_us),
    ),
    (
        "hermes_credit_stall_us",
        "How long a session's read interest stayed parked for credit (us).",
        Summary(|o| &o.credit_stall_us),
    ),
    (
        "hermes_tcp_dials_total",
        "Successful outbound peer dials (connects and reconnects).",
        Counter(|s| s.tcp.dials()),
    ),
    (
        "hermes_tcp_accepts_total",
        "Inbound peer connections accepted.",
        Counter(|s| s.tcp.accepts()),
    ),
    (
        "hermes_tcp_disconnects_total",
        "Peer connections that died (either direction, injected kills included).",
        Counter(|s| s.tcp.disconnects()),
    ),
    (
        "hermes_tcp_frames_sent_total",
        "Wings frames handed to the kernel on peer sockets.",
        Counter(|s| s.tcp.frames_sent()),
    ),
    (
        "hermes_tcp_frames_received_total",
        "Wings frames received from peers.",
        Counter(|s| s.tcp.frames_received()),
    ),
    (
        "hermes_tcp_frames_dropped_total",
        "Frames dropped: peer unreachable, link died with them queued, or outbox full.",
        Counter(|s| s.tcp.frames_dropped()),
    ),
    (
        "hermes_tcp_bytes_sent_total",
        "Frame payload bytes handed to the kernel on peer sockets.",
        Counter(|s| s.tcp.bytes_sent()),
    ),
    (
        "hermes_tcp_bytes_received_total",
        "Frame payload bytes received from peers.",
        Counter(|s| s.tcp.bytes_received()),
    ),
    (
        "hermes_tcp_writes_inline_total",
        "Frames written to the socket by the sending lane itself.",
        Counter(|s| s.tcp.writes_inline()),
    ),
    (
        "hermes_tcp_writes_deferred_total",
        "Frames the link's lane wrote from its poll (queued by a dial or a full socket).",
        Counter(|s| s.tcp.writes_deferred()),
    ),
    (
        "hermes_tcp_egress_backlog_bytes",
        "Bytes queued in peer outboxes waiting for their sockets.",
        Gauge(|s| s.tcp.egress_backlog_bytes()),
    ),
];

/// Registers every runtime gauge, protocol-phase counter and latency
/// histogram of one replica of a `peers`-node deployment into a fresh
/// metrics registry. All handles are closures or shared `Arc`s over state
/// the runtime already maintains — rendering samples live values, and
/// registration adds no hot-path cost. Every metric carries a
/// `node="<id>"` base label so a cluster aggregator can merge the
/// expositions of all replicas without collisions.
fn build_registry(id: NodeId, peers: usize, node: &Node, tcp: &Arc<TcpStats>) -> Registry {
    let r = Registry::with_base_labels(vec![("node", id.0.to_string())]);
    let obs = node.obs();
    let src = Arc::new(Sources {
        obs: Arc::clone(obs),
        status: Arc::clone(node.status()),
        tcp: Arc::clone(tcp),
    });
    let scalars = |rows: &[Row]| {
        for &(name, help, ref sample) in rows {
            let s = Arc::clone(&src);
            match *sample {
                Counter(read) => r.counter_fn(name, help, vec![], move || read(&s)),
                Gauge(read) => r.gauge_fn(name, help, vec![], move || read(&s)),
                Summary(hist) => r.histogram_shared(name, help, vec![], Arc::clone(hist(obs))),
            }
        }
    };
    scalars(MEMBERSHIP);
    // The installed view (paper §3.4), one 0/1 row per node id: exact,
    // where a node set rendered as one f64 would not be.
    let sets = [
        (
            "hermes_view_member",
            "Whether the peer is a member of the installed view (0/1).",
            false,
        ),
        (
            "hermes_view_shadow",
            "Whether the peer is a shadow of the installed view (0/1).",
            true,
        ),
    ];
    for (name, help, shadows) in sets {
        for peer in 0..peers as u32 {
            let status = Arc::clone(node.status());
            let labels = vec![("peer", peer.to_string())];
            r.gauge_fn(name, help, labels, move || {
                let set = if shadows {
                    status.shadows()
                } else {
                    status.members()
                };
                set.contains(NodeId(peer)) as u64
            });
        }
    }

    // Worker lanes: op throughput, ingress demux, op latency, slow ops.
    for lane in 0..obs.lane_ops.len() {
        let o = Arc::clone(obs);
        r.counter_fn(
            "hermes_lane_ops_total",
            "Client operations handled per worker lane.",
            vec![("lane", lane.to_string())],
            move || o.lane_ops[lane].load(Ordering::Relaxed),
        );
        let o = Arc::clone(obs);
        r.counter_fn(
            "hermes_lane_ingress_total",
            "Peer messages each worker lane read off its own links.",
            vec![("lane", lane.to_string())],
            move || o.lane_ingress[lane].load(Ordering::Relaxed),
        );
    }
    for (lane, h) in obs.lane_latency.iter().enumerate() {
        r.histogram_shared(
            "hermes_op_latency_us",
            "Client-op latency per worker lane (us, issue to reply release).",
            vec![("lane", lane.to_string())],
            Arc::clone(h),
        );
    }
    for lane in 0..obs.lane_traces.len() {
        let o = Arc::clone(obs);
        r.counter_fn(
            "hermes_slow_ops_total",
            "Ops captured over the slow-op trace threshold per lane.",
            vec![("lane", lane.to_string())],
            move || o.lane_traces[lane].slow_total(),
        );
    }

    // Client plane: the sessions each poller shard owns.
    for shard in 0..obs.shard_sessions.len() {
        let o = Arc::clone(obs);
        r.gauge_fn(
            "hermes_shard_sessions",
            "Remote client sessions open per poller shard.",
            vec![("shard", shard.to_string())],
            move || o.shard_sessions[shard].load(Ordering::Relaxed),
        );
    }

    scalars(SCALARS);
    r
}

/// Asks the replica daemon at `addr` (its client port) to shut down
/// cleanly, waiting up to `timeout` for the acknowledgement.
///
/// # Errors
///
/// Fails if the daemon is unreachable or hangs up before acknowledging.
pub fn request_shutdown(addr: SocketAddr, timeout: Duration) -> io::Result<()> {
    match call(addr, &Request::Shutdown { seq: 0 }, timeout)? {
        ServerFrame::Reply(_, Reply::WriteOk) => Ok(()),
        other => Err(unexpected(other)),
    }
}

/// Fetches the full metrics exposition of the replica daemon at `addr`
/// (its client port): Prometheus-style text with the membership view and
/// serving state, per-lane op counts and latency histograms,
/// protocol-phase counters, session and cache-push accounting — everything
/// a replica reports about itself, and how harnesses observe view changes
/// without parsing daemon logs. The
/// scraper-facing counterpart of [`NodeRuntime::metrics_text`].
///
/// # Errors
///
/// Fails if the daemon is unreachable or answers with a malformed frame
/// before `timeout` elapses.
pub fn query_metrics(addr: SocketAddr, timeout: Duration) -> io::Result<String> {
    match call(addr, &Request::Metrics { seq: 0 }, timeout)? {
        ServerFrame::Metrics(_, text) => Ok(text),
        other => Err(unexpected(other)),
    }
}

/// Drains the captured trace spans of the replica daemon at `addr` (its
/// client port): slow ops over the `HERMES_SLOW_OP_US` threshold plus
/// every op sampled for cross-node tracing (`HERMES_TRACE_SAMPLE`). The
/// drain consumes — polling aggregators see each span exactly once; stitch
/// the spans of all replicas with [`hermes_obs::stitch`] to rebuild
/// cross-node causal timelines.
///
/// # Errors
///
/// Fails if the daemon is unreachable or answers with a malformed frame
/// before `timeout` elapses.
pub fn query_traces(addr: SocketAddr, timeout: Duration) -> io::Result<Vec<TraceSpan>> {
    match call(addr, &Request::Traces { seq: 0 }, timeout)? {
        ServerFrame::Traces(_, spans) => Ok(spans),
        other => Err(unexpected(other)),
    }
}

/// A well-formed frame that does not answer the request it came back for.
fn unexpected(frame: ServerFrame) -> io::Error {
    io::Error::other(format!("unexpected reply: {frame:?}"))
}

/// One request/response exchange on a fresh client-port connection.
fn call(addr: SocketAddr, request: &Request, timeout: Duration) -> io::Result<ServerFrame> {
    let deadline = Instant::now() + timeout;
    let conn = Conn::new(TcpStream::connect_timeout(&addr, timeout)?)?;
    conn.send(request, 0)?;
    let mut reply = None;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(
                ErrorKind::TimedOut,
                "no reply before deadline",
            ));
        }
        conn.read_frames(Some(left), |payload| {
            if reply.is_none() {
                reply = Some(ServerFrame::decode(payload).map_err(invalid)?);
            }
            Ok(())
        })?;
        if let Some(reply) = reply.take() {
            return Ok(reply);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::RemoteChannel;
    use crate::session::{ClientSession, LaneChannel, TxnResult};
    use hermes_common::{ClientId, TxnOp};
    use hermes_wings::CreditConfig;

    /// A replica that is not serving answers every sub-operation
    /// `NotOperational`, so the one transaction driver stops in doubt —
    /// wherever its session lives — and a resume from a fresh session
    /// finds the same.
    /// A lone joiner: it has nobody to admit it, so it never serves.
    fn lone_joiner() -> NodeRuntime {
        let loopback: SocketAddr = "127.0.0.1:0".parse().unwrap();
        NodeRuntime::serve(NodeOptions {
            node: NodeId(0),
            peers: vec![loopback],
            client_addr: loopback,
            workers: 2,
            pollers: 1,
            protocol: ProtocolConfig::default(),
            tcp: TcpConfig::default(),
            run_for: None,
            membership: Some(RmConfig::wall_clock()),
            join: true,
            metrics_dump: None,
        })
        .unwrap()
    }

    #[test]
    fn a_txn_at_a_replica_that_is_not_serving_ends_in_doubt_and_leaves_nothing_behind() {
        let runtime = lone_joiner();
        assert!(!runtime.membership().serving());
        let op = TxnOp::MultiPut(vec![
            (Key(1), Value::from_u64(1)),
            (Key(2), Value::from_u64(2)),
        ]);

        // In process.
        let channel = LaneChannel::new(ClientId(u64::MAX), &runtime.node);
        let mut session = ClientSession::new(channel, CreditConfig::default());
        assert!(matches!(session.txn(op.clone()), TxnResult::InDoubt(_)));
        assert_eq!(session.outstanding(), 0);
        drop(session);

        // Over the client port: in doubt, not aborted, and still in doubt
        // when a fresh session resumes it.
        let remote = || {
            RemoteChannel::connect_within(runtime.client_addr(), Duration::from_secs(5))
                .unwrap()
                .into_session()
        };
        let TxnResult::InDoubt(pending) = remote().txn(op) else {
            panic!("a remote txn at a replica that is not serving must end in doubt");
        };
        assert!(matches!(
            remote().resume_txn(pending),
            TxnResult::InDoubt(_)
        ));

        // Every sub-operation was answered at the lease gate and no
        // session subscribed: the lanes hold nothing for them.
        let sample = |name| hermes_obs::sample_value(&runtime.metrics_text(), name);
        assert_eq!(sample("hermes_cache_subscriptions"), Some(0.0));
        // One lock CAS each: the in-process txn, the remote one, its resume.
        assert_eq!(runtime.lane_ops().iter().sum::<u64>(), 3);
        runtime.shutdown();
    }

    /// A replica that is not serving may hold a stale mirror: an
    /// in-process session's read goes to the lane, which refuses it, and
    /// is never answered from the mirror (where a key never written reads
    /// as empty).
    #[test]
    fn an_in_process_read_at_a_replica_that_is_not_serving_is_not_operational() {
        let runtime = lone_joiner();
        let channel = LaneChannel::new(ClientId(u64::MAX), &runtime.node);
        let mut session = ClientSession::new(channel, CreditConfig::default());
        for key in [Key(1), Key(2)] {
            let t = session.read(key);
            assert_eq!(session.wait(t), Reply::NotOperational);
        }
        let sample = |name| hermes_obs::sample_value(&runtime.metrics_text(), name);
        assert_eq!(sample("hermes_mirror_reads_total"), Some(0.0));
        assert_eq!(runtime.lane_ops().iter().sum::<u64>(), 2);
        drop(session);
        runtime.shutdown();
    }

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parses_a_full_flag_set() {
        let opts = NodeOptions::parse(&s(&[
            "--node",
            "1",
            "--peers",
            "127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003",
            "--client",
            "127.0.0.1:8001",
            "--workers",
            "4",
            "--duration",
            "2.5",
        ]))
        .unwrap();
        assert_eq!(opts.node, NodeId(1));
        assert_eq!(opts.peers.len(), 3);
        assert_eq!(opts.peers[2], "127.0.0.1:7003".parse().unwrap());
        assert_eq!(opts.client_addr, "127.0.0.1:8001".parse().unwrap());
        assert_eq!(opts.workers, 4);
        assert_eq!(opts.run_for, Some(Duration::from_secs_f64(2.5)));
    }

    #[test]
    fn defaults_and_required_flags() {
        let opts = NodeOptions::parse(&s(&[
            "--node",
            "0",
            "--peers",
            "127.0.0.1:7001",
            "--client",
            "127.0.0.1:0",
        ]))
        .unwrap();
        assert_eq!(opts.workers, 2);
        assert_eq!(opts.run_for, None);

        assert!(
            NodeOptions::parse(&s(&["--peers", "127.0.0.1:1", "--client", "127.0.0.1:0"]))
                .unwrap_err()
                .contains("--node")
        );
        assert!(NodeOptions::parse(&s(&["--node", "0"]))
            .unwrap_err()
            .contains("--peers"));
    }

    #[test]
    fn adaptive_poller_default_is_bounded_and_overridable() {
        let base = [
            "--node",
            "0",
            "--peers",
            "127.0.0.1:1",
            "--client",
            "127.0.0.1:0",
        ];
        let opts = NodeOptions::parse(&s(&base)).unwrap();
        assert!((1..=MAX_DEFAULT_POLLERS).contains(&opts.pollers));

        let mut with_flag = base.to_vec();
        with_flag.extend(["--pollers", "3"]);
        assert_eq!(NodeOptions::parse(&s(&with_flag)).unwrap().pollers, 3);
        with_flag[6] = "--pollers";
        with_flag[7] = "0";
        assert!(NodeOptions::parse(&s(&with_flag))
            .unwrap_err()
            .contains("--pollers"));
    }

    #[test]
    fn rejects_bad_values() {
        assert!(NodeOptions::parse(&s(&["--node", "x"])).is_err());
        assert!(NodeOptions::parse(&s(&[
            "--node",
            "3",
            "--peers",
            "127.0.0.1:1,127.0.0.1:2",
            "--client",
            "127.0.0.1:0"
        ]))
        .unwrap_err()
        .contains("out of range"));
        assert!(NodeOptions::parse(&s(&["--frobnicate"]))
            .unwrap_err()
            .contains("unknown flag"));
        assert!(NodeOptions::parse(&s(&["--node"]))
            .unwrap_err()
            .contains("requires a value"));
        // Seconds no `Duration` holds are refused, not a panic.
        let base = [
            "--node",
            "0",
            "--peers",
            "127.0.0.1:1",
            "--client",
            "127.0.0.1:0",
        ];
        let bad_secs = [
            ("--duration", "-1"),
            ("--duration", "nan"),
            ("--duration", "inf"),
            ("--duration", "1e30"),
            ("--metrics-dump", "nan"),
            ("--metrics-dump", "inf"),
            ("--metrics-dump", "1e30"),
            ("--metrics-dump", "-1"),
            ("--metrics-dump", "0"),
        ];
        for (flag, secs) in bad_secs {
            let args = [&base[..], &[flag, secs]].concat();
            let err = NodeOptions::parse(&s(&args)).unwrap_err();
            assert!(err.contains(flag), "{flag} {secs}: {err}");
        }
    }
}
