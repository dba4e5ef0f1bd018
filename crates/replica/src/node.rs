//! One replica as its own OS process: the `hermesd` runtime.
//!
//! [`NodeRuntime::serve`] binds this node's replication listener (TCP,
//! [`TcpEndpoint`]), spawns the same `Node` — lane threads, ingress, shared
//! store — that [`ThreadCluster`](crate::ThreadCluster) holds N of, and
//! additionally serves a **client port**:
//! a TCP listener speaking the `hermes_wings::client` RPC format, where
//! each connection is one pipelined session.
//!
//! Client connections are *not* threads, and no thread sits between them
//! and the lanes: every worker lane hosts its share of the accepted
//! sockets (its client shard, DESIGN.md §7) in the same wait as its peer
//! links, runs each session as a sans-io state machine, runs an operation
//! on a key it owns inline and hands any other to its owner's queue — so
//! one daemon holds tens of thousands of concurrent sessions on exactly
//! its lane threads, the thread discipline the paper's RDMA runtime gets
//! from worker-polled receive queues (§4).
//!
//! The multi-process deployment story lives in the `hermesd` binary of the
//! root package (`hermes::harness::daemon_main`), and the loopback harness
//! proving a 3-process cluster linearizable in `examples/tcp_cluster.rs`
//! (DESIGN.md §4); the session-scaling evidence lives in
//! `examples/session_scaling.rs`.

use crate::host::Node;
use crate::membership::MembershipStatus;
use crate::remote::{invalid, ClientConn, Waiter};
use hermes_common::{Key, MembershipView, NodeId, Reply, Value};
use hermes_core::ProtocolConfig;
use hermes_membership::RmConfig;
use hermes_net::{TcpConfig, TcpEndpoint, TcpStats};
use hermes_obs::{Registry, TraceSpan};
use hermes_wings::client::{Request, ServerFrame};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Request frames larger than this kill the client connection.
pub(crate) const MAX_CLIENT_FRAME: usize = 16 << 20;

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
    /// Unread: the lanes host the client plane, so there is no poller
    /// thread to size (DESIGN.md §7). Kept so that struct literals naming
    /// it still build; [`NodeOptions::parse`] sets 0.
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
    /// [--workers <n>] [--duration <secs>] [--join]
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
        if join && membership.is_none() {
            return Err("--join requires membership (drop --no-membership)".into());
        }
        Ok(NodeOptions {
            node,
            peers,
            client_addr: client_addr.ok_or("--client is required")?,
            workers,
            pollers: 0,
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
    /// The lanes, their threads, the transport ingress, the client
    /// sessions they host and the state they share — the value a
    /// `ThreadCluster` holds per replica, plus the client plane.
    node: Node,
    tcp_stats: Arc<TcpStats>,
    /// Raised when a client connection delivers the shutdown RPC; the
    /// daemon's main loop polls it and winds the process down.
    shutdown_requested: Arc<AtomicBool>,
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
        let client_addr = client_listener.local_addr()?;
        let view = MembershipView::initial(opts.peers.len());
        let shutdown_requested = Arc::new(AtomicBool::new(false));
        let port = Some((client_listener, Arc::clone(&shutdown_requested)));
        let (workers, membership, join) = (opts.workers, opts.membership, opts.join);
        let node = Node::spawn(ep, view, opts.protocol, workers, port, membership, join)?;
        register_tcp(&node.obs().registry, &tcp_stats);
        Ok(NodeRuntime {
            id: opts.node,
            client_addr,
            node,
            tcp_stats,
            shutdown_requested,
        })
    }

    /// Renders this replica's full metrics exposition (the same text the
    /// `Metrics` client RPC serves remotely, [`query_metrics`]): the
    /// node's registry, with the transport's `hermes_tcp_*` rows.
    pub fn metrics_text(&self) -> String {
        self.node.metrics_text()
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

    /// Stops the worker lanes, and with them the client sessions they host
    /// and the transport.
    pub fn shutdown(mut self) {
        self.node.stop();
    }
}

impl Drop for NodeRuntime {
    fn drop(&mut self) {
        self.node.stop();
    }
}

/// One transport counter: `(name, help, reader)`.
type TcpCounter = (&'static str, &'static str, fn(&TcpStats) -> u64);

/// The transport's counters, kept by hermes-net and rendered by the node's
/// registry.
const TCP_COUNTERS: [TcpCounter; 10] = [
    (
        "hermes_tcp_dials_total",
        "Successful outbound peer dials (connects and reconnects).",
        TcpStats::dials,
    ),
    (
        "hermes_tcp_accepts_total",
        "Inbound peer connections accepted.",
        TcpStats::accepts,
    ),
    (
        "hermes_tcp_disconnects_total",
        "Peer connections that died (either direction, injected kills included).",
        TcpStats::disconnects,
    ),
    (
        "hermes_tcp_frames_sent_total",
        "Wings frames handed to the kernel on peer sockets.",
        TcpStats::frames_sent,
    ),
    (
        "hermes_tcp_frames_received_total",
        "Wings frames received from peers.",
        TcpStats::frames_received,
    ),
    (
        "hermes_tcp_frames_dropped_total",
        "Frames dropped: peer unreachable, link died with them queued, or outbox full.",
        TcpStats::frames_dropped,
    ),
    (
        "hermes_tcp_bytes_sent_total",
        "Frame payload bytes handed to the kernel on peer sockets.",
        TcpStats::bytes_sent,
    ),
    (
        "hermes_tcp_bytes_received_total",
        "Frame payload bytes received from peers.",
        TcpStats::bytes_received,
    ),
    (
        "hermes_tcp_writes_inline_total",
        "Frames written to the socket by the sending lane itself.",
        TcpStats::writes_inline,
    ),
    (
        "hermes_tcp_writes_deferred_total",
        "Frames the link's lane wrote from its poll (queued by a dial or a full socket).",
        TcpStats::writes_deferred,
    ),
];

/// Adds the transport's rows to a node's registry, read live from `tcp`
/// at each render.
fn register_tcp(r: &Registry, tcp: &Arc<TcpStats>) {
    for (name, help, read) in TCP_COUNTERS {
        let tcp = Arc::clone(tcp);
        r.counter_fn(name, help, vec![], move || read(&tcp));
    }
    let tcp = Arc::clone(tcp);
    r.gauge_fn(
        "hermes_tcp_egress_backlog_bytes",
        "Bytes queued in peer outboxes waiting for their sockets.",
        vec![],
        move || tcp.egress_backlog_bytes(),
    );
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
    let conn = ClientConn::new(TcpStream::connect_timeout(&addr, timeout)?)?;
    let mut readable = Waiter::new(&conn)?;
    conn.send(request)?;
    let mut reply = None;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(
                ErrorKind::TimedOut,
                "no reply before deadline",
            ));
        }
        readable.wait(Some(left))?;
        conn.read_frames(|payload| {
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
    use crate::ThreadCluster;
    use hermes_common::{ClientId, TxnOp};
    use hermes_wings::CreditConfig;
    use std::collections::BTreeSet;

    /// A lone joiner: it has nobody to admit it, so it never serves.
    fn lone_joiner() -> NodeRuntime {
        one_node(true)
    }

    /// A one-node daemon with live membership and two lanes.
    fn one_node(join: bool) -> NodeRuntime {
        let loopback: SocketAddr = "127.0.0.1:0".parse().unwrap();
        NodeRuntime::serve(NodeOptions {
            node: NodeId(0),
            peers: vec![loopback],
            client_addr: loopback,
            workers: 2,
            pollers: 0,
            protocol: ProtocolConfig::default(),
            tcp: TcpConfig::default(),
            run_for: None,
            membership: Some(RmConfig::wall_clock()),
            join,
            metrics_dump: None,
        })
        .unwrap()
    }

    /// Both deployment shapes report through the node's one registry: a
    /// `ThreadCluster` replica's exposition is valid and carries every
    /// family a one-node daemon exports, with the same type, except the
    /// TCP transport's.
    #[test]
    fn a_thread_cluster_node_exports_every_daemon_family_but_the_transports() {
        let families = |text: &str| -> BTreeSet<String> {
            let types = text.lines().filter_map(|l| l.strip_prefix("# TYPE "));
            types.map(str::to_owned).collect()
        };
        let runtime = one_node(false);
        let daemon = families(&runtime.metrics_text());
        runtime.shutdown();
        let (tcp, expected): (BTreeSet<_>, BTreeSet<_>) = daemon
            .into_iter()
            .partition(|f| f.starts_with("hermes_tcp_"));
        assert_eq!(tcp.len(), 11, "{tcp:?}");

        let cluster = ThreadCluster::start(1, ProtocolConfig::default());
        let text = cluster.metrics_text(0);
        hermes_obs::validate_exposition(&text).unwrap();
        assert_eq!(families(&text), expected, "{text}");
        cluster.shutdown();
    }

    /// A replica that is not serving answers every sub-operation
    /// `NotOperational`, so the one transaction driver stops in doubt —
    /// wherever its session lives — and a resume from a fresh session
    /// finds the same.
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

    /// The lanes host the client plane, so there are no poller threads
    /// to size: the flag that sized them is gone.
    #[test]
    fn pollers_is_an_unknown_flag() {
        let args = [
            "--node",
            "0",
            "--peers",
            "127.0.0.1:1",
            "--client",
            "127.0.0.1:0",
            "--pollers",
            "2",
        ];
        let err = NodeOptions::parse(&s(&args)).unwrap_err();
        assert!(err.contains("unknown flag --pollers"), "{err}");
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
