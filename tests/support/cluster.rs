//! One way to stand up replicas and sessions in a test: a [`NodeRuntime`]
//! from `hermesd`'s own flags, a [`ThreadCluster`] over in-process or TCP
//! links with the transport handles kept for fault injection, remote
//! sessions, the waits around them, and a metrics exposition read as sums.
//!
//! Include with `#[path = "support/cluster.rs"] mod cluster;`.

// Each test binary uses the subset its tests need.
#![allow(dead_code)]

use hermes::harness::{addr_list, reserve_loopback_addrs};
use hermes::net::{Endpoint, InProcNet, InProcSender, TcpNet, TcpSender, Transport};
use hermes::obs::samples;
use hermes::prelude::*;
use std::net::SocketAddr;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Held for a whole test whose assertions read process-wide state (thread
/// and fd counts, CPU time, gauge baselines, the log sink, environment
/// variables), so that no two such tests overlap even when the test
/// harness runs on many threads.
pub fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A replica in this process, configured as `hermesd` is: `flags` is its
/// command line. Pass `--no-membership` for a pinned view.
pub fn serve(flags: &str) -> NodeRuntime {
    let args: Vec<String> = flags.split_whitespace().map(str::to_owned).collect();
    let opts = NodeOptions::parse(&args).expect("hermesd flags");
    NodeRuntime::serve(opts).expect("replica binds its loopback ports")
}

/// A one-replica daemon with live membership and two lanes.
pub fn serve_single_node() -> NodeRuntime {
    serve("--node 0 --peers 127.0.0.1:0 --client 127.0.0.1:0 --workers 2")
}

/// Three replicas in this process under a pinned view, two lanes each, so
/// that a key is `Invalid` at two of them for the length of every write.
pub fn serve_three_nodes() -> Vec<NodeRuntime> {
    let peers = addr_list(&reserve_loopback_addrs(3));
    let shape = "--client 127.0.0.1:0 --workers 2 --no-membership";
    (0..3)
        .map(|i| serve(&format!("--node {i} --peers {peers} {shape}")))
        .collect()
}

/// How long a test waits for a client port to accept, unless it says.
pub const CONNECT: Duration = Duration::from_secs(5);

/// A pipelined session with the default credits over the client port at
/// `addr`, connected within `within` (mostly [`CONNECT`]).
pub fn remote_session(addr: SocketAddr, within: Duration) -> ClientSession<RemoteChannel> {
    RemoteChannel::connect_within(addr, within)
        .expect("client port")
        .into_session()
}

/// An in-process cluster with live membership, and the senders whose
/// `crash` hook silences a node network-wide (the threaded stand-in for
/// `kill -9`: the node's threads keep running but it neither sends nor
/// receives, exactly like a partitioned-away process).
pub fn membership_cluster(nodes: usize) -> (ThreadCluster, Vec<InProcSender>) {
    let endpoints = InProcNet::new(nodes).into_endpoints();
    let senders = endpoints.iter().map(|e| e.sender()).collect();
    let membership = Some(RmConfig::wall_clock());
    let cfg = ClusterConfig {
        nodes,
        membership,
        ..ClusterConfig::default()
    };
    (ThreadCluster::launch_endpoints(endpoints, cfg), senders)
}

/// A cluster in this process over loopback TCP, and each node's sender for
/// its counters and its `kill_connection` fault hook.
pub fn tcp_cluster(nodes: usize, workers: usize) -> (ThreadCluster, Vec<TcpSender>) {
    let endpoints = TcpNet::loopback(nodes)
        .expect("bind loopback listeners")
        .into_endpoints();
    let senders = endpoints.iter().map(|e| e.sender()).collect();
    let cfg = ClusterConfig {
        nodes,
        workers_per_node: workers,
        ..ClusterConfig::default()
    };
    (ThreadCluster::launch_endpoints(endpoints, cfg), senders)
}

/// Polls `ok` every 10 ms until it holds or `deadline` has passed; its
/// last answer.
pub fn wait_until(deadline: Duration, mut ok: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if ok() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    ok()
}

/// Submits `cop` on `key` through a fresh session to `addr` every 50 ms
/// until a reply passes `accept` or `deadline` has passed, and returns the
/// last reply. A session that does not connect within 500 ms is a failed
/// try (`NotOperational` if none ever connected): the daemon may still be
/// starting, or not yet serving.
pub fn poll_until_served(
    addr: SocketAddr,
    key: Key,
    cop: ClientOp,
    deadline: Duration,
    accept: impl Fn(&Reply) -> bool,
) -> Reply {
    let end = Instant::now() + deadline;
    let mut last = Reply::NotOperational;
    while Instant::now() < end {
        if let Ok(channel) = RemoteChannel::connect_within(addr, Duration::from_millis(500)) {
            let mut session = channel.into_session();
            let ticket = session.submit(key, cop.clone());
            last = session.wait(ticket);
            if accept(&last) {
                return last;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    last
}

/// Every sample of `family` in the exposition `text`, summed across its
/// label sets: a gauge or counter, or its total over lanes, shards or
/// peers; 0 if the family is absent.
pub fn sum(text: &str, family: &str) -> f64 {
    samples(text, family).iter().map(|&(_, v)| v).sum()
}
