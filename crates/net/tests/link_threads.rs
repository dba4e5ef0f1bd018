//! Resource bound: the TCP transport runs one thread per node — the link
//! poller — however many peers the node has. Alone in its test binary so
//! no other test's threads are in the count.
#![cfg(target_os = "linux")]

use bytes::Bytes;
use hermes_common::NodeId;
use hermes_net::{Endpoint, IngressGuard, NetSender, TcpNet, TcpStats, Transport};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("Threads:"));
    line.and_then(|l| l["Threads:".len()..].trim().parse().ok())
        .expect("Threads: line")
}

/// Starts an `n`-node loopback mesh, connects every ordered pair, and
/// returns how many threads that added once the dials have finished.
fn threads_added_by_mesh(n: usize) -> usize {
    let before = process_threads();
    let endpoints = TcpNet::loopback(n).unwrap().into_endpoints();
    let stats: Vec<Arc<TcpStats>> = endpoints.iter().map(|e| e.stats()).collect();
    let senders: Vec<_> = endpoints.iter().map(|e| e.sender()).collect();
    let guards: Vec<IngressGuard> = endpoints
        .into_iter()
        .map(|e| e.start(Arc::new(|_| true)))
        .collect();
    for (i, tx) in senders.iter().enumerate() {
        for j in (0..n).filter(|&j| j != i) {
            tx.send(NodeId(j as u32), Bytes::from_static(b"hi"));
        }
    }
    // A dial is counted only after its transient thread has been joined,
    // so full counts mean the dial threads are gone.
    let peers = n as u64 - 1;
    let deadline = Instant::now() + Duration::from_secs(10);
    while stats
        .iter()
        .any(|s| s.dials() < peers || s.frames_received() < peers)
    {
        assert!(Instant::now() < deadline, "mesh did not connect: {stats:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
    let added = process_threads() - before;
    drop(guards);
    assert_eq!(
        process_threads(),
        before,
        "stop joins every transport thread"
    );
    added
}

#[test]
fn transport_threads_are_independent_of_peer_count() {
    assert_eq!(threads_added_by_mesh(3), 3, "one link poller per node");
    assert_eq!(
        threads_added_by_mesh(7),
        7,
        "still one per node with 6 peers each"
    );
}
