//! Resource bound: a TCP endpoint `start`ed with a sink runs one thread per
//! node — the `hermes-link` thread hosting its link set — however many
//! peers the node has (lanes of a running replica read their own links and
//! run none: `tests/lane_links.rs`). Alone in its test binary so no other
//! test's threads are in the count.
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

/// The thread count once it has stopped changing: two equal reads 10 ms
/// apart. `join` returns a moment before the joined thread leaves the
/// kernel's count, so a single read right after it can be one too high.
/// Waits for quiet, not for a value — the caller asserts the value.
fn settled_threads() -> usize {
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut last = process_threads();
    loop {
        std::thread::sleep(Duration::from_millis(10));
        let now = process_threads();
        if now == last || Instant::now() >= deadline {
            return now;
        }
        last = now;
    }
}

/// Starts an `n`-node loopback mesh, connects every ordered pair, and
/// returns how many threads that added once the dials have finished.
fn threads_added_by_mesh(n: usize) -> usize {
    let before = settled_threads();
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
    let added = settled_threads() - before;
    drop(guards);
    assert_eq!(
        settled_threads(),
        before,
        "stop joins every transport thread"
    );
    added
}

#[test]
fn transport_threads_are_independent_of_peer_count() {
    assert_eq!(threads_added_by_mesh(3), 3, "one link thread per node");
    assert_eq!(
        threads_added_by_mesh(7),
        7,
        "still one per node with 6 peers each"
    );
}
