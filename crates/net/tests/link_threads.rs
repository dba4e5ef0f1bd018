//! Resource bound: an endpoint `start`ed with a sink runs one thread per
//! node — the `hermes-link` thread hosting its link set — however many
//! peers the node has, over TCP and in process alike (lanes of a running
//! replica read their own links and run none: `tests/lane_links.rs`).
//! Alone in its test binary so no other test's threads are in the count.
#![cfg(target_os = "linux")]

use bytes::Bytes;
use hermes_common::NodeId;
use hermes_net::{Endpoint, InProcNet, IngressGuard, NetSender, TcpNet, TcpStats, Transport};
use std::sync::{mpsc, Arc};
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

/// How many of this process's threads are named `name`.
fn threads_named(name: &str) -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    let comm = |t: std::fs::DirEntry| std::fs::read_to_string(t.path().join("comm")).ok();
    let names = tasks.filter_map(|t| t.ok().and_then(comm));
    names.filter(|n| n.trim() == name).count()
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

/// Starts `n` in-process endpoints, has every node send to every other,
/// and returns how many threads that added. An idle link thread blocks in
/// its wait until `stop` rings it: no stop waits out a poll period.
fn threads_added_in_process(n: usize) -> usize {
    let before = settled_threads();
    let endpoints = InProcNet::new(n).into_endpoints();
    let senders: Vec<_> = endpoints.iter().map(|e| e.sender()).collect();
    let (heard, frames) = mpsc::channel();
    let guards: Vec<IngressGuard> = (endpoints.into_iter())
        .map(|e| {
            let heard = heard.clone();
            e.start(Arc::new(move |ev| heard.send(ev).is_ok()))
        })
        .collect();
    for (i, tx) in senders.iter().enumerate() {
        for j in (0..n).filter(|&j| j != i) {
            tx.send(NodeId(j as u32), Bytes::from_static(b"hi"));
        }
    }
    for _ in 0..n * (n - 1) {
        let frame = frames.recv_timeout(Duration::from_secs(10));
        assert!(frame.is_ok(), "in-process mesh did not deliver");
    }
    let added = settled_threads() - before;
    assert_eq!(threads_named("hermes-link"), n, "one link thread per node");
    for guard in guards {
        let stopping = Instant::now();
        guard.stop();
        let took = stopping.elapsed();
        assert!(took < Duration::from_millis(25), "idle stop took {took:?}");
    }
    assert_eq!(settled_threads(), before, "stop joins every link thread");
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
    assert_eq!(threads_added_in_process(3), 3, "in process too");
    assert_eq!(threads_added_in_process(7), 7, "in process, 6 peers each");
}
