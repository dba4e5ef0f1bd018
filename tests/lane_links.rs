//! Resource bound of the per-lane links (DESIGN.md §4): a threaded
//! cluster runs its lanes and nothing else, over either transport. Each
//! lane reads and writes its own links — connections over TCP, once the
//! dials are done; an inbox in process — so no transport thread is left.
//! A replica daemon's runtime adds its poller shards and nothing else
//! (DESIGN.md §7). Alone in its test binary, and its tests one at a time,
//! so no other test's threads are in the count.
#![cfg(target_os = "linux")]

#[path = "support/cluster.rs"]
mod cluster;
#[path = "support/procfs.rs"]
mod procfs;

use cluster::{serial, serve, tcp_cluster};
use hermes::net::TcpStats;
use hermes::prelude::*;
use procfs::{settled_threads, thread_names};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn a_tcp_cluster_runs_its_lanes_and_no_transport_thread() {
    const NODES: usize = 3;
    const WORKERS: usize = 2;
    let _serial = serial();
    let before = settled_threads();
    let (cluster, senders) = tcp_cluster(NODES, WORKERS);
    let stats: Vec<Arc<TcpStats>> = senders.iter().map(|s| s.stats()).collect();
    // Every node coordinates writes to keys of both its lanes, so every
    // lane dials each peer's lane of the same number: INVs one way, ACKs
    // the other.
    for node in 0..NODES {
        for key in 0..8 {
            let reply = cluster.write(node, Key(key), Value::from_u64(key));
            assert_eq!(reply, Reply::WriteOk);
        }
    }
    // A dial is counted once its lane has joined the transient thread.
    let links = (WORKERS * (NODES - 1)) as u64;
    let deadline = Instant::now() + Duration::from_secs(10);
    while stats
        .iter()
        .any(|s| s.dials() < links || s.accepts() < links)
    {
        assert!(
            Instant::now() < deadline,
            "links did not connect: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let added = settled_threads() - before;
    let names = thread_names();
    let lanes = names
        .iter()
        .filter(|n| n.starts_with("hermes-lane-"))
        .count();
    assert_eq!(lanes, NODES * WORKERS, "{names:?}");
    assert_eq!(added, NODES * WORKERS, "lane threads only: {names:?}");
    cluster.shutdown();
    assert_eq!(settled_threads(), before, "shutdown joins every lane");
}

#[test]
fn an_in_process_cluster_runs_its_lanes_and_no_transport_thread() {
    const NODES: usize = 3;
    const WORKERS: usize = 2;
    let _serial = serial();
    let before = settled_threads();
    let cluster = ThreadCluster::launch(ClusterConfig {
        nodes: NODES,
        workers_per_node: WORKERS,
        ..ClusterConfig::default()
    });
    // Writes to keys of both lanes of every node: every lane sends INVs
    // into its peers' same-numbered lanes and reads their ACKs itself.
    for node in 0..NODES {
        for key in 0..8 {
            let reply = cluster.write(node, Key(key), Value::from_u64(key));
            assert_eq!(reply, Reply::WriteOk);
        }
    }
    let added = settled_threads() - before;
    let names = thread_names();
    let lanes = names
        .iter()
        .filter(|n| n.starts_with("hermes-lane-"))
        .count();
    assert_eq!(lanes, NODES * WORKERS, "{names:?}");
    assert_eq!(added, NODES * WORKERS, "lane threads only: {names:?}");
    for node in 0..NODES {
        let ingress = cluster.lane_ingress(node);
        assert!(
            ingress.iter().all(|&n| n > 0),
            "every lane read: {ingress:?}"
        );
    }
    cluster.shutdown();
    assert_eq!(settled_threads(), before, "shutdown joins every lane");
}

#[test]
fn a_node_runtime_runs_its_lanes_and_pollers_and_nothing_else() {
    const WORKERS: usize = 2;
    const POLLERS: usize = 1;
    let _serial = serial();
    let before = settled_threads();
    let loopback = "--peers 127.0.0.1:0 --client 127.0.0.1:0";
    let shape = format!("--workers {WORKERS} --pollers {POLLERS} --no-membership");
    let runtime = serve(&format!("--node 0 {loopback} {shape}"));
    let added = settled_threads() - before;
    let names = thread_names();
    let ours: Vec<&String> = names.iter().filter(|n| n.starts_with("hermes-")).collect();
    let plane = |n: &&String| n.starts_with("hermes-lane-") || n.starts_with("hermes-poller-");
    assert!(ours.iter().all(plane), "lanes and pollers only: {names:?}");
    assert_eq!(ours.len(), WORKERS + POLLERS, "{names:?}");
    assert_eq!(added, WORKERS + POLLERS, "{names:?}");
    runtime.shutdown();
    assert_eq!(settled_threads(), before, "shutdown joins every thread");
}
