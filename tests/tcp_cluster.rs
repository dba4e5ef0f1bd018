//! The threaded cluster over the real TCP transport (in one process):
//! convergence, transport fault paths, and linearizability under a
//! mid-run connection kill.

#[path = "support/cluster.rs"]
mod cluster;

use cluster::{remote_session, serve, serve_single_node, tcp_cluster, CONNECT};
use hermes::harness::{
    addr_list, check_linearizable_per_key, reserve_loopback_addrs, run_recorded_session, RecordedOp,
};
use hermes::prelude::*;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn replicas_converge_over_tcp() {
    let (cluster, _senders) = tcp_cluster(3, 2);
    for i in 0..24u64 {
        assert_eq!(
            cluster.write((i % 3) as usize, Key(i), Value::from_u64(i * 7)),
            Reply::WriteOk,
            "write {i}"
        );
    }
    for i in 0..24u64 {
        assert_eq!(
            cluster.read(((i + 1) % 3) as usize, Key(i)),
            Reply::ReadOk(Value::from_u64(i * 7)),
            "read {i}"
        );
    }
    cluster.shutdown();
}

#[test]
fn rmw_cas_works_across_tcp_replicas() {
    let (cluster, _senders) = tcp_cluster(3, 2);
    assert_eq!(cluster.write(0, Key(1), Value::from_u64(0)), Reply::WriteOk);
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

/// The transport fault path, end to end: kill a live replica-to-replica
/// TCP connection mid-run; the victim's reader thread must surface the
/// disconnect (observable via [`ThreadCluster::peer_disconnects`]), the
/// writer must re-dial, the cluster must keep serving (message-loss
/// timeouts retransmit whatever the dead socket swallowed), and the full
/// concurrent-session history — spanning the kill — must stay
/// linearizable.
#[test]
fn connection_kill_mid_run_surfaces_reconnects_and_stays_linearizable() {
    const SESSIONS: usize = 6;
    const KEYS: u64 = 8;
    const OPS_PER_SESSION: u64 = 48;
    const DEPTH: usize = 4;

    let (cluster, senders) = tcp_cluster(3, 2);
    let cluster = Arc::new(cluster);

    // Warm the links so there is a live node0→node1 connection to kill,
    // on a key the sessions never touch: the history does not record this
    // write, so a session reading its value would look unlinearizable.
    assert_eq!(cluster.write(0, Key(KEYS), Value::EMPTY), Reply::WriteOk);
    let dials_before = senders[0].stats().dials();
    assert!(dials_before >= 1, "warm-up dialed peers");

    let clock = Arc::new(AtomicU64::new(0));
    let mut joins = Vec::new();
    for sid in 0..SESSIONS {
        let cluster = Arc::clone(&cluster);
        let clock = Arc::clone(&clock);
        joins.push(std::thread::spawn(move || {
            let mut session = cluster.session(sid % 3);
            run_recorded_session(
                &mut session,
                &clock,
                sid as u64,
                KEYS,
                OPS_PER_SESSION,
                DEPTH,
            )
        }));
    }

    // Mid-run: tear down node 0's connections to both peers.
    std::thread::sleep(Duration::from_millis(10));
    senders[0].kill_connection(NodeId(1));
    senders[0].kill_connection(NodeId(2));

    let mut all: Vec<RecordedOp> = Vec::new();
    for j in joins {
        all.extend(j.join().expect("session thread"));
    }
    assert_eq!(all.len(), SESSIONS * OPS_PER_SESSION as usize);

    // The kill surfaced: the victims' reader threads reported peer-down.
    // The workload may drain before the teardown propagates (the readers
    // notice EOF on their own poll cadence), so give the counters a
    // bounded window instead of racing them.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let surfaced = loop {
        let surfaced: u64 = (0..3).map(|n| cluster.peer_disconnects(n)).sum();
        if surfaced >= 1 || std::time::Instant::now() >= deadline {
            break surfaced;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(surfaced >= 1, "no reader surfaced the killed connections");
    // ...and node 0's writers counted the teardown.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while senders[0].stats().disconnects() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(senders[0].stats().disconnects() >= 1, "writer disconnects");
    // A reconnect dial follows once traffic next flows to the peer; the
    // protocol's own retransmissions provide that traffic while the
    // cluster is alive.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while senders[0].stats().dials() <= dials_before && std::time::Instant::now() < deadline {
        // Nudge node 0 into sending to its peers so the lazy writer
        // re-dials even if the workload already drained.
        let _ = cluster.write(0, Key(0), Value::from_u64(999));
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        senders[0].stats().dials() > dials_before,
        "no reconnect happened"
    );

    // Reads and writes never abort in Hermes — the kill must not have
    // failed any (RMWs may abort under conflict, which is retryable).
    for o in &all {
        if !matches!(o.kind, hermes::model::OpKind::FetchAdd { .. }) {
            assert_eq!(
                o.outcome,
                hermes::model::Outcome::Completed,
                "op failed across the connection kill: {o:?}"
            );
        }
    }

    // The surviving history, spanning the kill, is linearizable per key.
    check_linearizable_per_key(&all, KEYS).expect("history linearizable across connection kill");

    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("cluster still shared"),
    }
}

/// Peers may run different lane counts (catch-up already allows it:
/// `SyncMark` announces `lanes`). A 2-lane and a 3-lane replica: lane *i*
/// dials the peer's lane *i*, which the acceptor maps to its lane `i % W`
/// (the 3-lane node's lane 2 lands on the 2-lane node's lane 0), and a
/// message read by a lane that does not own its key is forwarded to the
/// owner — the 3-lane node's lane 2 is reached by nothing else. Concurrent
/// sessions at both replicas stay linearizable.
#[test]
fn replicas_with_different_lane_counts_replicate_linearizably() {
    const SESSIONS: usize = 4;
    const KEYS: u64 = 8;
    const OPS_PER_SESSION: u64 = 48;
    const DEPTH: usize = 4;

    let peers = addr_list(&reserve_loopback_addrs(2));
    let replica = |node: u32, workers: usize| {
        let shape = format!("--workers {workers} --pollers 1 --no-membership");
        serve(&format!(
            "--node {node} --peers {peers} --client 127.0.0.1:0 {shape}"
        ))
    };
    let nodes = [replica(0, 2), replica(1, 3)];
    let addrs: Vec<_> = nodes.iter().map(|n| n.client_addr()).collect();
    let clock = Arc::new(AtomicU64::new(0));
    let joins: Vec<_> = (0..SESSIONS)
        .map(|sid| {
            let (addr, clock) = (addrs[sid % 2], Arc::clone(&clock));
            std::thread::spawn(move || {
                let mut session = remote_session(addr, CONNECT);
                let (sid, depth) = (sid as u64, DEPTH);
                run_recorded_session(&mut session, &clock, sid, KEYS, OPS_PER_SESSION, depth)
            })
        })
        .collect();
    let mut all: Vec<RecordedOp> = Vec::new();
    for j in joins {
        all.extend(j.join().expect("session thread"));
    }
    assert_eq!(all.len(), SESSIONS * OPS_PER_SESSION as usize);
    for o in &all {
        if !matches!(o.kind, hermes::model::OpKind::FetchAdd { .. }) {
            assert_eq!(o.outcome, hermes::model::Outcome::Completed, "{o:?}");
        }
    }
    check_linearizable_per_key(&all, KEYS).expect("history linearizable across lane counts");
    for node in &nodes {
        let ingress = node.lane_ingress();
        assert!(
            ingress.iter().all(|&n| n > 0),
            "a lane heard nothing: {ingress:?}"
        );
    }
    nodes.into_iter().for_each(NodeRuntime::shutdown);
}

/// The shutdown RPC: a client-port frame asks the daemon to exit; the
/// runtime surfaces it to the supervising loop, which tears down cleanly.
#[test]
fn shutdown_rpc_reaches_the_daemon() {
    let runtime = serve_single_node(2);
    assert!(!runtime.shutdown_requested());
    // The daemon still serves data operations...
    let mut session = remote_session(runtime.client_addr(), CONNECT);
    let t = session.write(Key(1), Value::from_u64(7));
    assert_eq!(session.wait(t), Reply::WriteOk);
    // ...and the shutdown RPC is acknowledged and surfaced.
    request_shutdown(runtime.client_addr(), Duration::from_secs(5)).expect("shutdown ack");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !runtime.shutdown_requested() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(runtime.shutdown_requested(), "flag never surfaced");
    runtime.shutdown();
}

/// `CreditFlow` bounds session pipelining end to end: a session driven far
/// past its credit budget stalls in `submit` instead of growing replica
/// queues without bound, and still completes everything.
#[test]
fn session_pipelining_is_credit_bounded_over_tcp() {
    let (cluster, _senders) = tcp_cluster(3, 2);
    let mut session = cluster.session_with_credits(
        0,
        hermes::wings::CreditConfig {
            credits_per_peer: 2,
        },
    );
    let tickets: Vec<_> = (0..32u64)
        .map(|i| session.write(Key(i % 8), Value::from_u64(i)))
        .collect();
    assert!(
        session.credit_stalls() > 0,
        "32 writes through 2 credits must stall"
    );
    for (i, t) in tickets.into_iter().enumerate() {
        assert_eq!(session.wait(t), Reply::WriteOk, "write {i}");
    }
    assert_eq!(session.outstanding(), 0);
    assert_eq!(session.credits_available(), 2, "all credits returned");
    cluster.shutdown();
}
