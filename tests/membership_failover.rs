//! Multi-process failover: the acceptance gate of the live membership
//! subsystem (DESIGN.md §5).
//!
//! The harness spawns three `hermesd` processes — the crate's replica
//! binary, as shipped — through [`spawn_daemons`], then:
//!
//! 1. drives concurrent recorded client sessions against nodes 0 and 1
//!    over real TCP;
//! 2. `kill -9`s node 2 mid-workload — its kernel closes the sockets, the
//!    survivors' readers surface `PeerDown`, suspicion + lease expiry
//!    drive a Paxos view change, and stalled writes replay to completion;
//! 3. checks the merged concurrent history with the Wing & Gong
//!    linearizability checker;
//! 4. restarts node 2 with the join flag: it re-enters as a shadow,
//!    bulk-syncs the dataset from a member, is promoted back to full
//!    member, and serves a read of a key written before the kill;
//! 5. shuts everything down cleanly and checks the daemons' exit markers.
//!
//! Membership state is observed in each daemon's metrics exposition over
//! the client port ([`query_metrics`]): `hermes_view_epoch`,
//! `hermes_serving`, `hermes_synced` and one `hermes_view_member` row per
//! peer — the harness parses no daemon log for it.

#[path = "support/cluster.rs"]
mod cluster;

use cluster::{poll_until_served, remote_session, sum, CONNECT};
use hermes::harness::{
    check_linearizable_per_key, run_recorded_session, spawn_daemons, RecordedOp,
};
use hermes::obs::samples;
use hermes::prelude::*;
use std::net::SocketAddr;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 3;
const SESSIONS: usize = 4;
const KEYS: u64 = 8;
const OPS_PER_SESSION: u64 = 60;
const DEPTH: usize = 4;
/// The canary key written before the kill; the rejoined node must serve it
/// after shadow catch-up, proving the bulk sync really transferred state.
const CANARY_KEY: Key = Key(100);
const CANARY_VALUE: u64 = 777_000;

/// Polls the Metrics RPC at `addr` until `accept` approves the
/// exposition — membership observation without parsing daemon logs.
fn poll_metrics(
    addr: SocketAddr,
    deadline: Duration,
    what: &str,
    accept: impl Fn(&str) -> bool,
) -> String {
    let end = Instant::now() + deadline;
    let mut last = String::new();
    loop {
        if let Ok(text) = query_metrics(addr, Duration::from_millis(500)) {
            if accept(&text) {
                return text;
            }
            last = text;
        }
        assert!(
            Instant::now() < end,
            "metrics RPC never showed {what}; last:\n{last}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// `peer`'s `hermes_view_member` row: 1 if it is a member of the
/// daemon's installed view, 0 if not.
fn member(text: &str, peer: u32) -> Option<f64> {
    let label = format!("peer=\"{peer}\"");
    let rows = samples(text, "hermes_view_member");
    rows.iter()
        .find(|(labels, _)| labels.split(',').any(|l| l == label))
        .map(|&(_, v)| v)
}

#[test]
fn three_process_cluster_survives_kill_and_rejoins() {
    let hermesd = env!("CARGO_BIN_EXE_hermesd");
    let mut daemons = spawn_daemons(hermesd, NODES, &["--workers", "2"], |_| Vec::new());
    let client_addrs = daemons.clients.clone();

    // Wait for the cluster to serve, then commit the canary through node 0.
    let (addr, within) = (client_addrs[0], Duration::from_secs(20));
    let reply = poll_until_served(addr, CANARY_KEY, ClientOp::Read, within, |r| r.is_ok());
    assert!(reply.is_ok(), "cluster never came up: {reply:?}");
    {
        let mut session = remote_session(client_addrs[0], CONNECT);
        let t = session.write(CANARY_KEY, Value::from_u64(CANARY_VALUE));
        assert_eq!(session.wait(t), Reply::WriteOk, "canary write");
    }

    // Concurrent recorded sessions against the survivors-to-be.
    let clock = Arc::new(AtomicU64::new(0));
    let mut joins = Vec::new();
    for sid in 0..SESSIONS {
        let addr = client_addrs[sid % 2];
        let clock = Arc::clone(&clock);
        joins.push(std::thread::spawn(move || {
            let mut session = remote_session(addr, Duration::from_secs(10));
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

    // Mid-workload: kill -9 replica 2. In-flight writes stall on its ACKs
    // until the survivors agree on a view without it (suspicion fed by the
    // TCP readers' PeerDown, reconfiguration gated on lease expiry).
    std::thread::sleep(Duration::from_millis(100));
    daemons.kill(2);

    let mut all: Vec<RecordedOp> = Vec::new();
    for j in joins {
        all.extend(j.join().expect("session thread"));
    }
    assert_eq!(all.len(), SESSIONS * OPS_PER_SESSION as usize);
    // Reads and writes never abort in Hermes: the kill must not have
    // failed any (RMWs may abort under conflict, which is retryable).
    for o in &all {
        if !matches!(o.kind, hermes::model::OpKind::FetchAdd { .. }) {
            assert_eq!(
                o.outcome,
                hermes::model::Outcome::Completed,
                "op failed across the process kill: {o:?}"
            );
        }
    }
    check_linearizable_per_key(&all, KEYS).expect("history linearizable across kill -9");

    // A fresh write through a survivor proves the shrunk view serves
    // without node 2's ACKs — i.e. the view change really happened.
    {
        let mut session = remote_session(client_addrs[1], CONNECT);
        let t = session.write(Key(101), Value::from_u64(1));
        assert_eq!(session.wait(t), Reply::WriteOk, "post-kill write");
    }

    // The survivors' installed views moved past the initial epoch — the
    // kill really drove a reconfiguration. Observed over the Metrics RPC,
    // not by grepping daemon stdout.
    for (i, addr) in client_addrs.iter().enumerate().take(2) {
        let text = poll_metrics(*addr, Duration::from_secs(10), "a view change", |t| {
            sum(t, "hermes_view_epoch") >= 1.0 && sum(t, "hermes_serving") == 1.0
        });
        assert_eq!(
            member(&text, 2),
            Some(0.0),
            "survivor {i} still lists the killed node:\n{text}"
        );
        assert!(
            sum(&text, "hermes_lane_ops_total") > 0.0,
            "survivor {i} reports no client ops despite the workload:\n{text}"
        );
    }

    // Restart node 2 as a joiner: shadow admission → bulk catch-up →
    // promotion. Once promoted it serves reads locally, and the canary —
    // written before it was killed, so only obtainable via the sync —
    // must come back intact.
    daemons.rejoin(2);
    let synced = Reply::ReadOk(Value::from_u64(CANARY_VALUE));
    let (addr, within) = (client_addrs[2], Duration::from_secs(30));
    let reply = poll_until_served(addr, CANARY_KEY, ClientOp::Read, within, |r| *r == synced);
    assert_eq!(
        reply,
        Reply::ReadOk(Value::from_u64(CANARY_VALUE)),
        "rejoined node must serve the synced canary"
    );

    // The rejoined node's own gauges confirm the shadow path: bulk
    // catch-up completed and it serves as a full member again.
    let text = poll_metrics(
        client_addrs[2],
        Duration::from_secs(10),
        "the rejoined node serving after catch-up",
        |t| sum(t, "hermes_synced") == 1.0 && sum(t, "hermes_serving") == 1.0,
    );
    assert_eq!(
        member(&text, 2),
        Some(1.0),
        "rejoined node not a member of its own view:\n{text}"
    );

    // Orderly teardown: clean exits, no orphaned processes.
    daemons.shutdown();
}
