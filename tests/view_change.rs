//! The live membership subsystem on the threaded runtime (in-proc
//! transport): a replica crash-stopped mid-workload is detected by the
//! survivors' failure detectors, removed through a lease-gated Paxos view
//! change, and the merged concurrent history spanning the whole episode
//! stays linearizable — the threaded twin of the simulator's crash
//! scenario (`run_sim` with `crash_at`, paper Figure 9).

#[path = "support/cluster.rs"]
mod cluster;

use cluster::{membership_cluster, wait_until};
use hermes::harness::{check_linearizable_per_key, run_recorded_session, RecordedOp};
use hermes::prelude::*;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn crash_mid_run_triggers_view_change_and_history_stays_linearizable() {
    const SESSIONS: usize = 4;
    const KEYS: u64 = 8;
    const OPS_PER_SESSION: u64 = 48;
    const DEPTH: usize = 4;

    let (cluster, senders) = membership_cluster(3);
    let cluster = Arc::new(cluster);
    assert_eq!(cluster.membership(0).epoch(), 0);
    assert!(cluster.membership(2).serving());

    // Seed a key so the post-crash convergence check has committed state.
    assert_eq!(
        cluster.write(0, Key(100), Value::from_u64(4242)),
        Reply::WriteOk
    );

    // Concurrent recorded sessions against the two survivors-to-be.
    let clock = Arc::new(AtomicU64::new(0));
    let mut joins = Vec::new();
    for sid in 0..SESSIONS {
        let cluster = Arc::clone(&cluster);
        let clock = Arc::clone(&clock);
        joins.push(std::thread::spawn(move || {
            let mut session = cluster.session(sid % 2);
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

    // Mid-run: crash-stop node 2. Writes now stall on its ACKs until the
    // survivors' reliable membership removes it (suspicion after the
    // failure timeout, reconfiguration after its lease provably expired),
    // at which point the install's replay path re-pumps them.
    std::thread::sleep(Duration::from_millis(30));
    senders[0].crash(NodeId(2));

    let mut all: Vec<RecordedOp> = Vec::new();
    for j in joins {
        all.extend(j.join().expect("session thread"));
    }
    assert_eq!(all.len(), SESSIONS * OPS_PER_SESSION as usize);

    // The survivors agreed on a view without node 2.
    for node in 0..2 {
        assert!(
            wait_until(Duration::from_secs(5), || cluster.membership(node).epoch()
                >= 1),
            "node {node} never installed a reconfigured view"
        );
        let status = cluster.membership(node);
        assert!(!status.members().contains(NodeId(2)), "node {node}");
        assert_eq!(status.members().len(), 2, "node {node}");
        assert!(status.view_changes() >= 1, "node {node}");
        assert!(status.serving(), "survivor {node} must keep serving");
    }

    // The crashed node hears nobody: its lease expires and it stops
    // serving (CAP choice of consistency, paper §3.4) — clients asking it
    // get NotOperational instead of stale data.
    assert!(
        wait_until(Duration::from_secs(5), || !cluster.membership(2).serving()),
        "crashed node kept its lease"
    );
    assert_eq!(cluster.read(2, Key(100)), Reply::NotOperational);

    // Every read/write completed despite spanning the crash (writes never
    // abort in Hermes; RMWs may abort under conflict, which is retryable).
    for o in &all {
        if !matches!(o.kind, hermes::model::OpKind::FetchAdd { .. }) {
            assert_eq!(
                o.outcome,
                hermes::model::Outcome::Completed,
                "op failed across the crash: {o:?}"
            );
        }
    }

    // The merged concurrent history, spanning detection and the view
    // change, is linearizable per key.
    check_linearizable_per_key(&all, KEYS).expect("history linearizable across the crash");

    // And the shrunk group keeps serving new work.
    assert_eq!(
        cluster.write(1, Key(100), Value::from_u64(4243)),
        Reply::WriteOk
    );
    assert_eq!(
        cluster.read(0, Key(100)),
        Reply::ReadOk(Value::from_u64(4243))
    );

    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("cluster still shared"),
    }
}

#[test]
fn steady_cluster_with_membership_never_reconfigures() {
    let (cluster, _senders) = membership_cluster(3);
    for i in 0..16u64 {
        assert_eq!(
            cluster.write((i % 3) as usize, Key(i), Value::from_u64(i * 3)),
            Reply::WriteOk
        );
    }
    // Let several failure-timeout windows elapse under load silence.
    std::thread::sleep(Duration::from_millis(600));
    for node in 0..3 {
        let status = cluster.membership(node);
        assert_eq!(status.epoch(), 0, "node {node} reconfigured spuriously");
        assert_eq!(status.view_changes(), 0, "node {node}");
        assert!(status.serving(), "node {node} lost its lease while healthy");
    }
    for i in 0..16u64 {
        assert_eq!(
            cluster.read(((i + 1) % 3) as usize, Key(i)),
            Reply::ReadOk(Value::from_u64(i * 3))
        );
    }
    cluster.shutdown();
}
