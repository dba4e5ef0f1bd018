//! Acceptance gate of the multi-key transaction subsystem (`hermes-txn`,
//! DESIGN.md §6): concurrent bank transfers spanning multiple shards on a
//! 3-node cluster preserve the conserved-total invariant and produce a
//! serializable transaction history — including a run where a client's
//! TCP connection is killed mid-workload and the in-doubt transaction is
//! resumed over a fresh connection, proving aborted/interrupted
//! transactions leave no partial writes.
//!
//! Two deployments are exercised:
//!
//! * in-process: `ThreadCluster` sessions whose sub-operations fan across
//!   worker shard lanes directly;
//! * multi-process: three `hermesd` replicas over loopback TCP, remote
//!   sessions, a mid-workload connection kill, and an audit from a remote
//!   session on another node.

#[path = "support/cluster.rs"]
mod cluster;

use cluster::{remote_session, sum};
use hermes::harness::{observe_txn, spawn_daemons};
use hermes::obs::samples;
use hermes::prelude::*;
use hermes::txn::{check_txns_serializable, lock_key, TxnObs};
use hermes::wings::CreditConfig;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const BANK: BankConfig = BankConfig {
    accounts: 8,
    account_base: 0,
    initial_balance: 1_000,
    max_transfer: 100,
};

/// Runs `txn` to resolution on `session`, reconnecting via `reconnect`
/// whenever the transport dies mid-transaction (the in-doubt path).
fn txn_to_resolution<C: SessionChannel>(
    session: &mut ClientSession<C>,
    op: &TxnOp,
    mut reconnect: impl FnMut() -> ClientSession<C>,
) -> (TxnResult, u64) {
    let mut reconnects = 0;
    let mut result = session.txn(op.clone());
    loop {
        match result {
            TxnResult::InDoubt(pending) => {
                reconnects += 1;
                assert!(reconnects <= 20, "txn never resolved across reconnects");
                *session = reconnect();
                result = session.resume_txn(pending);
            }
            resolved => return (resolved, reconnects),
        }
    }
}

fn record(
    history: &Arc<Mutex<Vec<TxnObs>>>,
    clock: &AtomicU64,
    op: &TxnOp,
    invoke: u64,
    result: &TxnResult,
) {
    let obs = observe_txn(op, result, invoke, clock);
    history.lock().expect("history lock").push(obs);
}

#[test]
fn in_proc_transfers_span_shards_and_conserve_total() {
    const WORKERS: usize = 2;
    let cluster = ThreadCluster::launch(ClusterConfig {
        nodes: 3,
        workers_per_node: WORKERS,
        ..ClusterConfig::default()
    });
    // The accounts must genuinely span shards, or this tests nothing.
    let spec = ShardSpec::new(WORKERS);
    let owners: std::collections::HashSet<usize> =
        BANK.account_keys().iter().map(|&k| spec.owner(k)).collect();
    assert!(owners.len() >= 2, "accounts all landed on one shard lane");

    let clock = Arc::new(AtomicU64::new(0));
    let history: Arc<Mutex<Vec<TxnObs>>> = Arc::new(Mutex::new(Vec::new()));

    // Fund the bank through one committed MultiPut.
    let mut funder = cluster.session(0);
    let funding = BANK.funding();
    let invoke = clock.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    let result = funder.txn(funding.clone());
    assert!(result.is_committed(), "funding must commit: {result:?}");
    record(&history, &clock, &funding, invoke, &result);

    // Concurrent transfer clients against all three replicas.
    let cluster = Arc::new(cluster);
    let mut joins = Vec::new();
    for sid in 0..3usize {
        let cluster = Arc::clone(&cluster);
        let clock = Arc::clone(&clock);
        let history = Arc::clone(&history);
        joins.push(std::thread::spawn(move || {
            let mut session = cluster.session(sid % 3);
            let mut bank = BankWorkload::new(BANK, sid as u64);
            let mut committed = 0u32;
            for _ in 0..12 {
                let op = bank.next_transfer();
                let invoke = clock.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                let result = session.txn(op.clone());
                // In-process lanes never die: every txn resolves.
                assert!(
                    !matches!(result, TxnResult::InDoubt(_)),
                    "in-proc txn went in-doubt"
                );
                committed += u32::from(result.is_committed());
                record(&history, &clock, &op, invoke, &result);
            }
            committed
        }));
    }
    let committed: u32 = joins.into_iter().map(|j| j.join().expect("client")).sum();
    assert!(committed > 0, "no transfer committed at all");

    // Audit: the books must balance, through a different replica.
    let mut auditor = cluster.session(1);
    let audit = BANK.audit();
    let invoke = clock.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    let result = auditor.txn(audit.clone());
    let TxnResult::Committed(snapshot) = &result else {
        panic!("audit must commit: {result:?}");
    };
    BANK.check_conserved(snapshot).expect("conserved total");
    record(&history, &clock, &audit, invoke, &result);

    // The whole multi-key history admits a sequential order.
    let history = history.lock().expect("history lock");
    assert!(
        check_txns_serializable(&history),
        "transaction history not serializable: {history:?}"
    );

    // Every lock record is released, on every replica.
    for node in 0..3 {
        for key in BANK.account_keys() {
            assert_eq!(
                cluster.read(node, lock_key(key)),
                Reply::ReadOk(Value::EMPTY),
                "lock for {key:?} leaked on node {node}"
            );
        }
    }
    // Sub-operations really fanned across lanes (both shards saw work).
    let lane_ops = cluster.lane_ops(0);
    assert_eq!(lane_ops.len(), WORKERS);
    assert!(
        lane_ops.iter().all(|&ops| ops > 0),
        "a worker lane saw no client ops: {lane_ops:?}"
    );
    if let Ok(cluster) = Arc::try_unwrap(cluster) {
        cluster.shutdown();
    }
}

// ---------------------------------------------------------------------
// Multi-process deployment with a mid-workload connection kill.
// ---------------------------------------------------------------------

const NODES: usize = 3;

/// How long a client waits for a daemon's client port to accept.
const CONNECT_WITHIN: Duration = Duration::from_secs(10);

#[test]
fn tcp_cluster_transfers_survive_connection_kill() {
    let hermesd = env!("CARGO_BIN_EXE_hermesd");
    let daemons = spawn_daemons(hermesd, NODES, &["--workers", "2"], |_| Vec::new());
    let client_addrs = daemons.clients.clone();

    // Wait for the cluster to serve, then fund the bank.
    let deadline = Instant::now() + Duration::from_secs(30);
    let clock = Arc::new(AtomicU64::new(0));
    let history: Arc<Mutex<Vec<TxnObs>>> = Arc::new(Mutex::new(Vec::new()));
    let funding = BANK.funding();
    let mut invoke = clock.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    let mut session = remote_session(client_addrs[0], CONNECT_WITHIN);
    let mut result = session.txn(funding.clone());
    loop {
        if result.is_committed() {
            record(&history, &clock, &funding, invoke, &result);
            break;
        }
        assert!(
            Instant::now() < deadline,
            "cluster never came up: {result:?}"
        );
        std::thread::sleep(Duration::from_millis(100));
        session = remote_session(client_addrs[0], CONNECT_WITHIN);
        result = match result {
            // Never drop an in-doubt funding transaction: its lock CASes
            // or data writes may already have applied, and abandoning the
            // machine would leak its locks and partial effect. Resume it
            // to resolution instead.
            TxnResult::InDoubt(pending) => session.resume_txn(pending),
            _ => {
                invoke = clock.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                session.txn(funding.clone())
            }
        };
    }

    // Concurrent transfer clients; client 0 is the victim whose TCP
    // connection gets chopped mid-workload (a delayed kill armed right
    // before transaction 3 starts, so the cut lands inside or between
    // live transactions — either way the session must reconnect and the
    // in-doubt transaction must resume without leaving partial writes).
    let mut joins = Vec::new();
    for sid in 0..3usize {
        let addr = client_addrs[sid % NODES];
        let clock = Arc::clone(&clock);
        let history = Arc::clone(&history);
        joins.push(std::thread::spawn(move || {
            let channel = RemoteChannel::connect_within(addr, CONNECT_WITHIN).expect("client port");
            let mut switch = (sid == 0).then(|| channel.kill_switch().expect("kill switch"));
            let mut session = ClientSession::new(channel, CreditConfig::default());
            let mut bank = BankWorkload::new(BANK, 1000 + sid as u64);
            let mut stats = (0u32, 0u64); // (committed, reconnects)
            for i in 0..10 {
                let op = bank.next_transfer();
                let invoke = clock.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if i == 3 {
                    if let Some(switch) = switch.take() {
                        std::thread::spawn(move || {
                            std::thread::sleep(Duration::from_millis(3));
                            switch.kill();
                        });
                    }
                }
                let (result, reconnects) =
                    txn_to_resolution(&mut session, &op, || remote_session(addr, CONNECT_WITHIN));
                stats.0 += u32::from(result.is_committed());
                stats.1 += reconnects;
                record(&history, &clock, &op, invoke, &result);
            }
            stats
        }));
    }

    let mut committed = 0u32;
    let mut reconnects = 0u64;
    for j in joins {
        let (c, r) = j.join().expect("client thread");
        committed += c;
        reconnects += r;
    }
    assert!(committed > 0, "no transfer committed");
    assert!(
        reconnects > 0,
        "the connection kill was never observed — the fault path did not fire"
    );

    // Audit from a session on another node: conservation must hold
    // despite the mid-workload kill.
    let audit = BANK.audit();
    let invoke = clock.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    let result = remote_session(client_addrs[2], CONNECT_WITHIN).txn(audit.clone());
    let TxnResult::Committed(values) = &result else {
        panic!("audit must commit: {result:?}");
    };
    BANK.check_conserved(values)
        .expect("conserved total across connection kill");
    record(&history, &clock, &audit, invoke, &result);

    // Transaction-granularity serializability over everything recorded.
    let history_vec = history.lock().expect("history lock");
    assert!(
        check_txns_serializable(&history_vec),
        "multi-process transaction history not serializable: {history_vec:?}"
    );
    drop(history_vec);

    // No lock record leaked (the resumed transaction released its locks).
    let mut lock_reader = remote_session(client_addrs[1], CONNECT_WITHIN);
    for key in BANK.account_keys() {
        let ticket = lock_reader.read(lock_key(key));
        assert_eq!(
            lock_reader.wait(ticket),
            Reply::ReadOk(Value::EMPTY),
            "lock for {key:?} leaked"
        );
    }

    // The Metrics RPC shows a healthy, busy cluster without log parsing.
    let mut total_lane_ops = 0.0;
    for (i, addr) in client_addrs.iter().enumerate() {
        let text = query_metrics(*addr, Duration::from_secs(5)).expect("metrics RPC");
        let serving = hermes::obs::sample_value(&text, "hermes_serving");
        assert_eq!(serving, Some(1.0), "node {i} not serving:\n{text}");
        let members = samples(&text, "hermes_view_member");
        let members = members.iter().filter(|&&(_, v)| v == 1.0).count();
        assert_eq!(members, NODES, "node {i} lost members:\n{text}");
        let lane_ops = samples(&text, "hermes_lane_ops_total");
        assert_eq!(lane_ops.len(), 2, "node {i} lane count");
        total_lane_ops += sum(&text, "hermes_lane_ops_total");
    }
    assert!(total_lane_ops > 0.0, "no lane handled any client op");

    // Orderly teardown: hang up stdin, require clean exits.
    daemons.shutdown();
}
