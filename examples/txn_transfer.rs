//! Cross-shard bank transfers against a real multi-process Hermes cluster:
//! the demonstration harness of the `hermes-txn` subsystem (DESIGN.md §6).
//!
//! Run with no arguments, this binary:
//!
//! 1. reserves loopback ports and spawns **three copies of itself** as
//!    replica daemons (same CLI as `examples/hermesd.rs`);
//! 2. funds a small bank with one `MultiPut` transaction, then drives
//!    concurrent client threads moving money between accounts with
//!    `Transfer` transactions — each transaction a client-side
//!    lock → read/validate → apply → unlock sequence of ordinary
//!    single-key Hermes operations over real TCP sessions;
//! 3. kills one client's TCP connection mid-workload and resumes the
//!    in-doubt transaction over a fresh connection (idempotent replay —
//!    no partial write survives);
//! 4. audits the books from a remote session on another node and checks
//!    the **conserved-total invariant** plus
//!    transaction-granularity **serializability**
//!    (`hermes_txn::check_txns_serializable`);
//! 5. reads each daemon's metrics exposition (per-lane op counts — the
//!    proof that sub-operations fan across worker shard lanes), then shuts
//!    everything down cleanly.
//!
//! `--smoke` shrinks the workload to CI size. `--node` switches to daemon
//! mode.

use hermes::harness::{daemon_main, observe_txn, spawn_daemons};
use hermes::obs::samples;
use hermes::prelude::*;
use hermes::replica::KillSwitch;
use hermes::txn::{check_txns_serializable, lock_key, TxnObs};
use hermes::wings::CreditConfig;
use std::net::SocketAddr;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const NODES: usize = 3;
const CLIENTS: usize = 3;

const BANK: BankConfig = BankConfig {
    accounts: 8,
    account_base: 0,
    initial_balance: 1_000,
    max_transfer: 100,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--node") {
        daemon_main(&args);
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    harness_main(if smoke { 6 } else { 14 });
}

fn remote_session(addr: SocketAddr) -> ClientSession<RemoteChannel> {
    RemoteChannel::connect_within(addr, Duration::from_secs(10))
        .expect("daemon client port reachable")
        .into_session()
}

fn record(
    history: &Mutex<Vec<TxnObs>>,
    clock: &AtomicU64,
    op: &TxnOp,
    invoke: u64,
    result: &TxnResult,
) {
    let obs = observe_txn(op, result, invoke, clock);
    history.lock().expect("history lock").push(obs);
}

fn harness_main(transfers_per_client: u64) {
    let start = Instant::now();
    println!("txn_transfer: spawning {NODES} replica processes");
    let daemons = spawn_daemons(NODES, &["--workers", "2"]);

    let clock = Arc::new(AtomicU64::new(0));
    let history: Arc<Mutex<Vec<TxnObs>>> = Arc::new(Mutex::new(Vec::new()));

    // Fund the bank (retrying while the cluster comes up).
    let funding = BANK.funding();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut invoke = clock.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    let mut session = remote_session(daemons.clients[0]);
    let mut result = session.txn(funding.clone());
    loop {
        if result.is_committed() {
            record(&history, &clock, &funding, invoke, &result);
            break;
        }
        assert!(
            Instant::now() < deadline,
            "cluster never served the funding txn: {result:?}"
        );
        std::thread::sleep(Duration::from_millis(100));
        session = remote_session(daemons.clients[0]);
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
    println!(
        "txn_transfer: funded {} accounts x {} = {} total",
        BANK.accounts,
        BANK.initial_balance,
        BANK.total()
    );

    // Concurrent transfer clients; client 0's connection dies mid-run.
    let mut joins = Vec::new();
    for sid in 0..CLIENTS {
        let addr = daemons.clients[sid % NODES];
        let clock = Arc::clone(&clock);
        let history = Arc::clone(&history);
        joins.push(std::thread::spawn(move || {
            let channel = RemoteChannel::connect_within(addr, Duration::from_secs(10))
                .expect("daemon client port reachable");
            let mut switch: Option<KillSwitch> =
                (sid == 0).then(|| channel.kill_switch().expect("kill switch"));
            let mut session = ClientSession::new(channel, CreditConfig::default());
            let mut bank = BankWorkload::new(BANK, 7 + sid as u64);
            let (mut committed, mut aborted, mut reconnects) = (0u64, 0u64, 0u64);
            let mut killer = None;
            for i in 0..transfers_per_client {
                let op = bank.next_transfer();
                let invoke = clock.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if i == 2 {
                    if let Some(switch) = switch.take() {
                        // Chop our own connection a moment into this txn.
                        killer = Some(std::thread::spawn(move || {
                            std::thread::sleep(Duration::from_millis(2));
                            switch.kill();
                        }));
                    }
                }
                if i == 3 {
                    // A txn that finished inside those 2 ms leaves the kill
                    // to land before this one, which then finds the
                    // connection dead: the kill is mid-workload either way.
                    if let Some(killer) = killer.take() {
                        killer.join().expect("kill thread");
                    }
                }
                let mut result = session.txn(op.clone());
                while let TxnResult::InDoubt(pending) = result {
                    // Transport died mid-transaction: reconnect and resume
                    // (idempotent sub-ops — no partial write can survive).
                    reconnects += 1;
                    session = remote_session(addr);
                    result = session.resume_txn(pending);
                }
                match &result {
                    TxnResult::Committed(_) => committed += 1,
                    TxnResult::Aborted(_) => aborted += 1,
                    TxnResult::InDoubt(_) => unreachable!("resolved above"),
                }
                record(&history, &clock, &op, invoke, &result);
            }
            (committed, aborted, reconnects)
        }));
    }
    let (mut committed, mut aborted, mut reconnects) = (0u64, 0u64, 0u64);
    for j in joins {
        let (c, a, r) = j.join().expect("client thread");
        committed += c;
        aborted += a;
        reconnects += r;
    }
    println!(
        "txn_transfer: {} transfers committed, {} aborted, {} reconnect-resumes",
        committed, aborted, reconnects
    );
    assert!(committed > 0, "no transfer committed");
    assert!(
        reconnects > 0,
        "the mid-workload connection kill never fired"
    );

    // Audit from a session on another node.
    let audit = BANK.audit();
    let invoke = clock.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    let result = remote_session(daemons.clients[2]).txn(audit.clone());
    let TxnResult::Committed(values) = &result else {
        panic!("audit must commit: {result:?}");
    };
    let total = BANK
        .check_conserved(values)
        .expect("conserved-total invariant");
    record(&history, &clock, &audit, invoke, &result);
    println!("txn_transfer: audit sums to {total} — money conserved across the kill");

    // Serializability at transaction granularity.
    let history_vec = history.lock().expect("history lock");
    assert!(
        check_txns_serializable(&history_vec),
        "transaction history is not serializable"
    );
    println!(
        "txn_transfer: {} recorded transactions admit a sequential order",
        history_vec.len()
    );
    drop(history_vec);

    // No lock record may survive the workload.
    let mut lock_reader = remote_session(daemons.clients[1]);
    for key in BANK.account_keys() {
        let ticket = lock_reader.read(lock_key(key));
        assert_eq!(
            lock_reader.wait(ticket),
            Reply::ReadOk(Value::EMPTY),
            "lock for {key:?} leaked"
        );
    }

    // Per-lane op counts over the Metrics RPC: the sub-operations really
    // fanned across both worker lanes of every replica.
    for (i, addr) in daemons.clients.iter().enumerate() {
        let text = query_metrics(*addr, Duration::from_secs(5)).expect("metrics RPC");
        let rows = |name| samples(&text, name).into_iter().map(|(_, v)| v as u64);
        let lane_ops: Vec<u64> = rows("hermes_lane_ops_total").collect();
        let epoch: u64 = rows("hermes_view_epoch").sum();
        let members: u64 = rows("hermes_view_member").sum();
        let serving = rows("hermes_serving").sum::<u64>() == 1;
        println!(
            "txn_transfer: node {i} epoch={epoch} members={members} serving={serving} \
             lane_ops={lane_ops:?}"
        );
        assert!(serving, "node {i} stopped serving");
    }

    daemons.shutdown();
    println!(
        "txn_transfer: done in {:.2?} — {NODES} processes, cross-shard transactions, \
         clean shutdown",
        start.elapsed()
    );
}
