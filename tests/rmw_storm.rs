//! The RMW conflict/abort path of the threaded runtime, under fire: a
//! concurrent compare-and-swap storm on a single key across pipelined
//! sessions on all three replicas (paper §3.6 — at most one of any set of
//! concurrent RMWs on a key commits; the rest fail or abort).
//!
//! The storm asserts two things:
//!
//! * **accounting** — every committed CAS moved the counter by exactly
//!   one, so the final value equals the number of `RmwOk` replies, plus
//!   at most one per advisory abort (an `RmwAborted` CAS may still be
//!   replayed to completion — the indeterminacy pinned by
//!   `crates/core/tests/rmw_resurrection.rs`);
//! * **linearizability** — the full recorded history (reads, `CasOk`,
//!   `CasFailed`, indeterminate aborts) passes the Wing & Gong checker.

use hermes::harness::{check_linearizable_per_key, RecordedOp};
use hermes::model::observe;
use hermes::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const STORM_KEY: Key = Key(7);
const SESSIONS: usize = 3;
const ROUNDS: usize = 8;
/// An expectation value the storm counter can never reach.
const NEVER: u64 = 424_242;

struct Tally {
    rmw_ok: u64,
    cas_failed: u64,
    aborted: u64,
}

fn run_op(
    session: &mut ClientSession,
    clock: &AtomicU64,
    history: &Mutex<Vec<RecordedOp>>,
    cop: ClientOp,
) -> Reply {
    let invoke = clock.fetch_add(1, Ordering::SeqCst);
    let ticket = session.submit(STORM_KEY, cop.clone());
    let reply = session.wait(ticket);
    let response = clock.fetch_add(1, Ordering::SeqCst);
    let (kind, outcome) = observe(&cop, reply.clone());
    history.lock().expect("history lock").push(RecordedOp {
        key: STORM_KEY,
        invoke,
        response,
        kind,
        outcome,
    });
    reply
}

fn cas(expect: u64, new: u64) -> ClientOp {
    ClientOp::Rmw(RmwOp::CompareAndSwap {
        expect: Value::from_u64(expect),
        new: Value::from_u64(new),
    })
}

#[test]
fn concurrent_cas_storm_accounts_exactly_and_stays_linearizable() {
    let cluster = Arc::new(ThreadCluster::launch(ClusterConfig {
        nodes: 3,
        workers_per_node: 2,
        ..ClusterConfig::default()
    }));
    let clock = Arc::new(AtomicU64::new(0));
    let history: Arc<Mutex<Vec<RecordedOp>>> = Arc::new(Mutex::new(Vec::new()));

    // Seed the counter so every session races from a written value.
    {
        let mut session = cluster.session(0);
        let reply = run_op(
            &mut session,
            &clock,
            &history,
            ClientOp::Write(Value::from_u64(0)),
        );
        assert_eq!(reply, Reply::WriteOk);
    }

    let mut joins = Vec::new();
    for sid in 0..SESSIONS {
        let cluster = Arc::clone(&cluster);
        let clock = Arc::clone(&clock);
        let history = Arc::clone(&history);
        joins.push(std::thread::spawn(move || {
            let mut session = cluster.session(sid % 3);
            let mut tally = Tally {
                rmw_ok: 0,
                cas_failed: 0,
                aborted: 0,
            };
            for _ in 0..ROUNDS {
                // Learn the current value, then race to bump it: with three
                // sessions doing this against different replicas, CAS
                // conflicts on the one key are the common case.
                let read = run_op(&mut session, &clock, &history, ClientOp::Read);
                let Reply::ReadOk(current) = read else {
                    panic!("storm read failed: {read:?}");
                };
                let base = current.to_u64().expect("counter is u64");
                match run_op(&mut session, &clock, &history, cas(base, base + 1)) {
                    Reply::RmwOk { prior } => {
                        assert_eq!(prior.to_u64(), Some(base), "CAS observed its expect");
                        tally.rmw_ok += 1;
                    }
                    Reply::CasFailed { current } => {
                        assert_ne!(
                            current.to_u64(),
                            Some(base),
                            "CasFailed must observe a non-matching value"
                        );
                        tally.cas_failed += 1;
                    }
                    Reply::RmwAborted => tally.aborted += 1,
                    other => panic!("unexpected CAS reply: {other:?}"),
                }
            }
            // Deterministic conflict: an expectation the counter never
            // holds must fail as a linearizable read, never commit.
            match run_op(&mut session, &clock, &history, cas(NEVER, NEVER + 1)) {
                Reply::CasFailed { current } => {
                    assert_ne!(current.to_u64(), Some(NEVER));
                    tally.cas_failed += 1;
                }
                Reply::RmwAborted => tally.aborted += 1,
                other => panic!("impossible CAS expectation yielded {other:?}"),
            }
            tally
        }));
    }
    let mut total = Tally {
        rmw_ok: 0,
        cas_failed: 0,
        aborted: 0,
    };
    for j in joins {
        let t = j.join().expect("storm session");
        total.rmw_ok += t.rmw_ok;
        total.cas_failed += t.cas_failed;
        total.aborted += t.aborted;
    }

    // Settle, then read the final counter from every replica.
    let mut finals = Vec::new();
    for node in 0..3 {
        let mut session = cluster.session(node);
        let reply = run_op(&mut session, &clock, &history, ClientOp::Read);
        let Reply::ReadOk(v) = reply else {
            panic!("final read failed on node {node}: {reply:?}");
        };
        finals.push(v.to_u64().expect("counter is u64"));
    }
    assert!(
        finals.windows(2).all(|w| w[0] == w[1]),
        "replicas diverged: {finals:?}"
    );
    let final_value = finals[0];

    // Accounting: every RmwOk bumped the counter once; an advisory abort
    // may have been replayed to completion, adding at most one each.
    assert!(
        final_value >= total.rmw_ok,
        "final {final_value} < {} committed CASes",
        total.rmw_ok
    );
    assert!(
        final_value <= total.rmw_ok + total.aborted,
        "final {final_value} exceeds {} commits + {} advisory aborts",
        total.rmw_ok,
        total.aborted
    );
    // The impossible-expectation CASes guarantee observed conflicts.
    assert!(
        total.cas_failed + total.aborted >= SESSIONS as u64,
        "storm produced no conflicts: {} failed, {} aborted",
        total.cas_failed,
        total.aborted
    );
    assert!(total.rmw_ok > 0, "storm never committed a CAS");

    // The full single-key history — CasOk, CasFailed, indeterminate
    // aborts, reads — is linearizable.
    let history = history.lock().expect("history lock");
    assert!(history.len() <= 63, "history exceeds checker bound");
    check_linearizable_per_key(&history, 8).expect("CAS storm history linearizable");

    drop(history);
    if let Ok(cluster) = Arc::try_unwrap(cluster) {
        cluster.shutdown();
    }
}
