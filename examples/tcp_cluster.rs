//! Multi-process loopback Hermes cluster: the acceptance harness of the
//! TCP transport subsystem.
//!
//! Run with no arguments, this binary:
//!
//! 1. reserves loopback ports and spawns **three copies of itself** as
//!    replica daemons (`--node <i> --peers ... --client ...`, run by
//!    `hermesd`'s own `daemon_main`), each its own OS
//!    process with its own TCP replication listener and client port;
//! 2. drives concurrent pipelined client sessions over real TCP
//!    connections ([`RemoteChannel`]) in closed loop, recording every
//!    invocation/response against a shared clock;
//! 3. hands the per-key histories to `hermes-model`'s Wing & Gong
//!    linearizability checker;
//! 4. hangs up the daemons' stdin (their shutdown signal), waits for them
//!    and asserts clean exits.
//!
//! `--smoke` shrinks the op count to CI size. Anything involving `--node`
//! switches to daemon mode.

use hermes::harness::{
    check_linearizable_per_key, daemon_main, run_recorded_session, spawn_daemons, RecordedOp,
};
use hermes::prelude::*;
use hermes_wings::CreditConfig;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 3;
const SESSIONS: usize = 6;
const KEYS: u64 = 8;
const DEPTH: usize = 8;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--node") {
        daemon_main(&args);
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let ops_per_session: u64 = if smoke { 30 } else { 48 };
    harness_main(ops_per_session);
}

fn harness_main(ops_per_session: u64) {
    let start = Instant::now();
    println!("tcp_cluster: spawning {NODES} replica processes");
    let exe = std::env::current_exe().expect("own path");
    let daemons = spawn_daemons(exe, NODES, &["--workers", "2"], |_| Vec::new());

    // Drive concurrent remote sessions, one thread each, recording
    // histories against one shared clock.
    let clock = Arc::new(AtomicU64::new(0));
    let mut joins = Vec::new();
    for sid in 0..SESSIONS {
        let addr = daemons.clients[sid % NODES];
        let clock = Arc::clone(&clock);
        joins.push(std::thread::spawn(move || {
            let channel = RemoteChannel::connect_within(addr, Duration::from_secs(20))
                .expect("daemon client port reachable");
            let mut session = ClientSession::new(channel, CreditConfig::default());
            run_recorded_session(
                &mut session,
                &clock,
                sid as u64,
                KEYS,
                ops_per_session,
                DEPTH,
            )
        }));
    }
    let mut all: Vec<RecordedOp> = Vec::new();
    for j in joins {
        all.extend(j.join().expect("session thread"));
    }
    let elapsed = start.elapsed();
    let total = all.len() as u64;
    assert_eq!(total, SESSIONS as u64 * ops_per_session);
    let completed = all
        .iter()
        .filter(|o| o.outcome == hermes::model::Outcome::Completed)
        .count();
    println!(
        "tcp_cluster: {total} ops over {SESSIONS} sessions in {elapsed:.2?} \
         ({completed} certain completions)"
    );
    // Reads and writes never abort in Hermes: each must have completed.
    // Fetch-add RMWs may abort under conflict (retryable, paper §3.6) and
    // legitimately record as indeterminate.
    for o in &all {
        if !matches!(o.kind, hermes::model::OpKind::FetchAdd { .. }) {
            assert_eq!(
                o.outcome,
                hermes::model::Outcome::Completed,
                "non-RMW op did not complete: {o:?}"
            );
        }
    }

    check_linearizable_per_key(&all, KEYS).expect("multi-process history linearizable");
    println!("tcp_cluster: per-key histories linearizable across {NODES} OS processes");

    daemons.shutdown();
    println!("tcp_cluster: all {NODES} replica processes shut down cleanly");
}
