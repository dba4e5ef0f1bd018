//! Cross-node causal tracing smoke (DESIGN.md §10): a real three-process
//! Hermes cluster with a fault hook delaying one follower's INV ingress
//! must be *diagnosable from the outside* — `hermes_top --once` scrapes
//! every daemon's Metrics + Traces RPCs, stitches the drained spans into
//! a cross-node timeline, and its slowest-hop attribution must name the
//! delayed follower.
//!
//! The harness spawns three `hermesd` processes — the crate's replica
//! binary, as shipped: every one samples all traces
//! (`HERMES_TRACE_SAMPLE=1`), and node 2 alone carries
//! `HERMES_FAULT_INV_DELAY_US` — a deterministic stall injected at its
//! INV ingress. Writes driven through node 0 then broadcast INVs whose
//! trace context crosses the wire, so node 2's delayed phase marks land
//! in its own ring tagged with the originating trace id, and the
//! aggregator's stitched timeline pins the latency on `@n2`. The
//! aggregator is the crate's `hermes_top` binary.

#[path = "support/cluster.rs"]
mod cluster;

use cluster::{poll_until_served, remote_session, CONNECT};
use hermes::harness::{addr_list, spawn_daemons};
use hermes::prelude::*;
use std::process::Command;
use std::time::{Duration, Instant};

const NODES: usize = 3;
/// The follower whose INV ingress the fault hook stalls.
const DELAYED_NODE: usize = 2;
/// Injected stall per INV, far above loopback noise and clock skew.
const DELAY_US: u64 = 20_000;
/// `hermes_top --slow-us`: prints timelines for ops at least this slow.
const SLOW_US: u64 = 10_000;

/// The acceptance gate: a forced follower-side delay in a real 3-process
/// cluster is attributed to that follower by the stitched cross-node
/// timeline `hermes_top --once` prints.
#[test]
fn hermes_top_attributes_forced_follower_delay() {
    let top = env!("CARGO_BIN_EXE_hermes_top");

    // Every daemon samples all traces; the delayed node alone carries the
    // INV-ingress fault hook.
    let hermesd = env!("CARGO_BIN_EXE_hermesd");
    let daemons = spawn_daemons(hermesd, NODES, &["--workers", "2"], |node| {
        let mut env = vec![("HERMES_TRACE_SAMPLE", "1".to_string())];
        if node == DELAYED_NODE {
            env.push(("HERMES_FAULT_INV_DELAY_US", DELAY_US.to_string()));
        }
        env
    });
    let client_addrs = daemons.clients.clone();
    let (write, within) = (ClientOp::Write(Value::from_u64(1)), Duration::from_secs(20));
    let served = poll_until_served(client_addrs[0], Key(1), write, within, |r| {
        *r == Reply::WriteOk
    });
    assert_eq!(served, Reply::WriteOk, "cluster never served a write");

    let nodes_flag = addr_list(&client_addrs);
    let mut session = remote_session(client_addrs[0], CONNECT);

    // Drive a traced write, give the follower rings a beat to flush, then
    // let the aggregator scrape. Every round mints fresh sampled traces,
    // so a scrape that raced the span flush just retries on new ops.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut last_output;
    let attributed = loop {
        let ticket = session.write(Key(42), Value::from_u64(7));
        assert_eq!(session.wait(ticket), Reply::WriteOk);
        std::thread::sleep(Duration::from_millis(300));

        let scrape = Command::new(top)
            .args(["--nodes", &nodes_flag, "--once", "--slow-us"])
            .arg(SLOW_US.to_string())
            .output()
            .expect("run hermes_top");
        assert!(
            scrape.status.success(),
            "hermes_top failed: {}",
            String::from_utf8_lossy(&scrape.stderr)
        );
        last_output = String::from_utf8_lossy(&scrape.stdout).into_owned();
        assert!(
            last_output.contains(&format!("scraped {NODES}/{NODES} nodes")),
            "hermes_top could not scrape every node:\n{last_output}"
        );
        let timeline_crosses_nodes = last_output
            .lines()
            .any(|l| l.contains("issued@n0") && l.contains(&format!("@n{DELAYED_NODE}")));
        let slowest_on_delayed = last_output
            .lines()
            .any(|l| l.contains("slowest hop:") && l.contains(&format!("@n{DELAYED_NODE} waited")));
        if timeline_crosses_nodes && slowest_on_delayed {
            break true;
        }
        if Instant::now() >= deadline {
            break false;
        }
    };
    assert!(
        attributed,
        "stitched timeline never attributed the stall to n{DELAYED_NODE}; \
         last hermes_top output:\n{last_output}"
    );
    // The injected stall must also dominate the timeline's extent: the
    // slowest printed trace spans at least the injected delay.
    let slow_line = last_output
        .lines()
        .find(|l| l.contains("trace=") && l.contains("total="))
        .expect("a stitched timeline line");
    let total_us: u64 = slow_line
        .split("total=")
        .nth(1)
        .and_then(|r| r.split("us").next())
        .and_then(|n| n.parse().ok())
        .expect("parse total=..us");
    assert!(
        total_us >= SLOW_US,
        "printed timeline is not slow: {slow_line}"
    );

    drop(session);
    daemons.shutdown();
}
