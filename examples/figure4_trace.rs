//! The paper's Figure 4, step by step, with the real protocol kernel.
//!
//! Replays the operational example of §3.5: concurrent writes A=1 (node 0)
//! and A=3 (node 2), a stalled read, a VAL loss plus coordinator crash, and
//! the write replay that recovers — printing each replica's per-key state
//! after every step, like the "State of A" table in the figure.
//!
//! The replicas are `hermes_model::Cluster`'s: every message waits in
//! flight until a step below delivers or loses it.
//!
//! Run with: `cargo run --example figure4_trace`

use hermes::model::{Cluster, Envelope};
use hermes::prelude::*;

const A: Key = Key(0xA);

/// Whether `e` is a `kind` message from node `from` to node `to`.
fn is(e: &Envelope, from: u32, to: u32, kind: &str) -> bool {
    e.from.0 == from && e.to.0 == to && e.msg.kind_name() == kind
}

fn print_state(c: &Cluster, step: &str) {
    print!("{step:<58} |");
    for node in &c.nodes {
        if !node.is_operational() {
            print!("   X    ");
            continue;
        }
        let state = match node.key_state(A) {
            KeyState::Valid => "V",
            KeyState::Invalid => "I",
            KeyState::Write => "W",
            KeyState::Replay => "R",
            KeyState::Trans => "T",
        };
        let val = node.key_value(A).to_u64().unwrap_or(0);
        print!(" {val}({state}) ");
    }
    println!();
}

fn main() {
    println!("Paper Figure 4: concurrent writes, a failure and a write replay");
    println!("value(state) per node; V=Valid I=Invalid W=Write R=Replay T=Trans X=down");
    println!("{:-<58}-+------------------------", "");
    let mut t = Cluster::new(3, ProtocolConfig::default());
    print_state(&t, "initial: A=0 everywhere");

    let w1 = t.client(0, A, ClientOp::Write(Value::from_u64(1)));
    print_state(&t, "node 0 issues write(A=1), broadcasts INV ts[v2.c0]");

    let w3 = t.client(2, A, ClientOp::Write(Value::from_u64(3)));
    print_state(&t, "node 2 issues concurrent write(A=3), INV ts[v2.c2]");

    t.deliver_matching(|e| is(e, 0, 1, "INV"));
    print_state(&t, "node 1 ACKs node 0's INV, adopts A=1, Invalid");

    t.deliver_matching(|e| is(e, 0, 2, "INV"));
    print_state(&t, "node 2 ACKs node 0's INV, keeps its higher ts");

    t.deliver_matching(|e| is(e, 2, 1, "INV"));
    print_state(&t, "node 1 receives node 2's INV (higher ts), adopts A=3");

    t.deliver_matching(|e| is(e, 2, 0, "INV"));
    print_state(&t, "node 0 superseded while writing: -> Trans, value 3");

    let r1 = t.client(1, A, ClientOp::Read);
    print_state(&t, "node 1 read(A) stalls: key Invalid");

    t.deliver_matching(|e| e.to.0 == 2 && e.msg.kind_name() == "ACK");
    print_state(&t, "node 2 gathers all ACKs: write(A=3) COMMITS, Valid");
    assert!(t
        .replies
        .iter()
        .any(|(o, r)| *o == w3 && *r == Reply::WriteOk));

    t.deliver_matching(|e| is(e, 2, 1, "VAL"));
    print_state(&t, "node 1 receives VAL: Valid, stalled read returns 3");
    assert!(t
        .replies
        .iter()
        .any(|(o, r)| *o == r1 && *r == Reply::ReadOk(Value::from_u64(3))));

    t.deliver_matching(|e| e.to.0 == 0 && e.msg.kind_name() == "ACK");
    print_state(
        &t,
        "node 0's own ACKs arrive: write commits, but -> Invalid",
    );
    assert!(t
        .replies
        .iter()
        .any(|(o, r)| *o == w1 && *r == Reply::WriteOk));

    // Failure: VAL from node 2 to node 0 is lost; node 2 crashes.
    t.drop_matching(|e| is(e, 2, 0, "VAL"));
    t.crash(2);
    t.reconfigure(t.nodes[0].view().without_node(NodeId(2)));
    print_state(&t, "VAL to node 0 lost; node 2 crashes; m-update {0,1}");

    let r0 = t.client(0, A, ClientOp::Read);
    print_state(&t, "node 0 read(A) stalls on the dead write");

    t.fire_timer(0, A);
    print_state(&t, "mlt expires: node 0 REPLAYS node 2's write [v2.c2]");

    t.deliver_all();
    print_state(&t, "replay ACKed and validated: read returns 3");
    assert!(t
        .replies
        .iter()
        .any(|(o, r)| *o == r0 && *r == Reply::ReadOk(Value::from_u64(3))));
    assert_eq!(t.nodes[0].key_ts(A).cid, 2, "original timestamp preserved");

    println!();
    println!("trace matches paper Figure 4, including the replay with the");
    println!("original timestamp [v2.c2] (early value propagation, §3.1).");
}
