//! The "advisory abort" corner found by model checking this implementation
//! (documented in EXPERIMENTS.md): a spurious replay can commit an RMW whose
//! coordinator already reported `RmwAborted`. The paper's §3.6 guarantee —
//! at most one of any set of concurrent RMWs commits — still holds; what is
//! *not* guaranteed is that an aborted reply implies no effect. This test
//! constructs the exact schedule and pins the resulting behaviour so any
//! change to it is deliberate.

use hermes_common::{Key, Reply, RmwOp, Value};
use hermes_core::{KeyState, ProtocolConfig};
use hermes_model::Cluster;

const K: Key = Key(1);

fn v(n: u64) -> Value {
    Value::from_u64(n)
}

#[test]
fn aborted_rmw_can_be_resurrected_by_spurious_replay() {
    let mut c = Cluster::new(3, ProtocolConfig::default());
    c.write(0, K, v(5));
    c.deliver_all();

    // Node 0 issues an RMW (+1); its INV reaches node 1 only.
    let rmw = c.rmw(0, K, RmwOp::FetchAdd { delta: 1 });
    c.deliver_matching(|e| e.to.0 == 1 && e.msg.kind_name() == "INV");
    assert_eq!(c.node(1).key_state(K), KeyState::Invalid);
    assert_eq!(c.node(1).key_value(K), v(6));

    // Node 1's reader stalls and its mlt fires *early* (spurious replay —
    // the paper allows this: "a write replay will never compromise the
    // safety of the protocol", §3.4).
    let r1 = c.read(1, K);
    assert!(c.reply_of(r1).is_none());
    c.fire_timer(1, K);
    assert_eq!(c.node(1).key_state(K), KeyState::Replay);

    // The replay runs to completion: its INVs reach node 2 (which never
    // saw the original RMW INV) and node 0 (equal timestamp: duplicate
    // ACK); the ACKs return to node 1, which commits, validates and serves
    // the stalled read with the RMW's value. The RMW has now COMMITTED —
    // but its coordinator (node 0) still waits for its own ACKs.
    c.deliver_matching(|e| e.from.0 == 1 && e.msg.kind_name() == "INV");
    assert_eq!(c.node(2).key_value(K), v(6));
    c.deliver_matching(|e| e.to.0 == 1 && e.msg.kind_name() == "ACK");
    c.assert_reply(r1, Reply::ReadOk(v(6)));
    c.deliver_matching(|e| e.from.0 == 1 && e.msg.kind_name() == "VAL");

    // Node 2 (validated at the RMW's value) now issues a write; its higher
    // timestamp reaches the RMW's original coordinator, whose pending RMW
    // is still waiting for ACKs: CRMW-abort fires and the client is told
    // the RMW aborted — even though its effect was already read above.
    let wr = c.write(2, K, v(100));
    c.deliver_matching(|e| e.from.0 == 2 && e.to.0 == 0 && e.msg.kind_name() == "INV");
    c.assert_reply(rmw, Reply::RmwAborted);

    // Everything still converges, and the *write* (higher timestamp) wins
    // the final state — the §3.6 invariant (one concurrent update order)
    // is intact. Only the abort reply was advisory.
    c.deliver_all();
    c.quiesce();
    c.assert_reply(wr, Reply::WriteOk);
    c.assert_converged(K);
    assert_eq!(c.node(0).key_value(K), v(100));
}

#[test]
fn without_replays_aborts_are_final() {
    // The complementary guarantee: if no replay races the abort (no timer
    // fires), an aborted RMW's value is never observed anywhere.
    let mut c = Cluster::new(3, ProtocolConfig::default());
    c.write(0, K, v(5));
    c.deliver_all();

    let rmw = c.rmw(0, K, RmwOp::FetchAdd { delta: 1 });
    let wr = c.write(2, K, v(100));
    c.deliver_all();
    c.quiesce();
    c.assert_reply(rmw, Reply::RmwAborted);
    c.assert_reply(wr, Reply::WriteOk);
    c.assert_converged(K);
    assert_eq!(c.node(1).key_value(K), v(100), "aborted RMW value leaked");
    // No replica ever served 6: all read replies in the history are 5/100.
    for (_, reply) in &c.replies {
        if let Reply::ReadOk(val) = reply {
            assert_ne!(val, &v(6), "aborted value observed without a replay");
        }
    }
}
