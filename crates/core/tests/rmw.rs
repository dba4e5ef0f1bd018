//! Read-modify-write semantics (paper §3.6): RMWs commit like writes but are
//! conflicting — at most one of any set of concurrent RMWs to a key commits,
//! and writes always beat concurrent RMWs.

use hermes_common::{Key, NodeId, Reply, RmwOp, Value};
use hermes_core::{KeyState, ProtocolConfig, Ts};
use hermes_model::Cluster;

const K: Key = Key(3);

fn v(n: u64) -> Value {
    Value::from_u64(n)
}

fn fetch_add(delta: u64) -> RmwOp {
    RmwOp::FetchAdd { delta }
}

fn cas(expect: u64, new: u64) -> RmwOp {
    RmwOp::CompareAndSwap {
        expect: v(expect),
        new: v(new),
    }
}

#[test]
fn solo_rmw_commits_and_returns_prior_value() {
    let mut c = Cluster::new(3, ProtocolConfig::default());
    c.write(0, K, v(10));
    c.deliver_all();
    let op = c.rmw(1, K, fetch_add(5));
    c.deliver_all();
    c.assert_reply(op, Reply::RmwOk { prior: v(10) });
    c.assert_converged(K);
    assert_eq!(c.node(2).key_value(K), v(15));
}

#[test]
fn rmw_version_increment_is_one_vs_write_two() {
    let mut c = Cluster::new(3, ProtocolConfig::default());
    let w = c.write(0, K, v(1));
    c.deliver_all();
    c.assert_reply(w, Reply::WriteOk);
    assert_eq!(c.node(0).key_ts(K), Ts::new(2, 0));
    c.rmw(1, K, fetch_add(1));
    c.deliver_all();
    assert_eq!(c.node(0).key_ts(K), Ts::new(3, 1));
}

#[test]
fn cas_success_and_failure() {
    let mut c = Cluster::new(3, ProtocolConfig::default());
    c.write(0, K, v(1));
    c.deliver_all();

    // Matching CAS commits.
    let ok = c.rmw(1, K, cas(1, 2));
    c.deliver_all();
    c.assert_reply(ok, Reply::RmwOk { prior: v(1) });
    assert_eq!(c.node(0).key_value(K), v(2));

    // Non-matching CAS fails locally with the current value, with no
    // network traffic (it is a linearizable read of a Valid key).
    let sent_before: u64 = (0..3).map(|i| c.node(i).stats().messages_sent()).sum();
    let fail = c.rmw(2, K, cas(7, 9));
    c.assert_reply(fail, Reply::CasFailed { current: v(2) });
    let sent_after: u64 = (0..3).map(|i| c.node(i).stats().messages_sent()).sum();
    assert_eq!(sent_before, sent_after);
    assert_eq!(c.node(0).key_value(K), v(2), "failed CAS must not update");
}

#[test]
fn write_beats_concurrent_rmw_which_aborts() {
    let mut c = Cluster::new(3, ProtocolConfig::default());
    // Node 0 issues an RMW, node 2 a concurrent write, from the same base.
    let rmw = c.rmw(0, K, fetch_add(100));
    let wr = c.write(2, K, v(50));
    // RMW ts = (1, c0); write ts = (2, c2): the write always has the higher
    // timestamp (CTS increments: +1 RMW, +2 write).
    assert!(c.node(2).key_ts(K) > c.node(0).key_ts(K));
    c.deliver_all();
    c.quiesce();
    c.assert_reply(rmw, Reply::RmwAborted);
    c.assert_reply(wr, Reply::WriteOk);
    c.assert_converged(K);
    assert_eq!(c.node(1).key_value(K), v(50), "only the write took effect");
    assert!(c.node(0).stats().rmw_aborts >= 1);
}

#[test]
fn concurrent_rmws_highest_cid_commits_rest_abort() {
    let mut c = Cluster::new(3, ProtocolConfig::default());
    c.write(0, K, v(0));
    c.deliver_all();
    let r0 = c.rmw(0, K, fetch_add(1));
    let r1 = c.rmw(1, K, fetch_add(10));
    let r2 = c.rmw(2, K, fetch_add(100));
    c.deliver_all();
    c.quiesce();
    // Paper: "if only RMW updates are racing, the RMW with the highest node
    // id will commit, and the rest will abort."
    c.assert_reply(r2, Reply::RmwOk { prior: v(0) });
    c.assert_reply(r0, Reply::RmwAborted);
    c.assert_reply(r1, Reply::RmwAborted);
    c.assert_converged(K);
    assert_eq!(c.node(0).key_value(K), v(100));
}

#[test]
fn stale_rmw_inv_gets_nacked_with_local_state() {
    let mut c = Cluster::new(3, ProtocolConfig::default());
    // Node 1 completes a write while node 0's RMW INV (from the older base)
    // is still in flight.
    let rmw = c.rmw(0, K, fetch_add(1)); // ts (1, c0)
    let wr = c.write(1, K, v(5)); // ts (2, c1)

    // Node 2 applies the write first...
    c.deliver_matching(|e| e.from.0 == 1 && e.to.0 == 2 && e.msg.kind_name() == "INV");
    assert_eq!(c.node(2).key_ts(K), Ts::new(2, 1));
    // ...then receives the stale RMW INV: it must NACK (an INV carrying its
    // newer local state), not ACK (FRMW-ACK).
    c.deliver_matching(|e| e.from.0 == 0 && e.to.0 == 2 && e.msg.kind_name() == "INV");
    assert!(c.node(2).stats().rmw_nacks >= 1);
    c.deliver_all();
    c.quiesce();
    c.assert_reply(rmw, Reply::RmwAborted);
    c.assert_reply(wr, Reply::WriteOk);
    c.assert_converged(K);
    assert_eq!(c.node(0).key_value(K), v(5));
}

#[test]
fn rmw_chain_applies_sequentially() {
    // Non-concurrent RMWs all commit: a counter incremented once per node.
    let mut c = Cluster::new(5, ProtocolConfig::default());
    c.write(0, K, v(0));
    c.deliver_all();
    for node in 0..5 {
        let op = c.rmw(node, K, fetch_add(1));
        c.deliver_all();
        c.assert_reply(
            op,
            Reply::RmwOk {
                prior: v(node as u64),
            },
        );
    }
    c.assert_converged(K);
    assert_eq!(c.node(0).key_value(K), v(5));
}

#[test]
fn rmw_resets_acks_and_replays_after_reconfiguration() {
    let mut c = Cluster::new(3, ProtocolConfig::default());
    c.write(0, K, v(1));
    c.deliver_all();
    let rmw = c.rmw(0, K, fetch_add(1));
    // Node 1 ACKs, node 2 crashes before ACKing.
    c.deliver_matching(|e| e.to.0 == 1 && e.msg.kind_name() == "INV");
    c.deliver_matching(|e| e.from.0 == 1 && e.msg.kind_name() == "ACK");
    assert!(c.reply_of(rmw).is_none());
    c.crash(2);
    let invs_before = c.node(0).stats().invs_sent;
    c.reconfigure(c.node(0).view().without_node(NodeId(2)));
    // CRMW-replay: gathered ACKs discarded, INV re-broadcast in new epoch.
    assert!(c.node(0).stats().invs_sent > invs_before);
    assert!(c.reply_of(rmw).is_none(), "ACKs were reset");
    c.deliver_all();
    c.assert_reply(rmw, Reply::RmwOk { prior: v(1) });
    c.assert_converged(K);
    assert_eq!(c.node(1).key_value(K), v(2));
}

#[test]
fn rmw_on_invalid_key_queues_until_valid() {
    let mut c = Cluster::new(3, ProtocolConfig::default());
    c.write(0, K, v(1));
    c.deliver_matching(|e| e.msg.kind_name() == "INV");
    // Key is Invalid at node 1; RMW queues.
    let rmw = c.rmw(1, K, fetch_add(1));
    assert!(c.reply_of(rmw).is_none());
    assert_eq!(c.node(1).key_state(K), KeyState::Invalid);
    c.deliver_all();
    c.quiesce();
    c.assert_reply(rmw, Reply::RmwOk { prior: v(1) });
    assert_eq!(c.node(0).key_value(K), v(2));
}

#[test]
fn lock_service_pattern_mutual_exclusion() {
    // The Chubby/Zookeeper-style usage from the paper's intro: CAS-acquire
    // a lock; at most one concurrent acquirer wins.
    let mut c = Cluster::new(3, ProtocolConfig::default());
    c.write(0, K, v(0)); // initialize the lock to "free"
    c.deliver_all();
    let a = c.rmw(0, K, cas(0, 1)); // 0 = free; 1/2 = held by node
    let b = c.rmw(2, K, cas(0, 2));
    c.deliver_all();
    c.quiesce();
    let a_won = matches!(c.reply_of(a), Some(Reply::RmwOk { .. }));
    let b_won = matches!(c.reply_of(b), Some(Reply::RmwOk { .. }));
    assert!(
        a_won ^ b_won,
        "exactly one CAS must win (a: {a_won}, b: {b_won})"
    );
    c.assert_converged(K);
    let holder = c.node(0).key_value(K);
    assert_eq!(holder, if a_won { v(1) } else { v(2) });
}

#[test]
fn rmw_disabled_config_uses_single_increments() {
    let cfg = ProtocolConfig {
        rmw_support: false,
        ..ProtocolConfig::default()
    };
    let mut c = Cluster::new(3, cfg);
    c.write(0, K, v(1));
    c.deliver_all();
    assert_eq!(c.node(0).key_ts(K), Ts::new(1, 0));
    c.write(1, K, v(2));
    c.deliver_all();
    assert_eq!(c.node(0).key_ts(K), Ts::new(2, 1));
}

#[test]
fn aborted_rmw_never_takes_effect_without_faults() {
    // In fault-free runs an aborted RMW's value must never be observed.
    for _ in 0..5 {
        let mut c = Cluster::new(3, ProtocolConfig::default());
        c.write(0, K, v(7));
        c.deliver_all();
        let rmw = c.rmw(1, K, fetch_add(1000));
        let wr = c.write(2, K, v(8));
        c.deliver_all();
        c.quiesce();
        c.assert_reply(rmw, Reply::RmwAborted);
        c.assert_reply(wr, Reply::WriteOk);
        let fin = c.node(0).key_value(K);
        assert_eq!(fin, v(8), "aborted RMW value leaked: {fin:?}");
    }
}
