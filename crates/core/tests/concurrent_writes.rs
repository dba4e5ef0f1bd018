//! Conflicting-write behaviour: concurrent writes never abort, linearize by
//! timestamp, and the Trans state handles superseded coordinators
//! (paper §3.1, §3.5 and Figure 4).

use hermes_common::{Key, Reply, Value};
use hermes_core::{KeyState, ProtocolConfig, Ts};
use hermes_model::Cluster;

const A: Key = Key(1);

fn v(n: u64) -> Value {
    Value::from_u64(n)
}

/// The exact operational example of paper Figure 4 (nodes renumbered 0-2):
/// concurrent writes A=1 (node 0) and A=3 (node 2), a stalled read on node
/// 1, then a VAL loss plus coordinator crash resolved by a write replay.
#[test]
fn figure4_operational_example() {
    let mut c = Cluster::new(3, ProtocolConfig::default());

    // Node 0 initiates write(A=1); node 2 initiates concurrent write(A=3).
    let w1 = c.write(0, A, v(1));
    let w3 = c.write(2, A, v(3));
    assert_eq!(c.node(0).key_state(A), KeyState::Write);
    assert_eq!(c.node(2).key_state(A), KeyState::Write);
    // Same version, different cid: node 2's timestamp is higher.
    let ts1 = c.node(0).key_ts(A);
    let ts3 = c.node(2).key_ts(A);
    assert_eq!(ts1, Ts::new(2, 0));
    assert_eq!(ts3, Ts::new(2, 2));
    assert!(ts3 > ts1);

    // Node 1 ACKs the INV from node 0: adopts value 1, goes Invalid.
    c.deliver_matching(|e| e.from.0 == 0 && e.to.0 == 1 && e.msg.kind_name() == "INV");
    assert_eq!(c.node(1).key_state(A), KeyState::Invalid);
    assert_eq!(c.node(1).key_value(A), v(1));
    assert_eq!(c.node(1).key_ts(A), ts1);

    // Node 2 ACKs node 0's INV but keeps its own higher-timestamped state.
    c.deliver_matching(|e| e.from.0 == 0 && e.to.0 == 2 && e.msg.kind_name() == "INV");
    assert_eq!(c.node(2).key_state(A), KeyState::Write);
    assert_eq!(c.node(2).key_value(A), v(3));

    // Node 1 receives node 2's INV: higher timestamp, adopt value 3,
    // remain Invalid.
    c.deliver_matching(|e| e.from.0 == 2 && e.to.0 == 1 && e.msg.kind_name() == "INV");
    assert_eq!(c.node(1).key_state(A), KeyState::Invalid);
    assert_eq!(c.node(1).key_value(A), v(3));
    assert_eq!(c.node(1).key_ts(A), ts3);

    // Node 0 receives node 2's INV while coordinating its own write:
    // adopts the value and moves to the Trans state (footnote 7).
    c.deliver_matching(|e| e.from.0 == 2 && e.to.0 == 0 && e.msg.kind_name() == "INV");
    assert_eq!(c.node(0).key_state(A), KeyState::Trans);
    assert_eq!(c.node(0).key_value(A), v(3));

    // Node 1 starts a read; it stalls because A is invalidated.
    let r1 = c.read(1, A);
    assert!(c.reply_of(r1).is_none());

    // Node 2 gathers all ACKs: its write commits, A becomes Valid there,
    // and it broadcasts VALs.
    c.deliver_matching(|e| e.to.0 == 2 && e.msg.kind_name() == "ACK");
    c.assert_reply(w3, Reply::WriteOk);
    assert_eq!(c.node(2).key_state(A), KeyState::Valid);

    // Node 1 receives node 2's VAL: validates and completes the stalled
    // read with value 3.
    c.deliver_matching(|e| e.from.0 == 2 && e.to.0 == 1 && e.msg.kind_name() == "VAL");
    assert_eq!(c.node(1).key_state(A), KeyState::Valid);
    c.assert_reply(r1, Reply::ReadOk(v(3)));

    // Node 0 gathers all ACKs for its own write: the write commits (it is
    // linearized *before* node 2's write despite completing later), but the
    // key transitions to Invalid because the VAL from node 2 is still
    // missing. With [O1] no VAL broadcast is sent for the superseded write.
    c.deliver_matching(|e| e.to.0 == 0 && e.msg.kind_name() == "ACK");
    c.assert_reply(w1, Reply::WriteOk);
    assert_eq!(c.node(0).key_state(A), KeyState::Invalid);
    assert_eq!(c.node(0).stats().vals_sent, 0, "[O1] superseded VAL elided");

    // Failure scenario: the VAL from node 2 to node 0 is lost and node 2
    // crashes. The membership is reliably updated after lease expiry.
    let lost = c.drop_matching(|e| e.from.0 == 2 && e.to.0 == 0 && e.msg.kind_name() == "VAL");
    assert_eq!(lost, 1);
    c.crash(2);
    let view = c.node(0).view().without_node(hermes_common::NodeId(2));
    c.reconfigure(view);

    // A read at node 0 finds A Invalid (invalidated by the dead node) and
    // stalls; the mlt timeout triggers a write replay of node 2's write
    // with its original timestamp and value.
    let r0 = c.read(0, A);
    assert!(c.reply_of(r0).is_none());
    c.fire_timer(0, A);
    assert_eq!(c.node(0).key_state(A), KeyState::Replay);
    assert_eq!(c.node(0).stats().replays_started, 1);

    // Node 1 ACKs the replay INV without re-applying (same timestamp); the
    // replay completes, A validates, and the read is finally served with 3.
    c.deliver_all();
    assert_eq!(c.node(0).key_state(A), KeyState::Valid);
    c.assert_reply(r0, Reply::ReadOk(v(3)));
    assert_eq!(c.node(0).key_ts(A), ts3, "replay preserves the original ts");
    c.assert_converged(A);
}

#[test]
fn concurrent_writes_both_commit_and_higher_cid_wins() {
    let mut c = Cluster::new(5, ProtocolConfig::default());
    let w_low = c.write(1, A, v(11));
    let w_high = c.write(3, A, v(33));
    c.deliver_all();
    c.quiesce();
    // Writes never abort: both clients get WriteOk (paper §3.1).
    c.assert_reply(w_low, Reply::WriteOk);
    c.assert_reply(w_high, Reply::WriteOk);
    c.assert_converged(A);
    // The higher cid write is linearized last, so its value remains.
    assert_eq!(c.node(0).key_value(A), v(33));
    assert_eq!(c.node(0).key_ts(A), Ts::new(2, 3));
}

#[test]
fn all_five_replicas_writing_concurrently_converge() {
    let mut c = Cluster::new(5, ProtocolConfig::default());
    let ops: Vec<_> = (0..5).map(|i| c.write(i, A, v(i as u64 + 100))).collect();
    c.deliver_all();
    c.quiesce();
    for op in ops {
        c.assert_reply(op, Reply::WriteOk);
    }
    c.assert_converged(A);
    // Highest cid (node 4) wins the same-version race.
    assert_eq!(c.node(0).key_value(A), v(104));
}

#[test]
fn delivery_order_does_not_change_outcome() {
    // Deliver the two INV broadcasts in opposite orders at different
    // followers; the logical timestamps still produce one global order.
    let mut c = Cluster::new(3, ProtocolConfig::default());
    c.write(0, A, v(1));
    c.write(2, A, v(3));
    // Follower 1 sees node 2's INV before node 0's.
    c.deliver_matching(|e| e.from.0 == 2 && e.to.0 == 1 && e.msg.kind_name() == "INV");
    c.deliver_matching(|e| e.from.0 == 0 && e.to.0 == 1 && e.msg.kind_name() == "INV");
    // The lower-timestamped INV must not regress the adopted state.
    assert_eq!(c.node(1).key_value(A), v(3));
    c.deliver_all();
    c.quiesce();
    c.assert_converged(A);
    assert_eq!(c.node(1).key_value(A), v(3));
}

#[test]
fn trans_coordinator_validates_via_val_before_own_acks() {
    // A coordinator whose write was superseded can be validated by the
    // superseding write's VAL while still waiting for its own ACKs; the
    // pending write then completes without disturbing the Valid state.
    let mut c = Cluster::new(3, ProtocolConfig::default());
    let w1 = c.write(0, A, v(1));
    let w3 = c.write(2, A, v(3));
    // Node 0 learns of the higher write -> Trans.
    c.deliver_matching(|e| e.from.0 == 2 && e.to.0 == 0 && e.msg.kind_name() == "INV");
    assert_eq!(c.node(0).key_state(A), KeyState::Trans);
    // Node 2's write completes fully (including its VAL to node 0).
    c.deliver_matching(|e| e.from.0 == 2 && e.to.0 == 1 && e.msg.kind_name() == "INV");
    c.deliver_matching(|e| e.to.0 == 2 && e.msg.kind_name() == "ACK");
    c.assert_reply(w3, Reply::WriteOk);
    c.deliver_matching(|e| e.msg.kind_name() == "VAL");
    assert_eq!(c.node(0).key_state(A), KeyState::Valid);
    assert!(c.reply_of(w1).is_none(), "own ACKs still outstanding");
    // Now node 0's own ACKs arrive: the write commits and replies without
    // changing the (already Valid, higher-timestamped) key.
    c.deliver_all();
    c.assert_reply(w1, Reply::WriteOk);
    assert_eq!(c.node(0).key_state(A), KeyState::Valid);
    assert_eq!(c.node(0).key_value(A), v(3));
}

#[test]
fn queued_writes_interleave_with_remote_writes() {
    let mut c = Cluster::new(3, ProtocolConfig::default());
    let w_a = c.write(0, A, v(10));
    let w_b = c.write(0, A, v(20)); // queued locally
    let w_c = c.write(1, A, v(30)); // concurrent remote write
    c.deliver_all();
    c.quiesce();
    for op in [w_a, w_b, w_c] {
        c.assert_reply(op, Reply::WriteOk);
    }
    c.assert_converged(A);
    // w_b was issued after w_a committed, so its version is the highest
    // chain; the final value must be from the maximal timestamp.
    let final_ts = c.node(0).key_ts(A);
    let final_val = c.node(0).key_value(A);
    assert!(final_ts.version >= 4);
    assert!(final_val == v(20) || final_val == v(30));
}

#[test]
fn inter_key_concurrency_no_cross_key_interference() {
    // Writes to different keys proceed fully in parallel: each key's
    // message flow is independent (no leader, no chain).
    let mut c = Cluster::new(3, ProtocolConfig::default());
    let keys: Vec<Key> = (0..50).map(Key).collect();
    let ops: Vec<_> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| c.write(i % 3, k, v(i as u64)))
        .collect();
    // Nothing has committed yet; all 50 writes are in flight at once.
    assert!(ops.iter().all(|op| c.reply_of(*op).is_none()));
    c.deliver_all();
    for (i, op) in ops.iter().enumerate() {
        c.assert_reply(*op, Reply::WriteOk);
        c.assert_converged(keys[i]);
    }
}

#[test]
fn same_version_different_values_resolved_identically_everywhere() {
    // Three concurrent writers, then check every pairwise replica state
    // byte-for-byte (the "conflict-free write resolution" property).
    let mut c = Cluster::new(3, ProtocolConfig::default());
    c.write(0, A, v(7));
    c.write(1, A, v(8));
    c.write(2, A, v(9));
    c.deliver_all();
    c.quiesce();
    c.assert_converged(A);
    assert_eq!(c.node(0).key_value(A), v(9), "cid 2 wins the version tie");
}
