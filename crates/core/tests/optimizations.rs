//! The paper's §3.3 protocol optimizations: O1 (elide superseded VALs),
//! O2 (virtual node ids for fairness), O3 (broadcast ACKs to cut follower
//! read-blocking latency and drop VALs entirely).

use hermes_common::{Key, Reply, Value};
use hermes_core::{KeyState, ProtocolConfig};
use hermes_model::Cluster;

const K: Key = Key(11);

fn v(n: u64) -> Value {
    Value::from_u64(n)
}

fn o3_config() -> ProtocolConfig {
    ProtocolConfig {
        broadcast_acks: true,
        ..ProtocolConfig::default()
    }
}

// ---------------------------------------------------------------- O1 ----

#[test]
fn o1_elides_val_for_superseded_write() {
    let mut c = Cluster::new(3, ProtocolConfig::default());
    c.write(0, K, v(1));
    c.write(2, K, v(3)); // higher cid: supersedes node 0's write
    c.deliver_all();
    c.quiesce();
    c.assert_converged(K);
    // Node 0 went through Trans; with O1 on (default) it sent no VALs.
    assert_eq!(c.node(0).stats().vals_sent, 0);
    assert_eq!(c.node(2).stats().vals_sent, 2);
}

#[test]
fn o1_disabled_sends_redundant_vals_harmlessly() {
    let cfg = ProtocolConfig {
        elide_superseded_val: false,
        ..ProtocolConfig::default()
    };
    let mut c = Cluster::new(3, cfg);
    c.write(0, K, v(1));
    c.write(2, K, v(3));
    c.deliver_all();
    c.quiesce();
    c.assert_converged(K);
    // Without O1 the superseded coordinator also broadcast VALs; they carry
    // a stale ts and are ignored, but cost bandwidth.
    assert_eq!(c.node(0).stats().vals_sent, 2);
    assert_eq!(c.node(0).key_value(K), v(3));
}

// ---------------------------------------------------------------- O2 ----

#[test]
fn o2_virtual_ids_rotate_and_stay_unique_per_node() {
    let cfg = ProtocolConfig {
        virtual_ids_per_node: 4,
        ..ProtocolConfig::default()
    };
    let mut c = Cluster::new(3, cfg);
    let mut seen_cids = std::collections::BTreeSet::new();
    for i in 0..8 {
        c.write(0, Key(100 + i), v(i));
        c.deliver_all();
        seen_cids.insert(c.node(0).key_ts(Key(100 + i)).cid);
    }
    // Node 0 cycled through its 4 virtual ids: {0, 64, 128, 192}.
    assert_eq!(
        seen_cids.into_iter().collect::<Vec<_>>(),
        vec![0, 64, 128, 192]
    );
}

#[test]
fn o2_lets_low_id_nodes_win_some_conflicts() {
    // Without O2, node 0 loses every same-version conflict against node 1.
    // With 4 virtual ids, node 0 sometimes carries a higher cid.
    let cfg = ProtocolConfig {
        virtual_ids_per_node: 4,
        ..ProtocolConfig::default()
    };
    let mut node0_wins = 0;
    for round in 0..4u64 {
        let mut c = Cluster::new(2, cfg);
        // Align node 0's vid rotation to the round (different vid per run).
        for _ in 0..round {
            c.write(0, Key(999), v(0));
            c.deliver_all();
        }
        let k = Key(round);
        c.write(0, k, v(100));
        c.write(1, k, v(200));
        c.deliver_all();
        c.quiesce();
        c.assert_converged(k);
        if c.node(0).key_value(k) == v(100) {
            node0_wins += 1;
        }
    }
    assert!(
        (1..4).contains(&node0_wins),
        "O2 should split conflict wins, node0 won {node0_wins}/4"
    );
}

#[test]
fn o2_ids_never_collide_across_nodes() {
    let cfg = ProtocolConfig {
        virtual_ids_per_node: 8,
        ..ProtocolConfig::default()
    };
    // vid sets are {i + 64k}: node index recoverable as cid % 64.
    let mut c = Cluster::new(5, cfg);
    for i in 0..40 {
        let node = i % 5;
        c.write(node, Key(i as u64), v(0));
        c.deliver_all();
        let cid = c.node(node).key_ts(Key(i as u64)).cid;
        assert_eq!(cid % 64, node as u32, "cid {cid} not owned by node {node}");
    }
}

// ---------------------------------------------------------------- O3 ----

#[test]
fn o3_sends_no_vals_at_all() {
    let mut c = Cluster::new(5, o3_config());
    let w = c.write(0, K, v(9));
    c.deliver_all();
    c.assert_reply(w, Reply::WriteOk);
    c.quiesce();
    for i in 0..5 {
        assert_eq!(
            c.node(i).stats().vals_sent,
            0,
            "node {i} sent a VAL under O3"
        );
        assert_eq!(c.node(i).key_state(K), KeyState::Valid);
        assert_eq!(c.node(i).key_value(K), v(9));
    }
}

#[test]
fn o3_follower_serves_reads_after_acks_without_val() {
    let mut c = Cluster::new(3, o3_config());
    c.write(0, K, v(5));
    // Deliver INVs; followers broadcast ACKs.
    c.deliver_matching(|e| e.msg.kind_name() == "INV");
    assert_eq!(c.node(1).key_state(K), KeyState::Invalid);
    let r = c.read(1, K);
    assert!(c.reply_of(r).is_none());
    // Deliver only the ACK traffic between the followers (1 <-> 2), not to
    // the coordinator: node 1 then knows every other replica has the value.
    c.deliver_matching(|e| e.msg.kind_name() == "ACK" && e.to.0 != 0);
    assert_eq!(c.node(1).key_state(K), KeyState::Valid);
    c.assert_reply(r, Reply::ReadOk(v(5)));
    // The coordinator still hasn't committed (its ACKs weren't delivered).
    assert_eq!(c.node(0).key_state(K), KeyState::Write);
    c.deliver_all();
    c.quiesce();
    c.assert_converged(K);
}

#[test]
fn o3_ack_fanout_increases_but_vals_vanish() {
    let mut base = Cluster::new(5, ProtocolConfig::default());
    base.write(0, K, v(1));
    base.deliver_all();
    let base_acks: u64 = (0..5).map(|i| base.node(i).stats().acks_sent).sum();
    let base_vals: u64 = (0..5).map(|i| base.node(i).stats().vals_sent).sum();

    let mut o3 = Cluster::new(5, o3_config());
    o3.write(0, K, v(1));
    o3.deliver_all();
    let o3_acks: u64 = (0..5).map(|i| o3.node(i).stats().acks_sent).sum();
    let o3_vals: u64 = (0..5).map(|i| o3.node(i).stats().vals_sent).sum();

    assert_eq!(base_acks, 4);
    assert_eq!(base_vals, 4);
    assert_eq!(o3_acks, 16, "each of 4 followers broadcasts to 4 peers");
    assert_eq!(o3_vals, 0);
}

#[test]
fn o3_handles_ack_before_inv_reordering() {
    let mut c = Cluster::new(3, o3_config());
    c.write(0, K, v(7));
    // Deliver node 2's INV and its broadcast ACKs *before* node 1 sees the
    // INV: node 1 buffers the ACK for the yet-unknown timestamp.
    c.deliver_matching(|e| e.to.0 == 2 && e.msg.kind_name() == "INV");
    c.deliver_matching(|e| e.from.0 == 2 && e.to.0 == 1 && e.msg.kind_name() == "ACK");
    assert_eq!(c.node(1).key_state(K), KeyState::Valid, "INV not yet seen");
    // Now the INV arrives; node 1 only needs node 2's (already-seen) ACK.
    c.deliver_matching(|e| e.to.0 == 1 && e.msg.kind_name() == "INV");
    assert_eq!(
        c.node(1).key_state(K),
        KeyState::Valid,
        "buffered ACK must count after INV arrives"
    );
    assert_eq!(c.node(1).key_value(K), v(7));
    c.deliver_all();
    c.quiesce();
    c.assert_converged(K);
}

#[test]
fn o3_concurrent_writes_converge() {
    let mut c = Cluster::new(5, o3_config());
    let ops: Vec<_> = (0..5).map(|i| c.write(i, K, v(i as u64))).collect();
    c.deliver_all();
    c.quiesce();
    for op in ops {
        c.assert_reply(op, Reply::WriteOk);
    }
    c.assert_converged(K);
    assert_eq!(c.node(0).key_value(K), v(4));
}

#[test]
fn o3_with_replay_after_coordinator_crash() {
    let mut c = Cluster::new(3, o3_config());
    c.write(0, K, v(8));
    // Only node 1 sees the INV; coordinator dies.
    c.deliver_matching(|e| e.to.0 == 1 && e.msg.kind_name() == "INV");
    c.crash(0);
    c.reconfigure(c.node(1).view().without_node(hermes_common::NodeId(0)));
    let r = c.read(1, K);
    c.fire_timer(1, K);
    c.deliver_all();
    c.quiesce();
    c.assert_reply(r, Reply::ReadOk(v(8)));
    c.assert_converged(K);
}

#[test]
fn all_optimizations_together() {
    let cfg = ProtocolConfig {
        rmw_support: true,
        elide_superseded_val: true,
        virtual_ids_per_node: 4,
        broadcast_acks: true,
    };
    let mut c = Cluster::new(5, cfg);
    let ops: Vec<_> = (0..5)
        .map(|i| c.write(i, Key(i as u64 % 2), v(i as u64)))
        .collect();
    c.deliver_all();
    c.quiesce();
    for op in ops {
        c.assert_reply(op, Reply::WriteOk);
    }
    c.assert_converged(Key(0));
    c.assert_converged(Key(1));
}
