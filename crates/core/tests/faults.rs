//! Fault tolerance: message loss, duplication, reordering, node crashes and
//! the write-replay machinery (paper §3.4).

use hermes_common::{Key, NodeId, Reply, Value};
use hermes_core::{KeyState, ProtocolConfig, Ts};
use hermes_model::Cluster;

const K: Key = Key(5);

fn v(n: u64) -> Value {
    Value::from_u64(n)
}

#[test]
fn lost_inv_is_retransmitted_until_acked() {
    let mut c = Cluster::new(3, ProtocolConfig::default());
    let w = c.write(0, K, v(1));
    // Lose the INV to node 2.
    assert_eq!(
        c.drop_matching(|e| e.to.0 == 2 && e.msg.kind_name() == "INV"),
        1
    );
    c.deliver_all();
    assert!(
        c.reply_of(w).is_none(),
        "cannot commit without node 2's ACK"
    );

    // mlt fires at the coordinator: retransmit only to the straggler.
    c.fire_timer(0, K);
    assert_eq!(c.node(0).stats().retransmits, 1);
    c.deliver_all();
    c.assert_reply(w, Reply::WriteOk);
    c.assert_converged(K);
}

#[test]
fn lost_ack_is_recovered_by_retransmission() {
    let mut c = Cluster::new(3, ProtocolConfig::default());
    let w = c.write(0, K, v(2));
    c.deliver_matching(|e| e.msg.kind_name() == "INV");
    assert_eq!(
        c.drop_matching(|e| e.from.0 == 1 && e.msg.kind_name() == "ACK"),
        1
    );
    c.deliver_all();
    assert!(c.reply_of(w).is_none());
    c.fire_timer(0, K);
    // The duplicate INV at node 1 (equal ts) is re-ACKed without state
    // change (FACK is unconditional).
    c.deliver_all();
    c.assert_reply(w, Reply::WriteOk);
    c.assert_converged(K);
}

#[test]
fn lost_val_triggers_follower_replay() {
    let mut c = Cluster::new(3, ProtocolConfig::default());
    let w = c.write(0, K, v(3));
    c.deliver_matching(|e| e.msg.kind_name() == "INV");
    c.deliver_matching(|e| e.msg.kind_name() == "ACK");
    c.assert_reply(w, Reply::WriteOk);
    // Both VALs are lost.
    assert_eq!(c.drop_matching(|e| e.msg.kind_name() == "VAL"), 2);
    assert_eq!(c.node(1).key_state(K), KeyState::Invalid);

    // A read stalls at node 1; its mlt expires; node 1 replays the write
    // with the original timestamp.
    let r = c.read(1, K);
    assert!(c.reply_of(r).is_none());
    c.fire_timer(1, K);
    assert_eq!(c.node(1).key_state(K), KeyState::Replay);
    c.deliver_all();
    c.assert_reply(r, Reply::ReadOk(v(3)));
    assert_eq!(c.node(1).stats().replays_started, 1);
    c.quiesce();
    c.assert_converged(K);
}

#[test]
fn duplicated_messages_are_harmless() {
    let mut c = Cluster::new(3, ProtocolConfig::default());
    let w = c.write(0, K, v(4));
    // Duplicate everything currently in flight (INVs), then again after the
    // ACKs appear, then the VALs.
    c.duplicate_matching(|_| true);
    c.deliver_matching(|e| e.msg.kind_name() == "INV");
    c.duplicate_matching(|e| e.msg.kind_name() == "ACK");
    c.deliver_all();
    c.assert_reply(w, Reply::WriteOk);
    c.quiesce();
    c.assert_converged(K);
    assert_eq!(c.node(1).key_value(K), v(4));
    // Exactly one commit happened at the coordinator.
    assert_eq!(c.node(0).stats().commits, 1);
}

#[test]
fn reordered_val_before_inv_is_ignored_then_recovered() {
    let mut c = Cluster::new(3, ProtocolConfig::default());
    let w = c.write(0, K, v(5));
    // Hold node 2's INV; deliver node 1's flow fully.
    c.deliver_matching(|e| e.to.0 == 1 && e.msg.kind_name() == "INV");
    // Node 1 ACKs; node 2's INV still in flight. ACK from node 2 cannot
    // exist yet, so the write cannot commit. Simulate severe reordering by
    // delivering node 2's INV only after everything else.
    c.deliver_matching(|e| e.msg.kind_name() == "ACK");
    assert!(c.reply_of(w).is_none());
    c.deliver_all(); // delivers the INV to node 2, its ACK, commit, VALs
    c.assert_reply(w, Reply::WriteOk);
    c.assert_converged(K);
}

#[test]
fn coordinator_crash_before_any_inv_leaves_no_trace() {
    let mut c = Cluster::new(3, ProtocolConfig::default());
    let w = c.write(0, K, v(6));
    // Crash before any INV is delivered: the write vanishes.
    c.crash(0);
    c.reconfigure(c.node(1).view().without_node(NodeId(0)));
    c.deliver_all();
    assert!(
        c.reply_of(w).is_none(),
        "client never hears back (crashed node)"
    );
    let r = c.read(1, K);
    c.assert_reply(r, Reply::ReadOk(Value::EMPTY));
    assert_eq!(c.node(1).key_ts(K), Ts::ZERO);
}

#[test]
fn coordinator_crash_after_partial_inv_resolves_by_replay() {
    // The paper's headline fault case: an invalidated follower replays the
    // dead coordinator's write, using the value carried by the INV.
    let mut c = Cluster::new(3, ProtocolConfig::default());
    c.write(0, K, v(7));
    // Only node 1 receives the INV; node 2 never does.
    c.deliver_matching(|e| e.to.0 == 1 && e.msg.kind_name() == "INV");
    assert_eq!(c.node(1).key_state(K), KeyState::Invalid);
    c.crash(0);
    c.reconfigure(c.node(1).view().without_node(NodeId(0)));

    // A read at node 1 stalls, the timer fires, the replay completes the
    // dead node's write across the surviving group.
    let r = c.read(1, K);
    c.fire_timer(1, K);
    c.deliver_all();
    c.assert_reply(r, Reply::ReadOk(v(7)));
    c.assert_converged(K);
    // Node 2 received the replayed INV with the original cid of node 0.
    assert_eq!(c.node(2).key_ts(K).cid, 0);
    assert_eq!(c.node(2).key_value(K), v(7));
}

#[test]
fn follower_crash_mid_write_commit_completes_after_reconfiguration() {
    let mut c = Cluster::new(3, ProtocolConfig::default());
    let w = c.write(0, K, v(8));
    // Node 2 crashes before ACKing.
    c.deliver_matching(|e| e.to.0 == 1 && e.msg.kind_name() == "INV");
    c.deliver_matching(|e| e.msg.kind_name() == "ACK");
    c.crash(2);
    assert!(c.reply_of(w).is_none(), "write blocked on dead node's ACK");

    // After lease expiry the membership is updated; the coordinator is no
    // longer missing any ACKs and the write commits (paper §3.2,
    // "the coordinator waits ... until the membership is reliably updated").
    c.reconfigure(c.node(0).view().without_node(NodeId(2)));
    c.assert_reply(w, Reply::WriteOk);
    c.deliver_all();
    c.assert_converged(K);
}

#[test]
fn dead_node_messages_from_old_epoch_are_dropped() {
    let mut c = Cluster::new(3, ProtocolConfig::default());
    c.write(0, K, v(9));
    c.deliver_matching(|e| e.to.0 == 1 && e.msg.kind_name() == "INV");
    // Reconfigure (say node 2 was suspected) while node 2's traffic from
    // epoch 0 is still in flight.
    c.reconfigure(c.node(0).view().without_node(NodeId(2)));
    let drops_before = c.node(0).stats().epoch_drops + c.node(1).stats().epoch_drops;
    c.deliver_all(); // old-epoch ACK/INV arrive at nodes now in epoch 1
    let drops_after = c.node(0).stats().epoch_drops + c.node(1).stats().epoch_drops;
    assert!(
        drops_after > drops_before,
        "stale-epoch messages must be dropped at ingress"
    );
    c.quiesce();
    c.assert_converged(K);
}

#[test]
fn replay_races_original_coordinator_safely() {
    // An early (spurious) replay by a follower races the still-alive
    // coordinator: both drive the same timestamp; all replicas converge and
    // the client gets exactly one WriteOk.
    let mut c = Cluster::new(3, ProtocolConfig::default());
    let w = c.write(0, K, v(10));
    c.deliver_matching(|e| e.msg.kind_name() == "INV");
    // Node 1's reader times out *before* the write finishes (mlt too short).
    let r = c.read(1, K);
    c.fire_timer(1, K);
    assert_eq!(c.node(1).key_state(K), KeyState::Replay);
    c.deliver_all();
    c.quiesce();
    c.assert_reply(w, Reply::WriteOk);
    c.assert_reply(r, Reply::ReadOk(v(10)));
    c.assert_converged(K);
    let replies: Vec<_> = c.replies.iter().filter(|(o, _)| *o == w).collect();
    assert_eq!(replies.len(), 1, "exactly one client reply per op");
}

#[test]
fn replay_of_replay_after_second_failure() {
    // Node 0 writes, crashes; node 1 starts replaying, crashes too; node 2
    // (which saw only the replay INV) replays again and finishes alone...
    // with a group of 1.
    let mut c = Cluster::new(3, ProtocolConfig::default());
    c.write(0, K, v(11));
    c.deliver_matching(|e| e.to.0 == 1 && e.msg.kind_name() == "INV");
    c.crash(0);
    c.reconfigure(c.node(1).view().without_node(NodeId(0)));
    let r1 = c.read(1, K);
    c.fire_timer(1, K);
    // Replay INV reaches node 2, then node 1 dies before gathering ACKs.
    c.deliver_matching(|e| e.to.0 == 2 && e.msg.kind_name() == "INV");
    assert_eq!(c.node(2).key_value(K), v(11));
    c.crash(1);
    c.reconfigure(c.node(2).view().without_node(NodeId(1)));
    assert!(c.reply_of(r1).is_none());

    let r2 = c.read(2, K);
    c.fire_timer(2, K);
    c.deliver_all();
    c.assert_reply(r2, Reply::ReadOk(v(11)));
    assert_eq!(c.node(2).key_state(K), KeyState::Valid);
    assert_eq!(
        c.node(2).key_ts(K).cid,
        0,
        "original timestamp preserved twice"
    );
}

#[test]
fn minority_node_removed_from_view_stops_serving() {
    let mut c = Cluster::new(3, ProtocolConfig::default());
    c.write(0, K, v(12));
    c.deliver_all();
    // Nodes 0 and 1 form the primary partition; node 2 is cut off and the
    // primary side reconfigures without it.
    let view = c.node(0).view().without_node(NodeId(2));
    c.reconfigure(view);
    // Node 2 (still on the old epoch, lease expired) refuses clients.
    let r = c.read(2, K);
    c.assert_reply(r, Reply::NotOperational);
    // The primary partition keeps serving reads and writes.
    let r = c.read(0, K);
    c.assert_reply(r, Reply::ReadOk(v(12)));
    let w = c.write(1, K, v(13));
    c.deliver_all();
    c.assert_reply(w, Reply::WriteOk);
}

#[test]
fn shadow_replica_joins_catches_up_and_serves_after_promotion() {
    let mut c = Cluster::new(4, ProtocolConfig::default());
    // Node 3 starts outside the group.
    let base = hermes_common::MembershipView {
        epoch: hermes_common::Epoch(0),
        members: hermes_common::NodeSet::first_n(3),
        shadows: hermes_common::NodeSet::EMPTY,
    };
    for i in 0..4 {
        let mut fx = Vec::new();
        c.nodes[i].on_membership_update(base, &mut fx);
    }
    // Write some data in the 3-node group.
    c.write(0, K, v(14));
    c.deliver_all();

    // Node 3 joins as a shadow: it must ACK writes but serves no clients.
    let with_shadow = base.with_shadow(NodeId(3));
    c.reconfigure(with_shadow);
    let r = c.read(3, K);
    c.assert_reply(r, Reply::NotOperational);

    // A new write now requires the shadow's ACK too.
    let w = c.write(1, Key(99), v(1));
    c.deliver_matching(|e| e.to.0 != 3);
    assert!(c.reply_of(w).is_none(), "shadow ACK required");
    c.deliver_all();
    c.assert_reply(w, Reply::WriteOk);

    // Bulk catch-up: copy committed state from node 0, then promote.
    let chunks: Vec<_> = c
        .node(0)
        .entries()
        .map(|(k, e)| (*k, e.ts, e.value.clone(), e.kind))
        .collect();
    for (k, ts, val, kind) in chunks {
        c.nodes[3].install_chunk(k, ts, val, kind);
    }
    c.reconfigure(with_shadow.with_promoted(NodeId(3)));
    let r = c.read(3, K);
    c.assert_reply(r, Reply::ReadOk(v(14)));
    let r = c.read(3, Key(99));
    c.assert_reply(r, Reply::ReadOk(v(1)));
}

#[test]
fn stale_membership_updates_are_ignored() {
    let mut c = Cluster::new(3, ProtocolConfig::default());
    let v1 = c.node(0).view().without_node(NodeId(2));
    c.reconfigure(v1);
    // Replaying the original epoch-0 view must be a no-op.
    c.reconfigure(hermes_common::MembershipView::initial(3));
    assert_eq!(c.node(0).view(), v1);
    assert_eq!(c.node(0).view().epoch, hermes_common::Epoch(1));
}

#[test]
fn convergence_under_random_loss_with_retransmission() {
    // Lossy network: drop ~30% of messages deterministically, rely on mlt
    // retransmissions and replays to converge. Repeat with several patterns.
    for seed in 0..10u64 {
        let mut c = Cluster::new(3, ProtocolConfig::default());
        let mut ops = Vec::new();
        for i in 0..8 {
            ops.push(c.write((i % 3) as usize, K, v(seed * 100 + i)));
            // Deterministic pseudo-random drops keyed by (seed, i).
            let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(i);
            c.drop_matching(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) % 10 < 3
            });
            c.deliver_all();
        }
        // Drive recovery: fire timers + deliver until quiescent.
        c.quiesce();
        c.assert_converged(K);
        for op in ops {
            c.assert_reply(op, Reply::WriteOk);
        }
    }
}
