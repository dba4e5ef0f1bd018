//! End-to-end tests of failure-free reads and writes (paper §3.2).

use hermes_common::{Key, Reply, Value};
use hermes_core::{KeyState, ProtocolConfig, Ts};
use hermes_model::Cluster;

const K: Key = Key(7);

fn v(n: u64) -> Value {
    Value::from_u64(n)
}

#[test]
fn unwritten_keys_read_empty_everywhere() {
    let mut c = Cluster::new(5, ProtocolConfig::default());
    for node in 0..5 {
        let op = c.read(node, K);
        c.assert_reply(op, Reply::ReadOk(Value::EMPTY));
    }
    // Reads are local: nothing ever hit the network.
    assert!(c.inflight.is_empty());
}

#[test]
fn write_commits_after_all_acks_and_validates_followers() {
    let mut c = Cluster::new(3, ProtocolConfig::default());
    let w = c.write(0, K, v(42));

    // INV broadcast is in flight; the write has not committed yet.
    assert!(c.reply_of(w).is_none());
    assert_eq!(c.node(0).key_state(K), KeyState::Write);

    // Deliver INVs: followers invalidate and ACK.
    c.deliver_matching(|e| e.msg.kind_name() == "INV");
    assert_eq!(c.node(1).key_state(K), KeyState::Invalid);
    assert_eq!(c.node(2).key_state(K), KeyState::Invalid);
    // Early value propagation: followers already hold the new value.
    assert_eq!(c.node(1).key_value(K), v(42));

    // Deliver ACKs: the coordinator commits and replies to the client.
    c.deliver_matching(|e| e.msg.kind_name() == "ACK");
    c.assert_reply(w, Reply::WriteOk);
    assert_eq!(c.node(0).key_state(K), KeyState::Valid);
    // Followers are still Invalid until the VAL arrives.
    assert_eq!(c.node(1).key_state(K), KeyState::Invalid);

    c.deliver_matching(|e| e.msg.kind_name() == "VAL");
    c.assert_converged(K);
}

#[test]
fn commit_point_is_before_val_delivery() {
    // The client reply is sent when all ACKs are in (1 RTT exposed latency);
    // VALs complete off the critical path (paper Figure 2).
    let mut c = Cluster::new(5, ProtocolConfig::default());
    let w = c.write(2, K, v(1));
    c.deliver_matching(|e| e.msg.kind_name() == "INV");
    c.deliver_matching(|e| e.msg.kind_name() == "ACK");
    c.assert_reply(w, Reply::WriteOk);
    // VALs still queued.
    assert!(c.inflight.iter().all(|e| e.msg.kind_name() == "VAL"));
    assert_eq!(c.inflight.len(), 4);
    c.deliver_all();
    c.assert_converged(K);
}

#[test]
fn any_replica_can_coordinate_writes() {
    // Decentralized writes: every node drives its own write to completion.
    let mut c = Cluster::new(5, ProtocolConfig::default());
    for node in 0..5 {
        let key = Key(100 + node as u64);
        let w = c.write(node, key, v(node as u64));
        c.deliver_all();
        c.assert_reply(w, Reply::WriteOk);
        c.assert_converged(key);
    }
}

#[test]
fn reads_after_write_return_new_value_at_every_replica() {
    let mut c = Cluster::new(5, ProtocolConfig::default());
    c.write(3, K, v(9));
    c.deliver_all();
    for node in 0..5 {
        let r = c.read(node, K);
        c.assert_reply(r, Reply::ReadOk(v(9)));
    }
}

#[test]
fn reads_stall_while_invalid_and_complete_on_val() {
    let mut c = Cluster::new(3, ProtocolConfig::default());
    c.write(0, K, v(5));
    c.deliver_matching(|e| e.msg.kind_name() == "INV");

    // A read at an invalidated follower stalls.
    let r = c.read(1, K);
    assert!(c.reply_of(r).is_none(), "read must stall on Invalid key");

    // Completing the write (ACKs then VAL) releases the read with the new
    // value — never the old one.
    c.deliver_all();
    c.assert_reply(r, Reply::ReadOk(v(5)));
}

#[test]
fn writes_queue_behind_local_in_flight_write() {
    let mut c = Cluster::new(3, ProtocolConfig::default());
    let w1 = c.write(0, K, v(1));
    let w2 = c.write(0, K, v(2)); // queued: key is in Write state locally
    assert!(c.reply_of(w2).is_none());
    c.deliver_all();
    c.assert_reply(w1, Reply::WriteOk);
    c.assert_reply(w2, Reply::WriteOk);
    c.assert_converged(K);
    // Final value is the second write's.
    assert_eq!(c.node(1).key_value(K), v(2));
    // Versions advanced twice (by 2 each, with RMW support on).
    assert_eq!(c.node(0).key_ts(K), Ts::new(4, 0));
}

#[test]
fn sequential_writes_from_different_nodes_advance_one_version_chain() {
    let mut c = Cluster::new(3, ProtocolConfig::default());
    for (i, node) in [(1u64, 0usize), (2, 1), (3, 2), (4, 0)] {
        let w = c.write(node, K, v(i));
        c.deliver_all();
        c.assert_reply(w, Reply::WriteOk);
    }
    c.assert_converged(K);
    assert_eq!(c.node(0).key_value(K), v(4));
    assert_eq!(c.node(0).key_ts(K).version, 8);
}

#[test]
fn local_read_api_matches_protocol_reads() {
    let mut c = Cluster::new(3, ProtocolConfig::default());
    assert_eq!(c.node(1).local_read(K), Some(Value::EMPTY));
    c.write(0, K, v(6));
    c.deliver_matching(|e| e.msg.kind_name() == "INV");
    // Invalidated follower refuses a local read.
    assert_eq!(c.node(1).local_read(K), None);
    c.deliver_all();
    assert_eq!(c.node(1).local_read(K), Some(v(6)));
}

#[test]
fn no_replays_or_retransmits_in_failure_free_runs() {
    let mut c = Cluster::new(5, ProtocolConfig::default());
    for i in 0..20 {
        c.write(i % 5, Key(i as u64), v(i as u64));
        c.deliver_all();
    }
    c.quiesce();
    for node in 0..5 {
        let s = c.node(node).stats();
        assert_eq!(s.replays_started, 0, "node {node} replayed unnecessarily");
        assert_eq!(s.retransmits, 0, "node {node} retransmitted unnecessarily");
        assert_eq!(s.rmw_aborts, 0);
        assert_eq!(s.epoch_drops, 0);
    }
}

#[test]
fn message_counts_match_protocol_cost_model() {
    // One write in an n=5 group: 4 INVs, 4 ACKs, 4 VALs (paper: 1.5 RTTs,
    // 3(n-1) messages).
    let mut c = Cluster::new(5, ProtocolConfig::default());
    c.write(0, K, v(1));
    c.deliver_all();
    let coord = c.node(0).stats();
    assert_eq!(coord.invs_sent, 4);
    assert_eq!(coord.vals_sent, 4);
    assert_eq!(coord.acks_sent, 0);
    let follower_acks: u64 = (1..5).map(|i| c.node(i).stats().acks_sent).sum();
    assert_eq!(follower_acks, 4);
}

#[test]
fn read_only_workload_sends_no_messages() {
    let mut c = Cluster::new(7, ProtocolConfig::default());
    c.write(0, K, v(3));
    c.deliver_all();
    let sent_before: u64 = (0..7).map(|i| c.node(i).stats().messages_sent()).sum();
    for node in 0..7 {
        for _ in 0..100 {
            let r = c.read(node, K);
            c.assert_reply(r, Reply::ReadOk(v(3)));
        }
    }
    let sent_after: u64 = (0..7).map(|i| c.node(i).stats().messages_sent()).sum();
    assert_eq!(sent_before, sent_after, "reads must be entirely local");
}

#[test]
fn larger_groups_work_end_to_end() {
    for n in [1, 2, 3, 5, 7] {
        let mut c = Cluster::new(n, ProtocolConfig::default());
        let w = c.write(n - 1, K, v(n as u64));
        c.deliver_all();
        c.assert_reply(w, Reply::WriteOk);
        c.assert_converged(K);
    }
}
