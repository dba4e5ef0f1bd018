//! Cross-crate integration: the real threaded Hermes deployment
//! (core + wings + net + store + replica) under concurrency and faults.

use hermes::harness::{check_linearizable_per_key, run_recorded_session, RecordedOp};
use hermes::model::{OpKind, Outcome};
use hermes::net::NetFaults;
use hermes::prelude::*;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

#[test]
fn five_replicas_converge_under_concurrent_load() {
    let cluster = Arc::new(ThreadCluster::start(5, ProtocolConfig::default()));
    let mut handles = Vec::new();
    for worker in 0..5usize {
        let c = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            for i in 0..40u64 {
                let key = Key(i % 10);
                let r = c.write(worker, key, Value::from_u64(worker as u64 * 10_000 + i));
                assert_eq!(r, Reply::WriteOk);
                // Interleave reads through a different replica.
                let r = c.read((worker + 1) % 5, key);
                assert!(matches!(r, Reply::ReadOk(_)));
            }
        }));
    }
    for h in handles {
        h.join().expect("writer thread");
    }
    // Convergence: after quiescing, all replicas agree on every key.
    for key in 0..10u64 {
        let mut answers = std::collections::BTreeSet::new();
        for node in 0..5 {
            match cluster.read(node, Key(key)) {
                Reply::ReadOk(v) => {
                    answers.insert(v.to_u64());
                }
                other => panic!("read failed at node {node}: {other:?}"),
            }
        }
        assert_eq!(answers.len(), 1, "replicas disagree on k{key}: {answers:?}");
    }
}

#[test]
fn counter_rmws_are_atomic_across_replicas() {
    let cluster = Arc::new(ThreadCluster::start(3, ProtocolConfig::default()));
    assert_eq!(cluster.write(0, Key(0), Value::from_u64(0)), Reply::WriteOk);
    let mut handles = Vec::new();
    let per_thread = 25u64;
    for worker in 0..3usize {
        let c = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            let mut committed = 0u64;
            for _ in 0..per_thread {
                // Retry aborted RMWs: conflicts abort, retries eventually
                // commit (paper §3.6: progress in the absence of faults).
                loop {
                    match c.rmw(worker, Key(0), RmwOp::FetchAdd { delta: 1 }) {
                        Reply::RmwOk { .. } => {
                            committed += 1;
                            break;
                        }
                        Reply::RmwAborted => continue,
                        other => panic!("unexpected rmw reply: {other:?}"),
                    }
                }
            }
            committed
        }));
    }
    let total: u64 = handles.into_iter().map(|h| h.join().expect("worker")).sum();
    assert_eq!(total, 3 * per_thread);
    let Reply::ReadOk(v) = cluster.read(1, Key(0)) else {
        panic!("final read failed")
    };
    assert_eq!(
        v.to_u64(),
        Some(total),
        "every committed fetch-add must be counted exactly once"
    );
}

#[test]
fn lossy_network_still_linearizes() {
    let cluster = ThreadCluster::launch(ClusterConfig {
        faults: NetFaults {
            drop_prob: 0.15,
            duplicate_prob: 0.1,
        },
        seed: 99,
        ..ClusterConfig::default()
    });
    // Writes followed by reads through different replicas: reads must always
    // observe the committed value despite loss/duplication.
    for i in 0..15u64 {
        assert_eq!(
            cluster.write((i % 3) as usize, Key(i), Value::from_u64(i * 7)),
            Reply::WriteOk
        );
        let r = cluster.read(((i + 2) % 3) as usize, Key(i));
        assert_eq!(r, Reply::ReadOk(Value::from_u64(i * 7)), "key {i}");
    }
    cluster.shutdown();
}

#[test]
fn o3_configuration_works_threaded() {
    let cfg = ProtocolConfig {
        broadcast_acks: true,
        ..ProtocolConfig::default()
    };
    let cluster = ThreadCluster::start(3, cfg);
    for i in 0..10u64 {
        assert_eq!(
            cluster.write((i % 3) as usize, Key(i), Value::from_u64(i)),
            Reply::WriteOk
        );
    }
    for i in 0..10u64 {
        assert_eq!(
            cluster.read(((i + 1) % 3) as usize, Key(i)),
            Reply::ReadOk(Value::from_u64(i))
        );
    }
    cluster.shutdown();
}

/// A value's size is bounded at 16 MiB, by the wire and the mirror alike,
/// not by a fixed slot: a slot is as long as what it holds. (A 1 025 B
/// write used to trip a fixed slot's capacity assert inside the owning
/// lane, and every later operation on that lane with it.)
#[test]
fn values_of_any_size_write_through_and_read_back_on_every_replica() {
    let cluster = ThreadCluster::start(3, ProtocolConfig::default());
    let key = Key(3);
    let read_everywhere = |value: &Value| {
        for node in 0..3 {
            assert_eq!(cluster.read(node, key), Reply::ReadOk(value.clone()));
            assert_eq!(cluster.read_local(node, key).as_ref(), Some(value));
        }
    };
    for (fill, len) in [(7u8, 1025usize), (8, 4 << 10), (9, 64 << 10)] {
        let value = Value::filled(fill, len);
        assert_eq!(cluster.write(0, key, value.clone()), Reply::WriteOk);
        read_everywhere(&value);
    }
    // A short value over a long one reads back short.
    let short = Value::from_u64(1);
    assert_eq!(cluster.write(0, key, short.clone()), Reply::WriteOk);
    read_everywhere(&short);
    // The lane that took the long writes still serves.
    assert_eq!(cluster.write(1, key, Value::EMPTY), Reply::WriteOk);
    read_everywhere(&Value::EMPTY);
    cluster.shutdown();
}

/// The mirror's slots hold values under 16 MiB (`hermes::store::MAX_VALUE`).
/// An in-process session can submit a longer one, which no client frame
/// carries: the lane refuses it before the engine replicates it, and
/// serves on.
#[test]
fn a_value_too_long_for_the_mirror_is_refused_and_the_lane_serves_on() {
    let cluster = ThreadCluster::start(3, ProtocolConfig::default());
    let (key, value) = (Key(3), Value::from_u64(7));
    let long = Value::filled(1, hermes::store::MAX_VALUE + 1);
    assert_eq!(cluster.write(0, key, long), Reply::Unsupported);
    assert_eq!(cluster.write(0, key, value.clone()), Reply::WriteOk);
    assert_eq!(cluster.read(1, key), Reply::ReadOk(value));
    cluster.shutdown();
}

/// An idle key lives only in its mirror slot, so the slot must give back
/// what the engine held byte for byte: a 1 KiB value reads back exactly on
/// every replica once the write is done, and a compare-and-swap against
/// it — run by an engine that rebuilt the key from that slot — matches.
#[test]
fn a_1_kib_value_reads_back_byte_for_byte_from_every_mirror() {
    let cluster = ThreadCluster::start(3, ProtocolConfig::default());
    let key = Key(11);
    let value = Value::from(
        (0..1024u32)
            .map(|i| (i * 7 % 251) as u8)
            .collect::<Vec<u8>>(),
    );
    let read_back = |value: &Value| {
        for node in 0..3 {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            // A follower serves once the VAL has reached it.
            let got = loop {
                match cluster.read_local(node, key) {
                    Some(got) => break got,
                    None if std::time::Instant::now() < deadline => std::thread::yield_now(),
                    None => panic!("node {node} never validated {key}"),
                }
            };
            assert_eq!(got.as_bytes(), value.as_bytes(), "node {node}");
        }
    };
    assert_eq!(cluster.write(0, key, value.clone()), Reply::WriteOk);
    read_back(&value);
    let new = Value::filled(3, 1024);
    let cas = RmwOp::CompareAndSwap {
        expect: value.clone(),
        new: new.clone(),
    };
    assert_eq!(cluster.rmw(1, key, cas), Reply::RmwOk { prior: value });
    read_back(&new);
    cluster.shutdown();
}

/// Concurrent *pipelined* sessions against a 3-node × 2-lane cluster: the
/// merged invocation/response history, stamped from one shared counter so
/// real-time precedence across client threads is exact, is linearizable
/// per key.
#[test]
fn concurrent_pipelined_sessions_are_linearizable() {
    const KEYS: u64 = 6;
    const SESSIONS: usize = 6;
    const OPS_PER_SESSION: u64 = 30;
    const DEPTH: usize = 4;

    let cluster = Arc::new(ThreadCluster::launch(ClusterConfig {
        nodes: 3,
        workers_per_node: 2,
        ..ClusterConfig::default()
    }));
    assert!(
        cluster.workers_per_node() >= 2,
        "the point is exercising the sharded multi-worker path"
    );
    // The key set must span distinct shards so sessions really run on
    // different workers concurrently.
    let shards: std::collections::BTreeSet<usize> = (0..KEYS).map(|k| Key(k).shard(2)).collect();
    assert!(shards.len() >= 2, "keys must cover ≥ 2 shards: {shards:?}");

    let clock = Arc::new(AtomicU64::new(0));
    let joins: Vec<_> = (0..SESSIONS)
        .map(|sid| {
            let cluster = Arc::clone(&cluster);
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || {
                let mut session = cluster.session(sid % 3);
                let sid = sid as u64;
                run_recorded_session(&mut session, &clock, sid, KEYS, OPS_PER_SESSION, DEPTH)
            })
        })
        .collect();
    let mut all: Vec<RecordedOp> = Vec::new();
    for j in joins {
        all.extend(j.join().expect("session thread"));
    }
    assert_eq!(all.len(), SESSIONS * OPS_PER_SESSION as usize);
    // Nothing fails on a healthy cluster; only an RMW may abort.
    for o in &all {
        if !matches!(o.kind, OpKind::FetchAdd { .. }) {
            assert_eq!(o.outcome, Outcome::Completed, "op failed: {o:?}");
        }
    }
    check_linearizable_per_key(&all, KEYS).expect("per-key histories linearizable");

    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("cluster still shared"),
    }
}
