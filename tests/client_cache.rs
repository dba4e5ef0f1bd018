//! The client-side invalidation cache (DESIGN.md §8) on the in-proc
//! threaded runtime: repeat reads of a subscribed key are served locally
//! with zero round trips, writes anywhere in the cluster invalidate the
//! cached entry *before* their effects become visible (the paper's
//! invalidation coherence extended one hop to clients), and view changes
//! flush everything — proven end-to-end by recording cached reads as
//! ordinary history observations and running the Wing & Gong checker.

#[path = "support/cluster.rs"]
mod cluster;

use cluster::{membership_cluster, sum, wait_until};
use hermes::harness::{check_linearizable_per_key, run_recorded_session, RecordedOp};
use hermes::model::observe;
use hermes::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn repeat_reads_hit_the_cache_and_skip_the_replica() {
    let cluster = ThreadCluster::start(3, ProtocolConfig::default());
    assert_eq!(
        cluster.write(0, Key(7), Value::from_u64(42)),
        Reply::WriteOk
    );

    let mut session = cluster.session(0);
    assert!(session.subscribe(Key(7)));
    assert!(session.is_subscribed(Key(7)));
    let subscriptions = || sum(&cluster.metrics_text(0), "hermes_cache_subscriptions");
    assert_eq!(subscriptions(), 1.0);

    // First read misses and fills.
    let t = session.read(Key(7));
    assert_eq!(session.wait(t), Reply::ReadOk(Value::from_u64(42)));
    assert_eq!(session.cache_misses(), 1);
    assert_eq!(session.cached_entries(), 1);

    // Repeat reads are served locally: the lanes see no more ops.
    let lane_ops_before: u64 = cluster.lane_ops(0).iter().sum();
    for _ in 0..10 {
        let t = session.read(Key(7));
        assert_eq!(session.wait(t), Reply::ReadOk(Value::from_u64(42)));
    }
    assert_eq!(session.cache_hits(), 10);
    assert_eq!(cluster.lane_ops(0).iter().sum::<u64>(), lane_ops_before);

    // Unsubscribing discards the entry and stops caching.
    assert!(session.unsubscribe(Key(7)));
    assert_eq!(session.cached_entries(), 0);
    assert_eq!(subscriptions(), 0.0);
    drop(session);
    cluster.shutdown();
}

#[test]
fn a_write_elsewhere_invalidates_before_its_effects_are_visible() {
    let cluster = ThreadCluster::start(3, ProtocolConfig::default());
    let mut writer = cluster.session(0);
    let mut reader = cluster.session(0);

    let t = writer.write(Key(3), Value::from_u64(1));
    assert_eq!(writer.wait(t), Reply::WriteOk);

    assert!(reader.subscribe(Key(3)));
    let t = reader.read(Key(3));
    assert_eq!(reader.wait(t), Reply::ReadOk(Value::from_u64(1)));
    assert_eq!(reader.cached_entries(), 1);

    // The writer observing WriteOk means the invalidation push is already
    // queued at the reader (it is emitted before the write's reply): the
    // very next read must see the new value, never the stale cached 1.
    let t = writer.write(Key(3), Value::from_u64(2));
    assert_eq!(writer.wait(t), Reply::WriteOk);
    let t = reader.read(Key(3));
    assert_eq!(reader.wait(t), Reply::ReadOk(Value::from_u64(2)));
    assert!(reader.cache_invalidations() >= 1);
    assert!(sum(&cluster.metrics_text(0), "hermes_cache_pushes_total") > 0.0);

    // The miss refilled the cache with the new value.
    let t = reader.read(Key(3));
    assert_eq!(reader.wait(t), Reply::ReadOk(Value::from_u64(2)));
    assert!(reader.cache_hits() >= 1);
    drop((writer, reader));
    cluster.shutdown();
}

#[test]
fn a_sessions_own_write_drops_its_cached_entry() {
    let cluster = ThreadCluster::start(3, ProtocolConfig::default());
    let mut session = cluster.session(0);
    assert!(session.subscribe(Key(9)));

    let t = session.write(Key(9), Value::from_u64(5));
    assert_eq!(session.wait(t), Reply::WriteOk);
    let t = session.read(Key(9));
    assert_eq!(session.wait(t), Reply::ReadOk(Value::from_u64(5)));
    assert_eq!(session.cached_entries(), 1);

    // The lane does not push a writer its own invalidation; the session
    // drops the entry itself as the write departs.
    let t = session.write(Key(9), Value::from_u64(6));
    assert_eq!(session.wait(t), Reply::WriteOk);
    let t = session.read(Key(9));
    assert_eq!(session.wait(t), Reply::ReadOk(Value::from_u64(6)));
    drop(session);
    cluster.shutdown();
}

#[test]
fn an_installed_view_change_flushes_every_cached_entry() {
    let cluster = ThreadCluster::start(3, ProtocolConfig::default());
    let mut session = cluster.session(0);
    for k in 0..4u64 {
        assert_eq!(
            cluster.write(0, Key(k), Value::from_u64(100 + k)),
            Reply::WriteOk
        );
        assert!(session.subscribe(Key(k)));
        let t = session.read(Key(k));
        assert_eq!(session.wait(t), Reply::ReadOk(Value::from_u64(100 + k)));
    }
    assert_eq!(session.cached_entries(), 4);

    // Reconfigure: every lane flushes its subscribers under the new epoch.
    cluster.install_view(MembershipView {
        epoch: Epoch(1),
        members: NodeSet::first_n(3),
        shadows: NodeSet::EMPTY,
    });
    assert!(wait_until(Duration::from_secs(5), || {
        // Reads pump the event queue; the flush push empties the cache.
        let t = session.read(Key(0));
        session.wait(t);
        session.cache_epoch() >= 1
    }));
    assert!(session.cache_flushes() >= 1);

    // Nothing stale survives: post-flush reads re-fetch from the replica.
    for k in 1..4u64 {
        let t = session.read(Key(k));
        assert_eq!(session.wait(t), Reply::ReadOk(Value::from_u64(100 + k)));
    }
    drop(session);
    cluster.shutdown();
}

#[test]
fn a_crash_driven_view_change_leaves_no_stale_cached_read() {
    let (cluster, senders) = membership_cluster(3);
    assert!(wait_until(Duration::from_secs(10), || cluster
        .membership(0)
        .serving()));

    let mut session = cluster.session(0);
    assert_eq!(
        cluster.write(0, Key(1), Value::from_u64(11)),
        Reply::WriteOk
    );
    assert!(session.subscribe(Key(1)));
    let t = session.read(Key(1));
    assert_eq!(session.wait(t), Reply::ReadOk(Value::from_u64(11)));
    assert_eq!(session.cached_entries(), 1);

    // Crash a replica: the survivors' failure detectors drive a real
    // lease-gated view change, whose installation flushes subscribers.
    let epoch_before = cluster.membership(0).epoch();
    senders[0].crash(NodeId(2));
    assert!(wait_until(Duration::from_secs(30), || {
        cluster.membership(0).epoch() > epoch_before && cluster.membership(0).serving()
    }));

    // Once the session observes the new epoch its cache is empty, and the
    // next read of the subscribed key comes from the surviving replicas —
    // never the pre-crash cache.
    assert!(wait_until(Duration::from_secs(10), || {
        let t = session.read(Key(1));
        session.wait(t);
        session.cache_epoch() >= cluster.membership(0).epoch()
    }));
    assert!(session.cache_flushes() >= 1);
    let t = session.read(Key(1));
    assert_eq!(session.wait(t), Reply::ReadOk(Value::from_u64(11)));
    drop(session);
    cluster.shutdown();
}

/// One blocking operation recorded exactly like [`run_recorded_session`]
/// records its pipelined ones — cached reads get no special treatment,
/// which is the point: the checker sees them as ordinary observations.
fn record_op<C: SessionChannel>(
    session: &mut ClientSession<C>,
    clock: &AtomicU64,
    key: Key,
    cop: ClientOp,
    out: &mut Vec<RecordedOp>,
) {
    let invoke = clock.fetch_add(1, Ordering::SeqCst);
    let ticket = session.submit(key, cop.clone());
    let reply = session.wait(ticket);
    let response = clock.fetch_add(1, Ordering::SeqCst);
    let (kind, outcome) = observe(&cop, reply);
    out.push(RecordedOp {
        key,
        invoke,
        response,
        kind,
        outcome,
    });
}

#[test]
fn cached_read_histories_stay_linearizable() {
    const SESSIONS: u64 = 3;
    const KEYS: u64 = 4;
    const OPS_PER_SESSION: u64 = 48;
    const DEPTH: usize = 4;
    const HOT_READS: u64 = 16;

    let cluster = Arc::new(ThreadCluster::start(3, ProtocolConfig::default()));
    let clock = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for sid in 0..SESSIONS {
        let cluster = Arc::clone(&cluster);
        let clock = Arc::clone(&clock);
        handles.push(std::thread::spawn(move || {
            let mut session = cluster.session((sid % 3) as usize);
            // Every key subscribed: reads mix cache hits with real round
            // trips, all recorded identically into the history.
            for k in 0..KEYS {
                assert!(session.subscribe(Key(k)));
            }
            let mut obs =
                run_recorded_session(&mut session, &clock, sid, KEYS, OPS_PER_SESSION, DEPTH);
            // A per-session hot key nobody else writes: after one fill,
            // every further read is served from the cache — and every one
            // of them lands in the checked history.
            let hot = Key(KEYS + sid);
            assert!(session.subscribe(hot));
            record_op(
                &mut session,
                &clock,
                hot,
                ClientOp::Write(Value::from_u64(7_000 + sid)),
                &mut obs,
            );
            for _ in 0..HOT_READS {
                record_op(&mut session, &clock, hot, ClientOp::Read, &mut obs);
            }
            let hits = session.cache_hits();
            (obs, hits)
        }));
    }
    let mut all = Vec::new();
    let mut total_hits = 0;
    for h in handles {
        let (obs, hits) = h.join().expect("session thread");
        all.extend(obs);
        total_hits += hits;
    }
    assert_eq!(
        all.len(),
        (SESSIONS * (OPS_PER_SESSION + 1 + HOT_READS)) as usize
    );
    // The hot phase guarantees locally served reads actually happened, so
    // the checker below is exercising cache coherence, not vacuously
    // passing.
    assert!(
        total_hits >= SESSIONS * (HOT_READS - 1),
        "expected ≥ {} cached reads, saw {total_hits}",
        SESSIONS * (HOT_READS - 1)
    );
    check_linearizable_per_key(&all, KEYS + SESSIONS)
        .expect("history with cached reads linearizable");
    Arc::try_unwrap(cluster)
        .expect("all session threads joined")
        .shutdown();
}
