//! The client-side invalidation cache (DESIGN.md §8) for remote sessions
//! of replicas in this process: repeat reads of a subscribed key are
//! served locally with zero round trips, writes anywhere in the cluster
//! invalidate the cached entry *before* their effects become visible (the
//! paper's invalidation coherence extended one hop to clients), and view
//! changes flush everything — proven end-to-end by recording cached reads
//! as ordinary history observations and running the Wing & Gong checker.
//! Only a remote session caches: an in-process one reads the mirror.

#[path = "support/cluster.rs"]
mod cluster;

use cluster::{
    remote_session, serve_three, serve_three_nodes, sum, try_serve, wait_until, CONNECT,
};
use hermes::harness::{check_linearizable_per_key, run_recorded_session, RecordedOp};
use hermes::model::observe;
use hermes::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Three replicas with live membership, once every one of them serves.
fn serve_three_members() -> (Vec<String>, Vec<NodeRuntime>) {
    let (lines, nodes) = serve_three("");
    assert!(wait_until(Duration::from_secs(10), || nodes
        .iter()
        .all(|n| n.membership().serving())));
    (lines, nodes)
}

/// Writes `value` to `key` through a session of its own at `node`.
fn write(node: &NodeRuntime, key: Key, value: u64) -> Reply {
    let mut session = remote_session(node.client_addr(), CONNECT);
    let t = session.write(key, Value::from_u64(value));
    session.wait(t)
}

/// Subscribes `session` to keys 0..4, each holding `100 + k`, and fills
/// its cache with them.
fn cache_four_keys<C: SessionChannel>(node: &NodeRuntime, session: &mut ClientSession<C>) {
    for k in 0..4u64 {
        assert_eq!(write(node, Key(k), 100 + k), Reply::WriteOk);
        assert!(session.subscribe(Key(k)));
        let t = session.read(Key(k));
        assert_eq!(session.wait(t), Reply::ReadOk(Value::from_u64(100 + k)));
    }
    assert_eq!(session.cached_entries(), 4);
}

/// Waits until `session` has seen `node`'s current view epoch (reads pump
/// the event queue; the flush push empties the cache), then requires that
/// nothing stale survived: every key re-fetches its value.
fn expect_flushed<C: SessionChannel>(node: &NodeRuntime, session: &mut ClientSession<C>) {
    assert!(wait_until(Duration::from_secs(10), || {
        let t = session.read(Key(0));
        session.wait(t);
        session.cache_epoch() >= node.membership().epoch()
    }));
    assert!(session.cache_flushes() >= 1);
    for k in 0..4u64 {
        let t = session.read(Key(k));
        assert_eq!(session.wait(t), Reply::ReadOk(Value::from_u64(100 + k)));
    }
}

#[test]
fn repeat_reads_hit_the_cache_and_skip_the_replica() {
    let nodes = serve_three_nodes();
    assert_eq!(write(&nodes[0], Key(7), 42), Reply::WriteOk);

    let mut session = remote_session(nodes[0].client_addr(), CONNECT);
    assert!(session.subscribe(Key(7)));
    assert!(session.is_subscribed(Key(7)));
    let metric = |family| sum(&nodes[0].metrics_text(), family);
    assert_eq!(metric("hermes_cache_subscriptions"), 1.0);

    // First read misses and fills.
    let t = session.read(Key(7));
    assert_eq!(session.wait(t), Reply::ReadOk(Value::from_u64(42)));
    assert_eq!(session.cache_misses(), 1);
    assert_eq!(session.cached_entries(), 1);

    // Repeat reads are served locally: the replica sees no more reads,
    // neither on a lane nor from its mirror.
    let lane_ops_before: u64 = nodes[0].lane_ops().iter().sum();
    let mirror_reads_before = metric("hermes_mirror_reads_total");
    for _ in 0..10 {
        let t = session.read(Key(7));
        assert_eq!(session.wait(t), Reply::ReadOk(Value::from_u64(42)));
    }
    assert_eq!(session.cache_hits(), 10);
    assert_eq!(nodes[0].lane_ops().iter().sum::<u64>(), lane_ops_before);
    assert_eq!(metric("hermes_mirror_reads_total"), mirror_reads_before);

    // Unsubscribing discards the entry and stops caching.
    assert!(session.unsubscribe(Key(7)));
    assert_eq!(session.cached_entries(), 0);
    assert_eq!(metric("hermes_cache_subscriptions"), 0.0);
}

#[test]
fn a_write_elsewhere_invalidates_before_its_effects_are_visible() {
    let nodes = serve_three_nodes();
    let mut writer = remote_session(nodes[1].client_addr(), CONNECT);
    let mut reader = remote_session(nodes[0].client_addr(), CONNECT);

    let t = writer.write(Key(3), Value::from_u64(1));
    assert_eq!(writer.wait(t), Reply::WriteOk);

    assert!(reader.subscribe(Key(3)));
    let t = reader.read(Key(3));
    assert_eq!(reader.wait(t), Reply::ReadOk(Value::from_u64(1)));
    assert_eq!(reader.cached_entries(), 1);

    // The writer observing WriteOk means the reader has acked the
    // invalidation push — its channel queues a push before acking it — so
    // the very next read must see the new value, never the stale cached 1.
    let t = writer.write(Key(3), Value::from_u64(2));
    assert_eq!(writer.wait(t), Reply::WriteOk);
    let t = reader.read(Key(3));
    assert_eq!(reader.wait(t), Reply::ReadOk(Value::from_u64(2)));
    assert!(reader.cache_invalidations() >= 1);
    assert!(sum(&nodes[0].metrics_text(), "hermes_cache_pushes_total") > 0.0);

    // The miss refilled the cache with the new value.
    let t = reader.read(Key(3));
    assert_eq!(reader.wait(t), Reply::ReadOk(Value::from_u64(2)));
    assert!(reader.cache_hits() >= 1);
}

#[test]
fn a_sessions_own_write_drops_its_cached_entry() {
    let nodes = serve_three_nodes();
    let mut session = remote_session(nodes[0].client_addr(), CONNECT);
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
}

/// A view installed while every cache holds entries — here the one that
/// readmits a stopped replica as a shadow — flushes them all.
#[test]
fn an_installed_view_change_flushes_every_cached_entry() {
    let (lines, mut nodes) = serve_three_members();
    let epoch_before = nodes[0].membership().epoch();
    nodes.pop().expect("node 2").shutdown();
    assert!(wait_until(Duration::from_secs(30), || {
        let status = nodes[0].membership();
        status.epoch() > epoch_before && status.serving()
    }));

    let mut session = remote_session(nodes[0].client_addr(), CONNECT);
    cache_four_keys(&nodes[0], &mut session);
    assert_eq!(session.cache_flushes(), 0);

    // Node 2 asks to rejoin, from its old peer address (which another
    // socket may hold for a while): every lane flushes its subscribers
    // under the view that admits it.
    let epoch_before = nodes[0].membership().epoch();
    let rejoin = format!("{} --join", lines[2]);
    let mut rejoined = None;
    assert!(wait_until(Duration::from_secs(10), || {
        rejoined = rejoined.take().or_else(|| try_serve(&rejoin).ok());
        rejoined.is_some()
    }));
    nodes.extend(rejoined);
    assert!(wait_until(Duration::from_secs(30), || nodes[0]
        .membership()
        .epoch()
        > epoch_before));
    expect_flushed(&nodes[0], &mut session);
}

#[test]
fn a_crash_driven_view_change_leaves_no_stale_cached_read() {
    let (_, mut nodes) = serve_three_members();
    let mut session = remote_session(nodes[0].client_addr(), CONNECT);
    cache_four_keys(&nodes[0], &mut session);

    // Stop a replica: the survivors' failure detectors drive a real
    // lease-gated view change, whose installation flushes subscribers.
    let epoch_before = nodes[0].membership().epoch();
    nodes.pop().expect("node 2").shutdown();
    assert!(wait_until(Duration::from_secs(30), || {
        let status = nodes[0].membership();
        status.epoch() > epoch_before && status.serving()
    }));

    // Once the session observes the new epoch its cache is empty, and the
    // next reads of the subscribed keys come from the surviving replicas —
    // never the pre-crash cache.
    expect_flushed(&nodes[0], &mut session);
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

    let nodes = serve_three_nodes();
    let clock = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for sid in 0..SESSIONS {
        let addr = nodes[(sid % 3) as usize].client_addr();
        let clock = Arc::clone(&clock);
        handles.push(std::thread::spawn(move || {
            let mut session = remote_session(addr, CONNECT);
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
}
