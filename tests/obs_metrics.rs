//! The observability plane end-to-end (DESIGN.md §9): the `Metrics`
//! client RPC against a live daemon returns a parseable Prometheus-style
//! exposition with per-lane op latency histograms and protocol-phase
//! counters; a forced-low slow-op threshold dumps a multi-phase breakdown
//! for a real write; after heavy session open/kill churn every plane
//! gauge drains back to its baseline (the gauge-leak oracle); and the
//! exposition alone shows the installed view and each lane's share of the
//! sessions.
//!
//! These tests talk to an **in-process** [`NodeRuntime`] and observe
//! process-wide state (the log capture sink, `HERMES_SLOW_OP_US`), so
//! they serialize on one mutex even under a multi-threaded test harness.

#[path = "support/cluster.rs"]
mod cluster;

use cluster::{remote_session, serial, serve_single_node, serve_three_nodes, sum, CONNECT};
use hermes::obs::log::Capture;
use hermes::obs::{samples, validate_exposition};
use hermes::prelude::*;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The Metrics RPC returns a valid exposition whose op histograms reflect
/// the operations actually driven, with every protocol-phase, cache and
/// client-plane counter family present (p99 is derivable from the
/// rendered quantile series).
#[test]
fn metrics_rpc_exposes_live_histograms() {
    let _serial = serial();
    let runtime = serve_single_node();
    let mut session = remote_session(runtime.client_addr(), CONNECT);

    const OPS: u64 = 64;
    for i in 0..OPS {
        let t = session.write(Key(i % 8), Value::from_u64(i));
        assert_eq!(session.wait(t), Reply::WriteOk);
    }
    let t = session.read(Key(3));
    assert!(matches!(session.wait(t), Reply::ReadOk(_)));
    // A subscription plus an invalidating write drives the cache-push
    // counters on the daemon side.
    assert!(session.subscribe(Key(3)));
    let t = session.read(Key(3));
    assert!(matches!(session.wait(t), Reply::ReadOk(_)));

    let text = query_metrics(runtime.client_addr(), Duration::from_secs(10)).expect("metrics RPC");
    validate_exposition(&text).expect("valid exposition");

    // Per-lane op latency histograms cover every op a lane handled: the
    // writes. The two reads were answered from the mirror by the lane
    // hosting the session, or handed to a lane's engine, and are counted as
    // one or the other.
    let op_count = sum(&text, "hermes_op_latency_us_count");
    assert!(
        op_count >= OPS as f64,
        "op histogram count {op_count} < {OPS}"
    );
    let reads =
        sum(&text, "hermes_mirror_reads_total") + sum(&text, "hermes_mirror_read_fallbacks_total");
    assert!(reads >= 2.0, "{reads} of 2 reads counted on the server");
    // A p99 is derivable: the rendered summary carries the quantile
    // series — and every sample leads with the daemon's node base label,
    // so a cluster aggregator can merge expositions without collisions.
    assert!(
        text.contains("hermes_op_latency_us{node=\"0\",lane=\"0\",quantile=\"0.99\"}")
            || text.contains("hermes_op_latency_us{node=\"0\",lane=\"1\",quantile=\"0.99\"}"),
        "no node-labeled op latency p99 series:\n{text}"
    );
    assert!(
        !text.contains("hermes_op_latency_us{lane="),
        "a sample escaped the node base label:\n{text}"
    );
    // Everything a replica reports about itself is here: the view and
    // serving state, per-lane and per-shard counts among the rest — each
    // family under one `# TYPE` line, of the type it has always had.
    for (family, kind) in [
        ("hermes_view_epoch", "gauge"),
        ("hermes_serving", "gauge"),
        ("hermes_synced", "gauge"),
        ("hermes_view_member", "gauge"),
        ("hermes_view_shadow", "gauge"),
        ("hermes_lane_ops_total", "counter"),
        ("hermes_lane_ingress_total", "counter"),
        ("hermes_shard_sessions", "gauge"),
        ("hermes_cache_subscriptions", "gauge"),
        ("hermes_accept_stalls_total", "counter"),
        ("hermes_invalidations_sent_total", "counter"),
        ("hermes_invalidation_acks_total", "counter"),
        ("hermes_validations_sent_total", "counter"),
        ("hermes_view_changes_total", "counter"),
        ("hermes_cache_pushes_total", "counter"),
        ("hermes_cache_push_acks_total", "counter"),
        ("hermes_cache_holds_released_total", "counter"),
        ("hermes_open_sessions", "gauge"),
        ("hermes_accepts_total", "counter"),
        ("hermes_mirror_reads_total", "counter"),
        ("hermes_mirror_read_fallbacks_total", "counter"),
        ("hermes_poller_decode_us", "summary"),
        ("hermes_tcp_dials_total", "counter"),
        ("hermes_tcp_accepts_total", "counter"),
        ("hermes_tcp_disconnects_total", "counter"),
        ("hermes_tcp_frames_sent_total", "counter"),
        ("hermes_tcp_frames_received_total", "counter"),
        ("hermes_tcp_frames_dropped_total", "counter"),
        ("hermes_tcp_bytes_sent_total", "counter"),
        ("hermes_tcp_bytes_received_total", "counter"),
        ("hermes_tcp_writes_inline_total", "counter"),
        ("hermes_tcp_writes_deferred_total", "counter"),
        ("hermes_tcp_egress_backlog_bytes", "gauge"),
        ("hermes_credit_parks_total", "counter"),
        ("hermes_credit_stall_us", "summary"),
        ("hermes_engine_resident_keys", "gauge"),
        ("hermes_store_keys", "gauge"),
        ("hermes_store_bytes", "gauge"),
        ("hermes_op_latency_us", "summary"),
        ("hermes_poller_write_us", "summary"),
        ("hermes_slow_ops_total", "counter"),
        ("hermes_sync_bytes_total", "counter"),
        ("hermes_sync_chunks_total", "counter"),
        ("hermes_view_change_outage_us", "summary"),
        ("hermes_view_change_outages_total", "counter"),
    ] {
        let header = format!("# TYPE {family} ");
        let typed: Vec<_> = text
            .lines()
            .filter_map(|l| l.strip_prefix(&header))
            .collect();
        assert_eq!(typed, [kind], "family {family}'s TYPE lines");
        assert!(
            !samples(&text, family).is_empty(),
            "family {family} missing from exposition"
        );
    }
    assert!(
        sum(&text, "hermes_accepts_total") >= 1.0,
        "accept not counted"
    );
    // The session saw its own latencies through the shared histogram too.
    assert!(session.rtt_quantiles().count >= OPS);

    drop(session);
    runtime.shutdown();
}

/// With `HERMES_SLOW_OP_US` forced to zero before the daemon starts,
/// every completed write dumps its full phase breakdown through the
/// logger: issued → committed → reply released, offsets in order.
#[test]
fn slow_op_trace_dumps_multi_phase_write_breakdown() {
    let _serial = serial();
    std::env::set_var("HERMES_SLOW_OP_US", "0");
    let capture = Capture::start();
    let runtime = serve_single_node();
    std::env::remove_var("HERMES_SLOW_OP_US");

    let mut session = remote_session(runtime.client_addr(), CONNECT);
    let t = session.write(Key(7), Value::from_u64(42));
    assert_eq!(session.wait(t), Reply::WriteOk);

    let events = capture.take();
    let slow: Vec<_> = events
        .iter()
        .filter(|e| e.target == "obs::trace" && e.message.contains("slow-op"))
        .collect();
    assert!(!slow.is_empty(), "no slow-op dump captured: {events:?}");
    let write_dump = slow
        .iter()
        .find(|e| e.message.contains("issued+0us") && e.message.contains("reply_released+"))
        .unwrap_or_else(|| panic!("no write phase breakdown in {slow:?}"));
    assert!(
        write_dump.message.contains("committed+"),
        "missing committed phase: {}",
        write_dump.message
    );
    // Multi-phase: at least issued, committed, reply_released.
    assert!(
        write_dump.message.matches("us").count() >= 3,
        "not a multi-phase breakdown: {}",
        write_dump.message
    );

    drop(session);
    drop(capture);
    runtime.shutdown();
}

/// The Traces RPC end-to-end: with sampling forced on, a write driven
/// through a live daemon surfaces node-tagged, wall-clock-anchored spans
/// over the client port — and the drain consumes, so a second scrape
/// without new traffic comes back empty.
#[test]
fn traces_rpc_drains_sampled_spans() {
    let _serial = serial();
    hermes::obs::set_trace_sample(1.0);
    let runtime = serve_single_node();
    let mut session = remote_session(runtime.client_addr(), CONNECT);
    let t = session.write(Key(5), Value::from_u64(77));
    assert_eq!(session.wait(t), Reply::WriteOk);
    hermes::obs::set_trace_sample(0.0);

    let deadline = Instant::now() + Duration::from_secs(5);
    let mut spans = Vec::new();
    loop {
        spans.extend(
            query_traces(runtime.client_addr(), Duration::from_secs(5)).expect("traces RPC"),
        );
        if spans
            .iter()
            .any(|s| s.phases.iter().any(|(p, _)| p == "issued"))
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no sampled span drained: {spans:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let span = spans
        .iter()
        .find(|s| s.phases.iter().any(|(p, _)| p == "issued"))
        .expect("checked above");
    assert_ne!(span.trace, 0, "sampled span lost its trace id");
    assert_eq!(span.node, 0);
    assert!(span.start_unix_us > 0, "span missing its wall-clock anchor");

    // Idle re-scrape: the previous drains consumed everything.
    std::thread::sleep(Duration::from_millis(50));
    let again = query_traces(runtime.client_addr(), Duration::from_secs(5)).expect("traces RPC");
    let residue: Vec<_> = again
        .iter()
        .filter(|s| s.phases.iter().any(|(p, _)| p == "issued"))
        .collect();
    assert!(residue.is_empty(), "drain did not consume: {residue:?}");

    drop(session);
    runtime.shutdown();
}

/// The gauge-leak oracle: after 1k session open/kill churn cycles every
/// plane gauge returns to its baseline and the op histograms stay
/// consistent with the work actually completed.
#[test]
fn session_churn_drains_gauges_to_baseline() {
    let _serial = serial();
    let runtime = serve_single_node();

    // A long-lived session drives real ops throughout the churn so the
    // histograms have a known floor to check against.
    let mut session = remote_session(runtime.client_addr(), CONNECT);
    const CHURN: usize = 1000;
    const OPS: u64 = 100;
    let mut ops_done = 0u64;
    for i in 0..CHURN {
        // Raw connect + immediate drop: an accepted session killed before
        // (or just after) it says anything — the reaper must drain it.
        let conn = TcpStream::connect(runtime.client_addr()).expect("churn connect");
        drop(conn);
        if i % 10 == 0 && ops_done < OPS {
            let t = session.write(Key(ops_done % 16), Value::from_u64(ops_done));
            assert_eq!(session.wait(t), Reply::WriteOk);
            ops_done += 1;
        }
    }
    while ops_done < OPS {
        let t = session.write(Key(ops_done % 16), Value::from_u64(ops_done));
        assert_eq!(session.wait(t), Reply::WriteOk);
        ops_done += 1;
    }
    drop(session);

    // All churned sessions (and the driver) must drain: open_sessions and
    // cache_subscriptions back to zero, accepts reflecting the churn.
    let deadline = Instant::now() + Duration::from_secs(10);
    let text = loop {
        let text = runtime.metrics_text();
        validate_exposition(&text).expect("valid exposition");
        if sum(&text, "hermes_open_sessions") == 0.0 {
            break text;
        }
        assert!(
            Instant::now() < deadline,
            "open_sessions never drained:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    assert_eq!(sum(&text, "hermes_cache_subscriptions"), 0.0);
    let accepts = sum(&text, "hermes_accepts_total");
    let op_count = sum(&text, "hermes_op_latency_us_count");
    assert!(op_count >= OPS as f64, "op histogram lost ops: {op_count}");
    // Raw drops may race accept-side install, but the vast majority of
    // the churned connections must have been accepted and then reaped.
    assert!(accepts >= (CHURN / 2) as f64, "accepts {accepts} too low");

    runtime.shutdown();
}

/// A replica's engine holds only the keys with work in flight (DESIGN.md
/// §3.3 "The mirror"): after a burst of pipelined writes through three
/// replicas quiesces, `hermes_engine_resident_keys` reads 0 on every node,
/// while each node's mirror serves every key's last value.
#[test]
fn the_engines_hold_no_key_once_a_write_burst_quiesces() {
    let _serial = serial();
    let nodes = serve_three_nodes();
    const KEYS: u64 = 64;
    const WRITES: u64 = 512;
    let mut sessions: Vec<_> = nodes
        .iter()
        .map(|n| remote_session(n.client_addr(), CONNECT))
        .collect();
    let mut tickets = Vec::new();
    for i in 0..WRITES {
        // Each key's writes come from one session, so they apply in order.
        let key = Key(i % KEYS);
        let node = (key.0 % 3) as usize;
        tickets.push((node, sessions[node].write(key, Value::from_u64(i))));
    }
    for (node, t) in tickets {
        assert_eq!(sessions[node].wait(t), Reply::WriteOk);
    }
    let resident = |n: &NodeRuntime| {
        hermes::obs::sample_value(&n.metrics_text(), "hermes_engine_resident_keys")
            .expect("exported")
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while nodes.iter().any(|n| resident(n) != 0.0) {
        assert!(Instant::now() < deadline, "an engine kept idle keys");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Idle keys live in the mirror alone, and read back from it. Each
    // mirror holds every key written, at `heap_per_key.rs`'s 110 B bound
    // for a 32 B key or less (these values are 8 B).
    for n in &nodes {
        for k in 0..KEYS {
            let last = WRITES - KEYS + k;
            assert_eq!(n.read_local(Key(k)), Some(Value::from_u64(last)), "key {k}");
        }
        let text = n.metrics_text();
        validate_exposition(&text).expect("valid exposition");
        let gauge = |name| hermes::obs::sample_value(&text, name).expect("exported");
        assert_eq!(gauge("hermes_store_keys"), KEYS as f64, "{text}");
        let per_key = gauge("hermes_store_bytes") / KEYS as f64;
        assert!(per_key > 0.0 && per_key <= 110.0, "{per_key} B per key");
    }
    drop(sessions);
    nodes.into_iter().for_each(NodeRuntime::shutdown);
}

/// A replica's health from its exposition alone (paper §3.4's reliable
/// membership, DESIGN.md §9): on three replicas each exposition names every
/// node a member of the installed view and none a shadow, one row per peer,
/// and a session shows on exactly one lane's shard until it is reaped.
#[test]
fn the_exposition_shows_the_view_and_each_shards_sessions() {
    let _serial = serial();
    let nodes = serve_three_nodes();
    for n in &nodes {
        let text = n.metrics_text();
        validate_exposition(&text).expect("valid exposition");
        let me = n.node_id().0;
        let rows = |family| {
            let rows = samples(&text, family).into_iter();
            rows.map(|(labels, v)| (labels.to_string(), v))
                .collect::<Vec<_>>()
        };
        let every_peer = |v| {
            let peers = (0..3).map(|p| (format!("node=\"{me}\",peer=\"{p}\""), v));
            peers.collect::<Vec<_>>()
        };
        assert_eq!(rows("hermes_view_member"), every_peer(1.0), "{text}");
        assert_eq!(rows("hermes_view_shadow"), every_peer(0.0), "{text}");
    }

    let shards = || {
        let text = nodes[0].metrics_text();
        let shards = samples(&text, "hermes_shard_sessions").into_iter();
        shards.map(|(_, v)| v).collect::<Vec<_>>()
    };
    let await_shards = |open: f64| {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let now = shards();
            if now.iter().sum::<f64>() == open {
                return now;
            }
            assert!(Instant::now() < deadline, "shard sessions stuck at {now:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    assert_eq!(shards(), [0.0, 0.0]);
    let session = TcpStream::connect(nodes[0].client_addr()).expect("connect");
    let mut open = await_shards(1.0);
    open.sort_by(f64::total_cmp);
    assert_eq!(open, [0.0, 1.0], "one session, on exactly one shard");
    drop(session);
    assert_eq!(await_shards(0.0), [0.0, 0.0], "the reaped session drained");
    nodes.into_iter().for_each(NodeRuntime::shutdown);
}
