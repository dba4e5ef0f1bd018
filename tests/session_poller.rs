//! The sharded-poller client plane under faults: sessions killed
//! mid-pipeline are reaped (gauges return to baseline, no fd leak, late
//! completions dropped), the daemon's thread count does not grow with its
//! session count, and concurrent histories spanning a kill stay
//! linearizable — also with reads answered on the poller thread from the
//! seqlock mirror (DESIGN.md §7), whose two safety rules are tested here
//! over real sockets on a three-replica cluster.
//!
//! These tests talk to an **in-process** [`NodeRuntime`], so procfs
//! observations (`Threads:`, `/proc/self/fd`) see the daemon itself; they
//! run one at a time, as those counts and the gauge baselines are
//! process-wide.
//! Sessions are driven over raw framed sockets where thread/fd accounting
//! matters — a [`RemoteChannel`] brings an epoll fd of its own per session,
//! and a reader thread once it subscribes (`tests/remote_channel.rs` counts
//! those), which would muddy the daemon's numbers.

#[path = "support/cluster.rs"]
mod cluster;
#[path = "support/procfs.rs"]
mod procfs;

use cluster::{remote_session, serial, serve_single_node, serve_three_nodes, sum, CONNECT};
use hermes::harness::{check_linearizable_per_key, run_recorded_session, RecordedOp};
use hermes::prelude::*;
use hermes::wings::client::{self as rpc, Request, ServerFrame};
use hermes::wings::CreditConfig;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reads answered from the mirror and reads handed to a lane, summed over
/// `nodes`' expositions.
fn mirror_reads_and_fallbacks(nodes: &[NodeRuntime]) -> (f64, f64) {
    let texts: Vec<String> = nodes.iter().map(NodeRuntime::metrics_text).collect();
    let total = |family| texts.iter().map(|text| sum(text, family)).sum();
    (
        total("hermes_mirror_reads_total"),
        total("hermes_mirror_read_fallbacks_total"),
    )
}

fn write(seq: u64, key: Key, v: u64) -> Request {
    let cop = ClientOp::Write(Value::from_u64(v));
    Request::Op { seq, key, cop }
}

/// Sends one request as a length-prefixed frame.
fn send_frame(stream: &mut TcpStream, request: &Request) {
    let mut buf = Vec::new();
    rpc::put_frame(&mut buf, |out| request.encode(out));
    stream.write_all(&buf).expect("send frame");
}

/// Reads one frame (blocking) — a byte at a time, so as to take nothing of
/// the frame behind it.
fn try_recv_frame(stream: &mut TcpStream) -> io::Result<ServerFrame> {
    let mut buf = Vec::new();
    loop {
        if let Some(payload) = rpc::split_frame(&buf, 1 << 20).expect("frame length") {
            return Ok(ServerFrame::decode(payload).expect("well-formed frame"));
        }
        let mut byte = [0u8];
        stream.read_exact(&mut byte)?;
        buf.push(byte[0]);
    }
}

fn recv_frame(stream: &mut TcpStream) -> ServerFrame {
    try_recv_frame(stream).expect("a frame")
}

/// One blocking write round-trip over a raw socket.
fn raw_write(stream: &mut TcpStream, seq: u64, key: Key, v: u64) {
    send_frame(stream, &write(seq, key, v));
    assert_eq!(recv_frame(stream), ServerFrame::Reply(seq, Reply::WriteOk));
}

/// Polls the runtime's `hermes_open_sessions` gauge until it reaches
/// `target`.
fn await_open_sessions(runtime: &NodeRuntime, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let open = sum(&runtime.metrics_text(), "hermes_open_sessions") as u64;
        if open == target {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "open_sessions stuck at {open} (want {target})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A socket killed mid-pipeline — requests in flight, reply unread — is
/// reaped: the gauges return to baseline and the daemon keeps serving new
/// sessions (the reaped session's credits died with it; its completion is
/// dropped on arrival, not delivered to a recycled session).
#[test]
fn mid_pipeline_kill_reaps_the_session() {
    let _serial = serial();
    let runtime = serve_single_node(2);
    assert_eq!(sum(&runtime.metrics_text(), "hermes_open_sessions"), 0.0);

    let mut victim = TcpStream::connect(runtime.client_addr()).expect("connect");
    victim.set_nodelay(true).expect("nodelay");
    raw_write(&mut victim, 1, Key(1), 7);
    await_open_sessions(&runtime, 1);
    let per_shard = sum(&runtime.metrics_text(), "hermes_shard_sessions");
    assert_eq!(per_shard, 1.0, "shard gauges track the session");

    // Kill mid-pipeline: a request is on the wire, the reply never read.
    send_frame(&mut victim, &write(2, Key(2), 9));
    victim.shutdown(Shutdown::Both).expect("kill socket");
    drop(victim);
    await_open_sessions(&runtime, 0);
    let per_shard = sum(&runtime.metrics_text(), "hermes_shard_sessions");
    assert_eq!(per_shard, 0.0, "shard gauges drained");

    // The in-flight write's completion lands after the reap and is
    // dropped; the daemon still serves fresh sessions, and the killed
    // write itself committed (it reached the lanes before the kill).
    let mut fresh = TcpStream::connect(runtime.client_addr()).expect("reconnect");
    fresh.set_nodelay(true).expect("nodelay");
    let (seq, key, cop) = (1, Key(2), ClientOp::Read);
    send_frame(&mut fresh, &Request::Op { seq, key, cop });
    assert_eq!(
        recv_frame(&mut fresh),
        ServerFrame::Reply(1, Reply::ReadOk(Value::from_u64(9))),
        "orphaned write still applied"
    );
    runtime.shutdown();
}

/// The daemon's thread count is set by `--workers`/`--pollers`, not by
/// how many sessions are open: 64 concurrent sessions add zero threads.
/// (Under the old thread-per-connection edge they added 128.)
#[test]
fn thread_count_is_independent_of_session_count() {
    let _serial = serial();
    let runtime = serve_single_node(2);
    // Warm every lazily-spawned internal thread with one full round-trip.
    let mut warm = TcpStream::connect(runtime.client_addr()).expect("connect");
    raw_write(&mut warm, 1, Key(1), 1);
    drop(warm);
    await_open_sessions(&runtime, 0);
    let baseline = procfs::settled_threads();

    let mut fleet = Vec::new();
    for i in 0..64u64 {
        let mut s = TcpStream::connect(runtime.client_addr()).expect("connect");
        raw_write(&mut s, 1, Key(100 + i), i);
        fleet.push(s);
    }
    await_open_sessions(&runtime, 64);
    assert_eq!(
        procfs::settled_threads(),
        baseline,
        "sessions must not spawn daemon threads"
    );

    drop(fleet);
    await_open_sessions(&runtime, 0);
    runtime.shutdown();
}

/// Connect/kill churn leaks no file descriptors: after every session is
/// reaped the process fd table is back to its baseline size.
#[test]
fn session_churn_leaks_no_fds() {
    let _serial = serial();
    let runtime = serve_single_node(2);
    // One warm-up round so any lazily-created fds (epoll, wakers) exist
    // before the baseline is taken.
    let mut warm = TcpStream::connect(runtime.client_addr()).expect("connect");
    raw_write(&mut warm, 1, Key(1), 1);
    drop(warm);
    await_open_sessions(&runtime, 0);
    let baseline = procfs::open_fds();

    for round in 0..50u64 {
        let mut s = TcpStream::connect(runtime.client_addr()).expect("connect");
        if round % 2 == 0 {
            // Clean round-trip, then hang up.
            raw_write(&mut s, 1, Key(round), round);
        } else {
            // Mid-pipeline kill: bytes in flight, reply never read.
            send_frame(&mut s, &write(1, Key(round), round));
        }
        drop(s);
    }
    await_open_sessions(&runtime, 0);
    // The poller closes a reaped socket's fd just after the session gauge
    // drops, so poll briefly instead of snapshotting once. The baseline
    // may itself be inflated by the warm-up socket's not-yet-closed fd,
    // so the leak invariant is `<=`, not `==`.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let fds = procfs::open_fds();
        if fds <= baseline {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "fd table grew across session churn: {fds} (baseline {baseline})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    runtime.shutdown();
}

/// A subscriber killed mid-push is never delivered to again: the reap
/// drops its subscription filter from every lane (gauges drain), writers
/// on the subscribed key complete promptly via the shard's ack-on-behalf
/// instead of waiting out the push-ack kick, and the daemon stays healthy.
#[test]
fn kill_mid_push_never_delivers_to_a_reaped_session() {
    let _serial = serial();
    let runtime = serve_single_node(2);

    // The victim subscribes over a raw socket and confirms the ack.
    let mut victim = TcpStream::connect(runtime.client_addr()).expect("connect victim");
    victim.set_nodelay(true).expect("nodelay");
    let (seq, key) = (1, Key(77));
    send_frame(&mut victim, &Request::Subscribe { seq, key });
    match recv_frame(&mut victim) {
        ServerFrame::Subscribed { seq, key, .. } => {
            assert_eq!((seq, key), (1, Key(77)));
        }
        other => panic!("expected Subscribed ack, got {other:?}"),
    }
    assert_eq!(
        sum(&runtime.metrics_text(), "hermes_cache_subscriptions"),
        1.0
    );

    // Kill it, then write the subscribed key immediately: pushes race the
    // reap. Whether each push finds the session framed-but-dead or already
    // reaped, the write must complete (bounded by the push-ack kick).
    victim.shutdown(Shutdown::Both).expect("kill victim");
    drop(victim);
    let mut writer = TcpStream::connect(runtime.client_addr()).expect("connect writer");
    writer.set_nodelay(true).expect("nodelay");
    for seq in 1..=3u64 {
        raw_write(&mut writer, seq, Key(77), 100 + seq);
    }

    // The reap drops the filter everywhere: subscription gauge drains and
    // later writes push to nobody.
    await_open_sessions(&runtime, 1); // only the writer remains
    let deadline = Instant::now() + Duration::from_secs(10);
    while sum(&runtime.metrics_text(), "hermes_cache_subscriptions") != 0.0 {
        assert!(
            Instant::now() < deadline,
            "subscription gauge never drained"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let pushes = || sum(&runtime.metrics_text(), "hermes_cache_pushes_total");
    let pushes_after_reap = pushes();
    for seq in 4..=6u64 {
        raw_write(&mut writer, seq, Key(77), 100 + seq);
    }
    assert_eq!(
        pushes(),
        pushes_after_reap,
        "a reaped session received a push"
    );
    drop(writer);
    await_open_sessions(&runtime, 0);
    runtime.shutdown();
}

/// Regression: a subscriber that acks every push the moment it reads it is
/// never evicted, however full its pipeline. The shard used to stop
/// reading a session's socket at zero credits, so with every credit in
/// flight the session's `InvalAck` — credit-exempt by design — sat in the
/// kernel; and with every one of those operations held behind a key that a
/// *silent* subscriber owed an ack for, no credit came back until the
/// lane's eviction timer fired and evicted all who still owed, the prompt
/// acker with the silent one (DESIGN.md §8: a coherence ack must never
/// wait behind a full pipeline).
#[test]
fn a_prompt_acker_with_every_credit_in_flight_is_not_evicted_with_a_silent_one() {
    let _serial = serial();
    const K: Key = Key(7);
    let in_flight = u64::from(CreditConfig::default().credits_per_peer);
    let runtime = serve_single_node(2);
    let connect = || {
        let stream = TcpStream::connect(runtime.client_addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let patience = Some(Duration::from_secs(5));
        stream.set_read_timeout(patience).expect("read timeout");
        stream
    };
    let (mut acker, mut silent, mut writer) = (connect(), connect(), connect());
    for subscriber in [&mut acker, &mut silent] {
        send_frame(subscriber, &Request::Subscribe { seq: 0, key: K });
        let ack = recv_frame(subscriber);
        assert!(matches!(ack, ServerFrame::Subscribed { key: K, .. }));
    }
    let ack_next_push = |acker: &mut TcpStream| {
        let push = recv_frame(acker);
        assert!(matches!(push, ServerFrame::Invalidate { key: K, .. }));
        send_frame(acker, &Request::InvalAck { key: K });
    };

    // The silent subscriber never acks this write's push, so from here to
    // its eviction the key is held, and every write of it with it.
    send_frame(&mut writer, &write(1, K, 100));
    ack_next_push(&mut acker);
    for seq in 1..=in_flight {
        send_frame(&mut acker, &write(seq, K, seq));
    }
    // A push for the prompt acker, who has no credit left to its name.
    send_frame(&mut writer, &write(2, K, 200));
    ack_next_push(&mut acker);

    // Only the silent one is evicted, and what was held comes out.
    let mut completed = 0;
    while completed < in_flight {
        match try_recv_frame(&mut acker) {
            Ok(ServerFrame::Reply(_, Reply::WriteOk)) => completed += 1,
            Ok(other) => panic!("the acker was sent {other:?}"),
            Err(_) => break, // Hung up on, or nothing for 5 s.
        }
    }
    assert_eq!(
        completed, in_flight,
        "the prompt acker's writes completed (it is evicted if none did)"
    );
    await_open_sessions(&runtime, 2);
    // The silent subscriber's session was reaped: behind the pushes it
    // never read, its stream ends.
    let mut unread = Vec::new();
    silent
        .read_to_end(&mut unread)
        .expect("hung up on, in time");
    for seq in [1, 2] {
        let reply = recv_frame(&mut writer);
        assert_eq!(reply, ServerFrame::Reply(seq, Reply::WriteOk));
    }
    raw_write(&mut writer, 3, Key(8), 300);
    raw_write(&mut acker, in_flight + 1, Key(8), 301);
    drop((acker, silent, writer));
    await_open_sessions(&runtime, 0);
    runtime.shutdown();
}

/// The client cache behaves identically over TCP: repeat reads of a
/// subscribed key are served locally, and once a remote writer observes
/// `WriteOk`, every subscriber's next read sees the new value — the
/// replica holds the write's reply until the invalidation push is acked
/// by the subscriber's connection (DESIGN.md §8).
#[test]
fn remote_sessions_cache_and_stay_coherent_over_tcp() {
    let _serial = serial();
    let runtime = serve_single_node(2);
    let addr = runtime.client_addr();

    let mut reader = remote_session(addr, CONNECT);
    let mut writer = remote_session(addr, CONNECT);

    let t = writer.write(Key(9), Value::from_u64(1));
    assert_eq!(writer.wait(t), Reply::WriteOk);
    assert!(reader.subscribe(Key(9)));
    let t = reader.read(Key(9));
    assert_eq!(reader.wait(t), Reply::ReadOk(Value::from_u64(1)));
    let t = reader.read(Key(9));
    assert_eq!(reader.wait(t), Reply::ReadOk(Value::from_u64(1)));
    assert_eq!(reader.cache_hits(), 1);

    // Coherence across the wire: WriteOk at the writer implies the
    // invalidation is already queued at the reader.
    let t = writer.write(Key(9), Value::from_u64(2));
    assert_eq!(writer.wait(t), Reply::WriteOk);
    let t = reader.read(Key(9));
    assert_eq!(reader.wait(t), Reply::ReadOk(Value::from_u64(2)));
    assert!(reader.cache_invalidations() >= 1);
    assert!(sum(&runtime.metrics_text(), "hermes_cache_pushes_total") > 0.0);

    drop(reader);
    drop(writer);
    await_open_sessions(&runtime, 0);
    runtime.shutdown();
}

/// Concurrent recorded sessions spanning a mid-run socket kill stay
/// linearizable: the victim's in-flight write is on a key outside the
/// recorded space, and its death neither wedges a poller shard nor
/// corrupts any other session's stream.
#[test]
fn histories_stay_linearizable_across_a_mid_run_kill() {
    let _serial = serial();
    const SESSIONS: usize = 4;
    const KEYS: u64 = 8;
    const OPS_PER_SESSION: u64 = 40;
    const DEPTH: usize = 4;

    let runtime = Arc::new(serve_single_node(2));
    let clock = Arc::new(AtomicU64::new(0));
    let mut joins = Vec::new();
    for sid in 0..SESSIONS {
        let addr = runtime.client_addr();
        let clock = Arc::clone(&clock);
        joins.push(std::thread::spawn(move || {
            let mut session = remote_session(addr, CONNECT);
            run_recorded_session(
                &mut session,
                &clock,
                sid as u64,
                KEYS,
                OPS_PER_SESSION,
                DEPTH,
            )
        }));
    }

    // Mid-run, a bystander session dies with a request in flight.
    std::thread::sleep(Duration::from_millis(5));
    let mut victim = TcpStream::connect(runtime.client_addr()).expect("connect victim");
    send_frame(&mut victim, &write(1, Key(1 << 20), 1));
    victim.shutdown(Shutdown::Both).expect("kill victim");
    drop(victim);

    let mut all: Vec<RecordedOp> = Vec::new();
    for j in joins {
        all.extend(j.join().expect("session thread"));
    }
    assert_eq!(all.len(), SESSIONS * OPS_PER_SESSION as usize);
    for o in &all {
        if !matches!(o.kind, hermes::model::OpKind::FetchAdd { .. }) {
            assert_eq!(
                o.outcome,
                hermes::model::Outcome::Completed,
                "op failed across the kill: {o:?}"
            );
        }
    }
    check_linearizable_per_key(&all, KEYS).expect("history linearizable across session kill");

    await_open_sessions(&runtime, 0);
    match Arc::try_unwrap(runtime) {
        Ok(r) => r.shutdown(),
        Err(_) => panic!("runtime still shared"),
    }
}

/// Rule 2 of the poller's mirror reads (DESIGN.md §8): a read never passes
/// its own session's in-flight update of the same key. A subscribed
/// session pipelines `write(k, v)` and `read(k)` without waiting; were the
/// read answered from the mirror ahead of the write, its (superseded)
/// value would fill the session's cache, and since a lane pushes an issuer
/// no invalidation of its own write, the cache would go on serving it after
/// the write was acknowledged. A second session writes `k` at another
/// replica throughout, so the key also goes `Invalid` under the reader and
/// pushes race the fills.
#[test]
fn a_pipelined_read_never_parks_a_value_older_than_the_sessions_own_write() {
    let _serial = serial();
    const K: Key = Key(5);
    const ROUNDS: u64 = 300;
    /// The other writer's values: never mistaken for the session's own.
    const OTHER: u64 = 1 << 40;
    let nodes = serve_three_nodes(1);
    let mut session = remote_session(nodes[0].client_addr(), CONNECT);
    assert!(session.subscribe(K));
    let stop = Arc::new(AtomicBool::new(false));
    let other = {
        let mut writer = remote_session(nodes[1].client_addr(), CONNECT);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut n = OTHER;
            while !stop.load(Ordering::Relaxed) {
                n += 1;
                let t = writer.write(K, Value::from_u64(n));
                assert_eq!(writer.wait(t), Reply::WriteOk);
                std::thread::sleep(Duration::from_micros(300));
            }
        })
    };

    for round in 1..=ROUNDS {
        let w = session.write(K, Value::from_u64(round));
        let r = session.read(K);
        assert_eq!(session.wait(w), Reply::WriteOk);
        assert!(matches!(session.wait(r), Reply::ReadOk(_)));
        // The write is acknowledged: whatever now answers a read of `K` —
        // the cache, the mirror or a lane — holds this round's value or a
        // later write of the other session, never an earlier round's.
        let t = session.read(K);
        let Reply::ReadOk(value) = session.wait(t) else {
            panic!("round {round}: read failed");
        };
        let seen = value.to_u64().expect("u64 payloads");
        assert!(
            seen == round || seen > OTHER,
            "round {round}: a read after the acknowledged write returned round {seen}'s value"
        );
    }
    stop.store(true, Ordering::Relaxed);
    other.join().expect("writer thread");
    assert!(session.cache_hits() > 0, "the cache never served a read");
    let (_, fallbacks) = mirror_reads_and_fallbacks(&nodes);
    assert!(
        fallbacks > 0.0,
        "no pipelined read queued behind its session's write"
    );
    drop(session);
    for node in nodes {
        node.shutdown();
    }
}

/// Rule 1 (DESIGN.md §3.3) end to end: with reads answered from the mirror
/// wherever the key is `Valid`, and by a lane wherever it is not, sessions
/// at all three replicas writing, reading and fetch-adding the same four
/// keys produce a linearizable history — and both read paths were taken.
#[test]
fn histories_stay_linearizable_with_reads_served_from_the_mirror() {
    let _serial = serial();
    const SESSIONS: usize = 4;
    const KEYS: u64 = 4;
    const OPS_PER_SESSION: u64 = 40;
    const DEPTH: usize = 4;

    let nodes = serve_three_nodes(1);
    let clock = Arc::new(AtomicU64::new(0));
    let joins: Vec<_> = (0..SESSIONS)
        .map(|sid| {
            let mut session = remote_session(nodes[sid % nodes.len()].client_addr(), CONNECT);
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || {
                run_recorded_session(
                    &mut session,
                    &clock,
                    sid as u64,
                    KEYS,
                    OPS_PER_SESSION,
                    DEPTH,
                )
            })
        })
        .collect();
    let mut all: Vec<RecordedOp> = Vec::new();
    for j in joins {
        all.extend(j.join().expect("session thread"));
    }
    assert_eq!(all.len(), SESSIONS * OPS_PER_SESSION as usize);
    check_linearizable_per_key(&all, KEYS).expect("history linearizable with mirror reads");
    let (mirror, fallbacks) = mirror_reads_and_fallbacks(&nodes);
    assert!(mirror > 0.0, "no read was answered from the mirror");
    assert!(fallbacks > 0.0, "no read took the lane path");
    for node in nodes {
        node.shutdown();
    }
}
