//! The client side of a remote session, as a process sees it: a
//! [`RemoteChannel`] that never subscribed owns no thread (the session's
//! thread reads its own socket), a subscription costs exactly one, frames
//! far larger than any buffer involved cross in both directions intact, and
//! a connection that dies — by its peer or by a [`KillSwitch`] — releases
//! whoever is blocked on it at once instead of after the 10 s wait limit.
//! A session's operations wait in the channel's outbox until it next looks
//! for replies, and still leave when it is dropped instead.
//!
//! The tests run one at a time: they count the process's threads and CPU
//! time. The frame decoding and the hand-over of the read half to the
//! reader thread are unit-tested in `crates/replica/src/remote.rs`.
#![cfg(target_os = "linux")]

#[path = "support/cluster.rs"]
mod cluster;
#[path = "support/procfs.rs"]
mod procfs;

use cluster::{remote_session, serial, serve_single_node, CONNECT};
use hermes::prelude::*;
use hermes::wings::client::{split_frame, Request};
use hermes::wings::CreditConfig;
use procfs::settled_threads;
use std::io::{ErrorKind, Read};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// A channel whose peer is a bare accepted socket: nothing ever answers.
fn channel_to_a_silent_peer(subscribed: bool) -> (RemoteChannel, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let mut channel =
        RemoteChannel::connect(listener.local_addr().expect("local addr")).expect("connect");
    let (peer, _) = listener.accept().expect("accept");
    if subscribed {
        // At the channel, not through the session: the session would wait
        // for an ack that this peer never sends. The reader thread runs
        // from here on.
        let (seq, key) = (u64::MAX, Key(0));
        assert!(channel.send(Request::Subscribe { seq, key }));
    }
    (channel, peer)
}

/// CPU time of the whole process so far, user plus system, in ms
/// (`/proc/self/stat` fields 14 and 15, in 10 ms ticks).
fn process_cpu_ms() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut ticks = || -> u64 { fields.next().and_then(|f| f.parse().ok()).expect("ticks") };
    (ticks() + ticks()) * 10
}

#[test]
fn only_a_subscription_costs_the_client_a_thread() {
    let _serial = serial();
    let runtime = serve_single_node(2);
    let before = settled_threads();
    let mut sessions: Vec<_> = (0..64)
        .map(|_| remote_session(runtime.client_addr(), CONNECT))
        .collect();
    for (i, session) in sessions.iter_mut().enumerate() {
        let (key, value) = (Key(i as u64), Value::from_u64(i as u64));
        let t = session.write(key, value.clone());
        assert_eq!(session.wait(t), Reply::WriteOk);
        let t = session.read(key);
        assert_eq!(session.wait(t), Reply::ReadOk(value));
    }
    assert_eq!(
        settled_threads(),
        before,
        "64 sessions that never subscribed"
    );
    assert!(sessions[0].subscribe(Key(0)));
    assert_eq!(settled_threads(), before + 1, "the first subscription");
    assert!(sessions[0].subscribe(Key(1)));
    assert_eq!(
        settled_threads(),
        before + 1,
        "one reader, however many keys"
    );
    drop(sessions.swap_remove(0));
    assert_eq!(
        settled_threads(),
        before,
        "the reader goes with its session"
    );
    drop(sessions);
    runtime.shutdown();
}

/// 8 MiB each way through one session, against a real daemon: every reply
/// spans many reads, so the receive buffer grows to a frame, and the
/// requests overrun the socket buffer whenever the daemon's poller falls
/// behind (the unit test in `remote.rs` forces that with a peer that reads
/// nothing until the socket has backed up).
#[test]
fn pipelined_quarter_mebibyte_values_cross_intact_both_ways() {
    let _serial = serial();
    const LEN: usize = 256 << 10;
    let runtime = serve_single_node(2);
    let mut session = remote_session(runtime.client_addr(), CONNECT);
    let value = |k: u64| -> Value {
        let bytes = (0..LEN).map(|i| (i as u64 * (2 * k + 1) % 251) as u8);
        Value::from(bytes.collect::<Vec<u8>>())
    };
    let writes: Vec<Ticket> = (0..32).map(|k| session.write(Key(k), value(k))).collect();
    for t in writes {
        assert_eq!(session.wait(t), Reply::WriteOk);
    }
    let reads: Vec<Ticket> = (0..32).map(|k| session.read(Key(k))).collect();
    for (k, t) in reads.into_iter().enumerate() {
        let Reply::ReadOk(got) = session.wait(t) else {
            panic!("read of key {k} failed");
        };
        assert!(got == value(k as u64), "key {k} came back different");
    }
    drop(session);
    runtime.shutdown();
}

#[test]
fn a_kill_from_another_thread_wakes_a_blocked_wait() {
    let _serial = serial();
    for subscribed in [false, true] {
        let (channel, _peer) = channel_to_a_silent_peer(subscribed);
        let switch = channel.kill_switch().expect("kill switch");
        let mut session = channel.into_session();
        let ticket = session.read(Key(1));
        let killer = std::thread::spawn(move || {
            // Long enough for `wait` below to be blocked when it fires; the
            // assertion holds in the other order too.
            std::thread::sleep(Duration::from_millis(100));
            switch.kill();
        });
        let start = Instant::now();
        assert_eq!(session.wait(ticket), Reply::NotOperational);
        let waited = start.elapsed();
        assert!(
            waited < Duration::from_secs(2),
            "subscribed={subscribed}: {waited:?}"
        );
        killer.join().expect("killer");
    }
}

/// Regression: on a channel whose peer hung up, `wait` used to return
/// after the full 10 s limit having spun on a queue that answers
/// "disconnected" at once, and so did `wait_any` and a submit stalled on
/// credits.
#[test]
fn a_dead_channel_fails_its_waiters_at_once_and_burns_no_cpu() {
    let _serial = serial();
    for subscribed in [false, true] {
        let (channel, peer) = channel_to_a_silent_peer(subscribed);
        let one_credit = CreditConfig {
            credits_per_peer: 1,
        };
        let mut session = ClientSession::new(channel, one_credit);
        let in_flight = session.write(Key(1), Value::from_u64(1));
        drop(peer);
        let (start, cpu) = (Instant::now(), process_cpu_ms());
        let stalled = session.write(Key(2), Value::from_u64(2));
        assert_eq!(session.wait(stalled), Reply::NotOperational);
        assert_eq!(session.wait_any(), None, "one op still in flight");
        assert_eq!(session.wait(in_flight), Reply::NotOperational);
        let (waited, burnt) = (start.elapsed(), process_cpu_ms() - cpu);
        assert!(
            waited < Duration::from_secs(1),
            "subscribed={subscribed}: {waited:?}"
        );
        assert!(burnt < 100, "subscribed={subscribed}: {burnt} ms of CPU");
    }
}

/// Sixteen reads submitted and not yet looked for are not on the wire: the
/// peer's non-blocking read finds nothing. The session's next look (a
/// `poll`, here) sends them all, in the order they were submitted.
#[test]
fn queued_operations_leave_in_order_at_the_sessions_next_recv() {
    let _serial = serial();
    let (channel, mut peer) = channel_to_a_silent_peer(false);
    let mut session = channel.into_session();
    let tickets: Vec<Ticket> = (0..16).map(|k| session.read(Key(k))).collect();
    peer.set_nonblocking(true).expect("non-blocking peer");
    let mut received = vec![0u8; 64 << 10];
    let early = peer.read(&mut received).map_err(|e| e.kind());
    assert_eq!(early.err(), Some(ErrorKind::WouldBlock), "nothing sent yet");
    assert_eq!(session.poll(tickets[0]), None);
    peer.set_nonblocking(false).expect("blocking peer");
    peer.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let (mut filled, mut requests) = (0, Vec::new());
    while requests.len() < tickets.len() {
        filled += peer
            .read(&mut received[filled..])
            .expect("the queued reads");
        let mut at = 0;
        while let Some(payload) = split_frame(&received[at..filled], usize::MAX).expect("framing") {
            requests.push(Request::decode(payload).expect("a request"));
            at += 4 + payload.len();
        }
        received.copy_within(at..filled, 0);
        filled -= at;
    }
    let keys: Vec<Key> = (requests.iter())
        .map(|request| match request {
            Request::Op {
                key,
                cop: ClientOp::Read,
                ..
            } => *key,
            other => panic!("nobody sent {other:?}"),
        })
        .collect();
    assert_eq!(keys, (0..16).map(Key).collect::<Vec<_>>());
}

/// A session that submits 64 writes and is dropped without waiting for
/// any: every write is applied all the same, as a second session sees.
#[test]
fn a_session_dropped_without_waiting_still_has_every_write_applied() {
    let _serial = serial();
    let runtime = serve_single_node(2);
    let mut writer = remote_session(runtime.client_addr(), CONNECT);
    for k in 0..64 {
        writer.write(Key(100 + k), Value::from_u64(k));
    }
    drop(writer);
    let mut reader = remote_session(runtime.client_addr(), CONNECT);
    let deadline = Instant::now() + Duration::from_secs(10);
    for k in 0..64 {
        loop {
            let ticket = reader.read(Key(100 + k));
            match reader.wait(ticket) {
                Reply::ReadOk(value) if value == Value::from_u64(k) => break,
                other => assert!(Instant::now() < deadline, "write {k} lost: {other:?}"),
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    drop(reader);
    runtime.shutdown();
}
