//! Session-count scaling against one `hermesd` daemon: the acceptance
//! harness of the sharded-poller client plane.
//!
//! Run with no arguments, this binary sweeps **64 → 1,000 → 10,000**
//! concurrent remote sessions against a single replica daemon (spawned as
//! a child copy of itself running `hermesd`'s `daemon_main`).
//! The old thread-per-connection client edge would need two daemon
//! threads per session — 20,000 threads at the top of the sweep; the
//! poller plane serves the whole fleet from a fixed handful, which this
//! harness verifies by reading the daemon's `/proc/<pid>/status` thread
//! count at peak load.
//!
//! For each sweep level it:
//!
//! 1. spawns a fresh daemon child (`--workers 2 --pollers 2`);
//! 2. connects N client sockets and multiplexes **all of them from one
//!    harness thread** over [`hermes::net::Poller`] — each session a
//!    closed loop of depth 1 (write, await reply, write again) on its own
//!    key, with per-op latency recorded during a timed window;
//! 3. concurrently runs a small *recorder* fleet of conventional
//!    [`ClientSession`]s whose histories go to the Wing & Gong
//!    linearizability checker (the checker is bounded at 63 ops/key, so
//!    the full fleet cannot be recorded — the recorders share the daemon
//!    with the fleet and witness linearizability under its load);
//! 4. reads the `hermes_open_sessions`, `hermes_shard_sessions` and
//!    `hermes_lane_ingress_total` samples off the daemon's Metrics RPC,
//!    asserts the whole fleet is accounted for, and snapshots the daemon's
//!    thread count;
//! 5. emits one record per level into **`BENCH_session_scaling.json`**
//!    (ops/s, p50/p99 latency, gauges, thread count).
//!
//! `--smoke` runs a single 256-session level with a short window (CI
//! size) and records it under `target/bench/` instead. `--node` switches
//! to daemon mode.

use hermes::harness::{
    check_linearizable_per_key, connect_within, daemon_main, run_recorded_session, spawn_daemons,
    write_bench_record, RecordedOp,
};
use hermes::net::{Interest, PollEvent, Poller};
use hermes::prelude::*;
use hermes::wings::client::{self as rpc, Request, ServerFrame};
use hermes::wings::CreditConfig;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sweep levels (sessions per level) for the full run.
const SWEEP: &[usize] = &[64, 1_000, 10_000];
/// The bounded smoke level for CI.
const SMOKE_SWEEP: &[usize] = &[256];
/// Measurement window per level.
const WINDOW: Duration = Duration::from_secs(3);
const SMOKE_WINDOW: Duration = Duration::from_secs(1);
/// Grace period for draining in-flight ops after the window closes.
const DRAIN: Duration = Duration::from_secs(10);

/// Recorder fleet: small enough that no key's history can overflow the
/// checker's 63-op bound (6×48 ops over 8 keys ≈ 36/key on average).
const RECORDERS: usize = 6;
const RECORDER_KEYS: u64 = 8;
const RECORDER_OPS: u64 = 48;
const RECORDER_DEPTH: usize = 4;

/// Fleet sessions write disjoint keys, far away from the recorders', so
/// the recorded histories stay complete for the keys they cover.
const FLEET_KEY_BASE: u64 = 1 << 20;
/// Longest frame a fleet session accepts: all it is ever sent is the
/// nine-byte `WriteOk` of its own write.
const MAX_REPLY: usize = 64;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--node") {
        daemon_main(&args);
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let (sweep, window) = if smoke {
        (SMOKE_SWEEP, SMOKE_WINDOW)
    } else {
        (SWEEP, WINDOW)
    };
    let mut records = Vec::new();
    for &sessions in sweep {
        records.push(run_level(sessions, window));
    }
    let json = format!(
        "{{\n  \"bench\": \"session_scaling\",\n  \"config\": {{\"nodes\": 1, \
         \"workers\": 2, \"pollers\": 2, \"window_secs\": {:.1}, \
         \"recorders\": {RECORDERS}}},\n  \"points\": [\n{}\n  ]\n}}\n",
        window.as_secs_f64(),
        records.join(",\n")
    );
    match write_bench_record("session_scaling", smoke, &json) {
        Ok(path) => println!("\nwrote {} sweep levels to {}", sweep.len(), path.display()),
        Err(e) => eprintln!("\nfailed to write the record: {e}"),
    }
}

/// One fleet session: a closed loop of depth 1 driven sans-io. `seq`
/// counts issued requests; a reply for the current `seq` immediately
/// issues the next while the window is open.
struct FleetSession {
    stream: TcpStream,
    key: Key,
    inbuf: Vec<u8>,
    out: Vec<u8>,
    out_at: usize,
    seq: u64,
    issued: Option<Instant>,
    interest: Interest,
}

impl FleetSession {
    fn issue(&mut self) {
        self.seq += 1;
        let request = Request::Op {
            seq: self.seq,
            key: self.key,
            cop: ClientOp::Write(Value::from_u64(self.seq)),
        };
        rpc::put_frame(&mut self.out, |out| request.encode(out));
        self.issued = Some(Instant::now());
    }

    fn wants_write(&self) -> bool {
        self.out_at < self.out.len()
    }
}

/// Everything measured at one sweep level, already rendered as a JSON
/// object body.
fn run_level(sessions: usize, window: Duration) -> String {
    println!("\n== {sessions} sessions ==");
    let exe = std::env::current_exe().expect("own path");
    let daemon = spawn_daemons(exe, 1, &["--workers", "2", "--pollers", "2"], |_| {
        Vec::new()
    });
    let (client_addr, pid) = (daemon.clients[0], daemon.pid(0));
    drop(connect_within(client_addr, Duration::from_secs(20)));

    // Recorder fleet on its own threads: conventional blocking sessions
    // whose histories feed the linearizability checker while the big
    // fleet saturates the same daemon.
    let clock = Arc::new(AtomicU64::new(0));
    let mut recorder_joins = Vec::new();
    for sid in 0..RECORDERS {
        let clock = Arc::clone(&clock);
        recorder_joins.push(std::thread::spawn(move || {
            let channel = RemoteChannel::connect_within(client_addr, Duration::from_secs(20))
                .expect("daemon client port reachable");
            let mut session = ClientSession::new(channel, CreditConfig::default());
            run_recorded_session(
                &mut session,
                &clock,
                sid as u64,
                RECORDER_KEYS,
                RECORDER_OPS,
                RECORDER_DEPTH,
            )
        }));
    }

    // Connect the fleet. Blocking connect (the daemon's poller drains its
    // accept queue continuously), then switch to nonblocking for the
    // multiplexed loop.
    let poller = Poller::new().expect("fleet poller");
    let mut fleet: Vec<FleetSession> = Vec::with_capacity(sessions);
    for i in 0..sessions {
        let stream = connect_within(client_addr, Duration::from_secs(20));
        stream.set_nodelay(true).expect("nodelay");
        stream.set_nonblocking(true).expect("nonblocking");
        let mut s = FleetSession {
            stream,
            key: Key(FLEET_KEY_BASE + i as u64),
            inbuf: Vec::new(),
            out: Vec::new(),
            out_at: 0,
            seq: 0,
            issued: None,
            interest: Interest::BOTH,
        };
        s.issue();
        poller
            .register(s.stream.as_raw_fd(), i as u64, Interest::BOTH)
            .expect("register fleet session");
        fleet.push(s);
    }
    println!("   {sessions} sessions connected, measuring {window:?}");

    // The multiplexed closed loop: one thread, the whole fleet.
    let start = Instant::now();
    let window_end = start + window;
    let drain_end = window_end + DRAIN;
    let mut latencies = HistogramSnapshot::empty();
    let mut measured_ops: u64 = 0;
    let mut events: Vec<PollEvent> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    loop {
        let now = Instant::now();
        if now >= drain_end || (now >= window_end && fleet.iter().all(|s| s.issued.is_none())) {
            break;
        }
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .expect("poller wait");
        for ev in &events {
            let sess = &mut fleet[ev.token as usize];
            if ev.readable || ev.hangup {
                loop {
                    match sess.stream.read(&mut scratch) {
                        Ok(0) => panic!("daemon hung up on session {}", ev.token),
                        Ok(n) => sess.inbuf.extend_from_slice(&scratch[..n]),
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(e) => panic!("session {} read: {e}", ev.token),
                    }
                }
                let now = Instant::now();
                let mut parsed = 0;
                while let Some(payload) =
                    rpc::split_frame(&sess.inbuf[parsed..], MAX_REPLY).expect("a reply frame")
                {
                    parsed += 4 + payload.len();
                    let reply = ServerFrame::decode(payload).expect("well-formed reply");
                    // A depth-1 loop sees its replies in order.
                    assert_eq!(reply, ServerFrame::Reply(sess.seq, Reply::WriteOk));
                    let issued = sess.issued.take().expect("reply matches an issued op");
                    if now < window_end {
                        latencies.record(issued.elapsed().as_micros() as u64);
                        measured_ops += 1;
                        sess.issue();
                    }
                }
                sess.inbuf.drain(..parsed);
            }
            if ev.writable && sess.wants_write() {
                loop {
                    match sess.stream.write(&sess.out[sess.out_at..]) {
                        Ok(n) => {
                            sess.out_at += n;
                            if !sess.wants_write() {
                                sess.out.clear();
                                sess.out_at = 0;
                                break;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(e) => panic!("session {} write: {e}", ev.token),
                    }
                }
            }
            let want = Interest {
                read: true,
                write: sess.wants_write(),
            };
            if want != sess.interest {
                poller
                    .reregister(sess.stream.as_raw_fd(), ev.token, want)
                    .expect("reregister fleet session");
                sess.interest = want;
            }
        }
    }
    let drained = fleet.iter().filter(|s| s.issued.is_none()).count();
    assert_eq!(
        drained, sessions,
        "all in-flight ops drained after the window"
    );

    // Peak-load accounting: every fleet + recorder session must be on the
    // daemon's books, from a bounded number of daemon threads.
    let text = query_metrics(client_addr, Duration::from_secs(10)).expect("metrics RPC");
    let threads = proc_threads(pid);
    let rows = |name| -> Vec<u64> {
        let rows = hermes::obs::samples(&text, name).into_iter();
        rows.map(|(_, v)| v as u64).collect()
    };
    let open_sessions: u64 = rows("hermes_open_sessions").iter().sum();
    assert!(
        open_sessions >= sessions as u64,
        "daemon tracks the whole fleet: open_sessions={open_sessions} < {sessions}"
    );
    let shard_sum: u64 = rows("hermes_shard_sessions").iter().sum();
    assert_eq!(shard_sum, open_sessions, "shard gauges sum to the total");

    // The recorders ran concurrently with the fleet; their histories must
    // be linearizable under full load.
    let mut all: Vec<RecordedOp> = Vec::new();
    for j in recorder_joins {
        all.extend(j.join().expect("recorder thread"));
    }
    for o in &all {
        if !matches!(o.kind, hermes::model::OpKind::FetchAdd { .. }) {
            assert_eq!(
                o.outcome,
                hermes::model::Outcome::Completed,
                "recorder op failed under fleet load: {o:?}"
            );
        }
    }
    check_linearizable_per_key(&all, RECORDER_KEYS)
        .expect("recorded history linearizable under fleet load");

    let secs = window.as_secs_f64();
    let ops_per_sec = measured_ops as f64 / secs;
    let q = latencies.quantiles();
    let (p50, p90, p99, p999) = (q.p50, q.p90, q.p99, q.p999);
    println!(
        "   {measured_ops} ops in {secs:.1}s = {ops_per_sec:.0} ops/s; \
         p50 {p50}us p99 {p99}us; open_sessions={open_sessions} threads={threads}"
    );
    println!("   recorder histories linearizable under load");

    // Orderly teardown: close the fleet, hang up the daemon's stdin.
    drop(fleet);
    daemon.shutdown();
    let lane_ingress = rows("hermes_lane_ingress_total")
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "    {{\"sessions\": {sessions}, \"ops\": {measured_ops}, \
         \"ops_per_sec\": {ops_per_sec:.1}, \"p50_us\": {p50}, \"p90_us\": {p90}, \
         \"p99_us\": {p99}, \"p999_us\": {p999}, \
         \"open_sessions\": {open_sessions}, \"daemon_threads\": {threads}, \
         \"lane_ingress\": [{lane_ingress}]}}"
    )
}

/// The daemon's live thread count, from `/proc/<pid>/status`. Returns 0
/// where procfs is unavailable (the JSON record then shows the gap
/// honestly instead of failing the sweep).
fn proc_threads(pid: u32) -> u64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}
