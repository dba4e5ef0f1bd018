//! Client-cache acceptance harness: zipfian hot-key read-heavy workloads
//! against one `hermesd` daemon, cached vs. uncached.
//!
//! Hermes' invalidation coherence extended one hop to clients (DESIGN.md
//! §8) turns every repeat read of a warm key into a zero-RTT local hit.
//! This harness quantifies that and proves it safe:
//!
//! 1. for each mode (`uncached`, `cached`) it spawns a fresh daemon child
//!    (a copy of itself running `hermesd`'s `daemon_main`), pre-populates a hot
//!    key set, and drives a closed-loop fleet of remote sessions sampling
//!    keys zipfian(θ=0.99) — YCSB's skew — at a 95 % read mix; in cached
//!    mode every session first subscribes to the whole hot set;
//! 2. concurrently, a small *recorder* fleet (bounded so no key exceeds
//!    the Wing & Gong checker's 63-op limit) runs the mixed workload with
//!    subscriptions on — its histories, cached reads recorded as ordinary
//!    observations, feed the linearizability checker: the cache must be
//!    not just fast but coherent under concurrent invalidation traffic;
//! 3. one record per mode lands in **`BENCH_client_cache.json`** (read
//!    throughput, hit/miss/invalidation counters, daemon push gauges),
//!    plus the cached/uncached read-throughput ratio; the harness asserts
//!    the cache's hit rate and zero-RTT median on every run.
//!
//! `--smoke` shrinks the fleet and window to CI size, also asserts the
//! ratio, and records under `target/bench/` instead. `--node` switches to
//! daemon mode.

use hermes::harness::{
    check_linearizable_per_key, connect_within, daemon_main, run_recorded_session, spawn_daemons,
    write_bench_record, RecordedOp,
};
use hermes::prelude::*;
use hermes::sim::rng::Rng;
use hermes::workload::KeyChooser;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Measurement fleet: closed-loop sessions hammering the hot set. Every
/// session both reads and writes, so each extra session is another
/// invalidation source for every other session's cache: the hit rate is
/// structurally ≈ (R/W)/n / ((R/W)/n + 1) for n sessions. Two sessions
/// keep the bench about repeat-read latency rather than cross-session
/// write churn (the recorder fleet supplies churn for the checker).
const SESSIONS: usize = 2;
const SMOKE_SESSIONS: usize = 2;
/// Hot key set size; zipfian(0.99) concentrates most reads on a few.
const KEYS: u64 = 64;
const SMOKE_KEYS: u64 = 16;
/// Reads per hundred operations (the rest are writes). Writes to
/// subscribed keys are deliberately slow — WriteOk is withheld until every
/// subscriber acks the invalidation — so the mix keeps them rare enough
/// that the measurement tracks repeat-read latency, while still pushing
/// tens of thousands of invalidations through every cached window.
const READ_PCT: u64 = 98;
/// Measurement window per mode.
const WINDOW: Duration = Duration::from_secs(3);
const SMOKE_WINDOW: Duration = Duration::from_secs(1);
/// Record every Nth read latency (a cached fleet does millions of reads).
const LATENCY_SAMPLE: u64 = 128;
/// Required cached/uncached read-throughput ratio of a `--smoke` run (the
/// CI gate). A full run records its ratio and asserts none: an uncached
/// read is a mirror read on the daemon's poller thread (DESIGN.md §7), one
/// loopback round trip, and with the 64-key, 3 s configuration the ratio
/// swings from 2× to 9× on a 2-vCPU host with how the two modes' runs
/// happen to share the CPUs.
const SMOKE_SPEEDUP_BAR: f64 = 2.0;
/// Required share of cached-mode reads served from the cache, any run. The
/// mix fixes it at ≈ 96 % (see [`SESSIONS`]) whatever the host's speed; a
/// cache that stopped working reads 0 %.
const HIT_RATE_BAR: f64 = 0.95;

/// Recorder fleet: 4×36 ops cycled over 6 keys = 24 ops/key, safely under
/// the checker's 63-op bound.
const RECORDERS: usize = 4;
const RECORDER_KEYS: u64 = 6;
const RECORDER_OPS: u64 = 36;
const RECORDER_DEPTH: usize = 4;

/// Measurement keys live far from the recorders' so recorded histories
/// stay complete for the keys they cover.
const MEASURE_KEY_BASE: u64 = 1 << 20;

struct ModeRecord {
    mode: &'static str,
    reads: u64,
    writes: u64,
    reads_per_sec: f64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
    p999_us: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
    subscriptions: u64,
    pushes: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--node") {
        daemon_main(&args);
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let (sessions, keys, window) = if smoke {
        (SMOKE_SESSIONS, SMOKE_KEYS, SMOKE_WINDOW)
    } else {
        (SESSIONS, KEYS, WINDOW)
    };

    let uncached = run_mode(false, sessions, keys, window);
    let cached = run_mode(true, sessions, keys, window);
    let speedup = cached.reads_per_sec / uncached.reads_per_sec.max(1.0);
    let hit_rate = cached.hits as f64 / (cached.hits + cached.misses).max(1) as f64;
    println!(
        "\nread throughput: uncached {:.0}/s, cached {:.0}/s → {speedup:.1}× \
         (hit rate {:.1}%)",
        uncached.reads_per_sec,
        cached.reads_per_sec,
        100.0 * hit_rate
    );

    let json = format!(
        "{{\n  \"bench\": \"client_cache\",\n  \"config\": {{\"nodes\": 1, \
         \"workers\": 2, \"pollers\": 2, \"sessions\": {sessions}, \
         \"keys\": {keys}, \"zipf_theta\": 0.99, \"read_pct\": {READ_PCT}, \
         \"window_secs\": {:.1}, \"recorders\": {RECORDERS}}},\n  \
         \"modes\": [\n{},\n{}\n  ],\n  \"read_speedup\": {speedup:.2}\n}}\n",
        window.as_secs_f64(),
        uncached.to_json(),
        cached.to_json(),
    );
    match write_bench_record("client_cache", smoke, &json) {
        Ok(path) => println!("wrote both modes to {}", path.display()),
        Err(e) => eprintln!("failed to write the record: {e}"),
    }
    assert!(
        hit_rate >= HIT_RATE_BAR,
        "only {:.1}% of cached-mode reads hit the cache (need ≥ {:.0}%)",
        100.0 * hit_rate,
        100.0 * HIT_RATE_BAR
    );
    assert_eq!(
        cached.p50_us, 0,
        "the median cached read takes no round trip"
    );
    assert!(
        !smoke || speedup >= SMOKE_SPEEDUP_BAR,
        "cached read throughput only {speedup:.2}× uncached (need ≥ {SMOKE_SPEEDUP_BAR:.1}×)"
    );
}

impl ModeRecord {
    fn to_json(&self) -> String {
        format!(
            "    {{\"mode\": \"{}\", \"reads\": {}, \"writes\": {}, \
             \"reads_per_sec\": {:.1}, \"read_p50_us\": {}, \"read_p90_us\": {}, \
             \"read_p99_us\": {}, \"read_p999_us\": {}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \"invalidations\": {}, \
             \"daemon_subscriptions\": {}, \"daemon_pushes\": {}}}",
            self.mode,
            self.reads,
            self.writes,
            self.reads_per_sec,
            self.p50_us,
            self.p90_us,
            self.p99_us,
            self.p999_us,
            self.hits,
            self.misses,
            self.invalidations,
            self.subscriptions,
            self.pushes
        )
    }
}

/// One full measured pass (fresh daemon, fleet, recorders) in one mode.
fn run_mode(cached: bool, sessions: usize, keys: u64, window: Duration) -> ModeRecord {
    let mode = if cached { "cached" } else { "uncached" };
    println!("\n== {mode}: {sessions} sessions, {keys} hot keys, {window:?} ==");
    let exe = std::env::current_exe().expect("own path");
    let daemon = spawn_daemons(exe, 1, &["--workers", "2", "--pollers", "2"], |_| {
        Vec::new()
    });
    let client_addr = daemon.clients[0];
    drop(connect_within(client_addr, Duration::from_secs(20)));

    // Pre-populate the hot set so first reads return real values.
    {
        let channel = RemoteChannel::connect_within(client_addr, Duration::from_secs(20))
            .expect("seed connect");
        let mut seeder = ClientSession::new(channel, hermes::wings::CreditConfig::default());
        for k in 0..keys {
            let t = seeder.write(Key(MEASURE_KEY_BASE + k), Value::from_u64(k));
            assert_eq!(seeder.wait(t), Reply::WriteOk, "seed write");
        }
    }

    // Recorder fleet: coherence witnesses under the fleet's push traffic.
    let clock = Arc::new(AtomicU64::new(0));
    let mut recorder_joins = Vec::new();
    for sid in 0..RECORDERS {
        let clock = Arc::clone(&clock);
        recorder_joins.push(std::thread::spawn(move || {
            let channel = RemoteChannel::connect_within(client_addr, Duration::from_secs(20))
                .expect("recorder connect");
            let mut session = ClientSession::new(channel, hermes::wings::CreditConfig::default());
            if cached {
                for k in 0..RECORDER_KEYS {
                    assert!(session.subscribe(Key(k)), "recorder subscribe");
                }
            }
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

    // The measurement fleet: one thread per closed-loop session.
    let stop = Arc::new(AtomicBool::new(false));
    let mut fleet_joins = Vec::new();
    for sid in 0..sessions {
        let stop = Arc::clone(&stop);
        fleet_joins.push(std::thread::spawn(move || {
            let channel = RemoteChannel::connect_within(client_addr, Duration::from_secs(20))
                .expect("fleet connect");
            let mut session = ClientSession::new(channel, hermes::wings::CreditConfig::default());
            if cached {
                for k in 0..keys {
                    assert!(session.subscribe(Key(MEASURE_KEY_BASE + k)), "subscribe");
                }
            }
            let mut chooser = KeyChooser::zipfian(keys, 0.99);
            let mut rng = Rng::seeded(0xCAC4E + sid as u64);
            let mut reads = 0u64;
            let mut writes = 0u64;
            let mut latencies = HistogramSnapshot::empty();
            while !stop.load(Ordering::Relaxed) {
                let key = Key(MEASURE_KEY_BASE + chooser.next_key(&mut rng).0);
                if rng.next_u64() % 100 < READ_PCT {
                    let begin = Instant::now();
                    let t = session.read(key);
                    let reply = session.wait(t);
                    assert!(matches!(reply, Reply::ReadOk(_)), "fleet read: {reply:?}");
                    reads += 1;
                    if reads.is_multiple_of(LATENCY_SAMPLE) {
                        latencies.record(begin.elapsed().as_micros() as u64);
                    }
                } else {
                    let t = session.write(key, Value::from_u64(rng.next_u64() >> 1));
                    assert_eq!(session.wait(t), Reply::WriteOk, "fleet write");
                    writes += 1;
                }
            }
            let (hits, misses, invals) = (
                session.cache_hits(),
                session.cache_misses(),
                session.cache_invalidations(),
            );
            (reads, writes, latencies, hits, misses, invals)
        }));
    }

    std::thread::sleep(window);
    // Daemon-side gauges while the fleet's subscriptions are still open
    // (joining the threads drops their sessions and drains the gauges).
    let text = query_metrics(client_addr, Duration::from_secs(10)).expect("metrics RPC");
    let gauge = |name| hermes::obs::sample_value(&text, name).expect("exported") as u64;
    let subscriptions = gauge("hermes_cache_subscriptions");
    let pushes = gauge("hermes_cache_pushes_total");
    stop.store(true, Ordering::Relaxed);

    let (mut reads, mut writes, mut hits, mut misses, mut invals) = (0, 0, 0, 0, 0);
    let mut latencies = HistogramSnapshot::empty();
    for j in fleet_joins {
        let (r, w, lat, h, m, i) = j.join().expect("fleet thread");
        reads += r;
        writes += w;
        latencies.merge(&lat);
        hits += h;
        misses += m;
        invals += i;
    }
    if cached {
        assert!(subscriptions > 0, "daemon lost the subscriptions");
        assert!(pushes > 0, "writes to subscribed keys must push");
    }

    // Every recorded history — cached reads included — is linearizable.
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
    if let Err(e) = check_linearizable_per_key(&all, RECORDER_KEYS) {
        let mut dump: Vec<&RecordedOp> = all.iter().collect();
        dump.sort_by_key(|o| o.invoke);
        for o in dump {
            eprintln!(
                "  key={} invoke={} response={} {:?} {:?}",
                o.key.0, o.invoke, o.response, o.kind, o.outcome
            );
        }
        panic!("recorded history not linearizable under cache traffic: {e}");
    }

    let q = latencies.quantiles();
    let record = ModeRecord {
        mode,
        reads,
        writes,
        reads_per_sec: reads as f64 / window.as_secs_f64(),
        p50_us: q.p50,
        p90_us: q.p90,
        p99_us: q.p99,
        p999_us: q.p999,
        hits,
        misses,
        invalidations: invals,
        subscriptions,
        pushes,
    };
    println!(
        "   {} reads ({:.0}/s, p50 {}us p99 {}us), {} writes; \
         hits {} misses {} invalidations {}; daemon pushes {}",
        record.reads,
        record.reads_per_sec,
        record.p50_us,
        record.p99_us,
        record.writes,
        record.hits,
        record.misses,
        record.invalidations,
        record.pushes
    );
    println!("   recorder histories linearizable");

    daemon.shutdown();
    record
}
