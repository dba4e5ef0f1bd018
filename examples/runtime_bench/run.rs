//! One run of one workload: set-up, warm-up, the measured window, the layer
//! pass, verification, shutdown, probes.

use crate::cluster::{counter, setup, Cluster, Counters, Live, Session};
use crate::estimate::{percentile, quantile, quiet_cost, quiet_percentile_us, quiet_rate};
use crate::host::{self, Rusage};
use crate::load::{decode_value, run_load, Failures, Issued, OpGen, PhaseRec, Schedule, ThreadRec};
use crate::probes::{self, ProbeScale};
use crate::spec::{Deployment, WorkloadSpec, NODES, SESSIONS, WRITE_HOPS};
use hermes::obs::{stitch, TraceSpan};
use hermes::prelude::*;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Keys compared across the three replicas after the run.
const AGREEMENT_SAMPLE: u64 = 1024;
/// How often the layer pass drains the per-lane trace rings (64 entries
/// each, so they must be emptied faster than sampling fills them).
const TRACE_DRAIN_EVERY: Duration = Duration::from_millis(25);

/// Set-ups are repeated only while they are expected to fit into this much
/// time in total, so that a starved host cannot triple a run's length.
const SETUP_BUDGET: Duration = Duration::from_secs(6);

/// How long each part of a run lasts.
#[derive(Clone, Copy, Debug)]
pub struct RunShape {
    /// Complete set-ups performed at most (all but the last are torn down
    /// again; repeats stop early once [`SETUP_BUDGET`] would be exceeded);
    /// `setup_s` is the fastest.
    pub setups: usize,
    pub warmup: Duration,
    pub slice: Duration,
    pub slices: usize,
    /// Zero skips the layer pass.
    pub layer: Duration,
    pub probes: Option<ProbeScale>,
}

/// Metric name → value, plus what the contract's result line needs.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts behind the latency percentiles, by metric name.
    pub samples: BTreeMap<&'static str, u64>,
    pub attempted: u64,
    pub failures: Failures,
    /// Keys (of the 1 024 sampled) on which the three replicas disagreed or
    /// held a value that does not decode.
    pub disagreements: u64,
    /// Every set-up's duration, in order (`setup_s` is the fastest).
    pub setup_secs: Vec<f64>,
}

impl RunResult {
    pub fn failed(&self) -> u64 {
        self.failures.total() + self.disagreements
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// What the main thread collects while the load threads run.
struct Observed {
    /// `cpu[0]` at the end of warm-up, `cpu[i + 1]` at the end of slice `i`.
    window_usage: Vec<Rusage>,
    /// What the replicas' counters moved by over the measured window.
    window_counters: Counters,
    layer: Option<LayerObserved>,
}

struct LayerObserved {
    usage: (Rusage, Rusage),
    counters: Counters,
    allocs: (u64, u64),
    spans: Vec<TraceSpan>,
    threads: u64,
    exposition_ms: f64,
}

fn sleep_until(t: Instant) {
    std::thread::sleep(t.saturating_duration_since(Instant::now()));
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// One complete set-up, booked into `out` (preload writes count as attempted).
fn timed_setup(spec: &WorkloadSpec, out: &mut RunResult) -> Live {
    let (live, failures, secs) = setup(spec);
    out.failures.add(&failures);
    out.attempted += spec.keys;
    out.setup_secs.push(secs);
    live
}

pub fn run_workload(spec: &WorkloadSpec, seed: u64, shape: &RunShape) -> RunResult {
    let mut out = RunResult::default();
    let spin_before = host::spin_ms();

    let setups_started = Instant::now();
    let mut live = timed_setup(spec, &mut out);
    // Peak so far = one launched, preloaded cluster. Later set-ups only add
    // allocator fragmentation, and the load phase adds the bench's own sample
    // buffers; neither is the store's footprint.
    out.set("peak_rss_mib", host::rusage().max_rss_kib as f64 / 1024.0);
    for _ in 1..shape.setups {
        let next =
            setups_started.elapsed().as_secs_f64() + out.setup_secs[out.setup_secs.len() - 1];
        if next > SETUP_BUDGET.as_secs_f64() {
            break;
        }
        drop(live.sessions);
        live.cluster.shutdown();
        live = timed_setup(spec, &mut out);
    }
    let Live { cluster, sessions } = live;
    // The fastest, not the median: a neighbour can only make a set-up slower.
    out.set(
        "setup_s",
        out.setup_secs.iter().copied().fold(f64::INFINITY, f64::min),
    );

    let issued = Issued::new(spec.keys);
    let sched = Schedule {
        t0: Instant::now(),
        warmup: shape.warmup,
        slice: shape.slice,
        slices: shape.slices,
        layer: shape.layer,
    };
    let (mut recs, sessions, seen) = std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .into_iter()
            .enumerate()
            .map(|(i, mut session)| {
                let (issued, sched) = (&issued, &sched);
                s.spawn(move || {
                    let mut gen = OpGen::new(spec, seed, i as u64 + 1);
                    let rec = run_load(&mut session, &mut gen, sched, spec.depth, issued);
                    (rec, session)
                })
            })
            .collect();
        let seen = observe(&cluster, spec, &sched);
        let (recs, sessions): (Vec<ThreadRec>, Vec<Session>) = handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .unzip();
        (recs, sessions, seen)
    });
    out.disagreements = disagreements(&cluster, spec);
    // Follower spans of the last traced writes complete after the pass ends.
    let late_spans = cluster.trace_spans();
    let final_counters = cluster.counters();
    let poller = poller_medians(&cluster);
    let rtt = sessions
        .iter()
        .fold(HistogramSnapshot::empty(), |mut acc, s| {
            acc.merge(s.rtt_histogram());
            acc
        });
    let credit_stalls: u64 = sessions.iter().map(Session::credit_stalls).sum();
    drop(sessions);
    cluster.shutdown();

    for r in &recs {
        out.attempted += r.attempted;
        out.failures.add(&r.failures);
    }
    let window_ops_per_s = window_metrics(&mut out, &mut recs, &seen, &sched);
    out.set("session.rtt_p999_us", rtt.percentile(99.9) as f64);
    out.set("session.rtt_max_us", rtt.max() as f64);
    out.set("session.credit_stalls", credit_stalls as f64);
    out.set(
        "session.failed_share",
        out.failed() as f64 / out.attempted.max(1) as f64,
    );
    out.set(
        "net.tcp.frames_dropped",
        final_counters.frames_dropped as f64,
    );
    out.set("net.tcp.disconnects", final_counters.disconnects as f64);
    out.set("replica.poller.decode_p50_us", poller.0);
    out.set("replica.poller.write_p50_us", poller.1);

    if let Some(mut layer) = seen.layer {
        layer.spans.extend(late_spans);
        per_layer(&mut out, spec, &mut recs, &sched, &layer, window_ops_per_s);
    }
    if let Some(scale) = shape.probes {
        probes::run_all(spec, seed, scale, &mut |name, v| out.set(name, v));
    }
    out.set("host.spin_ms_before", spin_before);
    out.set("host.spin_ms_after", host::spin_ms());
    out.set(
        "host.nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()) as f64,
    );
    out
}

/// The main thread's part of the run: process CPU at every slice boundary,
/// then the layer pass (allocation counting and trace sampling on, counters
/// before and after, trace rings drained as they fill).
fn observe(cluster: &Cluster, spec: &WorkloadSpec, sched: &Schedule) -> Observed {
    let mut window_usage = Vec::with_capacity(sched.slices + 1);
    sleep_until(sched.t0 + sched.warmup);
    let counters_at_start = cluster.counters();
    for i in 0..=sched.slices {
        sleep_until(sched.t0 + sched.warmup + sched.slice * i as u32);
        window_usage.push(host::rusage());
    }
    let counters_before = cluster.counters();
    let window_counters = counters_before.since(&counters_at_start);
    if sched.layer.is_zero() {
        return Observed {
            window_usage,
            window_counters,
            layer: None,
        };
    }
    let allocs_before = host::alloc_counts();
    let usage_before = host::rusage();
    host::set_alloc_counting(true);
    hermes::obs::set_trace_sample(spec.trace_sample);
    let end = sched.t0 + sched.end();
    let mut spans = Vec::new();
    while Instant::now() < end {
        sleep_until((Instant::now() + TRACE_DRAIN_EVERY).min(end));
        spans.extend(cluster.trace_spans());
    }
    hermes::obs::set_trace_sample(0.0);
    host::set_alloc_counting(false);
    let usage_after = host::rusage();
    let allocs_after = host::alloc_counts();
    let counters = cluster.counters().since(&counters_before);
    let threads = host::proc_threads();
    let render = Instant::now();
    let rendered = cluster.metrics_text(0);
    let exposition_ms = rendered.map_or(0.0, |_| render.elapsed().as_secs_f64() * 1e3);
    Observed {
        window_usage,
        window_counters,
        layer: Some(LayerObserved {
            usage: (usage_before, usage_after),
            counters,
            allocs: (
                allocs_after.0 - allocs_before.0,
                allocs_after.1 - allocs_before.1,
            ),
            spans,
            threads,
            exposition_ms,
        }),
    }
}

/// After quiesce, `read_local` on all three replicas must return the same,
/// well-formed value for each sampled key. A key still invalidated (its VAL
/// in flight) is retried for up to two seconds.
fn disagreements(cluster: &Cluster, spec: &WorkloadSpec) -> u64 {
    let step = (spec.keys / AGREEMENT_SAMPLE).max(1);
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut bad = 0;
    for key in (0..spec.keys).step_by(step as usize).map(Key) {
        let agreed = loop {
            let values: Vec<Option<Value>> =
                (0..NODES).map(|n| cluster.read_local(n, key)).collect();
            if values.iter().all(Option::is_some) || Instant::now() >= deadline {
                break values;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let first = agreed[0].as_ref();
        let well_formed = first
            .and_then(|v| decode_value(v.as_bytes(), spec.value_len))
            .is_some_and(|(k, _, _)| k == key.0);
        if !well_formed || agreed.iter().any(|v| v.as_ref() != first) {
            bad += 1;
        }
    }
    bad
}

/// Count-weighted p50 of the poller decode and write-drain histograms on the
/// client-facing nodes. Cumulative since launch (the exposition has no
/// window), so it includes the preload.
fn poller_medians(cluster: &Cluster) -> (f64, f64) {
    const NAMES: [&str; 2] = ["hermes_poller_decode_us", "hermes_poller_write_us"];
    let (mut weighted, mut count) = ([0.0; 2], [0.0; 2]);
    for node in 0..SESSIONS {
        let Some(text) = cluster.metrics_text(node) else {
            continue;
        };
        for (i, name) in NAMES.iter().enumerate() {
            let n = counter(&text, &format!("{name}_count")) as f64;
            let p50 = format!("{name}{{node=\"{node}\",quantile=\"0.5\"}}");
            weighted[i] += n * hermes::obs::sample_value(&text, &p50).unwrap_or(0.0);
            count[i] += n;
        }
    }
    let p50 = |i: usize| {
        if count[i] > 0.0 {
            weighted[i] / count[i]
        } else {
            0.0
        }
    };
    (p50(0), p50(1))
}

/// Both threads' completions of slice `i`, moved out of the records.
fn take_slice(recs: &mut [ThreadRec], i: usize) -> PhaseRec {
    let mut m = PhaseRec::default();
    for r in recs {
        m.merge(std::mem::take(&mut r.slices[i]));
    }
    m
}

/// Fills the metrics of the measured window: the counted costs that carry a
/// bound, and the timings (quiet-quartile slice) that on a shared host cannot.
/// Returns the quiet-quartile ops/s for the layer pass to compare itself with.
fn window_metrics(
    out: &mut RunResult,
    recs: &mut [ThreadRec],
    seen: &Observed,
    sched: &Schedule,
) -> f64 {
    let slice_s = sched.slice.as_secs_f64();
    let (mut rates, mut cpu, mut reads, mut writes) = (vec![], vec![], vec![], vec![]);
    let (mut total_ops, mut stalls) = (0, 0);
    for i in 0..sched.slices {
        let m = take_slice(recs, i);
        let ops = m.completed();
        rates.push(ops as f64 / slice_s);
        if ops > 0 {
            let used = seen.window_usage[i + 1].cpu_us() - seen.window_usage[i].cpu_us();
            cpu.push(used as f64 / ops as f64);
        }
        total_ops += ops;
        stalls += m.stalls;
        reads.push(m.reads_ns);
        writes.push(m.writes_ns);
    }
    // Counts per operation over the whole window: they do not depend on how
    // fast the host happens to run, so they repeat where the timings do not.
    let ops = total_ops.max(1) as f64;
    let switches = seen.window_usage[sched.slices].ctx_switches - seen.window_usage[0].ctx_switches;
    out.set("ctx_switches_per_op", switches as f64 / ops);
    let msgs: u64 = seen.window_counters.lane_ingress.iter().flatten().sum();
    out.set("msgs_per_op", msgs as f64 / ops);

    let ops_per_s = quiet_rate(&rates).unwrap_or(0.0);
    out.set("session.ops_per_s", ops_per_s);
    out.set("session.cpu_us_per_op", quiet_cost(&cpu).unwrap_or(0.0));
    out.set("session.stalls_over_100ms", stalls as f64);
    let mut latency = |name, slices: &mut [Vec<u64>], p| {
        let (v, n) = quiet_percentile_us(slices, p);
        out.set(name, v.unwrap_or(0.0));
        out.samples.insert(name, n as u64);
    };
    latency("session.read_p50_us", &mut reads, 50.0);
    latency("session.write_p50_us", &mut writes, 50.0);
    latency("session.write_p99_us", &mut writes, 99.0);
    ops_per_s
}

fn p50_us(ns: &mut [u64]) -> f64 {
    ns.sort_unstable();
    percentile(ns, 50.0).map_or(0.0, |v| v / 1e3)
}

/// Fills the scraped, allocator, process and trace metrics of the layer pass.
fn per_layer(
    out: &mut RunResult,
    spec: &WorkloadSpec,
    recs: &mut [ThreadRec],
    sched: &Schedule,
    layer: &LayerObserved,
    window_ops_per_s: f64,
) {
    let mut done = PhaseRec::default();
    let (mut submit_ns, mut submits) = (0, 0);
    for r in recs {
        done.merge(std::mem::take(&mut r.layer));
        submit_ns += r.submit_ns;
        submits += r.submits_timed;
    }
    let ops = done.completed().max(1) as f64;
    let writes = done.writes_ns.len().max(1) as f64;
    let c = &layer.counters;
    let tcp = spec.deployment == Deployment::Tcp;

    // core / wings / net, from the replicas' own counters.
    out.set(
        "core.inv_per_write",
        c.invals_sent as f64 / writes / (NODES - 1) as f64,
    );
    let msgs = (c.invals_sent + c.inval_acks + c.vals_sent) as f64;
    out.set(
        "wings.batch.msgs_per_frame",
        if tcp {
            msgs / c.frames_sent.max(1) as f64
        } else {
            0.0
        },
    );
    out.set("net.tcp.frames_per_op", c.frames_sent as f64 / ops);
    out.set("net.tcp.bytes_per_op", c.bytes_sent as f64 / ops);

    // replica: lanes, pollers, client plane.
    let ingress: u64 = c.lane_ingress.iter().flatten().sum();
    out.set("replica.lane.ingress_per_op", ingress as f64 / ops);
    let facing: Vec<u64> = c.lane_ops[..SESSIONS].iter().flatten().copied().collect();
    let (lo, hi) = (
        facing.iter().min().copied().unwrap_or(0),
        facing.iter().max().copied().unwrap_or(0),
    );
    out.set("replica.lane.skew", hi as f64 / lo.max(1) as f64);
    out.set(
        "replica.poller.credit_parks_per_kop",
        c.credit_parks as f64 / ops * 1e3,
    );

    // session.
    out.set(
        "session.submit_ns",
        submit_ns as f64 / submits.max(1) as f64,
    );

    // obs / proc.
    let layer_rate = done.completed() as f64 / sched.layer.as_secs_f64();
    out.set(
        "obs.layer_pass_overhead_share",
        if window_ops_per_s > 0.0 {
            1.0 - layer_rate / window_ops_per_s
        } else {
            0.0
        },
    );
    out.set("obs.exposition_ms", layer.exposition_ms);
    let (before, after) = layer.usage;
    let cpu = (after.cpu_us() - before.cpu_us()).max(1) as f64;
    out.set("proc.allocs_per_op", layer.allocs.0 as f64 / ops);
    out.set("proc.alloc_bytes_per_op", layer.allocs.1 as f64 / ops);
    out.set(
        "proc.ctx_switches_per_op",
        (after.ctx_switches - before.ctx_switches) as f64 / ops,
    );
    out.set(
        "proc.sys_cpu_share",
        (after.sys_us - before.sys_us) as f64 / cpu,
    );
    out.set("proc.threads", layer.threads as f64);

    // trace: lane-side op latency (issued → reply released) from the sampled
    // coordinator spans, reads and writes apart — at a 50 % write mix the
    // median of both together flips between the two populations.
    let (mut lane_reads, mut lane_writes) = (Vec::new(), Vec::new());
    for span in &layer.spans {
        if span.phases.first().is_some_and(|(p, _)| p == "issued") {
            if span.phases.iter().any(|(p, _)| p == "inval_broadcast") {
                lane_writes.push(span.total_us * 1000);
            } else {
                lane_reads.push(span.total_us * 1000);
            }
        }
    }
    lane_writes.sort_unstable();
    out.samples
        .insert("replica.lane.op_p50_us", lane_writes.len() as u64);
    for (name, p) in [
        ("replica.lane.op_p50_us", 50.0),
        ("replica.lane.op_p99_us", 99.0),
    ] {
        out.set(name, percentile(&lane_writes, p).map_or(0.0, |v| v / 1e3));
    }
    let lane_read_p50 = p50_us(&mut lane_reads);
    out.set("replica.lane.read_p50_us", lane_read_p50);
    out.set(
        "replica.client_plane.p50_us",
        p50_us(&mut done.reads_ns) - lane_read_p50,
    );

    let write_p50 = p50_us(&mut done.writes_ns);
    out.set("trace.write_p50_us", write_p50);
    let budget = write_budget(&layer.spans);
    let mut covered = 0.0;
    for (i, (_, metric)) in WRITE_HOPS.iter().enumerate().skip(1) {
        let hop = median(&budget.hops[i]);
        covered += hop;
        out.set(metric, hop);
    }
    out.set("trace.timelines", budget.timelines as f64);
    out.set(
        "trace.client_plane_residual_us",
        write_p50 - median(&budget.lane_total),
    );
    out.set(
        "trace.budget_coverage",
        if write_p50 > 0.0 {
            covered / write_p50
        } else {
            0.0
        },
    );
}

struct WriteBudget {
    /// Complete write timelines.
    timelines: usize,
    /// Per [`WRITE_HOPS`] index: the gap ending at that mark, one entry per
    /// timeline, in microseconds (index 0 unused).
    hops: Vec<Vec<f64>>,
    /// issued → reply_released per timeline.
    lane_total: Vec<f64>,
}

/// Stitches the sampled spans and walks each write's critical path: the
/// coordinator's marks, and between `inval_broadcast` and `acks_collected`
/// the marks of the follower whose ACK left last.
fn write_budget(spans: &[TraceSpan]) -> WriteBudget {
    let mut budget = WriteBudget {
        timelines: 0,
        hops: vec![Vec::new(); WRITE_HOPS.len()],
        lane_total: Vec::new(),
    };
    for t in stitch(spans) {
        // Earliest mark of `phase` on `node` at or after `from` (events are
        // in wall-clock order).
        let first = |node: u32, phase: &str, from: u64| {
            t.events
                .iter()
                .find(|e| e.node == node && e.phase == phase && e.at_us >= from)
                .map(|e| e.at_us)
        };
        let coord = t
            .events
            .iter()
            .find(|e| e.phase == "issued")
            .map(|e| e.node);
        let follower = t
            .events
            .iter()
            .filter(|e| Some(e.node) != coord && e.phase == "ack_write")
            .max_by_key(|e| e.at_us)
            .map(|e| e.node);
        let (Some(coord), Some(follower)) = (coord, follower) else {
            continue;
        };
        // A follower also marks `local_apply` for the VAL that follows, so
        // its marks are searched forwards from the previous one.
        let mut follower_from = 0;
        let marks: Vec<u64> = WRITE_HOPS
            .iter()
            .map_while(|(phase, _)| match *phase {
                "inv_ingress" | "local_apply" | "ack_write" => {
                    let at = first(follower, phase, follower_from)?;
                    follower_from = at;
                    Some(at)
                }
                _ => first(coord, phase, 0),
            })
            .collect();
        if marks.len() != WRITE_HOPS.len() {
            continue;
        }
        budget.timelines += 1;
        // Marks read on different threads can invert by a microsecond.
        for i in 1..marks.len() {
            budget.hops[i].push(marks[i].saturating_sub(marks[i - 1]) as f64);
        }
        budget
            .lane_total
            .push((marks[marks.len() - 1] - marks[0]) as f64);
    }
    budget
}
