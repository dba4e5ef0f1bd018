//! The benchmark's fixed points: the four workloads and the catalogue of
//! metric names, units and directions. `BENCHMARK.json` repeats the names
//! (and adds the bounds); `--self-test` fails when the two disagree.

/// Replicas in every workload.
pub const NODES: usize = 3;
/// Load threads, one session each (`nproc` = 2 on the reference host).
/// Session `i` attaches to node `i`; node 2 is follower-only.
pub const SESSIONS: usize = 2;
/// Worker lanes per node.
pub const WORKERS: usize = 2;
/// Session id stamped into preloaded values; load sessions are 1..=SESSIONS.
pub const PRELOAD_SESSION: u64 = 0;
/// An RTT above this counts as a stall.
pub const STALL_NS: u64 = 100_000_000;

/// How the replicas are deployed inside the bench process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deployment {
    /// 3 × `NodeRuntime` over loopback TCP, `RemoteChannel` sessions.
    Tcp,
    /// `ThreadCluster::launch`: in-process channels, `LaneChannel` sessions.
    InProc,
}

#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: which layers this mix loads.
    pub why: &'static str,
    pub deployment: Deployment,
    /// Closed loop: operations each session keeps in flight.
    pub depth: usize,
    pub keys: u64,
    pub zipf_theta: Option<f64>,
    pub value_len: usize,
    pub write_ratio: f64,
    /// Share of operations traced during the layer pass. 0.02 everywhere
    /// except the unloaded 5 %-write mix, which needs ten times that to
    /// collect 500 write timelines in the same time.
    pub trace_sample: f64,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "tcp_lat_w5",
        why: "unloaded latency point (depth 1, 5% writes): client plane and local-read path dominate, per-hop times add up to p50",
        deployment: Deployment::Tcp,
        depth: 1,
        keys: 65_536,
        zipf_theta: None,
        value_len: 32,
        write_ratio: 0.05,
        trace_sample: 0.2,
    },
    WorkloadSpec {
        name: "tcp_w50",
        why: "message-rate-bound replication (depth 16, 50% writes): engine, Wings batching, per-peer writers, follower apply dominate",
        deployment: Deployment::Tcp,
        depth: 16,
        keys: 65_536,
        zipf_theta: None,
        value_len: 32,
        write_ratio: 0.5,
        trace_sample: 0.02,
    },
    WorkloadSpec {
        name: "tcp_zipf_w20_1k",
        why: "byte- and conflict-bound replication (zipf 0.99, 1 KiB values): value copies and hot-key serialisation dominate",
        deployment: Deployment::Tcp,
        depth: 16,
        keys: 16_384,
        zipf_theta: Some(0.99),
        value_len: 1024,
        write_ratio: 0.2,
        trace_sample: 0.02,
    },
    WorkloadSpec {
        name: "inproc_w20",
        why: "bypasses TCP, pollers and the client codec (ThreadCluster, lane sessions): isolates lanes, core and Wings batching",
        deployment: Deployment::InProc,
        depth: 16,
        keys: 65_536,
        zipf_theta: None,
        value_len: 32,
        write_ratio: 0.2,
        trace_sample: 0.02,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the store pays per operation and per deployment, in the
/// units that repeat on a shared host: counts and bytes, not seconds. Each
/// has a bound in `BENCHMARK.json`. Throughput, latency and CPU time are
/// measured over the same window but do not repeat within any bound the
/// contract allows, so they are reported as `session.*` (see the README).
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("peak_rss_mib", "MiB"),
    lower("ctx_switches_per_op", "count"),
    lower("msgs_per_op", "count"),
];

/// One layer each; no bound. The README says which end-to-end metric each
/// is expected to move, on which workload.
pub const PER_LAYER: &[MetricDef] = &[
    // core: three HermesNodes driven in lockstep on the workload's stream.
    lower("core.ns_per_write", "ns"),
    lower("core.ns_per_read", "ns"),
    lower("core.msgs_per_write", "count"),
    lower("core.wire_bytes_per_write", "B"),
    lower("core.inv_per_write", "count"),
    // wings: codec, batcher, client codec.
    lower("wings.codec.ns_per_msg", "ns"),
    lower("wings.codec.allocs_per_msg", "count"),
    lower("wings.batch.ns_per_msg", "ns"),
    lower("wings.batch.allocs_per_frame", "count"),
    higher("wings.batch.msgs_per_frame", "count"),
    lower("wings.client.ns_per_op", "ns"),
    lower("wings.client.allocs_per_op", "count"),
    // store.
    lower("store.put_ns", "ns"),
    lower("store.get_ns", "ns"),
    // net.
    lower("net.tcp.pingpong_p50_us", "us"),
    higher("net.tcp.stream_mib_per_s", "MiB/s"),
    lower("net.inproc.pingpong_p50_us", "us"),
    lower("net.tcp.frames_per_op", "count"),
    lower("net.tcp.bytes_per_op", "B"),
    lower("net.tcp.frames_dropped", "count"),
    lower("net.tcp.disconnects", "count"),
    // replica: lanes, pollers, client plane.
    lower("replica.lane.op_p50_us", "us"),
    lower("replica.lane.op_p99_us", "us"),
    lower("replica.lane.read_p50_us", "us"),
    lower("replica.lane.ingress_per_op", "count"),
    lower("replica.lane.skew", "ratio"),
    lower("replica.poller.decode_p50_us", "us"),
    lower("replica.poller.write_p50_us", "us"),
    lower("replica.poller.credit_parks_per_kop", "count"),
    lower("replica.client_plane.p50_us", "us"),
    // session: the client library, and the end-to-end numbers that are
    // zero or too noisy on a shared host to carry a bound.
    lower("session.submit_ns", "ns"),
    lower("session.rtt_p999_us", "us"),
    lower("session.rtt_max_us", "us"),
    lower("session.credit_stalls", "count"),
    higher("session.ops_per_s", "1/s"),
    lower("session.read_p50_us", "us"),
    lower("session.write_p50_us", "us"),
    lower("session.write_p99_us", "us"),
    lower("session.cpu_us_per_op", "us"),
    lower("session.failed_share", "share"),
    lower("session.stalls_over_100ms", "count"),
    // obs: the cost of the measurement plane itself.
    lower("obs.hist_record_ns", "ns"),
    lower("obs.span_ns", "ns"),
    lower("obs.exposition_ms", "ms"),
    lower("obs.layer_pass_overhead_share", "share"),
    // workload generator (to subtract from cpu_us_per_op).
    lower("workload.next_op_ns", "ns"),
    // proc: the whole process during the layer pass.
    lower("proc.allocs_per_op", "count"),
    lower("proc.alloc_bytes_per_op", "B"),
    lower("proc.ctx_switches_per_op", "count"),
    lower("proc.sys_cpu_share", "share"),
    lower("proc.threads", "count"),
    // trace: median gap between consecutive phase marks of stitched writes.
    lower("trace.issued_to_inval_broadcast_us", "us"),
    lower("trace.inval_broadcast_to_inv_ingress_us", "us"),
    lower("trace.inv_ingress_to_local_apply_us", "us"),
    lower("trace.local_apply_to_ack_write_us", "us"),
    lower("trace.ack_write_to_acks_collected_us", "us"),
    lower("trace.acks_collected_to_committed_us", "us"),
    lower("trace.committed_to_reply_released_us", "us"),
    lower("trace.client_plane_residual_us", "us"),
    lower("trace.write_p50_us", "us"),
    higher("trace.timelines", "count"),
    higher("trace.budget_coverage", "ratio"),
    // host: to read a bad run, not to gate on.
    lower("host.spin_ms_before", "ms"),
    lower("host.spin_ms_after", "ms"),
    higher("host.nproc", "count"),
];

/// The phase marks a stitched write timeline must carry, in causal order,
/// and the per-layer metric naming the gap that ends at each.
pub const WRITE_HOPS: [(&str, &str); 8] = [
    ("issued", ""),
    ("inval_broadcast", "trace.issued_to_inval_broadcast_us"),
    ("inv_ingress", "trace.inval_broadcast_to_inv_ingress_us"),
    ("local_apply", "trace.inv_ingress_to_local_apply_us"),
    ("ack_write", "trace.local_apply_to_ack_write_us"),
    ("acks_collected", "trace.ack_write_to_acks_collected_us"),
    ("committed", "trace.acks_collected_to_committed_us"),
    ("reply_released", "trace.committed_to_reply_released_us"),
];

/// Per-layer counts that come from seeded single-threaded probes and must
/// repeat bit-for-bit between runs of one seed on one commit.
pub const EXACT_COUNTS: &[&str] = &[
    "core.msgs_per_write",
    "core.wire_bytes_per_write",
    "wings.codec.allocs_per_msg",
    "wings.batch.allocs_per_frame",
    "wings.client.allocs_per_op",
];
