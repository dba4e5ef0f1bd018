//! A YCSB-style protocol shoot-out on the simulated cluster.
//!
//! Sweeps write ratios under uniform and zipfian (0.99) access — the
//! workloads of the paper's §6.1–6.2 — across Hermes, rCRAQ, rZAB, and the
//! extra baselines (CR, ABD) this repo implements, printing a compact
//! throughput/latency comparison. A miniature, self-contained version of
//! the Figure 5 benches.
//!
//! Besides the console table, the sweep emits **`BENCH_ycsb.json`**: one
//! machine-readable record per (access, write-ratio, protocol) point with
//! ops/s and p50/p99 latency, so performance trajectories can be tracked
//! run over run (see EXPERIMENTS.md).
//!
//! Every number here is simulated time; the real runtime is measured by
//! `examples/runtime_bench` alone.
//!
//! Run with: `cargo run --release --example ycsb_sweep`

use hermes::baselines::{AbdNode, CrNode, CraqNode, ZabNode};
use hermes::prelude::*;

/// One measured sweep point, destined for `BENCH_ycsb.json`.
struct Point {
    access: &'static str,
    write_ratio: f64,
    protocol: &'static str,
    ops_per_sec: f64,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    p999_us: f64,
}

impl Point {
    fn to_json(&self) -> String {
        format!(
            "    {{\"access\": \"{}\", \"write_ratio\": {:.2}, \"protocol\": \"{}\", \
             \"ops_per_sec\": {:.0}, \"p50_us\": {:.2}, \"p90_us\": {:.2}, \
             \"p99_us\": {:.2}, \"p999_us\": {:.2}}}",
            self.access,
            self.write_ratio,
            self.protocol,
            self.ops_per_sec,
            self.p50_us,
            self.p90_us,
            self.p99_us,
            self.p999_us
        )
    }
}

fn run(
    points: &mut Vec<Point>,
    access: &'static str,
    write_pct: u32,
    name: &'static str,
    report: RunReport,
) {
    println!(
        "  {name:<8} {:>8.1} MReq/s   p50 {:>7.1}us   p99 {:>8.1}us   msgs {:>9}",
        report.throughput_mreqs,
        report.all.p50_us(),
        report.all.p99_us(),
        report.messages_sent
    );
    points.push(Point {
        access,
        write_ratio: write_pct as f64 / 100.0,
        protocol: name,
        ops_per_sec: report.throughput_mreqs * 1e6,
        p50_us: report.all.p50_us(),
        p90_us: report.all.p90_us(),
        p99_us: report.all.p99_us(),
        p999_us: report.all.p999_us(),
    });
}

fn main() {
    let mut points: Vec<Point> = Vec::new();
    let mut sim_cfg: Option<SimConfig> = None;
    for (label, zipf) in [("uniform", None), ("zipfian_0.99", Some(0.99))] {
        println!();
        println!("=== {label} access, 5 replicas, 32B values ===");
        for write_pct in [5u32, 20] {
            let cfg = SimConfig {
                nodes: 5,
                workers_per_node: 8,
                sessions_per_node: 64,
                workload: WorkloadConfig {
                    keys: 50_000,
                    write_ratio: write_pct as f64 / 100.0,
                    zipf_theta: zipf,
                    ..WorkloadConfig::default()
                },
                cost: if zipf.is_some() {
                    CostModel::skewed()
                } else {
                    CostModel::uniform()
                },
                warmup_ops: 10_000,
                measured_ops: 60_000,
                seed: 11,
                ..SimConfig::default()
            };
            println!("-- {write_pct}% writes --");
            run(
                &mut points,
                label,
                write_pct,
                "Hermes",
                run_sim(&cfg, |id, n| {
                    HermesNode::new(id, MembershipView::initial(n), ProtocolConfig::default())
                }),
            );
            run(
                &mut points,
                label,
                write_pct,
                "rCRAQ",
                run_sim(&cfg, CraqNode::new),
            );
            run(
                &mut points,
                label,
                write_pct,
                "rZAB",
                run_sim(&cfg, ZabNode::new),
            );
            run(
                &mut points,
                label,
                write_pct,
                "CR",
                run_sim(&cfg, CrNode::new),
            );
            run(
                &mut points,
                label,
                write_pct,
                "ABD",
                run_sim(&cfg, AbdNode::new),
            );
            sim_cfg = Some(cfg);
        }
    }

    // Machine-readable trajectory record (one JSON document per run).
    let cfg = sim_cfg.expect("at least one sweep point ran");
    let rows: Vec<String> = points.iter().map(Point::to_json).collect();
    let json = format!(
        "{{\n  \"bench\": \"ycsb_sweep\",\n  \"config\": {{\"nodes\": {}, \
         \"workers_per_node\": {}, \"sessions_per_node\": {}, \"keys\": {}, \
         \"value_size\": {}, \"warmup_ops\": {}, \"measured_ops\": {}}},\n  \
         \"points\": [\n{}\n  ]\n}}\n",
        cfg.nodes,
        cfg.workers_per_node,
        cfg.sessions_per_node,
        cfg.workload.keys,
        cfg.workload.value_size,
        cfg.warmup_ops,
        cfg.measured_ops,
        rows.join(",\n")
    );
    let path = "BENCH_ycsb.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {} sweep points to {path}", points.len()),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }

    println!();
    println!("expected shape (paper §6): Hermes leads everywhere; CRAQ trails");
    println!("it; ZAB collapses with writes; CR pays remote reads; ABD pays");
    println!("two round-trips for everything.");
}
