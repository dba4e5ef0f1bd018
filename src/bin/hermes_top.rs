//! `hermes-top` — cluster-wide observability aggregator (DESIGN.md §10).
//!
//! Scrapes every daemon's Metrics and Traces RPCs over the client port,
//! merges the per-node expositions into one node-labeled cluster
//! exposition ([`merge_expositions`]), and stitches the drained trace
//! spans into causal cross-node timelines ([`stitch`]): one line per
//! sampled op ordering every phase mark from every replica on a single
//! axis, with the slowest hop — "which replica made this op slow" —
//! called out explicitly.
//!
//! ```sh
//! cargo run --release --bin hermes_top -- \
//!     --nodes 127.0.0.1:8101,127.0.0.1:8102,127.0.0.1:8103 --once
//! ```
//!
//! Flags:
//!
//! * `--nodes <addr,addr,...>` — client-port addresses to scrape (required).
//! * `--once` — one scrape round, then exit (CI / scripting mode).
//! * `--interval <secs>` — seconds between rounds (default 2).
//! * `--slow-us <n>` — print a stitched timeline for every trace whose
//!   end-to-end extent reaches this many microseconds (default 1000).
//! * `--expose` — additionally dump the merged cluster exposition.
//!
//! The Traces RPC *drains* each daemon's ring, so one aggregator sees
//! each sampled span exactly once; run a single `hermes-top` per cluster.

use hermes::obs::{merge_expositions, sample_value, samples, stitch, TraceSpan};
use hermes::prelude::*;
use std::net::SocketAddr;
use std::time::Duration;

const SCRAPE_TIMEOUT: Duration = Duration::from_secs(5);

struct Options {
    nodes: Vec<SocketAddr>,
    once: bool,
    interval: Duration,
    slow_us: u64,
    expose: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut nodes = Vec::new();
    let mut once = false;
    let mut interval = Duration::from_secs(2);
    let mut slow_us = 1_000u64;
    let mut expose = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--nodes" => {
                let list = it.next().ok_or("--nodes needs a value")?;
                for part in list.split(',').filter(|p| !p.is_empty()) {
                    nodes.push(part.parse().map_err(|e| format!("bad addr {part}: {e}"))?);
                }
            }
            "--once" => once = true,
            "--interval" => {
                let secs: u64 = it
                    .next()
                    .ok_or("--interval needs a value")?
                    .parse()
                    .map_err(|e| format!("bad interval: {e}"))?;
                interval = Duration::from_secs(secs);
            }
            "--slow-us" => {
                slow_us = it
                    .next()
                    .ok_or("--slow-us needs a value")?
                    .parse()
                    .map_err(|e| format!("bad slow-us: {e}"))?;
            }
            "--expose" => expose = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if nodes.is_empty() {
        return Err("--nodes is required".into());
    }
    Ok(Options {
        nodes,
        once,
        interval,
        slow_us,
        expose,
    })
}

/// Best rendered p99 across a node's per-lane op latency summaries.
fn node_p99(merged: &str, node: usize) -> Option<f64> {
    (0..64)
        .filter_map(|lane| {
            sample_value(
                merged,
                &format!(
                    "hermes_op_latency_us{{node=\"{node}\",lane=\"{lane}\",quantile=\"0.99\"}}"
                ),
            )
        })
        .fold(None, |acc: Option<f64>, v| {
            Some(acc.map_or(v, |a| a.max(v)))
        })
}

fn scrape_round(opts: &Options, round: u64) {
    let mut scrapes: Vec<String> = Vec::new();
    let mut spans: Vec<TraceSpan> = Vec::new();
    let mut up = 0usize;
    for &addr in &opts.nodes {
        match query_metrics(addr, SCRAPE_TIMEOUT) {
            Ok(text) => {
                scrapes.push(text);
                up += 1;
            }
            Err(e) => eprintln!("hermes-top: metrics scrape of {addr} failed: {e}"),
        }
        match query_traces(addr, SCRAPE_TIMEOUT) {
            Ok(mut drained) => spans.append(&mut drained),
            Err(e) => eprintln!("hermes-top: traces scrape of {addr} failed: {e}"),
        }
    }
    let merged = merge_expositions(&scrapes);
    println!(
        "hermes-top: round {round}: scraped {up}/{} nodes, {} spans drained",
        opts.nodes.len(),
        spans.len()
    );
    for (i, addr) in opts.nodes.iter().enumerate() {
        // A family's samples of this node, summed: every daemon sample
        // leads with its `node="<id>"` base label.
        let tag = format!("node=\"{i}\"");
        let node_sum = |name| -> f64 {
            let node = samples(&merged, name).into_iter();
            let node = node.filter(|(labels, _)| labels.split(',').next() == Some(&tag));
            node.map(|(_, v)| v).sum()
        };
        let ops = node_sum("hermes_op_latency_us_count");
        let invs = node_sum("hermes_invalidations_sent_total");
        let views = node_sum("hermes_view_changes_total");
        // Share of peer frames the sending lane wrote to the socket itself
        // (the rest waited for the link's lane to poll: a dial or a full
        // socket).
        let inline = node_sum("hermes_tcp_writes_inline_total");
        let frames = inline + node_sum("hermes_tcp_writes_deferred_total");
        let inline_pct = 100.0 * inline / frames.max(1.0);
        // Share of remote sessions' reads a poller answered from the mirror
        // (the rest queued at a lane: key not Valid, not serving, or behind
        // the session's own update).
        let mirror = node_sum("hermes_mirror_reads_total");
        let reads = mirror + node_sum("hermes_mirror_read_fallbacks_total");
        let mirror_pct = 100.0 * mirror / reads.max(1.0);
        let p99 = node_p99(&merged, i).map_or(String::new(), |p99| format!(" p99={p99:.0}us"));
        println!(
            "  n{i} {addr}: ops={ops}{p99} reads={reads} mirror={mirror_pct:.1}% \
             invals_sent={invs} view_changes={views} tcp_inline={inline_pct:.1}%"
        );
    }
    if opts.expose {
        print!("{merged}");
    }
    // Slowest-first cross-node timelines for every op at or above the
    // slow threshold; each names the hop that dominated its latency.
    let timelines = stitch(&spans);
    for t in timelines.iter().filter(|t| t.total_us >= opts.slow_us) {
        println!("  {}", t.render());
        if let Some((event, gap)) = t.slowest_gap() {
            println!(
                "    slowest hop: {}@n{} waited {gap}us",
                event.phase, event.node
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("hermes-top: {e}");
            eprintln!(
                "usage: hermes_top --nodes <addr,addr,...> [--once] \
                 [--interval <secs>] [--slow-us <n>] [--expose]"
            );
            std::process::exit(2);
        }
    };
    let mut round = 0u64;
    loop {
        scrape_round(&opts, round);
        round += 1;
        if opts.once {
            break;
        }
        std::thread::sleep(opts.interval);
    }
}
