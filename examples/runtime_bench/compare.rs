//! `--compare <a> <b>`: two sets of result files under `BENCHMARK.json`'s
//! bounds, one row per end-to-end metric × workload, so that "two runs
//! agree" is a command and not a judgement.
//!
//! A set is a result file or a directory searched recursively for them.
//! Each side is reduced to its median. A row is `regressed` when `b`'s
//! median is worse than `a`'s by more than the metric's bound, `unresolved`
//! when either side's own spread (interquartile range ÷ median, the
//! driver's definition) is wider than the bound, and `ok` otherwise. The
//! `session.*` window metrics (throughput, latency, CPU time) carry no bound:
//! their rows show the medians and spreads and say `unbounded`. Exact counts
//! get a row too: `identical` or `differs`, among runs of one seed.

use crate::estimate::{quantile, spread};
use crate::json::Json;
use crate::spec::EXACT_COUNTS;
use std::collections::BTreeMap;
use std::path::Path;

struct Run {
    workload: String,
    seed: u64,
    metrics: BTreeMap<String, f64>,
}

fn collect(path: &Path, out: &mut Vec<Run>) -> Result<(), String> {
    if path.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        entries.sort();
        return entries.iter().try_for_each(|p| collect(p, out));
    }
    if path.extension().is_none_or(|e| e != "json") {
        return Ok(());
    }
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let (Some(workload), Some(metrics)) = (
        doc.get("workload").and_then(Json::as_str),
        doc.get("metrics"),
    ) else {
        return Ok(()); // Some other JSON file.
    };
    out.push(Run {
        workload: workload.to_string(),
        seed: doc.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        metrics: metrics
            .fields()
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    });
    Ok(())
}

fn values(runs: &[Run], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Prints the table; returns how many rows regressed or differed.
pub fn compare(benchmark_json: &Path, a: &Path, b: &Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("read {}: {e}", benchmark_json.display()))?;
    let bench = Json::parse(&text).map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let (mut runs_a, mut runs_b) = (Vec::new(), Vec::new());
    collect(a, &mut runs_a)?;
    collect(b, &mut runs_b)?;
    let workloads = bench.get("workloads").map_or(&[][..], Json::as_array);
    let bounded = bench.get("end_to_end").map_or(&[][..], Json::as_array);
    let unbounded = bench
        .get("per_layer")
        .map_or(&[][..], Json::as_array)
        .iter()
        .filter(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .is_some_and(|n| n.starts_with("session."))
        });
    let metrics: Vec<&Json> = bounded.iter().chain(unbounded).collect();
    let mut bad = 0;
    println!("workload metric median_a median_b worse_by bound spread_a spread_b verdict");
    for w in workloads.iter().filter_map(|w| w.get("name")?.as_str()) {
        for m in &metrics {
            let Some(name) = m.get("name").and_then(Json::as_str) else {
                return Err("metric entry without a name".into());
            };
            let bound = m.get("bound").and_then(Json::as_f64);
            let lower_is_better = m.get("better").and_then(Json::as_str) != Some("higher");
            let (va, vb) = (values(&runs_a, w, name), values(&runs_b, w, name));
            let show_bound = bound.map_or("-".to_string(), |b| b.to_string());
            let (Some(ma), Some(mb)) = (quantile(&va, 0.5), quantile(&vb, 0.5)) else {
                if bound.is_some() {
                    println!("{w} {name} - - - {show_bound} - - missing");
                    bad += 1;
                }
                continue;
            };
            let worse_by = if ma == 0.0 {
                0.0
            } else if lower_is_better {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let (sa, sb) = (spread(&va), spread(&vb));
            let show = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{s:.4}"));
            let verdict = match bound {
                None => "unbounded",
                Some(b) if sa.is_some_and(|s| s > b) || sb.is_some_and(|s| s > b) => "unresolved",
                Some(b) if worse_by > b => {
                    bad += 1;
                    "regressed"
                }
                Some(_) => "ok",
            };
            println!(
                "{w} {name} {ma} {mb} {worse_by:.4} {show_bound} {} {} {verdict}",
                show(sa),
                show(sb)
            );
        }
        for name in EXACT_COUNTS {
            let mut by_seed: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
            for r in runs_a.iter().chain(&runs_b).filter(|r| r.workload == w) {
                if let Some(v) = r.metrics.get(*name) {
                    by_seed.entry(r.seed).or_default().push(*v);
                }
            }
            if by_seed.is_empty() {
                continue;
            }
            let same = by_seed.values().all(|v| v.iter().all(|x| *x == v[0]));
            if !same {
                bad += 1;
            }
            let runs: usize = by_seed.values().map(Vec::len).sum();
            println!(
                "{w} {name} exact-count over {runs} runs, {} seeds: {}",
                by_seed.len(),
                if same { "identical" } else { "differs" }
            );
        }
    }
    Ok(bad)
}
