//! `--self-test`: the harness checks itself before anyone trusts its
//! numbers — the verifier against a service that lies, the slice estimator
//! against slowed slices, the percentile rule against a short sample, and
//! `BENCHMARK.json` against the metric catalogue.

use crate::estimate::{percentile, quiet_cost, quiet_rate};
use crate::json::Json;
use crate::load::{encode_value, preload, run_load, Failures, Issued, OpGen, Schedule, TicketedKv};
use crate::report::check_out_path;
use crate::run::RunResult;
use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use hermes::prelude::*;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::time::{Duration, Instant};

/// An in-memory KV that answers at once — and, on three chosen reads, lies:
/// one gets another key's value, one a `(session, seq)` from the future,
/// one no answer at all.
struct LyingKv {
    store: HashMap<Key, Value>,
    ready: VecDeque<(u64, Reply)>,
    next_token: u64,
    reads: u64,
    value_len: usize,
}

const WRONG_KEY_AT: u64 = 5;
const STALE_AT: u64 = 9;
const DROPPED_AT: u64 = 13;

impl TicketedKv for LyingKv {
    fn submit(&mut self, key: Key, cop: ClientOp) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        let reply = match cop {
            ClientOp::Write(v) => {
                self.store.insert(key, v);
                Reply::WriteOk
            }
            ClientOp::Read => {
                self.reads += 1;
                match self.reads {
                    DROPPED_AT => return token,
                    WRONG_KEY_AT => {
                        let other = Key(key.0 ^ 1);
                        Reply::ReadOk(self.store[&other].clone())
                    }
                    STALE_AT => Reply::ReadOk(encode_value(key, 1, u64::MAX / 2, self.value_len)),
                    _ => Reply::ReadOk(self.store[&key].clone()),
                }
            }
            ClientOp::Rmw(_) => Reply::Unsupported,
        };
        self.ready.push_back((token, reply));
        token
    }

    fn wait_any(&mut self) -> Option<(u64, Reply)> {
        self.ready.pop_front()
    }
}

fn verifier_catches_lies() -> Result<(), String> {
    let spec = &WORKLOADS[1]; // 50 % writes, depth 16
    let mut kv = LyingKv {
        store: HashMap::new(),
        ready: VecDeque::new(),
        next_token: 0,
        reads: 0,
        value_len: spec.value_len,
    };
    let mut result = RunResult::default();
    result
        .failures
        .add(&preload(&mut kv, 0..spec.keys, spec.value_len, 32));
    if result.failures != Failures::default() {
        return Err(format!("honest preload failed: {:?}", result.failures));
    }
    let sched = Schedule {
        t0: Instant::now(),
        warmup: Duration::ZERO,
        slice: Duration::from_millis(20),
        slices: 2,
        layer: Duration::ZERO,
    };
    let issued = Issued::new(spec.keys);
    let mut gen = OpGen::new(spec, 1, 1);
    let rec = run_load(&mut kv, &mut gen, &sched, spec.depth, &issued);
    result.attempted = rec.attempted;
    result.failures.add(&rec.failures);
    let want = Failures {
        wrong_key: 1,
        stale: 1,
        bad_reply: 0,
        lost: 1,
    };
    if rec.failures != want {
        return Err(format!("verifier saw {:?}, wanted {want:?}", rec.failures));
    }
    let share = result.failed() as f64 / result.attempted as f64;
    if share <= 0.0 || share.is_nan() || result.correct() || crate::exit_code(&[result]) == 0 {
        return Err("a lying service must give failed_share > 0 and a non-zero exit".into());
    }
    Ok(())
}

/// 15 slices of which 9 (60 %) are slowed by 20–80 %: the quiet-quartile
/// value must stay within 2 % of the clean one.
fn estimator_ignores_slowed_slices() -> Result<(), String> {
    let clean_rate = 40_000.0;
    let clean_cost = 40.0;
    let (mut rates, mut costs) = (Vec::new(), Vec::new());
    for i in 0..15u32 {
        let jitter = 1.0 + (i % 3) as f64 * 0.004;
        let slow = if i % 5 < 3 {
            1.0 + 0.2 + 0.1 * (i % 7) as f64
        } else {
            1.0
        };
        rates.push(clean_rate / jitter / slow);
        costs.push(clean_cost * jitter * slow);
    }
    let rate = quiet_rate(&rates).expect("15 slices");
    let cost = quiet_cost(&costs).expect("15 slices");
    if (rate / clean_rate - 1.0).abs() > 0.02 || (cost / clean_cost - 1.0).abs() > 0.02 {
        return Err(format!(
            "quiet quartile moved: rate {rate} vs {clean_rate}, cost {cost} vs {clean_cost}"
        ));
    }
    Ok(())
}

fn percentile_rule_refuses_short_samples() -> Result<(), String> {
    let samples: Vec<u64> = (0..1000).collect();
    if percentile(&samples[..999], 99.0).is_some() {
        return Err("p99 accepted on 999 samples".into());
    }
    if percentile(&samples, 99.0).is_none() || percentile(&samples[..20], 50.0).is_none() {
        return Err("p99 on 1 000 samples or p50 on 20 refused".into());
    }
    Ok(())
}

fn results_stay_out_of_the_repo_root() -> Result<(), String> {
    if check_out_path(Path::new("."), "tcp_w50.json").is_ok()
        || check_out_path(Path::new("target/runtime_bench"), "BENCH_runtime.json").is_ok()
    {
        return Err("a repo-root or BENCH_* result path was accepted".into());
    }
    check_out_path(Path::new("target/runtime_bench"), "tcp_w50.json").map(|_| ())
}

/// `BENCHMARK.json` in the working directory (skipped when absent) must
/// name exactly the catalogue's workloads and metrics.
fn benchmark_json_matches_catalogue() -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        println!("self-test: no BENCHMARK.json in the working directory, catalogue check skipped");
        return Ok(());
    };
    let doc = Json::parse(&text)?;
    // The named string fields of every entry of one top-level array.
    let rows = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
        doc.get(key)
            .map_or(&[][..], Json::as_array)
            .iter()
            .map(|entry| {
                fields
                    .iter()
                    .map(|f| {
                        entry
                            .get(f)
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string()
                    })
                    .collect()
            })
            .collect()
    };
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let catalogue: Vec<Vec<String>> = defs
            .iter()
            .map(|d| vec![d.name.into(), d.unit.into(), d.better.as_str().into()])
            .collect();
        if rows(key, &["name", "unit", "better"]) != catalogue {
            return Err(format!(
                "BENCHMARK.json `{key}` differs from the catalogue in spec.rs"
            ));
        }
    }
    let workloads: Vec<Vec<String>> = WORKLOADS
        .iter()
        .map(|w| vec![w.name.into(), w.why.into()])
        .collect();
    if rows("workloads", &["name", "why"]) != workloads {
        return Err("BENCHMARK.json `workloads` differ from spec.rs".into());
    }
    Ok(())
}

/// Runs every check; returns how many failed.
pub fn run() -> usize {
    type Check = fn() -> Result<(), String>;
    let checks: [(&str, Check); 5] = [
        ("verifier catches a lying service", verifier_catches_lies),
        (
            "quiet quartile ignores 60% slowed slices",
            estimator_ignores_slowed_slices,
        ),
        (
            "percentile rule refuses short samples",
            percentile_rule_refuses_short_samples,
        ),
        (
            "results stay out of the repo root",
            results_stay_out_of_the_repo_root,
        ),
        (
            "BENCHMARK.json matches the catalogue",
            benchmark_json_matches_catalogue,
        ),
    ];
    let mut failed = 0;
    for (name, check) in checks {
        match check() {
            Ok(()) => println!("self-test ok: {name}"),
            Err(e) => {
                failed += 1;
                println!("self-test FAILED: {name}: {e}");
            }
        }
    }
    failed
}
