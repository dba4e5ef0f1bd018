//! `runtime_bench`: the real-runtime benchmark (ROADMAP open item 1).
//!
//! Launches a three-replica Hermes cluster **inside this process**, drives
//! it from two closed-loop sessions, checks every reply, and prints every
//! metric as `name value unit`; the last line of standard output is one
//! JSON object (`correct`, `attempted`, `failed`, `metrics`). See
//! `README.md` next to this file for the workloads, the metrics, and which
//! layer is expected to move which end-to-end number.
//!
//! ```text
//! cargo run --release --offline --example runtime_bench -- --workload all --seed 1
//! cargo run --release --offline --manifest-path examples/runtime_bench/Cargo.toml -- \
//!     --workload tcp_w50 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! * `--workload <name|all>` — `tcp_lat_w5`, `tcp_w50`, `tcp_zipf_w20_1k`,
//!   `inproc_w20` (default `all`, in that order);
//! * `--seed <n>` — seeds the operation streams (default 1);
//! * `--seconds <s>` — length of the measured window, in 2 s slices
//!   (default 30);
//! * `--trace 0` — end-to-end metrics only: three set-ups, warm-up, window;
//! * `--trace 1` — per-layer metrics only: a three-slice reference window,
//!   then the traced, allocation-counted layer pass, then the micro-probes;
//! * neither — both, as one run: window, layer pass, probes;
//! * `--smoke` — 3 × 1 s slices, 2 s layer pass, probes at a tenth;
//! * `--out-dir <dir>` — where `<workload>.json` goes (default
//!   `target/runtime_bench/`, never the repository root);
//! * `--self-test`, `--compare <a> <b>` — see `selftest.rs`, `compare.rs`.

mod cluster;
mod compare;
mod estimate;
mod host;
mod json;
mod load;
mod probes;
mod report;
mod run;
mod selftest;
mod spec;

use probes::ProbeScale;
use run::{RunResult, RunShape};
use spec::{MetricDef, WorkloadSpec, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::time::Duration;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Slice length of the measured window; `--smoke` halves it.
const SLICE: Duration = Duration::from_secs(2);
const WARMUP: Duration = Duration::from_secs(3);
/// Layer pass of a full run; `--trace 1` uses 40 % of `--seconds` instead.
const LAYER_PASS: Duration = Duration::from_secs(8);
/// Slices of the untraced reference window in a `--trace 1` run (what the
/// layer pass's throughput is compared with).
const REFERENCE_SLICES: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Window, layer pass and probes in one run.
    Full,
    /// `--trace 0`.
    EndToEnd,
    /// `--trace 1`.
    PerLayer,
    Smoke,
}

struct Args {
    workloads: Vec<&'static WorkloadSpec>,
    seed: u64,
    seconds: u64,
    mode: Mode,
    out_dir: PathBuf,
}

fn usage(problem: &str) -> ! {
    eprintln!("runtime_bench: {problem}");
    eprintln!(
        "usage: runtime_bench [--workload <name|all>] [--seed <n>] [--seconds <s>] \
         [--trace <0|1>] [--smoke] [--out-dir <dir>] | --self-test | --compare <a> <b>"
    );
    std::process::exit(2);
}

fn parse(args: &[String]) -> Args {
    let mut out = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        seconds: 30,
        mode: Mode::Full,
        out_dir: report::default_out_dir(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                if name != "all" {
                    let spec = spec::workload(name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name:?}")));
                    out.workloads = vec![spec];
                }
            }
            "--seed" => {
                out.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a whole number"));
            }
            "--seconds" => {
                out.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .unwrap_or_else(|| usage("--seconds takes a whole number from 1 to 3600"));
            }
            "--trace" => {
                out.mode = match value().as_str() {
                    "0" => Mode::EndToEnd,
                    "1" => Mode::PerLayer,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            "--smoke" => out.mode = Mode::Smoke,
            "--out-dir" => out.out_dir = PathBuf::from(value()),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    out
}

fn shape(mode: Mode, seconds: u64) -> RunShape {
    let slices = ((seconds / SLICE.as_secs()) as usize).max(1);
    match mode {
        Mode::Full => RunShape {
            setups: 3,
            warmup: WARMUP,
            slice: SLICE,
            slices,
            layer: LAYER_PASS,
            probes: Some(ProbeScale(1)),
        },
        Mode::EndToEnd => RunShape {
            setups: 3,
            warmup: WARMUP,
            slice: SLICE,
            slices,
            layer: Duration::ZERO,
            probes: None,
        },
        Mode::PerLayer => RunShape {
            setups: 1,
            warmup: WARMUP,
            slice: SLICE,
            slices: REFERENCE_SLICES.min(slices),
            layer: Duration::from_millis(seconds * 400).max(Duration::from_secs(1)),
            probes: Some(ProbeScale(1)),
        },
        Mode::Smoke => RunShape {
            setups: 1,
            warmup: Duration::from_secs(1),
            slice: SLICE / 2,
            slices: 3,
            layer: Duration::from_secs(2),
            probes: Some(ProbeScale(10)),
        },
    }
}

/// Which catalogue sections a mode prints and writes.
fn sections(mode: Mode) -> &'static [&'static [MetricDef]] {
    match mode {
        Mode::EndToEnd => &[END_TO_END],
        Mode::PerLayer => &[PER_LAYER],
        Mode::Full | Mode::Smoke => &[END_TO_END, PER_LAYER],
    }
}

/// Non-zero when any run had a failed operation or replicas that disagree.
pub fn exit_code(results: &[RunResult]) -> i32 {
    i32::from(results.iter().any(|r| !r.correct()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--self-test") => std::process::exit(i32::from(selftest::run() > 0)),
        Some("--compare") => {
            let [_, a, b] = args.as_slice() else {
                usage("--compare takes two result files or directories");
            };
            match compare::compare("BENCHMARK.json".as_ref(), a.as_ref(), b.as_ref()) {
                Ok(bad) => std::process::exit(i32::from(bad > 0)),
                Err(e) => {
                    eprintln!("runtime_bench --compare: {e}");
                    std::process::exit(2);
                }
            }
        }
        _ => {}
    }
    let args = parse(&args);
    let shape = shape(args.mode, args.seconds);
    let defs = sections(args.mode);
    let host = host::HostMeta::gather();
    let mut results = Vec::new();
    for spec in &args.workloads {
        let result = run::run_workload(spec, args.seed, &shape);
        report::print_metrics(spec, &result, defs);
        match report::write_result_file(&args.out_dir, spec, args.seed, &shape, &host, &result) {
            Ok(path) => println!("# wrote {}", path.display()),
            Err(e) => {
                eprintln!("runtime_bench: {e}");
                std::process::exit(2);
            }
        }
        println!("{}", report::result_line(&result, defs));
        results.push(result);
    }
    std::process::exit(exit_code(&results));
}
