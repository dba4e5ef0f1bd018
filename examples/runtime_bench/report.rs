//! What a run prints and writes: `name value unit` lines, the contract's
//! one-line JSON result, and a result file under `target/runtime_bench/`.

use crate::host::HostMeta;
use crate::json::Json;
use crate::run::{RunResult, RunShape};
use crate::spec::{MetricDef, WorkloadSpec, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};

/// The value of every metric in `defs`, in catalogue order.
///
/// # Panics
///
/// Panics if the run did not produce one of them: the catalogue and the
/// code that fills it have drifted apart.
fn values<'a>(
    result: &'a RunResult,
    defs: &'a [&'a [MetricDef]],
) -> impl Iterator<Item = (&'a MetricDef, f64)> {
    defs.iter().flat_map(|d| d.iter()).map(|def| {
        let v = result
            .metrics
            .get(def.name)
            .unwrap_or_else(|| panic!("metric {} was not produced", def.name));
        (def, *v)
    })
}

pub fn print_metrics(spec: &WorkloadSpec, result: &RunResult, defs: &[&[MetricDef]]) {
    println!("# workload {}", spec.name);
    for (def, v) in values(result, defs) {
        match result.samples.get(def.name) {
            Some(n) => println!("{} {v} {} (n={n})", def.name, def.unit),
            None => println!("{} {v} {}", def.name, def.unit),
        }
    }
    let f = &result.failures;
    println!(
        "# attempted {} failed {} (wrong_key {} stale {} bad_reply {} lost {} replica_disagreements {})",
        result.attempted,
        result.failed(),
        f.wrong_key,
        f.stale,
        f.bad_reply,
        f.lost,
        result.disagreements
    );
}

fn metric_json((def, v): (&MetricDef, f64)) -> (&'static str, Json) {
    (
        def.name,
        Json::obj([("value", Json::Num(v)), ("unit", Json::str(def.unit))]),
    )
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(result: &RunResult, defs: &[&[MetricDef]]) -> String {
    Json::obj([
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::Num(result.attempted.max(1) as f64)),
        ("failed", Json::Num(result.failed() as f64)),
        ("metrics", Json::obj(values(result, defs).map(metric_json))),
    ])
    .render()
}

/// Where result files go unless `--out-dir` says otherwise: under the cargo
/// target directory, never the repository root.
pub fn default_out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("runtime_bench")
}

/// Refuses the locations earlier harnesses clobbered: the working directory
/// itself (the repository root when run as documented) and any `BENCH_*`
/// file name.
pub fn check_out_path(dir: &Path, file_name: &str) -> Result<PathBuf, String> {
    let is_cwd = dir.as_os_str().is_empty()
        || match (dir.canonicalize(), std::env::current_dir()) {
            (Ok(d), Ok(cwd)) => d == cwd,
            _ => false,
        };
    if is_cwd || file_name.starts_with("BENCH_") {
        return Err(format!(
            "refusing to write {file_name} into {}: results go under target/runtime_bench/, \
             never next to the committed BENCH_*.json files",
            dir.display()
        ));
    }
    Ok(dir.join(file_name))
}

/// Writes `<dir>/<workload>.json`: host metadata, the run's shape, and every
/// metric the run produced — in every mode that includes the two
/// `host.spin_ms_*` timings, and in a `--trace 0` run also the unbounded
/// `session.*` window metrics.
pub fn write_result_file(
    dir: &Path,
    spec: &WorkloadSpec,
    seed: u64,
    shape: &RunShape,
    host: &HostMeta,
    result: &RunResult,
) -> Result<PathBuf, String> {
    let path = check_out_path(dir, &format!("{}.json", spec.name))?;
    let doc = Json::obj([
        ("workload", Json::str(spec.name)),
        ("seed", Json::Num(seed as f64)),
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed() as f64)),
        (
            "shape",
            Json::obj([
                ("setups", Json::Num(shape.setups as f64)),
                ("warmup_s", Json::Num(shape.warmup.as_secs_f64())),
                ("slices", Json::Num(shape.slices as f64)),
                ("slice_s", Json::Num(shape.slice.as_secs_f64())),
                ("layer_pass_s", Json::Num(shape.layer.as_secs_f64())),
                ("probes", Json::Bool(shape.probes.is_some())),
            ]),
        ),
        (
            "host",
            Json::obj([
                ("nproc", Json::Num(host.nproc as f64)),
                ("cpu_model", Json::str(&host.cpu_model)),
                ("git_sha", Json::str(&host.git_sha)),
                ("rustc", Json::str(&host.rustc)),
                (
                    "obs_recording",
                    Json::str(if host.obs_recording { "on" } else { "off" }),
                ),
            ]),
        ),
        (
            "setup_runs_s",
            Json::Arr(result.setup_secs.iter().map(|s| Json::Num(*s)).collect()),
        ),
        (
            "samples",
            Json::obj(
                result
                    .samples
                    .iter()
                    .map(|(k, n)| (*k, Json::Num(*n as f64))),
            ),
        ),
        (
            "metrics",
            Json::obj(
                [END_TO_END, PER_LAYER]
                    .into_iter()
                    .flatten()
                    .filter_map(|def| Some((def, *result.metrics.get(def.name)?)))
                    .map(metric_json),
            ),
        ),
    ]);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    std::fs::write(&path, doc.render() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}
