//! A process-local metrics registry with Prometheus text exposition.
//!
//! Registration happens once at subsystem startup (behind a mutex);
//! recording happens on hot paths through plain `Arc<AtomicU64>` handles
//! (no lock, no allocation). Rendering walks the registration list and
//! produces the text exposition format: `# HELP` / `# TYPE` headers and
//! one `name{label="value",...} value` line per sample, with histograms
//! rendered as summaries (quantile series plus `_sum` / `_count`), so any
//! Prometheus-compatible scraper — or a test with a 20-line parser — can
//! consume it.

use crate::hist::Histogram;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not (yet) attached to a registry.
    pub fn new() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A gauge not (yet) attached to a registry.
    pub fn new() -> Self {
        Gauge(Arc::new(AtomicU64::new(0)))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one (saturating: a drain race never wraps to 2^64-1).
    #[inline]
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

enum Handle {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Hist(Arc<Histogram>),
    /// Computed at render time (e.g. values owned by another subsystem).
    Func(Box<dyn Fn() -> u64 + Send + Sync>),
    /// Like [`Handle::Func`] but typed (and rendered) as a counter.
    CounterFunc(Box<dyn Fn() -> u64 + Send + Sync>),
}

struct Metric {
    name: &'static str,
    help: &'static str,
    labels: Vec<(&'static str, String)>,
    handle: Handle,
}

/// The registry: a list of named metrics that renders to exposition text.
#[derive(Default)]
pub struct Registry {
    /// Labels prepended to every registered metric (e.g. `node="2"`), so
    /// scrapes from different daemons merge without sample collisions.
    base_labels: Vec<(&'static str, String)>,
    metrics: Mutex<Vec<Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// An empty registry whose every metric carries `base` labels first in
    /// its label set.
    pub fn with_base_labels(base: Vec<(&'static str, String)>) -> Self {
        Registry {
            base_labels: base,
            metrics: Mutex::new(Vec::new()),
        }
    }

    /// Registers and returns a counter.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: Vec<(&'static str, String)>,
    ) -> Counter {
        let c = Counter::new();
        self.push(name, help, labels, Handle::Counter(Arc::clone(&c.0)));
        c
    }

    /// Registers and returns a gauge.
    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: Vec<(&'static str, String)>,
    ) -> Gauge {
        let g = Gauge::new();
        self.push(name, help, labels, Handle::Gauge(Arc::clone(&g.0)));
        g
    }

    /// Registers and returns a histogram (rendered as a quantile summary).
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: Vec<(&'static str, String)>,
    ) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        self.push(name, help, labels, Handle::Hist(Arc::clone(&h)));
        h
    }

    /// Registers a gauge computed by a closure at render time.
    pub fn gauge_fn(
        &self,
        name: &'static str,
        help: &'static str,
        labels: Vec<(&'static str, String)>,
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.push(name, help, labels, Handle::Func(Box::new(f)));
    }

    /// Registers a counter computed by a closure at render time — for
    /// monotonic values owned by another subsystem that can't hand out an
    /// `Arc<AtomicU64>` (per-lane slots inside an `Arc<Vec<_>>`, accessor
    /// methods on a stats struct, ...).
    pub fn counter_fn(
        &self,
        name: &'static str,
        help: &'static str,
        labels: Vec<(&'static str, String)>,
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.push(name, help, labels, Handle::CounterFunc(Box::new(f)));
    }

    fn push(
        &self,
        name: &'static str,
        help: &'static str,
        labels: Vec<(&'static str, String)>,
        handle: Handle,
    ) {
        let labels = if self.base_labels.is_empty() {
            labels
        } else {
            let mut all = self.base_labels.clone();
            all.extend(labels);
            all
        };
        self.metrics.lock().expect("registry lock").push(Metric {
            name,
            help,
            labels,
            handle,
        });
    }

    /// Renders the whole registry as Prometheus text exposition: one
    /// `# HELP` / `# TYPE` header per family, then all of its samples, the
    /// families in first-registration order whatever order their samples
    /// were registered in (the text format allows one group per family).
    pub fn render(&self) -> String {
        let metrics = self.metrics.lock().expect("registry lock");
        let mut families: Vec<&'static str> = Vec::new();
        for m in metrics.iter() {
            if !families.contains(&m.name) {
                families.push(m.name);
            }
        }
        let mut out = String::with_capacity(4096);
        for name in families {
            let mut family = metrics.iter().filter(|m| m.name == name).peekable();
            if let Some(m) = family.peek() {
                let kind = match m.handle {
                    Handle::Counter(_) | Handle::CounterFunc(_) => "counter",
                    Handle::Gauge(_) | Handle::Func(_) => "gauge",
                    Handle::Hist(_) => "summary",
                };
                let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
                let _ = writeln!(out, "# TYPE {} {}", m.name, kind);
            }
            for m in family {
                m.render(&mut out);
            }
        }
        out
    }
}

impl Metric {
    /// Appends this metric's sample lines to `out`.
    fn render(&self, out: &mut String) {
        let (name, labels) = (self.name, &self.labels);
        match &self.handle {
            Handle::Counter(v) | Handle::Gauge(v) => {
                let v = v.load(Ordering::Relaxed);
                let _ = writeln!(out, "{name}{} {v}", label_set(labels, None));
            }
            Handle::Func(f) | Handle::CounterFunc(f) => {
                let _ = writeln!(out, "{name}{} {}", label_set(labels, None), f());
            }
            Handle::Hist(h) => {
                let s = h.snapshot();
                for (q, p) in [
                    ("0.5", 50.0),
                    ("0.9", 90.0),
                    ("0.99", 99.0),
                    ("0.999", 99.9),
                ] {
                    let v = s.percentile(p);
                    let _ = writeln!(out, "{name}{} {v}", label_set(labels, Some(q)));
                }
                let _ = writeln!(out, "{name}_sum{} {}", label_set(labels, None), s.sum());
                let _ = writeln!(out, "{name}_count{} {}", label_set(labels, None), s.count());
            }
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.metrics.lock().map(|m| m.len()).unwrap_or(0);
        write!(f, "Registry({n} metrics)")
    }
}

fn label_set(labels: &[(&'static str, String)], quantile: Option<&str>) -> String {
    if labels.is_empty() && quantile.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape(v));
    }
    if let Some(q) = quantile {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "quantile=\"{q}\"");
    }
    out.push('}');
    out
}

fn escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Returns `Ok(())` when `text` is well-formed exposition: every
/// non-empty line is a comment (`# ...`) or `name{labels} value` with a
/// parseable numeric value, no family has a second `# TYPE` line, and each
/// family's samples form one group (a summary's `_sum` / `_count` lines
/// belong to the summary). The CI smoke test and unit tests share this
/// instead of each growing a private parser.
///
/// # Errors
///
/// Returns the first offending line.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut types: HashMap<&str, &str> = HashMap::new();
    let mut ended: HashSet<&str> = HashSet::new();
    let mut current = "";
    // Entering `family` ends the group before it; a group never reopens.
    let mut enter = |family, line: &str| {
        if family != current {
            if ended.contains(family) {
                return Err(format!("family {family} resumes after another: {line:?}"));
            }
            ended.insert(std::mem::replace(&mut current, family));
        }
        Ok(())
    };
    for line in text.lines() {
        let line = line.trim_end();
        if let Some(typed) = line.strip_prefix("# TYPE ") {
            let (name, kind) = typed.split_once(' ').unwrap_or((typed, ""));
            if types.insert(name, kind).is_some() {
                return Err(format!("second TYPE line for {name}: {line:?}"));
            }
            enter(name, line)?;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("no value separator: {line:?}"))?;
        if value.parse::<f64>().is_err() {
            return Err(format!("unparseable value {value:?}: {line:?}"));
        }
        let name = match series.split_once('{') {
            Some((name, rest)) => {
                if !rest.ends_with('}') {
                    return Err(format!("unterminated label set: {line:?}"));
                }
                name
            }
            None => series,
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("bad metric name {name:?}: {line:?}"));
        }
        let summary = ["_sum", "_count"].iter().find_map(|s| name.strip_suffix(s));
        let summary = summary.filter(|base| types.get(base) == Some(&"summary"));
        enter(summary.unwrap_or(name), line)?;
    }
    Ok(())
}

/// The value of the first sample whose series line starts with `prefix`
/// (metric name, optionally with a leading part of the label set) — a
/// tiny query helper for tests and harnesses.
pub fn sample_value(text: &str, prefix: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        if !line.starts_with(prefix) || line.starts_with('#') {
            return None;
        }
        line.rsplit_once(' ').and_then(|(_, v)| v.parse().ok())
    })
}

/// Every sample of the family `name`, in rendering order: its label set
/// without the braces (`""` when unlabelled) and its value. A summary's
/// `_sum` and `_count` series are families of their own name.
pub fn samples<'a>(text: &'a str, name: &str) -> Vec<(&'a str, f64)> {
    text.lines()
        .filter_map(|line| {
            let (series, value) = line.strip_prefix(name)?.rsplit_once(' ')?;
            let labels = match series.strip_prefix('{') {
                Some(rest) => rest.strip_suffix('}')?,
                None if series.is_empty() => "",
                None => return None,
            };
            Some((labels, value.parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_render() {
        let r = Registry::new();
        let c = r.counter("ops_total", "Total operations.", vec![("lane", "0".into())]);
        let g = r.gauge("open_things", "Things open now.", vec![]);
        c.add(3);
        g.set(7);
        g.inc();
        g.dec();
        let text = r.render();
        assert!(text.contains("# HELP ops_total Total operations."));
        assert!(text.contains("# TYPE ops_total counter"));
        assert!(text.contains("ops_total{lane=\"0\"} 3"));
        assert!(text.contains("open_things 7"));
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn gauge_dec_saturates() {
        let g = Gauge::new();
        g.dec();
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_renders_as_summary() {
        let r = Registry::new();
        let h = r.histogram("op_us", "Op latency (us).", vec![("lane", "1".into())]);
        for v in 1..=1000 {
            h.record(v);
        }
        let text = r.render();
        assert!(text.contains("# TYPE op_us summary"));
        assert!(text.contains("op_us{lane=\"1\",quantile=\"0.99\"}"));
        assert!(text.contains("op_us_count{lane=\"1\"} 1000"));
        let p50 = sample_value(&text, "op_us{lane=\"1\",quantile=\"0.5\"}").unwrap();
        assert!((400.0..=600.0).contains(&p50), "p50 {p50}");
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn shared_and_fn_handles_sample_live_values() {
        let r = Registry::new();
        let shared = r.counter("ext_total", "External counter.", vec![]).clone();
        r.gauge_fn("computed", "Computed gauge.", vec![], || 41 + 1);
        let slots = Arc::new(vec![AtomicU64::new(5), AtomicU64::new(6)]);
        for lane in 0..slots.len() {
            let slots = Arc::clone(&slots);
            r.counter_fn(
                "lane_total",
                "Per-lane counter.",
                vec![("lane", lane.to_string())],
                move || slots[lane].load(Ordering::Relaxed),
            );
        }
        r.histogram("ext_us", "External histogram.", vec![])
            .record(10);
        shared.add(9);
        let text = r.render();
        assert!(text.contains("ext_total 9"));
        assert!(text.contains("computed 42"));
        assert!(text.contains("# TYPE lane_total counter"));
        assert!(text.contains("lane_total{lane=\"1\"} 6"));
        assert!(text.contains("ext_us_count 1"));
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn families_registered_interleaved_render_as_one_group_each() {
        let r = Registry::new();
        for lane in 0..2u64 {
            let labels = || vec![("lane", lane.to_string())];
            r.counter_fn("ops_total", "Ops.", labels(), move || lane);
            r.counter_fn("ingress_total", "Ingress.", labels(), move || 10 + lane);
        }
        let text = r.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "# HELP ops_total Ops.",
                "# TYPE ops_total counter",
                "ops_total{lane=\"0\"} 0",
                "ops_total{lane=\"1\"} 1",
                "# HELP ingress_total Ingress.",
                "# TYPE ingress_total counter",
                "ingress_total{lane=\"0\"} 10",
                "ingress_total{lane=\"1\"} 11",
            ]
        );
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn validate_rejects_garbage() {
        assert!(validate_exposition("ok_metric 1\n").is_ok());
        assert!(validate_exposition("bad metric name 1\n").is_err());
        assert!(validate_exposition("noval\n").is_err());
        assert!(validate_exposition("m{unterminated 1\n").is_err());
        assert!(validate_exposition("m{l=\"x\"} notanumber\n").is_err());
        let twice = "# TYPE a counter\na 1\n# TYPE a counter\na 2\n";
        assert!(validate_exposition(twice)
            .unwrap_err()
            .contains("second TYPE"));
        let split = "a{l=\"0\"} 1\nb 2\na{l=\"1\"} 3\n";
        assert!(validate_exposition(split).unwrap_err().contains("resumes"));
        let summary = "# TYPE s summary\ns{quantile=\"0.5\"} 1\ns_sum 1\ns_count 1\n";
        assert!(validate_exposition(summary).is_ok());
    }

    #[test]
    fn base_labels_prefix_every_metric() {
        let r = Registry::with_base_labels(vec![("node", "2".into())]);
        let c = r.counter("ops_total", "Total operations.", vec![("lane", "1".into())]);
        let h = r.histogram("op_us", "Op latency (us).", vec![]);
        c.inc();
        h.record(5);
        let text = r.render();
        assert!(
            text.contains("ops_total{node=\"2\",lane=\"1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("op_us{node=\"2\",quantile=\"0.99\"}"),
            "{text}"
        );
        assert!(text.contains("op_us_count{node=\"2\"} 1"), "{text}");
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn samples_returns_one_family_whole() {
        let r = Registry::with_base_labels(vec![("node", "2".into())]);
        r.gauge_fn("open", "Open things.", vec![], || 3);
        for lane in 0..2u64 {
            let labels = vec![("lane", lane.to_string())];
            r.counter_fn("ops_total", "Ops.", labels, move || 10 + lane);
        }
        r.counter_fn("ops_total_x", "A longer name.", vec![], || 99);
        r.histogram("op_us", "Op latency (us).", vec![]).record(5);
        let text = r.render();
        assert_eq!(
            samples(&text, "ops_total"),
            [
                ("node=\"2\",lane=\"0\"", 10.0),
                ("node=\"2\",lane=\"1\"", 11.0)
            ]
        );
        assert_eq!(samples(&text, "open"), [("node=\"2\"", 3.0)]);
        assert_eq!(samples(&text, "op_us_count"), [("node=\"2\"", 1.0)]);
        assert_eq!(samples(&text, "op_us").len(), 4, "one per quantile");
        assert_eq!(samples(&text, "absent"), []);
        assert_eq!(samples("bare 7\n", "bare"), [("", 7.0)]);
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.gauge("g", "Gauge.", vec![("path", "a\"b\\c".into())]);
        let text = r.render();
        assert!(text.contains("g{path=\"a\\\"b\\\\c\"} 0"));
        validate_exposition(&text).unwrap();
    }
}
