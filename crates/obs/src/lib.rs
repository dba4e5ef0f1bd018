//! # hermes-obs — the observability substrate
//!
//! Hermes' headline claim is *tail latency*, so this reproduction's
//! measurement layer is load-bearing (DESIGN.md §9). This crate is that
//! layer, with zero external dependencies:
//!
//! * [`hist`] — lock-free log2-bucketed latency [`Histogram`]s with
//!   mergeable [`HistogramSnapshot`]s and one shared percentile
//!   implementation (p50/p90/p99/p999) for every bench and the metrics
//!   exposition;
//! * [`registry`] — a [`Registry`] of named counters/gauges/histograms
//!   rendering Prometheus text exposition (served by the daemon's
//!   `Request::Metrics` RPC);
//! * [`trace`] — per-lane protocol-phase [`Span`]s and [`TraceRing`]s
//!   with slow-op capture (any op over `HERMES_SLOW_OP_US` dumps its full
//!   phase breakdown; `HERMES_SLOW_OP_US=0` is the intended
//!   capture-everything mode — the warn log is rate-limited per ring, the
//!   ring itself keeps every capture) and sampled cross-node trace ids
//!   ([`TraceId`], `HERMES_TRACE_SAMPLE`);
//! * [`aggregate`] — cluster-side merging of per-node scrapes and
//!   stitching of trace spans into causal cross-node [`Timeline`]s;
//! * [`log`] — the `HERMES_LOG` leveled logger ([`obs_error!`] …
//!   [`obs_trace!`]) with an in-memory capture sink for tests.
//!
//! Recording can be disabled process-wide (`HERMES_OBS=off` or
//! [`set_recording`]) to measure its own overhead; the acceptance bar is
//! ≤ 5 % ops/s against the disabled baseline.

#![warn(missing_docs)]

pub mod aggregate;
pub mod hist;
pub mod log;
pub mod registry;
pub mod trace;

pub use aggregate::{merge_expositions, stitch, Timeline, TimelineEvent};
pub use hist::{Histogram, HistogramSnapshot, Quantiles};
pub use registry::{sample_value, samples, validate_exposition, Counter, Gauge, Registry};
pub use trace::{maybe_trace, set_trace_sample, Phase, Span, TraceId, TraceRing, TraceSpan};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static RECORDING: OnceLock<AtomicBool> = OnceLock::new();

fn recording_cell() -> &'static AtomicBool {
    RECORDING.get_or_init(|| {
        let on = !matches!(
            std::env::var("HERMES_OBS")
                .unwrap_or_default()
                .trim()
                .to_ascii_lowercase()
                .as_str(),
            "off" | "0" | "false"
        );
        AtomicBool::new(on)
    })
}

/// Whether hot-path metric/trace recording is enabled (default yes;
/// `HERMES_OBS=off` disables). Instrumented code checks this once per
/// operation and skips all span/histogram work when off.
#[inline]
pub fn recording_enabled() -> bool {
    recording_cell().load(Ordering::Relaxed)
}

/// Enables or disables hot-path recording at runtime (overrides the
/// environment).
pub fn set_recording(on: bool) {
    recording_cell().store(on, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    #[test]
    fn recording_toggle() {
        let initial = super::recording_enabled();
        super::set_recording(false);
        assert!(!super::recording_enabled());
        super::set_recording(true);
        assert!(super::recording_enabled());
        super::set_recording(initial);
    }
}
