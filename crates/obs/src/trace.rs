//! Per-lane structured protocol-phase tracing with slow-op capture.
//!
//! Every in-flight operation can carry a [`Span`]: a start instant plus a
//! small list of `(Phase, offset)` marks recorded as the op moves through
//! the protocol (issued → invalidations broadcast → acks collected →
//! committed → reply released, and the analogous view-change / sync /
//! transaction / cache-push phases). Marking is an `Instant::elapsed`
//! plus a `Vec` push — nothing is formatted on the hot path.
//!
//! When an op completes, [`TraceRing::complete`] checks the span against
//! the ring's slow-op threshold (`HERMES_SLOW_OP_US`, settable per ring).
//! Fast ops are dropped on the floor; a slow op's full phase breakdown is
//! captured into a bounded ring of [`TraceSpan`] records and emitted
//! through the [`crate::log`] logger at `warn`, so "where did the time go"
//! is answerable after the fact without re-running under a profiler.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Cluster-unique identifier for a sampled operation. `0` means
/// *unsampled*: the op carries no trace context, pays no wire bytes and
/// no extra tracing work anywhere.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The unsampled trace id.
    pub const NONE: TraceId = TraceId(0);

    /// Whether this op was sampled for cross-node tracing.
    #[inline]
    pub fn is_sampled(self) -> bool {
        self.0 != 0
    }
}

/// Sampling period cell: every Nth issued op is traced; `0` = tracing
/// off. Initialized once from `HERMES_TRACE_SAMPLE` (a rate in `[0, 1]`).
static TRACE_PERIOD: OnceLock<AtomicU64> = OnceLock::new();
/// Issued-op counter driving deterministic every-Nth sampling.
static TRACE_COUNTER: AtomicU64 = AtomicU64::new(0);
/// Per-process seed so two daemons minting the same counter values never
/// collide on trace ids.
static TRACE_SEED: OnceLock<u64> = OnceLock::new();

fn trace_period_cell() -> &'static AtomicU64 {
    TRACE_PERIOD.get_or_init(|| {
        let rate: f64 = std::env::var("HERMES_TRACE_SAMPLE")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0);
        AtomicU64::new(period_for_rate(rate))
    })
}

fn period_for_rate(rate: f64) -> u64 {
    if rate.is_nan() || rate <= 0.0 {
        0
    } else if rate >= 1.0 {
        1
    } else {
        (1.0 / rate).round() as u64
    }
}

/// Overrides the trace sampling rate at runtime (`0.0` disables, `1.0`
/// samples every op, `0.01` every 100th). Normally set once via the
/// `HERMES_TRACE_SAMPLE` environment variable before startup.
pub fn set_trace_sample(rate: f64) {
    trace_period_cell().store(period_for_rate(rate), Ordering::Relaxed);
}

/// Whether trace sampling is enabled at all (rate > 0).
#[inline]
pub fn trace_sampling_on() -> bool {
    trace_period_cell().load(Ordering::Relaxed) != 0
}

/// Mints a trace id for a newly issued op: [`TraceId::NONE`] unless this
/// op falls on the sampling period. With sampling off this is one relaxed
/// atomic load — the zero-cost guarantee the hot path relies on.
#[inline]
pub fn maybe_trace() -> TraceId {
    let period = trace_period_cell().load(Ordering::Relaxed);
    if period == 0 {
        return TraceId::NONE;
    }
    let n = TRACE_COUNTER.fetch_add(1, Ordering::Relaxed);
    if !n.is_multiple_of(period) {
        return TraceId::NONE;
    }
    let seed = *TRACE_SEED.get_or_init(|| {
        let clock = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e3779b97f4a7c15);
        let stack_entropy = &clock as *const _ as u64;
        clock ^ stack_entropy.rotate_left(32)
    });
    // splitmix64: a full-period mix, so sequential counters spread over
    // the whole id space and `0` (the unsampled sentinel) is dodged below.
    let mut z = n.wrapping_add(seed).wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    TraceId(if z == 0 { 1 } else { z })
}

/// Microseconds since the UNIX epoch — the wall-clock anchor that lets
/// the aggregator order marks from different processes on one axis.
fn unix_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Protocol phases an operation moves through. One flat namespace across
/// subsystems keeps a single breakdown readable when phases interleave
/// (e.g. a write held behind a cache push during a view change).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Client op arrived at its owning worker lane.
    Issued,
    /// Invalidations broadcast to the replica group.
    InvalBroadcast,
    /// All invalidation acks collected.
    AcksCollected,
    /// Write committed / read validated locally.
    Committed,
    /// Reply ready but held (subscriber invalidation push outstanding).
    ReplyHeld,
    /// Reply released to the client.
    ReplyReleased,
    /// View change proposed / detected.
    ViewChangeStart,
    /// New view installed.
    ViewChangeInstalled,
    /// Follower: a traced invalidation arrived off the wire.
    InvIngress,
    /// Follower: a traced validation arrived off the wire.
    ValIngress,
    /// Follower: the message was applied to the local protocol state.
    LocalApply,
    /// Follower: the ack was enqueued into the Wings batcher.
    AckEnqueue,
    /// Follower: the ack batch was handed to the transport — over TCP, the
    /// lane's own socket write returned (the frame is in the kernel).
    AckWrite,
}

impl Phase {
    /// Stable lower-case name (used in logs and dumps).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Issued => "issued",
            Phase::InvalBroadcast => "inval_broadcast",
            Phase::AcksCollected => "acks_collected",
            Phase::Committed => "committed",
            Phase::ReplyHeld => "reply_held",
            Phase::ReplyReleased => "reply_released",
            Phase::ViewChangeStart => "view_change_start",
            Phase::ViewChangeInstalled => "view_change_installed",
            Phase::InvIngress => "inv_ingress",
            Phase::ValIngress => "val_ingress",
            Phase::LocalApply => "local_apply",
            Phase::AckEnqueue => "ack_enqueue",
            Phase::AckWrite => "ack_write",
        }
    }
}

/// Inline mark capacity of a [`Span`]. The longest phase chain an op
/// records today is six marks (issued → reply_held → inval_broadcast →
/// acks_collected → committed → reply_released); eight leaves headroom.
/// Marks live inline so starting a span never allocates — it runs on
/// every op whenever recording is enabled, and the heap round-trip was
/// measurable in the threaded closed-loop bench.
const MAX_MARKS: usize = 8;

/// One in-flight operation's phase timeline. Allocation-free: marks are
/// stored inline (capacity `MAX_MARKS`, 8; later marks are dropped, which
/// no current phase chain can reach).
#[derive(Clone, Debug)]
pub struct Span {
    start: Instant,
    /// Wall-clock anchor of `start` (0 for untraced spans — only sampled
    /// spans pay the `SystemTime::now` call, and only they need
    /// cross-process alignment).
    start_unix_us: u64,
    trace: TraceId,
    marks: [(Phase, u64); MAX_MARKS],
    len: u8,
}

impl Span {
    /// Starts a span at the current instant with its first phase mark.
    pub fn begin(phase: Phase) -> Self {
        Span::begin_traced(phase, TraceId::NONE)
    }

    /// Starts a span carrying a trace id. Sampled spans also record a
    /// wall-clock anchor so marks from different nodes can be merged onto
    /// one timeline.
    pub fn begin_traced(phase: Phase, trace: TraceId) -> Self {
        Span {
            start: Instant::now(),
            start_unix_us: if trace.is_sampled() { unix_micros() } else { 0 },
            trace,
            marks: [(phase, 0); MAX_MARKS],
            len: 1,
        }
    }

    /// The trace id this span carries ([`TraceId::NONE`] if unsampled).
    #[inline]
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// Wall-clock micros of the span's start (0 if unsampled).
    #[inline]
    pub fn start_unix_us(&self) -> u64 {
        self.start_unix_us
    }

    /// Marks a phase at the current offset from the span's start. Marks
    /// beyond the inline capacity are dropped (no phase chain reaches it).
    #[inline]
    pub fn mark(&mut self, phase: Phase) {
        if (self.len as usize) < MAX_MARKS {
            self.marks[self.len as usize] = (phase, self.start.elapsed().as_micros() as u64);
            self.len += 1;
        }
    }

    /// Microseconds since the span began.
    #[inline]
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// The recorded `(phase, offset_us)` marks.
    pub fn marks(&self) -> &[(Phase, u64)] {
        &self.marks[..self.len as usize]
    }
}

/// One captured span as drained by the Traces client RPC: everything the
/// cluster aggregator needs to stitch cross-node timelines, with no
/// borrowed data so it round-trips through the wire codec.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSpan {
    /// Trace id (`0` if the span was captured by threshold, not sampling).
    pub trace: u64,
    /// Node that captured the span.
    pub node: u32,
    /// Lane that captured the span (`u32::MAX` for non-lane rings).
    pub lane: u32,
    /// Wall-clock micros of the span start (`0` if unknown).
    pub start_unix_us: u64,
    /// End-to-end duration in microseconds.
    pub total_us: u64,
    /// What the op was.
    pub label: String,
    /// `(phase_name, offset_us_from_start)` in occurrence order.
    pub phases: Vec<(String, u64)>,
}

/// Default slow-op threshold when `HERMES_SLOW_OP_US` is unset: 100 ms —
/// far above any healthy op on loopback, so production lanes only capture
/// genuine stalls.
pub const DEFAULT_SLOW_OP_US: u64 = 100_000;

/// How many slow-op reports a ring retains (oldest evicted first).
pub const SLOW_RING_CAP: usize = 64;

/// How many slow-op warn lines one ring may emit per second. The ring
/// still captures every qualifying span — this only throttles the
/// logger, so `HERMES_SLOW_OP_US=0` ("capture everything") is usable on
/// a live cluster without drowning the log.
pub const SLOW_WARNS_PER_SEC: u64 = 10;

/// A bounded ring of captured slow operations, one per lane (or
/// subsystem). Completion with a fast span is two atomic loads; only ops
/// over the threshold (or carrying a sampled trace) pay for formatting.
#[derive(Debug)]
pub struct TraceRing {
    /// Who owns this ring — prefixes log lines ("lane3", "pump", ...).
    owner: String,
    /// Node / lane tags stamped on captured spans (the Traces RPC and the
    /// cluster aggregator key on them).
    node: u32,
    lane: u32,
    created: Instant,
    threshold_us: AtomicU64,
    slow_total: AtomicU64,
    /// Log rate-limit state: current one-second window (seconds since
    /// `created`), emissions inside it, and emissions suppressed since
    /// the last line that made it out.
    emit_window_s: AtomicU64,
    emit_in_window: AtomicU64,
    emit_suppressed: AtomicU64,
    slow: Mutex<VecDeque<TraceSpan>>,
}

impl TraceRing {
    /// A ring tagged with the node and lane it belongs to; captured spans
    /// carry the tags so the cluster aggregator can attribute them. Its
    /// slow-op threshold is `HERMES_SLOW_OP_US`, else
    /// [`DEFAULT_SLOW_OP_US`].
    pub fn labeled(owner: impl Into<String>, node: u32, lane: u32) -> Self {
        let threshold = std::env::var("HERMES_SLOW_OP_US")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(DEFAULT_SLOW_OP_US);
        TraceRing {
            owner: owner.into(),
            node,
            lane,
            created: Instant::now(),
            threshold_us: AtomicU64::new(threshold),
            slow_total: AtomicU64::new(0),
            emit_window_s: AtomicU64::new(u64::MAX),
            emit_in_window: AtomicU64::new(0),
            emit_suppressed: AtomicU64::new(0),
            slow: Mutex::new(VecDeque::with_capacity(8)),
        }
    }

    /// Overrides the slow-op threshold (tests force it to 0 to capture
    /// everything).
    pub fn set_threshold_us(&self, us: u64) {
        self.threshold_us.store(us, Ordering::Relaxed);
    }

    /// Completes a span: if it exceeded the threshold — or carries a
    /// sampled trace id, which must reach the cluster aggregator however
    /// fast the local work was — capture its phase breakdown (the `label`
    /// closure is only invoked for captured ops). Only threshold
    /// exceedances are warn-logged, through a per-ring rate limit; the
    /// ring itself captures everything that qualifies. Returns the span's
    /// total duration in microseconds.
    pub fn complete(&self, span: &Span, label: impl FnOnce() -> String) -> u64 {
        let total_us = span.elapsed_us();
        let slow = total_us >= self.threshold_us.load(Ordering::Relaxed);
        if slow || span.trace().is_sampled() {
            self.capture(span, total_us, label(), slow);
        }
        total_us
    }

    fn capture(&self, span: &Span, total_us: u64, label: String, slow: bool) {
        if slow {
            self.slow_total.fetch_add(1, Ordering::Relaxed);
        }
        let report = TraceSpan {
            trace: span.trace().0,
            node: self.node,
            lane: self.lane,
            start_unix_us: span.start_unix_us(),
            total_us,
            label: format!("{} {}", self.owner, label),
            phases: span
                .marks()
                .iter()
                .map(|&(p, at)| (p.name().to_string(), at))
                .collect(),
        };
        if slow {
            self.emit_rate_limited(&report);
        }
        let mut ring = self.slow.lock().expect("trace ring lock");
        if ring.len() >= SLOW_RING_CAP {
            ring.pop_front();
        }
        ring.push_back(report);
    }

    /// Emits the slow-op warn line unless this ring already emitted
    /// [`SLOW_WARNS_PER_SEC`] lines in the current one-second window;
    /// suppressed lines are counted and acknowledged on the next line
    /// that makes it out. Window bookkeeping races are benign — at worst
    /// a couple of extra lines slip through at a boundary.
    fn emit_rate_limited(&self, report: &TraceSpan) {
        let now_s = self.created.elapsed().as_secs();
        if self.emit_window_s.swap(now_s, Ordering::Relaxed) != now_s {
            self.emit_in_window.store(0, Ordering::Relaxed);
        }
        if self.emit_in_window.fetch_add(1, Ordering::Relaxed) >= SLOW_WARNS_PER_SEC {
            self.emit_suppressed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let suppressed = self.emit_suppressed.swap(0, Ordering::Relaxed);
        if suppressed > 0 {
            crate::log::emit(
                crate::log::Level::Warn,
                "obs::trace",
                format_args!(
                    "{} ({suppressed} slow-op lines suppressed)",
                    slow_line(report)
                ),
            );
        } else {
            crate::log::emit(
                crate::log::Level::Warn,
                "obs::trace",
                format_args!("{}", slow_line(report)),
            );
        }
    }

    /// Total slow ops captured since startup (monotonic; the ring itself
    /// is bounded).
    pub fn slow_total(&self) -> u64 {
        self.slow_total.load(Ordering::Relaxed)
    }

    /// Drains the retained [`TraceSpan`] records, oldest first — the
    /// Traces RPC consumes captures so each scrape sees every span exactly
    /// once.
    pub fn drain_spans(&self) -> Vec<TraceSpan> {
        self.slow
            .lock()
            .expect("trace ring lock")
            .drain(..)
            .collect()
    }
}

/// A slow op's warn line: `slow-op <label> total=NNNus [phase+0us phase+12us ...]`.
fn slow_line(span: &TraceSpan) -> String {
    use std::fmt::Write as _;
    let mut out = format!("slow-op {} total={}us [", span.label, span.total_us);
    for (i, (name, at)) in span.phases.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{name}+{at}us");
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_ops_are_not_captured() {
        let ring = TraceRing::labeled("lane0", 0, 0);
        ring.set_threshold_us(u64::MAX);
        let mut span = Span::begin(Phase::Issued);
        span.mark(Phase::Committed);
        ring.complete(&span, || unreachable!("label built for a fast op"));
        assert_eq!(ring.slow_total(), 0);
        assert!(ring.drain_spans().is_empty());
    }

    #[test]
    fn threshold_zero_captures_phase_breakdown() {
        let _quiet = crate::log::Capture::start();
        let ring = TraceRing::labeled("lane1", 0, 1);
        ring.set_threshold_us(0);
        let mut span = Span::begin(Phase::Issued);
        span.mark(Phase::InvalBroadcast);
        span.mark(Phase::AcksCollected);
        span.mark(Phase::Committed);
        span.mark(Phase::ReplyReleased);
        ring.complete(&span, || "write key=7".into());
        assert_eq!(ring.slow_total(), 1);
        let ops = ring.drain_spans();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].phases.len(), 5);
        assert!(ops[0].label.contains("lane1"));
        let line = slow_line(&ops[0]);
        assert!(line.contains("issued+0us"), "{line}");
        assert!(line.contains("reply_released+"), "{line}");
    }

    #[test]
    fn ring_is_bounded() {
        let _quiet = crate::log::Capture::start();
        let ring = TraceRing::labeled("lane2", 0, 2);
        ring.set_threshold_us(0);
        for i in 0..(SLOW_RING_CAP + 10) {
            let span = Span::begin(Phase::Issued);
            ring.complete(&span, || format!("op {i}"));
        }
        assert_eq!(ring.slow_total() as usize, SLOW_RING_CAP + 10);
        let ops = ring.drain_spans();
        assert_eq!(ops.len(), SLOW_RING_CAP);
        // Oldest evicted: the first retained is op 10.
        assert!(ops[0].label.contains("op 10"), "{}", ops[0].label);
    }

    #[test]
    fn sampling_period_semantics() {
        assert_eq!(period_for_rate(0.0), 0);
        assert_eq!(period_for_rate(-1.0), 0);
        assert_eq!(period_for_rate(f64::NAN), 0);
        assert_eq!(period_for_rate(1.0), 1);
        assert_eq!(period_for_rate(2.0), 1);
        assert_eq!(period_for_rate(0.01), 100);
        assert_eq!(period_for_rate(0.5), 2);
    }

    #[test]
    fn minted_ids_are_sampled_and_distinct() {
        set_trace_sample(1.0);
        let a = maybe_trace();
        let b = maybe_trace();
        set_trace_sample(0.0);
        assert!(a.is_sampled() && b.is_sampled());
        assert_ne!(a, b);
        assert_eq!(maybe_trace(), TraceId::NONE, "rate 0 must mint nothing");
    }

    #[test]
    fn sampled_span_is_captured_below_threshold() {
        let _quiet = crate::log::Capture::start();
        let ring = TraceRing::labeled("lane0", 3, 1);
        ring.set_threshold_us(u64::MAX);
        let mut span = Span::begin_traced(Phase::InvIngress, TraceId(0xabcd));
        span.mark(Phase::LocalApply);
        ring.complete(&span, || "inv key=9".into());
        // Not slow: no warn bookkeeping — but the sampled span is retained.
        assert_eq!(ring.slow_total(), 0);
        let spans = ring.drain_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].trace, 0xabcd);
        assert_eq!(spans[0].node, 3);
        assert_eq!(spans[0].lane, 1);
        assert!(
            spans[0].start_unix_us > 0,
            "sampled span needs a wall anchor"
        );
        assert_eq!(spans[0].phases[0].0, "inv_ingress");
        assert_eq!(spans[0].phases[1].0, "local_apply");
        assert!(ring.drain_spans().is_empty(), "drain consumes");
    }

    #[test]
    fn warn_emission_is_rate_limited_but_ring_captures_all() {
        let capture = crate::log::Capture::start();
        let ring = TraceRing::labeled("lane9", 0, 9);
        ring.set_threshold_us(0);
        const N: usize = 200;
        for i in 0..N {
            let span = Span::begin(Phase::Issued);
            ring.complete(&span, || format!("op {i}"));
        }
        assert_eq!(ring.slow_total() as usize, N, "every op counted as slow");
        let lines = capture
            .take()
            .iter()
            .filter(|e| e.target == "obs::trace")
            .count() as u64;
        assert!(lines >= 1, "rate limit must not silence everything");
        // The loop spans well under a second; allow one window rollover.
        assert!(
            lines <= 2 * SLOW_WARNS_PER_SEC,
            "{lines} warn lines emitted for {N} slow ops"
        );
    }

    #[test]
    fn marks_are_monotonic_offsets() {
        let mut span = Span::begin(Phase::Issued);
        std::thread::sleep(std::time::Duration::from_millis(1));
        span.mark(Phase::Committed);
        let marks = span.marks();
        assert_eq!(marks[0], (Phase::Issued, 0));
        assert!(marks[1].1 >= 1_000, "second mark {}us", marks[1].1);
    }
}
