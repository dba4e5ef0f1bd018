//! Runtime observability state shared across the threaded node, its
//! client plane, and the metrics exposition.
//!
//! [`NodeObs`] is one `Arc` created by `Node::spawn` and threaded through
//! every layer: worker lanes record op counts, op latencies, cache-push
//! gauges and protocol-phase counters into it, the pump records peer
//! disconnects, view-change outages and sync catch-up throughput, and the
//! client-plane pollers record their open sessions, accepts and accept
//! stalls, and decode / write-drain / credit-stall timings.
//! `NodeRuntime::serve` registers all of it into a
//! [`hermes_obs::Registry`] whose rendering backs the `Metrics` client
//! RPC and `hermesd --metrics-dump` — the one way a replica reports on
//! itself.
//!
//! No replica coordinates a transaction (`crate::ClientSession::txn` runs
//! where its session lives), so the exposition counts none: a caller reads
//! each transaction's outcome from its `TxnResult`.

use hermes_obs::{Histogram, TraceRing, TraceSpan};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-node observability state. Cheap to record into from any thread;
/// rendered on demand by the metrics exposition.
#[derive(Debug)]
pub(crate) struct NodeObs {
    /// Client operations handled per worker lane — the gauge that shows
    /// multi-key transactions fanning their sub-operations across lanes.
    pub(crate) lane_ops: Vec<AtomicU64>,
    /// Peer messages handled per worker lane, each read by the lane itself
    /// off its own links.
    pub(crate) lane_ingress: Vec<AtomicU64>,
    /// Keys each lane's engine holds an entry for: the keys with work in
    /// flight (an idle key lives only in its mirror slot).
    pub(crate) resident_keys: Vec<AtomicU64>,
    /// Peer connections the transport observed dying.
    pub(crate) peer_downs: AtomicU64,
    /// Live (key, client) cache subscriptions across all lanes.
    pub(crate) subscriptions: AtomicU64,
    /// Push events sent to clients since start.
    pub(crate) pushes: AtomicU64,
    /// Per-lane client-op latency (us), recorded at reply release.
    pub(crate) lane_latency: Vec<Arc<Histogram>>,
    /// Per-lane slow-op trace rings.
    pub(crate) lane_traces: Vec<TraceRing>,
    /// Lane-0 pump ring: view changes and other membership slow paths.
    pub(crate) pump_trace: TraceRing,
    /// Invalidation messages sent to peers (Inv broadcasts × fan-out).
    pub(crate) invals_sent: AtomicU64,
    /// Invalidation acks received from peers.
    pub(crate) invals_acked: AtomicU64,
    /// Validation messages sent to peers (Val broadcasts × fan-out).
    pub(crate) vals_sent: AtomicU64,
    /// Client-cache invalidation-push acks received from sessions.
    pub(crate) push_acks: AtomicU64,
    /// Replies released after their last outstanding cache-push ack.
    pub(crate) holds_released: AtomicU64,
    /// Completed view-change outages (serving → not serving → serving).
    pub(crate) view_outages: AtomicU64,
    /// View-change outage duration (us): how long the node was not
    /// serving — the paper's headline failover metric.
    pub(crate) view_change_us: Arc<Histogram>,
    /// Sync catch-up chunks installed while rejoining.
    pub(crate) sync_chunks: AtomicU64,
    /// Sync catch-up payload bytes installed.
    pub(crate) sync_bytes: AtomicU64,
    /// Remote sessions open per poller shard of the client plane (none
    /// without a plane).
    pub(crate) shard_sessions: Vec<AtomicU64>,
    /// Client connections accepted by the plane.
    pub(crate) accepts: AtomicU64,
    /// Times the plane's listener paused because open sessions neared the
    /// process fd limit.
    pub(crate) accept_stalls: AtomicU64,
    /// Sessions whose read interest was parked on credit exhaustion.
    pub(crate) read_parks: AtomicU64,
    /// Client reads a poller answered from the seqlock mirror, no lane
    /// involved (DESIGN.md §7).
    pub(crate) mirror_reads: AtomicU64,
    /// Client reads a poller queued at a lane instead: key not `Valid`,
    /// replica not serving, or the session's own update of the key still
    /// in flight.
    pub(crate) mirror_read_fallbacks: AtomicU64,
    /// Poller time spent decoding + applying one session's readable burst (us).
    pub(crate) poller_decode_us: Arc<Histogram>,
    /// Poller time spent draining one session's write buffer (us).
    pub(crate) poller_write_us: Arc<Histogram>,
    /// How long a session's read interest stayed parked awaiting credit (us).
    pub(crate) credit_stall_us: Arc<Histogram>,
}

impl NodeObs {
    pub(crate) fn new(node: usize, lanes: usize, shards: usize) -> Self {
        NodeObs {
            lane_ops: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
            lane_ingress: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
            resident_keys: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
            peer_downs: AtomicU64::new(0),
            subscriptions: AtomicU64::new(0),
            pushes: AtomicU64::new(0),
            lane_latency: (0..lanes).map(|_| Arc::new(Histogram::new())).collect(),
            lane_traces: (0..lanes)
                .map(|l| TraceRing::labeled(format!("n{node}/lane{l}"), node as u32, l as u32))
                .collect(),
            pump_trace: TraceRing::labeled(format!("n{node}/pump"), node as u32, u32::MAX),
            invals_sent: AtomicU64::new(0),
            invals_acked: AtomicU64::new(0),
            vals_sent: AtomicU64::new(0),
            push_acks: AtomicU64::new(0),
            holds_released: AtomicU64::new(0),
            view_outages: AtomicU64::new(0),
            view_change_us: Arc::new(Histogram::new()),
            sync_chunks: AtomicU64::new(0),
            sync_bytes: AtomicU64::new(0),
            shard_sessions: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            accepts: AtomicU64::new(0),
            accept_stalls: AtomicU64::new(0),
            read_parks: AtomicU64::new(0),
            mirror_reads: AtomicU64::new(0),
            mirror_read_fallbacks: AtomicU64::new(0),
            poller_decode_us: Arc::new(Histogram::new()),
            poller_write_us: Arc::new(Histogram::new()),
            credit_stall_us: Arc::new(Histogram::new()),
        }
    }

    #[inline]
    pub(crate) fn bump(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// A snapshot of one per-lane counter vector.
    pub(crate) fn per_lane(counters: &[AtomicU64]) -> Vec<u64> {
        counters.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Remote sessions open across all poller shards.
    pub(crate) fn open_sessions(&self) -> u64 {
        self.shard_sessions
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Drains every captured trace span (slow ops and sampled ops) from
    /// all worker lanes' rings plus the pump's, in lane order. Each span
    /// is returned exactly once across every caller.
    pub(crate) fn drain_spans(&self) -> Vec<TraceSpan> {
        let mut spans = Vec::new();
        for ring in &self.lane_traces {
            spans.extend(ring.drain_spans());
        }
        spans.extend(self.pump_trace.drain_spans());
        spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_obs_shapes_match_lanes() {
        let obs = NodeObs::new(1, 3, 2);
        assert_eq!(obs.lane_latency.len(), 3);
        assert_eq!(obs.lane_traces.len(), 3);
        assert_eq!(NodeObs::per_lane(&obs.lane_ops), vec![0, 0, 0]);
        NodeObs::bump(&obs.shard_sessions[1], 2);
        assert_eq!(obs.open_sessions(), 2);
        NodeObs::bump(&obs.invals_sent, 4);
        assert_eq!(obs.invals_sent.load(Ordering::Relaxed), 4);
    }
}
