//! Runtime observability state shared across the threaded node, its
//! client plane, and the metrics exposition.
//!
//! [`NodeObs`] is one `Arc` created by `Node::spawn` and threaded through
//! every layer: worker lanes record op counts, op latencies, cache-push
//! gauges and protocol-phase counters into it, the pump records peer
//! disconnects, view-change outages and sync catch-up throughput, and the
//! client-plane pollers record their open sessions, accepts and accept
//! stalls, and decode / write-drain / credit-stall timings.
//!
//! `NodeObs` owns the node's [`hermes_obs::Registry`] (base label
//! `node="<id>"`) and registers each counter, gauge and histogram as it
//! creates it, so every field *is* its exported metric: its name and help
//! are written once, below. `Node::spawn` adds the membership rows
//! (`membership::register`) and the mirror's size
//! ([`NodeObs::register_store`]), and `NodeRuntime::serve` the
//! transport's. The registry's rendering backs the `Metrics` client RPC,
//! `hermesd --metrics-dump` and `ThreadCluster::metrics_text` — the one
//! way a replica reports on itself, in either deployment shape.
//!
//! No replica coordinates a transaction (`crate::ClientSession::txn` runs
//! where its session lives), so the exposition counts none: a caller reads
//! each transaction's outcome from its `TxnResult`.

use hermes_obs::{Counter, Gauge, Histogram, Registry, TraceRing, TraceSpan};
use hermes_store::Store;
use std::sync::Arc;

/// Per-node observability state. Cheap to record into from any thread;
/// rendered on demand by the metrics exposition.
#[derive(Debug)]
pub(crate) struct NodeObs {
    /// The node's metrics registry: every field below that is a metric is
    /// registered in it.
    pub(crate) registry: Registry,
    /// Client operations handled per worker lane — the gauge that shows
    /// multi-key transactions fanning their sub-operations across lanes.
    pub(crate) lane_ops: Vec<Counter>,
    /// Peer messages handled per worker lane, each read by the lane itself
    /// off its own links.
    pub(crate) lane_ingress: Vec<Counter>,
    /// Keys each lane's engine holds an entry for: the keys with work in
    /// flight (an idle key lives only in its mirror slot). Exported as
    /// their sum.
    pub(crate) resident_keys: Vec<Gauge>,
    /// Peer connections the transport observed dying (not exported: the
    /// daemon exports the transport's own count).
    pub(crate) peer_downs: Counter,
    /// Live (key, client) cache subscriptions across all lanes.
    pub(crate) subscriptions: Gauge,
    /// Push events sent to clients since start.
    pub(crate) pushes: Counter,
    /// Per-lane client-op latency (us), recorded at reply release.
    pub(crate) lane_latency: Vec<Arc<Histogram>>,
    /// Per-lane slow-op trace rings; each exports its slow-op count.
    pub(crate) lane_traces: Vec<Arc<TraceRing>>,
    /// Lane-0 pump ring: view changes and other membership slow paths.
    pub(crate) pump_trace: TraceRing,
    /// Invalidation messages sent to peers (Inv broadcasts × fan-out).
    pub(crate) invals_sent: Counter,
    /// Invalidation acks received from peers.
    pub(crate) invals_acked: Counter,
    /// Validation messages sent to peers (Val broadcasts × fan-out).
    pub(crate) vals_sent: Counter,
    /// Client-cache invalidation-push acks received from sessions.
    pub(crate) push_acks: Counter,
    /// Replies released after their last outstanding cache-push ack.
    pub(crate) holds_released: Counter,
    /// Completed view-change outages (serving → not serving → serving).
    pub(crate) view_outages: Counter,
    /// View-change outage duration (us): how long the node was not
    /// serving — the paper's headline failover metric.
    pub(crate) view_change_us: Arc<Histogram>,
    /// Sync catch-up chunks installed while rejoining.
    pub(crate) sync_chunks: Counter,
    /// Sync catch-up payload bytes installed.
    pub(crate) sync_bytes: Counter,
    /// Remote sessions open per poller shard of the client plane; exported
    /// per shard and as their sum. A node without a plane (a
    /// `ThreadCluster` replica) keeps one shard that never opens a session,
    /// so both deployment shapes export the same families.
    pub(crate) shard_sessions: Vec<Gauge>,
    /// Client connections accepted by the plane.
    pub(crate) accepts: Counter,
    /// Times the plane's listener paused because open sessions neared the
    /// process fd limit.
    pub(crate) accept_stalls: Counter,
    /// Sessions whose read interest was parked on credit exhaustion.
    pub(crate) read_parks: Counter,
    /// Client reads a session's channel answered from the seqlock mirror,
    /// no lane involved (DESIGN.md §7).
    pub(crate) mirror_reads: Counter,
    /// Client reads queued at a lane instead: key not `Valid`, replica not
    /// serving, or the session's own update of the key still in flight.
    pub(crate) mirror_read_fallbacks: Counter,
    /// Poller time spent decoding + applying one session's readable burst (us).
    pub(crate) poller_decode_us: Arc<Histogram>,
    /// Poller time spent draining one session's write buffer (us).
    pub(crate) poller_write_us: Arc<Histogram>,
    /// How long a session's read interest stayed parked awaiting credit (us).
    pub(crate) credit_stall_us: Arc<Histogram>,
}

impl NodeObs {
    /// Node `node`'s state for `lanes` worker lanes and `shards` poller
    /// shards, each metric registered as it is created.
    pub(crate) fn new(node: usize, lanes: usize, shards: usize) -> Self {
        let r = Registry::with_base_labels(vec![("node", node.to_string())]);
        let counter = |name, help| r.counter(name, help, vec![]);
        let histogram = |name, help| r.histogram(name, help, vec![]);
        let lane = |l: usize| vec![("lane", l.to_string())];
        let per_lane = |name, help| -> Vec<Counter> {
            (0..lanes).map(|l| r.counter(name, help, lane(l))).collect()
        };
        let resident_keys: Vec<Gauge> = (0..lanes).map(|_| Gauge::new()).collect();
        let shard_sessions: Vec<Gauge> = (0..shards.max(1))
            .map(|s| {
                let help = "Remote client sessions open per poller shard.";
                r.gauge(
                    "hermes_shard_sessions",
                    help,
                    vec![("shard", s.to_string())],
                )
            })
            .collect();
        let sums = [
            (
                "hermes_engine_resident_keys",
                "Keys the lanes' protocol engines hold: those with work in flight.",
                &resident_keys,
            ),
            (
                "hermes_open_sessions",
                "Remote client sessions currently open (the sum over poller shards).",
                &shard_sessions,
            ),
        ];
        for (name, help, gauges) in sums {
            let gauges = gauges.clone();
            r.gauge_fn(name, help, vec![], move || {
                gauges.iter().map(Gauge::get).sum()
            });
        }
        let lane_traces = (0..lanes).map(|l| {
            let ring = TraceRing::labeled(format!("n{node}/lane{l}"), node as u32, l as u32);
            let ring = Arc::new(ring);
            let slow = Arc::clone(&ring);
            let help = "Ops captured over the slow-op trace threshold per lane.";
            r.counter_fn("hermes_slow_ops_total", help, lane(l), move || {
                slow.slow_total()
            });
            ring
        });
        NodeObs {
            lane_ops: per_lane(
                "hermes_lane_ops_total",
                "Client operations handled per worker lane.",
            ),
            lane_ingress: per_lane(
                "hermes_lane_ingress_total",
                "Peer messages each worker lane read off its own links.",
            ),
            resident_keys,
            peer_downs: Counter::new(),
            subscriptions: r.gauge(
                "hermes_cache_subscriptions",
                "Live client push subscriptions across all worker lanes.",
                vec![],
            ),
            pushes: counter(
                "hermes_cache_pushes_total",
                "Push frames (invalidations, acks, flushes) sent to clients.",
            ),
            lane_latency: (0..lanes)
                .map(|l| {
                    let help = "Client-op latency per worker lane (us, issue to reply release).";
                    r.histogram("hermes_op_latency_us", help, lane(l))
                })
                .collect(),
            lane_traces: lane_traces.collect(),
            pump_trace: TraceRing::labeled(format!("n{node}/pump"), node as u32, u32::MAX),
            invals_sent: counter(
                "hermes_invalidations_sent_total",
                "Invalidation (INV) messages sent to peers.",
            ),
            invals_acked: counter(
                "hermes_invalidation_acks_total",
                "Invalidation acks (ACK) received from peers.",
            ),
            vals_sent: counter(
                "hermes_validations_sent_total",
                "Validation (VAL) messages sent to peers.",
            ),
            push_acks: counter(
                "hermes_cache_push_acks_total",
                "Client invalidation-push acks received.",
            ),
            holds_released: counter(
                "hermes_cache_holds_released_total",
                "Effects released after their guarding cache-push acks arrived.",
            ),
            view_outages: counter(
                "hermes_view_change_outages_total",
                "Completed serving outages (serving lost then restored).",
            ),
            view_change_us: histogram(
                "hermes_view_change_outage_us",
                "Not-serving window per view-change outage (us).",
            ),
            sync_chunks: counter(
                "hermes_sync_chunks_total",
                "Shadow catch-up chunks installed.",
            ),
            sync_bytes: counter(
                "hermes_sync_bytes_total",
                "Shadow catch-up payload bytes installed.",
            ),
            shard_sessions,
            accepts: counter("hermes_accepts_total", "Client connections accepted."),
            accept_stalls: counter(
                "hermes_accept_stalls_total",
                "Times the listener paused accepting near the fd budget.",
            ),
            read_parks: counter(
                "hermes_credit_parks_total",
                "Sessions whose read interest parked on credit exhaustion.",
            ),
            mirror_reads: counter(
                "hermes_mirror_reads_total",
                "Client reads a session's channel answered from the seqlock mirror, no lane involved.",
            ),
            mirror_read_fallbacks: counter(
                "hermes_mirror_read_fallbacks_total",
                "Client reads queued at a lane: key not Valid, not serving, or own update in flight.",
            ),
            poller_decode_us: histogram(
                "hermes_poller_decode_us",
                "Poller time decoding one session's readable burst (us).",
            ),
            poller_write_us: histogram(
                "hermes_poller_write_us",
                "Poller time draining one session's write buffer (us).",
            ),
            credit_stall_us: histogram(
                "hermes_credit_stall_us",
                "How long a session's read interest stayed parked for credit (us).",
            ),
            registry: r,
        }
    }

    /// Registers the size of the node's seqlock mirror, read at render
    /// time: its keys, and the heap its shards have reserved for them.
    pub(crate) fn register_store(&self, store: &Arc<Store>) {
        let (keys, bytes) = (Arc::clone(store), Arc::clone(store));
        let r = &self.registry;
        let help = "Keys the seqlock mirror holds.";
        r.gauge_fn("hermes_store_keys", help, vec![], move || keys.len() as u64);
        let help = "Heap bytes the seqlock mirror reserved: slot arenas and index entries.";
        r.gauge_fn("hermes_store_bytes", help, vec![], move || {
            bytes.footprint() as u64
        });
    }

    /// A snapshot of one per-lane counter vector.
    pub(crate) fn per_lane(counters: &[Counter]) -> Vec<u64> {
        counters.iter().map(Counter::get).collect()
    }

    /// Remote sessions open across all poller shards.
    pub(crate) fn open_sessions(&self) -> u64 {
        self.shard_sessions.iter().map(Gauge::get).sum()
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
        obs.shard_sessions[1].inc();
        obs.shard_sessions[1].inc();
        assert_eq!(obs.open_sessions(), 2);
        obs.invals_sent.add(4);
        assert_eq!(obs.invals_sent.get(), 4);
    }
}
