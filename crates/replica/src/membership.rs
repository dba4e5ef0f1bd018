//! Observable membership state of a running replica.
//!
//! The live membership subsystem (DESIGN.md §5) runs the membership agent
//! ([`RmNode`](hermes_membership::RmNode)) on lane 0 of each node, stepped
//! with that lane's clock; [`MembershipStatus`] is the lock-free window
//! into it shared with every worker lane (the serving gate checked per
//! client operation), with runtimes' public accessors
//! ([`ThreadCluster::membership`](crate::ThreadCluster::membership),
//! [`NodeRuntime::membership`](crate::NodeRuntime::membership)) and
//! through them with operators and tests.

use hermes_common::{MembershipView, NodeId, NodeSet};
use hermes_obs::Registry;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Lock-free gauges describing one replica's live membership state.
///
/// Written by lane 0's membership agent, read by every worker lane
/// (one atomic load per client operation) and by observers. On runtimes
/// without the membership subsystem the status is static: the initial
/// view, serving forever.
#[derive(Debug)]
pub struct MembershipStatus {
    /// Whether this replica may serve client operations right now: full
    /// member of the current view holding a valid lease (paper §3.4).
    serving: AtomicBool,
    /// Epoch of the currently installed view.
    epoch: AtomicU64,
    /// How many reconfigured views have been installed since start.
    view_changes: AtomicU64,
    /// Current members, as a [`NodeSet`] bitmap.
    members: AtomicU64,
    /// Current shadows, as a [`NodeSet`] bitmap.
    shadows: AtomicU64,
    /// Whether shadow bulk catch-up completed (true when never needed).
    synced: AtomicBool,
}

impl MembershipStatus {
    pub(crate) fn new(view: MembershipView, serving: bool, synced: bool) -> Self {
        MembershipStatus {
            serving: AtomicBool::new(serving),
            epoch: AtomicU64::new(view.epoch.0),
            view_changes: AtomicU64::new(0),
            members: AtomicU64::new(view.members.bits()),
            shadows: AtomicU64::new(view.shadows.bits()),
            synced: AtomicBool::new(synced),
        }
    }

    /// Whether this replica currently serves client operations. Workers
    /// answer [`Reply::NotOperational`](hermes_common::Reply) without
    /// touching the protocol when this is false (expired lease, minority
    /// partition, shadow still catching up).
    pub fn serving(&self) -> bool {
        self.serving.load(Ordering::Relaxed)
    }

    /// Epoch of the currently installed membership view.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Number of reconfigured views installed since the replica started.
    pub fn view_changes(&self) -> u64 {
        self.view_changes.load(Ordering::Relaxed)
    }

    /// Members of the currently installed view.
    pub fn members(&self) -> NodeSet {
        NodeSet::from_bits(self.members.load(Ordering::Relaxed))
    }

    /// Shadows of the currently installed view.
    pub fn shadows(&self) -> NodeSet {
        NodeSet::from_bits(self.shadows.load(Ordering::Relaxed))
    }

    /// Whether shadow bulk catch-up has completed (trivially true for
    /// replicas that never joined as a shadow).
    pub fn synced(&self) -> bool {
        self.synced.load(Ordering::Relaxed)
    }

    pub(crate) fn set_serving(&self, serving: bool) {
        self.serving.store(serving, Ordering::Relaxed);
    }

    pub(crate) fn set_synced(&self, synced: bool) {
        self.synced.store(synced, Ordering::Relaxed);
    }

    pub(crate) fn record_view(&self, view: MembershipView) {
        self.epoch.store(view.epoch.0, Ordering::Relaxed);
        self.members.store(view.members.bits(), Ordering::Relaxed);
        self.shadows.store(view.shadows.bits(), Ordering::Relaxed);
        self.view_changes.fetch_add(1, Ordering::Relaxed);
    }
}

/// How one of [`register`]'s rows reads the status.
type Read<T> = fn(&MembershipStatus) -> T;

/// Registers `status` into a node's registry, read live at each render:
/// the installed view and serving state, plus one 0/1 member and one 0/1
/// shadow row per node id of a `peers`-node deployment (paper §3.4) —
/// exact, where a node set rendered as one f64 would not be.
pub(crate) fn register(r: &Registry, status: &Arc<MembershipStatus>, peers: usize) {
    let s = Arc::clone(status);
    r.counter_fn(
        "hermes_view_changes_total",
        "Reconfigured views installed since start.",
        vec![],
        move || s.view_changes(),
    );
    let gauges: [(_, _, Read<u64>); 3] = [
        (
            "hermes_view_epoch",
            "Epoch of the installed membership view.",
            MembershipStatus::epoch,
        ),
        (
            "hermes_serving",
            "Whether this replica serves client operations (0/1).",
            |s| s.serving() as u64,
        ),
        (
            "hermes_synced",
            "Whether shadow catch-up completed (0/1).",
            |s| s.synced() as u64,
        ),
    ];
    for (name, help, read) in gauges {
        let s = Arc::clone(status);
        r.gauge_fn(name, help, vec![], move || read(&s));
    }
    let sets: [(_, _, Read<NodeSet>); 2] = [
        (
            "hermes_view_member",
            "Whether the peer is a member of the installed view (0/1).",
            MembershipStatus::members,
        ),
        (
            "hermes_view_shadow",
            "Whether the peer is a shadow of the installed view (0/1).",
            MembershipStatus::shadows,
        ),
    ];
    for (name, help, set) in sets {
        for peer in 0..peers as u32 {
            let s = Arc::clone(status);
            let labels = vec![("peer", peer.to_string())];
            r.gauge_fn(name, help, labels, move || {
                set(&s).contains(NodeId(peer)) as u64
            });
        }
    }
}

/// The view a node's shard engines (and membership agent) boot under:
/// joiners start outside the group — not a member, not a shadow — so they
/// refuse client operations and drop data-plane traffic until admitted.
pub(crate) fn boot_view(view: MembershipView, me: NodeId, join: bool) -> MembershipView {
    if !join {
        return view;
    }
    MembershipView {
        epoch: view.epoch,
        members: view.members.without(me),
        shadows: view.shadows.without(me),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_common::Epoch;

    #[test]
    fn status_tracks_view_installs() {
        let v0 = MembershipView::initial(3);
        let status = MembershipStatus::new(v0, true, true);
        assert!(status.serving());
        assert_eq!(status.epoch(), 0);
        assert_eq!(status.view_changes(), 0);
        assert_eq!(status.members().len(), 3);

        let v1 = v0.without_node(NodeId(2));
        status.record_view(v1);
        assert_eq!(status.epoch(), 1);
        assert_eq!(status.view_changes(), 1);
        assert!(!status.members().contains(NodeId(2)));

        status.set_serving(false);
        assert!(!status.serving());
    }

    #[test]
    fn boot_view_strips_a_joiner_from_the_group() {
        let v = MembershipView::initial(3);
        let joined = boot_view(v, NodeId(2), true);
        assert_eq!(joined.epoch, Epoch(0));
        assert!(!joined.members.contains(NodeId(2)));
        assert_eq!(joined.members.len(), 2);
        // Non-joiners boot under the view unchanged.
        assert_eq!(boot_view(v, NodeId(2), false), v);
    }
}
