//! Protocol-facing types shared by Hermes and the baseline protocols.
//!
//! Every protocol core in this workspace (Hermes, rZAB, rCRAQ, CR, ABD,
//! lock-step SMR) is written *sans-io*: a deterministic state machine that
//! consumes client operations, peer messages and timer events, and produces
//! [`Effect`]s. The surrounding runtime (simulated or threaded) interprets
//! the effects. This module defines the shared vocabulary: [`ClientOp`],
//! [`Reply`], [`Effect`] and [`MembershipView`].

use crate::{Epoch, Key, NodeId, NodeSet, OpId, Value};

/// A client operation submitted to a replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientOp {
    /// Read the current value of a key.
    Read,
    /// Write a new value to a key. In Hermes, writes never abort.
    Write(Value),
    /// Read-modify-write (single-key transaction, paper §3.6). May abort
    /// under conflicts in Hermes; not all baselines support RMWs.
    Rmw(RmwOp),
}

impl ClientOp {
    /// Whether this operation updates the key (write or RMW).
    pub fn is_update(&self) -> bool {
        !matches!(self, ClientOp::Read)
    }
}

/// The modification applied by a read-modify-write.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RmwOp {
    /// Install `new` iff the current value equals `expect`
    /// (compare-and-swap, the lock-service primitive from the paper's intro).
    CompareAndSwap {
        /// Value the key must currently hold.
        expect: Value,
        /// Value to install on match.
        new: Value,
    },
    /// Interpret the value as a little-endian `u64` (empty reads as 0) and
    /// add `delta` to it.
    FetchAdd {
        /// Amount to add.
        delta: u64,
    },
}

impl RmwOp {
    /// Computes the new value this RMW would install over `current`.
    ///
    /// Returns `None` when the RMW is a no-op (CAS expectation mismatch), in
    /// which case no update is performed and the caller reports the current
    /// value to the client.
    pub fn apply(&self, current: &Value) -> Option<Value> {
        match self {
            RmwOp::CompareAndSwap { expect, new } => {
                if current == expect {
                    Some(new.clone())
                } else {
                    None
                }
            }
            RmwOp::FetchAdd { delta } => {
                let base = current.to_u64().unwrap_or(0);
                Some(Value::from_u64(base.wrapping_add(*delta)))
            }
        }
    }
}

/// The completion of a client operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Read completed with the given value.
    ReadOk(Value),
    /// Write committed.
    WriteOk,
    /// RMW committed; carries the value the RMW observed (the old value).
    RmwOk {
        /// Value the key held when the RMW was applied.
        prior: Value,
    },
    /// A compare-and-swap found a non-matching current value; no update was
    /// performed. Semantically a linearizable read of `current`.
    CasFailed {
        /// The value actually held by the key.
        current: Value,
    },
    /// The RMW lost a conflict race and aborted (paper §3.6). Retry allowed.
    RmwAborted,
    /// The receiving replica is not operational (expired lease, minority
    /// partition, or shadow replica still catching up).
    NotOperational,
    /// This protocol does not implement the requested operation (e.g. RMWs
    /// on chain replication baselines), or a replica cannot store its value
    /// (16 MiB or longer).
    Unsupported,
}

impl Reply {
    /// Whether the operation took effect (committed or read successfully).
    pub fn is_ok(&self) -> bool {
        matches!(
            self,
            Reply::ReadOk(_) | Reply::WriteOk | Reply::RmwOk { .. } | Reply::CasFailed { .. }
        )
    }
}

/// An action requested by a protocol core, to be carried out by the runtime.
///
/// `M` is the protocol's message type. Timer effects are keyed by [`Key`]:
/// each key has at most one outstanding *message-loss timeout* (Hermes' mlt,
/// §3.4); runtimes map the key to whatever timer facility they have.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Effect<M> {
    /// Send `msg` to one peer.
    Send {
        /// Destination replica.
        to: NodeId,
        /// Message to deliver.
        msg: M,
    },
    /// Send `msg` to every live member of the current view except self.
    Broadcast {
        /// Message to deliver to each peer.
        msg: M,
    },
    /// Complete a client operation.
    Reply {
        /// The operation being completed.
        op: OpId,
        /// Its result.
        reply: Reply,
    },
    /// Arm (or re-arm) the message-loss timer for `key`.
    ArmTimer {
        /// Key whose timer to arm.
        key: Key,
    },
    /// Disarm the message-loss timer for `key` (no-op if not armed).
    DisarmTimer {
        /// Key whose timer to cancel.
        key: Key,
    },
}

/// A replica-group membership configuration (paper §2.4).
///
/// Produced by the reliable-membership service on every reconfiguration
/// (*m-update*) and installed into protocol cores. `members` serve client
/// requests and acknowledge writes; `shadows` are joining replicas that
/// acknowledge writes but do not serve clients (paper §3.4, *Recovery*).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MembershipView {
    /// The epoch this configuration belongs to; messages from other epochs
    /// are dropped.
    pub epoch: Epoch,
    /// Operational replicas (serve reads/writes, acknowledge writes).
    pub members: NodeSet,
    /// Shadow replicas: participate as followers in writes but serve no
    /// client requests until they finish reconstructing the dataset.
    pub shadows: NodeSet,
}

impl MembershipView {
    /// The initial view: epoch 0, nodes `0..n` all full members.
    pub fn initial(n: usize) -> Self {
        MembershipView {
            epoch: Epoch(0),
            members: NodeSet::first_n(n),
            shadows: NodeSet::EMPTY,
        }
    }

    /// All nodes that must acknowledge a write: members plus shadows.
    pub fn ack_set(&self) -> NodeSet {
        self.members.union(self.shadows)
    }

    /// All nodes a write coordinator at `me` must broadcast to.
    pub fn broadcast_set(&self, me: NodeId) -> NodeSet {
        self.ack_set().without(me)
    }

    /// Whether `node` may serve client requests in this view.
    pub fn is_serving(&self, node: NodeId) -> bool {
        self.members.contains(node)
    }

    /// A copy of this view with `node` removed (crashed), epoch bumped.
    #[must_use]
    pub fn without_node(&self, node: NodeId) -> Self {
        MembershipView {
            epoch: self.epoch.next(),
            members: self.members.without(node),
            shadows: self.shadows.without(node),
        }
    }

    /// A copy of this view with `node` added as a shadow, epoch bumped.
    #[must_use]
    pub fn with_shadow(&self, node: NodeId) -> Self {
        let mut shadows = self.shadows;
        shadows.insert(node);
        MembershipView {
            epoch: self.epoch.next(),
            members: self.members,
            shadows,
        }
    }

    /// A copy of this view with shadow `node` promoted to full member,
    /// epoch bumped.
    #[must_use]
    pub fn with_promoted(&self, node: NodeId) -> Self {
        let mut members = self.members;
        members.insert(node);
        MembershipView {
            epoch: self.epoch.next(),
            members,
            shadows: self.shadows.without(node),
        }
    }
}

/// Qualitative feature profile of a replication protocol — the rows of the
/// paper's Table 2. Each protocol core reports its own profile so the
/// Table 2 bench derives the comparison from code, not prose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Capabilities {
    /// Protocol name as used in the paper's evaluation.
    pub name: &'static str,
    /// Are linearizable/SC reads served locally at every replica?
    pub local_reads: bool,
    /// Lease requirements ("one per RM", "none", "one per key", ...).
    pub leases: &'static str,
    /// Consistency level ("Lin" or "SC").
    pub consistency: &'static str,
    /// Write concurrency ("inter-key", "serializes all").
    pub write_concurrency: &'static str,
    /// Common-case write latency in round-trips ("1", "2", "O(n)", ...).
    pub write_latency_rtts: &'static str,
    /// Can any replica initiate and drive a write (no fixed leader/chain)?
    pub decentralized_writes: bool,
}

/// A replication-protocol replica as a deterministic state machine.
///
/// Hermes and every baseline (rZAB, rCRAQ, CR, ABD, lock-step SMR) implement
/// this trait, so the simulated and threaded cluster runtimes, the benchmark
/// harness and the model checker can drive any of them interchangeably —
/// the paper's "same KVS and communication library, isolate the protocol"
/// methodology (§5.1).
pub trait ReplicaProtocol {
    /// The protocol's wire message type.
    type Msg: Clone + core::fmt::Debug;

    /// This replica's id.
    fn node_id(&self) -> NodeId;

    /// Handles a client operation submitted to this replica.
    fn on_client_op(&mut self, op: OpId, key: Key, cop: ClientOp, fx: &mut Vec<Effect<Self::Msg>>);

    /// Handles a message from peer `from`.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, fx: &mut Vec<Effect<Self::Msg>>);

    /// Handles the expiry of the per-key retransmission/replay timer.
    /// Protocols without per-key timers ignore this.
    fn on_timer(&mut self, key: Key, fx: &mut Vec<Effect<Self::Msg>>) {
        let _ = (key, fx);
    }

    /// Installs a reconfigured membership view. Protocols that do not
    /// support online reconfiguration ignore this.
    fn on_membership_update(&mut self, view: MembershipView, fx: &mut Vec<Effect<Self::Msg>>) {
        let _ = (view, fx);
    }

    /// Approximate wire size of `msg` in bytes (drives the simulator's
    /// bandwidth model).
    fn msg_wire_size(msg: &Self::Msg) -> usize;

    /// Whether handling `msg` at this replica must run through the
    /// replica's single serialization lane instead of any worker.
    ///
    /// Protocols that totally order writes (ZAB's leader, lock-step SMR
    /// rounds) have an ordering step that cannot be parallelized across
    /// workers — the very property the paper contrasts with Hermes'
    /// inter-key concurrency (§2.3, §5.1.1). Only the simulator's cost
    /// model (`hermes-replica`'s `run_sim`) asks; the real runtime hosts
    /// Hermes alone and routes every message to the lane owning its key.
    /// Default: fully parallel.
    fn msg_serializes(&self, msg: &Self::Msg) -> bool {
        let _ = msg;
        false
    }

    /// Whether a client *update* submitted at this replica must run through
    /// the serialization lane (see [`ReplicaProtocol::msg_serializes`]).
    fn update_serializes(&self) -> bool {
        false
    }

    /// The protocol's qualitative feature profile (paper Table 2).
    fn capabilities() -> Capabilities;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmw_cas_applies_only_on_match() {
        let cas = RmwOp::CompareAndSwap {
            expect: Value::from_u64(1),
            new: Value::from_u64(2),
        };
        assert_eq!(cas.apply(&Value::from_u64(1)), Some(Value::from_u64(2)));
        assert_eq!(cas.apply(&Value::from_u64(9)), None);
    }

    #[test]
    fn rmw_fetch_add_treats_empty_as_zero() {
        let fa = RmwOp::FetchAdd { delta: 5 };
        assert_eq!(fa.apply(&Value::EMPTY), Some(Value::from_u64(5)));
        assert_eq!(fa.apply(&Value::from_u64(10)), Some(Value::from_u64(15)));
    }

    #[test]
    fn fetch_add_wraps() {
        let fa = RmwOp::FetchAdd { delta: 2 };
        assert_eq!(
            fa.apply(&Value::from_u64(u64::MAX)),
            Some(Value::from_u64(1))
        );
    }

    #[test]
    fn reply_ok_classification() {
        assert!(Reply::ReadOk(Value::EMPTY).is_ok());
        assert!(Reply::WriteOk.is_ok());
        assert!(Reply::RmwOk {
            prior: Value::EMPTY
        }
        .is_ok());
        assert!(Reply::CasFailed {
            current: Value::EMPTY
        }
        .is_ok());
        assert!(!Reply::RmwAborted.is_ok());
        assert!(!Reply::NotOperational.is_ok());
        assert!(!Reply::Unsupported.is_ok());
    }

    #[test]
    fn client_op_update_classification() {
        assert!(!ClientOp::Read.is_update());
        assert!(ClientOp::Write(Value::EMPTY).is_update());
        assert!(ClientOp::Rmw(RmwOp::FetchAdd { delta: 1 }).is_update());
    }

    #[test]
    fn initial_view_has_all_members() {
        let v = MembershipView::initial(5);
        assert_eq!(v.epoch, Epoch(0));
        assert_eq!(v.members.len(), 5);
        assert!(v.shadows.is_empty());
        assert_eq!(v.ack_set().len(), 5);
        assert_eq!(v.broadcast_set(NodeId(0)).len(), 4);
        assert!(v.is_serving(NodeId(4)));
        assert!(!v.is_serving(NodeId(5)));
    }

    #[test]
    fn reconfiguration_bumps_epochs() {
        let v0 = MembershipView::initial(3);
        let v1 = v0.without_node(NodeId(2));
        assert_eq!(v1.epoch, Epoch(1));
        assert_eq!(v1.members.len(), 2);
        let v2 = v1.with_shadow(NodeId(3));
        assert_eq!(v2.epoch, Epoch(2));
        assert!(v2.shadows.contains(NodeId(3)));
        assert!(!v2.is_serving(NodeId(3)));
        assert!(v2.ack_set().contains(NodeId(3)));
        let v3 = v2.with_promoted(NodeId(3));
        assert!(v3.is_serving(NodeId(3)));
        assert!(v3.shadows.is_empty());
        assert_eq!(v3.epoch, Epoch(3));
    }
}
