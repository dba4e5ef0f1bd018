use crate::{Ts, UpdateKind};
use hermes_common::{ClientOp, NodeId, NodeSet, OpId, Value};
use std::collections::VecDeque;

/// Protocol state of one key at one replica (paper §3.2).
///
/// Four stable states plus the transient `Trans`:
///
/// * `Valid` — the local value is the latest committed one; reads serve
///   locally.
/// * `Invalid` — an update is in flight; reads stall.
/// * `Write` — this replica coordinates an update to the key.
/// * `Replay` — this replica replays an update originally coordinated
///   elsewhere (fault handling, §3.4).
/// * `Trans` — this replica's in-flight update was superseded by a
///   higher-timestamped one; it still awaits its own ACKs, but will end in
///   `Invalid` rather than `Valid` (footnote 7).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum KeyState {
    /// Latest committed value held locally; reads are served.
    Valid,
    /// Invalidated by an in-flight update; reads stall.
    Invalid,
    /// Coordinating a client update (rule CINV onwards).
    Write,
    /// Coordinating a replay of another node's update.
    Replay,
    /// Coordinating an update that has been superseded (transient).
    Trans,
}

impl KeyState {
    /// Whether this replica currently coordinates an update for the key.
    pub fn is_coordinating(self) -> bool {
        matches!(self, KeyState::Write | KeyState::Replay | KeyState::Trans)
    }
}

/// Bookkeeping for the update this replica is currently driving on a key:
/// either a client write/RMW it coordinates or a replay it took over.
#[derive(Clone, Debug)]
pub(crate) struct Pending {
    /// Timestamp of the driven update (ACKs must echo it).
    pub ts: Ts,
    /// Write or RMW.
    pub kind: UpdateKind,
    /// Proposed value (kept for INV retransmissions).
    pub value: Value,
    /// Replicas that have acknowledged the INV.
    pub acks: NodeSet,
    /// Client to answer on commit, with the pre-update value (for
    /// `Reply::RmwOk`). `None` for replays.
    pub client: Option<(OpId, Value)>,
}

/// Client requests parked on a key that cannot currently serve them.
#[derive(Clone, Debug, Default)]
pub(crate) struct Waiting {
    /// Reads stalled on a non-Valid key (paper: "the request is stalled").
    pub reads: Vec<OpId>,
    /// Updates stalled behind the in-flight one (issued one at a time).
    pub updates: VecDeque<(OpId, ClientOp)>,
}

impl Waiting {
    pub(crate) fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.updates.is_empty()
    }
}

/// Full per-key protocol metadata at one replica (paper Figure 3).
#[derive(Clone, Debug)]
pub struct KeyEntry {
    /// Protocol state.
    pub state: KeyState,
    /// Local logical timestamp (version + cid of the last applied update).
    pub ts: Ts,
    /// Local value (the latest applied, not necessarily yet committed).
    pub value: Value,
    /// Kind of the last applied update (stored for faithful replays, §3.6).
    pub kind: UpdateKind,
    /// Transport-level sender of the INV that set the current `ts`; used by
    /// the \[O3\] optimization to exclude the write's driver from the ACK
    /// set a follower waits for.
    pub driver: NodeId,
    /// In-flight update this replica drives, if any. Inline: a replica
    /// keeps entries only for the keys with work in flight
    /// ([`HermesNode::evict`](crate::HermesNode::evict)), so a coordinated
    /// write pays no allocation for its bookkeeping.
    pub(crate) pending: Option<Pending>,
    /// Parked client requests, lazily allocated (most keys never stall).
    pub(crate) waiting: Option<Box<Waiting>>,
    /// \[O3\] timestamp the ACK tracker refers to.
    pub(crate) o3_ts: Ts,
    /// \[O3\] replicas whose broadcast ACKs for `o3_ts` have been seen.
    pub(crate) o3_acks: NodeSet,
}

/// The engine's share of what a key with work in flight costs in memory,
/// per replica (an idle key costs the engine nothing once evicted).
const _: () = assert!(std::mem::size_of::<KeyEntry>() <= 176);

impl KeyEntry {
    /// A fresh entry for a never-written key: Valid, version 0, empty value.
    pub fn new(owner: NodeId) -> Self {
        KeyEntry {
            state: KeyState::Valid,
            ts: Ts::ZERO,
            value: Value::EMPTY,
            kind: UpdateKind::Write,
            driver: owner,
            pending: None,
            waiting: None,
            o3_ts: Ts::ZERO,
            o3_acks: NodeSet::EMPTY,
        }
    }

    /// Applies an update's value and timestamp locally (shared by the
    /// coordinator-apply in CINV and the follower-adopt in FINV).
    pub(crate) fn apply(&mut self, ts: Ts, value: Value, kind: UpdateKind, driver: NodeId) {
        debug_assert!(ts > self.ts, "apply must move the timestamp forward");
        self.ts = ts;
        self.value = value;
        self.kind = kind;
        self.driver = driver;
        // A new timestamp invalidates any ACK tracking for the old one.
        if self.o3_ts != ts {
            self.o3_ts = ts;
            self.o3_acks = NodeSet::EMPTY;
        }
    }

    /// Mutable access to the waiting queues, allocating them on first use.
    pub(crate) fn waiting_mut(&mut self) -> &mut Waiting {
        self.waiting.get_or_insert_with(Default::default)
    }

    /// Whether any client request is parked on this key.
    pub fn has_waiting(&self) -> bool {
        self.waiting.as_ref().is_some_and(|w| !w.is_empty())
    }

    /// Whether no work is in flight on this key: `Valid`, no update driven
    /// here, no client request parked.
    pub fn is_idle(&self) -> bool {
        self.state == KeyState::Valid && self.pending.is_none() && !self.has_waiting()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_entry_is_valid_and_idle() {
        let e = KeyEntry::new(NodeId(0));
        assert_eq!(e.state, KeyState::Valid);
        assert_eq!(e.ts, Ts::ZERO);
        assert!(e.value.is_empty());
        assert!(e.is_idle());
        assert!(!e.has_waiting());
    }

    #[test]
    fn apply_moves_timestamp_and_resets_o3_tracker() {
        let mut e = KeyEntry::new(NodeId(0));
        e.o3_acks.insert(NodeId(1));
        e.apply(
            Ts::new(2, 1),
            Value::from_u64(5),
            UpdateKind::Write,
            NodeId(1),
        );
        assert_eq!(e.ts, Ts::new(2, 1));
        assert_eq!(e.value, Value::from_u64(5));
        assert_eq!(e.driver, NodeId(1));
        assert_eq!(e.o3_ts, Ts::new(2, 1));
        assert!(e.o3_acks.is_empty(), "tracker must reset on new ts");
    }

    #[test]
    #[should_panic(expected = "forward")]
    #[cfg(debug_assertions)]
    fn apply_rejects_stale_timestamps() {
        let mut e = KeyEntry::new(NodeId(0));
        e.apply(Ts::new(2, 1), Value::EMPTY, UpdateKind::Write, NodeId(1));
        e.apply(Ts::new(1, 0), Value::EMPTY, UpdateKind::Write, NodeId(0));
    }

    #[test]
    fn waiting_allocates_lazily() {
        let mut e = KeyEntry::new(NodeId(0));
        assert!(e.waiting.is_none());
        e.waiting_mut().reads.push(OpId::default());
        assert!(e.has_waiting());
        assert!(!e.is_idle());
    }

    #[test]
    fn coordinating_states() {
        assert!(KeyState::Write.is_coordinating());
        assert!(KeyState::Replay.is_coordinating());
        assert!(KeyState::Trans.is_coordinating());
        assert!(!KeyState::Valid.is_coordinating());
        assert!(!KeyState::Invalid.is_coordinating());
    }
}
