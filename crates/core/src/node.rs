use crate::entry::{KeyEntry, KeyState, Pending};
use crate::{Msg, ProtocolConfig, ProtocolStats, Ts, UpdateKind};
use hermes_common::{
    Capabilities, ClientOp, Effect, Key, MembershipView, NodeId, NodeSet, OpId, ReplicaProtocol,
    Reply, Value,
};
use std::collections::BTreeMap;

/// Effect buffer filled by [`HermesNode`] transition functions.
pub type Fx = Vec<Effect<Msg>>;

/// One Hermes replica, as a deterministic, I/O-free state machine.
///
/// The node consumes client operations ([`HermesNode::on_client_op`]), peer
/// messages ([`HermesNode::on_message`]), per-key message-loss timeouts
/// ([`HermesNode::on_mlt_timeout`]) and membership reconfigurations
/// ([`HermesNode::on_membership_update`]); it produces [`Effect`]s that the
/// surrounding runtime executes. The simulator, the threaded cluster and the
/// model checker all drive this same type, so correctness results transfer
/// between them.
///
/// The implementation follows the protocol of paper §3.2 (reads, writes,
/// replays), §3.3 (optimizations O1–O3), §3.4 (network faults and
/// reconfiguration) and §3.6 (RMWs). Rule names from the paper (CTS, CINV,
/// CACK, CVAL, FINV, FACK, FVAL, FRMW-ACK, CRMW-abort, CRMW-replay) are
/// cited at the matching code.
///
/// # Examples
///
/// Driving a write through a 3-replica group by hand:
///
/// ```
/// use hermes_common::{ClientOp, Effect, Key, MembershipView, NodeId, OpId, Value};
/// use hermes_core::{HermesNode, Msg, ProtocolConfig};
///
/// let view = MembershipView::initial(3);
/// let cfg = ProtocolConfig::default();
/// let mut n0 = HermesNode::new(NodeId(0), view, cfg);
/// let mut n1 = HermesNode::new(NodeId(1), view, cfg);
///
/// let mut fx = Vec::new();
/// n0.on_client_op(OpId::default(), Key(1), ClientOp::Write(Value::from_u64(7)), &mut fx);
/// // The coordinator broadcast an INV; deliver it to node 1 and collect the ACK.
/// let inv = fx.iter().find_map(|e| match e {
///     Effect::Broadcast { msg } => Some(msg.clone()),
///     _ => None,
/// }).unwrap();
/// let mut fx1 = Vec::new();
/// n1.on_message(NodeId(0), inv, &mut fx1);
/// assert!(matches!(fx1[0], Effect::Send { msg: Msg::Ack { .. }, .. }));
/// ```
#[derive(Clone, Debug)]
pub struct HermesNode {
    me: NodeId,
    cfg: ProtocolConfig,
    view: MembershipView,
    operational: bool,
    keys: BTreeMap<Key, KeyEntry>,
    next_vid: u32,
    stats: ProtocolStats,
}

impl HermesNode {
    /// Creates a replica `me` operating under `view`.
    pub fn new(me: NodeId, view: MembershipView, cfg: ProtocolConfig) -> Self {
        let operational = view.members.contains(me) || view.shadows.contains(me);
        HermesNode {
            me,
            cfg,
            view,
            operational,
            keys: BTreeMap::new(),
            next_vid: 0,
            stats: ProtocolStats::default(),
        }
    }

    /// This replica's id.
    pub fn node_id(&self) -> NodeId {
        self.me
    }

    /// The membership view this replica currently operates under.
    pub fn view(&self) -> MembershipView {
        self.view
    }

    /// The protocol configuration.
    pub fn config(&self) -> ProtocolConfig {
        self.cfg
    }

    /// Event counters accumulated so far.
    pub fn stats(&self) -> ProtocolStats {
        self.stats
    }

    /// Whether this replica currently belongs to the membership (member or
    /// shadow) and therefore processes protocol messages.
    pub fn is_operational(&self) -> bool {
        self.operational
    }

    /// Protocol state of `key` at this replica (`Valid` for untouched keys).
    pub fn key_state(&self, key: Key) -> KeyState {
        self.keys.get(&key).map_or(KeyState::Valid, |e| e.state)
    }

    /// Logical timestamp of `key` at this replica.
    pub fn key_ts(&self, key: Key) -> Ts {
        self.keys.get(&key).map_or(Ts::ZERO, |e| e.ts)
    }

    /// The locally stored value of `key` regardless of its state.
    ///
    /// This is *not* a linearizable read — use [`HermesNode::local_read`] or
    /// a client operation for that.
    pub fn key_value(&self, key: Key) -> Value {
        self.keys
            .get(&key)
            .map_or(Value::EMPTY, |e| e.value.clone())
    }

    /// `key`'s entry, for runtimes that mirror protocol state into an
    /// external store (the seqlock KVS of paper §4.1): one coherent
    /// `(state, ts, value, kind)` view in one map lookup, the value
    /// borrowed. `None` when this replica holds no entry for the key — it
    /// was never touched, or [`HermesNode::evict`] dropped it.
    pub fn entry(&self, key: Key) -> Option<&KeyEntry> {
        self.keys.get(&key)
    }

    /// Serves a read locally iff the key is `Valid` (the paper's read rule);
    /// returns `None` when the read would stall or the replica is not
    /// serving.
    pub fn local_read(&self, key: Key) -> Option<Value> {
        if !self.operational || !self.view.is_serving(self.me) {
            return None;
        }
        match self.keys.get(&key) {
            None => Some(Value::EMPTY),
            Some(e) if e.state == KeyState::Valid => Some(e.value.clone()),
            Some(_) => None,
        }
    }

    /// Number of keys with materialized protocol metadata.
    pub fn keys_touched(&self) -> usize {
        self.keys.len()
    }

    /// Iterates over `(key, entry)` pairs with materialized metadata, in key
    /// order. Used by the model checker's invariant checks and by tests
    /// that stage a shadow catch-up (the threaded runtime streams its
    /// mirror instead, which holds keys this engine may have evicted).
    pub fn entries(&self) -> impl Iterator<Item = (&Key, &KeyEntry)> {
        self.keys.iter()
    }

    /// Installs a key's committed state directly, bypassing the protocol:
    /// applied iff it is newer than local state, mirroring the FINV
    /// timestamp check.
    ///
    /// Two callers: shadow-replica bulk catch-up (paper §3.4, *Recovery*),
    /// and a host that evicts idle keys ([`HermesNode::evict`]), rebuilding
    /// a key from the committed `Valid` state it kept before the key's next
    /// event. Anything else on an operational serving replica bypasses the
    /// protocol unsafely.
    pub fn install_chunk(&mut self, key: Key, ts: Ts, value: Value, kind: UpdateKind) {
        let me = self.me;
        let e = self.keys.entry(key).or_insert_with(|| KeyEntry::new(me));
        if ts > e.ts && !e.state.is_coordinating() {
            e.apply(ts, value, kind, me);
            e.state = KeyState::Valid;
        }
    }

    /// Drops `key`'s entry if the key is quiescent: `Valid`, no update
    /// driven here, no client request parked, and no \[O3\] ACKs buffered
    /// for a timestamp the key has not reached. Such an entry is
    /// `(ts, value, kind)` and nothing else a later event could tell from a
    /// rebuilt one, so a host that keeps that triple elsewhere (the seqlock
    /// mirror) needs the engine only for keys with work in flight, and
    /// rebuilds the entry through [`HermesNode::install_chunk`] before the
    /// key's next event. Returns whether the entry went.
    pub fn evict(&mut self, key: Key) -> bool {
        let quiescent = |e: &KeyEntry| e.is_idle() && e.o3_ts <= e.ts;
        self.keys.get(&key).is_some_and(quiescent) && self.keys.remove(&key).is_some()
    }

    // ------------------------------------------------------------------
    // Client operations
    // ------------------------------------------------------------------

    /// Handles a client operation addressed to this replica.
    ///
    /// Reads on `Valid` keys reply immediately (local reads); reads on other
    /// states stall (paper §3.2). Updates are issued when the key is `Valid`
    /// and no update is in flight locally, otherwise they queue behind it.
    pub fn on_client_op(&mut self, op: OpId, key: Key, cop: ClientOp, fx: &mut Fx) {
        self.stats.client_ops += 1;
        if !self.operational || !self.view.is_serving(self.me) {
            fx.push(Effect::Reply {
                op,
                reply: Reply::NotOperational,
            });
            return;
        }
        match cop {
            ClientOp::Read => match self.keys.get_mut(&key) {
                None => {
                    self.stats.local_reads += 1;
                    fx.push(Effect::Reply {
                        op,
                        reply: Reply::ReadOk(Value::EMPTY),
                    });
                }
                Some(e) if e.state == KeyState::Valid => {
                    self.stats.local_reads += 1;
                    let value = e.value.clone();
                    fx.push(Effect::Reply {
                        op,
                        reply: Reply::ReadOk(value),
                    });
                }
                Some(e) => {
                    self.stats.stalled_reads += 1;
                    e.waiting_mut().reads.push(op);
                    fx.push(Effect::ArmTimer { key });
                }
            },
            cop @ (ClientOp::Write(_) | ClientOp::Rmw(_)) => {
                let me = self.me;
                let e = self.keys.entry(key).or_insert_with(|| KeyEntry::new(me));
                if e.state == KeyState::Valid && e.pending.is_none() {
                    self.issue_update(key, op, cop, fx);
                    self.pump(key, fx);
                } else {
                    e.waiting_mut().updates.push_back((op, cop));
                    fx.push(Effect::ArmTimer { key });
                }
            }
        }
    }

    /// CTS + CINV: assigns a timestamp, applies locally, broadcasts INV.
    ///
    /// Precondition: key entry exists, is `Valid`, has no pending update.
    fn issue_update(&mut self, key: Key, op: OpId, cop: ClientOp, fx: &mut Fx) {
        let cid = self.next_cid();
        let epoch = self.view.epoch;
        let fanout = self.view.broadcast_set(self.me).len() as u64;
        let write_incr = self.cfg.write_version_increment();
        let rmw_incr = self.cfg.rmw_version_increment();
        let me = self.me;
        let e = self
            .keys
            .get_mut(&key)
            .expect("issue_update on missing entry");
        debug_assert!(e.state == KeyState::Valid && e.pending.is_none());

        let (ts, value, kind, client) = match cop {
            ClientOp::Write(v) => {
                // CTS: writes advance the version by two under RMW support so
                // that they always beat concurrent RMWs (paper §3.6).
                let ts = e.ts.advanced(write_incr, cid);
                (ts, v, UpdateKind::Write, Some((op, Value::EMPTY)))
            }
            ClientOp::Rmw(r) => {
                match r.apply(&e.value) {
                    None => {
                        // CAS expectation mismatch: no update needed; this is
                        // a linearizable read of the Valid local value.
                        let current = e.value.clone();
                        fx.push(Effect::Reply {
                            op,
                            reply: Reply::CasFailed { current },
                        });
                        return;
                    }
                    Some(new) => {
                        let prior = e.value.clone();
                        let ts = e.ts.advanced(rmw_incr, cid);
                        (ts, new, UpdateKind::Rmw, Some((op, prior)))
                    }
                }
            }
            ClientOp::Read => unreachable!("reads are not updates"),
        };

        e.apply(ts, value.clone(), kind, me);
        e.state = KeyState::Write;
        e.pending = Some(Pending {
            ts,
            kind,
            value: value.clone(),
            acks: NodeSet::EMPTY,
            client,
        });
        fx.push(Effect::Broadcast {
            msg: Msg::Inv {
                key,
                ts,
                value,
                kind,
                epoch,
            },
        });
        self.stats.invs_sent += fanout;
        fx.push(Effect::ArmTimer { key });
    }

    /// Picks the cid for a new update (round-robin over virtual node ids
    /// when \[O2\] is enabled, paper §3.3).
    fn next_cid(&mut self) -> u32 {
        let k = self.cfg.virtual_ids_per_node.max(1);
        if k == 1 {
            return self.me.0;
        }
        let i = self.next_vid % k;
        self.next_vid = (self.next_vid + 1) % k;
        self.me.0 + i * ProtocolConfig::VID_STRIDE
    }

    // ------------------------------------------------------------------
    // Peer messages
    // ------------------------------------------------------------------

    /// Handles a protocol message from peer `from`.
    ///
    /// Messages tagged with a different membership epoch are dropped at
    /// ingress (paper §2.4); during reconfiguration this manifests to the
    /// sender as message loss, which its mlt retransmissions absorb (§3.4).
    pub fn on_message(&mut self, from: NodeId, msg: Msg, fx: &mut Fx) {
        if !self.operational {
            return;
        }
        if msg.epoch() != self.view.epoch {
            self.stats.epoch_drops += 1;
            return;
        }
        match msg {
            Msg::Inv {
                key,
                ts,
                value,
                kind,
                ..
            } => self.on_inv(from, key, ts, value, kind, fx),
            Msg::Ack { key, ts, .. } => self.on_ack(from, key, ts, fx),
            Msg::Val { key, ts, .. } => self.on_val(key, ts, fx),
        }
    }

    /// FINV / FRMW-ACK / CRMW-abort: handles an incoming invalidation.
    fn on_inv(
        &mut self,
        from: NodeId,
        key: Key,
        ts: Ts,
        value: Value,
        kind: UpdateKind,
        fx: &mut Fx,
    ) {
        let me = self.me;
        let epoch = self.view.epoch;
        let fanout = self.view.broadcast_set(me).len() as u64;
        let o3 = self.cfg.broadcast_acks;
        let e = self.keys.entry(key).or_insert_with(|| KeyEntry::new(me));

        // CRMW-abort: a pending RMW loses to any higher-timestamped update
        // (paper §3.6). The write that beat it is linearized after it would
        // have been, so the abort is safe; the client may retry.
        if let Some(p) = e.pending.as_ref() {
            if p.kind.is_rmw() && ts > p.ts {
                let p = e.pending.take().expect("just observed");
                self.stats.rmw_aborts += 1;
                if let Some((op, _)) = p.client {
                    fx.push(Effect::Reply {
                        op,
                        reply: Reply::RmwAborted,
                    });
                }
            }
        }

        // FRMW-ACK, negative half: a stale RMW INV is answered with an INV
        // describing the local (newer) state — the same message shape a
        // write replay uses — so the RMW coordinator learns it lost.
        if kind.is_rmw() && ts < e.ts {
            self.stats.rmw_nacks += 1;
            let reply = Msg::Inv {
                key,
                ts: e.ts,
                value: e.value.clone(),
                kind: e.kind,
                epoch,
            };
            self.stats.invs_sent += 1;
            fx.push(Effect::Send {
                to: from,
                msg: reply,
            });
            return;
        }

        if ts > e.ts {
            // FINV: adopt the newer value and timestamp; the key becomes
            // Invalid, or Trans if this replica is still driving its own
            // (now superseded) update (paper §3.2 and footnote 7).
            e.apply(ts, value, kind, from);
            e.state = if e.pending.is_some() {
                KeyState::Trans
            } else {
                KeyState::Invalid
            };
            if e.has_waiting() {
                // Progress observed: reset the replay timer (paper §3.4).
                fx.push(Effect::ArmTimer { key });
            }
        } else if ts == e.ts {
            debug_assert_eq!(
                e.value, value,
                "two updates with equal timestamps must carry the same value"
            );
            // A replayer may have taken over driving this very timestamp.
            e.driver = from;
        }
        // (ts < e.ts for a plain write: no adoption, but still ACK below —
        // FACK is unconditional so superseded writes can complete.)

        // FACK: acknowledge, echoing the INV's timestamp.
        let ack = Msg::Ack { key, ts, epoch };
        if o3 {
            self.stats.acks_sent += fanout;
            fx.push(Effect::Broadcast { msg: ack });
            // ACKs may have arrived (and been buffered) before this INV, and
            // in small groups the required set can be empty: re-check the
            // [O3] validation condition now that the INV is applied.
            self.o3_try_validate(key, fx);
        } else {
            self.stats.acks_sent += 1;
            fx.push(Effect::Send { to: from, msg: ack });
        }
    }

    /// \[O3\]: validates `key` if ACKs from every live replica other than
    /// this one and the write's driver have been observed for the current
    /// timestamp (paper §3.3). Returns whether validation happened.
    fn o3_try_validate(&mut self, key: Key, fx: &mut Fx) -> bool {
        debug_assert!(self.cfg.broadcast_acks);
        let Some(e) = self.keys.get(&key) else {
            return false;
        };
        if e.state == KeyState::Valid || e.o3_ts != e.ts {
            return false;
        }
        let required = self.view.ack_set().without(self.me).without(e.driver);
        if !e.o3_acks.is_superset(required) {
            return false;
        }
        self.validate(key, fx);
        true
    }

    /// CACK (+ \[O3\] follower-side validation): handles an ACK.
    fn on_ack(&mut self, from: NodeId, key: Key, ts: Ts, fx: &mut Fx) {
        let me = self.me;
        let e = if self.cfg.broadcast_acks {
            // Under [O3] an ACK can overtake its INV; materialize the entry
            // so the ACK is buffered and counted once the INV lands.
            self.keys.entry(key).or_insert_with(|| KeyEntry::new(me))
        } else {
            match self.keys.get_mut(&key) {
                Some(e) => e,
                None => return,
            }
        };
        let mut progressed = false;
        if let Some(p) = e.pending.as_mut() {
            if ts == p.ts && p.acks.insert(from) {
                progressed = true;
            }
        }
        let track_o3 = self.cfg.broadcast_acks;
        if track_o3 {
            // Track broadcast ACKs; reset the tracker when a newer timestamp
            // appears (ACKs can arrive before their INV under reordering).
            if ts > e.o3_ts {
                e.o3_ts = ts;
                e.o3_acks = NodeSet::EMPTY;
            }
            if ts == e.o3_ts {
                e.o3_acks.insert(from);
            }
        }
        // A follower needs ACKs from every live replica other than itself
        // and the write's driver (which implicitly has the value); then the
        // write is globally visible and reads may be served without waiting
        // for a VAL (paper §3.3 [O3]).
        if !(track_o3 && self.o3_try_validate(key, fx)) && progressed {
            self.pump(key, fx);
        }
    }

    /// FVAL: a VAL validates the key iff its timestamp matches exactly.
    fn on_val(&mut self, key: Key, ts: Ts, fx: &mut Fx) {
        let Some(e) = self.keys.get(&key) else {
            return;
        };
        if ts != e.ts || e.state == KeyState::Valid {
            return; // stale or duplicate VAL: ignored (paper §3.2).
        }
        self.validate(key, fx);
    }

    /// Transitions a key to Valid (shared by FVAL and the \[O3\] rule), then
    /// lets parked work proceed.
    fn validate(&mut self, key: Key, fx: &mut Fx) {
        let e = self.keys.get_mut(&key).expect("validate on missing entry");
        debug_assert_ne!(e.state, KeyState::Valid);
        e.state = KeyState::Valid;
        self.stats.validations += 1;
        self.pump(key, fx);
    }

    // ------------------------------------------------------------------
    // Commit pipeline
    // ------------------------------------------------------------------

    /// Drives a key forward after any event that may have unblocked it:
    /// commits a completed pending update (CACK/CVAL), serves stalled reads,
    /// and issues the next queued update.
    fn pump(&mut self, key: Key, fx: &mut Fx) {
        loop {
            self.try_commit(key, fx);
            let Some(e) = self.keys.get_mut(&key) else {
                return;
            };
            if e.state != KeyState::Valid {
                return;
            }
            if let Some(w) = e.waiting.as_mut() {
                if !w.reads.is_empty() {
                    let value = e.value.clone();
                    for op in w.reads.drain(..) {
                        fx.push(Effect::Reply {
                            op,
                            reply: Reply::ReadOk(value.clone()),
                        });
                    }
                }
            }
            if e.pending.is_some() {
                // Early-validated by a replayer: keep the timer armed so the
                // remaining ACKs are chased by retransmission.
                return;
            }
            let next = e.waiting.as_mut().and_then(|w| w.updates.pop_front());
            match next {
                Some((op, cop)) => {
                    self.issue_update(key, op, cop, fx);
                    // Loop: in a single-node group the update commits
                    // synchronously and further queued updates may proceed.
                }
                None => {
                    if self.keys.get(&key).is_some_and(|e| e.is_idle()) {
                        fx.push(Effect::DisarmTimer { key });
                    }
                    return;
                }
            }
        }
    }

    /// CACK: commits the pending update once ACKs from all live replicas
    /// (members and shadows) have arrived.
    fn try_commit(&mut self, key: Key, fx: &mut Fx) {
        let required = self.view.ack_set().without(self.me);
        let epoch = self.view.epoch;
        let fanout = required.len() as u64;
        let o3 = self.cfg.broadcast_acks;
        let elide = self.cfg.elide_superseded_val;
        let Some(e) = self.keys.get_mut(&key) else {
            return;
        };
        let Some(p) = e.pending.as_ref() else {
            return;
        };
        if !p.acks.is_superset(required) {
            return;
        }
        let p = e.pending.take().expect("just observed");
        self.stats.commits += 1;

        match e.state {
            KeyState::Write | KeyState::Replay => {
                // The write is committed and this replica still holds it as
                // its latest: validate locally and broadcast VAL (CVAL).
                debug_assert_eq!(e.ts, p.ts, "uninvalidated coordinator holds its own ts");
                e.state = KeyState::Valid;
                self.stats.validations += 1;
                if !o3 {
                    self.stats.vals_sent += fanout;
                    fx.push(Effect::Broadcast {
                        msg: Msg::Val {
                            key,
                            ts: p.ts,
                            epoch,
                        },
                    });
                }
            }
            KeyState::Trans => {
                // Superseded while in flight: the update is committed (it is
                // linearized before the superseding one) but the key stays
                // Invalid until the newer write validates (footnote 7).
                // [O1]: the VAL broadcast is unnecessary — every replica
                // already carries a higher timestamp and would ignore it.
                e.state = KeyState::Invalid;
                if !o3 && !elide {
                    self.stats.vals_sent += fanout;
                    fx.push(Effect::Broadcast {
                        msg: Msg::Val {
                            key,
                            ts: p.ts,
                            epoch,
                        },
                    });
                }
                fx.push(Effect::ArmTimer { key });
            }
            KeyState::Valid => {
                // A replayer completed this update first and its VAL already
                // validated us; nothing further to do.
            }
            KeyState::Invalid => {
                debug_assert!(false, "Invalid state cannot hold a pending update");
            }
        }

        if let Some((op, prior)) = p.client {
            let reply = match p.kind {
                UpdateKind::Write => Reply::WriteOk,
                UpdateKind::Rmw => Reply::RmwOk { prior },
            };
            fx.push(Effect::Reply { op, reply });
        }
    }

    // ------------------------------------------------------------------
    // Timeouts and replays
    // ------------------------------------------------------------------

    /// Handles the message-loss timeout (mlt) for `key` (paper §3.4).
    ///
    /// A coordinator retransmits its INVs to replicas that have not ACKed; a
    /// follower stuck on an Invalid key with parked requests suspects a lost
    /// VAL (or a dead coordinator) and initiates a write replay.
    pub fn on_mlt_timeout(&mut self, key: Key, fx: &mut Fx) {
        if !self.operational {
            return;
        }
        let required = self.view.ack_set().without(self.me);
        let epoch = self.view.epoch;
        let Some(e) = self.keys.get_mut(&key) else {
            return;
        };
        if let Some(p) = e.pending.as_ref() {
            // Suspected INV or ACK loss: retransmit to the stragglers and
            // re-arm (paper §3.4, *Imperfect Links*).
            let missing = required.difference(p.acks);
            for to in missing {
                self.stats.invs_sent += 1;
                self.stats.retransmits += 1;
                fx.push(Effect::Send {
                    to,
                    msg: Msg::Inv {
                        key,
                        ts: p.ts,
                        value: p.value.clone(),
                        kind: p.kind,
                        epoch,
                    },
                });
            }
            fx.push(Effect::ArmTimer { key });
            // Membership may have shrunk since the last ACK; re-check.
            self.pump(key, fx);
            return;
        }
        match e.state {
            KeyState::Invalid if e.has_waiting() => self.start_replay(key, fx),
            KeyState::Invalid | KeyState::Valid => {
                // No demand parked on this key: leave it lazy; a future
                // request will stall, arm the timer and replay if needed.
                fx.push(Effect::DisarmTimer { key });
            }
            KeyState::Write | KeyState::Replay | KeyState::Trans => {
                debug_assert!(false, "coordinating states always hold a pending update");
            }
        }
    }

    /// Takes over coordination of the in-flight update that invalidated this
    /// key, re-executing CINV→CVAL with the *original* timestamp and value
    /// (paper §3.2, *Write Replays*).
    fn start_replay(&mut self, key: Key, fx: &mut Fx) {
        let me = self.me;
        let epoch = self.view.epoch;
        let fanout = self.view.broadcast_set(me).len() as u64;
        let e = self.keys.get_mut(&key).expect("replay on missing entry");
        debug_assert_eq!(e.state, KeyState::Invalid);
        debug_assert!(e.pending.is_none());
        e.state = KeyState::Replay;
        e.driver = me;
        e.pending = Some(Pending {
            ts: e.ts,
            kind: e.kind,
            value: e.value.clone(),
            acks: NodeSet::EMPTY,
            client: None,
        });
        let msg = Msg::Inv {
            key,
            ts: e.ts,
            value: e.value.clone(),
            kind: e.kind,
            epoch,
        };
        self.stats.replays_started += 1;
        self.stats.invs_sent += fanout;
        fx.push(Effect::Broadcast { msg });
        fx.push(Effect::ArmTimer { key });
        self.pump(key, fx);
    }

    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    /// Installs a reconfigured membership view (an *m-update*, paper §3.4).
    ///
    /// Pending writes keep their gathered ACKs, drop requirements on removed
    /// replicas, and are retransmitted to stragglers; pending RMWs reset
    /// their ACKs and replay from scratch so they cannot commit on a mix of
    /// pre- and post-reconfiguration acknowledgments (rule CRMW-replay).
    ///
    /// Returns the keys whose protocol state the update may have moved (a
    /// removed replica's was the last ACK a commit waited for), so a host
    /// that mirrors key state elsewhere knows which to refresh. Leaving the
    /// group moves none: parked work is failed, keys stay as they were.
    pub fn on_membership_update(&mut self, view: MembershipView, fx: &mut Fx) -> Vec<Key> {
        if view.epoch <= self.view.epoch {
            return Vec::new(); // stale update
        }
        self.view = view;
        let in_group = view.members.contains(self.me) || view.shadows.contains(self.me);
        self.operational = in_group;

        if !in_group {
            // Removed from the membership (crashed from the group's point of
            // view, or sitting in a minority partition): stop serving. All
            // parked work is failed; outcomes of already-broadcast updates
            // are indeterminate for this replica's clients.
            let keys: Vec<Key> = self.keys.keys().copied().collect();
            for key in keys {
                let e = self.keys.get_mut(&key).expect("iterating existing keys");
                if let Some(p) = e.pending.take() {
                    if let Some((op, _)) = p.client {
                        fx.push(Effect::Reply {
                            op,
                            reply: Reply::NotOperational,
                        });
                    }
                }
                if let Some(w) = e.waiting.take() {
                    for op in w.reads {
                        fx.push(Effect::Reply {
                            op,
                            reply: Reply::NotOperational,
                        });
                    }
                    for (op, _) in w.updates {
                        fx.push(Effect::Reply {
                            op,
                            reply: Reply::NotOperational,
                        });
                    }
                }
                fx.push(Effect::DisarmTimer { key });
            }
            return Vec::new();
        }

        let required = view.ack_set().without(self.me);
        let epoch = view.epoch;
        let active: Vec<Key> = self
            .keys
            .iter()
            .filter(|(_, e)| e.pending.is_some() || e.has_waiting())
            .map(|(k, _)| *k)
            .collect();
        for &key in &active {
            let e = self.keys.get_mut(&key).expect("iterating existing keys");
            if let Some(p) = e.pending.as_mut() {
                p.acks = p.acks.intersection(required);
                if p.kind.is_rmw() {
                    // CRMW-replay: restart the RMW in the new configuration.
                    p.acks = NodeSet::EMPTY;
                    let msg = Msg::Inv {
                        key,
                        ts: p.ts,
                        value: p.value.clone(),
                        kind: p.kind,
                        epoch,
                    };
                    self.stats.invs_sent += required.len() as u64;
                    fx.push(Effect::Broadcast { msg });
                } else {
                    let missing = required.difference(p.acks);
                    for to in missing {
                        self.stats.invs_sent += 1;
                        fx.push(Effect::Send {
                            to,
                            msg: Msg::Inv {
                                key,
                                ts: p.ts,
                                value: p.value.clone(),
                                kind: p.kind,
                                epoch,
                            },
                        });
                    }
                }
                fx.push(Effect::ArmTimer { key });
            } else if e.state == KeyState::Invalid && e.has_waiting() {
                // The coordinator that invalidated this key may be the node
                // that just failed; the timer drives a replay if so.
                fx.push(Effect::ArmTimer { key });
            }
            // A removed replica may have been the only missing ACK.
            self.pump(key, fx);
        }
        active
    }
}

impl ReplicaProtocol for HermesNode {
    type Msg = Msg;

    fn node_id(&self) -> NodeId {
        HermesNode::node_id(self)
    }

    fn on_client_op(&mut self, op: OpId, key: Key, cop: ClientOp, fx: &mut Fx) {
        HermesNode::on_client_op(self, op, key, cop, fx);
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, fx: &mut Fx) {
        HermesNode::on_message(self, from, msg, fx);
    }

    fn on_timer(&mut self, key: Key, fx: &mut Fx) {
        HermesNode::on_mlt_timeout(self, key, fx);
    }

    fn on_membership_update(&mut self, view: MembershipView, fx: &mut Fx) {
        HermesNode::on_membership_update(self, view, fx);
    }

    fn msg_wire_size(msg: &Msg) -> usize {
        msg.wire_size()
    }

    fn capabilities() -> Capabilities {
        // Paper Table 2, HermesKV row.
        Capabilities {
            name: "Hermes",
            local_reads: true,
            leases: "one per RM",
            consistency: "Lin",
            write_concurrency: "inter-key",
            write_latency_rtts: "1",
            decentralized_writes: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(me: u32, cfg: ProtocolConfig) -> HermesNode {
        HermesNode::new(NodeId(me), MembershipView::initial(3), cfg)
    }

    /// The one message of `fx` (a broadcast or a send).
    fn msg_of(fx: &mut Fx) -> Msg {
        let msgs: Vec<Msg> = (fx.drain(..))
            .filter_map(|e| match e {
                Effect::Broadcast { msg } | Effect::Send { msg, .. } => Some(msg),
                _ => None,
            })
            .collect();
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        msgs.into_iter().next().expect("one")
    }

    #[test]
    fn evict_refuses_while_work_is_in_flight_and_takes_a_quiescent_key() {
        let cfg = ProtocolConfig::default();
        let (mut n0, mut n1, k) = (node(0, cfg), node(1, cfg), Key(3));
        let mut fx = Vec::new();
        assert!(!n0.evict(k), "nothing to evict");
        let rmw = ClientOp::Rmw(hermes_common::RmwOp::FetchAdd { delta: 4 });
        n0.on_client_op(OpId::default(), k, rmw, &mut fx);
        let inv = msg_of(&mut fx);
        assert!(!n0.evict(k), "a coordinated update is in flight");

        n1.on_message(NodeId(0), inv, &mut fx);
        let ack = msg_of(&mut fx);
        assert!(!n1.evict(k), "Invalid");
        let read = OpId::new(hermes_common::ClientId(9), 1);
        n1.on_client_op(read, k, ClientOp::Read, &mut fx);
        fx.clear();
        for from in [1, 2] {
            n0.on_message(NodeId(from), ack.clone(), &mut fx);
        }
        let val = msg_of(&mut fx);
        n1.on_message(NodeId(0), val, &mut fx);
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Reply { op, .. } if *op == read)));

        for n in [&mut n0, &mut n1] {
            let e = n.entry(k).expect("held");
            let kept = (e.ts, e.value.clone(), e.kind);
            assert_eq!(kept.2, UpdateKind::Rmw);
            assert!(n.evict(k), "quiescent");
            assert!(n.entry(k).is_none() && n.keys_touched() == 0);
            // The triple is all there was: rebuilt, the key is as it was.
            n.install_chunk(k, kept.0, kept.1.clone(), kept.2);
            let e = n.entry(k).expect("rebuilt");
            assert_eq!(
                (e.state, e.ts, e.value.clone(), e.kind),
                (KeyState::Valid, kept.0, kept.1, kept.2)
            );
        }
    }

    #[test]
    fn evict_refuses_a_key_with_o3_acks_buffered_ahead_of_its_timestamp() {
        let cfg = ProtocolConfig {
            broadcast_acks: true,
            ..ProtocolConfig::default()
        };
        let (mut n1, k) = (node(1, cfg), Key(3));
        let mut fx = Vec::new();
        let ts = Ts::new(2, 0);
        let epoch = MembershipView::initial(3).epoch;
        // The ACK overtook its INV: the entry is Valid at Ts::ZERO, but an
        // eviction would lose the buffered ACK the INV will need.
        n1.on_message(NodeId(2), Msg::Ack { key: k, ts, epoch }, &mut fx);
        assert_eq!(n1.key_state(k), KeyState::Valid);
        assert!(!n1.evict(k));
        let value = Value::from_u64(1);
        let kind = UpdateKind::Write;
        n1.on_message(
            NodeId(0),
            Msg::Inv {
                key: k,
                ts,
                value,
                kind,
                epoch,
            },
            &mut fx,
        );
        assert_eq!(
            n1.key_state(k),
            KeyState::Valid,
            "validated on the buffered ACK"
        );
        assert!(n1.evict(k));
    }
}
