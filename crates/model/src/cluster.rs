//! A deterministic cluster of real [`HermesNode`] state machines: the one
//! engine-level world that the core tests, the schedule fuzzer and the
//! [`explore`](crate::explore) search all drive.
//!
//! It routes effects, keeps the in-flight messages and armed timers, and
//! lets its caller deliver, lose or duplicate any message, fire any timer
//! and crash a replica, then install the view without it. Every operation
//! it issues is stamped on a logical clock when invoked and when first
//! answered, so [`Cluster::history`] hands a key's client-visible history
//! straight to [`check_linearizable`](crate::check_linearizable).

use crate::checker::{observe, HistoryOp, OpKind, Outcome};
use hermes_common::{
    ClientId, ClientOp, Effect, Key, MembershipView, NodeId, OpId, Reply, RmwOp, Value,
};
use hermes_core::{Fx, HermesNode, KeyState, Msg, ProtocolConfig};
use std::collections::{BTreeSet, VecDeque};

/// A protocol message in flight between two replicas.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// The message.
    pub msg: Msg,
}

/// One client operation the cluster issued, with its logical-clock stamps.
#[derive(Clone, Debug)]
pub(crate) struct Issued {
    pub(crate) node: usize,
    pub(crate) key: Key,
    pub(crate) cop: ClientOp,
    pub(crate) invoke: u64,
    /// Stamp and content of the first reply; `None` while unanswered.
    pub(crate) response: Option<(u64, Reply)>,
}

/// A deterministic cluster of Hermes replicas.
#[derive(Clone, Debug)]
pub struct Cluster {
    /// The replicas, by node id.
    pub nodes: Vec<HermesNode>,
    /// Messages sent and not yet delivered or lost, oldest first.
    pub inflight: VecDeque<Envelope>,
    /// Every client reply, in the order the replicas emitted them.
    pub replies: Vec<(OpId, Reply)>,
    /// Armed message-loss timers as `(node, key)`.
    pub timers: BTreeSet<(u32, Key)>,
    crashed: BTreeSet<u32>,
    clock: u64,
    /// Issued operations; the one with `OpId::seq` *s* is at index *s* − 1.
    pub(crate) ops: Vec<Issued>,
}

impl Cluster {
    /// `n` replicas in the initial view, all running `cfg`.
    pub fn new(n: usize, cfg: ProtocolConfig) -> Self {
        let view = MembershipView::initial(n);
        Cluster {
            nodes: (0..n)
                .map(|i| HermesNode::new(NodeId(i as u32), view, cfg))
                .collect(),
            inflight: VecDeque::new(),
            replies: Vec::new(),
            timers: BTreeSet::new(),
            crashed: BTreeSet::new(),
            clock: 0,
            ops: Vec::new(),
        }
    }

    /// Replica `i`.
    pub fn node(&self, i: usize) -> &HermesNode {
        &self.nodes[i]
    }

    /// Whether `node` has been crashed.
    pub fn is_crashed(&self, node: usize) -> bool {
        self.crashed.contains(&(node as u32))
    }

    /// Issues a client operation at `node`, applying resulting effects.
    pub fn client(&mut self, node: usize, key: Key, cop: ClientOp) -> OpId {
        assert!(
            !self.is_crashed(node),
            "client op sent to crashed node {node}"
        );
        self.clock += 1;
        self.ops.push(Issued {
            node,
            key,
            cop: cop.clone(),
            invoke: self.clock,
            response: None,
        });
        let op = OpId::new(ClientId(node as u64), self.ops.len() as u64);
        let mut fx: Fx = Vec::new();
        self.nodes[node].on_client_op(op, key, cop, &mut fx);
        self.apply_effects(node, fx);
        op
    }

    /// Issues a write of `value` at `node`.
    pub fn write(&mut self, node: usize, key: Key, value: Value) -> OpId {
        self.client(node, key, ClientOp::Write(value))
    }

    /// Issues a read at `node`.
    pub fn read(&mut self, node: usize, key: Key) -> OpId {
        self.client(node, key, ClientOp::Read)
    }

    /// Issues a read-modify-write at `node`.
    pub fn rmw(&mut self, node: usize, key: Key, rmw: RmwOp) -> OpId {
        self.client(node, key, ClientOp::Rmw(rmw))
    }

    fn apply_effects(&mut self, at: usize, fx: Fx) {
        let me = NodeId(at as u32);
        for effect in fx {
            match effect {
                Effect::Send { to, msg } => self.inflight.push_back(Envelope { from: me, to, msg }),
                Effect::Broadcast { msg } => {
                    for to in self.nodes[at].view().broadcast_set(me) {
                        let msg = msg.clone();
                        self.inflight.push_back(Envelope { from: me, to, msg });
                    }
                }
                Effect::Reply { op, reply } => {
                    let issued = &mut self.ops[op.seq as usize - 1];
                    if issued.response.is_none() {
                        self.clock += 1;
                        issued.response = Some((self.clock, reply.clone()));
                    }
                    self.replies.push((op, reply));
                }
                Effect::ArmTimer { key } => {
                    self.timers.insert((at as u32, key));
                }
                Effect::DisarmTimer { key } => {
                    self.timers.remove(&(at as u32, key));
                }
            }
        }
    }

    /// Delivers the oldest in-flight message; returns false if none remain.
    pub fn deliver_one(&mut self) -> bool {
        if self.inflight.is_empty() {
            return false;
        }
        self.deliver_at(0);
        true
    }

    /// Delivers the in-flight message at `index` (lost if an endpoint has
    /// crashed).
    pub fn deliver_at(&mut self, index: usize) {
        let env = self.inflight.remove(index).expect("in-flight index");
        if self.is_crashed(env.to.index()) || self.is_crashed(env.from.index()) {
            return;
        }
        let mut fx: Fx = Vec::new();
        self.nodes[env.to.index()].on_message(env.from, env.msg, &mut fx);
        self.apply_effects(env.to.index(), fx);
    }

    /// Loses the in-flight message at `index`.
    pub fn drop_at(&mut self, index: usize) {
        self.inflight.remove(index).expect("in-flight index");
    }

    /// Sends a second copy of the in-flight message at `index`, last.
    pub fn duplicate_at(&mut self, index: usize) {
        self.inflight.push_back(self.inflight[index].clone());
    }

    /// Delivers all in-flight messages (including ones generated on the way)
    /// in FIFO order until the network is empty.
    pub fn deliver_all(&mut self) {
        while self.deliver_one() {}
    }

    /// Delivers (repeatedly) every in-flight message matching `pred`,
    /// including newly generated matching messages; leaves the rest queued.
    pub fn deliver_matching(&mut self, pred: impl Fn(&Envelope) -> bool) {
        while let Some(i) = self.inflight.iter().position(&pred) {
            self.deliver_at(i);
        }
    }

    /// Silently drops every queued message matching `pred` (message loss).
    pub fn drop_matching(&mut self, mut pred: impl FnMut(&Envelope) -> bool) -> usize {
        let before = self.inflight.len();
        self.inflight.retain(|e| !pred(e));
        before - self.inflight.len()
    }

    /// Duplicates every queued message matching `pred`.
    pub fn duplicate_matching(&mut self, mut pred: impl FnMut(&Envelope) -> bool) {
        let dups: Vec<Envelope> = self.inflight.iter().filter(|e| pred(e)).cloned().collect();
        self.inflight.extend(dups);
    }

    /// Fires the armed message-loss timer of `node` for `key`.
    pub fn fire_timer(&mut self, node: usize, key: Key) {
        assert!(
            self.timers.contains(&(node as u32, key)),
            "timer not armed for node {node} {key}"
        );
        self.time_out(node, key);
    }

    fn time_out(&mut self, node: usize, key: Key) {
        let mut fx: Fx = Vec::new();
        self.nodes[node].on_mlt_timeout(key, &mut fx);
        self.apply_effects(node, fx);
    }

    /// Fires every armed timer of a live node once (snapshot taken first).
    pub fn fire_all_timers(&mut self) {
        let armed: Vec<(u32, Key)> = self.timers.iter().copied().collect();
        for (node, key) in armed {
            if !self.is_crashed(node as usize) {
                self.time_out(node as usize, key);
            }
        }
    }

    /// Crash-stops a node: its queued messages are discarded and it neither
    /// sends nor receives from now on.
    pub fn crash(&mut self, node: usize) {
        self.crashed.insert(node as u32);
        let dead = NodeId(node as u32);
        self.inflight.retain(|e| e.from != dead && e.to != dead);
    }

    /// Installs a reconfigured view (the dead node removed) on all live
    /// replicas — what the reliable-membership service would do after lease
    /// expiry (paper §3.4).
    pub fn reconfigure(&mut self, view: MembershipView) {
        for i in 0..self.nodes.len() {
            if self.is_crashed(i) {
                continue;
            }
            let mut fx: Fx = Vec::new();
            self.nodes[i].on_membership_update(view, &mut fx);
            self.apply_effects(i, fx);
        }
    }

    /// Delivers everything and fires timers, round after round, until a
    /// round's timers produce no message and no reply; false if 64 rounds
    /// do not get there.
    pub fn settle(&mut self) -> bool {
        (0..64).any(|_| {
            self.deliver_all();
            let before = self.replies.len();
            self.fire_all_timers();
            self.inflight.is_empty() && self.replies.len() == before
        })
    }

    /// [`settle`](Cluster::settle)s the cluster, which must get there.
    #[track_caller]
    pub fn quiesce(&mut self) {
        assert!(self.settle(), "cluster failed to quiesce within 64 rounds");
    }

    /// The recorded reply for `op`, if completed.
    pub fn reply_of(&self, op: OpId) -> Option<&Reply> {
        self.replies.iter().find(|(o, _)| *o == op).map(|(_, r)| r)
    }

    /// Asserts `op` completed with the given reply.
    #[track_caller]
    pub fn assert_reply(&self, op: OpId, expected: Reply) {
        match self.reply_of(op) {
            Some(got) => assert_eq!(got, &expected, "unexpected reply for {op}"),
            None => panic!("operation {op} has no reply yet"),
        }
    }

    /// Asserts all live replicas agree on (ts, value) for `key` and hold it
    /// Valid — the quiescent convergence invariant.
    #[track_caller]
    pub fn assert_converged(&self, key: Key) {
        let live: Vec<&HermesNode> = (0..self.nodes.len())
            .filter(|&i| !self.is_crashed(i) && self.nodes[i].is_operational())
            .map(|i| &self.nodes[i])
            .collect();
        let (ts0, v0) = (live[0].key_ts(key), live[0].key_value(key));
        for n in &live {
            let id = n.node_id();
            assert_eq!(
                n.key_state(key),
                KeyState::Valid,
                "{id}: {key} not Valid at quiescence"
            );
            assert_eq!(n.key_ts(key), ts0, "{id}: ts divergence on {key}");
            assert_eq!(n.key_value(key), v0, "{id}: value divergence on {key}");
        }
    }

    /// `key`'s client-visible history: every operation issued on it, as
    /// [`observe`] sees its first reply.
    pub fn history(&self, key: Key) -> Vec<HistoryOp> {
        self.ops
            .iter()
            .filter(|i| i.key == key)
            .filter_map(history_op)
            .collect()
    }
}

/// One issued operation as a history entry. A read that did not complete
/// constrains nothing, so it is left out.
fn history_op(issued: &Issued) -> Option<HistoryOp> {
    let (response, reply) = match &issued.response {
        Some((at, reply)) => (*at, Some(reply.clone())),
        None => (u64::MAX, None),
    };
    let (kind, outcome) = observe(&issued.cop, reply);
    let incomplete_read = matches!(kind, OpKind::Read { .. }) && outcome != Outcome::Completed;
    (!incomplete_read).then_some(HistoryOp {
        invoke: issued.invoke,
        response,
        kind,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use Outcome::{Completed as C, Indeterminate as I};

    /// Every client operation kind against every reply, and no reply: the
    /// history entry it becomes, or `None` when it is left out.
    #[test]
    fn every_reply_maps_to_one_history_entry() {
        let v = Value::from_u64;
        let replies = [
            Some(Reply::ReadOk(v(7))),
            Some(Reply::WriteOk),
            Some(Reply::RmwOk { prior: v(4) }),
            Some(Reply::CasFailed { current: v(9) }),
            Some(Reply::RmwAborted),
            Some(Reply::NotOperational),
            Some(Reply::Unsupported),
            None,
        ];
        let read = Some((OpKind::Read { returned: Some(7) }, C));
        let write = |o| Some((OpKind::Write { value: 5 }, o));
        let add = |prior, o| Some((OpKind::FetchAdd { delta: 3, prior }, o));
        let cas = |o| Some((OpKind::CasOk { expect: 1, new: 2 }, o));
        let cas_failed = Some((
            OpKind::CasFailed {
                expect: 1,
                current: Some(9),
            },
            C,
        ));
        let fetch_add = ClientOp::Rmw(RmwOp::FetchAdd { delta: 3 });
        let compare_and_swap = ClientOp::Rmw(RmwOp::CompareAndSwap {
            expect: v(1),
            new: v(2),
        });
        let table = [
            (
                ClientOp::Read,
                [read, None, None, None, None, None, None, None],
            ),
            (
                ClientOp::Write(v(5)),
                [
                    write(I),
                    write(C),
                    write(I),
                    write(I),
                    write(I),
                    write(I),
                    write(I),
                    write(I),
                ],
            ),
            (
                fetch_add,
                [
                    add(None, I),
                    add(None, I),
                    add(Some(4), C),
                    add(None, I),
                    add(None, I),
                    add(None, I),
                    add(None, I),
                    add(None, I),
                ],
            ),
            (
                compare_and_swap,
                [
                    cas(I),
                    cas(I),
                    cas(C),
                    cas_failed,
                    cas(I),
                    cas(I),
                    cas(I),
                    cas(I),
                ],
            ),
        ];
        for (cop, row) in table {
            for (reply, want) in replies.iter().zip(row) {
                let issued = Issued {
                    node: 0,
                    key: Key(0),
                    cop: cop.clone(),
                    invoke: 1,
                    response: reply.clone().map(|r| (2, r)),
                };
                let got = history_op(&issued);
                let response = got.as_ref().map(|h| h.response);
                let got = got.map(|h| (h.kind, h.outcome));
                assert_eq!(got, want, "{cop:?} answered {reply:?}");
                if got.is_some() {
                    let want = if reply.is_some() { 2 } else { u64::MAX };
                    assert_eq!(response, Some(want), "{cop:?} answered {reply:?}");
                }
            }
        }
    }

    /// A read stalled behind an uncommitted write stays out of the key's
    /// history; the write, never answered, is in it with an open window.
    #[test]
    fn history_leaves_out_a_read_that_never_completed() {
        let mut c = Cluster::new(3, ProtocolConfig::default());
        c.write(0, Key(1), Value::from_u64(5));
        c.deliver_matching(|e| e.to == NodeId(1) && e.msg.kind_name() == "INV");
        let read = c.read(1, Key(1));
        assert!(c.reply_of(read).is_none(), "the read waits for the VAL");
        let history = c.history(Key(1));
        assert_eq!(history.len(), 1, "{history:?}");
        assert_eq!(history[0].kind, OpKind::Write { value: 5 });
        assert_eq!(history[0].outcome, I);
        assert_eq!((history[0].invoke, history[0].response), (1, u64::MAX));
    }
}
