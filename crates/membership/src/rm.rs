use crate::paxos::{AcceptorState, Ballot, Paxos, PaxosMsg};
use hermes_common::{Epoch, MembershipView, NodeId, NodeSet};
use hermes_sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Timing parameters of the reliable-membership service.
///
/// The defaults match the paper's failure experiment (Figure 9): a
/// "conservative timeout of 150 ms" before a silent node is declared failed,
/// with leases an order of magnitude shorter than the detection timeout so
/// that the lease-expiry wait adds little to recovery.
#[derive(Clone, Copy, Debug)]
pub struct RmConfig {
    /// How often each node broadcasts a heartbeat.
    pub heartbeat_interval: SimDuration,
    /// Silence longer than this marks a member as suspected.
    pub failure_timeout: SimDuration,
    /// Lease duration; also how long to wait after suspicion before
    /// reconfiguring (the suspect's lease must have expired, paper §2.4).
    pub lease_duration: SimDuration,
}

impl Default for RmConfig {
    fn default() -> Self {
        RmConfig {
            heartbeat_interval: SimDuration::millis(10),
            failure_timeout: SimDuration::millis(150),
            lease_duration: SimDuration::millis(40),
        }
    }
}

impl RmConfig {
    /// Timings for the *wall-clock* deployment: a replica's lane 0 steps
    /// the agent with its own loop's clock reading, at least every 25 ms
    /// (the loop's longest sleep), so heartbeats land coarser than the
    /// simulator's and the lease must tolerate a few missed wakeups
    /// without flapping.
    pub fn wall_clock() -> Self {
        RmConfig {
            heartbeat_interval: SimDuration::millis(20),
            failure_timeout: SimDuration::millis(250),
            lease_duration: SimDuration::millis(120),
        }
    }
}

/// Messages exchanged by membership agents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RmMsg {
    /// Liveness beacon; also renews leases. Carries the sender's view
    /// epoch so a node that missed a `Decided` dissemination is noticed
    /// and re-taught — without this, one lost message could leave a
    /// member on a stale epoch forever.
    Heartbeat {
        /// Epoch of the sender's current view.
        epoch: Epoch,
    },
    /// A Paxos message deciding a view change.
    Paxos(PaxosMsg),
    /// Dissemination of a decided view (learners catch up from this).
    Decided(MembershipView),
    /// A node outside the group asks to be admitted as a shadow
    /// (`promote == false`), or a shadow that finished catch-up asks to
    /// become a full member (`promote == true`). Members answer with
    /// `Decided(current_view)` so a restarted node learns where the group
    /// is, then drive the reconfiguration (paper §3.4, *Recovery*).
    Join {
        /// Whether the sender asks for promotion (it is already a shadow).
        promote: bool,
    },
}

/// Actions requested by an [`RmNode`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RmEffect {
    /// Send a message to one peer.
    Send(NodeId, RmMsg),
    /// Send a message to every other member (and shadow).
    Broadcast(RmMsg),
    /// A new view was decided/learned: install it into the data-plane
    /// protocol (`HermesNode::on_membership_update` or a baseline's
    /// equivalent).
    InstallView(MembershipView),
    /// This shadow asks the given member to stream it the replicated
    /// state (bulk catch-up, paper §3.4); each of the source's lanes ends
    /// its stream with a mark fed to [`RmNode::on_sync_mark`].
    SyncRequest(NodeId),
}

/// The membership agent running next to each replica (paper §2.4, §3.4).
///
/// Responsibilities:
/// * broadcast heartbeats and track peers' last-heard times;
/// * maintain this node's **lease**: valid while a majority of the current
///   view has been heard from within the lease duration — a minority
///   partition therefore loses its lease and stops serving (CAP choice of
///   consistency, paper §3.4);
/// * after a member has been silent past the failure timeout *and* its
///   lease has provably expired, propose a view without it via single-decree
///   Paxos among the current members (majority quorum);
/// * learn and disseminate decided views;
/// * re-admit a node that started outside the view (a restarted replica,
///   paper §3.4 *Recovery*): it asks to join as a shadow, requests bulk
///   catch-up once admitted, and asks for promotion once every lane of the
///   sync source has reported done. It serves only after all three.
#[derive(Debug)]
pub struct RmNode {
    me: NodeId,
    cfg: RmConfig,
    view: MembershipView,
    last_heard: BTreeMap<NodeId, SimTime>,
    suspected_at: BTreeMap<NodeId, SimTime>,
    proposer: Option<Paxos>,
    proposer_started: SimTime,
    acceptor: AcceptorState,
    acceptor_instance: u64,
    last_heartbeat: SimTime,
    /// Pending join request (node, as full member after catch-up?).
    pending_join: Option<(NodeId, bool)>,
    /// Peers whose connection the transport reported dead
    /// ([`RmNode::on_peer_down`]); suspected regardless of silence until
    /// they are heard from again.
    down_hints: NodeSet,
    /// Current members that announced a blank restart (`Join` while still
    /// in the view), as `node → (first seen, last refreshed)`. A genuinely
    /// blank node re-sends `Join` on a cadence, so its mark stays fresh and
    /// — once sustained past [`REJOIN_SUSTAIN_HEARTBEATS`] — drives
    /// suspicion no matter how alive its control traffic looks (its data
    /// plane is gone). A *stale* one-off `Join` from a node that has since
    /// been readmitted and promoted is never refreshed and expires after
    /// [`REJOIN_MARK_STALE_HEARTBEATS`], long before it could evict the
    /// healthy member.
    rejoining: BTreeMap<NodeId, (SimTime, SimTime)>,
    /// Whether this node started outside the group and has not finished
    /// joining it.
    joining: bool,
    /// Whether shadow bulk catch-up completed (true for founding members).
    synced: bool,
    last_join: Option<SimTime>,
    last_sync_request: Option<SimTime>,
    /// Lanes of the sync source that finished streaming to this shadow,
    /// and the lane count their marks announced.
    marks: BTreeSet<u32>,
    lanes_expected: Option<u32>,
}

/// A joiner re-sends its `Join` every this many heartbeat intervals.
const JOIN_RETRY_HEARTBEATS: u64 = 4;

/// A shadow re-requests its bulk catch-up after this long without
/// completing it (lost chunks re-stream; installs are idempotent by
/// timestamp).
const SYNC_RETRY: SimDuration = SimDuration::millis(250);

/// Without a refreshing `Join` for this many heartbeat intervals, a
/// blank-restart mark is dropped as a stale one-off. Joiners re-send every
/// [`JOIN_RETRY_HEARTBEATS`], so two misses mean the sender stopped asking.
const REJOIN_MARK_STALE_HEARTBEATS: u64 = 8;

/// A blank-restart mark must be continuously sustained (kept refreshed)
/// this long before it drives suspicion — strictly longer than the stale
/// window above, so a one-off burst of delayed `Join`s can never evict a
/// healthy member.
const REJOIN_SUSTAIN_HEARTBEATS: u64 = 12;

impl RmNode {
    /// Creates an agent for `me` starting from `view` at time `now`. A
    /// view that does not list `me` as a member makes it a joiner: it
    /// serves nothing until it has been admitted as a shadow, caught up
    /// and promoted.
    pub fn new(me: NodeId, view: MembershipView, cfg: RmConfig, now: SimTime) -> Self {
        let joining = !view.members.contains(me);
        let mut last_heard = BTreeMap::new();
        for n in view.ack_set() {
            last_heard.insert(n, now);
        }
        RmNode {
            me,
            cfg,
            view,
            last_heard,
            suspected_at: BTreeMap::new(),
            proposer: None,
            proposer_started: now,
            acceptor: AcceptorState::default(),
            acceptor_instance: view.epoch.0 + 1,
            last_heartbeat: now,
            pending_join: None,
            down_hints: NodeSet::EMPTY,
            rejoining: BTreeMap::new(),
            joining,
            synced: !joining,
            last_join: None,
            last_sync_request: None,
            marks: BTreeSet::new(),
            lanes_expected: None,
        }
    }

    /// The current view.
    pub fn view(&self) -> MembershipView {
        self.view
    }

    /// This node's id.
    pub fn node_id(&self) -> NodeId {
        self.me
    }

    /// Whether this node's lease is valid at `now`: a majority of the
    /// current members (including itself) were heard within the lease
    /// duration. Serving any client request requires a valid lease.
    pub fn lease_valid(&self, now: SimTime) -> bool {
        let members = self.view.members;
        let quorum = members.len() / 2 + 1;
        let fresh = members
            .iter()
            .filter(|&n| {
                n == self.me
                    || self
                        .last_heard
                        .get(&n)
                        .is_some_and(|&t| now.saturating_since(t) <= self.cfg.lease_duration)
            })
            .count();
        fresh >= quorum
    }

    /// Whether this node may serve client requests at `now`: full member
    /// of the current view, holding a valid lease (paper §3.4 — a minority
    /// partition loses its lease and stops serving), *and* caught up. The
    /// last matters only for joiners: a blank-restarted node that a race
    /// left listed as a member must never serve its empty store, however
    /// the view reads.
    pub fn serving(&self, now: SimTime) -> bool {
        self.view.is_serving(self.me) && self.lease_valid(now) && self.synced
    }

    /// Whether shadow bulk catch-up has completed (true for founding
    /// members).
    pub fn synced(&self) -> bool {
        self.synced
    }

    /// Periodic driver: heartbeats, failure detection, lease-gated
    /// reconfiguration proposals and proposer retries, and a joiner's
    /// admission, catch-up and promotion requests.
    ///
    /// Call roughly every [`RmConfig::heartbeat_interval`].
    pub fn on_tick(&mut self, now: SimTime, fx: &mut Vec<RmEffect>) {
        // Heartbeat.
        if now.saturating_since(self.last_heartbeat) >= self.cfg.heartbeat_interval {
            self.last_heartbeat = now;
            fx.push(RmEffect::Broadcast(RmMsg::Heartbeat {
                epoch: self.view.epoch,
            }));
        }

        // Expire blank-restart marks that stopped being refreshed (a
        // stale one-off Join from a node that has since been readmitted).
        let stale_after = self.cfg.heartbeat_interval * REJOIN_MARK_STALE_HEARTBEATS;
        self.rejoining
            .retain(|_, &mut (_, last)| now.saturating_since(last) <= stale_after);

        // Failure detection over current members (not self): silence past
        // the timeout, a transport-reported disconnect not yet followed by
        // any message from the peer, or a sustained blank-restart mark.
        let sustain = self.cfg.heartbeat_interval * REJOIN_SUSTAIN_HEARTBEATS;
        for n in self.view.members.iter().chain(self.view.shadows.iter()) {
            if n == self.me {
                continue;
            }
            let heard = self.last_heard.get(&n).copied().unwrap_or(SimTime::ZERO);
            let blank_restart = self
                .rejoining
                .get(&n)
                .is_some_and(|&(since, _)| now.saturating_since(since) >= sustain);
            if now.saturating_since(heard) > self.cfg.failure_timeout
                || self.down_hints.contains(n)
                || blank_restart
            {
                self.suspected_at.entry(n).or_insert(now);
            } else {
                self.suspected_at.remove(&n);
            }
        }

        // Reconfiguration proposal: only the lowest live member proposes
        // (ballots still make concurrent proposers safe; this just avoids
        // duels), only while holding a valid lease, and only after the
        // suspect's own lease has certainly expired.
        if self.proposer.is_none() && self.lease_valid(now) {
            let next_view = self.next_view_proposal(now);
            if let Some(view) = next_view {
                if self.is_designated_proposer() {
                    let paxos = Paxos::new(
                        view.epoch.0,
                        Ballot::initial(self.me),
                        view,
                        self.view.members,
                    );
                    fx.push(RmEffect::Broadcast(RmMsg::Paxos(paxos.prepare())));
                    // A proposer is its own acceptor too.
                    self.proposer = Some(paxos);
                    self.proposer_started = now;
                    self.self_deliver_prepare(fx);
                }
            }
        } else if let Some(p) = self.proposer.as_mut() {
            // Stalled proposal (lost messages / ballot duel): retry higher.
            if !p.is_decided()
                && now.saturating_since(self.proposer_started) > self.cfg.heartbeat_interval * 4
            {
                let floor = p.ballot();
                p.restart_above(floor);
                self.proposer_started = now;
                let prepare = p.prepare();
                fx.push(RmEffect::Broadcast(RmMsg::Paxos(prepare)));
                self.self_deliver_prepare(fx);
            }
        }
        if self.joining {
            self.drive_join(now, fx);
        }
    }

    /// A joiner's side of recovery (paper §3.4): outside the group it asks
    /// for shadow admission, as a shadow it (re-)requests bulk catch-up
    /// from the lowest member until synced, then asks for promotion.
    fn drive_join(&mut self, now: SimTime, fx: &mut Vec<RmEffect>) {
        let me = self.me;
        if self.view.members.contains(me) {
            // Promoted once synced: the join is complete. Unsynced, a race
            // listed us as a member while our store is still blank
            // (restarted before the group noticed the crash): serve
            // nothing, and wait for the members to remove us — our next
            // admission request then runs the normal shadow path.
            self.joining = !self.synced;
            return;
        }
        let outside = !self.view.ack_set().contains(me);
        if outside || self.synced {
            let every = self.cfg.heartbeat_interval * JOIN_RETRY_HEARTBEATS;
            if self
                .last_join
                .is_none_or(|at| now.saturating_since(at) >= every)
            {
                self.last_join = Some(now);
                let promote = !outside;
                fx.push(RmEffect::Broadcast(RmMsg::Join { promote }));
            }
        } else if self
            .last_sync_request
            .is_none_or(|at| now.saturating_since(at) >= SYNC_RETRY)
        {
            self.last_sync_request = Some(now);
            if let Some(source) = self.view.members.min() {
                fx.push(RmEffect::SyncRequest(source));
            }
        }
    }

    /// One lane of the sync source finished streaming to this shadow, out
    /// of `lanes` lanes in all. Catch-up completes once every lane has
    /// reported; marks announcing another lane count restart the tally.
    pub fn on_sync_mark(&mut self, lane: u32, lanes: u32) {
        if self.lanes_expected != Some(lanes) {
            self.marks.clear();
            self.lanes_expected = Some(lanes);
        }
        self.marks.insert(lane);
        let shadow = self.view.shadows.contains(self.me);
        if shadow && self.marks.len() as u32 >= lanes {
            self.synced = true;
        }
    }

    fn is_designated_proposer(&self) -> bool {
        // Lowest member that is not itself suspected.
        self.view
            .members
            .iter()
            .find(|n| !self.suspected_at.contains_key(n))
            == Some(self.me)
    }

    fn next_view_proposal(&self, now: SimTime) -> Option<MembershipView> {
        // Prefer removing a failed node; otherwise process a pending join.
        let expired: NodeSet = (self.suspected_at.iter())
            .filter(|(_, &t)| now.saturating_since(t) >= self.cfg.lease_duration)
            .map(|(&n, _)| n)
            .collect();
        if !expired.is_empty() {
            let members = self.view.members.difference(expired);
            let shadows = self.view.shadows.difference(expired);
            let epoch = self.view.epoch.next();
            // Never propose an empty membership.
            let view = MembershipView {
                epoch,
                members,
                shadows,
            };
            return (!members.is_empty()).then_some(view);
        }
        match self.pending_join {
            Some((node, false)) if !self.view.ack_set().contains(node) => {
                Some(self.view.with_shadow(node))
            }
            Some((node, true)) if self.view.shadows.contains(node) => {
                Some(self.view.with_promoted(node))
            }
            _ => None,
        }
    }

    fn self_deliver_prepare(&mut self, fx: &mut Vec<RmEffect>) {
        // The proposer is also an acceptor; short-circuit its own vote.
        let Some(p) = self.proposer.as_ref() else {
            return;
        };
        let instance = p.instance;
        let ballot = p.ballot();
        let reply = self.acceptor_for(instance).on_prepare(instance, ballot);
        self.handle_paxos_reply_to_self(reply, fx);
    }

    fn acceptor_for(&mut self, instance: u64) -> &mut AcceptorState {
        if instance != self.acceptor_instance {
            // New instance: fresh acceptor state (old instances are decided).
            self.acceptor = AcceptorState::default();
            self.acceptor_instance = instance;
        }
        &mut self.acceptor
    }

    fn handle_paxos_reply_to_self(&mut self, reply: PaxosMsg, fx: &mut Vec<RmEffect>) {
        let me = self.me;
        self.on_paxos(me, reply, fx);
    }

    /// Handles a message from `from`.
    pub fn on_message(&mut self, from: NodeId, msg: RmMsg, now: SimTime, fx: &mut Vec<RmEffect>) {
        self.last_heard.insert(from, now);
        self.down_hints.remove(from);
        match msg {
            RmMsg::Heartbeat { epoch } => {
                // A stale-epoch peer missed a Decided dissemination (lost
                // message / dead connection): re-teach it. Never teach a
                // blank-restarted member though — it must stay ignorant of
                // the current view until its removal is decided, else it
                // would believe its join complete while its store is
                // blank.
                if epoch < self.view.epoch && !self.rejoining.contains_key(&from) {
                    fx.push(RmEffect::Send(from, RmMsg::Decided(self.view)));
                }
            }
            RmMsg::Decided(view) => self.learn(view, fx),
            RmMsg::Paxos(p) => self.on_paxos(from, p, fx),
            RmMsg::Join { promote } => self.on_join(from, promote, now, fx),
        }
    }

    /// Handles a join/promotion request from `from` (only members act on
    /// these; everyone else lets the current members drive the change).
    fn on_join(&mut self, from: NodeId, promote: bool, now: SimTime, fx: &mut Vec<RmEffect>) {
        if !self.view.members.contains(self.me) {
            return;
        }
        // A shadow-admission request from a *current full member* means the
        // node crashed and restarted blank before the failure detector
        // noticed (its boot view excludes itself, so it drops data-plane
        // traffic while still owing ACKs — left in the view it would stall
        // every write, and its own join/heartbeat traffic would keep the
        // failure detector from ever removing it). Record (or refresh) its
        // blank-restart mark — sustained refreshes drive its removal — and
        // do NOT teach it the current view: taught, it would think its join
        // completed and serve from a blank store. Once the shrunk view is
        // decided, its next request is a normal outside-the-group
        // admission (and it is taught then).
        if !promote && self.view.members.contains(from) && from != self.me {
            let since = self.rejoining.get(&from).map_or(now, |&(s, _)| s);
            self.rejoining.insert(from, (since, now));
            return;
        }
        // The requester may have restarted with a stale (or blank) idea of
        // the group: teach it the current view.
        fx.push(RmEffect::Send(from, RmMsg::Decided(self.view)));
        let eligible = if promote {
            self.view.shadows.contains(from)
        } else {
            !self.view.ack_set().contains(from)
        };
        if eligible {
            self.pending_join = Some((from, promote));
        }
    }

    /// Hints that the transport saw `peer`'s connection die (a TCP reader
    /// observed EOF). The peer is suspected immediately instead of waiting
    /// out the full silence window, and its last-heard time is backdated
    /// so it stops counting toward this node's lease. If the peer is
    /// actually alive (a transient disconnect), its next message clears
    /// both — and the lease-expiry wait before any reconfiguration still
    /// applies either way.
    pub fn on_peer_down(&mut self, peer: NodeId, now: SimTime) {
        if peer == self.me || !self.view.ack_set().contains(peer) {
            return;
        }
        let backdated = SimTime::from_nanos(
            now.as_nanos()
                .saturating_sub(self.cfg.failure_timeout.as_nanos() + 1),
        );
        self.last_heard.insert(peer, backdated);
        self.down_hints.insert(peer);
        self.suspected_at.entry(peer).or_insert(now);
    }

    fn on_paxos(&mut self, from: NodeId, msg: PaxosMsg, fx: &mut Vec<RmEffect>) {
        match msg {
            PaxosMsg::Prepare { instance, ballot } => {
                if instance != self.view.epoch.0 + 1 {
                    // Stale or future instance; stale proposers catch up via
                    // Decided dissemination.
                    if instance <= self.view.epoch.0 {
                        fx.push(RmEffect::Send(from, RmMsg::Decided(self.view)));
                    }
                    return;
                }
                let reply = self.acceptor_for(instance).on_prepare(instance, ballot);
                self.route_paxos(from, reply, fx);
            }
            PaxosMsg::Accept {
                instance,
                ballot,
                view,
            } => {
                if instance != self.view.epoch.0 + 1 {
                    if instance <= self.view.epoch.0 {
                        fx.push(RmEffect::Send(from, RmMsg::Decided(self.view)));
                    }
                    return;
                }
                let reply = self
                    .acceptor_for(instance)
                    .on_accept(instance, ballot, view);
                self.route_paxos(from, reply, fx);
            }
            PaxosMsg::Promise {
                instance,
                ballot,
                accepted,
            } => {
                let Some(p) = self.proposer.as_mut() else {
                    return;
                };
                if p.instance != instance {
                    return;
                }
                if let Some(accept) = p.on_promise(from, ballot, accepted) {
                    fx.push(RmEffect::Broadcast(RmMsg::Paxos(accept.clone())));
                    // Self-vote on the accept as well.
                    if let PaxosMsg::Accept {
                        instance,
                        ballot,
                        view,
                    } = accept
                    {
                        let reply = self
                            .acceptor_for(instance)
                            .on_accept(instance, ballot, view);
                        self.handle_paxos_reply_to_self(reply, fx);
                    }
                }
            }
            PaxosMsg::Accepted { instance, ballot } => {
                let Some(p) = self.proposer.as_mut() else {
                    return;
                };
                if p.instance != instance {
                    return;
                }
                if let Some(view) = p.on_accepted(from, ballot) {
                    fx.push(RmEffect::Broadcast(RmMsg::Decided(view)));
                    self.learn(view, fx);
                }
            }
            PaxosMsg::Nack { promised, .. } => {
                if let Some(p) = self.proposer.as_mut() {
                    if !p.is_decided() {
                        p.restart_above(promised);
                        let prepare = p.prepare();
                        fx.push(RmEffect::Broadcast(RmMsg::Paxos(prepare)));
                        self.self_deliver_prepare(fx);
                    }
                }
            }
        }
    }

    fn route_paxos(&mut self, to: NodeId, reply: PaxosMsg, fx: &mut Vec<RmEffect>) {
        if to == self.me {
            self.handle_paxos_reply_to_self(reply, fx);
        } else {
            fx.push(RmEffect::Send(to, RmMsg::Paxos(reply)));
        }
    }

    fn learn(&mut self, view: MembershipView, fx: &mut Vec<RmEffect>) {
        if view.epoch <= self.view.epoch {
            return;
        }
        self.view = view;
        self.suspected_at.clear();
        self.down_hints = self.down_hints.intersection(view.ack_set());
        self.rejoining.retain(|n, _| view.members.contains(*n));
        self.proposer = None;
        self.acceptor = AcceptorState::default();
        self.acceptor_instance = view.epoch.0 + 1;
        if self.joining && !view.ack_set().contains(self.me) {
            // Removed before promotion: writes committed while outside
            // never reach this store, so a readmission catches up anew.
            (self.synced, self.lanes_expected, self.last_sync_request) = (false, None, None);
            self.marks.clear();
        }
        if let Some((node, promote)) = self.pending_join {
            // Clear satisfied join requests.
            let satisfied = if promote {
                view.members.contains(node)
            } else {
                view.ack_set().contains(node)
            };
            if satisfied {
                self.pending_join = None;
            }
        }
        fx.push(RmEffect::InstallView(view));
    }

    /// Members currently suspected by the local failure detector.
    pub fn suspects(&self) -> NodeSet {
        self.suspected_at.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_common::Epoch;
    use std::collections::VecDeque;

    /// Minimal harness routing RmMsg traffic between agents.
    struct Net {
        nodes: Vec<RmNode>,
        queue: VecDeque<(NodeId, NodeId, RmMsg)>,
        installed: Vec<(NodeId, MembershipView)>,
        crashed: NodeSet,
        /// Deterministic loss: drop every `drop_nth`-th delivery (0 = off).
        drop_nth: u64,
        delivered: u64,
    }

    impl Net {
        fn new(n: usize, cfg: RmConfig) -> Self {
            let view = MembershipView::initial(n);
            Net {
                nodes: (0..n)
                    .map(|i| RmNode::new(NodeId(i as u32), view, cfg, SimTime::ZERO))
                    .collect(),
                queue: VecDeque::new(),
                installed: Vec::new(),
                crashed: NodeSet::EMPTY,
                drop_nth: 0,
                delivered: 0,
            }
        }

        fn apply(&mut self, at: usize, fx: Vec<RmEffect>) {
            let me = NodeId(at as u32);
            for e in fx {
                match e {
                    RmEffect::Send(to, m) => self.queue.push_back((me, to, m)),
                    RmEffect::Broadcast(m) => {
                        let peers = self.nodes[at].view().broadcast_set(me);
                        for to in peers {
                            self.queue.push_back((me, to, m.clone()));
                        }
                    }
                    RmEffect::InstallView(v) => self.installed.push((me, v)),
                    // No data plane to catch up from.
                    RmEffect::SyncRequest(_) => {}
                }
            }
        }

        fn tick_all(&mut self, now: SimTime) {
            for i in 0..self.nodes.len() {
                if self.crashed.contains(NodeId(i as u32)) {
                    continue;
                }
                let mut fx = Vec::new();
                self.nodes[i].on_tick(now, &mut fx);
                self.apply(i, fx);
            }
            self.deliver_all(now);
        }

        fn deliver_all(&mut self, now: SimTime) {
            while let Some((from, to, msg)) = self.queue.pop_front() {
                if self.crashed.contains(from) || self.crashed.contains(to) {
                    continue;
                }
                self.delivered += 1;
                // Scrambled, aperiodic ~1-in-`drop_nth` loss: a plain
                // every-Nth pattern would align with the retry cadence and
                // deterministically kill the same message forever.
                let scrambled = self.delivered.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
                if self.drop_nth != 0 && scrambled.is_multiple_of(self.drop_nth) {
                    continue; // Injected message loss.
                }
                let mut fx = Vec::new();
                self.nodes[to.index()].on_message(from, msg, now, &mut fx);
                self.apply(to.index(), fx);
            }
        }
    }

    fn ms(n: u64) -> SimTime {
        SimTime::from_nanos(n * 1_000_000)
    }

    #[test]
    fn steady_state_no_reconfiguration() {
        let mut net = Net::new(3, RmConfig::default());
        for t in (0..500).step_by(10) {
            net.tick_all(ms(t));
        }
        assert!(net.installed.is_empty(), "no view change without failures");
        for n in &net.nodes {
            assert_eq!(n.view().epoch, Epoch(0));
            assert!(n.lease_valid(ms(500)));
            assert!(n.suspects().is_empty());
        }
    }

    #[test]
    fn crashed_node_is_detected_and_removed() {
        let mut net = Net::new(5, RmConfig::default());
        for t in (0..100).step_by(10) {
            net.tick_all(ms(t));
        }
        net.crashed.insert(NodeId(4));
        // Detection after 150ms silence + 40ms lease expiry ≈ within 300ms.
        for t in (100..500).step_by(10) {
            net.tick_all(ms(t));
        }
        let live: Vec<&RmNode> = net.nodes[..4].iter().collect();
        for n in live {
            assert_eq!(
                n.view().epoch,
                Epoch(1),
                "{} did not reconfigure",
                n.node_id()
            );
            assert!(!n.view().members.contains(NodeId(4)));
            assert_eq!(n.view().members.len(), 4);
        }
        // Every live node installed the new view exactly once.
        assert_eq!(net.installed.len(), 4);
    }

    #[test]
    fn reconfiguration_waits_for_lease_expiry() {
        let cfg = RmConfig::default();
        let mut net = Net::new(3, cfg);
        net.tick_all(ms(0));
        net.crashed.insert(NodeId(2));
        // Just after the failure timeout the node is suspected but its lease
        // may not have expired: no view change yet.
        for t in (0..=170).step_by(10) {
            net.tick_all(ms(t));
        }
        assert!(net.nodes[0].suspects().contains(NodeId(2)));
        assert_eq!(
            net.nodes[0].view().epoch,
            Epoch(0),
            "must wait for lease expiry"
        );
        // After suspicion + lease duration the view changes.
        for t in (180..300).step_by(10) {
            net.tick_all(ms(t));
        }
        assert_eq!(net.nodes[0].view().epoch, Epoch(1));
    }

    #[test]
    fn minority_partition_loses_lease_majority_keeps_it() {
        let mut net = Net::new(5, RmConfig::default());
        for t in (0..100).step_by(10) {
            net.tick_all(ms(t));
        }
        // Cut nodes 3 and 4 off (they still tick but traffic is dropped).
        net.crashed.insert(NodeId(3));
        net.crashed.insert(NodeId(4));
        for t in (100..400).step_by(10) {
            net.tick_all(ms(t));
        }
        // The majority reconfigured to {0,1,2}.
        assert_eq!(net.nodes[0].view().members.len(), 3);
        assert!(net.nodes[0].lease_valid(ms(400)));
        // The minority nodes (still on the old view, hearing nobody) have
        // expired leases and must not serve.
        assert!(!net.nodes[4].lease_valid(ms(400)));
    }

    #[test]
    fn sequential_failures_reconfigure_repeatedly() {
        let mut net = Net::new(5, RmConfig::default());
        net.tick_all(ms(0));
        net.crashed.insert(NodeId(4));
        for t in (0..400).step_by(10) {
            net.tick_all(ms(t));
        }
        assert_eq!(net.nodes[0].view().epoch, Epoch(1));
        net.crashed.insert(NodeId(3));
        for t in (400..800).step_by(10) {
            net.tick_all(ms(t));
        }
        assert_eq!(net.nodes[0].view().epoch, Epoch(2));
        assert_eq!(net.nodes[0].view().members.len(), 3);
    }

    #[test]
    fn join_as_shadow_then_promote() {
        let cfg = RmConfig::default();
        let view = MembershipView::initial(3);
        let mut net = Net::new(4, cfg);
        // Node 3 starts outside the group: give everyone the 3-node view.
        for n in net.nodes.iter_mut() {
            *n = RmNode::new(n.node_id(), view, cfg, SimTime::ZERO);
        }
        // Its first tick broadcasts `Join { promote: false }`.
        for t in (0..200).step_by(10) {
            net.tick_all(ms(t));
        }
        assert!(net.nodes[0].view().shadows.contains(NodeId(3)));
        assert_eq!(net.nodes[0].view().epoch, Epoch(1));
        // Promote after catch-up: the only lane of its source reported, so
        // its next tick broadcasts `Join { promote: true }`.
        net.nodes[3].on_sync_mark(0, 1);
        for t in (200..400).step_by(10) {
            net.tick_all(ms(t));
        }
        assert!(net.nodes[0].view().members.contains(NodeId(3)));
        assert!(net.nodes[0].view().shadows.is_empty());
        assert_eq!(net.nodes[0].view().epoch, Epoch(2));
        // The joiner learned the views too.
        assert_eq!(net.nodes[3].view().epoch, Epoch(2));
    }

    #[test]
    fn peer_down_hint_accelerates_suspicion_but_heartbeats_clear_it() {
        let cfg = RmConfig::default();
        let mut net = Net::new(3, cfg);
        for t in (0..50).step_by(10) {
            net.tick_all(ms(t));
        }
        // The transport reports node 2's connection died: suspected on the
        // very next tick, long before the 150 ms silence timeout.
        net.nodes[0].on_peer_down(NodeId(2), ms(50));
        let mut fx = Vec::new();
        net.nodes[0].on_tick(ms(60), &mut fx);
        assert!(net.nodes[0].suspects().contains(NodeId(2)));
        // No reconfiguration yet: the suspect's lease has not expired.
        assert_eq!(net.nodes[0].view().epoch, Epoch(0));
        // The disconnect was transient — node 2 is alive and heartbeats:
        // suspicion clears and no view change ever happens.
        let mut fx = Vec::new();
        net.nodes[0].on_message(
            NodeId(2),
            RmMsg::Heartbeat { epoch: Epoch(0) },
            ms(70),
            &mut fx,
        );
        net.nodes[0].on_tick(ms(80), &mut fx);
        assert!(!net.nodes[0].suspects().contains(NodeId(2)));
        for t in (80..400).step_by(10) {
            net.tick_all(ms(t));
        }
        assert_eq!(net.nodes[0].view().epoch, Epoch(0), "no spurious removal");
    }

    #[test]
    fn peer_down_hint_plus_real_silence_reconfigures_after_lease_expiry() {
        let cfg = RmConfig::default();
        let mut net = Net::new(3, cfg);
        net.tick_all(ms(0));
        net.crashed.insert(NodeId(2));
        for n in 0..2 {
            net.nodes[n].on_peer_down(NodeId(2), ms(10));
        }
        // Suspicion is immediate; removal still waits out the lease.
        net.tick_all(ms(20));
        assert!(net.nodes[0].suspects().contains(NodeId(2)));
        assert_eq!(net.nodes[0].view().epoch, Epoch(0), "lease gate holds");
        for t in (20..80).step_by(10) {
            net.tick_all(ms(t));
        }
        // 10 ms hint + 40 ms lease: reconfigured well before the 150 ms
        // silence timeout alone would even suspect.
        assert_eq!(net.nodes[0].view().epoch, Epoch(1));
        assert!(!net.nodes[0].view().members.contains(NodeId(2)));
    }

    #[test]
    fn view_change_completes_despite_message_loss() {
        // Drop every 3rd delivery: heartbeats thin out but stay frequent
        // enough to hold leases, and the proposer's stalled-ballot retries
        // push the Paxos round through the lossy links.
        let mut net = Net::new(5, RmConfig::default());
        net.drop_nth = 3;
        for t in (0..100).step_by(10) {
            net.tick_all(ms(t));
        }
        net.crashed.insert(NodeId(4));
        for t in (100..1500).step_by(10) {
            net.tick_all(ms(t));
        }
        for n in &net.nodes[..4] {
            assert_eq!(n.view().epoch, Epoch(1), "{} stuck", n.node_id());
            assert!(!n.view().members.contains(NodeId(4)));
        }
    }

    #[test]
    fn join_message_drives_shadow_admission_then_promotion() {
        // The over-the-wire join path: the member acts on the joiner's
        // RmMsg::Join alone.
        let cfg = RmConfig::default();
        let view = MembershipView::initial(3);
        let mut net = Net::new(4, cfg);
        for n in net.nodes.iter_mut() {
            *n = RmNode::new(n.node_id(), view, cfg, SimTime::ZERO);
        }
        net.tick_all(ms(0));
        // Node 3 asks to join; the member teaches it the current view.
        let mut fx = Vec::new();
        net.nodes[0].on_message(NodeId(3), RmMsg::Join { promote: false }, ms(10), &mut fx);
        assert!(
            fx.contains(&RmEffect::Send(NodeId(3), RmMsg::Decided(view))),
            "member must teach the joiner the view: {fx:?}"
        );
        net.apply(0, fx);
        for t in (10..200).step_by(10) {
            net.tick_all(ms(t));
        }
        assert!(net.nodes[0].view().shadows.contains(NodeId(3)));
        assert_eq!(net.nodes[0].view().epoch, Epoch(1));
        assert_eq!(net.nodes[3].view().epoch, Epoch(1), "joiner learned it");
        // Caught up: the shadow asks for promotion (broadcast to every
        // member in the real runtime — the designated proposer, the lowest
        // live member, is the one whose pending request matters).
        for member in 0..2usize {
            let mut fx = Vec::new();
            net.nodes[member].on_message(
                NodeId(3),
                RmMsg::Join { promote: true },
                ms(210),
                &mut fx,
            );
            net.apply(member, fx);
        }
        for t in (210..400).step_by(10) {
            net.tick_all(ms(t));
        }
        assert!(net.nodes[0].view().members.contains(NodeId(3)));
        assert!(net.nodes[0].view().shadows.is_empty());
        assert_eq!(net.nodes[0].view().epoch, Epoch(2));
        assert_eq!(net.nodes[3].view().epoch, Epoch(2));
    }

    #[test]
    fn blank_restart_of_a_current_member_is_removed_then_readmitted() {
        // kill -9 + instant restart with --join, faster than the failure
        // detector: the node is still a full member of the group's view
        // when its admission requests arrive. It must first be removed
        // (its data plane is blank, so leaving it in the view would stall
        // every write while its control traffic keeps it "alive"), then
        // admitted as a shadow and promoted like any joiner.
        let cfg = RmConfig::default();
        let mut net = Net::new(3, cfg);
        for t in (0..50).step_by(10) {
            net.tick_all(ms(t));
        }
        // Node 2 restarts blank: boot view excludes itself, epoch 0.
        let boot = MembershipView {
            epoch: Epoch(0),
            members: NodeSet::first_n(3).without(NodeId(2)),
            shadows: NodeSet::EMPTY,
        };
        net.nodes[2] = RmNode::new(NodeId(2), boot, cfg, ms(50));
        // A joiner re-broadcasts its admission request on a cadence (and
        // the test adds more); sustained requests (not any single one) are
        // what drive the removal.
        let send_join = |net: &mut Net, t: u64, promote: bool| {
            for member in 0..2usize {
                let mut fx = Vec::new();
                net.nodes[member].on_message(NodeId(2), RmMsg::Join { promote }, ms(t), &mut fx);
                net.apply(member, fx);
            }
            net.deliver_all(ms(t));
        };
        // Removal first: blank-restart marks must be sustained past the
        // filter window, then the old incarnation's lease must expire.
        let mut t = 60;
        while t < 400 && net.nodes[0].view().epoch == Epoch(0) {
            send_join(&mut net, t, false);
            for step in (t..t + 40).step_by(10) {
                net.tick_all(ms(step));
            }
            t += 40;
        }
        assert_eq!(net.nodes[0].view().epoch, Epoch(1), "must remove first");
        assert!(!net.nodes[0].view().members.contains(NodeId(2)));
        // The restarted node was only re-taught the view *after* its
        // removal (its stale heartbeats get answered once unmarked): the
        // first view it installs is the one without it...
        for step in (t..t + 60).step_by(10) {
            net.tick_all(ms(step));
        }
        let taught = net.installed.iter().find(|(n, _)| *n == NodeId(2));
        assert_eq!(taught.map(|(_, v)| v.epoch), Some(Epoch(1)));
        // ...and its next requests run the normal join path: shadow, then
        // (after catch-up) promotion.
        send_join(&mut net, t + 60, false);
        for step in (t + 60..t + 200).step_by(10) {
            net.tick_all(ms(step));
        }
        assert!(net.nodes[0].view().shadows.contains(NodeId(2)));
        send_join(&mut net, t + 210, true);
        for step in (t + 210..t + 350).step_by(10) {
            net.tick_all(ms(step));
        }
        assert!(net.nodes[0].view().members.contains(NodeId(2)));
        assert_eq!(net.nodes[2].view().epoch, net.nodes[0].view().epoch);
    }

    #[test]
    fn stale_join_burst_from_a_healthy_member_never_evicts_it() {
        // The joiner re-broadcasts Join on a cadence; a burst of copies
        // can sit in a slow member's queue until after the admission +
        // promotion rounds complete elsewhere. Processing them then must
        // not evict the now-healthy member: an unrefreshed blank-restart
        // mark expires well before it may drive suspicion.
        let mut net = Net::new(3, RmConfig::default());
        net.tick_all(ms(0));
        for _ in 0..3 {
            let mut fx = Vec::new();
            net.nodes[0].on_message(NodeId(1), RmMsg::Join { promote: false }, ms(10), &mut fx);
            net.apply(0, fx);
        }
        for t in (20..400).step_by(10) {
            net.tick_all(ms(t));
            assert!(
                !net.nodes[0].suspects().contains(NodeId(1)),
                "one-off stale joins must never suspect a healthy member (t={t})"
            );
        }
        assert_eq!(
            net.nodes[0].view().epoch,
            Epoch(0),
            "healthy member evicted"
        );
    }

    #[test]
    fn promotion_requests_from_non_shadows_are_ignored() {
        // Promotion is only meaningful for a current shadow; a full member
        // (or a stranger) asking for it must not trigger any view change.
        // (A member's *admission* request is different: that signals a
        // blank restart and drives removal-then-readmission — see
        // `blank_restart_of_a_current_member_is_removed_then_readmitted`.)
        let mut net = Net::new(3, RmConfig::default());
        net.tick_all(ms(0));
        let mut fx = Vec::new();
        net.nodes[0].on_message(NodeId(1), RmMsg::Join { promote: true }, ms(20), &mut fx);
        net.apply(0, fx);
        for t in (30..400).step_by(10) {
            net.tick_all(ms(t));
        }
        assert_eq!(net.nodes[0].view().epoch, Epoch(0), "no spurious change");
    }

    #[test]
    fn no_reconfiguration_from_a_minority() {
        // With 3 of 5 nodes crashed, the 2 survivors cannot form a quorum
        // and must not install any new view.
        let mut net = Net::new(5, RmConfig::default());
        net.tick_all(ms(0));
        for dead in [2u32, 3, 4] {
            net.crashed.insert(NodeId(dead));
        }
        for t in (0..1000).step_by(10) {
            net.tick_all(ms(t));
        }
        assert_eq!(
            net.nodes[0].view().epoch,
            Epoch(0),
            "minority must not reconfigure"
        );
        assert!(
            !net.nodes[0].lease_valid(ms(1000)),
            "survivors lose their leases"
        );
    }

    fn joiner_view(n: usize, me: NodeId) -> MembershipView {
        let v = MembershipView::initial(n);
        MembershipView {
            epoch: v.epoch,
            members: v.members.without(me),
            shadows: NodeSet::EMPTY,
        }
    }

    fn joins(fx: &[RmEffect]) -> Vec<bool> {
        let join = |e: &RmEffect| match e {
            RmEffect::Broadcast(RmMsg::Join { promote }) => Some(*promote),
            _ => None,
        };
        fx.iter().filter_map(join).collect()
    }

    #[test]
    fn a_joiner_is_admitted_catches_up_and_is_promoted_on_hand_advanced_time() {
        let cfg = RmConfig::default();
        let me = NodeId(2);
        let mut rm = RmNode::new(me, joiner_view(3, me), cfg, SimTime::ZERO);
        let tick = |rm: &mut RmNode, t: u64| {
            let mut fx = Vec::new();
            rm.on_tick(ms(t), &mut fx);
            fx
        };
        let mut fx = Vec::new();
        let sync = RmEffect::SyncRequest(NodeId(0));
        // 1. Outside the group: admission asked every 4 heartbeats (40 ms).
        assert_eq!(joins(&tick(&mut rm, 0)), [false]);
        assert!(joins(&tick(&mut rm, 30)).is_empty());
        assert_eq!(joins(&tick(&mut rm, 40)), [false]);
        assert!(!rm.serving(ms(40)));
        // 2. The group admits it as a shadow.
        let shadow_view = joiner_view(3, me).with_shadow(me);
        rm.on_message(NodeId(0), RmMsg::Decided(shadow_view), ms(50), &mut fx);
        assert!(fx.contains(&RmEffect::InstallView(shadow_view)));
        // 3. Catch-up is requested from the lowest member, and requested
        //    again 250 ms later while a lane's mark is missing; a mark
        //    announcing another lane count restarts the tally.
        let fx60 = tick(&mut rm, 60);
        assert!(fx60.contains(&sync) && joins(&fx60).is_empty(), "{fx60:?}");
        rm.on_sync_mark(0, 3);
        rm.on_sync_mark(1, 2);
        assert!(!rm.synced());
        assert!(!tick(&mut rm, 300).contains(&sync), "re-asked too early");
        let fx310 = tick(&mut rm, 310);
        assert!(
            fx310.contains(&sync) && joins(&fx310).is_empty(),
            "{fx310:?}"
        );
        // 4. Every lane reported: promotion is asked for, catch-up is not.
        rm.on_sync_mark(0, 2);
        assert!(rm.synced());
        let fx320 = tick(&mut rm, 320);
        assert_eq!(joins(&fx320), [true]);
        assert!(!fx320.contains(&sync));
        assert!(!rm.serving(ms(320)), "a shadow does not serve");
        // 5. Promoted: it serves, and asks for nothing more.
        let member_view = shadow_view.with_promoted(me);
        rm.on_message(NodeId(0), RmMsg::Decided(member_view), ms(330), &mut fx);
        assert!(rm.serving(ms(330)));
        let after = tick(&mut rm, 400);
        assert!(joins(&after).is_empty() && !after.contains(&sync));
    }

    #[test]
    fn joiner_requests_shadow_admission_on_a_cadence() {
        let cfg = RmConfig::default();
        let me = NodeId(2);
        let mut d = RmNode::new(me, joiner_view(3, me), cfg, SimTime::ZERO);
        let mut fx = Vec::new();
        d.on_tick(ms(0), &mut fx);
        assert!(
            fx.contains(&RmEffect::Broadcast(RmMsg::Join { promote: false })),
            "first tick asks to join: {fx:?}"
        );
        // Not re-asked before the retry window elapses.
        fx.clear();
        d.on_tick(ms(10), &mut fx);
        assert!(!fx
            .iter()
            .any(|e| matches!(e, RmEffect::Broadcast(RmMsg::Join { .. }))));
        // Re-asked after it.
        fx.clear();
        d.on_tick(
            ms(10 + cfg.heartbeat_interval.as_nanos() / 1_000_000 * JOIN_RETRY_HEARTBEATS),
            &mut fx,
        );
        assert!(fx
            .iter()
            .any(|e| matches!(e, RmEffect::Broadcast(RmMsg::Join { promote: false }))));
    }

    #[test]
    fn shadow_requests_promotion_only_after_sync() {
        let cfg = RmConfig::default();
        let me = NodeId(2);
        let mut d = RmNode::new(me, joiner_view(3, me), cfg, SimTime::ZERO);
        let mut fx = Vec::new();
        // The group admits us as a shadow (learned via Decided).
        let shadow_view = joiner_view(3, me).with_shadow(me);
        d.on_message(NodeId(0), RmMsg::Decided(shadow_view), ms(0), &mut fx);
        assert_eq!(d.view().epoch, Epoch(1));
        assert!(!d.synced(), "fresh shadow must bulk-sync");
        fx.clear();
        d.on_tick(ms(100), &mut fx);
        assert!(
            !fx.iter()
                .any(|e| matches!(e, RmEffect::Broadcast(RmMsg::Join { .. }))),
            "no requests while catch-up runs: {fx:?}"
        );
        // Catch-up completes: promotion requested.
        d.on_sync_mark(0, 1);
        assert!(d.synced());
        fx.clear();
        d.on_tick(ms(200), &mut fx);
        assert!(fx
            .iter()
            .any(|e| matches!(e, RmEffect::Broadcast(RmMsg::Join { promote: true }))));
        // Promotion decided: the join state machine retires.
        fx.clear();
        d.on_message(
            NodeId(0),
            RmMsg::Decided(shadow_view.with_promoted(me)),
            ms(300),
            &mut fx,
        );
        assert!(fx.contains(&RmEffect::InstallView(shadow_view.with_promoted(me))));
        fx.clear();
        d.on_tick(ms(400), &mut fx);
        assert!(!fx
            .iter()
            .any(|e| matches!(e, RmEffect::Broadcast(RmMsg::Join { .. }))));
    }

    #[test]
    fn prematurely_admitted_blank_joiner_never_serves_and_rejoins_after_removal() {
        // The blank-restart race: a Decided that still lists the joiner as
        // a full member reaches it (e.g. disseminated for an unrelated
        // change). The joiner's store is blank, so it must not serve, must
        // keep its join machine alive, and must re-request admission once
        // the members remove it.
        let cfg = RmConfig::default();
        let me = NodeId(2);
        let mut d = RmNode::new(me, joiner_view(3, me), cfg, SimTime::ZERO);
        let mut fx = Vec::new();
        let full = MembershipView {
            epoch: Epoch(1),
            members: NodeSet::first_n(3),
            shadows: NodeSet::EMPTY,
        };
        d.on_message(NodeId(0), RmMsg::Decided(full), ms(0), &mut fx);
        assert!(d.view().members.contains(me), "race: listed as member");
        assert!(!d.serving(ms(0)), "blank store must never serve");
        fx.clear();
        d.on_tick(ms(100), &mut fx);
        assert!(
            !fx.iter()
                .any(|e| matches!(e, RmEffect::Broadcast(RmMsg::Join { .. }))),
            "nothing to request while waiting for removal: {fx:?}"
        );
        // The members notice (the Join they already processed marked us)
        // and remove us; we re-enter the normal admission path.
        let removed = full.without_node(me);
        fx.clear();
        d.on_message(NodeId(0), RmMsg::Decided(removed), ms(200), &mut fx);
        fx.clear();
        d.on_tick(ms(300), &mut fx);
        assert!(
            fx.iter()
                .any(|e| matches!(e, RmEffect::Broadcast(RmMsg::Join { promote: false }))),
            "must ask for admission again after removal: {fx:?}"
        );
    }

    /// A shadow removed after its catch-up and before its promotion
    /// missed every write committed while it was outside: readmitted, it
    /// asks for catch-up again, not for promotion on the strength of the
    /// old one (paper §3.4: a shadow is promoted only once caught up).
    #[test]
    fn a_readmitted_shadow_catches_up_again_before_asking_for_promotion() {
        let me = NodeId(2);
        let mut rm = RmNode::new(me, joiner_view(3, me), RmConfig::default(), SimTime::ZERO);
        let mut fx = Vec::new();
        let shadow_view = joiner_view(3, me).with_shadow(me);
        rm.on_message(NodeId(0), RmMsg::Decided(shadow_view), ms(0), &mut fx);
        rm.on_sync_mark(0, 1);
        assert!(rm.synced());
        let removed = shadow_view.without_node(me);
        rm.on_message(NodeId(0), RmMsg::Decided(removed), ms(10), &mut fx);
        assert!(
            !rm.synced(),
            "removed before promotion: the catch-up is void"
        );
        let readmitted = removed.with_shadow(me);
        rm.on_message(NodeId(0), RmMsg::Decided(readmitted), ms(20), &mut fx);
        fx.clear();
        rm.on_tick(ms(30), &mut fx);
        assert!(fx.contains(&RmEffect::SyncRequest(NodeId(0))), "{fx:?}");
        assert!(!joins(&fx).contains(&true), "{fx:?}");
    }

    #[test]
    fn member_serves_and_joiner_does_not() {
        let view = MembershipView::initial(3);
        let d = RmNode::new(NodeId(0), view, RmConfig::default(), SimTime::ZERO);
        assert!(
            d.serving(SimTime::ZERO),
            "founding member serves from the start"
        );
        let me = NodeId(2);
        let j = RmNode::new(me, joiner_view(3, me), RmConfig::default(), SimTime::ZERO);
        assert!(
            !j.serving(SimTime::ZERO),
            "joiner must not serve before promotion"
        );
    }
}
