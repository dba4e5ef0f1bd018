//! The thin host around a replica's [`Lane`]s: one [`Node`] owns the lane
//! threads, their queues and links, and the node-wide shared state,
//! whichever deployment shape wraps it
//! ([`ThreadCluster`](crate::ThreadCluster) is a `Vec<Node>`,
//! [`NodeRuntime`](crate::NodeRuntime) a `Node` plus a client plane).
//!
//! Per node:
//!
//! * every lane runs the same loop, [`lane_main`]: block in the lane's one
//!   [`Wait`] — the waker of its command queue (client operations, messages
//!   other threads received for it, control events) and its own links —
//!   sockets over TCP, an inbox in process (DESIGN.md §4) — then step the
//!   lane with the clock reading the loop took;
//! * a data-plane Wings frame is decoded by the lane that read it
//!   ([`route`]): each message its key puts on that lane is handled right
//!   there, and the rest go to the owning lanes' queues — which happens
//!   only when peers run different lane counts (DESIGN.md §7);
//! * lane 0 additionally carries the [`Pump`]: control frames (membership,
//!   shadow catch-up), connectivity events and the membership agent,
//!   stepped with the same clock reading as the lane — the node-wide
//!   duties that need one thread, not one per lane;
//! * all lanes mirror committed per-key state into one shared seqlock
//!   [`Store`], which serves cross-thread lock-free local reads (§4.1).

use crate::lane::{Command, Lane, Lanes, MLT, PUMP_LANE};
use crate::membership::{self, boot_view, MembershipStatus};
use crate::metrics::NodeObs;
use crate::poller::Shard;
use bytes::Bytes;
use hermes_common::{ClientOp, Key, MembershipView, NodeId, Reply, Value};
use hermes_core::{HermesNode, Msg, ProtocolConfig};
use hermes_membership::{wire, RmConfig, RmEffect, RmMsg, RmNode};
use hermes_net::{Endpoint, Inbox, LaneLinks, NetEvent, NetSender, Wait};
use hermes_obs::{obs_info, obs_warn, Phase, Span, TraceSpan};
use hermes_sim::SimTime;
use hermes_store::{SlotState, Store, StoreConfig};
use hermes_wings::control::{self, ControlMsg, SyncEntry};
use hermes_wings::{codec, decode_frame};
use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One running replica: its lanes and their threads (each with its share
/// of the links), and the state they share.
#[derive(Debug)]
pub(crate) struct Node {
    lanes: Lanes,
    threads: Vec<JoinHandle<()>>,
    running: Arc<AtomicBool>,
    store: Arc<Store>,
    status: Arc<MembershipStatus>,
    obs: Arc<NodeObs>,
}

/// The paper's local-read rule (§3.1) against a node's seqlock mirror, for
/// any thread that is not a lane — the CRCW fast path of §4.1: `key`'s
/// value if a read of it may be answered here and now. Lanes write the
/// mirror before any effect of a transition leaves them (DESIGN.md §3.3),
/// so whoever hears of a transition reads its outcome. `None` when the key
/// is invalidated (a protocol read would stall), or when the replica is
/// not serving (expired lease, deposed from the view, shadow): the mirror
/// may be stale then, and serving it would break linearizability.
/// `scratch` takes the seqlock snapshot, so a caller that keeps it pays
/// one allocation per read, the value's own.
pub(crate) fn mirror_read(
    store: &Store,
    status: &MembershipStatus,
    key: Key,
    scratch: &mut Vec<u8>,
) -> Option<Value> {
    if !status.serving() {
        return None;
    }
    match store.get(key, scratch).map(|meta| meta.state) {
        None => Some(Value::EMPTY),
        Some(SlotState::Valid) => Some(Value::from(Bytes::copy_from_slice(scratch))),
        Some(_) => None,
    }
}

/// One session's local reads (paper §3.1): the rule both session channels
/// apply before a read goes to its lane — a
/// [`LaneChannel`](crate::LaneChannel) on the session's own thread, the
/// hosting lane's `SessionMachine` in the pass that decoded the request. A
/// read is answered from the mirror ([`mirror_read`]: serving gate, `Valid`
/// slot) unless the session has an update of the same key in flight: the
/// lane pushes an issuer no invalidation of its own write, so a read that
/// overtook the update would leave the superseded value in the session's
/// cache for good (DESIGN.md §8). Each answer counts in
/// `hermes_mirror_reads_total`.
#[derive(Debug)]
pub(crate) struct LocalReads {
    store: Arc<Store>,
    status: Arc<MembershipStatus>,
    obs: Arc<NodeObs>,
    /// The session's submitted, uncompleted updates `(seq, key)`: at most
    /// one entry per credit, scanned linearly.
    own_updates: Vec<(u64, Key)>,
    scratch: Vec<u8>,
}

impl LocalReads {
    /// A fresh session's rule over a node's mirror, serving gate and
    /// counters.
    pub(crate) fn new(
        store: &Arc<Store>,
        status: &Arc<MembershipStatus>,
        obs: &Arc<NodeObs>,
    ) -> LocalReads {
        LocalReads {
            store: Arc::clone(store),
            status: Arc::clone(status),
            obs: Arc::clone(obs),
            own_updates: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// The reply to `cop` on `key` if the session may take it here and
    /// now, from the mirror; `None` sends the operation to its lane.
    pub(crate) fn answer(&mut self, key: Key, cop: &ClientOp) -> Option<Reply> {
        if cop.is_update() || self.own_updates.iter().any(|&(_, k)| k == key) {
            return None;
        }
        let value = mirror_read(&self.store, &self.status, key, &mut self.scratch)?;
        self.obs.mirror_reads.inc();
        Some(Reply::ReadOk(value))
    }

    /// `cop` on `key` went to its lane as the session's `seq`: an update
    /// keeps the session's reads of `key` off the mirror until its reply.
    pub(crate) fn submitted(&mut self, seq: u64, key: Key, cop: &ClientOp) {
        if cop.is_update() {
            self.own_updates.push((seq, key));
        }
    }

    /// The reply to the session's `seq` arrived.
    pub(crate) fn replied(&mut self, seq: u64) {
        self.own_updates.retain(|&(s, _)| s != seq);
    }
}

impl Node {
    /// Splits `ep` into one link set per lane and spawns the lane threads
    /// over them. With `client_port` — a bound client listener and the flag
    /// a session's shutdown request raises — every lane also hosts its
    /// share of the remote sessions ([`Shard`]), lane 0 accepting them.
    ///
    /// With `membership` set, lane 0's pump additionally hosts the node's
    /// membership agent ([`RmNode`]): heartbeats and view agreement ride as
    /// Wings control frames over the same transport, agreed views are
    /// installed into every lane, and client operations are lease-gated
    /// through [`Node::status`]. With `join`, the node boots outside the
    /// group and serves only once admitted, caught up and promoted.
    ///
    /// # Errors
    ///
    /// Fails if a lane's wait cannot be created or a socket registered in
    /// it.
    pub(crate) fn spawn<E: Endpoint>(
        ep: E,
        view: MembershipView,
        protocol: ProtocolConfig,
        workers: usize,
        client_port: Option<(TcpListener, Arc<AtomicBool>)>,
        membership: Option<RmConfig>,
        join: bool,
    ) -> io::Result<Node> {
        let me = ep.node_id();
        let boot = boot_view(view, me, join);
        let status = Arc::new(MembershipStatus::new(boot, boot.is_serving(me), !join));
        let waits = (0..workers).map(|_| Wait::new());
        let waits: Vec<Wait> = waits.collect::<io::Result<_>>()?;
        let queues: Vec<Inbox<Command>> = (0..workers).map(|_| Inbox::new()).collect();
        let posts = queues.iter().zip(&waits);
        let lanes = Lanes::new(posts.map(|(q, w)| q.poster(Some(w.waker()))).collect());
        let store = Arc::new(Store::new(StoreConfig::default()));
        let obs = Arc::new(NodeObs::new(me.0 as usize, workers));
        let plane = client_port.map(|(listener, shutdown)| {
            Shard::plane(listener, &waits, &lanes, &shutdown, &obs, &store, &status)
        });
        let mut shards = plane.transpose()?.map(Vec::into_iter);
        let links = ep.split(waits)?;
        let peers = view.members.union(view.shadows).len();
        membership::register(&obs.registry, &status, peers);
        obs.register_store(&store);
        let running = Arc::new(AtomicBool::new(true));
        let mut threads = Vec::new();
        for (index, (queue, links)) in queues.into_iter().zip(links).enumerate() {
            let shard = shards.as_mut().and_then(Iterator::next);
            let lane = Lane::new(
                index,
                workers,
                HermesNode::new(me, boot, protocol),
                Arc::clone(&store),
                links.sender(),
                Arc::clone(&status),
                Arc::clone(&obs),
            );
            let pump = (index == PUMP_LANE).then(|| Pump {
                obs: Arc::clone(&obs),
                membership: membership.map(|cfg| {
                    PumpMembership::new(
                        RmNode::new(me, boot, cfg, SimTime::ZERO),
                        lanes.clone(),
                        links.sender(),
                        Arc::clone(&status),
                        Arc::clone(&obs),
                    )
                }),
            });
            let (lanes, running) = (lanes.clone(), Arc::clone(&running));
            let thread = std::thread::Builder::new().name(format!("hermes-lane-{index}"));
            let handle = thread
                .spawn(move || lane_main(index, lane, links, queue, lanes, running, pump, shard));
            threads.push(handle.expect("spawn a lane thread"));
        }
        Ok(Node {
            lanes,
            threads,
            running,
            store,
            status,
            obs,
        })
    }

    /// The lanes' command queues.
    pub(crate) fn lanes(&self) -> &Lanes {
        &self.lanes
    }

    /// Live membership gauges (current view, serving state, view changes).
    pub(crate) fn status(&self) -> &Arc<MembershipStatus> {
        &self.status
    }

    /// Gauges, histograms and trace rings shared by every layer.
    pub(crate) fn obs(&self) -> &Arc<NodeObs> {
        &self.obs
    }

    /// Peer connections the transport observed dying.
    pub(crate) fn peer_disconnects(&self) -> u64 {
        self.obs.peer_downs.get()
    }

    /// Client operations handled per lane since start.
    pub(crate) fn lane_ops(&self) -> Vec<u64> {
        NodeObs::per_lane(&self.obs.lane_ops)
    }

    /// Peer messages handled per lane since start.
    pub(crate) fn lane_ingress(&self) -> Vec<u64> {
        NodeObs::per_lane(&self.obs.lane_ingress)
    }

    /// This node's metrics exposition ([`NodeObs`] and the rows added to
    /// its registry).
    pub(crate) fn metrics_text(&self) -> String {
        self.obs.registry.render()
    }

    /// Drains every captured trace span from this node's rings.
    pub(crate) fn trace_spans(&self) -> Vec<TraceSpan> {
        self.obs.drain_spans()
    }

    /// The seqlock mirror every lane of this node writes.
    pub(crate) fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Lock-free local read straight from the mirror, bypassing the lanes
    /// ([`mirror_read`]).
    pub(crate) fn read_local(&self, key: Key) -> Option<Value> {
        mirror_read(&self.store, &self.status, key, &mut Vec::new())
    }

    /// Tells every lane thread to exit without waiting for it, so a
    /// cluster's nodes wind down together rather than one after another.
    pub(crate) fn signal_stop(&self) {
        self.running.store(false, Ordering::SeqCst);
        self.lanes.fan_out(None, || Command::Shutdown);
    }

    /// Stops and joins the lane threads, and with them their links.
    pub(crate) fn stop(&mut self) {
        self.signal_stop();
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

/// Network ingress, as lane `lane` read it off its own links. A data-plane
/// Wings frame is decoded here and each message handed to the lane owning
/// its key: through `here` when that is this lane, else onto the owner's
/// queue. Control frames and connectivity events go to lane 0's pump, the
/// same way. Per-(peer, key) FIFO holds because each link is read by one
/// lane and a key's messages from it take one route. Returns `false` once
/// the lanes are gone (shutdown), closing the connection.
fn route(lanes: &Lanes, ev: NetEvent, lane: usize, here: &mut dyn FnMut(Command)) -> bool {
    let (from, frame) = match ev {
        NetEvent::Frame(from, frame) if !control::is_control(&frame) => (from, frame),
        ev if lane == PUMP_LANE => {
            here(Command::Net(ev));
            return true;
        }
        ev => return lanes.control(ev),
    };
    let Ok(msgs) = decode_frame(&frame) else {
        return true; // Malformed frame: drop it.
    };
    let mut alive = true;
    for raw in msgs {
        let Ok((msg, trace)) = codec::decode_traced(&raw) else {
            continue;
        };
        let key = msg.key();
        alive &= lanes.route(lane, key, Command::Deliver { from, msg, trace }, here);
    }
    alive
}

/// Follower-side fault hook: delay every incoming `INV` by this many
/// microseconds (`HERMES_FAULT_INV_DELAY_US`, read once). Used by the
/// trace-smoke harness to force one replica to be the slow hop of a
/// cross-node timeline; zero (the default) is free.
fn inv_delay_us() -> u64 {
    static DELAY: OnceLock<u64> = OnceLock::new();
    *DELAY.get_or_init(|| {
        std::env::var("HERMES_FAULT_INV_DELAY_US")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0)
    })
}

/// The loop of every lane thread. Fully event-driven: the lane blocks in
/// its links' one poll, which its command queue's waker and the poller of
/// the client sessions it hosts share with the links the lane reads, so a
/// lone client op or a lone frame at an idle node wakes exactly this lane,
/// at once (no idle-poll latency floor). What the lane reads itself is
/// handled inline — peer frames, then its sessions' requests; then
/// everything its queue holds, taken in one lock; then its timers and the
/// batch flush; last, its sessions' writes. Idle sleeps run to the next armed
/// timer deadline, capped at [`MLT`] so the shutdown flag stays responsive
/// and the pump's membership agent ticks finer than its heartbeat interval.
#[allow(clippy::too_many_arguments)]
fn lane_main<L: LaneLinks>(
    index: usize,
    mut lane: Lane<L::Sender>,
    mut links: L,
    mut commands: Inbox<Command>,
    lanes: Lanes,
    running: Arc<AtomicBool>,
    mut pump: Option<Pump<L::Sender>>,
    mut shard: Option<Shard>,
) {
    'pass: while running.load(Ordering::Relaxed) {
        let wait = (lane.next_deadline()).map_or(MLT, |at| {
            at.saturating_duration_since(Instant::now()).min(MLT)
        });
        let mut here = |cmd| run(&mut lane, &mut pump, cmd);
        links.poll(wait, &mut |ev| route(&lanes, ev, index, &mut here));
        if let Some(shard) = shard.as_mut() {
            shard.poll(&mut here);
        }
        for cmd in commands.take() {
            match cmd {
                Command::Shutdown => break 'pass,
                cmd @ (Command::Conn(..) | Command::Frame(..) | Command::Evict(_)) => {
                    if let Some(shard) = shard.as_mut() {
                        shard.on_command(cmd, &mut here);
                    }
                }
                cmd => here(cmd),
            }
        }
        let now = Instant::now();
        if let Some(m) = pump.as_mut().and_then(|p| p.membership.as_mut()) {
            m.tick(&mut lane, now);
        }
        lane.on_tick(now);
        if let Some(shard) = shard.as_mut() {
            shard.finish_pass();
        }
    }
    // What the last pass framed — a shutdown request's ack among it —
    // still leaves.
    if let Some(shard) = shard.as_mut() {
        shard.finish_pass();
    }
}

/// Steps `lane` with one command: control frames and connectivity events
/// go to the pump, everything else to the lane — an incoming `INV` after
/// the follower-stall fault hook.
fn run<S: NetSender>(lane: &mut Lane<S>, pump: &mut Option<Pump<S>>, cmd: Command) {
    match cmd {
        Command::Net(ev) => {
            if let Some(p) = pump.as_mut() {
                p.on_net(lane, ev, Instant::now());
            }
        }
        cmd => {
            let inv = matches!(
                cmd,
                Command::Deliver {
                    msg: Msg::Inv { .. },
                    ..
                }
            );
            let delay = if inv { inv_delay_us() } else { 0 };
            if delay > 0 {
                std::thread::sleep(Duration::from_micros(delay));
            }
            lane.handle(cmd, Instant::now());
        }
    }
}

/// Lane 0's extra duties: the node-wide events that need exactly one
/// thread — control frames, connectivity events, the membership agent.
struct Pump<S: NetSender> {
    obs: Arc<NodeObs>,
    membership: Option<PumpMembership<S>>,
}

impl<S: NetSender> Pump<S> {
    fn on_net(&mut self, lane: &mut Lane<S>, ev: NetEvent, now: Instant) {
        match ev {
            // Only control frames come this way, and only the membership
            // subsystem speaks them.
            NetEvent::Frame(from, frame) => {
                if let Some(m) = self.membership.as_mut() {
                    m.on_frame(lane, from, &frame, now);
                }
            }
            NetEvent::PeerDown(peer) => {
                // Surface the disconnect (tests/operators observe the
                // count). The data plane needs nothing — message-loss
                // timeouts cover whatever the dead connection swallowed —
                // but the failure detector takes it as an early suspicion
                // hint (a live peer's next heartbeat clears it, and the
                // lease-expiry wait still guards reconfiguration).
                self.obs.peer_downs.inc();
                if let Some(m) = self.membership.as_mut() {
                    let at = m.at(now);
                    m.rm.on_peer_down(peer, at);
                }
            }
            NetEvent::PeerUp(_) => {}
        }
    }
}

/// The live membership subsystem as hosted on a node's pump: the
/// [`RmNode`] agent, stepped with the lane loop's clock reading as virtual
/// time since `start`, whose effects travel as Wings control frames over
/// the node's existing transport, whose agreed views are installed into
/// every lane, and whose verdicts (serving, synced, view) the shared
/// [`MembershipStatus`] mirrors (DESIGN.md §5).
struct PumpMembership<S: NetSender> {
    rm: RmNode,
    /// The instant the agent's virtual time counts from.
    start: Instant,
    lanes: Lanes,
    net: S,
    status: Arc<MembershipStatus>,
    rmfx: Vec<RmEffect>,
    /// Last serving verdict; a true→false edge flushes client caches.
    was_serving: bool,
    /// Node-wide observability state (view-change outage accounting).
    obs: Arc<NodeObs>,
    /// Span covering the current not-serving window, if one is open.
    outage: Option<Span>,
}

impl<S: NetSender> PumpMembership<S> {
    fn new(
        rm: RmNode,
        lanes: Lanes,
        net: S,
        status: Arc<MembershipStatus>,
        obs: Arc<NodeObs>,
    ) -> Self {
        PumpMembership {
            rm,
            start: Instant::now(),
            lanes,
            net,
            status,
            rmfx: Vec::new(),
            was_serving: false,
            obs,
            outage: None,
        }
    }

    /// The agent's virtual time at `now`.
    fn at(&self, now: Instant) -> SimTime {
        let nanos = now.saturating_duration_since(self.start).as_nanos();
        SimTime::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
    }

    /// Runs one command on every lane: queued to the others, inline on
    /// the pump's own.
    fn on_every_lane(&self, lane: &mut Lane<S>, now: Instant, make: impl Fn() -> Command) {
        self.lanes.fan_out(Some(PUMP_LANE), &make);
        lane.handle(make(), now);
    }

    /// Installs one catch-up entry on the lane owning its key.
    fn install(&self, lane: &mut Lane<S>, entry: SyncEntry, now: Instant) {
        let (key, here) = (entry.key, &mut |cmd| lane.handle(cmd, now));
        self.lanes
            .route(PUMP_LANE, key, Command::InstallChunk(entry), here);
    }

    /// Periodic drive: the agent's tick (heartbeats, failure detection,
    /// view agreement, the join), then the serving gate.
    fn tick(&mut self, lane: &mut Lane<S>, now: Instant) {
        let at = self.at(now);
        self.rm.on_tick(at, &mut self.rmfx);
        self.apply_effects(lane, now);
        let serving = self.rm.serving(at);
        // The gate moves before the flush below is posted: a lane that
        // has framed a session's `Flush` then finds the gate closed, so no
        // mirror read refills the cache it just emptied (DESIGN.md §8).
        self.status.set_serving(serving);
        let (me, epoch) = (self.rm.node_id().0, self.rm.view().epoch.0);
        if self.was_serving && !serving {
            // Serving loss (lease expiry, deposed mid-reconfiguration):
            // clients must stop serving cached reads against this replica.
            // Best-effort within the lease grace period — a partitioned
            // client that cannot hear the flush also cannot be reached by
            // anything else; DESIGN.md §8 discusses the window.
            self.on_every_lane(lane, now, || Command::FlushClients);
            obs_warn!(
                "replica::membership",
                "node {me} stopped serving (epoch {epoch})"
            );
            if hermes_obs::recording_enabled() {
                self.outage = Some(Span::begin(Phase::ViewChangeStart));
            }
        }
        if !self.was_serving && serving {
            // Serving restored: close the outage span — the span's total is
            // exactly how long this replica refused operations, the paper's
            // headline failover metric (§5.3).
            if let Some(span) = self.outage.take() {
                let total = self
                    .obs
                    .pump_trace
                    .complete(&span, || format!("view_change epoch={epoch}"));
                self.obs.view_change_us.record(total);
                self.obs.view_outages.inc();
            }
            obs_info!("replica::membership", "node {me} serving (epoch {epoch})");
        }
        self.was_serving = serving;
    }

    /// Steps the agent with one membership payload from `from`; `false`
    /// (and nothing done) when it does not decode.
    fn on_control(&mut self, from: NodeId, payload: &[u8], at: SimTime) -> bool {
        let Ok(msg) = wire::decode(payload) else {
            return false;
        };
        self.rm.on_message(from, msg, at, &mut self.rmfx);
        true
    }

    /// Consumes one control frame (malformed ones are dropped).
    fn on_frame(&mut self, lane: &mut Lane<S>, from: NodeId, frame: &Bytes, now: Instant) {
        let Some(Ok(msg)) = control::decode(frame) else {
            return;
        };
        match msg {
            ControlMsg::Membership(payload) => {
                if self.on_control(from, &payload, self.at(now)) {
                    self.apply_effects(lane, now);
                }
            }
            // Every lane streams its shard.
            ControlMsg::SyncRequest => {
                self.on_every_lane(lane, now, || Command::SyncLane { to: from })
            }
            ControlMsg::SyncBatch { entries } => {
                for entry in entries {
                    self.install(lane, entry, now);
                }
            }
            ControlMsg::SyncMark { lane, lanes } => {
                self.rm.on_sync_mark(lane, lanes);
                self.status.set_synced(self.rm.synced());
            }
        }
    }

    fn apply_effects(&mut self, lane: &mut Lane<S>, now: Instant) {
        let mut fx = std::mem::take(&mut self.rmfx);
        for e in fx.drain(..) {
            match e {
                RmEffect::Send(to, msg) => self.net.send(to, rm_frame(&msg)),
                RmEffect::Broadcast(msg) => {
                    let frame = rm_frame(&msg);
                    let me = self.rm.node_id();
                    for to in self.rm.view().broadcast_set(me) {
                        self.net.send(to, frame.clone());
                    }
                }
                RmEffect::SyncRequest(to) => {
                    self.net.send(to, control::encode(&ControlMsg::SyncRequest))
                }
                RmEffect::InstallView(view) => {
                    if let Some(span) = self.outage.as_mut() {
                        span.mark(Phase::ViewChangeInstalled);
                    }
                    obs_info!(
                        "replica::membership",
                        "node {} installing view epoch={} members={}",
                        self.rm.node_id().0,
                        view.epoch.0,
                        view.members.len()
                    );
                    self.status.record_view(view);
                    // A readmitted shadow starts its catch-up over.
                    self.status.set_synced(self.rm.synced());
                    self.on_every_lane(lane, now, || Command::InstallView(view));
                }
            }
        }
        self.rmfx = fx;
    }
}

/// Encodes one membership message as a complete Wings control frame.
fn rm_frame(msg: &RmMsg) -> Bytes {
    control::encode(&ControlMsg::Membership(Bytes::from(wire::encode(msg))))
}

/// Where a lane unit test starts its hand-advanced clock: `lane.rs` itself
/// never reads one, not even under test.
#[cfg(test)]
pub(crate) fn test_epoch() -> Instant {
    Instant::now()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hermes_common::RmwOp;
    use hermes_store::SlotMeta;

    /// A fresh session's local reads at a replica, serving or not, whose
    /// mirror holds each of `valid` as a `Valid` slot.
    pub(crate) fn local_reads_over(valid: &[(Key, u64)], serving: bool) -> LocalReads {
        let store = Arc::new(Store::new(StoreConfig::default()));
        for &(key, v) in valid {
            store.put(key, SlotMeta::valid(1, 0), Value::from_u64(v).as_bytes());
        }
        let status = MembershipStatus::new(MembershipView::initial(1), serving, true);
        LocalReads::new(&store, &Arc::new(status), &Arc::new(NodeObs::new(0, 1)))
    }

    #[test]
    fn a_read_is_local_only_of_a_valid_key_at_a_serving_replica_past_no_own_update() {
        let read = ClientOp::Read;
        let ok = |v| Some(Reply::ReadOk(Value::from_u64(v)));
        let mut reads = local_reads_over(&[(Key(1), 10), (Key(2), 20)], true);
        assert_eq!(reads.answer(Key(1), &read), ok(10), "a Valid slot");
        let empty = Some(Reply::ReadOk(Value::EMPTY));
        assert_eq!(reads.answer(Key(9), &read), empty, "a key never written");
        let invalid = SlotMeta::invalid(2, 0);
        reads
            .store
            .put(Key(3), invalid, Value::from_u64(30).as_bytes());
        assert_eq!(reads.answer(Key(3), &read), None, "an Invalid slot");
        let write = ClientOp::Write(Value::from_u64(11));
        assert_eq!(reads.answer(Key(1), &write), None, "an update");

        let updates = [write, ClientOp::Rmw(RmwOp::FetchAdd { delta: 1 })];
        for update in updates {
            reads.submitted(7, Key(1), &update);
            assert_eq!(reads.answer(Key(1), &read), None, "behind {update:?}");
            assert_eq!(reads.answer(Key(2), &read), ok(20), "another key");
            reads.replied(6);
            assert_eq!(reads.answer(Key(1), &read), None, "another op's reply");
            reads.replied(7);
            assert_eq!(reads.answer(Key(1), &read), ok(10), "after its reply");
        }
        reads.submitted(8, Key(1), &read);
        assert_eq!(reads.answer(Key(1), &read), ok(10), "a read holds nothing");
        assert_eq!(reads.obs.mirror_reads.get(), 7);

        reads.status.set_serving(false);
        assert_eq!(reads.answer(Key(1), &read), None, "a replica not serving");
        assert_eq!(reads.answer(Key(9), &read), None);
        assert_eq!(reads.obs.mirror_reads.get(), 7);
    }

    /// A transport that drops everything.
    #[derive(Clone)]
    struct NoNet;

    impl NetSender for NoNet {
        fn node_id(&self) -> NodeId {
            NodeId(0)
        }

        fn send(&self, _: NodeId, _: Bytes) {}
    }

    #[test]
    fn garbage_control_payloads_are_rejected() {
        let me = NodeId(0);
        let view = MembershipView::initial(3);
        let lanes = Lanes::new(vec![Inbox::new().poster(None)]);
        let status = Arc::new(MembershipStatus::new(view, true, true));
        let obs = Arc::new(NodeObs::new(0, 1));
        let rm = RmNode::new(me, view, RmConfig::default(), SimTime::ZERO);
        let mut d = PumpMembership::new(rm, lanes, NoNet, status, obs);
        assert!(!d.on_control(NodeId(1), b"\xffnot-a-message", SimTime::ZERO));
        assert!(d.rmfx.is_empty());
        let hb = RmMsg::Heartbeat {
            epoch: hermes_common::Epoch(0),
        };
        assert!(d.on_control(NodeId(1), &wire::encode(&hb), SimTime::ZERO));
    }
}
