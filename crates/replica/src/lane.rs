//! One worker lane of a replica: a key shard's protocol engine plus
//! everything that interprets its effects — the client-cache hold rule,
//! the push-ack eviction, the message-loss timers, the Wings batcher, the
//! seqlock mirror and the trace marks (paper §4; DESIGN.md §3.3, §8).
//!
//! A [`Lane`] is stepped, never run: every entry point takes the current
//! instant ([`Lane::handle`], [`Lane::on_tick`]) and the lane itself never
//! reads a clock, sleeps, spawns, or looks at the environment. Its whole
//! I/O boundary is the [`NetSender`] it is generic over and the client
//! queues handed to it (an operation's [`ClientSink`], a subscriber's
//! hosting [`LaneQueue`]), all of which a unit test can fake — so
//! the hold rule and the eviction timer are tested below with no thread
//! and no socket, under a hand-advanced `Instant`. The thread that steps a
//! lane in production is `host::lane_main`.
//!
//! [`Command`] is a lane's mailbox and [`Lanes`] the one place that knows
//! which lane a per-key event belongs to.
//!
//! A key lives in its mirror slot; the engine holds an entry only while the
//! key has work in flight. [`Lane::step`] rebuilds a key's entry from its
//! slot before any engine call about it, and [`Lane::settle`] drops the
//! entry again once the key is quiescent (DESIGN.md §3.3 "The mirror").

use crate::host::mirror_read;
use crate::membership::MembershipStatus;
use crate::metrics::NodeObs;
use crate::timers::DeadlineQueue;
use bytes::Bytes;
use crossbeam::channel::Sender;
use hermes_common::{
    ClientId, ClientOp, Effect, Key, MembershipView, NodeId, OpId, Reply, RmwOp, ShardSpec, Value,
};
use hermes_core::{Fx, HermesNode, KeyState, Msg, Ts, UpdateKind};
use hermes_net::{NetEvent, NetSender, Waker};
use hermes_obs::{Phase, Span, TraceId};
use hermes_store::{SlotMeta, SlotState, Store, MAX_VALUE};
use hermes_wings::client::ServerFrame;
use hermes_wings::control::{self, ControlMsg, SyncEntry};
use hermes_wings::{codec, Batcher};
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Message-loss timeout (paper §3.4): retransmission/replay cadence.
pub(crate) const MLT: Duration = Duration::from_millis(25);
/// How long a lane waits for a remote subscriber to ack an invalidation
/// push before evicting it and releasing the held effects — the client
/// leg's analogue of the paper's bounded-delay assumption: a subscriber
/// that cannot ack within a few MLTs is treated as failed.
const PUSH_ACK_KICK: Duration = Duration::from_millis(75);
/// The lane whose thread also carries the node's pump (control frames,
/// connectivity events, the membership driver).
pub(crate) const PUMP_LANE: usize = 0;

/// Where a lane sends the reply of one client operation: an in-process
/// session's event queue, or the queue of the lane hosting a remote
/// session (DESIGN.md §7), which writes the frame to the session's socket
/// — this lane's own queue when it hosts the session.
///
/// Only a remote session subscribes to invalidation pushes (an in-process
/// one reads the mirror on its own thread, and that is its cache), so
/// pushes go to a subscriber's hosting [`LaneQueue`], in the same FIFO as
/// its replies: a read reply that fills a cache and the invalidation that
/// supersedes it arrive in emission order.
#[derive(Clone, Debug)]
pub(crate) enum ClientSink {
    /// An in-process session's event queue.
    Session(Sender<ServerFrame>),
    /// The queue of the lane hosting a remote session.
    Remote(LaneQueue),
}

impl ClientSink {
    /// Sends `client` one frame.
    pub(crate) fn send(&self, client: ClientId, frame: ServerFrame) {
        match self {
            ClientSink::Session(tx) => {
                let _ = tx.send(frame);
            }
            ClientSink::Remote(host) => host.frame(client, frame),
        }
    }
}

/// One lane's command queue and the waker of the wait its thread blocks in.
#[derive(Clone, Debug)]
pub(crate) struct LaneQueue {
    tx: Sender<Command>,
    waker: Arc<Waker>,
}

impl LaneQueue {
    /// Queues `cmd` and rings the lane; `false` once the lane is gone.
    pub(crate) fn post(&self, cmd: Command) -> bool {
        let sent = self.tx.send(cmd).is_ok();
        if sent {
            self.waker.wake();
        }
        sent
    }

    /// Queues `frame` for `client`, a remote session the lane hosts.
    pub(crate) fn frame(&self, client: ClientId, frame: ServerFrame) {
        self.post(Command::Frame(client, frame));
    }
}

/// Events delivered to one worker lane.
pub(crate) enum Command {
    /// A client operation routed to this lane.
    Op {
        op: OpId,
        key: Key,
        cop: ClientOp,
        reply: ClientSink,
    },
    /// A peer protocol message, decoded where its frame was read and
    /// handed to the lane owning its key.
    Deliver {
        /// The sending peer.
        from: NodeId,
        /// The decoded protocol message.
        msg: Msg,
        /// Cross-node trace context carried by the message's Wings frame
        /// ([`TraceId::NONE`] when the originating op was not sampled).
        trace: TraceId,
    },
    /// Control frames and connectivity events ([`PUMP_LANE`] only;
    /// consumed by the host's pump, never by the lane).
    Net(NetEvent),
    /// A reconfigured membership view (installed on every lane).
    InstallView(MembershipView),
    /// Stream this lane's committed per-key state to `to` as control-plane
    /// sync batches, finishing with a lane mark (shadow catch-up, paper
    /// §3.4 *Recovery*; a `SyncRequest` fans out to every lane).
    SyncLane {
        /// The catching-up shadow.
        to: NodeId,
    },
    /// Install one key's committed state during shadow catch-up (routed to
    /// the owning lane; newer-timestamp-wins).
    InstallChunk(SyncEntry),
    /// A remote session subscribes to invalidation pushes for `key`
    /// (routed to the owning lane). Acked with [`ServerFrame::Subscribed`]
    /// through `host`.
    Subscribe {
        /// Client-chosen request sequence, echoed in the ack.
        seq: u64,
        /// The subscribing session.
        client: ClientId,
        /// The key to watch.
        key: Key,
        /// The queue of the lane hosting the session: where its pushes go.
        host: LaneQueue,
    },
    /// A client drops its subscription to `key` (routed to the owning
    /// lane). Acked with [`ServerFrame::Unsubscribed`].
    Unsubscribe {
        /// Client-chosen request sequence, echoed in the ack.
        seq: u64,
        /// The unsubscribing client.
        client: ClientId,
        /// The key to stop watching.
        key: Key,
    },
    /// A remote session acknowledged one invalidation push for `key`,
    /// releasing held effects once every waiter has acked.
    InvalAck {
        /// The acking client.
        client: ClientId,
        /// The acked key.
        key: Key,
    },
    /// A client session ended (reaped or dropped): clear every
    /// subscription and pending ack it holds on this lane.
    DropClient {
        /// The departed client.
        client: ClientId,
    },
    /// This replica stopped serving (lease loss, deposed from the view):
    /// push [`ServerFrame::Flush`] to every subscriber so no client keeps
    /// serving cached reads against a replica that no longer may.
    FlushClients,
    /// A connection the listening lane accepted for this one to host as
    /// remote session `client` (consumed by the host's client shard, like
    /// the next two).
    Conn(TcpStream, ClientId),
    /// A frame for a remote session this lane hosts: the reply of an
    /// operation completed on some lane, or a push of the invalidation
    /// stream.
    Frame(ClientId, ServerFrame),
    /// A remote session this lane hosts is to be torn down.
    Evict(ClientId),
    /// Stop the lane's thread (consumed by the host).
    Shutdown,
}

/// The command queues of one node's lanes, and the one place that decides
/// which lane a per-key event goes to. Every send reports `false` once the
/// lane is gone (node shutting down).
#[derive(Clone, Debug)]
pub(crate) struct Lanes {
    queues: Vec<LaneQueue>,
    spec: ShardSpec,
}

impl Lanes {
    /// Per lane: its queue, and the waker of the wait its thread blocks in.
    pub(crate) fn new(queues: Vec<(Sender<Command>, Arc<Waker>)>) -> Self {
        let spec = ShardSpec::new(queues.len());
        let queues = queues.into_iter();
        let queues = queues.map(|(tx, waker)| LaneQueue { tx, waker }).collect();
        Lanes { queues, spec }
    }

    /// Worker lanes on this node.
    pub(crate) fn workers(&self) -> usize {
        self.queues.len()
    }

    /// The lane holding `key`'s engine state and subscriber registry: where
    /// every operation, peer message, subscription and catch-up chunk about
    /// `key` goes. Hermes has no ordering step to pin to one lane (paper §2.3).
    pub(crate) fn owner(&self, key: Key) -> usize {
        self.spec.owner(key)
    }

    /// Queues `cmd` on `lane` and rings the lane.
    pub(crate) fn send(&self, lane: usize, cmd: Command) -> bool {
        self.queues[lane].post(cmd)
    }

    /// `lane`'s queue: where the replies and pushes of the sessions it
    /// hosts go.
    pub(crate) fn queue(&self, lane: usize) -> LaneQueue {
        self.queues[lane].clone()
    }

    /// Hands `cmd`, an event about `key`, to `key`'s owner as seen from
    /// lane `lane`: through `here` when that is `lane` itself, else onto
    /// the owner's queue.
    pub(crate) fn route(
        &self,
        lane: usize,
        key: Key,
        cmd: Command,
        here: &mut dyn FnMut(Command),
    ) -> bool {
        match self.owner(key) {
            owner if owner == lane => {
                here(cmd);
                true
            }
            owner => self.send(owner, cmd),
        }
    }

    /// Submits a client operation; its reply goes to `reply`.
    pub(crate) fn op(&self, op: OpId, key: Key, cop: ClientOp, reply: ClientSink) -> bool {
        self.send(
            self.owner(key),
            Command::Op {
                op,
                key,
                cop,
                reply,
            },
        )
    }

    /// Hands a control frame or connectivity event to the pump.
    pub(crate) fn control(&self, ev: NetEvent) -> bool {
        self.send(PUMP_LANE, Command::Net(ev))
    }

    /// Sends one command to every lane except `skip` (the pump runs its
    /// own lane's copy inline).
    pub(crate) fn fan_out(&self, skip: Option<usize>, make: impl Fn() -> Command) {
        for lane in (0..self.queues.len()).filter(|&l| Some(l) != skip) {
            self.send(lane, make());
        }
    }

    /// A departed client: every lane clears what it holds for it.
    pub(crate) fn drop_client(&self, client: ClientId) {
        self.fan_out(None, || Command::DropClient { client });
    }
}

/// One lane's subscriber registry: who caches which of this lane's keys,
/// which pushes are still unacked, and the protocol effects held back
/// until they are.
#[derive(Default)]
struct LaneSubs {
    /// key → (client id → the queue of the lane hosting that session).
    by_key: HashMap<Key, HashMap<u64, LaneQueue>>,
    /// client id → keys it subscribes to on this lane (reap cleanup).
    by_client: HashMap<u64, HashSet<Key>>,
    /// Keys with unacked invalidation pushes: per waiting client, when
    /// each push it still owes an ack for was sent, oldest first. A waiter
    /// is evicted [`PUSH_ACK_KICK`] after its oldest.
    pending: HashMap<Key, HashMap<u64, VecDeque<Instant>>>,
    /// Last committed timestamp pushed per subscribed key — the change
    /// detector that turns "this drain touched k" into "k's value moved".
    pushed_ts: HashMap<Key, Ts>,
    /// Protocol effects held while their key has unacked pushes.
    held: HashMap<Key, Vec<Effect<Msg>>>,
}

/// One in-flight client operation: where its reply goes, plus (when
/// observability recording is on) its protocol-phase trace span.
struct PendingOp {
    reply: ClientSink,
    span: Option<Span>,
}

/// One worker lane: a shard's protocol engine plus the runtime state that
/// interprets its effects. Generic over the transport's transmit half.
pub(crate) struct Lane<S: NetSender> {
    lane: usize,
    /// Lanes on this node (announced in sync marks).
    workers: usize,
    node: HermesNode,
    store: Arc<Store>,
    net: S,
    batcher: Batcher,
    timers: DeadlineQueue,
    clients: HashMap<OpId, PendingOp>,
    /// Cached broadcast set of the current view, refreshed only on
    /// membership change (not rebuilt per effect drain).
    peers: Vec<NodeId>,
    /// The node-wide serving gate (lease validity × view membership),
    /// maintained by the pump's membership driver. One relaxed load per
    /// client operation.
    status: Arc<MembershipStatus>,
    /// Client subscriptions to this lane's keys (invalidation pushes).
    subs: LaneSubs,
    /// Node-wide gauges, latency histograms, trace rings, phase counters.
    obs: Arc<NodeObs>,
    /// Trace context of the event currently draining: outgoing frames from
    /// this drain carry it on the wire ([`codec::encode_traced`]). Set
    /// when a client op mints a sampled id or an ingress message carries
    /// one; [`TraceId::NONE`] otherwise — and then frames are
    /// byte-identical to the untraced codec.
    cur_trace: TraceId,
    /// Follower-side span of the sampled peer message being handled right
    /// now (so [`Lane::emit_effect`] can mark the ACK enqueue on it).
    net_span: Option<Span>,
    /// Follower-side INV spans awaiting their final `ack_write` mark: the
    /// ACK's frame is written to the peer socket at the next
    /// [`Lane::flush`], which completes them into the lane's ring.
    net_spans: Vec<(Span, Key)>,
    fx: Vec<Effect<Msg>>,
    /// Where mirror reads and admissions take their seqlock snapshot.
    scratch: Vec<u8>,
}

impl<S: NetSender> Lane<S> {
    pub(crate) fn new(
        lane: usize,
        workers: usize,
        node: HermesNode,
        store: Arc<Store>,
        net: S,
        status: Arc<MembershipStatus>,
        obs: Arc<NodeObs>,
    ) -> Self {
        let mut this = Lane {
            lane,
            workers,
            node,
            store,
            net,
            batcher: Batcher::new(1400, 32),
            timers: DeadlineQueue::new(),
            clients: HashMap::new(),
            peers: Vec::new(),
            status,
            subs: LaneSubs::default(),
            obs,
            cur_trace: TraceId::NONE,
            net_span: None,
            net_spans: Vec::new(),
            fx: Vec::new(),
            scratch: Vec::new(),
        };
        this.refresh_peers();
        this
    }

    /// When [`Lane::on_tick`] next has a message-loss timer to fire.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        self.timers.next_deadline()
    }

    fn refresh_peers(&mut self) {
        self.peers = self
            .node
            .view()
            .broadcast_set(self.node.node_id())
            .iter()
            .collect();
    }

    /// Runs one command at time `now`.
    pub(crate) fn handle(&mut self, cmd: Command, now: Instant) {
        match cmd {
            Command::Op {
                op,
                key,
                cop,
                reply,
            } => {
                self.obs.lane_ops[self.lane].inc();
                // Lease gate (paper §3.4): an expired lease — minority
                // partition, mid-view-change, shadow — refuses service
                // without touching the protocol.
                if !self.status.serving() {
                    reply.send(op.client, ServerFrame::Reply(op.seq, Reply::NotOperational));
                    return;
                }
                // A value the mirror cannot hold — no client frame carries
                // one, an in-process session can — is refused before the
                // engine replicates it.
                let stored = match &cop {
                    ClientOp::Write(v) | ClientOp::Rmw(RmwOp::CompareAndSwap { new: v, .. }) => {
                        v.len()
                    }
                    _ => 0,
                };
                if stored > MAX_VALUE {
                    reply.send(op.client, ServerFrame::Reply(op.seq, Reply::Unsupported));
                    return;
                }
                let issuer = op.client;
                // Mint the op's cross-node trace context here, at issue:
                // when sampled, every frame this op's protocol round emits
                // (INV out, and — via the ACK echo — VAL out) carries the
                // id, so follower-side phase marks land in *their* rings
                // tagged with it.
                let span = if hermes_obs::recording_enabled() {
                    let trace = hermes_obs::maybe_trace();
                    self.cur_trace = trace;
                    Some(Span::begin_traced(Phase::Issued, trace))
                } else {
                    self.cur_trace = TraceId::NONE;
                    None
                };
                self.clients.insert(op, PendingOp { reply, span });
                // A key the engine does not hold is idle: `Valid`, no update
                // in flight here, and an INV for it would be handled on this
                // thread. Its slot answers the read, as it would a session's.
                let idle = matches!(cop, ClientOp::Read) && self.node.entry(key).is_none();
                let read = || mirror_read(&self.store, &self.status, key, &mut self.scratch);
                if let Some(value) = idle.then(read).flatten() {
                    let reply = Reply::ReadOk(value);
                    self.emit_effect(Effect::Reply { op, reply }, now);
                    return;
                }
                self.step(key, |node, fx| node.on_client_op(op, key, cop, fx));
                self.drain_effects(Some(key), Some(issuer), Some(op), now);
            }
            Command::Deliver { from, msg, trace } => {
                self.obs.lane_ingress[self.lane].inc();
                self.handle_message(from, msg, trace, now);
            }
            Command::SyncLane { to } => self.sync_lane(to),
            Command::InstallChunk(entry) => self.install_chunk(entry, now),
            Command::Subscribe {
                seq,
                client,
                key,
                host,
            } => self.subscribe(seq, client, key, host),
            Command::Unsubscribe { seq, client, key } => self.unsubscribe(seq, client, key, now),
            Command::InvalAck { client, key } => self.ack_push(client, key, now),
            Command::DropClient { client } => self.drop_client(client, now),
            Command::FlushClients => self.flush_subscribers(now),
            Command::InstallView(view) => {
                // No single key was touched, and a placeholder would have
                // non-owner lanes overwrite the owner's slot. But the update
                // moves keys of this lane's own engine — the commit whose
                // last missing ACK was the removed replica's, the queued
                // update issued behind it: mirror those before anything
                // leaves. (The engine visits only the keys it holds, which
                // are the keys with work in flight.)
                let moved = self.node.on_membership_update(view, &mut self.fx);
                for &key in &moved {
                    self.mirror_key(key);
                }
                self.refresh_peers();
                // Subscribers must not serve entries cached under the old
                // view: flush them with the new epoch, and stop waiting on
                // acks from the old world (held effects go out now).
                self.flush_subscribers(now);
                self.drain_effects(None, None, None, now);
                for key in moved {
                    self.settle(key);
                }
            }
            // The host's: its loop consumes these before they get here.
            Command::Net(_)
            | Command::Conn(..)
            | Command::Frame(..)
            | Command::Evict(_)
            | Command::Shutdown => {}
        }
    }

    /// Processes a peer message this lane owns. `trace` is the cross-node
    /// trace context its frame carried; a sampled INV/VAL opens a
    /// follower-side span here so the originating coordinator's timeline
    /// gains this replica's ingress → apply → ack phases, and a sampled
    /// ACK re-arms `cur_trace` so the VAL broadcast it triggers inherits
    /// the id without the coordinator storing any per-op trace map.
    fn handle_message(&mut self, from: NodeId, msg: Msg, trace: TraceId, now: Instant) {
        let key = msg.key();
        let recording = hermes_obs::recording_enabled();
        if recording {
            if let Msg::Ack { .. } = msg {
                self.obs.invals_acked.inc();
            }
        }
        self.cur_trace = trace;
        let follower = match msg {
            Msg::Inv { .. } => Some(Phase::InvIngress),
            Msg::Val { .. } => Some(Phase::ValIngress),
            Msg::Ack { .. } => None,
        }
        .filter(|_| trace.is_sampled() && recording);
        self.net_span = follower.map(|ingress| Span::begin_traced(ingress, trace));
        self.step(key, |node, fx| node.on_message(from, msg, fx));
        if let Some(s) = self.net_span.as_mut() {
            s.mark(Phase::LocalApply);
        }
        self.drain_effects(Some(key), None, None, now);
        if let Some(span) = self.net_span.take() {
            if follower == Some(Phase::InvIngress) {
                // The ACK was enqueued during the drain; its final
                // `ack_write` mark lands when the batch is handed to the
                // transport (over TCP: to the kernel), at the next flush.
                self.net_spans.push((span, key));
            } else {
                self.obs.lane_traces[self.lane].complete(&span, || format!("val key={}", key.0));
            }
        }
    }

    /// The periodic step: fires every message-loss timer due at `now`,
    /// evicts subscribers whose invalidation acks are overdue, and flushes
    /// outstanding frames (opportunistic batching: never hold).
    pub(crate) fn on_tick(&mut self, now: Instant) {
        // Retransmissions belong to no single traced op: drop the trace
        // context so replayed frames go out untagged.
        self.cur_trace = TraceId::NONE;
        while let Some(key) = self.timers.pop_due(now) {
            // Re-arm first (retransmission cadence); effects may disarm.
            self.timers.arm(key, now + MLT);
            self.step(key, |node, fx| node.on_mlt_timeout(key, fx));
            self.drain_effects(Some(key), None, None, now);
        }
        self.kick_stalled_pushes(now);
        self.flush();
    }

    /// Emits every pending Wings frame into the node's shared egress, then
    /// closes follower-side INV spans: `send` has returned, so over TCP the
    /// ACK frame is in the kernel (this lane wrote it), and `ack_write` is
    /// their final phase mark.
    fn flush(&mut self) {
        let net = &self.net;
        self.batcher.flush_into(|to, frame| net.send(to, frame));
        for (mut span, key) in self.net_spans.drain(..) {
            span.mark(Phase::AckWrite);
            self.obs.lane_traces[self.lane].complete(&span, || format!("inv key={}", key.0));
        }
    }

    /// Installs one key's state from a shadow catch-up chunk
    /// (newer-timestamp-wins, [`HermesNode::install_chunk`]) and mirrors it
    /// so local reads observe the synced value.
    fn install_chunk(&mut self, e: SyncEntry, now: Instant) {
        self.obs.sync_chunks.inc();
        self.obs.sync_bytes.add(e.value.as_bytes().len() as u64);
        self.step(e.key, |node, _| {
            node.install_chunk(e.key, e.ts, e.value, e.kind)
        });
        // Catch-up moves a key's committed timestamp without a protocol
        // round and with no effects; subscribers still need to hear of it.
        self.drain_effects(Some(e.key), None, None, now);
    }

    /// The one way into the engine for an event on `key`: rebuilds the
    /// key's entry from its mirror slot when the engine does not hold it,
    /// then runs `event`. A key the engine does not hold is idle, and its
    /// slot holds all of it (`Valid`, timestamp, value, kind); an event on
    /// the engine's default for it instead would restart the key at
    /// `Ts::ZERO`.
    fn step(&mut self, key: Key, event: impl FnOnce(&mut HermesNode, &mut Fx)) {
        if self.node.entry(key).is_none() {
            let (ts, kind, value) = match self.store.get(key, &mut self.scratch) {
                Some(meta) => {
                    debug_assert_eq!(meta.state, SlotState::Valid, "{key} left the engine busy");
                    let value = Value::from(Bytes::copy_from_slice(&self.scratch));
                    (Ts::new(meta.version, meta.cid), slot_kind(meta), value)
                }
                None => (Ts::ZERO, UpdateKind::Write, Value::EMPTY),
            };
            self.node.install_chunk(key, ts, value, kind);
            self.count_resident();
        }
        event(&mut self.node, &mut self.fx);
    }

    /// Drops `key`'s engine entry once nothing on this lane needs it: the
    /// engine finds it quiescent ([`HermesNode::evict`]), no timer is armed
    /// for it, and no subscriber owes an ack for it — so the slot, written
    /// by the step that left the key so, already says `Valid`. Runs after a
    /// step's effects drained, or after its held effects were released.
    fn settle(&mut self, key: Key) {
        let busy = self.timers.is_armed(key) || self.subs.pending.contains_key(&key);
        if !busy && self.node.evict(key) {
            self.count_resident();
        }
    }

    /// Publishes how many keys this lane's engine holds.
    fn count_resident(&self) {
        let held = self.node.keys_touched() as u64;
        self.obs.resident_keys[self.lane].set(held);
    }

    /// `key`'s timestamp: the engine's while it holds the key, else the
    /// slot's.
    fn key_ts(&self, key: Key) -> Ts {
        match self.node.entry(key) {
            Some(e) => e.ts,
            None => (self.store.get(key, &mut Vec::new()))
                .map_or(Ts::ZERO, |meta| Ts::new(meta.version, meta.cid)),
        }
    }

    /// Streams this lane's per-key state to the catching-up shadow `to` as
    /// control frames, ending with this lane's mark. The state is read from
    /// the mirror slots this lane owns — every key, held by the engine or
    /// not. Entries are batched into [`ControlMsg::SyncBatch`] frames up to
    /// the [`SYNC_BATCH_BUDGET`](control::SYNC_BATCH_BUDGET) size cap,
    /// amortizing framing overhead across keys (one oversized value still
    /// ships alone). Values still in flight are safe to ship: anything
    /// non-final here has a coordinator driving it through the
    /// shadow-inclusive view, and the shadow merges by timestamp.
    fn sync_lane(&mut self, to: NodeId) {
        let (spec, mut slots) = (ShardSpec::new(self.workers), Vec::new());
        // Collected first: the visit holds a shard guard, and a send may
        // read the store.
        self.store.for_each(|key, meta, value| {
            if spec.owner(key) == self.lane {
                slots.push(SyncEntry {
                    key,
                    ts: Ts::new(meta.version, meta.cid),
                    kind: slot_kind(meta),
                    value: Value::from(Bytes::copy_from_slice(value)),
                });
            }
        });
        let mut entries: Vec<SyncEntry> = Vec::new();
        let mut batched = 0usize;
        for entry in slots {
            if !entries.is_empty() && batched + entry.wire_size() > control::SYNC_BATCH_BUDGET {
                let batch = ControlMsg::SyncBatch {
                    entries: std::mem::take(&mut entries),
                };
                self.net.send(to, control::encode(&batch));
                batched = 0;
            }
            batched += entry.wire_size();
            entries.push(entry);
        }
        if !entries.is_empty() {
            self.net
                .send(to, control::encode(&ControlMsg::SyncBatch { entries }));
        }
        let mark = ControlMsg::SyncMark {
            lane: self.lane as u32,
            lanes: self.workers as u32,
        };
        self.net.send(to, control::encode(&mark));
    }

    /// Mirrors `key`'s protocol state into the shared seqlock KVS (paper
    /// §4.1) so other threads serve lock-free local reads. A key with
    /// unacked cache pushes is mirrored as not readable whatever its state:
    /// until its subscribers ack, the transition is visible nowhere, and a
    /// read of it belongs at this lane, held with everything else (§8).
    /// Called on every transition; the store copies the value only when the
    /// timestamp moved, so a VAL, a commit or a released hold costs the
    /// metadata words.
    /// Only a key the engine holds is mirrored: the engine's default for
    /// any other would overwrite the key's only copy.
    fn mirror_key(&self, key: Key) {
        let Some(e) = self.node.entry(key) else {
            debug_assert!(false, "{key} mirrored from an engine that does not hold it");
            return;
        };
        let (ts, readable) = (e.ts, !self.subs.pending.contains_key(&key));
        let meta = if e.state == KeyState::Valid && readable {
            SlotMeta::valid(ts.version, ts.cid)
        } else {
            SlotMeta::invalid(ts.version, ts.cid)
        };
        let meta = meta.with_rmw(e.kind.is_rmw());
        self.store.put(key, meta, e.value.as_bytes());
    }

    /// Mirrors the touched key's state into the seqlock KVS so other
    /// threads can serve lock-free local reads (paper §4.1), then
    /// interprets the effects of the protocol transition. The mirror comes
    /// *first*: whoever hears of the transition — a client its reply or
    /// push, a peer its ACK — may turn around and read the mirror from
    /// another thread, and must find the outcome there (DESIGN.md §3.3).
    /// `touched` is `None` for view installs, which mirror the keys they
    /// moved themselves. `issuer` is the client whose own operation caused the
    /// transition, if any — it already dropped its cached entry at submit
    /// time and is excluded from the invalidation fan-out.
    ///
    /// While the touched key has unacked invalidation pushes to its
    /// subscribers, every message/reply effect for it is *held*: the write
    /// must not become visible anywhere (follower ACKs, the coordinator's
    /// INV broadcast, the client's `WriteOk`) before each subscriber can no
    /// longer serve the superseded value. Timer effects always apply —
    /// message-loss retransmissions simply regenerate (and re-hold) the
    /// messages, and duplicates are idempotent.
    fn drain_effects(
        &mut self,
        touched: Option<Key>,
        issuer: Option<ClientId>,
        op: Option<OpId>,
        now: Instant,
    ) {
        if let Some(touched) = touched {
            self.mirror_and_push(touched, issuer, now);
        }
        let held = touched.filter(|k| self.subs.pending.contains_key(k));
        let mut fx = std::mem::take(&mut self.fx);
        for e in fx.drain(..) {
            let timer = matches!(e, Effect::ArmTimer { .. } | Effect::DisarmTimer { .. });
            match held {
                Some(key) if !timer => {
                    // A reply parked behind unacked cache pushes: mark the
                    // hold on the op's trace span before shelving it.
                    if let Effect::Reply { op, .. } = &e {
                        self.mark_op(*op, Phase::ReplyHeld);
                    }
                    self.subs.held.entry(key).or_default().push(e);
                }
                _ => {
                    // The issuing drain's Inv broadcast is the op's
                    // invalidation phase (paper §3.1); mark it on the span.
                    if let (
                        Some(op),
                        Effect::Broadcast {
                            msg: Msg::Inv { .. },
                        },
                    ) = (op, &e)
                    {
                        self.mark_op(op, Phase::InvalBroadcast);
                    }
                    self.emit_effect(e, now);
                }
            }
        }
        self.fx = fx;
        if let Some(touched) = touched {
            self.settle(touched);
        }
    }

    /// Marks `phase` on the trace span of in-flight operation `op`.
    fn mark_op(&mut self, op: OpId, phase: Phase) {
        if let Some(span) = self.clients.get_mut(&op).and_then(|p| p.span.as_mut()) {
            span.mark(phase);
        }
    }

    /// Emits one protocol effect that nothing holds back.
    fn emit_effect(&mut self, e: Effect<Msg>, now: Instant) {
        match e {
            Effect::Send { to, msg } => {
                if let (Msg::Ack { .. }, Some(span)) = (&msg, self.net_span.as_mut()) {
                    span.mark(Phase::AckEnqueue);
                }
                let encoded = codec::encode_traced(&msg, self.cur_trace);
                if let Some((to, frame)) = self.batcher.push(to, &encoded) {
                    self.net.send(to, frame);
                }
            }
            Effect::Broadcast { msg } => {
                if hermes_obs::recording_enabled() {
                    match msg {
                        Msg::Inv { .. } => {
                            self.obs.invals_sent.add(self.peers.len() as u64);
                        }
                        Msg::Val { .. } => {
                            self.obs.vals_sent.add(self.peers.len() as u64);
                        }
                        _ => {}
                    }
                }
                let encoded = codec::encode_traced(&msg, self.cur_trace);
                for &to in &self.peers {
                    if let Some((to, frame)) = self.batcher.push(to, &encoded) {
                        self.net.send(to, frame);
                    }
                }
            }
            Effect::Reply { op, reply } => {
                if let Some(pending) = self.clients.remove(&op) {
                    if let Some(mut span) = pending.span {
                        // A write's reply means its acks are in (§3.1);
                        // reads commit without an invalidation round.
                        if span
                            .marks()
                            .iter()
                            .any(|&(p, _)| p == Phase::InvalBroadcast)
                        {
                            span.mark(Phase::AcksCollected);
                        }
                        span.mark(Phase::Committed);
                        span.mark(Phase::ReplyReleased);
                        let total = self.obs.lane_traces[self.lane].complete(&span, || {
                            format!("op client={} seq={}", op.client.0, op.seq)
                        });
                        self.obs.lane_latency[self.lane].record(total);
                    }
                    pending
                        .reply
                        .send(op.client, ServerFrame::Reply(op.seq, reply));
                }
            }
            Effect::ArmTimer { key } => self.timers.arm(key, now + MLT),
            Effect::DisarmTimer { key } => self.timers.disarm(key),
        }
    }

    /// Mirrors `key`, and fans an invalidation push out to its subscribers
    /// when its committed timestamp moved since the last push. Every
    /// subscriber pushed to becomes an ack waiter (its push gates this
    /// drain's effects). The order is the mirror rule's: waiters are
    /// registered first, so that the mirror write already shows the key
    /// held, and the pushes leave after it.
    fn mirror_and_push(&mut self, key: Key, issuer: Option<ClientId>, now: Instant) {
        let ts = self.key_ts(key);
        let subscribers = self.subs.by_key.get(&key);
        let moved = subscribers.is_some() && self.subs.pushed_ts.insert(key, ts) != Some(ts);
        // The issuer dropped its own entry at submit time; pushing to it
        // would make every writer wait on itself.
        let pushed = subscribers
            .filter(|_| moved)
            .into_iter()
            .flatten()
            .filter(|(&client, _)| issuer.is_none_or(|c| c.0 != client));
        for (&client, _) in pushed.clone() {
            let waiters = self.subs.pending.entry(key).or_default();
            waiters.entry(client).or_default().push_back(now);
        }
        self.mirror_key(key);
        let epoch = self.node.view().epoch.0;
        for (&client, host) in pushed {
            self.obs.pushes.inc();
            host.frame(ClientId(client), ServerFrame::Invalidate { key, epoch });
        }
    }

    /// One subscriber acknowledged one invalidation push for `key`:
    /// its oldest. Pushes are counted per client — an ack for an older push
    /// must not release effects a newer, still-unacked push is guarding.
    fn ack_push(&mut self, client: ClientId, key: Key, now: Instant) {
        if hermes_obs::recording_enabled() {
            self.obs.push_acks.inc();
        }
        if let Some(waiters) = self.subs.pending.get_mut(&key) {
            if let Some(owed) = waiters.get_mut(&client.0) {
                owed.pop_front();
                if owed.is_empty() {
                    waiters.remove(&client.0);
                }
            }
        }
        self.release_if_acked(key, now);
    }

    /// Drops `client` from `key`'s ack waiters entirely (it unsubscribed,
    /// died, or was evicted — no ack is coming), releasing held effects if
    /// it was the last waiter.
    fn clear_waiter(&mut self, client: u64, key: Key, now: Instant) {
        if let Some(waiters) = self.subs.pending.get_mut(&key) {
            waiters.remove(&client);
        }
        self.release_if_acked(key, now);
    }

    /// Releases `key`'s held effects once nobody owes an ack for it.
    fn release_if_acked(&mut self, key: Key, now: Instant) {
        if self.subs.pending.get(&key).is_some_and(HashMap::is_empty) {
            self.subs.pending.remove(&key);
            self.release_held(key, now);
        }
    }

    /// Emits every effect held for `key`, in the order it was produced.
    fn release_held(&mut self, key: Key, now: Instant) {
        // Held effects may release long after the drain that produced
        // them, under an unrelated trace context: emit them untagged
        // rather than mislabeled.
        self.cur_trace = TraceId::NONE;
        // Nobody owes an ack for the key any more: it is readable again,
        // and by the mirror rule says so before what was held goes out.
        self.mirror_key(key);
        if let Some(held) = self.subs.held.remove(&key) {
            self.obs.holds_released.add(held.len() as u64);
            for e in held {
                self.emit_effect(e, now);
            }
        }
        self.settle(key);
    }

    /// Evicts each subscriber whose oldest unacked invalidation
    /// push is [`PUSH_ACK_KICK`] old, releasing a key's held effects once
    /// its last waiter is gone. Mirrors the paper's bounded-delay
    /// assumption at the client hop: the subscriber is treated as failed
    /// and torn down (a dead session serves nothing, so coherence survives
    /// the forced release), while a waiter that acks in time is waited for
    /// as before.
    fn kick_stalled_pushes(&mut self, now: Instant) {
        let overdue: Vec<(Key, u64)> = (self.subs.pending.iter())
            .flat_map(|(&key, waiters)| waiters.iter().map(move |(&c, owed)| (key, c, owed)))
            .filter(|(_, _, owed)| owed.front().is_some_and(|&at| now >= at + PUSH_ACK_KICK))
            .map(|(key, client, _)| (key, client))
            .collect();
        for (key, client) in overdue {
            if let Some(host) = self.remove_subscription(client, key) {
                host.post(Command::Evict(ClientId(client)));
            }
            self.clear_waiter(client, key, now);
        }
    }

    /// Registers `client` for pushes on `key` and acks through `host`.
    fn subscribe(&mut self, seq: u64, client: ClientId, key: Key, host: LaneQueue) {
        // Seed the change detector at the current committed timestamp so
        // the first post-subscribe write pushes exactly once.
        let ts = self.key_ts(key);
        self.subs.pushed_ts.insert(key, ts);
        let epoch = self.node.view().epoch.0;
        let fresh = self
            .subs
            .by_key
            .entry(key)
            .or_default()
            .insert(client.0, host.clone())
            .is_none();
        if fresh {
            self.subs.by_client.entry(client.0).or_default().insert(key);
            self.obs.subscriptions.inc();
        }
        self.obs.pushes.inc();
        host.frame(client, ServerFrame::Subscribed { seq, key, epoch });
    }

    /// Ends `client`'s subscription to `key`, acking through the removed
    /// host queue.
    fn unsubscribe(&mut self, seq: u64, client: ClientId, key: Key, now: Instant) {
        if let Some(host) = self.remove_subscription(client.0, key) {
            self.clear_waiter(client.0, key, now);
            self.obs.pushes.inc();
            host.frame(client, ServerFrame::Unsubscribed { seq, key });
        }
    }

    /// Removes one (client, key) subscription edge; returns the client's
    /// host queue if it existed.
    fn remove_subscription(&mut self, client: u64, key: Key) -> Option<LaneQueue> {
        let m = self.subs.by_key.get_mut(&key)?;
        let host = m.remove(&client)?;
        if m.is_empty() {
            self.subs.by_key.remove(&key);
            self.subs.pushed_ts.remove(&key);
        }
        if let Some(keys) = self.subs.by_client.get_mut(&client) {
            keys.remove(&key);
            if keys.is_empty() {
                self.subs.by_client.remove(&client);
            }
        }
        self.obs.subscriptions.dec();
        Some(host)
    }

    /// Clears every subscription and pending ack held by a departed
    /// client.
    fn drop_client(&mut self, client: ClientId, now: Instant) {
        let Some(keys) = self.subs.by_client.remove(&client.0) else {
            return;
        };
        for key in keys {
            self.remove_subscription(client.0, key);
            self.clear_waiter(client.0, key, now);
        }
    }

    /// Pushes [`ServerFrame::Flush`] to every subscriber (view change or
    /// serving loss: cached entries from the old world must die), clears
    /// all pending acks and emits all held effects. Subscriptions stay
    /// registered — a still-live client refills from fresh reads.
    fn flush_subscribers(&mut self, now: Instant) {
        let epoch = self.node.view().epoch.0;
        let mut seen: HashSet<u64> = HashSet::new();
        for subs in self.subs.by_key.values() {
            for (&client, host) in subs {
                if seen.insert(client) {
                    self.obs.pushes.inc();
                    host.frame(ClientId(client), ServerFrame::Flush { epoch });
                }
            }
        }
        let stalled: Vec<Key> = self.subs.pending.drain().map(|(key, _)| key).collect();
        for key in stalled {
            self.release_held(key, now);
        }
        // Reset the change detector: post-change timestamps may replay, so
        // be conservative and push on the next touch of every key.
        self.subs.pushed_ts.clear();
    }
}

/// The kind of the update that wrote a slot's version.
fn slot_kind(meta: SlotMeta) -> UpdateKind {
    if meta.rmw {
        UpdateKind::Rmw
    } else {
        UpdateKind::Write
    }
}

#[cfg(test)]
impl LaneQueue {
    /// A queue no lane reads, whose commands the caller takes: what a lane
    /// unit test hands a lane as a remote session's host queue.
    pub(crate) fn capturing() -> (LaneQueue, crossbeam::channel::Receiver<Command>) {
        let (tx, rx) = crossbeam::channel::unbounded();
        let wait = hermes_net::Wait::new().expect("an epoll and an eventfd");
        (
            LaneQueue {
                tx,
                waker: wait.waker(),
            },
            rx,
        )
    }

    /// Queues `cmd` without ringing, as a poster whose ring coalesced into
    /// an earlier one.
    pub(crate) fn post_unrung(&self, cmd: Command) {
        let _ = self.tx.send(cmd);
    }

    /// Rings the lane.
    pub(crate) fn ring(&self) {
        self.waker.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timers::DeadlineQueue;
    use bytes::Bytes;
    use crossbeam::channel::{unbounded, Receiver};
    use hermes_common::{Epoch, RmwOp, Value};
    use hermes_core::{ProtocolConfig, UpdateKind};
    use hermes_sim::rng::Rng;
    use hermes_store::StoreConfig;
    use hermes_wings::decode_frame;
    use std::sync::Mutex;

    const MS: Duration = Duration::from_millis(1);
    /// The in-process writer and the remote (ack-owing) subscriber.
    const A: ClientId = ClientId(1);
    const B: ClientId = ClientId(2);

    /// A `NetSender` that records frames instead of sending them — and, at
    /// the instant each reaches it, checks the frame against the mirror.
    #[derive(Clone)]
    struct RecordingNet {
        frames: Arc<Mutex<Vec<(NodeId, Bytes)>>>,
        store: Arc<Store>,
        /// Messages that left before the mirror showed their transition.
        unmirrored: Arc<Mutex<Vec<Msg>>>,
    }

    impl NetSender for RecordingNet {
        fn node_id(&self) -> NodeId {
            NodeId(0)
        }

        fn send(&self, to: NodeId, payload: Bytes) {
            // Control frames (shadow catch-up) are recorded unchecked.
            let msgs = if control::is_control(&payload) {
                Vec::new()
            } else {
                decode_frame(&payload).expect("data frame")
            };
            for raw in msgs {
                let msg = codec::decode_traced(&raw).expect("message").0;
                // Mirror-before-effects (DESIGN.md §3.3): a message about
                // timestamp `ts` may leave only once the mirror no longer
                // shows the key's state from before `ts` — and a VAL only
                // once the mirror serves what it validates.
                let (at, valid) = self
                    .store
                    .get(msg.key(), &mut Vec::new())
                    .map_or((Ts::ZERO, true), |m| {
                        (Ts::new(m.version, m.cid), m.state == SlotState::Valid)
                    });
                let val = matches!(msg, Msg::Val { .. });
                if at < msg.ts() || (at == msg.ts() && val && !valid) {
                    self.unmirrored.lock().unwrap().push(msg);
                }
            }
            self.frames.lock().unwrap().push((to, payload));
        }
    }

    /// Node 0's only lane in a `nodes`-replica view, with the clock, the
    /// network and both kinds of client sink in the test's hands.
    struct Rig {
        lane: Lane<RecordingNet>,
        net: RecordingNet,
        status: Arc<MembershipStatus>,
        obs: Arc<NodeObs>,
        t0: Instant,
        a: ClientSink,
        a_events: Receiver<ServerFrame>,
        b: LaneQueue,
        b_inbox: Receiver<Command>,
        /// Whether B's host has been told to tear B down.
        b_evicted: bool,
        next_seq: u64,
    }

    fn rig(nodes: usize) -> Rig {
        let view = MembershipView::initial(nodes);
        let store = Arc::new(Store::new(StoreConfig::default()));
        let net = RecordingNet {
            frames: Arc::default(),
            store: Arc::clone(&store),
            unmirrored: Arc::default(),
        };
        let obs = Arc::new(NodeObs::new(0, 1));
        let status = Arc::new(MembershipStatus::new(view, true, true));
        let lane = Lane::new(
            0,
            1,
            HermesNode::new(NodeId(0), view, ProtocolConfig::default()),
            store,
            net.clone(),
            Arc::clone(&status),
            Arc::clone(&obs),
        );
        let (a_tx, a_events) = unbounded();
        let (host, b_inbox) = LaneQueue::capturing();
        Rig {
            lane,
            net,
            status,
            obs,
            t0: crate::host::test_epoch(),
            a: ClientSink::Session(a_tx),
            a_events,
            b: host,
            b_inbox,
            b_evicted: false,
            next_seq: 0,
        }
    }

    impl Rig {
        /// What a session's channel reading the mirror would answer a read
        /// of `key`.
        fn mirror(&self, key: Key) -> Option<Value> {
            mirror_read(&self.net.store, &self.status, key, &mut Vec::new())
        }

        /// Subscribes remote client B to `key` and consumes the ack.
        fn subscribe_b(&mut self, key: Key) {
            let cmd = Command::Subscribe {
                seq: 0,
                client: B,
                key,
                host: self.b.clone(),
            };
            self.lane.handle(cmd, self.t0);
            let epoch = 0;
            assert_eq!(
                self.b_pushes(),
                vec![ServerFrame::Subscribed { seq: 0, key, epoch }]
            );
        }

        /// Submits `cop` on `key` as `client` at time `at`.
        fn op(&mut self, client: ClientId, key: Key, cop: ClientOp, at: Instant) -> OpId {
            let op = OpId::new(client, self.next_seq);
            self.next_seq += 1;
            let reply = match client {
                A => self.a.clone(),
                _ => ClientSink::Remote(self.b.clone()),
            };
            self.lane.handle(
                Command::Op {
                    op,
                    key,
                    cop,
                    reply,
                },
                at,
            );
            op
        }

        fn deliver(&mut self, from: u32, msg: Msg, at: Instant) {
            let cmd = Command::Deliver {
                from: NodeId(from),
                msg,
                trace: TraceId::NONE,
            };
            self.lane.handle(cmd, at);
        }

        /// Ticks the lane at `at` and returns every protocol message that
        /// reached the network since the last call, in send order.
        fn tick(&mut self, at: Instant) -> Vec<(u32, Msg)> {
            self.lane.on_tick(at);
            let mut out = Vec::new();
            for (to, frame) in self.net.frames.lock().unwrap().drain(..) {
                for raw in decode_frame(&frame).expect("data frame") {
                    out.push((to.0, codec::decode_traced(&raw).expect("message").0));
                }
            }
            out
        }

        /// Everything pushed to remote client B since the last call; its
        /// eviction is noted in `b_evicted`.
        fn b_pushes(&mut self) -> Vec<ServerFrame> {
            let mut out = Vec::new();
            while let Ok(item) = self.b_inbox.try_recv() {
                match item {
                    Command::Frame(B, frame) => out.push(frame),
                    Command::Evict(B) => self.b_evicted = true,
                    _ => panic!("B only subscribes"),
                }
            }
            out
        }

        /// Every reply released to in-process client A since the last call.
        fn a_replies(&mut self) -> Vec<(OpId, Reply)> {
            let mut out = Vec::new();
            while let Ok(ev) = self.a_events.try_recv() {
                match ev {
                    ServerFrame::Reply(seq, reply) => out.push((OpId::new(A, seq), reply)),
                    other => panic!("A never subscribes, got {other:?}"),
                }
            }
            out
        }
    }

    fn write(v: u64) -> ClientOp {
        ClientOp::Write(Value::from_u64(v))
    }

    fn invalidate(key: Key) -> ServerFrame {
        ServerFrame::Invalidate { key, epoch: 0 }
    }

    /// The peers `msgs` carries an INV to, ascending (the batcher flushes
    /// peers in no particular order).
    fn inv_targets(msgs: &[(u32, Msg)]) -> Vec<u32> {
        let mut peers: Vec<u32> = msgs
            .iter()
            .filter(|(_, m)| matches!(m, Msg::Inv { .. }))
            .map(|&(to, _)| to)
            .collect();
        peers.sort_unstable();
        peers
    }

    #[test]
    fn unacked_push_holds_frames_and_replies_until_inval_ack() {
        let mut r = rig(3);
        let (k, epoch, t0) = (Key(7), Epoch(0), r.t0);
        r.subscribe_b(k);

        // Coordinator side: A's write may not even start its INV round
        // while B can still serve the old value from its cache.
        let w = r.op(A, k, write(1), t0);
        assert_eq!(r.b_pushes(), vec![invalidate(k)]);
        assert_eq!(r.tick(t0), vec![], "INV left before the subscriber acked");
        r.lane.handle(Command::InvalAck { client: B, key: k }, t0);
        let out = r.tick(t0);
        assert_eq!(inv_targets(&out), vec![1, 2]);
        assert_eq!(out.len(), 2);
        let ts = out[0].1.ts();
        for peer in [1, 2] {
            assert_eq!(r.a_replies(), vec![]);
            r.deliver(peer, Msg::Ack { key: k, ts, epoch }, t0);
        }
        assert_eq!(r.a_replies(), vec![(w, Reply::WriteOk)]);
        assert_eq!(r.b_pushes(), vec![], "the commit moves no timestamp");
        assert!(matches!(
            r.tick(t0)[..],
            [(_, Msg::Val { .. }), (_, Msg::Val { .. })]
        ));

        // Follower side: peer 1 overwrites k. The ACKs this lane owes and
        // the reply of a read that the VAL unblocks are all held behind
        // B's ack, and leave in the order the engine produced them.
        let ts2 = Ts::new(ts.version + 2, 1);
        let inv = |ts| Msg::Inv {
            key: k,
            ts,
            value: Value::from_u64(2),
            kind: UpdateKind::Write,
            epoch,
        };
        r.deliver(1, inv(ts2), t0);
        assert_eq!(r.b_pushes(), vec![invalidate(k)]);
        r.deliver(1, inv(ts), t0); // A stale duplicate: acked, not adopted.
        let read = r.op(A, k, ClientOp::Read, t0);
        r.deliver(
            1,
            Msg::Val {
                key: k,
                ts: ts2,
                epoch,
            },
            t0,
        );
        assert_eq!(
            r.tick(t0),
            vec![],
            "an ACK left before the subscriber acked"
        );
        assert_eq!(
            r.a_replies(),
            vec![],
            "a reply left before the subscriber acked"
        );
        r.lane.handle(Command::InvalAck { client: B, key: k }, t0);
        assert_eq!(
            r.a_replies(),
            vec![(read, Reply::ReadOk(Value::from_u64(2)))]
        );
        let acks: Vec<(u32, Ts)> = r.tick(t0).iter().map(|(to, m)| (*to, m.ts())).collect();
        assert_eq!(acks, vec![(1, ts2), (1, ts)]);
        assert_eq!(r.obs.holds_released.get(), 1 + 3);
    }

    /// The hold rule covers the mirror: in a one-member view a write
    /// commits in the transition that issues it, so the engine's key is
    /// `Valid` with the new value while a subscriber's cache may still
    /// serve the old one. The mirror must not answer a third session's read
    /// with the new value yet (the subscriber could then serve the old one
    /// *after* it): until the ack — or the eviction — the mirror refuses,
    /// and the read goes to the lane, where its reply is held.
    #[test]
    fn a_key_with_unacked_pushes_is_unreadable_in_the_mirror_too() {
        let mut r = rig(1);
        let (k, t0) = (Key(7), r.t0);
        let read = |r: &Rig| r.mirror(k);
        r.subscribe_b(k);
        assert_eq!(read(&r), Some(Value::EMPTY));

        let w = r.op(A, k, write(1), t0);
        assert_eq!(r.b_pushes(), vec![invalidate(k)]);
        assert_eq!(r.lane.node.local_read(k), Some(Value::from_u64(1)));
        assert_eq!(read(&r), None, "visible before the subscriber acked");
        let held_read = r.op(A, k, ClientOp::Read, t0);
        assert_eq!(r.a_replies(), vec![]);
        r.lane.handle(Command::InvalAck { client: B, key: k }, t0);
        assert_eq!(read(&r), Some(Value::from_u64(1)));
        assert_eq!(
            r.a_replies(),
            vec![
                (w, Reply::WriteOk),
                (held_read, Reply::ReadOk(Value::from_u64(1)))
            ]
        );

        // A subscriber that never acks is evicted, and the key reads again.
        r.op(A, k, write(2), t0);
        assert_eq!(read(&r), None);
        r.tick(t0 + PUSH_ACK_KICK);
        assert_eq!(read(&r), Some(Value::from_u64(2)));
    }

    /// A transition that moves a key's state and not its timestamp — the
    /// VAL at a follower, the commit at a coordinator — writes the mirror's
    /// metadata and copies no value byte: the value went in with the INV,
    /// or at issue. Shown with a marker the test plants in the slot between
    /// the two transitions, under the timestamp the slot holds: a second
    /// value write would put the engine's value back over it.
    #[test]
    fn a_value_enters_the_mirror_once_and_the_state_flip_moves_metadata_only() {
        let mut r = rig(3);
        let (epoch, t0) = (Epoch(0), r.t0);
        let marker = Value::from_u64(u64::MAX);
        let slot = |r: &Rig, key| {
            let mut value = Vec::new();
            let meta = r.net.store.get(key, &mut value).expect("mirrored");
            (Ts::new(meta.version, meta.cid), meta.state, value)
        };
        // A put under the held timestamp and length would itself be
        // metadata-only, hence the detour over another timestamp.
        let plant = |r: &Rig, key, ts: Ts| {
            r.net.store.put(key, SlotMeta::invalid(0, 0), &[]);
            let held = SlotMeta::invalid(ts.version, ts.cid);
            r.net.store.put(key, held, marker.as_bytes());
        };

        // Follower: INV, then VAL.
        let (k, ts) = (Key(7), Ts::new(2, 1));
        let inv = Msg::Inv {
            key: k,
            ts,
            value: Value::from_u64(5),
            kind: UpdateKind::Write,
            epoch,
        };
        r.deliver(1, inv, t0);
        let written = Value::from_u64(5).as_bytes().to_vec();
        assert_eq!(slot(&r, k), (ts, SlotState::Invalid, written));
        plant(&r, k, ts);
        r.deliver(1, Msg::Val { key: k, ts, epoch }, t0);
        assert!(r.lane.node.entry(k).is_none(), "the idle key stayed");
        assert_eq!(
            r.mirror(k),
            Some(marker.clone()),
            "the VAL moved value bytes"
        );

        // Coordinator: issue, then commit on the second ACK.
        let k = Key(8);
        let w = r.op(A, k, write(6), t0);
        let ts = r.lane.node.key_ts(k);
        let written = Value::from_u64(6).as_bytes().to_vec();
        assert_eq!(slot(&r, k), (ts, SlotState::Invalid, written));
        plant(&r, k, ts);
        for peer in [1, 2] {
            r.deliver(peer, Msg::Ack { key: k, ts, epoch }, t0);
        }
        assert_eq!(r.a_replies(), vec![(w, Reply::WriteOk)]);
        assert_eq!(r.mirror(k), Some(marker), "the commit moved value bytes");
    }

    #[test]
    fn acks_are_counted_per_client_so_one_ack_cannot_release_two_pushes() {
        let mut r = rig(3);
        let (k, epoch, t0) = (Key(7), Epoch(0), r.t0);
        r.subscribe_b(k);
        let inv = |version| Msg::Inv {
            key: k,
            ts: Ts::new(version, 1),
            value: Value::from_u64(version),
            kind: UpdateKind::Write,
            epoch,
        };
        r.deliver(1, inv(2), t0);
        r.deliver(1, inv(4), t0);
        assert_eq!(r.b_pushes(), vec![invalidate(k), invalidate(k)]);
        r.lane.handle(Command::InvalAck { client: B, key: k }, t0);
        assert_eq!(r.tick(t0), vec![], "the newer push is still unacked");
        r.lane.handle(Command::InvalAck { client: B, key: k }, t0);
        assert_eq!(r.tick(t0).len(), 2, "both ACKs leave with the second ack");
    }

    #[test]
    fn a_subscriber_silent_for_push_ack_kick_is_evicted_and_the_write_proceeds() {
        let mut r = rig(3);
        let (k, t0) = (Key(7), r.t0);
        r.subscribe_b(k);
        assert_eq!(r.obs.subscriptions.get(), 1);
        r.op(A, k, write(1), t0);
        assert_eq!(r.b_pushes(), vec![invalidate(k)]);

        assert_eq!(r.tick(t0 + PUSH_ACK_KICK - MS), vec![]);
        assert_eq!(r.b_pushes(), vec![]);
        assert_eq!(r.obs.subscriptions.get(), 1);

        assert!(!r.b_evicted);
        let out = r.tick(t0 + PUSH_ACK_KICK);
        assert_eq!(r.b_pushes(), vec![]);
        assert!(r.b_evicted, "evicted, and sent nothing else");
        assert_eq!(r.obs.subscriptions.get(), 0);
        assert_eq!(
            inv_targets(&out),
            vec![1, 1, 2, 2],
            "the INV and its retransmissions"
        );
        // The evicted client is forgotten: nothing more is pushed to it.
        r.lane.handle(Command::FlushClients, t0 + PUSH_ACK_KICK);
        assert_eq!(r.b_pushes(), vec![]);
    }

    /// Writes to a key every 50 ms keep pushing to its subscribers: B never
    /// acks, P acks each push at once. B is evicted 75 ms after the oldest
    /// push it owes — not 75 ms after its newest, which under this stream
    /// would be never — and P, which owes nothing for long, never is. The
    /// writes held behind B go out with its eviction, and every later one
    /// the moment P acks it.
    #[test]
    fn a_silent_subscriber_is_evicted_at_its_oldest_unacked_push_and_a_prompt_one_never() {
        const P: ClientId = ClientId(3);
        let mut r = rig(1);
        let (k, t0) = (Key(7), r.t0);
        r.subscribe_b(k);
        let (host, p_inbox) = LaneQueue::capturing();
        let subscribe = Command::Subscribe {
            seq: 0,
            client: P,
            key: k,
            host,
        };
        r.lane.handle(subscribe, t0);
        let p_pushes = || -> Vec<ServerFrame> {
            let items = std::iter::from_fn(|| p_inbox.try_recv().ok());
            let frame = |item| match item {
                Command::Frame(P, frame) => frame,
                _ => panic!("P is never evicted"),
            };
            items.map(frame).collect()
        };
        assert_eq!(
            p_pushes(),
            vec![ServerFrame::Subscribed {
                seq: 0,
                key: k,
                epoch: 0
            }]
        );
        let mut written = Vec::new();
        for i in 0..6u32 {
            let at = t0 + 50 * MS * i;
            written.push(r.op(A, k, write(u64::from(i)), at));
            assert_eq!(p_pushes(), vec![invalidate(k)]);
            r.lane.handle(Command::InvalAck { client: P, key: k }, at);
            let released: Vec<OpId> = r.a_replies().iter().map(|&(op, _)| op).collect();
            if i < 2 {
                assert_eq!(released, vec![], "write {i} is held behind B");
            } else {
                assert_eq!(released, written, "write {i} goes out with P's ack");
                written.clear();
            }
            if i == 1 {
                // B owes the pushes of t0 and t0 + 50 ms.
                r.tick(t0 + PUSH_ACK_KICK - MS);
                assert_eq!(r.b_pushes(), vec![invalidate(k), invalidate(k)]);
                assert!(!r.b_evicted, "evicted before its oldest push was 75 ms old");
                r.tick(t0 + PUSH_ACK_KICK);
                assert_eq!(r.b_pushes(), vec![]);
                assert!(r.b_evicted, "not evicted 75 ms after its oldest push");
                let released: Vec<OpId> = r.a_replies().iter().map(|&(op, _)| op).collect();
                assert_eq!(released, written, "the held writes go out with B");
                written.clear();
            }
            r.tick(at + 49 * MS);
        }
        assert_eq!(p_pushes(), vec![]);
        assert_eq!(r.obs.subscriptions.get(), 1, "P stays");
    }

    #[test]
    fn view_install_and_flush_reach_each_subscriber_once_and_release_what_is_held() {
        for install_view in [true, false] {
            let mut r = rig(3);
            let t0 = r.t0;
            r.subscribe_b(Key(7));
            r.subscribe_b(Key(8));
            r.op(A, Key(7), write(1), t0);
            assert_eq!(r.b_pushes(), vec![invalidate(Key(7))]);
            assert_eq!(r.tick(t0), vec![]);

            let (cmd, epoch) = if install_view {
                let next = MembershipView::initial(3).without_node(NodeId(2));
                (Command::InstallView(next), next.epoch.0)
            } else {
                (Command::FlushClients, 0)
            };
            r.lane.handle(cmd, t0);
            assert_eq!(
                r.b_pushes(),
                vec![ServerFrame::Flush { epoch }],
                "one flush per subscriber, however many keys it holds"
            );
            assert!(!r.tick(t0).is_empty(), "held INVs go out with the flush");
            // No ack is owed any more: a late one finds nothing to release.
            let key = Key(7);
            r.lane.handle(Command::InvalAck { client: B, key }, t0);
            assert_eq!(r.tick(t0), vec![]);
            assert_eq!(r.b_pushes(), vec![]);
            assert_eq!(r.obs.subscriptions.get(), 2);
        }
    }

    #[test]
    fn an_unacked_inv_is_retransmitted_at_exactly_mlt() {
        let mut r = rig(3);
        let (k, t0) = (Key(7), r.t0);
        r.op(A, k, write(1), t0);
        assert_eq!(inv_targets(&r.tick(t0)), vec![1, 2]);
        assert_eq!(r.lane.next_deadline(), Some(t0 + MLT));
        assert_eq!(r.tick(t0 + MLT - MS), vec![]);
        assert_eq!(inv_targets(&r.tick(t0 + MLT)), vec![1, 2]);
        assert_eq!(r.lane.next_deadline(), Some(t0 + MLT + MLT));
    }

    #[test]
    fn the_issuer_of_a_write_is_never_pushed_its_own_invalidation() {
        let mut r = rig(3);
        let (k, t0) = (Key(7), r.t0);
        r.subscribe_b(k);
        r.op(B, k, write(1), t0);
        assert_eq!(r.b_pushes(), vec![]);
        assert_eq!(
            inv_targets(&r.tick(t0)),
            vec![1, 2],
            "a writer never waits on itself"
        );
    }

    /// A key a subscriber still owes acks for is held, and its slot says
    /// "not readable", so the slot cannot be its home yet: the engine keeps
    /// the entry until the last ack releases the key, which then leaves
    /// with its slot `Valid` — and its next write starts from there.
    #[test]
    fn a_held_key_stays_resident_until_its_last_ack_then_leaves() {
        let mut r = rig(1);
        let (k, t0) = (Key(7), r.t0);
        let resident = |r: &Rig| {
            let gauge = r.obs.resident_keys[0].get();
            (r.lane.node.entry(k).is_some(), gauge)
        };
        r.subscribe_b(k);
        assert_eq!(resident(&r), (false, 0), "a subscription admits nothing");
        // In a one-member view a write commits in the step that issues it.
        let w1 = r.op(A, k, write(1), t0);
        let w2 = r.op(A, k, write(2), t0);
        assert_eq!(r.b_pushes(), vec![invalidate(k), invalidate(k)]);
        assert_eq!(resident(&r), (true, 1));
        assert_eq!(r.mirror(k), None);
        r.lane.handle(Command::InvalAck { client: B, key: k }, t0);
        assert_eq!(resident(&r), (true, 1), "one push is still unacked");
        assert_eq!(r.a_replies(), vec![]);
        r.lane.handle(Command::InvalAck { client: B, key: k }, t0);
        assert_eq!(resident(&r), (false, 0), "the last ack let the key go");
        assert_eq!(
            r.a_replies(),
            vec![(w1, Reply::WriteOk), (w2, Reply::WriteOk)]
        );
        assert_eq!(r.mirror(k), Some(Value::from_u64(2)));

        let slot_ts = |r: &Rig| {
            let meta = r.net.store.get(k, &mut Vec::new()).expect("mirrored");
            Ts::new(meta.version, meta.cid)
        };
        let before = slot_ts(&r);
        r.op(A, k, write(3), t0);
        let after = r.lane.node.key_ts(k);
        assert_eq!(after, before.advanced(2, 0), "rebuilt from the slot");
        assert_eq!(r.b_pushes(), vec![invalidate(k)]);
        r.lane.handle(Command::InvalAck { client: B, key: k }, t0);
        assert_eq!(resident(&r), (false, 0));
        assert_eq!(slot_ts(&r), after);
    }

    /// Shadow catch-up reads the mirror: a key the engine no longer holds
    /// still reaches the stream, with the kind of the update that wrote it.
    #[test]
    fn an_evicted_rmw_key_reaches_the_sync_stream_as_an_rmw() {
        let mut r = rig(1);
        let t0 = r.t0;
        r.op(A, Key(7), ClientOp::Rmw(RmwOp::FetchAdd { delta: 5 }), t0);
        r.op(A, Key(8), write(6), t0);
        assert_eq!(r.a_replies().len(), 2);
        assert_eq!(r.lane.node.keys_touched(), 0, "both keys left the engine");
        r.lane.handle(Command::SyncLane { to: NodeId(1) }, t0);
        let mut synced = Vec::new();
        for (to, frame) in r.net.frames.lock().unwrap().drain(..) {
            assert_eq!(to, NodeId(1));
            match control::decode(&frame) {
                Some(Ok(ControlMsg::SyncBatch { entries })) => {
                    synced.extend(entries.into_iter().map(|e| (e.key, e.kind, e.value)));
                }
                Some(Ok(ControlMsg::SyncMark { lane: 0, lanes: 1 })) => {}
                other => panic!("not a sync frame: {other:?}"),
            }
        }
        synced.sort_by_key(|&(key, _, _)| key);
        assert_eq!(
            synced,
            vec![
                (Key(7), UpdateKind::Rmw, Value::from_u64(5)),
                (Key(8), UpdateKind::Write, Value::from_u64(6)),
            ]
        );
    }

    /// The reference a lane is held to: an engine fed the lane's inputs
    /// that never evicts, stepping its own timers as the lane does, with
    /// every reply it produced and the lane has not yet released.
    struct Twin {
        node: HermesNode,
        timers: DeadlineQueue,
        fx: Fx,
        replies: HashMap<OpId, Reply>,
    }

    impl Twin {
        fn new(nodes: usize) -> Self {
            let view = MembershipView::initial(nodes);
            Twin {
                node: HermesNode::new(NodeId(0), view, ProtocolConfig::default()),
                timers: DeadlineQueue::new(),
                fx: Vec::new(),
                replies: HashMap::new(),
            }
        }

        fn step(&mut self, now: Instant, event: impl FnOnce(&mut HermesNode, &mut Fx)) {
            event(&mut self.node, &mut self.fx);
            for e in self.fx.drain(..) {
                match e {
                    Effect::Reply { op, reply } => {
                        self.replies.insert(op, reply);
                    }
                    Effect::ArmTimer { key } => self.timers.arm(key, now + MLT),
                    Effect::DisarmTimer { key } => self.timers.disarm(key),
                    Effect::Send { .. } | Effect::Broadcast { .. } => {}
                }
            }
        }

        /// A client operation the lane took while `serving` (the lane's
        /// gate answers the others without its engine).
        fn op(&mut self, serving: bool, op: OpId, key: Key, cop: ClientOp, now: Instant) {
            if serving {
                self.step(now, |node, fx| node.on_client_op(op, key, cop, fx));
            } else {
                self.replies.insert(op, Reply::NotOperational);
            }
        }

        fn tick(&mut self, now: Instant) {
            while let Some(key) = self.timers.pop_due(now) {
                self.timers.arm(key, now + MLT);
                self.step(now, |node, fx| node.on_mlt_timeout(key, fx));
            }
        }
    }

    /// `(state, ts, value, kind)` of `key` in `node`'s entry, or what an
    /// untouched key is.
    fn entry_of(node: &HermesNode, key: Key) -> (KeyState, Ts, Value, UpdateKind) {
        node.entry(key).map_or(
            (KeyState::Valid, Ts::ZERO, Value::EMPTY, UpdateKind::Write),
            |e| (e.state, e.ts, e.value.clone(), e.kind),
        )
    }

    /// `key` as the lane keeps it: its engine entry while it holds one,
    /// else its mirror slot, which must then say `Valid`.
    fn kept_by(r: &Rig, key: Key) -> (KeyState, Ts, Value, UpdateKind) {
        let mut value = Vec::new();
        match r.net.store.get(key, &mut value) {
            Some(meta) if r.lane.node.entry(key).is_none() => {
                assert_eq!(meta.state, SlotState::Valid, "{key} left the engine busy");
                let ts = Ts::new(meta.version, meta.cid);
                (KeyState::Valid, ts, Value::from(value), slot_kind(meta))
            }
            _ => entry_of(&r.lane.node, key),
        }
    }

    /// Rule 1 behind the sessions' mirror reads (DESIGN.md §3.3), and the
    /// rule that eviction is invisible, as an executable check over seeded
    /// schedules of everything that moves a key: client ops, INV/ACK/VAL
    /// from two peers (INVs of both kinds, and retransmitted ones from the
    /// past), timer ticks, view installs that remove the peers mid-write
    /// one after the other (3 → 2 → 1 members) and then this node itself,
    /// catch-up chunks, and a remote subscriber that acks late or never.
    /// The reference is a [`Twin`] engine fed the same inputs that never
    /// evicts. After every step each key's `(state, ts, value, kind)` as
    /// the lane keeps it (engine entry, else slot) is the twin's, every
    /// reply the lane released is the twin's, and the mirror answers every
    /// key exactly as the twin would; and no message reaches the network
    /// ahead of the mirror write of its transition (the check runs inside
    /// [`RecordingNet::send`], at the instant of the send).
    #[test]
    fn the_mirror_equals_the_core_after_every_step_and_leads_every_frame() {
        const KEYS: u64 = 4;
        let (mut committed, mut alone, mut deposed, mut evicted) = (0, 0, 0, 0);
        for seed in 0..48 {
            let mut rng = Rng::seeded(seed);
            let mut r = rig(3);
            let mut twin = Twin::new(3);
            let mut now = r.t0;
            let mut view = MembershipView::initial(3);
            // INVs peers have sent, and this node's own INVs seen on the
            // wire: what later VALs, ACKs and retransmissions refer to.
            let mut peer_invs: Vec<(u32, Msg)> = Vec::new();
            let mut own_invs: Vec<(Key, Ts)> = Vec::new();
            let mut top = [0u64; KEYS as usize];
            r.subscribe_b(Key(0));
            for step in 0..400 {
                let key = Key(rng.gen_range(KEYS));
                // A peer still in the view, while there is one.
                let peers = view.members.without(NodeId(0));
                let peer = peers
                    .iter()
                    .nth(rng.gen_range(2) as usize % peers.len().max(1));
                let epoch = view.epoch;
                let serving = r.status.serving();
                let op = |r: &mut Rig, twin: &mut Twin, cop: ClientOp| {
                    let op = r.op(A, key, cop.clone(), now);
                    twin.op(serving, op, key, cop, now);
                };
                let deliver = |r: &mut Rig, twin: &mut Twin, from: u32, msg: Msg| {
                    r.deliver(from, msg.clone(), now);
                    twin.step(now, |node, fx| node.on_message(NodeId(from), msg, fx));
                };
                match (rng.gen_range(12), peer.map(|p| p.0)) {
                    (0 | 1, _) => op(&mut r, &mut twin, ClientOp::Read),
                    (2 | 3, _) if key.0 < 2 => {
                        // Two such INVs fill a Wings batch, so every other
                        // one is sent from inside the drain that made it.
                        let big = Value::filled(rng.next_u64() as u8, 1000);
                        op(&mut r, &mut twin, ClientOp::Write(big));
                    }
                    (2, _) => op(&mut r, &mut twin, write(rng.next_u64())),
                    (3, _) => op(
                        &mut r,
                        &mut twin,
                        ClientOp::Rmw(RmwOp::FetchAdd { delta: 1 }),
                    ),
                    (4, Some(_)) if !peer_invs.is_empty() => {
                        // A retransmission: stale, or the key's current one.
                        let (from, inv) = rng.choose(&peer_invs).clone();
                        deliver(&mut r, &mut twin, from, inv);
                    }
                    (4 | 5, Some(peer)) => {
                        let k = key.0 as usize;
                        top[k] = top[k].max(twin.node.key_ts(key).version) + 1 + rng.gen_range(3);
                        let kind = if rng.gen_bool(0.3) {
                            UpdateKind::Rmw
                        } else {
                            UpdateKind::Write
                        };
                        let inv = Msg::Inv {
                            key,
                            ts: Ts::new(top[k], peer),
                            value: Value::from_u64(rng.next_u64()),
                            kind,
                            epoch,
                        };
                        peer_invs.push((peer, inv.clone()));
                        deliver(&mut r, &mut twin, peer, inv);
                    }
                    (6, _) if !peer_invs.is_empty() => {
                        let (from, inv) = rng.choose(&peer_invs);
                        let (key, ts) = (inv.key(), inv.ts());
                        deliver(&mut r, &mut twin, *from, Msg::Val { key, ts, epoch });
                    }
                    (7 | 8, Some(peer)) if !own_invs.is_empty() => {
                        let (key, ts) = *rng.choose(&own_invs);
                        deliver(&mut r, &mut twin, peer, Msg::Ack { key, ts, epoch });
                    }
                    (9, Some(peer)) => {
                        let version = twin.node.key_ts(key).version + rng.gen_range(3);
                        let entry = SyncEntry {
                            key,
                            ts: Ts::new(version, peer),
                            kind: UpdateKind::Write,
                            value: Value::from_u64(rng.next_u64()),
                        };
                        let (ts, value) = (entry.ts, entry.value.clone());
                        r.lane.handle(Command::InstallChunk(entry), now);
                        let install = |node: &mut HermesNode, _: &mut Fx| {
                            node.install_chunk(key, ts, value, UpdateKind::Write)
                        };
                        twin.step(now, install);
                    }
                    (10, _) if rng.gen_bool(0.5) => {
                        let cmd = Command::InvalAck { client: B, key };
                        r.lane.handle(cmd, now);
                    }
                    (11, _) if step > 150 && view.epoch < Epoch(3) && rng.gen_bool(0.2) => {
                        let out = NodeId(2 - view.epoch.0 as u32);
                        view = view.without_node(out);
                        peer_invs.retain(|&(from, _)| from != out.0);
                        r.lane.handle(Command::InstallView(view), now);
                        twin.step(now, |node, fx| {
                            node.on_membership_update(view, fx);
                        });
                        // The host's pump closes the serving gate in the
                        // tick that installed a view without this node.
                        r.status.set_serving(view.is_serving(NodeId(0)));
                    }
                    _ => {
                        now += MS * rng.gen_range(30) as u32;
                        for (_, msg) in r.tick(now) {
                            if let Msg::Inv { key, ts, .. } = msg {
                                own_invs.push((key, ts));
                            }
                        }
                        twin.tick(now);
                    }
                }
                let at = format!("seed {seed} step {step}");
                for (op, reply) in r.a_replies() {
                    let twins = twin.replies.remove(&op);
                    assert_eq!(twins.as_ref(), Some(&reply), "{at}: the reply to {op:?}");
                    committed += usize::from(matches!(reply, Reply::WriteOk | Reply::RmwOk { .. }));
                }
                for k in (0..KEYS).map(Key) {
                    let kept = kept_by(&r, k);
                    assert_eq!(kept, entry_of(&twin.node, k), "{at}: {k} left the twin");
                    evicted += u64::from(r.lane.node.entry(k).is_none() && kept.1 > Ts::ZERO);
                    // A key B still owes an ack for is held, mirror included.
                    let held = r.lane.subs.pending.contains_key(&k);
                    let core = twin.node.local_read(k).filter(|_| !held);
                    assert_eq!(r.mirror(k), core, "{at}: the mirror of {k} left the core");
                }
                let resident = r.obs.resident_keys[0].get();
                assert_eq!(resident, r.lane.node.keys_touched() as u64, "{at}: gauge");
                let unmirrored = r.net.unmirrored.lock().unwrap();
                assert!(
                    unmirrored.is_empty(),
                    "{at}: left ahead of the mirror: {unmirrored:?}"
                );
            }
            // Whatever the lane still holds back goes out with a flush, and
            // then every reply the twin produced has left the lane too.
            r.lane.handle(Command::FlushClients, now);
            for (op, reply) in r.a_replies() {
                assert_eq!(twin.replies.remove(&op), Some(reply), "seed {seed}: {op:?}");
            }
            assert!(twin.replies.is_empty(), "seed {seed}: {:?}", twin.replies);
            alone += u64::from(view.epoch >= Epoch(2));
            deposed += u64::from(view.epoch == Epoch(3));
        }
        // The schedules reach what they are for.
        assert!(committed > 100, "only {committed} updates committed");
        assert!(alone > 24, "only {alone} schedules shrank to one member");
        assert!(deposed > 12, "only {deposed} schedules removed this node");
        assert!(
            evicted > 48 * 400,
            "only {evicted} key-steps found a written key evicted"
        );
    }
}
