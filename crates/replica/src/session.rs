//! Pipelined client sessions, generic over how they reach a replica.
//!
//! The paper's clients keep several requests outstanding per session (§5.2)
//! — with one-RTT inter-key-concurrent writes, pipelining is what turns
//! Hermes' low latency into high throughput. A [`ClientSession`] reproduces
//! that model: [`ClientSession::submit`] returns a [`Ticket`] immediately,
//! many operations ride in flight at once, and completions are collected
//! out of order with [`ClientSession::poll`] / [`ClientSession::wait`] /
//! [`ClientSession::wait_any`].
//!
//! The session is generic over a [`SessionChannel`] — the wire between the
//! session and its replica:
//!
//! * [`LaneChannel`] — in-process ([`ThreadCluster::session`]): a read of
//!   a `Valid` key is answered from the node's mirror on the session's own
//!   thread, and every other operation goes straight to the worker lane
//!   owning its key. The mirror is its cache: it cannot subscribe, so it
//!   never keeps one of its own;
//! * [`RemoteChannel`](crate::RemoteChannel) — a real TCP connection to a
//!   `hermesd` replica daemon's client port, over which a session may
//!   subscribe to keys and cache them (DESIGN.md §8).
//!
//! Pipelining is bounded end-to-end by Wings credit-based flow control
//! (paper §4.2, [`CreditFlow`]): each submission spends a credit, each
//! completion returns one, and a session out of credits holds its next
//! submission until a completion arrives — so a client cannot grow a
//! replica's queues without bound under overload.
//!
//! [`ThreadCluster`]: crate::ThreadCluster
//! [`ThreadCluster::session`]: crate::ThreadCluster::session

use crate::host::{LocalReads, Node};
use crate::lane::{ClientSink, Lanes};
use hermes_common::{
    ClientId, ClientOp, Key, NodeId, OpId, Reply, RmwOp, TxnAbort, TxnOp, TxnReply, Value,
};
use hermes_net::{Inbox, Post};
use hermes_obs::{HistogramSnapshot, Quantiles};
use hermes_txn::{conflict_backoff, TxnConfig, TxnMachine, TxnToken};
use hermes_wings::client::{Request, ServerFrame};
use hermes_wings::{CreditConfig, CreditFlow};
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

/// Give up on an individual operation after this long (the blocking
/// cluster API's limit too: an unreachable replica reads as
/// [`Reply::NotOperational`]).
const WAIT_LIMIT: Duration = Duration::from_secs(10);

/// The session's single flow-control peer: its replica.
const SERVER: NodeId = NodeId(0);

/// Names one in-flight operation of a [`ClientSession`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Ticket {
    op: OpId,
}

impl Ticket {
    /// The operation this ticket completes to (ties histories recorded at
    /// the client to checker op ids).
    pub fn op(&self) -> OpId {
        self.op
    }
}

/// The wire between a [`ClientSession`] and its replica: [`Request`]s one
/// way, and everything the replica sends back as one FIFO stream of
/// [`ServerFrame`]s — operation replies interleaved with server-initiated
/// push events (DESIGN.md §8). One queue is load-bearing for cache
/// coherence: a read reply that fills the cache and the invalidation that
/// supersedes it arrive in the order the worker lane emitted them, so the
/// session can never process the fill after the invalidation. A reply a
/// channel answers from the mirror itself keeps that promise by going
/// ahead of every frame emitted after its value was read.
pub trait SessionChannel {
    /// The session id this channel submits as.
    fn client_id(&self) -> ClientId;

    /// Hands `request` to the transport, blocking no longer than that
    /// takes. A channel may hold a [`Request::Op`] back to send it with
    /// others, but no later than its next [`SessionChannel::recv`] or its
    /// drop; every other request goes at once, behind whatever is held, so
    /// the wire order is the order of the calls. Returns `false` when the
    /// service is unreachable, or the channel cannot carry that kind of
    /// request: the session completes an operation as
    /// [`Reply::NotOperational`] then, and a session that cannot subscribe
    /// simply never caches. A request held back and lost with the
    /// connection fails like one in flight: the channel dies.
    fn send(&mut self, request: Request) -> bool;

    /// Sends whatever [`SessionChannel::send`] held back, then returns the
    /// next frame from the replica, blocking up to `wait` for it when given
    /// one.
    fn recv(&mut self, wait: Option<Duration>) -> Option<ServerFrame>;

    /// Whether the channel can still carry traffic. A dead channel (TCP
    /// connection cut) lets blocking waiters fail fast instead of running
    /// out their timeout; in-process channels never die.
    fn is_alive(&self) -> bool;
}

/// In-process channel to one replica's lanes. A read the local-read rule
/// admits (the node's mirror: serving gate, `Valid` slot, no own update of
/// the key in flight) is answered on the session's own thread, with no
/// lane woken; every other operation goes straight to the worker lane
/// owning its key. Completions come back through the session's one
/// [`Inbox`], behind the replies answered here. It refuses subscriptions:
/// a read of a `Valid` key already reaches no lane, so a cache would save
/// nothing.
#[derive(Debug)]
pub struct LaneChannel {
    client: ClientId,
    lanes: Lanes,
    reads: LocalReads,
    /// Replies answered from the mirror, not yet received. Kept off the
    /// inbox: a post there takes the lock the lanes' replies take.
    answered: VecDeque<ServerFrame>,
    events: Inbox<ServerFrame>,
    /// Posts into `events`, unrung: a lane wakes the session only when it
    /// is parked in `recv`.
    replies: Post<ServerFrame>,
}

impl LaneChannel {
    pub(crate) fn new(client: ClientId, node: &Node) -> Self {
        let events = Inbox::new();
        LaneChannel {
            client,
            lanes: node.lanes().clone(),
            reads: LocalReads::new(node.store(), node.status(), node.obs()),
            answered: VecDeque::new(),
            replies: events.poster(None),
            events,
        }
    }
}

impl SessionChannel for LaneChannel {
    fn client_id(&self) -> ClientId {
        self.client
    }

    fn send(&mut self, request: Request) -> bool {
        match request {
            Request::Op { seq, key, cop } => {
                if let Some(reply) = self.reads.answer(key, &cop) {
                    self.answered.push_back(ServerFrame::Reply(seq, reply));
                    return true;
                }
                self.reads.submitted(seq, key, &cop);
                let reply = ClientSink::Session(self.replies.clone());
                self.lanes.op(OpId::new(self.client, seq), key, cop, reply)
            }
            // No subscription, hence no push to ack; the rest is asked of
            // a daemon, not of its lanes.
            Request::Subscribe { .. }
            | Request::Unsubscribe { .. }
            | Request::InvalAck { .. }
            | Request::Metrics { .. }
            | Request::Traces { .. }
            | Request::Shutdown { .. } => false,
        }
    }

    fn recv(&mut self, wait: Option<Duration>) -> Option<ServerFrame> {
        let frame = (self.answered.pop_front())
            .or_else(|| self.events.recv(wait.unwrap_or_default()).ok())?;
        if let ServerFrame::Reply(seq, _) = &frame {
            self.reads.replied(*seq);
        }
        Some(frame)
    }

    fn is_alive(&self) -> bool {
        true
    }
}

/// One client's pipelined connection to one replica.
///
/// Sessions are `Send` — move each one to its own client thread. Over a
/// [`LaneChannel`], a read of a `Valid` key is answered from the replica's
/// mirror on that thread, and every other operation is routed directly to
/// the worker lane owning its key, so two in-flight operations on
/// different shards proceed fully in parallel.
///
/// # Examples
///
/// ```
/// use hermes_common::{Key, Reply, Value};
/// use hermes_core::ProtocolConfig;
/// use hermes_replica::ThreadCluster;
///
/// let cluster = ThreadCluster::start(3, ProtocolConfig::default());
/// let mut session = cluster.session(0);
/// // Pipeline two writes to different shards, then collect both.
/// let a = session.write(Key(1), Value::from_u64(10));
/// let b = session.write(Key(2), Value::from_u64(20));
/// assert_eq!(session.wait(a), Reply::WriteOk);
/// assert_eq!(session.wait(b), Reply::WriteOk);
/// cluster.shutdown();
/// ```
#[derive(Debug)]
pub struct ClientSession<C: SessionChannel = LaneChannel> {
    channel: C,
    next_seq: u64,
    /// Serial of the next multi-key transaction (tokens must be unique per
    /// session, [`TxnToken`]).
    next_txn: u64,
    /// End-to-end flow control: one credit per in-flight operation toward
    /// the session's replica (paper §4.2).
    flow: CreditFlow,
    /// Completions received but not yet handed to the caller.
    ready: HashMap<OpId, Reply>,
    /// Operations already reported to the caller as [`Reply::NotOperational`]
    /// by a timed-out [`ClientSession::wait`]; their late completions are
    /// dropped so no operation is ever observed twice.
    abandoned: HashSet<OpId>,
    /// Submitted operations whose completion has not arrived yet.
    in_flight: usize,
    /// The invalidation-coherent read cache (DESIGN.md §8).
    cache: ReadCache,
    /// In-flight reads on subscribed keys, for cache fills on completion.
    read_keys: HashMap<OpId, Key>,
    /// Submission instants of in-flight remote operations, for RTT
    /// recording at completion (absent when `HERMES_OBS=off`).
    issued_at: HashMap<OpId, Instant>,
    /// Round-trip latency (us) of completed remote operations.
    rtt: HistogramSnapshot,
}

/// Client-side read cache kept coherent by pushed invalidations: fills on
/// read replies of subscribed keys, serves repeat reads with zero RTTs,
/// drops entries on pushed invalidation, epoch change, or disconnect.
#[derive(Debug, Default)]
struct ReadCache {
    /// Valid cached values by key.
    entries: HashMap<Key, Value>,
    /// Keys with a live, acked subscription.
    subscribed: HashSet<Key>,
    /// Highest view epoch observed in any push; a higher one flushes.
    epoch: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
    flushes: u64,
}

impl ReadCache {
    fn on_event(&mut self, ev: &ServerFrame) {
        match *ev {
            ServerFrame::Invalidate { key, epoch } => {
                self.invalidations += 1;
                if epoch > self.epoch {
                    // The push outran the flush for a view change this
                    // session has not heard of yet: nothing cached under
                    // the old view may be served.
                    self.epoch = epoch;
                    self.flushes += 1;
                    self.entries.clear();
                } else {
                    self.entries.remove(&key);
                }
            }
            ServerFrame::Subscribed { key, epoch, .. } => {
                self.subscribed.insert(key);
                self.epoch = self.epoch.max(epoch);
            }
            ServerFrame::Unsubscribed { key, .. } => {
                self.subscribed.remove(&key);
                self.entries.remove(&key);
            }
            ServerFrame::Flush { epoch } => {
                self.flushes += 1;
                self.entries.clear();
                self.epoch = self.epoch.max(epoch);
            }
            // Replies: of no concern to the cache.
            ServerFrame::Reply(..) | ServerFrame::Metrics(..) | ServerFrame::Traces(..) => {}
        }
    }

    /// The channel died: nothing cached or subscribed survives it.
    fn on_disconnect(&mut self) {
        if !self.entries.is_empty() || !self.subscribed.is_empty() {
            self.flushes += 1;
        }
        self.entries.clear();
        self.subscribed.clear();
    }
}

impl<C: SessionChannel> ClientSession<C> {
    /// Builds a session over `channel` with pipelining bounded by
    /// `credits.credits_per_peer`.
    pub fn new(channel: C, credits: CreditConfig) -> Self {
        ClientSession {
            channel,
            next_seq: 0,
            next_txn: 0,
            flow: CreditFlow::new(1, credits),
            ready: HashMap::new(),
            abandoned: HashSet::new(),
            in_flight: 0,
            cache: ReadCache::default(),
            read_keys: HashMap::new(),
            issued_at: HashMap::new(),
            rtt: HistogramSnapshot::empty(),
        }
    }

    /// The session's globally unique client id.
    pub fn client_id(&self) -> ClientId {
        self.channel.client_id()
    }

    /// Operations submitted but not yet collected by the caller.
    pub fn outstanding(&self) -> usize {
        self.in_flight + self.ready.len()
    }

    /// Flow-control credits currently available (0 ⇒ the next submission
    /// blocks until a completion returns a credit).
    pub fn credits_available(&self) -> u32 {
        self.flow.available(SERVER)
    }

    /// Times a submission stalled waiting for a credit — nonzero means the
    /// session has been driven past its pipelining bound and backpressure
    /// engaged.
    pub fn credit_stalls(&self) -> u64 {
        self.flow.stalls()
    }

    /// Starts an operation and returns; the reply is collected later via
    /// [`ClientSession::poll`], [`ClientSession::wait`] or
    /// [`ClientSession::wait_any`]. When the session is out of credits the
    /// call first blocks until an earlier operation completes
    /// (backpressure); an unreachable service eventually completes the
    /// operation as [`Reply::NotOperational`].
    ///
    /// Over a [`RemoteChannel`](crate::RemoteChannel) the operation may not
    /// have left yet when this returns: operations submitted back to back
    /// leave together, in one write, when the session next looks for
    /// replies (any `poll`, `wait`, `wait_any`, credit stall, `txn` or
    /// `subscribe`) or is dropped. A caller that never waits, polls or
    /// drops the session holds its operations.
    pub fn submit(&mut self, key: Key, cop: ClientOp) -> Ticket {
        let t0 = hermes_obs::recording_enabled().then(Instant::now);
        let is_read = matches!(cop, ClientOp::Read);
        if !is_read {
            // Issuer self-invalidation: the lane does not push the writer
            // its own invalidation (it learns the outcome from the reply),
            // so the stale entry must fall here, before the write departs —
            // and so must any pending fill from a pipelined earlier read,
            // whose reply may land after this write and would stick forever.
            self.cache.entries.remove(&key);
            self.read_keys.retain(|_, rk| *rk != key);
        } else if self.cache.subscribed.contains(&key) {
            // Drain-then-serve: apply every already-arrived invalidation
            // before consulting the cache, so a served hit reflects all
            // pushes that preceded this call.
            self.pump(None);
            if !self.channel.is_alive() {
                self.cache.on_disconnect();
            } else if let Some(value) = self.cache.entries.get(&key) {
                self.cache.hits += 1;
                let op = OpId::new(self.channel.client_id(), self.next_seq);
                self.next_seq += 1;
                // A zero-RTT local completion: no credit, no channel trip.
                self.ready.insert(op, Reply::ReadOk(value.clone()));
                return Ticket { op };
            } else {
                self.cache.misses += 1;
            }
        }
        let op = OpId::new(self.channel.client_id(), self.next_seq);
        self.next_seq += 1;
        let credit = self.block_on(|s| s.flow.try_consume(SERVER).then_some(()));
        if credit.is_none() {
            // Out of credits and nothing completing: the service is
            // effectively gone for this session.
            self.ready.insert(op, Reply::NotOperational);
            return Ticket { op };
        }
        let seq = op.seq;
        if self.channel.send(Request::Op { seq, key, cop }) {
            self.in_flight += 1;
            if is_read && self.cache.subscribed.contains(&key) {
                self.read_keys.insert(op, key);
            }
            if let Some(t0) = t0 {
                self.issued_at.insert(op, t0);
            }
        } else {
            // Service gone: return the credit, complete immediately.
            self.flow.on_implicit_credit(SERVER);
            self.ready.insert(op, Reply::NotOperational);
        }
        Ticket { op }
    }

    /// Pipelined write.
    pub fn write(&mut self, key: Key, value: Value) -> Ticket {
        self.submit(key, ClientOp::Write(value))
    }

    /// Pipelined read.
    pub fn read(&mut self, key: Key) -> Ticket {
        self.submit(key, ClientOp::Read)
    }

    /// Pipelined read-modify-write.
    pub fn rmw(&mut self, key: Key, rmw: RmwOp) -> Ticket {
        self.submit(key, ClientOp::Rmw(rmw))
    }

    /// Asks the replica to push invalidations for `key` and blocks until
    /// the subscription is live. While subscribed, repeat reads of `key`
    /// are served from the local cache with zero round trips, staying
    /// linearizable through the pushed invalidation stream (DESIGN.md §8).
    /// Returns `false` when the channel cannot carry subscriptions (a
    /// [`LaneChannel`], whose reads the mirror already answers, or a dead
    /// one) — the session then simply never caches, which is always safe.
    pub fn subscribe(&mut self, key: Key) -> bool {
        if self.cache.subscribed.contains(&key) {
            return true;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.channel.send(Request::Subscribe { seq, key })
            && (self.block_on(|s| s.cache.subscribed.contains(&key).then_some(()))).is_some()
    }

    /// Drops the push subscription for `key`, blocking until the replica
    /// confirms; the cached entry is discarded immediately either way.
    pub fn unsubscribe(&mut self, key: Key) -> bool {
        self.cache.entries.remove(&key);
        if !self.cache.subscribed.contains(&key) {
            return true;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.channel.send(Request::Unsubscribe { seq, key })
            && (self.block_on(|s| (!s.cache.subscribed.contains(&key)).then_some(()))).is_some()
    }

    /// Whether `key` currently has a live push subscription.
    pub fn is_subscribed(&self, key: Key) -> bool {
        self.cache.subscribed.contains(&key)
    }

    /// Reads served locally from the cache (zero round trips).
    pub fn cache_hits(&self) -> u64 {
        self.cache.hits
    }

    /// Reads of subscribed keys that had to go to the replica.
    pub fn cache_misses(&self) -> u64 {
        self.cache.misses
    }

    /// Invalidation pushes applied to this session's cache.
    pub fn cache_invalidations(&self) -> u64 {
        self.cache.invalidations
    }

    /// Whole-cache flushes (view changes, replica flush pushes,
    /// disconnects).
    pub fn cache_flushes(&self) -> u64 {
        self.cache.flushes
    }

    /// Entries currently valid in the cache.
    pub fn cached_entries(&self) -> usize {
        self.cache.entries.len()
    }

    /// Round-trip latency quantiles (us) over every completed remote
    /// operation of this session. Empty when `HERMES_OBS=off`.
    pub fn rtt_quantiles(&self) -> Quantiles {
        self.rtt.quantiles()
    }

    /// The session's full RTT histogram, mergeable across sessions with
    /// [`HistogramSnapshot::merge`] for fleet-wide percentiles.
    pub fn rtt_histogram(&self) -> &HistogramSnapshot {
        &self.rtt
    }

    /// Highest view epoch the cache has observed in a push.
    pub fn cache_epoch(&self) -> u64 {
        self.cache.epoch
    }

    /// Drains arrived events into the session (completions into `ready`,
    /// pushes into the cache); with a timeout and nothing to drain, blocks
    /// until one event arrives or the timeout elapses. It returns after
    /// *any* event, so the condition of whoever is blocking (a ready reply,
    /// a credit, a subscription ack) is rechecked the moment it can have
    /// changed.
    fn pump(&mut self, block_for: Option<Duration>) {
        let mut any = false;
        while let Some(ev) = self.channel.recv(None) {
            any = true;
            self.on_event(ev);
        }
        if !any && block_for.is_some() {
            if let Some(ev) = self.channel.recv(block_for) {
                self.on_event(ev);
            }
        }
    }

    /// Pumps until `done` yields: the one loop under every blocking call.
    /// It gives up when [`WAIT_LIMIT`] has passed or the channel has died —
    /// a dead channel's `recv` returns at once, so waiting on it
    /// would spin the limit out — in both cases after a last drain of what
    /// the channel still held and a last look at `done`.
    fn block_on<T>(&mut self, mut done: impl FnMut(&mut Self) -> Option<T>) -> Option<T> {
        let deadline = Instant::now() + WAIT_LIMIT;
        loop {
            if let Some(out) = done(self) {
                return Some(out);
            }
            let now = Instant::now();
            if now >= deadline || !self.channel.is_alive() {
                self.pump(None);
                return done(self);
            }
            self.pump(Some(deadline - now));
        }
    }

    /// Applies one channel event.
    fn on_event(&mut self, ev: ServerFrame) {
        match ev {
            ServerFrame::Reply(seq, reply) => {
                self.accept(OpId::new(self.channel.client_id(), seq), reply);
            }
            other => {
                // An invalidation also cancels pending fills for its key: a
                // read reply held at the replica (pending earlier inval
                // acks) can be released *after* a later write's push, and
                // filling from it would resurrect the superseded value with
                // no further invalidation to evict it. A flush (or an epoch
                // the cache has not seen) cancels every pending fill for
                // the same reason.
                match other {
                    ServerFrame::Invalidate { key, epoch } => {
                        if epoch > self.cache.epoch {
                            self.read_keys.clear();
                        } else {
                            self.read_keys.retain(|_, rk| *rk != key);
                        }
                    }
                    ServerFrame::Flush { .. } => self.read_keys.clear(),
                    ServerFrame::Unsubscribed { key, .. } => {
                        self.read_keys.retain(|_, rk| *rk != key);
                    }
                    _ => {}
                }
                self.cache.on_event(&other);
            }
        }
    }

    /// Books one completion, returning its flow-control credit; late
    /// completions of abandoned (timed-out) ops are dropped.
    fn accept(&mut self, op: OpId, reply: Reply) {
        self.in_flight = self.in_flight.saturating_sub(1);
        self.flow.on_implicit_credit(SERVER);
        if let Some(t0) = self.issued_at.remove(&op) {
            self.rtt.record(t0.elapsed().as_micros() as u64);
        }
        // Cache fill: a read reply on a subscribed key whose fill was not
        // canceled by an interleaved invalidation, flush, or own write (see
        // `on_event`/`submit`) reflects the latest acked state of the key.
        if let Some(key) = self.read_keys.remove(&op) {
            if let Reply::ReadOk(value) = &reply {
                if self.cache.subscribed.contains(&key) {
                    self.cache.entries.insert(key, value.clone());
                }
            }
        }
        if !self.abandoned.remove(&op) {
            self.ready.insert(op, reply);
        }
    }

    /// Non-blocking completion check: the reply, if `ticket` has completed.
    pub fn poll(&mut self, ticket: Ticket) -> Option<Reply> {
        self.pump(None);
        self.ready.remove(&ticket.op)
    }

    /// Blocks until `ticket` completes. An operation that does not complete
    /// within the internal limit, or whose channel died first, reads as
    /// [`Reply::NotOperational`] and is abandoned: a completion arriving
    /// later is silently dropped, so no operation is ever observed twice.
    pub fn wait(&mut self, ticket: Ticket) -> Reply {
        self.block_on(|s| s.ready.remove(&ticket.op))
            .unwrap_or_else(|| {
                if ticket.op.seq < self.next_seq {
                    self.abandoned.insert(ticket.op);
                    // A late completion must not record a bogus 10s+ RTT.
                    self.issued_at.remove(&ticket.op);
                }
                Reply::NotOperational
            })
    }

    /// Blocks until *any* outstanding operation completes and returns it
    /// (completions arrive out of order under inter-key concurrency).
    /// Returns `None` when nothing is outstanding, the channel died, or the
    /// wait limit passes.
    pub fn wait_any(&mut self) -> Option<(Ticket, Reply)> {
        // Keeps pumping past a dropped late completion of an abandoned op:
        // that must not read as "service gone" while others are in flight.
        self.block_on(|s| match s.ready.keys().next().copied() {
            Some(op) => Some(s.ready.remove(&op).map(|reply| (Ticket { op }, reply))),
            // Nothing outstanding ends the wait as well, empty-handed.
            None => (s.in_flight == 0).then_some(None),
        })
        .flatten()
    }

    /// Executes one multi-key transaction (`hermes-txn`, DESIGN.md §6),
    /// blocking until it commits or aborts.
    ///
    /// The coordinator lives entirely in the session: the transaction's
    /// single-key sub-operations (lock CASes, reads, writes, unlocks) ride
    /// this session's ordinary pipelined submit path, fanning across shard
    /// lanes in-process or across a TCP connection — neither the worker
    /// lanes nor a daemon's client plane host any transaction state. This
    /// is the only transaction driver, and it runs where the session
    /// lives. Sub-operations of one phase are pipelined; lock acquisition
    /// is sequential in sorted key order.
    ///
    /// If the transport dies mid-transaction the result is
    /// [`TxnResult::InDoubt`], carrying the coordinator state: open a
    /// fresh session to the cluster and finish the transaction with
    /// [`ClientSession::resume_txn`] — every sub-operation is idempotent,
    /// so resuming never double-applies and never leaves a partial write.
    pub fn txn(&mut self, op: TxnOp) -> TxnResult {
        let serial = self.next_txn;
        self.next_txn += 1;
        let token = TxnToken::new(self.channel.client_id().0, serial);
        self.drive_txn(TxnMachine::new(token, op, TxnConfig::default()))
    }

    /// Resumes an in-doubt transaction ([`TxnResult::InDoubt`]) over this
    /// session — typically a fresh connection after the one that started
    /// the transaction died. Unanswered sub-operations are re-issued
    /// idempotently; the transaction then commits or rolls back exactly as
    /// if the transport had never failed.
    pub fn resume_txn(&mut self, pending: PendingTxn) -> TxnResult {
        let mut machine = *pending.machine;
        machine.resume();
        self.drive_txn(machine)
    }

    fn drive_txn(&mut self, mut machine: TxnMachine) -> TxnResult {
        let mut subs = Vec::new();
        // Session ticket → machine sub-op tag for everything in flight.
        let mut tags: HashMap<Ticket, u64> = HashMap::new();
        let mut paced_attempt = machine.attempts();
        loop {
            if let Some(reply) = machine.outcome() {
                return match reply.clone() {
                    TxnReply::Committed { values } => TxnResult::Committed(values),
                    TxnReply::Aborted(abort) => TxnResult::Aborted(abort),
                };
            }
            if machine.in_doubt() {
                self.abandon_txn_tickets(&mut tags);
                return TxnResult::InDoubt(PendingTxn {
                    machine: Box::new(machine),
                });
            }
            if machine.attempts() > paced_attempt {
                // A lock conflict restarted acquisition: back off briefly
                // (jittered by session identity) *before* submitting the
                // retry's first lock CAS, so colliding coordinators do not
                // re-collide in lockstep.
                paced_attempt = machine.attempts();
                std::thread::sleep(conflict_backoff(paced_attempt, self.client_id().0));
            }
            machine.poll(&mut subs);
            for sub in subs.drain(..) {
                let ticket = self.submit(sub.key, sub.cop);
                tags.insert(ticket, sub.tag);
            }
            let Some((ticket, reply)) = self.wait_txn_completion(&tags) else {
                // Nothing completed within the limit: the service is gone
                // for this session; every outstanding sub-op is unknown.
                let pending: Vec<(Ticket, u64)> = tags.drain().collect();
                for (ticket, tag) in pending {
                    self.abandoned.insert(ticket.op);
                    machine.on_reply(tag, Reply::NotOperational);
                }
                return TxnResult::InDoubt(PendingTxn {
                    machine: Box::new(machine),
                });
            };
            let tag = tags
                .remove(&ticket)
                .expect("completion matches a txn ticket");
            machine.on_reply(tag, reply);
        }
    }

    /// Blocks until a completion belonging to `tags` arrives (completions
    /// of the caller's unrelated operations stay queued in `ready`).
    fn wait_txn_completion(&mut self, tags: &HashMap<Ticket, u64>) -> Option<(Ticket, Reply)> {
        self.block_on(|s| {
            let mine = |op: &&OpId| tags.contains_key(&Ticket { op: **op });
            let op = s.ready.keys().find(mine).copied()?;
            s.ready.remove(&op).map(|reply| (Ticket { op }, reply))
        })
    }

    /// Drops any not-yet-collected completions of an in-doubt transaction
    /// so they can never be observed twice after a resume re-issues them.
    fn abandon_txn_tickets(&mut self, tags: &mut HashMap<Ticket, u64>) {
        for (ticket, _) in tags.drain() {
            if self.ready.remove(&ticket.op).is_none() {
                self.abandoned.insert(ticket.op);
            }
        }
    }
}

/// How a multi-key transaction ([`ClientSession::txn`]) ended.
#[derive(Debug)]
pub enum TxnResult {
    /// Committed; carries the committed observation (snapshot values for a
    /// multi-get, prior balances for a transfer).
    Committed(Vec<(Key, Value)>),
    /// Aborted with no effect (lock conflict past the retry budget, failed
    /// validation, or a malformed request).
    Aborted(TxnAbort),
    /// The transport died mid-transaction: outcome unknown until resumed.
    /// Pass the carried [`PendingTxn`] to [`ClientSession::resume_txn`] on
    /// a fresh session to finish (or roll back) the transaction; dropping
    /// it instead may leave lock records held until an operator clears
    /// them.
    InDoubt(PendingTxn),
}

impl TxnResult {
    /// The transaction's reply, if it resolved (`None` while in doubt) —
    /// the form recorded into transaction histories.
    pub fn as_reply(&self) -> Option<TxnReply> {
        match self {
            TxnResult::Committed(values) => Some(TxnReply::Committed {
                values: values.clone(),
            }),
            TxnResult::Aborted(abort) => Some(TxnReply::Aborted(*abort)),
            TxnResult::InDoubt(_) => None,
        }
    }

    /// Whether the transaction committed.
    pub fn is_committed(&self) -> bool {
        matches!(self, TxnResult::Committed(_))
    }
}

/// An in-doubt transaction's coordinator state, detached from the dead
/// session that started it (see [`TxnResult::InDoubt`]).
#[derive(Debug)]
pub struct PendingTxn {
    /// Boxed: the coordinator state is large and the in-doubt case rare.
    machine: Box<TxnMachine>,
}
