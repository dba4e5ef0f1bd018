//! The client plane: every lane hosts its share of the remote sessions,
//! each on a readiness-driven [`Shard`] the lane's own loop steps
//! (DESIGN.md §7).
//!
//! The paper's HermesKV never spends a thread per connection — worker
//! threads poll their receive queues (§4), client requests and protocol
//! messages alike, so no thread sits between a request and the worker that
//! runs it. The client port does the same:
//!
//! * lane *i*'s **shard** owns an OS readiness multiplexer ([`Poller`],
//!   epoll on Linux) over thousands of non-blocking client sockets, nested
//!   in the lane's one wait beside its peer links; lane 0 also accepts,
//!   dealing connections round-robin through the other lanes' queues;
//! * each connection is a sans-io **session state machine**
//!   ([`SessionMachine`]): bytes in → the [`Request`]s it admits out,
//!   [`ServerFrame`]s in → encoded behind their length prefix in a write
//!   buffer — no I/O, no threads, unit-testable in isolation;
//! * a read of a `Valid` key never reaches a lane's engine: the machine
//!   answers it from the node's seqlock mirror ([`LocalReads`], the rule an
//!   in-process session's channel applies too) in the pass that decoded
//!   it — the paper's local read (§3.1), on the thread that received it;
//!   every other read takes the lane path;
//! * an operation on a key the hosting lane owns runs inline; any other
//!   goes to its owner's queue. A lane finishing an operation posts the
//!   reply to the hosting lane's queue ([`ClientSink::Remote`]), and the
//!   hosting lane writes it, once per session per pass;
//! * Wings credit flow control ([`CreditFlow`], paper §4.2) runs *in* the
//!   state machine: an operation that finds no credit stays buffered, and
//!   from then until a completion returns one the socket is not read
//!   ([`Interest::NONE`] parks it, so level-triggered readiness does not
//!   spin). A client cannot grow the replica's queues without bound — and
//!   one that keeps to its budget is always read, so the credit-exempt
//!   `InvalAck` of a session with every credit in flight still arrives
//!   (DESIGN.md §8: an ack never waits behind a full pipeline).
//!
//! The plane coordinates no transaction: a remote client's transaction is
//! a sequence of ordinary operations its own session drives
//! (`ClientSession::txn`). It runs no thread of its own: a replica's
//! thread count is its lane count, whatever the session count.

use crate::host::LocalReads;
use crate::lane::{ClientSink, Command, Lanes};
use crate::membership::MembershipStatus;
use crate::metrics::NodeObs;
use crate::node::MAX_CLIENT_FRAME;
use hermes_common::{ClientId, NodeId, OpId, Reply};
use hermes_net::{Interest, PollEvent, Poller, Wait};
use hermes_obs::{obs_warn, Histogram};
use hermes_store::Store;
use hermes_wings::client::{self as rpc, Request, ServerFrame};
use hermes_wings::{CreditConfig, CreditFlow};
use std::collections::{HashMap, HashSet};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Remote connections' protocol-level client ids live above this base so
/// they can never collide with in-process session ids.
pub(crate) const REMOTE_CLIENT_BASE: u64 = 1 << 33;

/// The client listener's token in lane 0's shard; a session's is its
/// client id, which is never 0.
const TOKEN_LISTENER: u64 = 0;

/// Per-readiness-event read chunk.
const READ_CHUNK: usize = 16 * 1024;

/// File descriptors kept free under `ulimit -n` for everything that is not
/// a client session: epoll instances, wakers, peer sockets, the listener,
/// stdio and the store.
const FD_HEADROOM: u64 = 64;

/// Hysteresis below the fd budget before a paused listener resumes
/// accepting, so the plane does not flap at the boundary.
const ACCEPT_RESUME_SLACK: u64 = 8;

/// A session whose client stops reading may accumulate at most this much
/// undrained reply data before the shard kills it (slowloris bound).
const OUT_CAP: usize = 64 << 20;

/// The session's single flow-control peer: its replica.
const SERVER: NodeId = NodeId(0);

/// One remote session as a non-blocking state machine — the sans-io
/// boundary: the machine decodes and frames bytes, the shard owns sockets
/// and lanes. Request bytes in ([`SessionMachine::on_bytes`]) and, under
/// the Wings credit budget, the admitted subsequence of the [`Request`]s
/// they decode to out, for the shard to act on: a read served from the
/// mirror and a frame stalled for a credit are the ones that do not
/// appear. Everything outbound in ([`SessionMachine::on_frame`]) and
/// into a write buffer. Performs no I/O.
pub(crate) struct SessionMachine {
    /// Received-but-undecoded bytes (partial frames, credit-stalled frames).
    inbuf: Vec<u8>,
    /// Prefix of `inbuf` already decoded (compacted after each drain).
    parsed: usize,
    /// Encoded reply frames not yet written to the socket.
    out: Vec<u8>,
    /// Prefix of `out` already written.
    out_at: usize,
    /// Wings flow control against the replica's single server slot: one
    /// credit per submitted op, returned by its completion (paper §4.2).
    credits: CreditFlow,
    /// Whether a complete operation frame is buffered with no credit to run
    /// it: set where decoding stops for that, cleared when it next runs.
    stalled: bool,
    /// The session's local reads: who may be answered from the mirror.
    reads: LocalReads,
    /// Keys this session subscribed to for invalidation pushes: the
    /// per-session filter that keeps a lane's fan-out from reaching
    /// sessions that already unsubscribed (frames in flight race).
    subs: HashSet<u64>,
    max_frame: usize,
    dead: bool,
}

impl SessionMachine {
    pub(crate) fn new(credits: CreditConfig, max_frame: usize, reads: LocalReads) -> Self {
        SessionMachine {
            inbuf: Vec::new(),
            parsed: 0,
            out: Vec::new(),
            out_at: 0,
            credits: CreditFlow::new(1, credits),
            stalled: false,
            reads,
            subs: HashSet::new(),
            max_frame,
            dead: false,
        }
    }

    /// Bytes arrived from the socket: accumulate and decode what the
    /// credit budget allows.
    pub(crate) fn on_bytes(&mut self, data: &[u8], fx: &mut Vec<Request>) {
        if self.dead {
            return;
        }
        self.inbuf.extend_from_slice(data);
        self.decode_pending(fx);
    }

    /// A frame for this session's client, whoever made it — a lane or the
    /// shard answering a query: does what its kind means for the session's
    /// books, appends it to the write buffer, and, where it is the reply
    /// that frames were held back for (a credit returned), resumes decoding
    /// them. Returns whether it was framed — when an `Invalidate` was not
    /// (the subscription filter raced an unsubscribe, or the session died),
    /// the shard acks the lane on the client's behalf so the held effects
    /// release promptly.
    pub(crate) fn on_frame(&mut self, frame: &ServerFrame, fx: &mut Vec<Request>) -> bool {
        if self.dead {
            return false;
        }
        match *frame {
            ServerFrame::Reply(seq, _) => {
                self.credits.on_implicit_credit(SERVER);
                self.reads.replied(seq);
            }
            ServerFrame::Invalidate { key, .. } if !self.subs.contains(&key.0) => return false,
            ServerFrame::Unsubscribed { key, .. } => {
                self.subs.remove(&key.0);
            }
            _ => {}
        }
        self.frame(frame);
        if matches!(frame, ServerFrame::Reply(..)) {
            self.decode_pending(fx);
        }
        !self.dead
    }

    /// Appends one frame to the write buffer, encoded in place.
    fn frame(&mut self, frame: &ServerFrame) {
        let at = self.out.len();
        rpc::put_frame(&mut self.out, |out| frame.encode(out));
        if self.out.len() - self.out_at > OUT_CAP {
            // The client stopped reading long ago: cut it loose rather
            // than buffer without bound.
            self.out.truncate(at);
            self.dead = true;
        }
    }

    fn decode_pending(&mut self, fx: &mut Vec<Request>) {
        self.stalled = false;
        while !self.dead {
            let payload = match rpc::split_frame(&self.inbuf[self.parsed..], self.max_frame) {
                Ok(Some(payload)) => payload,
                Ok(None) => break,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            };
            let len = payload.len();
            let Ok(request) = Request::decode(payload) else {
                self.dead = true; // Protocol error: drop the connection.
                break;
            };
            match request {
                Request::Op { seq, key, ref cop } => {
                    // The local read (paper §3.1): answered from the mirror
                    // in this pass, at no credit.
                    if let Some(reply) = self.reads.answer(key, cop) {
                        self.frame(&ServerFrame::Reply(seq, reply));
                    } else if self.credits.try_consume(SERVER) {
                        self.reads.submitted(seq, key, cop);
                        fx.push(request);
                    } else {
                        self.stalled = true;
                        break; // The frame stays buffered.
                    }
                }
                // No credit consumed by any of the rest: a scraper, the
                // trace aggregator polling beside it and subscription
                // traffic must not steal op pipelining capacity, and an
                // `InvalAck` must never wait behind a full pipeline.
                Request::Subscribe { key, .. } => {
                    self.subs.insert(key.0);
                    fx.push(request);
                }
                Request::Unsubscribe { key, .. } => {
                    self.subs.remove(&key.0);
                    fx.push(request);
                }
                Request::Shutdown { seq } => {
                    // Acked here; the shard raises the flag.
                    self.frame(&ServerFrame::Reply(seq, Reply::WriteOk));
                    fx.push(request);
                }
                Request::Metrics { .. } | Request::Traces { .. } | Request::InvalAck { .. } => {
                    fx.push(request);
                }
            }
            self.parsed += 4 + len;
        }
        if self.parsed > 0 {
            self.inbuf.drain(..self.parsed);
            self.parsed = 0;
        }
    }

    /// Whether the socket should be read. False while backpressured (an
    /// operation frame is waiting for a credit): the shard parks read
    /// interest and the client's bytes wait in the kernel buffer. Out of
    /// credits with nothing waiting is not backpressure: what a client that
    /// keeps to its budget sends then is credit-exempt, an `InvalAck` among
    /// it, and has to be read.
    pub(crate) fn wants_read(&self) -> bool {
        !self.dead && !self.stalled
    }

    /// Whether reply bytes are waiting to be written.
    pub(crate) fn wants_write(&self) -> bool {
        self.out_at < self.out.len()
    }

    /// The unwritten tail of the write buffer.
    pub(crate) fn write_chunk(&self) -> &[u8] {
        &self.out[self.out_at..]
    }

    /// `n` bytes of [`SessionMachine::write_chunk`] reached the socket.
    pub(crate) fn advance_write(&mut self, n: usize) {
        self.out_at += n;
        debug_assert!(self.out_at <= self.out.len());
        if self.out_at == self.out.len() {
            self.out.clear();
            self.out_at = 0;
        }
    }

    /// Marks the session dead (socket EOF / error / protocol violation /
    /// eviction); the shard reaps it.
    pub(crate) fn kill(&mut self) {
        self.dead = true;
    }

    pub(crate) fn is_dead(&self) -> bool {
        self.dead
    }
}

/// One open connection as its shard sees it.
struct Session {
    stream: TcpStream,
    machine: SessionMachine,
    /// Interest currently registered in the poller (avoids redundant
    /// `reregister` syscalls).
    interest: Interest,
    /// When read interest was parked on credit exhaustion (observability:
    /// the credit-stall duration is recorded at unpark).
    parked_at: Option<Instant>,
}

/// Lane `index`'s shard of the client plane: the remote sessions the lane
/// hosts, in a poller nested in the lane's wait, and — on the listening
/// lane — the client listener. The lane's loop steps it: [`Shard::poll`]
/// after its links, [`Shard::on_command`] for what other lanes posted,
/// [`Shard::finish_pass`] last.
pub(crate) struct Shard {
    index: usize,
    poller: Poller,
    events: Vec<PollEvent>,
    /// The client listener (lane 0 only): accepted connections round-robin
    /// across all lanes.
    listener: Option<TcpListener>,
    /// Plane-wide session budget derived from `ulimit -n` minus
    /// [`FD_HEADROOM`]; `None` when the limit cannot be read.
    fd_budget: Option<u64>,
    /// Whether the listener is parked because open sessions hit the fd
    /// budget (accepting more would exhaust the process fd table).
    accept_paused: bool,
    /// Connections accepted: the next one's client id and, modulo the lane
    /// count, its hosting lane.
    accepted: u64,
    /// Every session this lane hosts, by client id — also its poller token.
    sessions: HashMap<u64, Session>,
    lanes: Lanes,
    shutdown: Arc<AtomicBool>,
    /// Node-wide observability state: this shard's open sessions, the
    /// accept / decode / drain / stall counts and timings it records, the
    /// registry whose rendering answers the metrics RPC, and the trace
    /// rings the traces RPC drains (each scrape sees each span exactly
    /// once).
    obs: Arc<NodeObs>,
    rdbuf: Vec<u8>,
    /// The node's seqlock mirror and the serving gate in front of it, which
    /// answer this shard's sessions' `Valid` reads.
    store: Arc<Store>,
    status: Arc<MembershipStatus>,
    fx: Vec<Request>,
    /// Sessions this pass read or framed for, in any order and repeated:
    /// each is finished once when the pass ends.
    touched: Vec<u64>,
}

impl Shard {
    /// The client plane over an already-bound client listener: one shard
    /// per lane of `lanes`, nested in that lane's wait, the listener in lane
    /// 0's. The listener's accept queue is deepened to the plane's fd
    /// budget ([`listen_backlog`]). `shutdown` is raised by a session's
    /// shutdown request.
    pub(crate) fn plane(
        listener: TcpListener,
        waits: &[Wait],
        lanes: &Lanes,
        shutdown: &Arc<AtomicBool>,
        obs: &Arc<NodeObs>,
        store: &Arc<Store>,
        status: &Arc<MembershipStatus>,
    ) -> io::Result<Vec<Shard>> {
        listener.set_nonblocking(true)?;
        let fd_budget = nofile_limit().map(|n| n.saturating_sub(FD_HEADROOM));
        if let Some(budget) = fd_budget {
            listen_backlog(&listener, budget)?;
        }
        let mut listener = Some(listener);
        let shard = |(index, wait): (usize, &Wait)| -> io::Result<Shard> {
            let poller = Poller::new()?;
            wait.nest(&poller)?;
            let listener = listener.take();
            if let Some(l) = &listener {
                poller.register(l.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
            }
            Ok(Shard {
                index,
                poller,
                events: Vec::new(),
                listener,
                fd_budget,
                accept_paused: false,
                accepted: 0,
                sessions: HashMap::new(),
                lanes: lanes.clone(),
                shutdown: Arc::clone(shutdown),
                obs: Arc::clone(obs),
                rdbuf: vec![0u8; READ_CHUNK],
                store: Arc::clone(store),
                status: Arc::clone(status),
                fx: Vec::new(),
                touched: Vec::new(),
            })
        };
        waits.iter().enumerate().map(shard).collect()
    }

    /// Does what became possible, without blocking: accepts on the
    /// listening lane, and reads every readable session — handing an
    /// operation on a key this lane owns to `here`, any other to its
    /// owner's queue.
    pub(crate) fn poll(&mut self, here: &mut dyn FnMut(Command)) {
        let mut events = std::mem::take(&mut self.events);
        events.clear();
        let _ = self.poller.wait(&mut events, Some(Duration::ZERO));
        for ev in &events {
            match ev.token {
                TOKEN_LISTENER => self.accept_ready(),
                token => self.session_io(token, *ev, here),
            }
        }
        self.events = events;
    }

    /// One of the commands a lane's queue carries for its sessions:
    /// [`Command::Conn`], [`Command::Frame`] or [`Command::Evict`].
    pub(crate) fn on_command(&mut self, cmd: Command, here: &mut dyn FnMut(Command)) {
        match cmd {
            Command::Conn(stream, client) => self.install(stream, client),
            Command::Frame(client, frame) => {
                // A miss means the session was reaped: a reply has nowhere
                // to go, and the lane's DropClient broadcast (sent at reap)
                // clears whatever ack a push was waiting on. Drop it.
                let Some(sess) = self.sessions.get_mut(&client.0) else {
                    return;
                };
                let mut fx = std::mem::take(&mut self.fx);
                let framed = sess.machine.on_frame(&frame, &mut fx);
                if let (ServerFrame::Invalidate { key, .. }, false) = (frame, framed) {
                    // Nothing went to the client, so no ack will come
                    // back: ack the lane on its behalf rather than making
                    // the writer wait for the kick timeout.
                    let ack = Command::InvalAck { client, key };
                    self.lanes.route(self.index, key, ack, here);
                }
                self.apply_effects(client.0, &mut fx, here);
                self.fx = fx;
                self.touched.push(client.0);
            }
            Command::Evict(client) => {
                if let Some(sess) = self.sessions.get_mut(&client.0) {
                    sess.machine.kill();
                    self.touched.push(client.0);
                }
            }
            _ => {}
        }
    }

    /// The end of the lane's pass: each session the pass touched is
    /// written once, with all the pass framed for it (Wings batching, paper
    /// §4.2); then a parked listener may resume. The lane wakes at least
    /// every [`MLT`](crate::lane::MLT), so reaps that freed fds are seen.
    pub(crate) fn finish_pass(&mut self) {
        self.touched.sort_unstable();
        self.touched.dedup();
        while let Some(token) = self.touched.pop() {
            self.finish_io(token);
        }
        self.maybe_resume_accept();
    }

    /// Drains the accept queue, spreading connections round-robin over all
    /// lanes (another lane gets its own through its queue). Stops —
    /// parking the listener — when open sessions reach the fd budget;
    /// pending connections wait in the kernel backlog until
    /// [`Shard::maybe_resume_accept`] unpauses.
    fn accept_ready(&mut self) {
        while !self.accept_paused {
            if !accept_within_budget(self.obs.open_sessions(), self.fd_budget) {
                return self.pause_accept();
            }
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    let client = ClientId(REMOTE_CLIENT_BASE + self.accepted);
                    let host = (self.accepted % self.lanes.workers() as u64) as usize;
                    self.accepted += 1;
                    if host == self.index {
                        self.install(stream, client);
                    } else {
                        self.lanes.send(host, Command::Conn(stream, client));
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // `WouldBlock`: the backlog is empty.
                Err(_) => return,
            }
        }
    }
    /// Parks the listener: deregisters it from the poller (level-triggered
    /// readiness would otherwise spin on the waiting backlog) and counts
    /// the stall.
    fn pause_accept(&mut self) {
        let Some(l) = self.listener.as_ref() else {
            return;
        };
        let _ = self.poller.deregister(l.as_raw_fd());
        self.accept_paused = true;
        self.obs.accept_stalls.inc();
        obs_warn!(
            "replica::poller",
            "{} open sessions reached the fd budget ({:?}); pausing accept",
            self.obs.open_sessions(),
            self.fd_budget,
        );
    }

    /// Re-registers a parked listener once enough sessions have reaped to
    /// leave [`ACCEPT_RESUME_SLACK`] of headroom (hysteresis against
    /// flapping at the boundary), then drains whatever queued meanwhile.
    fn maybe_resume_accept(&mut self) {
        let open = self.obs.open_sessions() + ACCEPT_RESUME_SLACK;
        if !self.accept_paused || open > self.fd_budget.unwrap_or(u64::MAX) {
            return;
        }
        let Some(fd) = self.listener.as_ref().map(AsRawFd::as_raw_fd) else {
            return;
        };
        if self
            .poller
            .register(fd, TOKEN_LISTENER, Interest::READ)
            .is_ok()
        {
            self.accept_paused = false;
            self.accept_ready();
        }
    }

    fn install(&mut self, stream: TcpStream, client: ClientId) {
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return;
        }
        let fd = stream.as_raw_fd();
        if self.poller.register(fd, client.0, Interest::READ).is_err() {
            return;
        }
        let reads = LocalReads::new(&self.store, &self.status, &self.obs);
        self.sessions.insert(
            client.0,
            Session {
                stream,
                machine: SessionMachine::new(CreditConfig::default(), MAX_CLIENT_FRAME, reads),
                interest: Interest::READ,
                parked_at: None,
            },
        );
        self.obs.accepts.inc();
        self.obs.shard_sessions[self.index].inc();
    }

    fn session_io(&mut self, token: u64, ev: PollEvent, here: &mut dyn FnMut(Command)) {
        self.touched.push(token);
        let Some(sess) = self.sessions.get_mut(&token) else {
            return;
        };
        if !ev.readable && !ev.hangup {
            return; // Writable: the end of the pass writes it.
        }
        let t0 = hermes_obs::recording_enabled().then(Instant::now);
        let mut fx = std::mem::take(&mut self.fx);
        if !drain_read(sess, &mut self.rdbuf, &mut fx) {
            sess.machine.kill();
        }
        record_since(&self.obs.poller_decode_us, t0);
        self.apply_effects(token, &mut fx, here);
        self.fx = fx;
    }

    /// Acts on the requests the machine admitted: operations and
    /// subscription traffic to the lanes owning their keys (replies and
    /// pushes come back through this lane's queue, [`ClientSink::Remote`]),
    /// queries answered from the runtime's state.
    fn apply_effects(&mut self, token: u64, fx: &mut Vec<Request>, here: &mut dyn FnMut(Command)) {
        let Some(sess) = self.sessions.get_mut(&token) else {
            return fx.clear();
        };
        let client = ClientId(token);
        // An answer made here. What it unstalls goes nowhere: nothing, but
        // in the one case below that returns a credit.
        let mut reply = |frame| sess.machine.on_frame(&frame, &mut Vec::new());
        let (lane, lanes) = (self.index, &self.lanes);
        for request in fx.drain(..) {
            match request {
                Request::Op { seq, key, cop } => {
                    if !cop.is_update() {
                        self.obs.mirror_read_fallbacks.inc();
                    }
                    let op = OpId::new(client, seq);
                    let cmd = Command::Op {
                        op,
                        key,
                        cop,
                        reply: ClientSink::Remote(lanes.queue(lane)),
                    };
                    if !lanes.route(lane, key, cmd, here) {
                        // Replica shutting down: answer inline. Any frames
                        // the returned credit unstalls would fail the same
                        // way, so their effects are dropped.
                        reply(ServerFrame::Reply(seq, Reply::NotOperational));
                    }
                }
                Request::Metrics { seq } => {
                    reply(ServerFrame::Metrics(seq, self.obs.registry.render()));
                }
                Request::Traces { seq } => {
                    reply(ServerFrame::Traces(seq, self.obs.drain_spans()));
                }
                // Lane sends fail only at teardown; the client observes
                // the hangup instead of an ack.
                Request::Subscribe { seq, key } => {
                    let cmd = Command::Subscribe {
                        seq,
                        client,
                        key,
                        host: lanes.queue(lane),
                    };
                    lanes.route(lane, key, cmd, here);
                }
                Request::Unsubscribe { seq, key } => {
                    lanes.route(lane, key, Command::Unsubscribe { seq, client, key }, here);
                }
                Request::InvalAck { key } => {
                    lanes.route(lane, key, Command::InvalAck { client, key }, here);
                }
                // The machine has framed the ack.
                Request::Shutdown { .. } => self.shutdown.store(true, Ordering::SeqCst),
            }
        }
    }

    /// At the end of a pass that touched the session: push its buffered
    /// replies to the socket, reap it if it died, otherwise resubscribe its
    /// readiness to what the machine can currently make progress on.
    fn finish_io(&mut self, token: u64) {
        let recording = hermes_obs::recording_enabled();
        let Some(sess) = self.sessions.get_mut(&token) else {
            return;
        };
        if !sess.machine.is_dead() && sess.machine.wants_write() {
            let t0 = recording.then(Instant::now);
            if !drain_write(sess) {
                sess.machine.kill();
            }
            record_since(&self.obs.poller_write_us, t0);
        }
        if sess.machine.is_dead() {
            self.reap(token);
            return;
        }
        let want = Interest {
            read: sess.machine.wants_read(),
            write: sess.machine.wants_write(),
        };
        if want != sess.interest {
            let fd = sess.stream.as_raw_fd();
            if self.poller.reregister(fd, token, want).is_ok() {
                // A read-interest drop means the session ran out of Wings
                // credits (the machine stops wanting bytes only when
                // stalled); the park→unpark window is the credit stall.
                if recording {
                    if sess.interest.read && !want.read {
                        sess.parked_at = Some(Instant::now());
                        self.obs.read_parks.inc();
                    } else if !sess.interest.read && want.read {
                        record_since(&self.obs.credit_stall_us, sess.parked_at.take());
                    }
                }
                sess.interest = want;
            }
        }
    }

    /// Closes and forgets one session: deregisters the socket (the fd
    /// closes with the stream) and returns its gauge count. In-flight
    /// completions for it are dropped on arrival by the session miss. Every
    /// worker lane hears of the departure ([`Lanes::drop_client`]) so
    /// subscriptions and pending invalidation acks held by the session die
    /// with it.
    fn reap(&mut self, token: u64) {
        if let Some(sess) = self.sessions.remove(&token) {
            let _ = self.poller.deregister(sess.stream.as_raw_fd());
            self.obs.shard_sessions[self.index].dec();
            self.lanes.drop_client(ClientId(token));
        }
    }
}

/// Records the microseconds since `t0`, if there is one, in `hist`.
fn record_since(hist: &Histogram, t0: Option<Instant>) {
    if let Some(t0) = t0 {
        hist.record(t0.elapsed().as_micros() as u64);
    }
}

/// Whether the plane may accept another session under its fd budget.
/// `None` (unreadable limit) never throttles.
fn accept_within_budget(open: u64, budget: Option<u64>) -> bool {
    budget.is_none_or(|b| open < b)
}

/// The process's soft `RLIMIT_NOFILE`, read without a libc dependency.
fn nofile_limit() -> Option<u64> {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    const RLIMIT_NOFILE: i32 = 7;
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    }
    let mut r = RLimit { cur: 0, max: 0 };
    // SAFETY: getrlimit writes the two-field struct it is given and
    // nothing else; the struct layout matches the kernel ABI on Linux.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut r) } == 0 {
        Some(r.cur)
    } else {
        None
    }
}

/// Listens on the bound `listener` again, with room for `backlog`
/// connections not yet accepted; the kernel clamps it to
/// `net.core.somaxconn`. std listens with a backlog of 128, and a fleet
/// that connects faster than lane 0 accepts overflows that: each
/// overflowed connect waits out a one-second SYN retransmit.
fn listen_backlog(listener: &TcpListener, backlog: u64) -> io::Result<()> {
    extern "C" {
        fn listen(fd: i32, backlog: i32) -> i32;
    }
    let backlog = backlog.min(i32::MAX as u64) as i32;
    // SAFETY: listen(2) on the socket the listener owns; on a socket that
    // already listens it only resizes the accept queue.
    if unsafe { listen(listener.as_raw_fd(), backlog) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Reads while the machine wants bytes, until a read comes up short;
/// returns `false` when the peer closed or the socket failed. Readiness is
/// level-triggered, so bytes that arrive after a short read are reported
/// again, and a read that would only say `EAGAIN` is never made. Bounded
/// by the credit budget: a stalled machine stops the loop, leaving the
/// rest in the kernel buffer.
fn drain_read(sess: &mut Session, buf: &mut [u8], fx: &mut Vec<Request>) -> bool {
    while sess.machine.wants_read() {
        match sess.stream.read(buf) {
            Ok(0) => return false,
            Ok(n) if n < buf.len() => {
                sess.machine.on_bytes(&buf[..n], fx);
                return true;
            }
            Ok(n) => sess.machine.on_bytes(&buf[..n], fx),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true
}

/// Writes the machine's buffered reply bytes until done or the socket
/// would block; returns `false` when the socket failed.
fn drain_write(sess: &mut Session) -> bool {
    loop {
        let chunk = sess.machine.write_chunk();
        if chunk.is_empty() {
            return true;
        }
        match sess.stream.write(chunk) {
            Ok(0) => return false,
            Ok(n) => sess.machine.advance_write(n),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::tests::local_reads_over;
    use crate::host::Node;
    use hermes_common::{ClientOp, Key, MembershipView, RmwOp, Value};
    use hermes_core::ProtocolConfig;
    use hermes_net::InProcNet;

    /// `request` as it arrives on the wire.
    fn wire(request: &Request) -> Vec<u8> {
        let mut out = Vec::new();
        rpc::put_frame(&mut out, |out| request.encode(out));
        out
    }

    fn op(seq: u64, key: Key, cop: ClientOp) -> Request {
        Request::Op { seq, key, cop }
    }

    fn read(seq: u64, key: Key) -> Request {
        op(seq, key, ClientOp::Read)
    }

    fn write(v: u64) -> ClientOp {
        ClientOp::Write(Value::from_u64(v))
    }

    fn reply(seq: u64, reply: Reply) -> ServerFrame {
        ServerFrame::Reply(seq, reply)
    }

    fn invalidate(key: Key) -> ServerFrame {
        ServerFrame::Invalidate { key, epoch: 1 }
    }

    /// A machine at a replica that is not serving, so answers nothing
    /// locally (not `Valid` and not serving look the same from here).
    fn machine_with_credits(n: u32) -> SessionMachine {
        machine(n, local_reads_over(&[], false))
    }

    /// A machine at a serving replica whose mirror holds `valid`.
    fn machine_over(credits: u32, valid: &[(Key, u64)]) -> SessionMachine {
        machine(credits, local_reads_over(valid, true))
    }

    fn machine(credits_per_peer: u32, reads: LocalReads) -> SessionMachine {
        SessionMachine::new(CreditConfig { credits_per_peer }, 1 << 20, reads)
    }

    /// Every frame waiting in the machine's write buffer, drained.
    fn framed(m: &mut SessionMachine) -> Vec<ServerFrame> {
        let mut out = Vec::new();
        let mut buf = m.write_chunk();
        while let Some(payload) = rpc::split_frame(buf, usize::MAX).unwrap() {
            out.push(ServerFrame::decode(payload).unwrap());
            buf = &buf[4 + payload.len()..];
        }
        assert!(buf.is_empty(), "half a frame in the write buffer");
        let n = m.write_chunk().len();
        m.advance_write(n);
        out
    }

    #[test]
    fn decodes_requests_across_arbitrary_byte_splits() {
        let request = op(7, Key(3), write(9));
        let wire = wire(&request);
        for cut in 0..=wire.len() {
            let mut m = machine_with_credits(8);
            let mut fx = Vec::new();
            m.on_bytes(&wire[..cut], &mut fx);
            m.on_bytes(&wire[cut..], &mut fx);
            assert_eq!(fx, vec![request.clone()], "split at {cut}");
            assert!(!m.is_dead());
        }
    }

    #[test]
    fn credit_stall_parks_reading_and_completion_resumes() {
        let mut m = machine_with_credits(2);
        let bytes: Vec<u8> = (0..3).flat_map(|seq| wire(&read(seq, Key(seq)))).collect();
        let mut fx = Vec::new();
        m.on_bytes(&bytes, &mut fx);
        // Two credits: two submissions; the third frame stays buffered and
        // the machine asks the shard to stop reading the socket.
        assert_eq!(fx.len(), 2);
        assert!(!m.wants_read(), "out of credits must park reads");
        fx.clear();
        m.on_frame(&reply(0, Reply::ReadOk(Value::EMPTY)), &mut fx);
        assert_eq!(
            fx,
            vec![read(2, Key(2))],
            "returned credit must unstall the buffered frame"
        );
        assert!(m.wants_write(), "completion framed a reply");
        assert_eq!(framed(&mut m), vec![reply(0, Reply::ReadOk(Value::EMPTY))]);
    }

    /// Parking is for a frame that waits for a credit, not for a budget
    /// that reads zero: a client that keeps to its credits sends only
    /// credit-exempt frames then — the `InvalAck` that every one of its
    /// in-flight operations may be held behind among them (DESIGN.md §8).
    #[test]
    fn an_empty_budget_still_reads_and_only_a_frame_waiting_for_a_credit_parks() {
        let mut m = machine_with_credits(2);
        let mut fx = Vec::new();
        m.on_bytes(&wire(&op(0, Key(1), write(1))), &mut fx);
        m.on_bytes(&wire(&op(1, Key(1), write(2))), &mut fx);
        assert_eq!(fx.len(), 2);
        assert!(
            m.wants_read(),
            "no credit left, and nothing waiting for one"
        );
        m.on_bytes(&wire(&Request::InvalAck { key: Key(1) }), &mut fx);
        assert_eq!(fx[2..], [Request::InvalAck { key: Key(1) }]);
        assert!(m.wants_read());

        // A client that overruns its budget is parked on its first surplus
        // operation, and nothing behind that frame is looked at.
        fx.clear();
        m.on_bytes(&wire(&op(2, Key(1), write(3))), &mut fx);
        assert!(!m.wants_read(), "a whole frame with no credit to run it");
        m.on_bytes(&wire(&Request::InvalAck { key: Key(1) }), &mut fx);
        assert_eq!(fx, vec![]);
        m.on_frame(&reply(0, Reply::WriteOk), &mut fx);
        assert_eq!(
            fx,
            vec![op(2, Key(1), write(3)), Request::InvalAck { key: Key(1) }]
        );
        assert!(m.wants_read(), "the completion un-parks");
    }

    #[test]
    fn a_valid_read_is_framed_from_the_mirror_at_no_credit_and_with_no_effect() {
        let mut m = machine_over(1, &[(Key(1), 11), (Key(2), 22)]);
        let mut fx = Vec::new();
        let mut bytes = wire(&read(0, Key(1)));
        bytes.extend(wire(&read(1, Key(2))));
        m.on_bytes(&bytes, &mut fx);
        assert_eq!(fx, vec![], "a mirror read reaches no lane");
        assert_eq!(
            framed(&mut m),
            vec![
                reply(0, Reply::ReadOk(Value::from_u64(11))),
                reply(1, Reply::ReadOk(Value::from_u64(22))),
            ],
            "framed in the pass that decoded them, in request order"
        );
        // Had either spent the only credit, this write would stall.
        m.on_bytes(&wire(&op(2, Key(3), write(1))), &mut fx);
        assert_eq!(fx, vec![op(2, Key(3), write(1))]);
    }

    #[test]
    fn a_mirror_miss_is_submitted_to_its_lane_exactly_as_before() {
        let mut m = machine_with_credits(2);
        let mut fx = Vec::new();
        m.on_bytes(&wire(&read(0, Key(1))), &mut fx);
        assert_eq!(fx, vec![read(0, Key(1))]);
        assert!(!m.wants_write(), "nothing framed until the lane answers");
        m.on_bytes(&wire(&read(1, Key(1))), &mut fx);
        m.on_bytes(&wire(&read(2, Key(1))), &mut fx);
        assert_eq!(fx.len(), 2);
        assert!(
            !m.wants_read(),
            "each fallback read spent a credit: the third finds none"
        );
    }

    #[test]
    fn a_credit_stalled_session_still_serves_a_valid_read_once_decoding_reaches_it() {
        let mut m = machine_over(1, &[(Key(9), 99)]);
        let mut fx = Vec::new();
        let mut bytes = wire(&op(0, Key(1), write(1)));
        bytes.extend(wire(&op(1, Key(2), write(2))));
        bytes.extend(wire(&read(2, Key(9))));
        m.on_bytes(&bytes, &mut fx);
        // Decode order is unchanged: the second write stalls for a credit
        // and the read behind it is not looked at, `Valid` or not.
        assert_eq!(fx, vec![op(0, Key(1), write(1))]);
        assert_eq!(framed(&mut m), vec![]);
        assert!(!m.wants_read());
        fx.clear();
        m.on_frame(&reply(0, Reply::WriteOk), &mut fx);
        assert_eq!(fx, vec![op(1, Key(2), write(2))]);
        assert!(
            m.wants_read(),
            "the credit went to seq 1, and no frame waits for another"
        );
        assert_eq!(
            framed(&mut m),
            vec![
                reply(0, Reply::WriteOk),
                reply(2, Reply::ReadOk(Value::from_u64(99)))
            ],
            "the read behind the unstalled write needed no credit"
        );
    }

    #[test]
    fn a_read_never_passes_the_sessions_own_update_of_the_same_key() {
        let updates = [write(5), ClientOp::Rmw(RmwOp::FetchAdd { delta: 1 })];
        for update in updates {
            let mut m = machine_over(8, &[(Key(1), 10), (Key(2), 20)]);
            let mut fx = Vec::new();
            let mut bytes = wire(&op(0, Key(1), update.clone()));
            bytes.extend(wire(&read(1, Key(1))));
            bytes.extend(wire(&read(2, Key(2))));
            m.on_bytes(&bytes, &mut fx);
            assert_eq!(
                fx,
                vec![op(0, Key(1), update.clone()), read(1, Key(1))],
                "the read of the key being updated queues behind the update"
            );
            assert_eq!(
                framed(&mut m),
                vec![reply(2, Reply::ReadOk(Value::from_u64(20)))],
                "other keys are still served"
            );
            fx.clear();
            // The fallback read's completion does not lift the guard...
            m.on_frame(&reply(1, Reply::ReadOk(Value::EMPTY)), &mut fx);
            m.on_bytes(&wire(&read(3, Key(1))), &mut fx);
            assert_eq!(fx, vec![read(3, Key(1))]);
            // ...the update's own completion does.
            m.on_frame(&reply(0, Reply::WriteOk), &mut fx);
            framed(&mut m);
            m.on_bytes(&wire(&read(4, Key(1))), &mut fx);
            assert_eq!(
                framed(&mut m),
                vec![reply(4, Reply::ReadOk(Value::from_u64(10)))]
            );
        }
    }

    #[test]
    fn oversized_and_malformed_frames_kill_the_session() {
        let reads = local_reads_over(&[], false);
        let mut m = SessionMachine::new(CreditConfig::default(), 64, reads);
        let mut fx = Vec::new();
        m.on_bytes(&(65u32).to_le_bytes(), &mut fx);
        assert!(m.is_dead(), "length beyond max_frame");

        let mut m = machine_with_credits(4);
        let mut garbage = Vec::new();
        rpc::put_frame(&mut garbage, |out| out.extend_from_slice(b"\xffgarbage"));
        m.on_bytes(&garbage, &mut fx);
        assert!(m.is_dead(), "undecodable request");
        assert!(fx.is_empty());
    }

    /// The transaction request (tag 5) and the stats request (tag 6) are
    /// retired: a client that still sends either is speaking a protocol
    /// this replica no longer does.
    #[test]
    fn a_request_with_a_retired_tag_kills_the_session() {
        for tag in [5, 6] {
            let mut m = machine_with_credits(4);
            let mut retired = Vec::new();
            rpc::put_frame(&mut retired, |out| {
                out.extend_from_slice(&[0; 16]); // seq, key
                out.push(tag);
            });
            let mut fx = Vec::new();
            m.on_bytes(&retired, &mut fx);
            assert!(m.is_dead(), "tag {tag}");
            assert!(fx.is_empty(), "tag {tag}");
            assert!(!m.wants_write(), "tag {tag}: nothing answered");
        }
    }

    #[test]
    fn shutdown_request_acks_then_surfaces_the_effect() {
        let mut m = machine_with_credits(4);
        let mut fx = Vec::new();
        m.on_bytes(&wire(&Request::Shutdown { seq: 5 }), &mut fx);
        assert_eq!(fx, vec![Request::Shutdown { seq: 5 }]);
        assert_eq!(framed(&mut m), vec![reply(5, Reply::WriteOk)]);
    }

    #[test]
    fn write_buffer_drains_incrementally() {
        let mut m = machine_with_credits(4);
        let mut fx = Vec::new();
        m.on_frame(&reply(1, Reply::WriteOk), &mut fx);
        let total = m.write_chunk().len();
        m.advance_write(3);
        assert_eq!(m.write_chunk().len(), total - 3);
        m.advance_write(total - 3);
        assert!(!m.wants_write());
    }

    #[test]
    fn subscription_requests_cost_no_credits_and_set_the_filter() {
        let mut m = machine_with_credits(1);
        let mut fx = Vec::new();
        // Consume the only credit with an op, then subscribe: the
        // subscription decodes anyway (no credit needed).
        let subscribe = Request::Subscribe {
            seq: 1,
            key: Key(7),
        };
        let mut bytes = wire(&read(0, Key(1)));
        bytes.extend(wire(&subscribe));
        m.on_bytes(&bytes, &mut fx);
        assert_eq!(fx, vec![read(0, Key(1)), subscribe]);

        // The filter admits pushes for the subscribed key only.
        assert!(m.on_frame(&invalidate(Key(7)), &mut fx));
        assert!(
            !m.on_frame(&invalidate(Key(8)), &mut fx),
            "unsubscribed key must be filtered (and acked on the client's behalf)"
        );
        assert_eq!(framed(&mut m), vec![invalidate(Key(7))]);
    }

    #[test]
    fn unsubscribe_clears_the_filter_and_acks_arrive_as_effects() {
        let mut m = machine_with_credits(4);
        let mut fx = Vec::new();
        let (seq, key) = (1, Key(3));
        let requests = vec![
            Request::Subscribe { seq, key },
            Request::Unsubscribe { seq: 2, key },
            Request::InvalAck { key },
        ];
        for request in &requests {
            m.on_bytes(&wire(request), &mut fx);
        }
        assert_eq!(fx, requests);
        assert!(
            !m.on_frame(&invalidate(key), &mut fx),
            "post-unsubscribe pushes must be filtered"
        );
    }

    #[test]
    fn evict_push_kills_the_machine() {
        let mut m = machine_with_credits(4);
        let mut fx = Vec::new();
        let (seq, key) = (1, Key(3));
        m.on_bytes(&wire(&Request::Subscribe { seq, key }), &mut fx);
        assert!(!m.is_dead());
        m.kill(); // What the shard does with a `Command::Evict`.
        assert!(m.is_dead(), "a laggard subscriber is torn down");
        // And a push that crosses the eviction is acked on its behalf.
        assert!(!m.on_frame(&invalidate(key), &mut fx));
        assert!(!m.wants_write());
    }

    /// A one-lane in-process replica hosting the client plane, and a
    /// client whose session its lane has installed:
    /// `ClientId(REMOTE_CLIENT_BASE)`.
    fn node_and_client() -> (Node, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let ep = InProcNet::new(1).into_endpoints().remove(0);
        let port = (listener, Arc::new(AtomicBool::new(false)));
        let (view, protocol) = (MembershipView::initial(1), ProtocolConfig::default());
        let node = Node::spawn(ep, view, protocol, 1, Some(port), None, false).unwrap();
        let client = TcpStream::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        while node.obs().open_sessions() == 0 {
            std::thread::yield_now();
        }
        (node, client)
    }

    /// The next frame the client receives.
    fn receive(client: &mut TcpStream) -> ServerFrame {
        let mut len = [0u8; 4];
        client.read_exact(&mut len).unwrap();
        let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
        client.read_exact(&mut payload).unwrap();
        ServerFrame::decode(&payload).unwrap()
    }

    /// Regression for the lost wake-up behind a measured 504 ms `rtt_max`:
    /// the thread hosting the sessions used to clear its wake latch
    /// *before* draining the waker, so a completion posted in between had
    /// its datagram eaten and left the latch set — and the next completion
    /// skipped the wake and waited out the idle wait. Two completions a few
    /// microseconds apart land the second in that window; the reply to the
    /// round after would then stall.
    #[test]
    fn completions_never_wait_out_the_poll_timeout() {
        let (mut node, mut client) = node_and_client();
        let host = ClientSink::Remote(node.lanes().queue(0));
        let session = ClientId(REMOTE_CLIENT_BASE);
        let mut reply = [0u8; 64];
        for round in 0..20_000u64 {
            host.send(session, ServerFrame::Reply(2 * round, Reply::WriteOk));
            // Sweep the gap so the second post meets the lane at every
            // point between waking up and going back to sleep.
            let gap = Instant::now();
            while gap.elapsed() < Duration::from_nanos(round % 40 * 1_000) {
                std::hint::spin_loop();
            }
            let posted = Instant::now();
            host.send(session, ServerFrame::Reply(2 * round + 1, Reply::WriteOk));
            for _ in 0..2 {
                client.read_exact(&mut reply[..4]).unwrap();
                let len = u32::from_le_bytes(reply[..4].try_into().unwrap()) as usize;
                client.read_exact(&mut reply[..len]).unwrap();
            }
            let waited = posted.elapsed();
            assert!(
                waited < Duration::from_millis(50),
                "a completion waited {waited:?} for its shard to wake"
            );
        }
        node.stop();
    }

    /// Wings batching at the client port (paper §4.2): sixteen replies the
    /// lanes posted for one session before its lane woke leave in one
    /// write, not sixteen.
    #[test]
    fn a_pass_writes_each_session_once_however_many_frames_it_framed() {
        let (mut node, mut client) = node_and_client();
        let (host, session) = (node.lanes().queue(0), ClientId(REMOTE_CLIENT_BASE));
        let writes = node.obs().poller_write_us.count();
        for seq in 0..16 {
            // Posted without a ring, as by lanes whose wakes coalesce.
            host.post_unrung(Command::Frame(session, reply(seq, Reply::WriteOk)));
        }
        host.ring();
        for seq in 0..16 {
            assert_eq!(receive(&mut client), reply(seq, Reply::WriteOk));
        }
        // The write is timed once its bytes have left: wait for the record.
        let obs = Arc::clone(node.obs());
        let deadline = Instant::now() + Duration::from_secs(5);
        while obs.poller_write_us.count() == writes && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(obs.poller_write_us.count(), writes + 1);
        node.stop();
    }

    /// A short read ends a session's read pass, and what was left behind is
    /// reported again: requests spanning several read buffers all reach
    /// their lane, in order, and whole.
    #[test]
    fn requests_larger_than_one_read_buffer_are_decoded_in_full() {
        let (mut node, mut client) = node_and_client();
        let value = |seq: u64| Value::filled(seq as u8, 1_000);
        let requests = (0..32).map(|seq| op(seq, Key(seq), ClientOp::Write(value(seq))));
        let bytes: Vec<u8> = requests.flat_map(|request| wire(&request)).collect();
        assert!(bytes.len() > 2 * READ_CHUNK);
        client.write_all(&bytes).unwrap();
        for seq in 0..32 {
            assert_eq!(receive(&mut client), reply(seq, Reply::WriteOk));
            let stored = node.read_local(Key(seq));
            assert!(stored == Some(value(seq)), "request {seq} garbled");
        }
        node.stop();
    }

    #[test]
    fn fd_budget_predicate_throttles_only_at_the_boundary() {
        assert!(accept_within_budget(0, None), "no limit, never throttle");
        assert!(accept_within_budget(999_999, None));
        assert!(accept_within_budget(63, Some(64)));
        assert!(!accept_within_budget(64, Some(64)));
        assert!(!accept_within_budget(65, Some(64)));
    }

    #[test]
    fn nofile_limit_is_readable_on_linux() {
        if cfg!(target_os = "linux") {
            let lim = nofile_limit().expect("getrlimit");
            assert!(lim > 0);
        }
    }
}
