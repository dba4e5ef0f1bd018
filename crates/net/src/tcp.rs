//! Real TCP transport: length-prefixed Wings frames over `std::net`, with
//! no thread between a worker lane and the wire.
//!
//! This is the substrate that lets a Hermes replica group run as separate
//! OS processes (one per node) serving real traffic — the deployment shape
//! of the paper's evaluation, with loopback/ethernet TCP standing in for
//! the RDMA NICs (DESIGN.md §4). The paper's workers post their own Wings
//! batches to the NIC (§4.2); here, per node:
//!
//! * **Lanes write.** [`TcpSender::send`] runs on the calling worker
//!   thread: it queues the frame in the peer's outbox and, unless another
//!   thread is already writing that socket, writes the outbox itself with
//!   one non-blocking `writev` of `[len, payload]` pairs — no channel, no
//!   copy, no hand-off. Threads that share a peer never wait on each
//!   other's syscall: the lock covers only the queue, and whoever holds the
//!   *drain role* writes everything queued behind it, in queue order (so
//!   per-sender FIFO holds).
//! * **One link poller reads, dials and drains.** A single thread per node
//!   ([`Poller`], woken through one [`Waker`]) owns the peer listener, every
//!   inbound connection (a sans-io `FrameReader`: handshake → accumulate
//!   → split frames → [`IngressSink`]) and the slow half of egress: when a
//!   socket stops taking bytes the remainder stays in the outbox and the
//!   poller finishes it on writability. Transport threads per node: one,
//!   whatever the cluster size.
//! * **Dials are lazy and transient.** The first send to a peer with no
//!   connection asks the poller for one; the poller runs the blocking
//!   `connect` on a short-lived thread that exits when the attempt does.
//!   Frames sent during the attempt wait in the outbox. After a failure the
//!   next attempt waits out an exponential backoff.
//! * **Frames are datagrams.** A frame is dropped (and counted in
//!   [`TcpStats::frames_dropped`]) when the peer is in backoff, when the
//!   dial or connection carrying it dies, or when the outbox is at
//!   `OUTBOX_CAP` — `send` never blocks and never queues without bound.
//!   Hermes' message-loss timeouts retransmit (paper §3.4).
//!
//! Wire format, both directions, after a connection-scoped handshake of
//! `b"HRM1"` + `u32` sender node id: each frame is a `u32` little-endian
//! payload length followed by the payload (one Wings batch frame, whose
//! internal layout is [`hermes-wings`]'s `u16` count + per-message `u32`
//! length prefixes). A connection carries frames one way only, dialer to
//! acceptor.
//!
//! [`hermes-wings`]: ../../hermes_wings/index.html

use crate::poll::{Interest, PollEvent, Poller, Waker};
use crate::transport::{Endpoint, IngressGuard, IngressSink, NetEvent, NetSender, Transport};
use bytes::Bytes;
use hermes_common::NodeId;
use parking_lot::{Mutex, MutexGuard};
use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Connection handshake preamble: protocol magic, then the dialer's id.
const MAGIC: [u8; 4] = *b"HRM1";

/// A connection that has not completed its 8-byte handshake within this
/// long is not a peer; the link poller closes it. (Unit tests wait it out,
/// so they run with a short one.)
const HANDSHAKE_DEADLINE: Duration = Duration::from_millis(if cfg!(test) { 200 } else { 5_000 });

/// Longest one dial attempt may take (its transient thread lives this long
/// at most; frames sent meanwhile wait in the outbox).
const DIAL_TIMEOUT: Duration = Duration::from_millis(50);

/// Most bytes (length prefixes included) one peer's outbox may hold; a
/// frame that would exceed it is dropped. Sized to absorb the bursts the
/// protocol produces on purpose — a shadow's catch-up stream is the
/// largest — while a peer that stops reading costs this much and no more.
pub(crate) const OUTBOX_CAP: usize = 256 << 20;

/// Frames gathered into one `writev`.
const WRITE_BATCH: usize = 16;

/// Size of the poller's read buffer, and reads per readiness report before
/// it moves on (level-triggered readiness re-reports what is left).
const READ_CHUNK: usize = 64 * 1024;
const READS_PER_EVENT: usize = 16;

/// Upper bound on the poller's blocked wait: `stop` is re-checked at least
/// this often even if a wake datagram were lost.
const IDLE_WAIT: Duration = Duration::from_millis(500);

const TOKEN_WAKE: u64 = 0;
const TOKEN_LISTENER: u64 = 1;
/// Outbound link to peer `i` is token `TOKEN_LINK_BASE + i`; inbound
/// connections are numbered upward from `TOKEN_LINK_BASE + cluster size`.
const TOKEN_LINK_BASE: u64 = 2;

/// Tuning knobs of the TCP transport.
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// First re-dial delay after a failed or dropped connection.
    pub initial_backoff: Duration,
    /// Re-dial delay ceiling (backoff doubles up to this).
    pub max_backoff: Duration,
    /// Frames larger than this are treated as protocol errors and kill the
    /// connection.
    pub max_frame_bytes: usize,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            max_frame_bytes: 16 << 20,
        }
    }
}

/// Declares [`TcpStats`]: one relaxed atomic and one getter per counter.
macro_rules! tcp_stats {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Counters describing one node's TCP transport activity.
        ///
        /// All but the `egress_backlog_bytes` gauge are cumulative and
        /// monotone; read them through [`TcpEndpoint::stats`] /
        /// [`TcpSender::stats`]. Tests use `disconnects` and `dials` to
        /// assert fault paths (a killed connection surfaces, a reconnect
        /// happens).
        #[derive(Debug, Default)]
        pub struct TcpStats {
            $($name: AtomicU64,)*
        }

        impl TcpStats {
            $($(#[$doc])*
            pub fn $name(&self) -> u64 {
                self.$name.load(Ordering::Relaxed)
            })*
        }
    };
}

tcp_stats! {
    /// Frames handed to the kernel on a connected peer socket.
    frames_sent,
    /// Payload bytes handed to the kernel (excluding length prefixes).
    bytes_sent,
    /// Frames dropped — the transport's "lost datagrams": peer in backoff,
    /// dial or connection died with the frame queued, outbox at its cap,
    /// or no such peer.
    frames_dropped,
    /// Frames received from peers.
    frames_received,
    /// Payload bytes received.
    bytes_received,
    /// Successful outbound dials (first connects and reconnects).
    dials,
    /// Inbound connections accepted.
    accepts,
    /// Connections that died: inbound EOF/error/protocol violation, an
    /// outbound write failure or peer hang-up, or an injected
    /// [`TcpSender::kill_connection`].
    disconnects,
    /// Frames written by the thread that called `send` (or by another
    /// sender holding the drain role): no transport thread was involved.
    writes_inline,
    /// Frames the link poller wrote: queued during a dial, or left behind
    /// when the socket stopped taking bytes.
    writes_deferred,
    /// Bytes currently queued in outboxes, length prefixes included
    /// (gauge; per peer it never exceeds the outbox cap).
    egress_backlog_bytes,
}

impl TcpStats {
    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// Where a peer's outbound connection stands.
#[derive(Default)]
enum Conn {
    /// None; a send at or after `retry_at` asks the poller to dial.
    Down { retry_at: Instant },
    /// A dial was requested or is in flight; frames queue.
    Dialing,
    /// Connected and registered with the poller.
    Up(Arc<TcpStream>),
    /// The poller has exited; every send drops.
    #[default]
    Closed,
}

/// The egress half of one peer link. The lock guards only this state —
/// never a syscall.
#[derive(Default)]
struct Egress {
    conn: Conn,
    /// A finished dial attempt waiting for the poller to install it.
    dialed: Option<io::Result<TcpStream>>,
    /// Frames not yet (fully) in the kernel, oldest first.
    outbox: VecDeque<Bytes>,
    /// Bytes of the head frame, prefix included, already in the kernel.
    head_written: usize,
    /// `4 + len` summed over `outbox`.
    backlog: usize,
    /// The drain role: a thread is writing `outbox` to the socket with the
    /// lock released and will write whatever is queued behind it.
    draining: bool,
    /// The socket stopped taking bytes: senders only queue, and the poller
    /// drains on writability.
    write_wanted: bool,
    /// Delay before the next dial if this connection or attempt fails.
    backoff: Duration,
}

struct Link {
    addr: SocketAddr,
    egress: Mutex<Egress>,
}

/// What a node's senders and its link poller share.
struct Shared {
    me: NodeId,
    /// Indexed by node id; `None` at `me`.
    links: Vec<Option<Link>>,
    stats: Arc<TcpStats>,
    cfg: TcpConfig,
    /// Registrations change only on the link poller thread.
    poller: Poller,
    waker: Arc<Waker>,
    stop: Arc<AtomicBool>,
}

impl Shared {
    /// Queues `payload` for `to` and, if nobody else is writing that
    /// socket, writes the outbox on the calling thread. `false`: dropped.
    fn send(&self, to: NodeId, payload: Bytes) -> bool {
        // Self-sends and out-of-range destinations drop silently,
        // matching the in-process transport.
        let Some(Some(link)) = self.links.get(to.index()) else {
            return false;
        };
        let mut eg = link.egress.lock();
        let stream = match &eg.conn {
            Conn::Up(stream) => Some(Arc::clone(stream)),
            Conn::Dialing => None,
            Conn::Down { retry_at } if Instant::now() >= *retry_at => None,
            Conn::Down { .. } | Conn::Closed => return false,
        };
        let size = 4 + payload.len();
        if eg.backlog + size > OUTBOX_CAP {
            return false;
        }
        eg.backlog += size;
        TcpStats::add(&self.stats.egress_backlog_bytes, size as u64);
        eg.outbox.push_back(payload);
        let wake = match stream {
            Some(stream) if !eg.draining && !eg.write_wanted => {
                eg.draining = true;
                self.drain(link, eg, &stream, &self.stats.writes_inline)
            }
            // Whoever is draining takes it from here.
            Some(_) => false,
            // So does the dial, which the first frame to queue requests.
            None => {
                let was = std::mem::replace(&mut eg.conn, Conn::Dialing);
                drop(eg);
                !matches!(was, Conn::Dialing)
            }
        };
        if wake {
            self.waker.wake();
        }
        true
    }

    /// Writes `link`'s outbox to `stream` until it is empty or the socket
    /// stops taking bytes, crediting written frames to `tally`. The caller
    /// took the drain role under `eg`; the lock is released around every
    /// write. Returns `true` when the socket filled up and the poller does
    /// not know yet.
    fn drain<'a>(
        &self,
        link: &'a Link,
        mut eg: MutexGuard<'a, Egress>,
        stream: &Arc<TcpStream>,
        tally: &AtomicU64,
    ) -> bool {
        let mut batch: [Bytes; WRITE_BATCH] = std::array::from_fn(|_| Bytes::new());
        while !eg.outbox.is_empty() {
            let n = eg.outbox.len().min(WRITE_BATCH);
            for (slot, frame) in batch.iter_mut().zip(&eg.outbox) {
                *slot = frame.clone();
            }
            let skip = eg.head_written;
            drop(eg);
            let wanted = batch[..n].iter().map(|f| 4 + f.len()).sum::<usize>() - skip;
            let res = write_frames(stream, &batch[..n], skip);
            eg = link.egress.lock();
            if !matches!(&eg.conn, Conn::Up(s) if Arc::ptr_eq(s, stream)) {
                // Torn down while we wrote: the teardown already dropped
                // the outbox and released the role.
                return false;
            }
            match res {
                Ok(written) => {
                    self.advance(&mut eg, written, tally);
                    if written == wanted {
                        continue;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => {
                    // The poller sees the hang-up and tears the link down.
                    let _ = stream.shutdown(Shutdown::Both);
                    eg.draining = false;
                    return false;
                }
            }
            eg.draining = false;
            return !std::mem::replace(&mut eg.write_wanted, true);
        }
        eg.draining = false;
        eg.write_wanted = false;
        false
    }

    /// Accounts for `written` more bytes of the outbox reaching the kernel.
    fn advance(&self, eg: &mut Egress, mut written: usize, tally: &AtomicU64) {
        let (mut frames, mut payload) = (0u64, 0u64);
        while let Some(head) = eg.outbox.front() {
            let rest = 4 + head.len() - eg.head_written;
            if written < rest {
                eg.head_written += written;
                break;
            }
            written -= rest;
            frames += 1;
            payload += head.len() as u64;
            eg.head_written = 0;
            eg.outbox.pop_front();
        }
        let freed = 4 * frames + payload;
        eg.backlog -= freed as usize;
        self.stats
            .egress_backlog_bytes
            .fetch_sub(freed, Ordering::Relaxed);
        TcpStats::add(&self.stats.frames_sent, frames);
        TcpStats::add(&self.stats.bytes_sent, payload);
        TcpStats::add(tally, frames);
    }

    /// Ends the link's connection or dial attempt: whatever was queued is
    /// lost, and the next dial waits out the backoff.
    fn fail(&self, eg: &mut Egress) {
        TcpStats::add(&self.stats.frames_dropped, eg.outbox.len() as u64);
        self.stats
            .egress_backlog_bytes
            .fetch_sub(eg.backlog as u64, Ordering::Relaxed);
        eg.outbox.clear();
        (eg.backlog, eg.head_written) = (0, 0);
        (eg.draining, eg.write_wanted) = (false, false);
        eg.conn = Conn::Down {
            retry_at: Instant::now() + eg.backoff,
        };
        eg.backoff = (eg.backoff * 2).min(self.cfg.max_backoff);
    }
}

/// One non-blocking `writev` of `frames` as `[len, payload]` pairs, minus
/// the first `skip` bytes of the head frame (already written).
fn write_frames(mut stream: &TcpStream, frames: &[Bytes], skip: usize) -> io::Result<usize> {
    let mut prefixes = [[0u8; 4]; WRITE_BATCH];
    for (prefix, frame) in prefixes.iter_mut().zip(frames) {
        *prefix = (frame.len() as u32).to_le_bytes();
    }
    let mut slices = [IoSlice::new(&[]); 2 * WRITE_BATCH];
    for (i, frame) in frames.iter().enumerate() {
        slices[2 * i] = IoSlice::new(&prefixes[i]);
        slices[2 * i + 1] = IoSlice::new(frame);
    }
    let head = skip.min(4);
    slices[0] = IoSlice::new(&prefixes[0][head..]);
    slices[1] = IoSlice::new(&frames[0][skip - head..]);
    stream.write_vectored(&slices[..2 * frames.len()])
}

/// The transmit half of a node's TCP attachment. Cloneable; every worker
/// thread of a replica holds one.
#[derive(Clone)]
pub struct TcpSender {
    shared: Arc<Shared>,
}

impl TcpSender {
    /// Number of nodes in the peer table.
    pub fn cluster_size(&self) -> usize {
        self.shared.links.len()
    }

    /// Transport counters of this node.
    pub fn stats(&self) -> Arc<TcpStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Forcibly tears down the live outbound connection to `to` (no-op if
    /// none). The transport reconnects with backoff on the next send —
    /// this is the fault-injection hook behind the disconnect tests.
    pub fn kill_connection(&self, to: NodeId) {
        if let Some(Some(link)) = self.shared.links.get(to.index()) {
            if let Conn::Up(stream) = &link.egress.lock().conn {
                // The poller sees the hang-up and tears the link down.
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }
}

impl NetSender for TcpSender {
    fn node_id(&self) -> NodeId {
        self.shared.me
    }

    fn send(&self, to: NodeId, payload: Bytes) {
        if !self.shared.send(to, payload) {
            TcpStats::add(&self.shared.stats.frames_dropped, 1);
        }
    }
}

impl std::fmt::Debug for TcpSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpSender")
            .field("me", &self.shared.me)
            .field("cluster_size", &self.cluster_size())
            .finish()
    }
}

/// One node's TCP attachment: a bound listener plus the per-peer links.
pub struct TcpEndpoint {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl TcpEndpoint {
    /// Binds node `me`'s listener at `peers[me]` (connections are dialed
    /// lazily, and no thread runs until [`Endpoint::start`]).
    ///
    /// # Errors
    ///
    /// Fails if the listen address cannot be bound.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range of `peers`.
    pub fn bind(me: NodeId, peers: &[SocketAddr], cfg: TcpConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(peers[me.index()])?;
        Self::from_listener(me, listener, peers, cfg)
    }

    /// Wraps an already-bound `listener` (used by [`TcpNet::loopback`],
    /// which must learn ephemeral port numbers before wiring peers).
    ///
    /// # Errors
    ///
    /// Fails if the readiness objects cannot be created.
    pub fn from_listener(
        me: NodeId,
        listener: TcpListener,
        peers: &[SocketAddr],
        cfg: TcpConfig,
    ) -> std::io::Result<Self> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new(&poller, TOKEN_WAKE)?);
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        let link = |(i, &addr): (usize, &SocketAddr)| {
            let egress = Egress {
                conn: Conn::Down {
                    retry_at: Instant::now(),
                },
                backoff: cfg.initial_backoff,
                ..Egress::default()
            };
            (i != me.index()).then(|| Link {
                addr,
                egress: Mutex::new(egress),
            })
        };
        let shared = Arc::new(Shared {
            me,
            links: peers.iter().enumerate().map(link).collect(),
            stats: Arc::default(),
            cfg,
            poller,
            waker,
            stop: Arc::default(),
        });
        Ok(TcpEndpoint { listener, shared })
    }

    /// The address this node's listener actually bound (resolves `:0`).
    ///
    /// # Errors
    ///
    /// Propagates the OS error if the local address cannot be read.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Transport counters of this node.
    pub fn stats(&self) -> Arc<TcpStats> {
        Arc::clone(&self.shared.stats)
    }
}

impl Endpoint for TcpEndpoint {
    type Sender = TcpSender;

    fn node_id(&self) -> NodeId {
        self.shared.me
    }

    fn sender(&self) -> TcpSender {
        TcpSender {
            shared: Arc::clone(&self.shared),
        }
    }

    fn start(self, sink: IngressSink) -> IngressGuard {
        let TcpEndpoint { listener, shared } = self;
        let peers = shared.links.len();
        let (stop, waker) = (Arc::clone(&shared.stop), Arc::clone(&shared.waker));
        let poller = LinkPoller {
            shared,
            listener,
            sink,
            inbound: HashMap::new(),
            next_token: TOKEN_LINK_BASE + peers as u64,
            dialers: (0..peers).map(|_| None).collect(),
            armed: vec![false; peers],
            rdbuf: vec![0u8; READ_CHUNK],
            events: Vec::new(),
        };
        let handle = std::thread::spawn(move || poller.run());
        IngressGuard::new(stop, vec![handle]).waking(waker)
    }
}

impl std::fmt::Debug for TcpEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpEndpoint")
            .field("me", &self.shared.me)
            .field("listen", &self.listener.local_addr().ok())
            .field("cluster_size", &self.shared.links.len())
            .finish()
    }
}

/// A fully in-process loopback TCP cluster: `n` nodes, each with a real
/// listener on `127.0.0.1`, wired to each other. Lets tests and benches
/// run the socket transport without spawning processes.
///
/// # Examples
///
/// ```
/// use hermes_net::{Transport, TcpNet};
///
/// let endpoints = TcpNet::loopback(3).unwrap().into_endpoints();
/// assert_eq!(endpoints.len(), 3);
/// ```
#[derive(Debug)]
pub struct TcpNet {
    endpoints: Vec<TcpEndpoint>,
}

impl TcpNet {
    /// Builds an `n`-node loopback cluster on ephemeral ports.
    ///
    /// # Errors
    ///
    /// Fails if a loopback listener cannot be bound.
    pub fn loopback(n: usize) -> std::io::Result<Self> {
        Self::loopback_with(n, TcpConfig::default())
    }

    /// [`TcpNet::loopback`] with explicit transport tuning.
    ///
    /// # Errors
    ///
    /// Fails if a loopback listener cannot be bound.
    pub fn loopback_with(n: usize, cfg: TcpConfig) -> std::io::Result<Self> {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<std::io::Result<_>>()?;
        let peers: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr())
            .collect::<std::io::Result<_>>()?;
        let endpoints = listeners
            .into_iter()
            .enumerate()
            .map(|(i, l)| TcpEndpoint::from_listener(NodeId(i as u32), l, &peers, cfg))
            .collect::<std::io::Result<_>>()?;
        Ok(TcpNet { endpoints })
    }

    /// The endpoints' listen addresses, indexed by node id.
    ///
    /// # Errors
    ///
    /// Propagates the OS error if a local address cannot be read.
    pub fn addrs(&self) -> std::io::Result<Vec<SocketAddr>> {
        self.endpoints.iter().map(|e| e.local_addr()).collect()
    }
}

impl Transport for TcpNet {
    type Endpoint = TcpEndpoint;

    fn into_endpoints(self) -> Vec<TcpEndpoint> {
        self.endpoints
    }
}

/// One inbound peer connection as a sans-io machine: bytes in, handshake
/// checked, complete frames out as [`NetEvent`]s. Performs no I/O.
#[derive(Debug)]
pub(crate) struct FrameReader {
    /// The incomplete handshake or frame carried over to the next read.
    buf: Vec<u8>,
    /// The dialer's id, once its handshake has arrived.
    peer: Option<NodeId>,
    handshake_by: Instant,
    max_frame: usize,
    dead: bool,
}

impl FrameReader {
    pub(crate) fn new(max_frame: usize, accepted_at: Instant) -> FrameReader {
        FrameReader {
            buf: Vec::new(),
            peer: None,
            handshake_by: accepted_at + HANDSHAKE_DEADLINE,
            max_frame,
            dead: false,
        }
    }

    /// Bytes arrived: appends [`NetEvent::PeerUp`] when they complete the
    /// handshake and one [`NetEvent::Frame`] per completed frame to `out`.
    /// A bad magic or an oversized length kills the machine.
    pub(crate) fn on_bytes(&mut self, data: &[u8], out: &mut Vec<NetEvent>) {
        if self.dead {
            return;
        }
        self.buf.extend_from_slice(data);
        let buf = std::mem::take(&mut self.buf);
        let used = self.split(&buf, out);
        self.buf = buf;
        self.buf.drain(..used);
    }

    /// Consumes the handshake and every complete frame at the front of
    /// `src`; returns how many bytes that was.
    fn split(&mut self, src: &[u8], out: &mut Vec<NetEvent>) -> usize {
        let mut at = 0;
        let peer = match self.peer {
            Some(peer) => peer,
            None if src.len() < 8 => return 0,
            None if src[..4] != MAGIC => {
                self.dead = true; // Not one of ours: no peer event at all.
                return 0;
            }
            None => {
                let peer = NodeId(u32::from_le_bytes(src[4..8].try_into().expect("4 bytes")));
                self.peer = Some(peer);
                out.push(NetEvent::PeerUp(peer));
                at = 8;
                peer
            }
        };
        while let Some(prefix) = src[at..].first_chunk::<4>() {
            let len = u32::from_le_bytes(*prefix) as usize;
            if len > self.max_frame {
                self.dead = true;
                break;
            }
            let Some(payload) = src[at + 4..].get(..len) else {
                break;
            };
            out.push(NetEvent::Frame(peer, Bytes::copy_from_slice(payload)));
            at += 4 + len;
        }
        at
    }

    /// The dialer's id, once known.
    pub(crate) fn peer(&self) -> Option<NodeId> {
        self.peer
    }

    pub(crate) fn is_dead(&self) -> bool {
        self.dead
    }

    /// When to give up on a connection that has not said who it is.
    pub(crate) fn handshake_deadline(&self) -> Option<Instant> {
        self.peer.is_none().then_some(self.handshake_by)
    }
}

struct Inbound {
    stream: TcpStream,
    reader: FrameReader,
}

/// The node's one transport thread: owns the listener, every inbound
/// connection, dialing, and the outboxes' slow path.
struct LinkPoller {
    shared: Arc<Shared>,
    listener: TcpListener,
    sink: IngressSink,
    inbound: HashMap<u64, Inbound>,
    next_token: u64,
    /// Per peer: the dial thread in flight, if any.
    dialers: Vec<Option<JoinHandle<()>>>,
    /// Per peer: whether its socket is registered for writability.
    armed: Vec<bool>,
    rdbuf: Vec<u8>,
    events: Vec<NetEvent>,
}

impl LinkPoller {
    fn run(mut self) {
        let shared = Arc::clone(&self.shared);
        let first_inbound = TOKEN_LINK_BASE + shared.links.len() as u64;
        let mut ready: Vec<PollEvent> = Vec::new();
        while !shared.stop.load(Ordering::Relaxed) {
            ready.clear();
            // Sleep no longer than the nearest unfinished handshake allows.
            let deadline = self
                .inbound
                .values()
                .filter_map(|c| c.reader.handshake_deadline())
                .min();
            let budget = deadline.map_or(IDLE_WAIT, |d| {
                d.saturating_duration_since(Instant::now()).min(IDLE_WAIT)
            });
            if shared.poller.wait(&mut ready, Some(budget)).is_err() {
                break;
            }
            for ev in &ready {
                match ev.token {
                    TOKEN_WAKE => {
                        // Drain first: what the wakers published is looked
                        // at only after the latch re-opens.
                        shared.waker.drain();
                        (0..shared.links.len()).for_each(|i| self.service_link(i, false));
                    }
                    TOKEN_LISTENER => self.accept_ready(),
                    t if t >= first_inbound => self.inbound_ready(t),
                    t => self.service_link((t - TOKEN_LINK_BASE) as usize, ev.hangup),
                }
            }
            if deadline.is_some() {
                let now = Instant::now();
                let overdue = |c: &Inbound| c.reader.handshake_deadline().is_some_and(|d| now >= d);
                let silent: Vec<u64> = (self.inbound.iter())
                    .filter_map(|(&t, c)| overdue(c).then_some(t))
                    .collect();
                silent.into_iter().for_each(|t| self.close_inbound(t));
            }
        }
        self.close();
    }

    /// Brings link `idx` up to date with what its senders asked for and
    /// its socket reported: forgets a connection that hung up (peer gone,
    /// write error, injected kill — the next send re-dials), installs a
    /// finished dial, starts a requested one, writes a backed-up outbox,
    /// and keeps the writability subscription equal to `write_wanted`.
    fn service_link(&mut self, idx: usize, hangup: bool) {
        let shared = &*self.shared;
        let Some(link) = &shared.links[idx] else {
            return;
        };
        let token = TOKEN_LINK_BASE + idx as u64;
        let mut eg = link.egress.lock();
        if let (true, Conn::Up(stream)) = (hangup, &eg.conn) {
            let _ = shared.poller.deregister(stream.as_raw_fd());
            self.armed[idx] = false;
            TcpStats::add(&shared.stats.disconnects, 1);
            shared.fail(&mut eg);
        }
        if let Some(dialed) = eg.dialed.take() {
            if let Some(dialer) = self.dialers[idx].take() {
                let _ = dialer.join();
            }
            let register =
                |s: &TcpStream| shared.poller.register(s.as_raw_fd(), token, Interest::NONE);
            match dialed {
                Ok(stream) if register(&stream).is_ok() => {
                    TcpStats::add(&shared.stats.dials, 1);
                    eg.backoff = shared.cfg.initial_backoff;
                    eg.conn = Conn::Up(Arc::new(stream));
                }
                _ => shared.fail(&mut eg),
            }
        }
        let stream = match &eg.conn {
            Conn::Up(stream) => Arc::clone(stream),
            Conn::Dialing if self.dialers[idx].is_none() => {
                let (dialer, addr) = (Arc::clone(&self.shared), link.addr);
                self.dialers[idx] = Some(std::thread::spawn(move || {
                    let dialed = dial(dialer.me, addr);
                    if let Some(link) = &dialer.links[idx] {
                        link.egress.lock().dialed = Some(dialed);
                    }
                    dialer.waker.wake();
                }));
                return;
            }
            _ => return,
        };
        if !eg.draining && !eg.outbox.is_empty() {
            eg.draining = true;
            shared.drain(link, eg, &stream, &shared.stats.writes_deferred);
            eg = link.egress.lock();
        }
        let current = matches!(&eg.conn, Conn::Up(s) if Arc::ptr_eq(s, &stream));
        if current && eg.write_wanted != self.armed[idx] {
            let interest = Interest {
                read: false,
                write: eg.write_wanted,
            };
            let fd = stream.as_raw_fd();
            if shared.poller.reregister(fd, token, interest).is_ok() {
                self.armed[idx] = eg.write_wanted;
            }
        }
    }

    /// Takes every connection waiting on the listener (an error, usually
    /// `WouldBlock`, ends the batch; readiness re-reports what is left).
    fn accept_ready(&mut self) {
        while let Ok((stream, _)) = self.listener.accept() {
            let (fd, token) = (stream.as_raw_fd(), self.next_token);
            let ready = stream.set_nonblocking(true).is_ok()
                && stream.set_nodelay(true).is_ok()
                && (self.shared.poller.register(fd, token, Interest::READ)).is_ok();
            if ready {
                TcpStats::add(&self.shared.stats.accepts, 1);
                self.next_token += 1;
                let reader = FrameReader::new(self.shared.cfg.max_frame_bytes, Instant::now());
                self.inbound.insert(token, Inbound { stream, reader });
            }
        }
    }

    /// Reads what `token`'s connection has, feeding its [`FrameReader`]
    /// and the sink; closes it on EOF, error, protocol violation or a gone
    /// receiver.
    fn inbound_ready(&mut self, token: u64) {
        let Some(conn) = self.inbound.get_mut(&token) else {
            return;
        };
        for _ in 0..READS_PER_EVENT {
            let n = match conn.stream.read(&mut self.rdbuf) {
                Ok(0) => return self.close_inbound(token),
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return self.close_inbound(token),
            };
            conn.reader.on_bytes(&self.rdbuf[..n], &mut self.events);
            let mut alive = !conn.reader.is_dead();
            let (mut frames, mut payload) = (0u64, 0u64);
            for ev in self.events.drain(..) {
                if let NetEvent::Frame(_, frame) = &ev {
                    frames += 1;
                    payload += frame.len() as u64;
                }
                alive &= (self.sink)(ev);
            }
            TcpStats::add(&self.shared.stats.frames_received, frames);
            TcpStats::add(&self.shared.stats.bytes_received, payload);
            if !alive {
                return self.close_inbound(token);
            }
            if n < self.rdbuf.len() {
                return; // Short read: the socket is empty for now.
            }
        }
    }

    /// Forgets an inbound connection; one that had identified itself
    /// surfaces as [`NetEvent::PeerDown`].
    fn close_inbound(&mut self, token: u64) {
        let Some(conn) = self.inbound.remove(&token) else {
            return;
        };
        let _ = self.shared.poller.deregister(conn.stream.as_raw_fd());
        if let Some(peer) = conn.reader.peer() {
            TcpStats::add(&self.shared.stats.disconnects, 1);
            let _ = (self.sink)(NetEvent::PeerDown(peer));
        }
    }

    /// Shutdown: no dial left running, every link closed for good.
    fn close(mut self) {
        for dialer in self.dialers.drain(..).flatten() {
            let _ = dialer.join();
        }
        for link in self.shared.links.iter().flatten() {
            let mut eg = link.egress.lock();
            if let Conn::Up(stream) = &eg.conn {
                let _ = self.shared.poller.deregister(stream.as_raw_fd());
                let _ = stream.shutdown(Shutdown::Both);
            }
            self.shared.fail(&mut eg);
            (eg.conn, eg.dialed) = (Conn::Closed, None);
        }
    }
}

/// The handshake a dialer opens its connection with.
fn hello(me: NodeId) -> [u8; 8] {
    let mut hello = [0u8; 8];
    hello[..4].copy_from_slice(&MAGIC);
    hello[4..].copy_from_slice(&me.0.to_le_bytes());
    hello
}

/// Dials `addr` and performs the identifying handshake; the stream comes
/// back non-blocking.
fn dial(me: NodeId, addr: SocketAddr) -> io::Result<TcpStream> {
    let mut s = TcpStream::connect_timeout(&addr, DIAL_TIMEOUT)?;
    s.set_nodelay(true)?;
    s.write_all(&hello(me))?;
    s.set_nonblocking(true)?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{unbounded as chan, Receiver};

    /// Starts `ep` with a sink forwarding into a channel.
    fn start_collecting(ep: TcpEndpoint) -> (IngressGuard, Receiver<NetEvent>) {
        let (tx, rx) = chan();
        let guard = ep.start(Arc::new(move |ev| tx.send(ev).is_ok()));
        (guard, rx)
    }

    fn recv_frame(rx: &Receiver<NetEvent>) -> (NodeId, Bytes) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            match rx.recv_timeout(Duration::from_millis(100)) {
                Ok(NetEvent::Frame(from, b)) => return (from, b),
                Ok(_) => continue,
                Err(_) => continue,
            }
        }
        panic!("no frame within deadline");
    }

    #[test]
    fn loopback_pair_exchanges_frames() {
        let mut eps = TcpNet::loopback(2).unwrap().into_endpoints();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let a_tx = a.sender();
        let b_tx = b.sender();
        let (ga, ra) = start_collecting(a);
        let (gb, rb) = start_collecting(b);
        a_tx.send(NodeId(1), Bytes::from_static(b"ping"));
        let (from, data) = recv_frame(&rb);
        assert_eq!((from, &data[..]), (NodeId(0), &b"ping"[..]));
        b_tx.send(NodeId(0), Bytes::from_static(b"pong"));
        let (from, data) = recv_frame(&ra);
        assert_eq!((from, &data[..]), (NodeId(1), &b"pong"[..]));
        assert!(a_tx.stats().frames_sent() >= 1);
        assert!(b_tx.stats().frames_received() >= 1);
        ga.stop();
        gb.stop();
    }

    #[test]
    fn many_frames_preserve_content_and_order_per_peer() {
        let mut eps = TcpNet::loopback(2).unwrap().into_endpoints();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let a_tx = a.sender();
        let (_ga, _ra) = start_collecting(a);
        let (gb, rb) = start_collecting(b);
        for i in 0..500u32 {
            a_tx.send(NodeId(1), Bytes::from(i.to_le_bytes().to_vec()));
        }
        for i in 0..500u32 {
            let (_, data) = recv_frame(&rb);
            assert_eq!(data[..], i.to_le_bytes(), "frame {i} out of order");
        }
        gb.stop();
    }

    #[test]
    fn killed_connection_surfaces_peer_down_then_reconnects() {
        let mut eps = TcpNet::loopback(2).unwrap().into_endpoints();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let a_tx = a.sender();
        let b_stats = b.stats();
        let (_ga, _ra) = start_collecting(a);
        let (gb, rb) = start_collecting(b);

        a_tx.send(NodeId(1), Bytes::from_static(b"one"));
        let _ = recv_frame(&rb);

        // Kill the live 0→1 connection; node 1's reader must surface it.
        a_tx.kill_connection(NodeId(1));
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut saw_down = false;
        while Instant::now() < deadline && !saw_down {
            if let Ok(NetEvent::PeerDown(p)) = rb.recv_timeout(Duration::from_millis(100)) {
                assert_eq!(p, NodeId(0));
                saw_down = true;
            }
        }
        assert!(saw_down, "reader did not surface the disconnect");
        // The writer bumps its counter just after the shutdown syscall the
        // peer observed; poll briefly instead of racing it.
        let deadline = Instant::now() + Duration::from_secs(2);
        while a_tx.stats().disconnects() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(a_tx.stats().disconnects() >= 1, "writer side counted too");

        // Reconnect: the next sends dial a fresh connection and deliver.
        // (Early retries may race the backoff window and drop; keep trying.)
        let dials_before = a_tx.stats().dials();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut redelivered = false;
        while Instant::now() < deadline && !redelivered {
            a_tx.send(NodeId(1), Bytes::from_static(b"two"));
            if let Ok(NetEvent::Frame(_, data)) = rb.recv_timeout(Duration::from_millis(100)) {
                assert_eq!(&data[..], b"two");
                redelivered = true;
            }
        }
        assert!(redelivered, "no delivery after reconnect");
        assert!(a_tx.stats().dials() > dials_before, "reconnect happened");
        assert!(b_stats.disconnects() >= 1);
        gb.stop();
    }

    #[test]
    fn frames_to_unreachable_peer_are_dropped_not_queued_forever() {
        // Peer table points node 1 at a port nobody listens on.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let me_addr = listener.local_addr().unwrap();
        let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let ep =
            TcpEndpoint::from_listener(NodeId(0), listener, &[me_addr, dead], TcpConfig::default())
                .unwrap();
        let tx = ep.sender();
        let (guard, _rx) = start_collecting(ep);
        for _ in 0..50 {
            tx.send(NodeId(1), Bytes::from_static(b"void"));
            std::thread::sleep(Duration::from_millis(1));
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while tx.stats().frames_dropped() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(tx.stats().frames_dropped() > 0);
        assert_eq!(tx.stats().frames_sent(), 0);
        guard.stop();
    }

    #[test]
    fn non_protocol_connection_is_ignored() {
        let mut eps = TcpNet::loopback(1).unwrap().into_endpoints();
        let a = eps.pop().unwrap();
        let addr = a.local_addr().unwrap();
        let (guard, rx) = start_collecting(a);
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        drop(s);
        // No Frame/PeerUp/PeerDown may surface from a garbage handshake.
        assert!(rx.recv_timeout(Duration::from_millis(300)).is_err());
        guard.stop();
    }

    #[test]
    fn self_and_out_of_range_sends_drop_silently() {
        let mut eps = TcpNet::loopback(1).unwrap().into_endpoints();
        let a = eps.pop().unwrap();
        let tx = a.sender();
        tx.send(NodeId(0), Bytes::from_static(b"me"));
        tx.send(NodeId(9), Bytes::from_static(b"nowhere"));
        assert_eq!(tx.stats().frames_dropped(), 2);
        assert_eq!(tx.cluster_size(), 1);
    }

    fn hello(id: u32) -> Vec<u8> {
        super::hello(NodeId(id)).to_vec()
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        [&(payload.len() as u32).to_le_bytes()[..], payload].concat()
    }

    /// Feeds `wire` to a fresh reader in the given pieces.
    fn read_in_pieces(max_frame: usize, pieces: &[&[u8]]) -> (FrameReader, Vec<NetEvent>) {
        let mut reader = FrameReader::new(max_frame, Instant::now());
        let mut events = Vec::new();
        for piece in pieces {
            reader.on_bytes(piece, &mut events);
        }
        (reader, events)
    }

    #[test]
    fn frame_reader_splits_frames_across_arbitrary_byte_splits() {
        let payloads: [&[u8]; 4] = [b"", b"a", &[0xAB; 300], b"tail"];
        let mut wire = hello(7);
        let mut want = vec![NetEvent::PeerUp(NodeId(7))];
        for p in payloads {
            wire.extend_from_slice(&framed(p));
            want.push(NetEvent::Frame(NodeId(7), Bytes::copy_from_slice(p)));
        }
        for cut in 0..=wire.len() {
            let (reader, events) = read_in_pieces(1 << 20, &[&wire[..cut], &wire[cut..]]);
            assert_eq!(events, want, "split at {cut}");
            assert!(!reader.is_dead());
            assert_eq!(reader.handshake_deadline(), None);
        }
        let bytes: Vec<&[u8]> = wire.chunks(1).collect();
        assert_eq!(read_in_pieces(1 << 20, &bytes).1, want, "byte at a time");
    }

    #[test]
    fn frame_reader_drops_a_bad_magic_with_no_peer_event() {
        let mut wire = b"HRM2".to_vec();
        wire.extend_from_slice(&9u32.to_le_bytes());
        wire.extend_from_slice(&framed(b"never delivered"));
        for cut in 0..=wire.len() {
            let (reader, events) = read_in_pieces(1 << 20, &[&wire[..cut], &wire[cut..]]);
            assert!(reader.is_dead(), "split at {cut}");
            assert_eq!(reader.peer(), None);
            assert!(events.is_empty(), "split at {cut}: {events:?}");
        }
    }

    #[test]
    fn frame_reader_dies_on_an_oversized_length_after_delivering_what_preceded_it() {
        let wire = [hello(3), framed(b"ok"), 65u32.to_le_bytes().to_vec()].concat();
        for cut in 0..=wire.len() {
            let (mut reader, mut events) = read_in_pieces(64, &[&wire[..cut], &wire[cut..]]);
            assert!(reader.is_dead(), "split at {cut}");
            // The owner turns "dead with a known peer" into one PeerDown.
            assert_eq!(reader.peer(), Some(NodeId(3)));
            let want = [
                NetEvent::PeerUp(NodeId(3)),
                NetEvent::Frame(NodeId(3), Bytes::from_static(b"ok")),
            ];
            assert_eq!(events, want, "split at {cut}");
            reader.on_bytes(&framed(b"late"), &mut events);
            assert_eq!(events.len(), 2, "a dead reader emits nothing more");
        }
        // Exactly at the limit is fine.
        let (reader, events) = read_in_pieces(64, &[&hello(3), &framed(&[1; 64])]);
        assert!(!reader.is_dead());
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn frame_reader_handshake_deadline_stands_until_the_peer_is_known() {
        let t0 = Instant::now();
        let mut reader = FrameReader::new(64, t0);
        let mut events = Vec::new();
        reader.on_bytes(&hello(1)[..7], &mut events);
        assert_eq!(reader.handshake_deadline(), Some(t0 + HANDSHAKE_DEADLINE));
        reader.on_bytes(&hello(1)[7..], &mut events);
        assert_eq!(reader.handshake_deadline(), None);
        assert_eq!(events, [NetEvent::PeerUp(NodeId(1))]);
    }

    #[test]
    fn silent_connection_is_reaped_at_the_handshake_deadline() {
        let mut eps = TcpNet::loopback(1).unwrap().into_endpoints();
        let a = eps.pop().unwrap();
        let addr = a.local_addr().unwrap();
        let (guard, rx) = start_collecting(a);
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&MAGIC).unwrap(); // Half a handshake, then silence.
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let start = Instant::now();
        // The poller closes the socket on its own timer: EOF, not a timeout.
        assert_eq!(s.read(&mut [0u8; 1]).unwrap(), 0);
        assert!(start.elapsed() >= HANDSHAKE_DEADLINE - Duration::from_millis(50));
        assert!(rx.try_recv().is_err(), "no peer event for a non-peer");
        guard.stop();
    }

    #[test]
    fn oversized_frame_on_the_wire_surfaces_exactly_one_peer_down() {
        let cfg = TcpConfig {
            max_frame_bytes: 64,
            ..TcpConfig::default()
        };
        let mut eps = TcpNet::loopback_with(1, cfg).unwrap().into_endpoints();
        let a = eps.pop().unwrap();
        let addr = a.local_addr().unwrap();
        let stats = a.stats();
        let (guard, rx) = start_collecting(a);
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&[hello(4), 65u32.to_le_bytes().to_vec()].concat())
            .unwrap();
        let next = || rx.recv_timeout(Duration::from_secs(5));
        assert_eq!(next(), Ok(NetEvent::PeerUp(NodeId(4))));
        assert_eq!(next(), Ok(NetEvent::PeerDown(NodeId(4))));
        assert_eq!(s.read(&mut [0u8; 1]).unwrap_or(0), 0, "link was closed");
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        assert_eq!(stats.disconnects(), 1);
        guard.stop();
    }

    /// A raw listener standing in for a peer: the accepted stream comes
    /// back on the channel, untouched.
    fn raw_peer() -> (SocketAddr, Receiver<TcpStream>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = chan();
        std::thread::spawn(move || {
            if let Ok((s, _)) = listener.accept() {
                let _ = tx.send(s);
            }
        });
        (addr, rx)
    }

    /// Node 0 of a two-node table whose node 1 is `peer`.
    fn endpoint_facing(peer: SocketAddr) -> TcpEndpoint {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let me = listener.local_addr().unwrap();
        TcpEndpoint::from_listener(NodeId(0), listener, &[me, peer], TcpConfig::default()).unwrap()
    }

    #[test]
    fn peer_that_never_reads_cannot_grow_the_sender_past_the_outbox_cap() {
        let (addr, accepted) = raw_peer();
        let ep = endpoint_facing(addr);
        let (tx, stats) = (ep.sender(), ep.stats());
        let (guard, _rx) = start_collecting(ep);
        // One shared megabyte: the outbox holds references, so the test
        // itself stays small while the accounted backlog hits the cap.
        let frame = Bytes::from(vec![0x5A; 1 << 20]);
        tx.send(NodeId(1), frame.clone());
        let _never_read = accepted.recv_timeout(Duration::from_secs(5)).unwrap();
        let start = Instant::now();
        for _ in 0..(OUTBOX_CAP >> 20) + 64 {
            tx.send(NodeId(1), frame.clone());
            assert!(stats.egress_backlog_bytes() <= OUTBOX_CAP as u64);
        }
        // `send` never waited for the peer (which would be forever).
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "{:?}",
            start.elapsed()
        );
        assert!(
            stats.frames_dropped() > 0,
            "overflow is dropped, not queued"
        );
        assert!(stats.egress_backlog_bytes() > (OUTBOX_CAP as u64) / 2);
        guard.stop();
        assert_eq!(
            stats.egress_backlog_bytes(),
            0,
            "shutdown releases the outbox"
        );
    }

    #[test]
    fn concurrent_senders_through_a_backed_up_socket_arrive_intact_and_in_order() {
        const FRAMES: u32 = 1_500;
        const LEN: usize = 16 * 1024;
        let (addr, accepted) = raw_peer();
        let ep = endpoint_facing(addr);
        let (tx, stats) = (ep.sender(), ep.stats());
        let (guard, _rx) = start_collecting(ep);
        // The peer reads nothing until both senders are done: 48 MiB cannot
        // fit in the socket buffers, so writes come up short and the rest
        // takes the outbox path while the two threads keep interleaving.
        let senders: Vec<_> = (0..2u32)
            .map(|id| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for seq in 0..FRAMES {
                        let mut payload = vec![(seq % 251) as u8; LEN];
                        payload[..4].copy_from_slice(&id.to_le_bytes());
                        payload[4..8].copy_from_slice(&seq.to_le_bytes());
                        tx.send(NodeId(1), Bytes::from(payload));
                    }
                })
            })
            .collect();
        senders.into_iter().for_each(|h| h.join().unwrap());
        assert!(stats.egress_backlog_bytes() > 0, "the socket backed up");
        let mut peer = accepted.recv_timeout(Duration::from_secs(5)).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut greeting = [0u8; 8];
        peer.read_exact(&mut greeting).unwrap();
        assert_eq!(greeting[..], hello(0)[..]);
        let mut next = [0u32; 2];
        let mut frame = vec![0u8; 4 + LEN];
        for _ in 0..2 * FRAMES {
            peer.read_exact(&mut frame).unwrap();
            assert_eq!(frame[..4], (LEN as u32).to_le_bytes());
            let id = u32::from_le_bytes(frame[4..8].try_into().unwrap()) as usize;
            let seq = u32::from_le_bytes(frame[8..12].try_into().unwrap());
            assert_eq!(seq, next[id], "sender {id} out of order");
            assert!(frame[12..].iter().all(|&b| b == (seq % 251) as u8));
            next[id] += 1;
        }
        assert_eq!(stats.frames_dropped(), 0);
        assert_eq!(stats.frames_sent(), 2 * u64::from(FRAMES));
        assert!(
            stats.writes_deferred() > 0,
            "the poller finished the backlog"
        );
        assert_eq!(
            stats.writes_inline() + stats.writes_deferred(),
            stats.frames_sent()
        );
        assert_eq!(stats.egress_backlog_bytes(), 0);
        guard.stop();
    }
}
