//! The pluggable transport abstraction behind every cluster runtime.
//!
//! The paper's Hermes runs over RDMA unreliable datagrams; this workspace
//! runs the same protocol over whichever substrate fits the deployment:
//! crossbeam channels inside one process ([`InProcNet`]) or length-prefixed
//! frames over real TCP sockets ([`TcpNet`]) for multi-process clusters.
//! Both implement the same contract so runtimes are written once:
//!
//! * [`Transport`] — a factory producing one [`Endpoint`] per node;
//! * [`Endpoint`] — one node's attachment: a cloneable transmit half
//!   ([`NetSender`]) plus a receive half, taken one of two ways.
//!   [`Endpoint::split`] hands each worker lane its own [`LaneLinks`]: the
//!   lane's thread blocks in one [`Wait`] covering its command queue and
//!   the sockets it reads itself, and gets every [`NetEvent`] it reads
//!   handed to it inline — no thread between the wire and the lane (the
//!   in-process transport still delivers from a thread of its own, into
//!   the sink `split` takes). [`Endpoint::start`] runs the same receive
//!   half on a thread of the transport's and pushes every event into an
//!   [`IngressSink`] — for tests, probes and anything that is not a lane.
//!
//! The service model every transport must preserve is the paper's (§3.4):
//! datagrams may be dropped, duplicated and reordered — Hermes' message-loss
//! timeouts absorb all three, and they also absorb a TCP connection dying
//! and being re-dialed (frames buffered in the dead socket are simply
//! "dropped datagrams").
//!
//! [`InProcNet`]: crate::InProcNet
//! [`TcpNet`]: crate::TcpNet

use crate::poll::{Wait, Waker};
use bytes::Bytes;
use hermes_common::NodeId;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One event surfaced by a transport's ingress path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetEvent {
    /// A datagram (one Wings frame) arrived from a peer.
    Frame(NodeId, Bytes),
    /// The connection carrying a peer's traffic died (TCP reader saw
    /// EOF/error). Purely informational: the protocol needs no action —
    /// message-loss timeouts already cover the lost frames — but runtimes
    /// count these so operators and tests can observe fault paths.
    PeerDown(NodeId),
    /// A peer's connection was (re-)established toward this node.
    PeerUp(NodeId),
}

/// Consumes ingress events; returns `false` when the receiver is gone and
/// delivery threads should stop.
///
/// Shared across however many delivery threads a transport runs, so it
/// must be callable concurrently.
pub type IngressSink = Arc<dyn Fn(NetEvent) -> bool + Send + Sync>;

/// The transmit half of a node's network attachment.
///
/// Cloneable and shareable: on a multi-worker replica every worker thread
/// holds a clone and sends its Wings frames directly — the shared sender
/// *is* the node's merged egress. Sends never block and may silently drop
/// (unreachable peer, injected fault, dead connection): datagram semantics.
pub trait NetSender: Clone + Send + 'static {
    /// The node this sender transmits as.
    fn node_id(&self) -> NodeId;

    /// Sends one datagram to `to`. Never blocks; silently drops on any
    /// failure (the protocol's loss timeouts recover).
    fn send(&self, to: NodeId, payload: Bytes);
}

/// One worker lane's share of a node's links ([`Endpoint::split`]): the
/// sender that writes on the lane's own connections, and the one blocking
/// wait the lane's thread makes.
pub trait LaneLinks: Send + 'static {
    /// The transmit half that writes on this lane's links.
    type Sender: NetSender;

    /// A sender writing on this lane's links.
    fn sender(&self) -> Self::Sender;

    /// Blocks up to `timeout` (less if a link needs an earlier look) until
    /// the lane's waker rings or a socket of this lane is ready, then does
    /// what became possible — reads, finishes short writes, installs
    /// dials — handing every ingress event read to `deliver` (`false`:
    /// close the connection it came on). The lane looks at its command
    /// queue after this returns.
    fn poll(&mut self, timeout: Duration, deliver: &mut dyn FnMut(NetEvent) -> bool);
}

/// One node's attachment to a [`Transport`].
pub trait Endpoint: Send + std::fmt::Debug + 'static {
    /// The transmit half this endpoint hands to worker threads.
    type Sender: NetSender;

    /// One lane's share of the links ([`Endpoint::split`]).
    type Links: LaneLinks<Sender = Self::Sender>;

    /// This endpoint's node id.
    fn node_id(&self) -> NodeId;

    /// A cloneable transmit handle for this node.
    fn sender(&self) -> Self::Sender;

    /// Consumes the endpoint and starts delivering ingress into `sink`
    /// from transport-owned threads. Delivery runs until the returned
    /// [`IngressGuard`] is stopped or the sink reports the receiver gone.
    fn start(self, sink: IngressSink) -> IngressGuard;

    /// Consumes the endpoint and splits it into one [`LaneLinks`] per
    /// `waits` entry, the i-th for lane i's thread, whose sockets register
    /// in that wait. Ingress the lanes do not read themselves goes into
    /// `sink` from a transport thread that the first link set owns (the
    /// in-process transport's; the TCP transport has none).
    ///
    /// # Errors
    ///
    /// Fails if a socket cannot be registered in its wait.
    fn split(self, waits: Vec<Wait>, sink: IngressSink) -> io::Result<Vec<Self::Links>>;
}

/// A network: one [`Endpoint`] per node, however they are wired.
pub trait Transport {
    /// The per-node endpoint type.
    type Endpoint: Endpoint;

    /// Extracts the endpoints, one per node, to hand to node runtimes.
    fn into_endpoints(self) -> Vec<Self::Endpoint>;
}

/// Owns the delivery threads spawned by [`Endpoint::start`]; stopping it
/// signals them and joins them.
#[derive(Debug)]
pub struct IngressGuard {
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
    /// Interrupts a delivery thread blocked in a readiness wait so it
    /// sees `stop` at once (threads that poll the flag need none).
    waker: Option<Arc<Waker>>,
}

impl IngressGuard {
    /// Builds a guard over `handles`, all of which watch `stop`.
    pub fn new(stop: Arc<AtomicBool>, handles: Vec<JoinHandle<()>>) -> Self {
        IngressGuard {
            stop,
            handles,
            waker: None,
        }
    }

    /// Also rings `waker` on stop, for delivery threads parked in a
    /// [`Poller`](crate::Poller) wait rather than polling the flag.
    pub(crate) fn waking(mut self, waker: Arc<Waker>) -> Self {
        self.waker = Some(waker);
        self
    }

    /// Signals every delivery thread to stop and joins them.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(w) = &self.waker {
            w.wake();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for IngressGuard {
    fn drop(&mut self) {
        self.halt();
    }
}
